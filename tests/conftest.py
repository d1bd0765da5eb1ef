import json
import math
import signal
from pathlib import Path

import pytest
from hypothesis import settings

import tspmeta as tm
from tspmeta.instance import cycle_length

# Property tests replay the same examples on every run and have no per-example
# deadline, so a slow shared machine cannot make them flake.
settings.register_profile("tspmeta", deadline=None, derandomize=True)
settings.load_profile("tspmeta")

BUNDLED_SPEC = Path(__file__).resolve().parent.parent / "specs" / "five_city_repro.json"
SRC = Path(tm.__file__).resolve().parent.parent  # the tspmeta tree under test


def bundled_spec_doc() -> dict:
    return json.loads(BUNDLED_SPEC.read_text(encoding="utf-8"))


def write_spec(tmp_path, doc) -> Path:
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


@pytest.fixture
def five_city() -> tm.Instance:
    return tm.five_city_instance()


@pytest.fixture
def unit_square() -> tm.Instance:
    return tm.Instance.from_coords(
        "unit-square", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def berlin52() -> tm.Instance:
    return tm.packaged_instance("berlin52")


def random_instance(rng, n: int, name: str = "random") -> tm.Instance:
    """Uniform random coordinates in the unit square from a seeded stream."""
    return tm.Instance.from_coords(name, [(rng.random(), rng.random()) for _ in range(n)])


def assert_valid_result(result, instance: tm.Instance) -> None:
    """result's best tour is a tour of instance, and its best cost that tour's length."""
    tm.validate_tour(result.best_tour, instance.n)
    assert result.best_cost == tm.tour_length(result.best_tour, tm.build_distance_matrix(instance))


def tsplib_text(coords, name: str = "t") -> str:
    """A TSPLIB EUC_2D file for coords, written by hand rather than by
    write_tsplib, whose Instance refuses coordinates that overflow."""
    nodes = "".join(f"{i} {x!r} {y!r}\n" for i, (x, y) in enumerate(coords, start=1))
    return (f"NAME: {name}\nTYPE: TSP\nDIMENSION: {len(coords)}\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            f"NODE_COORD_SECTION\n{nodes}EOF\n")


def in_time(search, *args, seconds: float = 5.0):
    """search(*args), or TimeoutError once it has run for `seconds`: a
    tour-ordered matrix or a position index that falls out of step with the
    tour, or a block scan whose deltas disagree with the move it applies,
    can make a local search cycle forever, and an uncapped SA schedule can
    grow without bound; this turns either into a failure."""
    def expire(signum, frame):
        raise TimeoutError(f"{search.__name__} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return search(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def enumerated_optimal(instance: tm.Instance) -> tuple[tm.Tour, float]:
    """Exact optimum by exhaustive enumeration of the (n-1)!/2 distinct
    undirected tours (city 0 fixed first, second city < last city): the
    reference that brute_force_optimal's dynamic programme is held to.
    A few tenths of a second at n = 11.

    Branches whose partial length already reaches the incumbent are cut;
    with nonnegative distances this never discards a strictly better tour,
    and ties keep the earlier (lexicographically smallest) canonical tour.
    """
    n = instance.n
    m = tm.build_distance_matrix(instance)
    rows = m.rows
    if n == 1:
        return (0,), 0.0
    if n == 2:
        return (0, 1), cycle_length((0, 1), rows)

    best_order: tuple[int, ...] | None = None
    best_len = math.inf
    order = [0] * n
    used = [False] * n
    used[0] = True

    def extend(pos: int, last: int, acc: float) -> None:
        nonlocal best_order, best_len
        if pos == n:
            if order[1] < order[n - 1]:
                total = acc + rows[last][0]
                if total < best_len:
                    best_len = total
                    best_order = tuple(order)
            return
        for c in range(1, n):
            if not used[c]:
                nl = acc + rows[last][c]
                if nl < best_len:
                    used[c] = True
                    order[pos] = c
                    extend(pos + 1, c, nl)
                    used[c] = False

    extend(1, 0, 0.0)
    assert best_order is not None
    return best_order, cycle_length(best_order, rows)
