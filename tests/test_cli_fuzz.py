"""Fuzz of the command line: arbitrary instance files, flag values, spec
values and tour text must each give exit code 0 or 2, never the last-resort
exit 1 and never an exception out of main.

Every value that would make a call run long is drawn small: each solver's
iteration counts, population sizes and runs per spec, and an SA cooling of
at most 0.8 with a min_temp of at least 1e-6, so that even the temperature
drawn from deltas of coordinates near 1e150 cools off in under 2000 levels.
An alarm is no bound here: main would report its TimeoutError as exit 1."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tsplib_text, write_spec
from tspmeta.cli import _FLAGS, main

# text that no flag parses as a number, and strings that do but are no value
JUNK = st.text(max_size=6).filter(lambda s: not _parses(s))
SPECIAL = st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "-1", "0", "2.5", "1_0"])
# keys of at most three characters name no field that sets how long a run is
# ("name" and "kind" neither), so no JSON value below makes a long run
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
LOCAL_SEARCH = ["none", "two-opt-gbest", "two-opt-all", "three-opt-gbest"]


def mostly(valid, other):
    """valid seven times in eight, else other: a run that ends in exit 0
    needs every one of its values valid."""
    return st.integers(0, 7).flatmap(lambda k: other if k == 7 else valid)


def rarely(draw) -> bool:
    """True once in eight draws; hypothesis draws its simplest, 0, most."""
    return draw(st.integers(0, 7)) == 7


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _params(kind: str):
    """Values for each of a solver's config fields, each in its field's
    range but for a few combinations (w_end above w, tournament_k or
    elitism above the population), and bounded so that a run of n <= 7
    cities ends in well under a second."""
    ints, floats = st.integers, st.floats
    return {
        "pso": {"n_particles": ints(1, 8), "max_iter": ints(1, 15),
                "w": floats(0.0, 1.0), "c1": floats(0.0, 1e300), "c2": floats(0.0, 1e300),
                "w_end": floats(0.0, 1.0), "local_search": st.sampled_from(LOCAL_SEARCH),
                "stagnation_limit": ints(1, 5)},
        "ga": {"population": ints(1, 12), "generations": ints(1, 12),
               "crossover_rate": floats(0.0, 1.0), "mutation_rate": floats(0.0, 1.0),
               "tournament_k": ints(1, 12), "elitism": ints(0, 12)},
        "sa": {"initial_temp": floats(1e-6, 1e6), "cooling": floats(0.05, 0.8),
               "iters_per_temp": ints(1, 30), "min_temp": floats(1e-6, 1e3)},
    }[kind]


def _flag(name: str) -> str:
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


@st.composite
def instance_files(draw, directory: Path) -> tuple[str, int]:
    """The path and city count of a file of 1-7 cities in CSV or TSPLIB,
    with coordinates anywhere in the float range or near the origin, and
    now and then nan or an infinity."""
    coordinate = mostly(st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False),
                        st.floats())
    coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=7))
    if draw(st.booleans()):
        path = directory / "cities.tsp"
        path.write_text(tsplib_text(coords), encoding="utf-8")
    else:
        path = directory / "cities.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in coords), encoding="utf-8")
    return str(path), len(coords)


@st.composite
def solve_flags(draw) -> list[str]:
    """--algo, --seed and --format, then some of the solver's own flags,
    each with a bounded value, a special or junk; SA always gets --cooling,
    whose default of 0.995 cools off slowly from a large temperature. Now
    and then one flag of another solver, which is an error."""
    algo = draw(st.sampled_from(["pso", "ga", "sa"]))
    fields = _params(algo)
    chosen = draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=4))
    if algo == "sa" and "cooling" not in chosen:
        chosen.append("cooling")
    flags = ["--algo", algo, f"--seed={draw(mostly(st.integers(), JUNK))}",
             f"--format={draw(mostly(st.sampled_from(['text', 'json']), JUNK))}"]
    for name in chosen:
        value = draw(mostly(fields[name].map(str), SPECIAL | JUNK))
        flags.append(f"{_flag(name)}={value}")
    if rarely(draw):
        other = draw(st.sampled_from(sorted({"pso", "ga", "sa"} - {algo})))
        flags.append(f"{_flag(sorted(_params(other))[0])}=1")
    return flags


@st.composite
def algorithm_entries(draw):
    """A spec's algorithm entry: a kind with bounded params, or any JSON.
    An SA entry always has params with a cooling, as solve_flags explains."""
    if rarely(draw):
        return draw(JSON_VALUES)
    kind = draw(st.sampled_from(["pso", "ga", "sa"]))
    fields = _params(kind)
    params = draw(st.fixed_dictionaries({}, optional=fields))
    if kind == "sa":
        params["cooling"] = draw(fields["cooling"])
    entry = {"name": draw(mostly(st.text(min_size=1, max_size=5), JSON_VALUES)), "kind": kind}
    if kind == "sa" or draw(st.booleans()):
        # {} would leave SA its default cooling
        entry["params"] = draw(mostly(st.just(params), JSON_VALUES.filter(lambda v: v != {})))
    return entry


@st.composite
def specs(draw, instance: str):
    """An experiment spec: each key's value valid and small, or any JSON;
    now and then a key left out or an unknown one, or the whole spec any JSON."""
    if rarely(draw):
        return draw(JSON_VALUES)
    spec = {
        "instance": draw(mostly(st.sampled_from([instance, "builtin-paper"]), JSON_VALUES)),
        "algorithms": draw(mostly(st.lists(algorithm_entries(), min_size=1, max_size=2),
                                  JSON_VALUES)),
        "runs_per_algorithm": draw(mostly(st.integers(1, 2), JSON_VALUES)),
        "base_seed": draw(mostly(st.integers(), JSON_VALUES)),
    }
    if draw(st.booleans()):
        spec["reference_cost"] = draw(mostly(st.floats(), JSON_VALUES))
    if rarely(draw):
        spec.pop(draw(st.sampled_from(sorted(spec))))
    if rarely(draw):
        spec[draw(st.text(max_size=5))] = draw(JSON_VALUES)
    return spec


def exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60)
@given(st.data())
def test_solve_and_plot_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        instance, n = data.draw(instance_files(Path(tmp)))
        flags = data.draw(solve_flags())
        assert exit_code(["solve", instance, *flags]) in (0, 2), flags
        ids = st.permutations(range(1, n + 1)) | st.lists(st.integers(-1, 8), max_size=8)
        tour = data.draw(mostly(ids.map(lambda ids: ",".join(map(str, ids))),
                                st.text(max_size=20)))
        svg = str(Path(tmp) / "tour.svg")
        assert exit_code(["plot", instance, "--tour", tour, "--out", svg]) in (0, 2), tour


@settings(max_examples=60)
@given(st.data())
def test_bench_exact_and_convert_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        instance, _ = data.draw(instance_files(Path(tmp)))
        spec = data.draw(specs(instance))
        path = write_spec(Path(tmp), spec)
        out = ["--out-json", str(Path(tmp) / "out.json")] if data.draw(st.booleans()) else []
        assert exit_code(["bench", str(path), *out]) in (0, 2), spec
        assert exit_code(["exact", instance]) in (0, 2)
        for to in ("csv", "tsplib"):
            assert exit_code(["convert", instance, "--to", to]) in (0, 2)
