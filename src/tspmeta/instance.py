"""TSP instances, distance matrices, tours, the exact oracle, and run_search.

A tour is a plain tuple of 0-based city indices; the return edge to the
first city is implicit. Undirected-cycle equality is decided by comparing
canonical forms (see canonicalize).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DimensionMismatchError, InstanceTooLargeError

Tour = tuple[int, ...]

# (n-1)!/2 tours at n=12 is ~2e7; beyond that the exact solver is refused.
MAX_EXACT_CITIES = 12


class Metric(Enum):
    EUCLIDEAN_EXACT = "euclidean-exact"
    EUCLIDEAN_ROUNDED = "euclidean-rounded"


@dataclass(frozen=True)
class City:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Instance:
    name: str
    cities: tuple[City, ...]
    metric: Metric = Metric.EUCLIDEAN_EXACT

    def __post_init__(self):
        object.__setattr__(self, "metric", Metric(self.metric))  # a member or a member's value
        if len(self.cities) < 1:
            raise ValueError("an instance needs at least one city")
        for i, c in enumerate(self.cities):
            if c.id != i:
                raise ValueError(f"city ids must be exactly 0..n-1 in order; got id {c.id} at position {i}")
            if not (math.isfinite(c.x) and math.isfinite(c.y)):
                raise ValueError(f"city {i + 1} has non-finite coordinates")
        # Python floats overflow to inf just as build_distance_matrix's numpy
        # does, without a warning. The bounding box's diagonal bounds every
        # distance, so the pairwise scan runs only for coordinates spread over
        # more than about 1e154.
        xs, ys = [c.x for c in self.cities], [c.y for c in self.cities]
        w, h = max(xs) - min(xs), max(ys) - min(ys)
        if not math.isfinite(w * w + h * h):
            for i, a in enumerate(self.cities):
                for j, b in enumerate(self.cities[:i]):
                    if math.isinf((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)):
                        raise ValueError(f"the distance between cities {j + 1} and {i + 1} "
                                         "overflows a float")

    @property
    def n(self) -> int:
        return len(self.cities)

    @classmethod
    def from_coords(cls, name: str, coords: list[tuple[float, float]],
                    metric: Metric = Metric.EUCLIDEAN_EXACT) -> "Instance":
        cities = tuple(City(i, float(x), float(y)) for i, (x, y) in enumerate(coords))
        return cls(name=name, cities=cities, metric=metric)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    n: int
    d: np.ndarray  # (n, n) float64: symmetric, zero diagonal, finite, >= 0

    def rows(self) -> list[list[float]]:
        """Plain nested lists of the same float64 values, for tight loops."""
        cached = getattr(self, "_rows", None)
        if cached is None:
            cached = self.d.tolist()
            object.__setattr__(self, "_rows", cached)
        return cached


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """Pairwise costs for an instance under its metric.

    EUCLIDEAN_EXACT keeps sqrt((xi-xj)^2 + (yi-yj)^2) as-is;
    EUCLIDEAN_ROUNDED applies the TSPLIB EUC_2D convention int(dist + 0.5).
    """
    xs = np.array([c.x for c in instance.cities], dtype=np.float64)
    ys = np.array([c.y for c in instance.cities], dtype=np.float64)
    d = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
    if instance.metric is Metric.EUCLIDEAN_ROUNDED:
        d = np.floor(d + 0.5)
    return DistanceMatrix(n=instance.n, d=d)


def cycle_length(order, rows) -> float:
    """Sequential-sum cost of a cyclic visit order over nested-list rows:
    edge (order[k], order[k+1]) for k = 0..n-2, then the closing edge.

    This is the one canonical cost accumulation; every recorded cost in the
    toolkit comes from it, so re-evaluation reproduces stored costs exactly.
    """
    total = 0.0
    prev = order[0]
    for c in order[1:]:
        total += rows[prev][c]
        prev = c
    return total + rows[prev][order[0]]


def cycle_lengths(orders: np.ndarray, d: np.ndarray) -> np.ndarray:
    """cycle_length of each row of a (P, n) array of visit orders, equal to
    it bit for bit: the row-wise cumsum adds the same edges in the same
    order (a plain .sum() would add them pairwise and round differently)."""
    edges = d[orders, np.roll(orders, -1, axis=1)]
    return np.cumsum(edges, axis=1)[:, -1]


def tour_length(tour: Tour, m: DistanceMatrix) -> float:
    if len(tour) != m.n:
        raise DimensionMismatchError(f"tour has {len(tour)} cities, matrix expects {m.n}")
    return cycle_length(tour, m.rows())


def validate_tour(tour, n: int) -> None:
    """Raise ValueError unless tour is a permutation of 0..n-1."""
    if len(tour) != n or sorted(tour) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {tour!r}")


def canonicalize(tour: Tour) -> Tour:
    """Normalize to start at city 0, orienting so the second city is the
    smaller of the two neighbors of 0. Rotations and reversals of the same
    cycle map to the same canonical tuple; idempotent."""
    n = len(tour)
    k = tour.index(0)
    rotated = tour[k:] + tour[:k]
    if n >= 3 and rotated[1] > rotated[-1]:
        rotated = rotated[:1] + rotated[:0:-1]
    return rotated


def brute_force_optimal(instance: Instance) -> tuple[Tour, float]:
    """Exact optimum by exhaustive enumeration of the (n-1)!/2 distinct
    undirected tours (city 0 fixed first, second city < last city).

    Branches whose partial length already reaches the incumbent are cut;
    with nonnegative distances this never discards a strictly better tour,
    and ties keep the earlier (lexicographically smallest) canonical tour.
    """
    n = instance.n
    if n > MAX_EXACT_CITIES:
        raise InstanceTooLargeError(
            f"exact solver is limited to {MAX_EXACT_CITIES} cities, got {n}")
    m = build_distance_matrix(instance)
    rows = m.rows()
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


def nearest_neighbor_tour(instance: Instance, start: int = 0) -> Tour:
    """Greedy tour from `start`; distance ties break to the smaller city id."""
    n = instance.n
    if not 0 <= start < n:
        raise ValueError(f"start city {start} out of range for n={n}")
    rows = build_distance_matrix(instance).rows()
    unvisited = set(range(n))
    unvisited.discard(start)
    tour = [start]
    current = start
    while unvisited:
        nxt = min(unvisited, key=lambda c: (rows[current][c], c))
        tour.append(nxt)
        unvisited.discard(nxt)
        current = nxt
    return tuple(tour)


def random_tour(n: int, rng: random.Random) -> Tour:
    """Uniform random permutation drawn from the given stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


@dataclass(frozen=True)
class RunResult:
    best_tour: Tour
    best_cost: float
    iterations_run: int
    cost_history: tuple[float, ...]
    evaluations: int
    wall_time: float


def run_search(instance: Instance, cfg: Any,
               search: Callable[..., Iterator[tuple[Tour, float, int]]]) -> RunResult:
    """The one run of every metaheuristic: search(instance, cfg, matrix,
    random.Random(cfg.seed)) yields (best tour, best cost, evaluations) at its
    start and once per iteration; the costs are the history, so iterations_run
    is its length minus one. The last best tour is canonicalized, re-scored
    with the sequential sum and returned with the run's wall time."""
    start = time.perf_counter()
    rng = random.Random(cfg.seed)
    m = build_distance_matrix(instance)
    history = []
    for best, cost, evaluations in search(instance, cfg, m, rng):
        history.append(cost)
    best_tour = canonicalize(best)
    return RunResult(best_tour, tour_length(best_tour, m), len(history) - 1, tuple(history),
                     evaluations, time.perf_counter() - start)
