"""TSP instances, distance matrices, tours, the exact oracle, and run_search.

A tour is a plain tuple of 0-based city indices; the return edge to the
first city is implicit. Undirected-cycle equality is decided by comparing
canonical forms (see canonicalize).
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DimensionMismatchError, InstanceTooLargeError, InvalidTourError

Tour = tuple[int, ...]

# The exact solver's tables take 2^(n-1)·(n-1)·9 bytes: about 4.4 MB at n = 16.
MAX_EXACT_CITIES = 16

# How many nearest neighbours of each city the 2-opt and Or-opt sweeps try
# as the new end of an edge (Bentley, 1992; Johnson & McGeoch, 1997).
NEIGHBORS = 8


class Metric(Enum):
    EUCLIDEAN_EXACT = "euclidean-exact"
    EUCLIDEAN_ROUNDED = "euclidean-rounded"


@dataclass(frozen=True)
class City:
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

    @functools.cached_property
    def _matrix(self) -> DistanceMatrix:
        """The instance's distance matrix (see build_distance_matrix)."""
        xs = np.array([c.x for c in self.cities], dtype=np.float64)
        ys = np.array([c.y for c in self.cities], dtype=np.float64)
        d = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
        if self.metric is Metric.EUCLIDEAN_ROUNDED:
            d = np.floor(d + 0.5)
        d.setflags(write=False)  # a kernel that writes into it by mistake raises
        return DistanceMatrix(d)

    def __getstate__(self):
        """The fields alone: a pickled or copied instance carries no distance
        matrix (see build_distance_matrix) and builds its own."""
        state = dict(self.__dict__)
        state.pop("_matrix", None)
        return state

    @classmethod
    def from_coords(cls, name: str, coords: list[tuple[float, float]],
                    metric: Metric = Metric.EUCLIDEAN_EXACT) -> "Instance":
        cities = tuple(City(float(x), float(y)) for x, y in coords)
        return cls(name=name, cities=cities, metric=metric)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """A read-only (n, n) matrix d and its cached properties rows, largest
    and neighbors: each is built from d on first use and shared by every run
    on the matrix's instance, so no caller may write to it."""
    d: np.ndarray  # (n, n) float64, read-only: symmetric, zero diagonal, finite, >= 0

    @property
    def n(self) -> int:
        return len(self.d)

    @functools.cached_property
    def rows(self) -> list[list[float]]:
        """Plain nested lists of the same float64 values, for tight loops."""
        return self.d.tolist()

    @functools.cached_property
    def largest(self) -> float:
        """The largest distance, as a Python float."""
        return float(self.d.max())

    @functools.cached_property
    def neighbors(self) -> list[list[int]]:
        """Each city's min(NEIGHBORS, n-1) nearest other cities, nearest
        first, ties by city id, as plain lists."""
        d = self.d.copy()
        np.fill_diagonal(d, np.inf)  # each city comes after every other
        cities = np.arange(self.n)
        picks = np.empty((self.n, min(NEIGHBORS, self.n - 1)), dtype=np.intp)
        # argmin takes the first of equal minima, so ties go by city id, and
        # d is finite, so a pick set to inf is never picked again
        for k in range(picks.shape[1]):
            picks[:, k] = nearest = d.argmin(axis=1)
            d[cities, nearest] = np.inf
        return picks.tolist()


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """Pairwise costs for an instance under its metric.

    EUCLIDEAN_EXACT keeps sqrt((xi-xj)^2 + (yi-yj)^2) as-is;
    EUCLIDEAN_ROUNDED applies the TSPLIB EUC_2D convention int(dist + 0.5).

    The matrix is the instance's cached property _matrix, outside its
    fields: built on the first call, it is the same read-only matrix at
    every later one, so its cached rows, largest distance and neighbour
    lists are built once per instance and shared by every run on it. A
    pickled or copied instance leaves it behind and builds its own.
    """
    return instance._matrix


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


def cycle_lengths(orders: np.ndarray, d: np.ndarray,
                  work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """cycle_length of each row of a (P, n) array of visit orders, P >= 0,
    n >= 1, equal to it bit for bit: the row-wise cumsum adds the same edges
    in the same order (a plain .sum() would add them pairwise and round
    differently). The edges come from one gather from d's flat view, at
    city * n + successor, the successor of a row's last city being its
    first. work, if given, is a pair of C-contiguous (P, n) arrays, intp and
    float64, that the edges and the sums are written into (so a caller that
    scores every generation allocates no (P, n) array); the result is then
    a view of the float one."""
    n = orders.shape[1]
    edges, lengths = work if work is not None else (np.empty(orders.shape, np.intp),
                                                    np.empty(orders.shape))
    np.multiply(orders, n, out=edges)
    # one flat add of each city's successor (a strided 2-D add would buffer
    # a temporary as large as the array); it gives each row's last city the
    # next row's first, mended column-wise after
    edges.reshape(-1)[:-1] += orders.reshape(-1)[1:]
    last = edges[:, -1]
    np.multiply(orders[:, -1], n, out=last)
    last += orders[:, 0]
    d.take(edges, out=lengths, mode="clip")  # "raise" would buffer out; no index is out of range
    return lengths.cumsum(axis=1, out=lengths)[:, -1]


def tour_length(tour: Tour, m: DistanceMatrix) -> float:
    if len(tour) != m.n:
        raise DimensionMismatchError(f"tour has {len(tour)} cities, matrix expects {m.n}")
    validate_tour(tour, m.n)
    return cycle_length(tour, m.rows)


def validate_tour(tour, n: int) -> None:
    """Raise InvalidTourError unless tour is a permutation of 0..n-1 whose
    entries are integers: a float city such as 1.0 is rejected, although it
    sorts and compares equal to 1."""
    try:
        cities = sorted(map(operator.index, tour))
    except TypeError:
        cities = None  # an entry that is no integer
    if len(tour) != n or cities != list(range(n)):
        raise InvalidTourError(f"not a permutation of 0..{n - 1}: {tour!r}")


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
    """Exact optimum by the subset dynamic programme of Held & Karp (1962)
    and Bellman (1962): cost[S, j] is the cheapest path from city 0 through
    the set S of cities (bit c is city c+1) that ends at city j+1, summed in
    visit order. Parents keep the lowest index among ties, so under exact
    ties the tour read back from city 0 is the lexicographically smallest
    canonical optimum, the one exhaustive enumeration keeps. It is returned
    canonicalized and re-scored by tour_length."""
    n = instance.n
    if n > MAX_EXACT_CITIES:
        raise InstanceTooLargeError(
            f"exact solver is limited to {MAX_EXACT_CITIES} cities, got {n}")
    if n == 1:
        return (0,), 0.0
    m = build_distance_matrix(instance)
    d, k = m.d, n - 1
    subsets = np.arange(1 << k)
    sizes = ((subsets[:, None] >> np.arange(k)) & 1).sum(axis=1)
    cost = np.full((1 << k, k), np.inf)
    parent = np.zeros((1 << k, k), dtype=np.int8)
    cost[1 << np.arange(k), np.arange(k)] = d[0, 1:]
    for size in range(2, n):
        of_size = subsets[sizes == size]
        for j in range(k):
            sets = of_size[(of_size >> j) & 1 == 1]
            paths = cost[sets ^ (1 << j)] + d[1:, j + 1]
            parent[sets, j] = paths.argmin(axis=1)
            cost[sets, j] = paths.min(axis=1)
    j = int((cost[-1] + d[1:, 0]).argmin())
    tour, sets = [0], (1 << k) - 1
    while sets:
        tour.append(j + 1)
        sets, j = sets ^ (1 << j), int(parent[sets, j])
    tour = canonicalize(tuple(tour))
    return tour, tour_length(tour, m)


@functools.lru_cache(maxsize=8)
def _shuffle_draws(n: int) -> tuple[tuple[int, int], ...]:
    """(i, (i + 1).bit_length()) for i from n-1 down to 1: the bound and
    the bit count of each draw of a Fisher-Yates shuffle of n items. Cached
    for a few sizes."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def random_tour(n: int, rng: random.Random) -> Tour:
    """Uniform random permutation drawn from the given stream: the
    Fisher-Yates shuffle (Durstenfeld, 1964) of list(range(n)) that
    rng.shuffle makes, draw for draw. For i from n-1 down to 1 it draws
    j = rng.getrandbits(k), k = (i + 1).bit_length(), until j <= i, and
    swaps positions i and j, as Random.shuffle does through
    _randbelow_with_getrandbits, but with no Python call per city besides
    getrandbits. So it returns what rng.shuffle would and leaves rng in the
    same state, and every seed keeps its tours."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = list(range(n))
    getrandbits = rng.getrandbits
    for i, k in _shuffle_draws(n):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


@dataclass(frozen=True)
class RunResult:
    best_tour: Tour
    best_cost: float
    cost_history: tuple[float, ...]
    evaluations: int
    wall_time: float

    @property
    def iterations_run(self) -> int:
        return len(self.cost_history) - 1


def run_search(instance: Instance, cfg: Any,
               search: Callable[..., Iterator[tuple[Tour, float, int]]]) -> RunResult:
    """The one run of every metaheuristic: search(instance, cfg, matrix,
    random.Random(cfg.seed)) yields (best tour, best cost, evaluations) at its
    start and once per iteration; the costs are the history. The matrix is
    the instance's cached one (build_distance_matrix), shared with every
    other run on it. The last best tour is canonicalized, re-scored with the
    sequential sum and returned with the run's wall time."""
    start = time.perf_counter()
    rng = random.Random(cfg.seed)
    m = build_distance_matrix(instance)
    history = []
    for best, cost, evaluations in search(instance, cfg, m, rng):
        history.append(cost)
    best_tour = canonicalize(best)
    return RunResult(best_tour, tour_length(best_tour, m), tuple(history),
                     evaluations, time.perf_counter() - start)
