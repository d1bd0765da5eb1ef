import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import tspmeta as tm
from tspmeta import localsearch
from tspmeta.instance import cycle_length
from tspmeta.localsearch import (IMPROVEMENT_EPS, NEIGHBORS, SWEEP_AND_BLOCK_MIN_N,
                                  _first_improving_block, _first_improving_move, _margin,
                                  _neighbor_sweep, _or_opt_sweep,
                                  _three_opt_offsets, _three_opt_rebuild,
                                  _three_opt_scans, _tour_offsets, _two_opt_passes,
                                  reversal_table)
from conftest import in_time, random_instance

FIVE_CITY_OPT_COST = 15.15298244508295


def improving_reversal_exists(tour, m) -> bool:
    """Oracle scan: try every segment reversal and recompute the full tour
    length from scratch (independent of the solver's O(1) delta formula)."""
    n = len(tour)
    base = tm.tour_length(tour, m)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if i == 0 and j == n - 1:
                continue
            candidate = tour[:i] + tour[i:j + 1][::-1] + tour[j + 1:]
            if tm.tour_length(candidate, m) < base - IMPROVEMENT_EPS:
                return True
    return False


def reversal_deltas(order: np.ndarray, d: np.ndarray, i_idx, j_idx, j_next) -> np.ndarray:
    """Four-edge length change of reversing order[i..j] for each (i, j)."""
    a = order[i_idx - 1]  # -1 wraps to the last position
    b = order[i_idx]
    c = order[j_idx]
    e = order[j_next]
    return d[a, c] + d[b, e] - d[a, b] - d[c, e]


def reference_two_opt(t, m):
    """The scan two_opt's passes must reproduce bit for bit: each pass takes
    reversal_deltas straight from d over the whole reversal table and
    applies the argmin move, the lexicographically first on ties."""
    n = m.n
    if n < 4:
        return t
    d = m.d
    i_idx, j_idx, j_next = reversal_table(n)

    order = np.array(t, dtype=np.intp)
    while True:
        delta = reversal_deltas(order, d, i_idx, j_idx, j_next)
        k = int(np.argmin(delta))
        if delta[k] >= -IMPROVEMENT_EPS:
            break
        i, j = int(i_idx[k]), int(j_idx[k])
        order[i:j + 1] = order[i:j + 1][::-1]
    return tuple(int(c) for c in order)


def uniform_or_grid_instance(rng, n: int, grid: bool) -> tm.Instance:
    """Uniform points, or integer points on a small grid under the rounded
    metric: many tied deltas and, often, duplicate cities."""
    if not grid:
        return random_instance(rng, n)
    side = rng.randint(2, 12)
    coords = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
    return tm.Instance.from_coords("grid", coords, tm.Metric.EUCLIDEAN_ROUNDED)


def three_opt_deltas(rows, a, b, c, e, f, g):
    """Deltas of the seven reconnections of edges (a,b), (c,e), (f,g), in
    _RECONNECTIONS' order, each new edge read in the direction
    _three_opt_rebuild's tour runs it."""
    base = rows[a][b] + rows[c][e] + rows[f][g]
    return (
        rows[a][c] + rows[b][e] + rows[f][g] - base,  # reverse first segment
        rows[a][b] + rows[c][f] + rows[e][g] - base,  # reverse second segment
        rows[a][f] + rows[e][c] + rows[b][g] - base,  # reverse both as one block
        rows[a][c] + rows[b][f] + rows[e][g] - base,  # reverse each segment
        rows[a][e] + rows[f][b] + rows[c][g] - base,  # exchange segments
        rows[a][e] + rows[f][c] + rows[b][g] - base,  # exchange, first reversed
        rows[a][f] + rows[e][b] + rows[c][g] - base,  # exchange, second reversed
    )


def reference_scan(order, m):
    """The first cut triple i < j < k, in lexicographic order, with a
    reconnection that beats the tour by more than _margin(m), as
    (i, j, k, case) with case the first such one; None if there is none.
    The scan each of localsearch's 3-opt scans must reproduce."""
    n = m.n
    rows, margin = m.rows, _margin(m)
    for i in range(n - 2):
        a, b = order[i], order[i + 1]
        for j in range(i + 1, n - 1):
            c, e = order[j], order[j + 1]
            for k in range(j + 1, n):
                deltas = three_opt_deltas(rows, a, b, c, e, order[k], order[(k + 1) % n])
                if min(deltas) < -margin:
                    case = next(x for x, delta in enumerate(deltas) if delta < -margin)
                    return i, j, k, case
    return None


def reference_three_opt(t, m):
    """three_opt's scans made with the reference scan at every size: the
    moves _three_opt_scans must reproduce."""
    order = list(t)
    while (move := reference_scan(order, m)) is not None:
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)
    return tuple(order)


def best_reconnection_gain(tour, m) -> float:
    """Oracle scan: cut the tour's edges after positions i < j < k into
    head + A + B + tail, put A and B back in either order and each one
    reversed or not (seven new tours per triple), and re-score each from
    scratch. Returns how much shorter the best of them is (<= 0: none)."""
    base = tm.tour_length(tour, m)
    best = base
    for i, j, k in itertools.combinations(range(len(tour)), 3):
        head, a, b, tail = tour[:i + 1], tour[i + 1:j + 1], tour[j + 1:k + 1], tour[k + 1:]
        for first, second in ((a, b), (b, a)):
            for x, y in itertools.product((first, first[::-1]), (second, second[::-1])):
                best = min(best, tm.tour_length(head + x + y + tail, m))
    return base - best


class TestTwoOpt:
    def test_uncrosses_unit_square(self, unit_square):
        m = tm.build_distance_matrix(unit_square)
        crossing = (0, 2, 1, 3)
        assert tm.tour_length(crossing, m) == pytest.approx(4.828427124746190, abs=1e-9)
        fixed = in_time(tm.two_opt, crossing, m)
        assert tm.tour_length(fixed, m) == pytest.approx(4.0, abs=1e-12)
        assert tm.canonicalize(fixed) == (0, 1, 2, 3)

    def test_optimal_tour_is_fixed_point(self, five_city):
        m = tm.build_distance_matrix(five_city)
        out = in_time(tm.two_opt, (0, 1, 2, 3, 4), m)
        assert tm.canonicalize(out) == (0, 1, 2, 3, 4)

    def test_three_cities_unchanged(self):
        inst = tm.Instance.from_coords("tri", [(0, 0), (5, 0), (0, 5)])
        m = tm.build_distance_matrix(inst)
        assert in_time(tm.two_opt, (2, 0, 1), m) == (2, 0, 1)

    def test_local_optimality_certificate(self):
        rng = random.Random(100)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(4, 20))
            m = tm.build_distance_matrix(inst)
            tour = tm.random_tour(m.n, rng)
            out = in_time(tm.two_opt, tour, m)
            tm.validate_tour(out, m.n)
            assert tm.tour_length(out, m) <= tm.tour_length(tour, m) + 1e-12
            assert not improving_reversal_exists(out, m)

    def test_deterministic(self):
        rng = random.Random(8)
        inst = random_instance(rng, 15)
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(15, rng)
        assert in_time(tm.two_opt, tour, m) == in_time(tm.two_opt, tour, m)

    def test_chosen_local_optimum_is_pinned(self):
        # the certificate admits any 2-opt local optimum; this pins the one the
        # best-improvement passes and their tie rule lead to (PSO's polish)
        rng = random.Random(2025)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(4, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(_two_opt_passes(tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "70dcedfa5709668306f79213ea5120d4e5de07e6c38f9dab626290b3aa4005e8")

    def test_sweep_then_passes_local_optimum_is_pinned(self):
        # the same starts as above; the neighbour-list sweep's moves come first
        rng = random.Random(2025)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(4, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(in_time(tm.two_opt, tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "3ce12a96489280b80312ce20c9c3f28e8eedfccd74e65844d0d61329c224e6bb")

    def test_from_a_random_tour_at_n_1000_in_time(self):
        # the passes alone take seconds at this size: one O(n^2) scan per move
        rng = random.Random(1000)
        m = tm.build_distance_matrix(random_instance(rng, 1000))
        tour = tm.random_tour(1000, rng)
        out = in_time(tm.two_opt, tour, m)
        tm.validate_tour(out, 1000)
        assert tm.tour_length(out, m) < tm.tour_length(tour, m)


# no shrinking: an example is already just (n, grid, seed), and each shrink
# step of a kernel that cycles would wait out in_time
@settings(max_examples=200, phases=(Phase.generate,))
@given(st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1))
def test_two_opt_equals_the_reference_scan(n, grid, seed):
    rng = random.Random(seed)
    m = tm.build_distance_matrix(uniform_or_grid_instance(rng, n, grid))
    tour = tm.random_tour(n, rng)
    assert in_time(_two_opt_passes, tour, m) == reference_two_opt(tour, m)


def test_two_opt_equals_the_reference_scan_on_berlin52(berlin52):
    m = tm.build_distance_matrix(berlin52)
    rng = random.Random(52)
    for _ in range(6):
        tour = tm.random_tour(m.n, rng)
        assert in_time(_two_opt_passes, tour, m) == reference_two_opt(tour, m)


# grids put many cities at tied distances, and duplicates at distance 0
@settings(max_examples=200, phases=(Phase.generate,))
@given(st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1))
def test_two_opt_returns_a_shorter_or_equal_two_opt_optimum(n, grid, seed):
    rng = random.Random(seed)
    m = tm.build_distance_matrix(uniform_or_grid_instance(rng, n, grid))
    tour = tm.random_tour(n, rng)
    swept = in_time(_neighbor_sweep, tour, m)
    tm.validate_tour(swept, n)
    assert tm.tour_length(swept, m) <= tm.tour_length(tour, m)
    out = in_time(tm.two_opt, tour, m)
    tm.validate_tour(out, n)
    assert tm.tour_length(out, m) <= tm.tour_length(swept, m)
    assert not improving_reversal_exists(out, m)


@given(st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_neighbor_lists_are_the_nearest_cities_ties_by_id(n, grid, seed):
    m = tm.build_distance_matrix(uniform_or_grid_instance(random.Random(seed), n, grid))
    rows = m.rows
    k = min(NEIGHBORS, n - 1)
    expected = [sorted((c for c in range(n) if c != r), key=lambda c: (rows[r][c], c))[:k]
                for r in range(n)]
    assert m.neighbors == expected
    assert m.neighbors is m.neighbors


@given(st.integers(2, 150))
def test_reversal_table_lists_each_proper_reversal_once(n):
    i, j, j_next = reversal_table(n)
    assert len(i) == len(j) == len(j_next) == n * (n - 1) // 2 - 1
    assert (i < j).all()
    assert not ((i == 0) & (j == n - 1)).any()
    assert len(set(zip(i.tolist(), j.tolist()))) == len(i)
    assert (j_next == (j + 1) % n).all()
    assert not any(column.flags.writeable for column in (i, j, j_next))


@given(st.integers(4, 150))
def test_two_opt_offsets_are_writeable_copies(n):
    # ndarray.take copies a read-only index array on every gather
    *offsets, j = _tour_offsets(n)
    assert all(column.flags.writeable for column in (*offsets, j))
    assert (j == reversal_table(n)[1]).all() and j is not reversal_table(n)[1]


class TestThreeOpt:
    def test_five_city_reaches_optimum_from_every_start(self, five_city):
        # all 12 distinct undirected tours as starting points
        import itertools
        m = tm.build_distance_matrix(five_city)
        starts = [(0,) + p for p in itertools.permutations(range(1, 5)) if p[0] < p[-1]]
        assert len(starts) == 12
        for start in starts:
            out = in_time(tm.three_opt, start, m)
            assert tm.tour_length(out, m) == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_improvement_only_and_validity(self):
        rng = random.Random(200)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(4, 12))
            m = tm.build_distance_matrix(inst)
            tour = tm.random_tour(m.n, rng)
            out = in_time(tm.three_opt, tour, m)
            tm.validate_tour(out, m.n)
            assert tm.tour_length(out, m) <= tm.tour_length(tour, m) + 1e-12

    def test_output_admits_no_improving_two_opt_move(self):
        rng = random.Random(300)
        for _ in range(15):
            inst = random_instance(rng, 8)
            m = tm.build_distance_matrix(inst)
            out = in_time(tm.three_opt, tm.random_tour(8, rng), m)
            assert not improving_reversal_exists(out, m)

    def test_local_optimality_certificate(self):
        # 600 instances: fewer let a three_opt that skips one of the seven
        # reconnections pass
        rng = random.Random(400)
        for _ in range(600):
            inst = random_instance(rng, rng.randint(5, 10))
            m = tm.build_distance_matrix(inst)
            out = in_time(tm.three_opt, tm.random_tour(m.n, rng), m)
            assert best_reconnection_gain(out, m) <= IMPROVEMENT_EPS

    def test_deterministic(self):
        rng = random.Random(9)
        inst = random_instance(rng, 10)
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(10, rng)
        assert in_time(tm.three_opt, tour, m) == in_time(tm.three_opt, tour, m)

    def test_chosen_local_optimum_is_pinned(self):
        # the certificate admits any 3-opt local optimum; this pins the one the
        # scan order and first-improving reconnection lead to (PSO's polish)
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(5, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(in_time(_three_opt_scans, tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "1c0b1b232d2ed0de038ffc82a54cf14cf6b43773cf909fc7b3453084f34a4e3f")

    def test_sweep_then_scans_local_optimum_is_pinned(self):
        # the same starts as above; from SWEEP_AND_BLOCK_MIN_N cities on, the 2-opt and
        # Or-opt sweeps' moves come first
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(5, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(in_time(tm.three_opt, tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "c72c10aa0cfcb243bba07c151639143aee342c98f117ca05bb045e0c6eddcd91")

    def test_each_case_delta_matches_its_rebuilt_tour(self):
        rng = random.Random(2027)
        for n in range(3, 13):
            for _ in range(3):
                rows = tm.build_distance_matrix(random_instance(rng, n)).rows
                order = list(tm.random_tour(n, rng))
                length = cycle_length(order, rows)
                for i, j, k in itertools.combinations(range(n), 3):
                    ends = order[i], order[i + 1], order[j], order[j + 1], order[k]
                    deltas = three_opt_deltas(rows, *ends, order[(k + 1) % n])
                    for case, delta in enumerate(deltas):
                        rebuilt = (order[:i + 1] + _three_opt_rebuild(
                            order[i + 1:j + 1], order[j + 1:k + 1], case) + order[k + 1:])
                        assert abs(cycle_length(rebuilt, rows) - length - delta) <= 1e-12

    def test_tiny_instances_returned_unchanged(self):
        inst = tm.Instance.from_coords("two", [(0, 0), (1, 0)])
        m = tm.build_distance_matrix(inst)
        assert in_time(tm.three_opt, (1, 0), m) == (1, 0)

    def test_local_optimality_certificate_on_the_block_scan(self):
        # the sizes above run the pure-Python sweep; these run the numpy blocks
        assert SWEEP_AND_BLOCK_MIN_N <= 12
        rng = random.Random(401)
        for case in range(30):
            m = tm.build_distance_matrix(uniform_or_grid_instance(rng, rng.randint(12, 24),
                                                                  grid=case % 3 == 2))
            start = tm.random_tour(m.n, rng)
            out = in_time(tm.three_opt, start if case % 2 else tm.two_opt(start, m), m)
            assert best_reconnection_gain(out, m) <= IMPROVEMENT_EPS


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 30), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_block_scan_makes_the_pure_python_sweeps_moves(n, grid, polished, seed):
    # n on both sides of SWEEP_AND_BLOCK_MIN_N; the rounded grids tie often, and
    # from 2-opt optima the first improving triple tends to lie deep
    rng = random.Random(seed)
    m = tm.build_distance_matrix(uniform_or_grid_instance(rng, n, grid))
    start = tm.random_tour(n, rng)
    order = list(tm.two_opt(start, m) if polished else start)
    while True:
        move = reference_scan(order, m)
        assert _first_improving_block(order, m) == move
        if move is None:
            break
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)


@settings(max_examples=200, deadline=None)
@given(st.integers(12, 30), st.booleans(), st.integers(0, 2**32 - 1))
def test_both_scans_read_each_edge_the_same_way_round(n, small_integers, seed):
    # on a symmetric matrix d[c, e] and d[e, c] are one value, so only
    # asymmetric costs show a block scan that reads a reconnection's edge the
    # other way round from the reference scan (the inline scan reads ce for ec,
    # as a DistanceMatrix is symmetric); on them the deltas are no length
    # changes and a scan loop need not end, so this stops after four moves
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5, (n, n)).astype(float) if small_integers else rng.random((n, n))
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    m = tm.DistanceMatrix(d)
    order = list(tm.random_tour(n, random.Random(seed)))
    for moves in range(5):
        move = reference_scan(order, m)
        assert _first_improving_block(order, m) == move
        if move is None or moves == 4:
            break
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)


# n on both sides of the sizes three_opt scans in pure Python; the rounded
# grids tie often, a reference optimum perturbed by a swap of two cities puts
# the first improving triple deep in the scan, and a scaled instance's margin
# is 2**-48 times its largest distance, above IMPROVEMENT_EPS
@settings(max_examples=300, deadline=None)
@given(st.integers(3, 12), st.booleans(), st.booleans(), st.sampled_from([0, 6, 150]),
       st.integers(0, 2**32 - 1))
def test_the_inline_scan_makes_the_reference_scans_moves(n, grid, perturbed, exponent, seed):
    rng = random.Random(seed)
    instance = uniform_or_grid_instance(rng, n, grid)
    if exponent:
        scale = 10.0 ** exponent
        instance = tm.Instance.from_coords(
            "scaled", [(c.x * scale, c.y * scale) for c in instance.cities], instance.metric)
    m = tm.build_distance_matrix(instance)
    assert not exponent or m.largest == 0 or _margin(m) > IMPROVEMENT_EPS
    order = list(tm.random_tour(n, rng))
    if perturbed:
        order = list(reference_three_opt(order, m))
        x, y = rng.sample(range(n), 2)
        order[x], order[y] = order[y], order[x]
    while True:
        move = reference_scan(order, m)
        assert in_time(_first_improving_move, order, m) == move
        if move is None:
            break
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)


def test_three_opt_equals_the_pure_python_sweep_on_berlin52(berlin52):
    m = tm.build_distance_matrix(berlin52)
    rng = random.Random(53)
    for _ in range(3):
        start = tm.two_opt(tm.random_tour(m.n, rng), m)
        assert in_time(_three_opt_scans, start, m) == reference_three_opt(start, m)


# no shrinking, as for 2-opt above; n on both sides of SWEEP_AND_BLOCK_MIN_N
@settings(max_examples=100, deadline=None, phases=(Phase.generate,))
@given(st.integers(3, 16), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_three_opt_returns_a_shorter_or_equal_three_opt_optimum(n, grid, polished, seed):
    rng = random.Random(seed)
    m = tm.build_distance_matrix(uniform_or_grid_instance(rng, n, grid))
    start = tm.random_tour(n, rng)
    if polished:
        start = tm.two_opt(start, m)
    out = in_time(tm.three_opt, start, m)
    tm.validate_tour(out, n)
    assert tm.tour_length(out, m) <= tm.tour_length(start, m)
    assert best_reconnection_gain(out, m) <= IMPROVEMENT_EPS


@settings(max_examples=200, phases=(Phase.generate,))
@given(st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1))
def test_or_opt_sweep_returns_a_shorter_or_equal_permutation(n, grid, seed):
    rng = random.Random(seed)
    m = tm.build_distance_matrix(uniform_or_grid_instance(rng, n, grid))
    tour = tm.random_tour(n, rng)
    out = in_time(_or_opt_sweep, tour, m)
    tm.validate_tour(out, n)
    assert tm.tour_length(out, m) <= tm.tour_length(tour, m)


# Each local search a run can reach, by name, on a matrix and a start tour.
SEARCHES = {"two_opt": tm.two_opt, "passes": _two_opt_passes, "sweep": _neighbor_sweep,
            "or_opt": _or_opt_sweep, "three_opt": tm.three_opt, "scans": _three_opt_scans}
# A CLI fuzz found PSO's 2-opt polish cycling for ever on these four cities:
# their distances reach 6.9e97, where rounding a delta errs by 1e82 and more
HUGE_FOUR = [(-3.872906460434866e+16, 1000.0), (1.870859483710283e+16, 279.97955936732023),
             (597.0532986688629, 6.931576875340676e+97),
             (305.80745196189855, 2.3540219970784676e+16)]


@settings(max_examples=60, phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(sorted(SEARCHES)), st.integers(4, 14), st.integers(0, 150),
       st.integers(0, 2**32 - 1))
@example("passes", 4, -1, 0)
def test_each_search_ends_and_shortens_the_exact_length_on_huge_distances(name, n, exponent,
                                                                          seed):
    # the margin grows with the largest distance, so that each move made
    # shortens the exact sum of the tour's distances (math.fsum rounds it
    # correctly, so it cannot grow); exponent -1 takes HUGE_FOUR
    rng = random.Random(seed)
    if exponent < 0:
        instance = tm.Instance.from_coords("huge", HUGE_FOUR, tm.Metric.EUCLIDEAN_ROUNDED)
    else:
        scale = 10.0 ** exponent
        instance = tm.Instance.from_coords(
            "scaled", [(rng.random() * scale, rng.random() * scale) for _ in range(n)])
    m = tm.build_distance_matrix(instance)
    tour = tm.random_tour(instance.n, rng)
    out = in_time(SEARCHES[name], tour, m, seconds=5.0)
    tm.validate_tour(tuple(out), instance.n)
    def exact(t):
        return math.fsum(m.d[t[k - 1], t[k]] for k in range(len(t)))

    assert exact(out) <= exact(tour)


def test_three_opt_at_n_200_from_a_two_opt_optimum_in_time(monkeypatch):
    # each scan costs up to O(n^3); from this start the scans alone make 20,
    # after the sweeps 4, and a 2-opt optimum leaves the 2-opt sweep nothing,
    # so the count stays this low only if the Or-opt sweep makes its moves
    scans = []
    block_scan = localsearch._first_improving_block

    def counted_block_scan(order, m):
        scans.append(len(order))
        return block_scan(order, m)

    monkeypatch.setattr(localsearch, "_first_improving_block", counted_block_scan)
    rng = random.Random(200)
    m = tm.build_distance_matrix(random_instance(rng, 200))
    start = tm.two_opt(tm.random_tour(200, rng), m)
    out = in_time(tm.three_opt, start, m)
    tm.validate_tour(out, 200)
    assert tm.tour_length(out, m) < tm.tour_length(start, m)
    assert len(scans) <= 8


@given(st.integers(3, 120))
def test_three_opt_offsets_hold_one_row_per_pair(n):
    # O(n^2) entries per size: a table with a row per cut triple would hold
    # C(n, 3) of them
    offsets, j, k = _three_opt_offsets(n)
    pairs = (n - 1) * (n - 2) // 2
    assert offsets.shape == (8, 3, pairs) and len(j) == len(k) == pairs
    assert list(zip(j.tolist(), k.tolist())) == list(itertools.combinations(range(1, n), 2))
    assert 0 <= offsets.min() and offsets.max() <= n * n + 3 * n
    assert not any(column.flags.writeable for column in (offsets, j, k))


BAD_TOURS = {
    "one city too many": tuple(range(52)) + (3,),
    "one city repeated": (0,) * 52,
    "one city too few": tuple(range(51)),
    "ids from 1": tuple(range(1, 53)),
}


# two_opt with one city too many runs in a subprocess, further down
@pytest.mark.parametrize("search, name", [
    (search, name) for search in ("two_opt", "three_opt") for name in BAD_TOURS
    if (search, name) != ("two_opt", "one city too many")])
def test_rejects_a_start_tour_that_is_no_permutation(berlin52, search, name):
    m = tm.build_distance_matrix(berlin52)
    with pytest.raises(tm.InvalidTourError, match="not a permutation of 0..51"):
        getattr(tm, search)(BAD_TOURS[name], m)


def small_or_berlin52_matrix(n, five_city, berlin52) -> tm.DistanceMatrix:
    """The matrix of a 3-city instance, which both searches return as it
    is, of the five-city instance or of berlin52."""
    instances = {3: tm.Instance.from_coords("tri", [(0, 0), (5, 0), (0, 5)]),
                 5: five_city, 52: berlin52}
    return tm.build_distance_matrix(instances[n])


@pytest.mark.parametrize("search", ["two_opt", "three_opt"])
@pytest.mark.parametrize("n", [3, 5, 52])
def test_rejects_a_start_tour_of_floats(five_city, berlin52, search, n):
    # 1.0 sorts and compares equal to 1, but no list can be indexed with it
    m = small_or_berlin52_matrix(n, five_city, berlin52)
    with pytest.raises(tm.InvalidTourError, match=f"not a permutation of 0..{n - 1}"):
        getattr(tm, search)(tuple(float(c) for c in range(n)), m)


@pytest.mark.parametrize("search", ["two_opt", "three_opt"])
@pytest.mark.parametrize("n", [3, 5, 52])
def test_a_numpy_integer_tour_gives_the_plain_int_result(five_city, berlin52, search, n):
    m = small_or_berlin52_matrix(n, five_city, berlin52)
    out = getattr(tm, search)(np.arange(n), m)
    assert out == getattr(tm, search)(tuple(range(n)), m)
    assert all(type(c) is int for c in out)


def test_invalid_tour_error_is_a_toolkit_error_and_a_value_error():
    # cli.py and tsplib.py catch ValueError from validate_tour
    assert issubclass(tm.InvalidTourError, tm.TspmetaError)
    assert issubclass(tm.InvalidTourError, ValueError)


def test_two_opt_rejects_a_tour_too_long_without_hanging():
    # unchecked, a 53-city tour makes a 53 x 53 tour-ordered matrix that the
    # 52-city offsets misread, and the passes never end; in a subprocess a
    # return of that hang fails here instead of stalling the suite
    code = ("import tspmeta as tm\n"
            "m = tm.build_distance_matrix(tm.packaged_instance('berlin52'))\n"
            "try:\n"
            "    tm.two_opt(tuple(range(52)) + (3,), m)\n"
            "except tm.InvalidTourError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('two_opt accepted the tour')\n")
    src = Path(tm.__file__).resolve().parent.parent  # the tree under test
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
