import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tspmeta as tm
from tspmeta.instance import cycle_length
from tspmeta.localsearch import (IMPROVEMENT_EPS, _three_opt_deltas, _three_opt_rebuild,
                                  reversal_table)
from conftest import random_instance

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
        fixed = tm.two_opt(crossing, m)
        assert tm.tour_length(fixed, m) == pytest.approx(4.0, abs=1e-12)
        assert tm.canonicalize(fixed) == (0, 1, 2, 3)

    def test_optimal_tour_is_fixed_point(self, five_city):
        m = tm.build_distance_matrix(five_city)
        out = tm.two_opt((0, 1, 2, 3, 4), m)
        assert tm.canonicalize(out) == (0, 1, 2, 3, 4)

    def test_three_cities_unchanged(self):
        inst = tm.Instance.from_coords("tri", [(0, 0), (5, 0), (0, 5)])
        m = tm.build_distance_matrix(inst)
        assert tm.two_opt((2, 0, 1), m) == (2, 0, 1)

    def test_local_optimality_certificate(self):
        rng = random.Random(100)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(4, 20))
            m = tm.build_distance_matrix(inst)
            tour = tm.random_tour(m.n, rng)
            out = tm.two_opt(tour, m)
            tm.validate_tour(out, m.n)
            assert tm.tour_length(out, m) <= tm.tour_length(tour, m) + 1e-12
            assert not improving_reversal_exists(out, m)

    def test_deterministic(self):
        rng = random.Random(8)
        inst = random_instance(rng, 15)
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(15, rng)
        assert tm.two_opt(tour, m) == tm.two_opt(tour, m)

    def test_chosen_local_optimum_is_pinned(self):
        # the certificate admits any 2-opt local optimum; this pins the one the
        # best-improvement passes and their tie rule lead to
        rng = random.Random(2025)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(4, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(tm.two_opt(tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "70dcedfa5709668306f79213ea5120d4e5de07e6c38f9dab626290b3aa4005e8")


@given(st.integers(2, 150))
def test_reversal_table_lists_each_proper_reversal_once(n):
    i, j, j_next = reversal_table(n)
    assert len(i) == len(j) == len(j_next) == n * (n - 1) // 2 - 1
    assert (i < j).all()
    assert not ((i == 0) & (j == n - 1)).any()
    assert len(set(zip(i.tolist(), j.tolist()))) == len(i)
    assert (j_next == (j + 1) % n).all()
    assert not any(column.flags.writeable for column in (i, j, j_next))


class TestThreeOpt:
    def test_five_city_reaches_optimum_from_every_start(self, five_city):
        # all 12 distinct undirected tours as starting points
        import itertools
        m = tm.build_distance_matrix(five_city)
        starts = [(0,) + p for p in itertools.permutations(range(1, 5)) if p[0] < p[-1]]
        assert len(starts) == 12
        for start in starts:
            out = tm.three_opt(start, m)
            assert tm.tour_length(out, m) == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_improvement_only_and_validity(self):
        rng = random.Random(200)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(4, 12))
            m = tm.build_distance_matrix(inst)
            tour = tm.random_tour(m.n, rng)
            out = tm.three_opt(tour, m)
            tm.validate_tour(out, m.n)
            assert tm.tour_length(out, m) <= tm.tour_length(tour, m) + 1e-12

    def test_output_admits_no_improving_two_opt_move(self):
        rng = random.Random(300)
        for _ in range(15):
            inst = random_instance(rng, 8)
            m = tm.build_distance_matrix(inst)
            out = tm.three_opt(tm.random_tour(8, rng), m)
            assert not improving_reversal_exists(out, m)

    def test_local_optimality_certificate(self):
        # 600 instances: fewer let a three_opt that skips one of the seven
        # reconnections pass
        rng = random.Random(400)
        for _ in range(600):
            inst = random_instance(rng, rng.randint(5, 10))
            m = tm.build_distance_matrix(inst)
            out = tm.three_opt(tm.random_tour(m.n, rng), m)
            assert best_reconnection_gain(out, m) <= IMPROVEMENT_EPS

    def test_deterministic(self):
        rng = random.Random(9)
        inst = random_instance(rng, 10)
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(10, rng)
        assert tm.three_opt(tour, m) == tm.three_opt(tour, m)

    def test_chosen_local_optimum_is_pinned(self):
        # the certificate admits any 3-opt local optimum; this pins the one the
        # sweep order and first-improving reconnection lead to
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(5, 30)
            m = tm.build_distance_matrix(random_instance(rng, n))
            digest.update(repr(tm.three_opt(tm.random_tour(n, rng), m)).encode())
        assert digest.hexdigest() == (
            "1c0b1b232d2ed0de038ffc82a54cf14cf6b43773cf909fc7b3453084f34a4e3f")

    def test_each_case_delta_matches_its_rebuilt_tour(self):
        rng = random.Random(2027)
        for n in range(3, 13):
            for _ in range(3):
                rows = tm.build_distance_matrix(random_instance(rng, n)).rows()
                order = list(tm.random_tour(n, rng))
                length = cycle_length(order, rows)
                for i, j, k in itertools.combinations(range(n), 3):
                    ends = order[i], order[i + 1], order[j], order[j + 1], order[k]
                    deltas = _three_opt_deltas(rows, *ends, order[(k + 1) % n])
                    for case, delta in enumerate(deltas):
                        rebuilt = (order[:i + 1] + _three_opt_rebuild(
                            order[i + 1:j + 1], order[j + 1:k + 1], case) + order[k + 1:])
                        assert abs(cycle_length(rebuilt, rows) - length - delta) <= 1e-12

    def test_tiny_instances_returned_unchanged(self):
        inst = tm.Instance.from_coords("two", [(0, 0), (1, 0)])
        m = tm.build_distance_matrix(inst)
        assert tm.three_opt((1, 0), m) == (1, 0)
