import copy
import math
import pickle
import random
import sys
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tspmeta as tm
from conftest import enumerated_optimal, in_time, random_instance
from tspmeta.instance import MAX_EXACT_CITIES

FIVE_CITY_OPT_COST = 15.15298244508295  # exhaustive enumeration over all 12 distinct tours
FIVE_CITY_ALT_ROUTE_COST = 17.758533720546936  # route (0,1,4,3,2), hand edge sum
# cities at (±WIDE_HALF, 0) and (0, ±WIDE_HALF) span a box whose diagonal overflows
WIDE_HALF = math.sqrt(0.75 * sys.float_info.max) / 2
# coordinates on the scale where squared distances start to overflow (about
# 1.3e154 apart), and far beyond it
SPREAD_COORD = st.floats(-1, 1).map(lambda v: v * 1e154) | st.floats(-1e160, 1e160)

# short runs of each solver that run_search drives, PSO in each local-search
# mode ("pso" polishes gbest with 2-opt); PSO may stop early on stagnation
PSO_SHORT = tm.SwarmConfig(n_particles=6, max_iter=20, stagnation_limit=4)
SEARCH_SOLVERS = {
    "pso": (tm.run_pso, PSO_SHORT),
    **{f"pso-{mode.value}": (tm.run_pso, replace(PSO_SHORT, local_search=mode))
       for mode in tm.LocalSearch if mode is not PSO_SHORT.local_search},
    "ga": (tm.run_ga, tm.GaConfig(population=10, generations=10)),
    "sa": (tm.run_sa, tm.SaConfig(cooling=0.8)),
}


def _equal_copy(inst: tm.Instance) -> tm.Instance:
    """An instance equal to inst but distinct from it, with no matrix yet."""
    return tm.Instance(inst.name, inst.cities, inst.metric)


class TestBuildDistanceMatrix:
    def test_five_city_distances(self, five_city):
        m = tm.build_distance_matrix(five_city)
        assert m.d[0][1] == pytest.approx(math.sqrt(10), abs=1e-12)
        assert m.d[2][3] == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_single_city(self):
        inst = tm.Instance.from_coords("one", [(3.0, 4.0)])
        m = tm.build_distance_matrix(inst)
        assert m.n == 1
        assert m.d[0][0] == 0.0

    def test_symmetry_and_zero_diagonal(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 12))
            m = tm.build_distance_matrix(inst)
            for i in range(m.n):
                assert m.d[i][i] == 0.0
                for j in range(m.n):
                    assert m.d[i][j] == m.d[j][i]
                    assert m.d[i][j] >= 0.0

    def test_read_only_and_left_intact_by_two_opt(self):
        rng = random.Random(11)
        m = tm.build_distance_matrix(random_instance(rng, 30))
        assert not m.d.flags.writeable
        before = m.d.tobytes()
        tm.two_opt(tm.random_tour(30, rng), m)
        assert m.d.tobytes() == before
        with pytest.raises(ValueError):
            m.d[0, 1] = 0.0

    @pytest.mark.parametrize("solver", [*SEARCH_SOLVERS, "two_opt", "three_opt"])
    def test_solvers_leave_their_matrix_intact(self, monkeypatch, solver):
        """Every later run on an instance reads the matrix, rows and
        neighbour lists it keeps, so a run may write to none of them: after
        it they still equal those of an equal but distinct instance."""
        build, built = tm.build_distance_matrix, []

        def recording(instance):
            built.append(build(instance))
            return built[-1]

        monkeypatch.setattr(tm.instance, "build_distance_matrix", recording)
        rng = random.Random(12)
        inst = random_instance(rng, 12)
        m = build(inst)
        m.rows, m.neighbors  # built before the run, which reads them
        if solver in SEARCH_SOLVERS:
            runner, cfg = SEARCH_SOLVERS[solver]
            runner(inst, cfg)
            assert len(built) == 1 and built[0] is m
        else:
            getattr(tm, solver)(tm.random_tour(inst.n, rng), m)
        fresh = build(_equal_copy(inst))
        assert fresh is not m
        assert not m.d.flags.writeable
        assert m.d.tobytes() == fresh.d.tobytes()
        assert m.rows == fresh.rows
        assert m.neighbors == fresh.neighbors

    def test_rounded_metric_is_nearest_integer(self):
        inst = tm.Instance.from_coords(
            "r", [(0.0, 0.0), (1.0, 3.0)], tm.Metric.EUCLIDEAN_ROUNDED)
        m = tm.build_distance_matrix(inst)
        assert m.d[0][1] == 3.0  # sqrt(10) = 3.162... rounds to 3

    def test_triangle_inequality_exact_metric(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(3, 10))
            m = tm.build_distance_matrix(inst)
            n = m.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert m.d[i][k] <= m.d[i][j] + m.d[j][k] + 1e-9


class TestMatrixCache:
    """build_distance_matrix keeps one matrix on each instance: it may spare
    later runs the build, and may change nothing else."""

    def test_later_calls_return_the_one_matrix(self, five_city):
        m = tm.build_distance_matrix(five_city)
        assert tm.build_distance_matrix(five_city) is m
        assert tm.build_distance_matrix(_equal_copy(five_city)) is not m

    @pytest.mark.parametrize("solver", SEARCH_SOLVERS)
    def test_second_search_run_equals_a_first_run(self, solver):
        runner, cfg = SEARCH_SOLVERS[solver]
        inst = random_instance(random.Random(21), 12)
        runner(inst, replace(cfg, seed=1))  # builds the matrix, its rows and neighbour lists
        second = runner(inst, replace(cfg, seed=2))
        first = runner(_equal_copy(inst), replace(cfg, seed=2))
        assert astuple(second)[:-1] == astuple(first)[:-1]  # all but wall_time

    @pytest.mark.parametrize("search", [tm.two_opt, tm.three_opt])
    def test_second_local_search_equals_a_first_one(self, search):
        rng = random.Random(22)
        inst = random_instance(rng, 12)
        search(tm.random_tour(inst.n, rng), tm.build_distance_matrix(inst))
        start = tm.random_tour(inst.n, rng)
        second = search(start, tm.build_distance_matrix(inst))
        assert second == search(start, tm.build_distance_matrix(_equal_copy(inst)))

    def test_second_exact_solve_equals_a_first_one(self):
        inst = random_instance(random.Random(23), 9)
        tm.brute_force_optimal(inst)
        assert tm.brute_force_optimal(inst) == tm.brute_force_optimal(_equal_copy(inst))

    def test_pickles_and_copies_carry_no_matrix(self, five_city):
        before = pickle.dumps(five_city)
        m = tm.build_distance_matrix(five_city)
        assert pickle.dumps(five_city) == before
        for clone in (pickle.loads(before), copy.copy(five_city), copy.deepcopy(five_city)):
            assert clone == five_city
            assert "_matrix" not in vars(clone)
            assert tm.build_distance_matrix(clone) is not m

    def test_equality_hash_and_repr_ignore_the_matrix(self, five_city):
        other = _equal_copy(five_city)
        before = hash(five_city), repr(five_city)
        tm.build_distance_matrix(five_city)
        assert (hash(five_city), repr(five_city)) == before
        assert five_city == other and hash(five_city) == hash(other)

    def test_caches_are_named_and_kept_by_their_owners(self):
        """Every cache is a cached property of the object that keeps it: a
        matrix holds d and its own caches, and an instance its fields and
        _matrix, whatever has run on them."""
        rng = random.Random(24)
        inst = random_instance(rng, 12)
        m = tm.build_distance_matrix(inst)
        for runner, cfg in SEARCH_SOLVERS.values():
            runner(inst, cfg)
        tm.three_opt(tm.two_opt(tm.random_tour(inst.n, rng), m), m)
        tm.tour_length(tm.brute_force_optimal(inst)[0], m)
        tm.render_tour_svg(inst, tm.random_tour(inst.n, rng))
        assert set(vars(m)) <= {"d", "rows", "largest", "neighbors"}
        assert set(vars(inst)) == {"name", "cities", "metric", "_matrix"}

    def test_replaced_instance_builds_its_own(self, five_city):
        m = tm.build_distance_matrix(five_city)
        renamed = replace(five_city, name="x")
        assert tm.build_distance_matrix(renamed) is not m
        assert tm.build_distance_matrix(renamed).d.tobytes() == m.d.tobytes()


class TestTourLength:
    def test_five_city_natural_order(self, five_city):
        m = tm.build_distance_matrix(five_city)
        assert tm.tour_length((0, 1, 2, 3, 4), m) == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_five_city_alt_route(self, five_city):
        m = tm.build_distance_matrix(five_city)
        assert tm.tour_length((0, 1, 4, 3, 2), m) == pytest.approx(
            FIVE_CITY_ALT_ROUTE_COST, abs=1e-9)

    def test_degenerate_sizes(self):
        one = tm.build_distance_matrix(tm.Instance.from_coords("one", [(0, 0)]))
        assert tm.tour_length((0,), one) == 0.0
        two = tm.build_distance_matrix(tm.Instance.from_coords("two", [(0, 0), (3, 4)]))
        assert tm.tour_length((0, 1), two) == pytest.approx(10.0, abs=1e-12)

    def test_reversal_and_rotation_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(3, 9))
            m = tm.build_distance_matrix(inst)
            tour = tm.random_tour(m.n, rng)
            base = tm.tour_length(tour, m)
            assert tm.tour_length(tour[::-1], m) == pytest.approx(base, abs=1e-9)
            k = rng.randrange(m.n)
            assert tm.tour_length(tour[k:] + tour[:k], m) == pytest.approx(base, abs=1e-9)

    def test_size_mismatch_raises(self, five_city):
        m = tm.build_distance_matrix(five_city)
        with pytest.raises(tm.DimensionMismatchError):
            tm.tour_length((0, 1, 2), m)

    def test_a_matrix_is_the_size_of_its_rows(self, five_city):
        # a matrix once stored its size apart from its rows, and a four-city
        # label on the five-city rows gave a four-city tour the length 15.07347
        m = tm.DistanceMatrix(tm.build_distance_matrix(five_city).d)
        assert m.n == 5
        with pytest.raises(tm.DimensionMismatchError):
            tm.tour_length((0, 1, 2, 3), m)
        with pytest.raises(tm.InvalidTourError):
            tm.two_opt((0, 1, 2, 3), m)

    @pytest.mark.parametrize("tour", [(0, 1, 2, 3, -1), (0, 0, 1, 2, 3)])
    def test_a_tuple_that_is_no_tour_raises(self, five_city, tour):
        # -1 would index the last city and a repeated city would be summed
        m = tm.build_distance_matrix(five_city)
        with pytest.raises(tm.InvalidTourError):
            tm.tour_length(tour, m)


class TestCanonicalize:
    def test_rotation_only(self):
        assert tm.canonicalize((2, 3, 4, 0, 1)) == (0, 1, 2, 3, 4)

    def test_reversal_rule(self):
        assert tm.canonicalize((0, 4, 3, 2, 1)) == (0, 1, 2, 3, 4)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            tour = tm.random_tour(rng.randint(1, 10), rng)
            once = tm.canonicalize(tour)
            assert tm.canonicalize(once) == once

    def test_rotations_and_reversals_collapse(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(3, 9)
            tour = tm.random_tour(n, rng)
            canon = tm.canonicalize(tour)
            k = rng.randrange(n)
            assert tm.canonicalize(tour[k:] + tour[:k]) == canon
            assert tm.canonicalize(tour[::-1]) == canon


class TestBruteForceOptimal:
    def test_five_city_optimum(self, five_city):
        tour, cost = tm.brute_force_optimal(five_city)
        assert tour == (0, 1, 2, 3, 4)
        assert cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_three_cities_all_equivalent(self):
        inst = tm.Instance.from_coords("tri", [(0, 0), (1, 0), (0, 1)])
        tour, cost = tm.brute_force_optimal(inst)
        assert tour == (0, 1, 2)
        assert cost == pytest.approx(2 + math.sqrt(2), abs=1e-12)

    def test_unit_square_perimeter(self, unit_square):
        tour, cost = tm.brute_force_optimal(unit_square)
        assert tour == (0, 1, 2, 3)
        assert cost == pytest.approx(4.0, abs=1e-12)

    def test_size_guard(self):
        rng = random.Random(0)
        inst = random_instance(rng, MAX_EXACT_CITIES + 1)
        with pytest.raises(tm.InstanceTooLargeError):
            tm.brute_force_optimal(inst)

    def test_the_largest_size_in_time(self):
        # about 0.05 s at n = 16; no 3-opt optimum from a random start beats
        # it (each canonicalized, so a tie sums its edges in the same order)
        rng = random.Random(16)
        inst = random_instance(rng, MAX_EXACT_CITIES)
        m = tm.build_distance_matrix(inst)
        tour, cost = in_time(tm.brute_force_optimal, inst, seconds=2.0)
        assert tour == tm.canonicalize(tour) and cost == tm.tour_length(tour, m)
        for _ in range(5):
            local = tm.canonicalize(tm.three_opt(tm.random_tour(m.n, rng), m))
            assert cost <= tm.tour_length(local, m)

    # cities on a small integer grid under the rounded metric: most such
    # instances have several optimal tours of exactly equal integer cost
    @settings(max_examples=120)
    @given(coords=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=10))
    @example(coords=[(x, y) for y in range(3) for x in range(3)])
    @example(coords=[(x, y) for y in range(3) for x in range(4)][:11])
    @example(coords=[(x, 0) for x in range(11)])
    def test_rounded_grids_equal_the_enumeration_bit_for_bit(self, coords):
        inst = tm.Instance.from_coords("grid", coords, tm.Metric.EUCLIDEAN_ROUNDED)
        assert tm.brute_force_optimal(inst) == enumerated_optimal(inst)

    @settings(max_examples=60)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=11, seed=0)
    @example(n=11, seed=1)
    def test_uniform_instances_equal_the_enumeration(self, n, seed):
        inst = random_instance(random.Random(seed), n)
        tour, cost = tm.brute_force_optimal(inst)
        ref_tour, ref_cost = enumerated_optimal(inst)
        assert tour == ref_tour
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0.0)

    def test_dominates_random_tours(self):
        rng = random.Random(21)
        inst = random_instance(rng, 7)
        m = tm.build_distance_matrix(inst)
        _, opt = tm.brute_force_optimal(inst)
        for _ in range(200):
            assert opt <= tm.tour_length(tm.random_tour(7, rng), m) + 1e-12


class TestRandomTour:
    def test_single(self):
        assert tm.random_tour(1, random.Random(0)) == (0,)

    @pytest.mark.parametrize("n", [*range(1, 71), 127, 128, 129, 255, 256, 257, 1000])
    def test_draws_what_random_shuffle_draws(self, n):
        # the same tour and the same stream state afterwards, on both sides of
        # the powers of two where the rejection rate of each draw jumps
        for seed in range(40):
            ours, theirs = random.Random(seed), random.Random(seed)
            order = list(range(n))
            theirs.shuffle(order)
            assert tm.random_tour(n, ours) == tuple(order)
            assert ours.getstate() == theirs.getstate()

    def test_deterministic_per_stream_state(self):
        assert tm.random_tour(8, random.Random(42)) == tm.random_tour(8, random.Random(42))

    def test_always_a_permutation(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 12)
            tm.validate_tour(tm.random_tour(n, rng), n)

    def test_uniformity_chi_square_bound(self):
        # 10^4 draws at n=4: each of the 24 permutations should land within
        # 5 sigma of the expected count 10^4/24 (sigma = sqrt(N p (1-p)))
        rng = random.Random(0)
        draws = 10_000
        counts = Counter(tm.random_tour(4, rng) for _ in range(draws))
        assert len(counts) == 24
        expected = draws / 24
        sigma = math.sqrt(draws * (1 / 24) * (23 / 24))
        for perm, count in counts.items():
            assert abs(count - expected) <= 5 * sigma, (perm, count)


class TestInstanceValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tm.Instance(name="empty", cities=())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            tm.Instance.from_coords("bad", [(0.0, float("nan"))])

    def test_cities_are_numbered_from_one_in_errors(self):
        # as in the overflow message, the second city is city 2
        with pytest.raises(ValueError, match="city 2 has non-finite"):
            tm.Instance.from_coords("bad", [(0.0, 0.0), (float("nan"), 1.0)])

    def test_metric_given_as_its_value(self):
        # the diagonal of a square of side 1.4 is 1.9799, which the rounded metric makes 2
        coords = [(0.0, 0.0), (1.4, 0.0), (1.4, 1.4), (0.0, 1.4)]
        inst = tm.Instance.from_coords("square", coords, "euclidean-rounded")
        assert inst.metric is tm.Metric.EUCLIDEAN_ROUNDED
        assert tm.build_distance_matrix(inst).d[0, 2] == 2.0
        for bad in ("manhattan", None, 1, ["euclidean-exact"]):
            with pytest.raises(ValueError):
                tm.Instance.from_coords("square", coords, bad)

    @pytest.mark.parametrize("coords", [
        [(1e200, 0), (-1e200, 0), (0, 1), (3, 4)],
        [(-1e200, 0), (1e200, 0), (0, 1), (3, 4)],
    ], ids=["plus-minus", "minus-plus"])
    def test_overflowing_distance_rejected(self, coords):
        # cities 1 and 2 are 2e200 apart, so their squared distance overflows
        with pytest.raises(ValueError, match="cities 1 and 2 overflows"):
            tm.Instance.from_coords("far", coords)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(SPREAD_COORD, SPREAD_COORD), min_size=1, max_size=8))
    # the box's diagonal overflows, but no pair of cities is that far apart
    @example([(WIDE_HALF, 0.0), (-WIDE_HALF, 0.0), (0.0, WIDE_HALF), (0.0, -WIDE_HALF)])
    def test_accepted_iff_numpy_distances_are_finite(self, coords):
        xs, ys = np.array(coords).T
        with np.errstate(over="ignore"):
            d = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
        try:
            inst = tm.Instance.from_coords("p", coords)
        except ValueError:
            assert np.isinf(d).any()
        else:
            assert np.isfinite(d).all()
            assert np.isfinite(tm.build_distance_matrix(inst).d).all()


class TestRunSearch:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("solver", sorted(SEARCH_SOLVERS))
    def test_run_contract(self, solver, n):
        run, cfg = SEARCH_SOLVERS[solver]
        inst = random_instance(random.Random(n), n)
        m = tm.build_distance_matrix(inst)
        for seed in range(4):
            result = run(inst, replace(cfg, seed=seed))
            history = result.cost_history
            assert result.best_tour == tm.canonicalize(result.best_tour)
            assert tm.tour_length(result.best_tour, m) == result.best_cost
            assert result.iterations_run == len(history) - 1
            assert all(type(c) is float for c in history)
            assert all(b <= a for a, b in zip(history, history[1:]))
            # the history sums the rotation the solver held; best_cost sums the
            # canonical one, so on a non-integer metric the last bits may differ
            assert math.isclose(history[-1], result.best_cost, rel_tol=1e-12)
            again = run(inst, replace(cfg, seed=seed))
            assert replace(again, wall_time=0.0) == replace(result, wall_time=0.0)
