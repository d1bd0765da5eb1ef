import hashlib
import itertools
import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tspmeta as tm
from conftest import random_instance
from tspmeta.baselines import (order_crossover_rows, sa_thresholds, swap_mutation_rows,
                               tournament_winners)
from tspmeta.instance import cycle_length, cycle_lengths

FIVE_CITY_OPT_COST = 15.15298244508295


class TestOrderCrossover:
    def test_reference_example(self):
        child = tm.order_crossover((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), 1, 3)
        assert child == (3, 1, 2, 0, 4)

    def test_identical_parents(self):
        p = (2, 0, 3, 1)
        for cuts in [(0, 1), (1, 3), (0, 4), (3, 4)]:
            assert tm.order_crossover(p, p, *cuts) == p

    def test_full_segment_copies_parent_one(self):
        p1, p2 = (3, 1, 4, 0, 2), (0, 1, 2, 3, 4)
        assert tm.order_crossover(p1, p2, 0, 5) == p1

    def test_invalid_cuts(self):
        p = (0, 1, 2)
        for cuts in [(2, 2), (3, 1), (-1, 2), (0, 4)]:
            with pytest.raises(ValueError):
                tm.order_crossover(p, p, *cuts)

    def test_child_is_always_a_permutation(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(2, 10)
            p1, p2 = tm.random_tour(n, rng), tm.random_tour(n, rng)
            cut_l = rng.randrange(n)
            cut_r = rng.randrange(cut_l + 1, n + 1)
            child = tm.order_crossover(p1, p2, cut_l, cut_r)
            tm.validate_tour(child, n)
            assert child[cut_l:cut_r] == p1[cut_l:cut_r]


@st.composite
def crossover_rows(draw):
    """1-4 rows of (p1, p2, cut_l, cut_r) over one random n."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        p1 = tuple(draw(st.permutations(range(n))))
        p2 = tuple(draw(st.permutations(range(n))))
        cut_l = draw(st.integers(0, n - 1))
        rows.append((p1, p2, cut_l, draw(st.integers(cut_l + 1, n))))
    return rows


@st.composite
def tournaments(draw):
    """Population costs with many ties, and 1-6 rows of k drawn indices."""
    costs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    k = draw(st.integers(1, 5))
    index = st.integers(0, len(costs) - 1)
    return costs, draw(st.lists(st.lists(index, min_size=k, max_size=k), min_size=1, max_size=6))


class TestBatchedOperators:
    @given(crossover_rows())
    @example([((0,), (0,), 0, 1)])                  # n = 1
    @example([((3, 0, 2, 1), (1, 2, 3, 0), 1, 4)])  # cut_r == n
    @example([((2, 0, 1, 3), (3, 1, 0, 2), 0, 4),   # full segment
              ((1, 0, 3, 2), (0, 1, 2, 3), 2, 3)])
    def test_batched_crossover_equals_the_scalar_reference(self, rows):
        p1, p2, cut_l, cut_r = (np.array(column) for column in zip(*rows))
        children = order_crossover_rows(p1, p2, cut_l, cut_r)
        assert [tuple(child) for child in children.tolist()] == \
               [tm.order_crossover(*row) for row in rows]

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_batched_mutation_swaps_two_positions_per_row(self, n, count, seed):
        rng = random.Random(seed)
        tours = np.array([tm.random_tour(n, rng) for _ in range(count)])
        mutated = swap_mutation_rows(tours, np.random.default_rng(seed))
        for before, after in zip(tours.tolist(), mutated.tolist()):
            tm.validate_tour(after, n)
            assert sum(a != b for a, b in zip(before, after)) == 2

    @given(st.integers(3, 300), st.integers(0, 2 ** 32 - 1), st.sampled_from(tm.Metric))
    def test_batched_scores_equal_cycle_length_bit_for_bit(self, n, seed, metric):
        rng = random.Random(seed)
        inst = tm.Instance.from_coords(
            "r", [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)], metric)
        m = tm.build_distance_matrix(inst)
        tours = [tm.random_tour(n, rng) for _ in range(4)]
        assert cycle_lengths(np.array(tours), m.d).tolist() == \
               [cycle_length(t, m.rows()) for t in tours]

    @given(tournaments())
    def test_tournament_winner_is_the_lexicographic_minimum(self, costs_and_draws):
        costs, draws = costs_and_draws
        ranked = np.argsort(np.array(costs, dtype=float), kind="stable")
        winners = tournament_winners(np.array(draws), ranked)
        assert winners.tolist() == [min(row, key=lambda i: (costs[i], i)) for row in draws]


class TestSwapMutation:
    def test_two_cities(self):
        assert tm.swap_mutation((0, 1), random.Random(0)) == (1, 0)

    def test_exactly_two_positions_differ(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 12)
            t = tm.random_tour(n, rng)
            mutated = tm.swap_mutation(t, rng)
            tm.validate_tour(mutated, n)
            assert sum(a != b for a, b in zip(t, mutated)) == 2

    def test_same_drawn_pair_is_an_involution(self):
        t = (4, 2, 0, 3, 1)
        once = tm.swap_mutation(t, random.Random(99))
        assert tm.swap_mutation(once, random.Random(99)) == t

    def test_too_small(self):
        with pytest.raises(ValueError):
            tm.swap_mutation((0,), random.Random(0))


class TestRunGa:
    def test_five_city_defaults_find_optimum(self, five_city):
        for seed in range(5):
            result = tm.run_ga(five_city, tm.GaConfig(seed=seed))
            assert result.best_cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_no_variation_operators(self, five_city):
        # one individual carried by elitism, mutation off: nothing ever changes
        cfg = tm.GaConfig(population=1, elitism=1, mutation_rate=0.0,
                          tournament_k=1, generations=20, seed=7)
        initial = tm.random_tour(5, random.Random(7))
        result = tm.run_ga(five_city, cfg)
        assert result.best_tour == tm.canonicalize(initial)
        assert len(set(result.cost_history)) == 1

    def test_history_non_increasing(self, five_city):
        for seed in range(3):
            history = tm.run_ga(five_city, tm.GaConfig(seed=seed)).cost_history
            assert all(a >= b for a, b in zip(history, history[1:]))

    def test_deterministic(self, five_city):
        a = tm.run_ga(five_city, tm.GaConfig(seed=3))
        b = tm.run_ga(five_city, tm.GaConfig(seed=3))
        assert (a.best_tour, a.best_cost, a.cost_history, a.evaluations) == \
               (b.best_tour, b.best_cost, b.cost_history, b.evaluations)

    def test_valid_output_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(5):
            inst = random_instance(rng, rng.randint(2, 10))
            cfg = tm.GaConfig(population=8, generations=10, seed=rng.randrange(100))
            result = tm.run_ga(inst, cfg)
            tm.validate_tour(result.best_tour, inst.n)
            assert result.best_cost == tm.tour_length(
                result.best_tour, tm.build_distance_matrix(inst))

    @given(st.integers(1, 6), st.integers(1, 8).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, p), st.integers(1, p))), st.integers(0, 99))
    @example(5, (6, 6, 3), 0)  # elitism == population: no offspring
    @example(5, (1, 0, 1), 0)  # population == 1
    @example(1, (8, 2, 3), 0)
    @example(2, (8, 2, 3), 0)
    @example(3, (8, 2, 3), 0)
    def test_valid_rescorable_result_at_the_edges(self, n, sizes, seed):
        population, elitism, k = sizes
        inst = random_instance(random.Random(seed), n)
        cfg = tm.GaConfig(population=population, generations=6, elitism=elitism,
                          tournament_k=k, mutation_rate=0.5, seed=seed)
        result = tm.run_ga(inst, cfg)
        tm.validate_tour(result.best_tour, n)
        assert result.best_cost == tm.tour_length(result.best_tour, tm.build_distance_matrix(inst))
        history = result.cost_history
        assert len(history) == 7 and all(a >= b for a, b in zip(history, history[1:]))
        assert result.evaluations == population + 6 * (population - elitism)

    def test_results_are_pinned(self):
        # pins tour, cost, history and evaluations with no elite and an all-elite
        # population, and tournaments of one and of the whole population; the
        # rounded grid ties often
        digest = hashlib.sha256()
        grid = tm.Instance.from_coords("grid", [(i % 4 * 10, i // 4 * 10) for i in range(12)],
                                       tm.Metric.EUCLIDEAN_ROUNDED)
        for inst in [random_instance(random.Random(n), n) for n in range(1, 10)] + [grid]:
            for population in (1, 2, 7, 20):
                for elitism, k in itertools.product(sorted({0, population}),
                                                 sorted({1, population})):
                    cfg = tm.GaConfig(population=population, generations=8, elitism=elitism,
                                      tournament_k=k, mutation_rate=0.5, seed=inst.n + k)
                    result = tm.run_ga(inst, cfg)
                    digest.update(repr((result.best_tour, result.best_cost, result.cost_history,
                                        result.evaluations)).encode())
        assert digest.hexdigest() == (
            "f94e74cb86287176da37c906998a227c7c5b64b22f0211aedcbe8d4c6944e2ea")

    @pytest.mark.parametrize("kwargs", [
        dict(population=0),
        dict(generations=0),
        dict(crossover_rate=1.5),
        dict(mutation_rate=-0.1),
        dict(tournament_k=0),
        dict(tournament_k=51),
        dict(elitism=51),
        dict(tournament_k=1.5),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(tm.ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            tm.GaConfig(**kwargs)


class TestSaAccept:
    def test_improving_always_accepted(self):
        assert all(tm.sa_accept(-1.0, t) for t in (0.0, 0.01, 1.0, 100.0))

    def test_zero_delta_accepted(self):
        assert all(tm.sa_accept(0.0, t) for t in (5e-324, 0.01, 5.0))
        assert not tm.sa_accept(0.0, 0.0)

    def test_acceptance_frequency_at_delta_equals_temp(self):
        n = 100_000
        thresholds = sa_thresholds(2.5, np.random.default_rng(0).random(n)).tolist()
        accepted = sum(tm.sa_accept(2.5, t) for t in thresholds)
        assert accepted / n == pytest.approx(math.exp(-1), abs=0.005)

    def test_one_level_of_a_million_proposals_stays_small(self):
        # drawing the whole level at once peaks at about 73 MB here
        inst = random_instance(random.Random(5), 20)
        cfg = tm.SaConfig(initial_temp=1e-3, cooling=0.5, min_temp=6e-4,
                          iters_per_temp=10 ** 6, seed=1)
        tracemalloc.start()
        try:
            result = tm.run_sa(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.iterations_run, result.evaluations) == (1, 10 ** 6 + 1)
        assert peak < 8e6


def reference_sa(instance, cfg):
    """run_sa one proposal at a time, as (best tour, best cost, iterations,
    history, evaluations): the same draws (per level, blocks of 2**16
    proposal indices, then as many uniforms) from a Generator seeded the same
    way, each index looked up in a list of reversals built by hand."""
    m = tm.build_distance_matrix(instance)
    rows, n = m.rows(), instance.n
    rng = random.Random(cfg.seed)
    order = list(tm.random_tour(n, rng))
    current = cycle_length(order, rows)
    best_tour, best_cost, history, evaluations = tuple(order), current, [current], 1
    if n >= 3:
        gen = np.random.default_rng(rng.getrandbits(64))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, n - 1)]

        def delta(i, j):
            a, b, c, e = order[i - 1], order[i], order[j], order[(j + 1) % n]
            return rows[a][c] + rows[b][e] - rows[a][b] - rows[c][e]

        temp = cfg.initial_temp
        if temp is None:
            temp = statistics.pstdev(delta(*pairs[k]) for k in gen.integers(len(pairs), size=100))
        iters = cfg.iters_per_temp or n * n
        while temp > cfg.min_temp:
            left = iters
            while left:
                size = min(left, 2 ** 16)
                left -= size
                draws = gen.integers(len(pairs), size=size)
                for k, threshold in zip(draws, sa_thresholds(temp, gen.random(size))):
                    i, j = pairs[k]
                    change = delta(i, j)
                    evaluations += 1
                    if change < threshold:
                        order[i:j + 1] = reversed(order[i:j + 1])
                        current += change
                        if current < best_cost:
                            actual = cycle_length(order, rows)
                            if actual < best_cost:
                                best_tour, best_cost = tuple(order), actual
            current = cycle_length(order, rows)
            temp *= cfg.cooling
            history.append(best_cost)
    best_tour = tm.canonicalize(best_tour)
    return best_tour, cycle_length(best_tour, rows), len(history) - 1, tuple(history), evaluations


def sa_reference_cases():
    for seed in range(56):
        n = 3 + seed % 28
        cfg = tm.SaConfig(initial_temp=None if seed % 2 else 0.3, cooling=0.8,
                          iters_per_temp=None if seed % 3 else 7, seed=seed)
        yield pytest.param(random_instance(random.Random(seed), n), cfg, id=f"n{n}-seed{seed}")
    # one level of more than one block, on integer distances that tie often
    berlin52 = tm.packaged_instance("berlin52")
    yield pytest.param(berlin52, tm.SaConfig(initial_temp=40.0, cooling=0.5, min_temp=30.0,
                                             iters_per_temp=70_000, seed=3), id="berlin52-block")


class TestRunSa:
    def test_five_city_defaults_find_optimum(self, five_city):
        for seed in range(5):
            result = tm.run_sa(five_city, tm.SaConfig(seed=seed))
            assert result.best_cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_geometric_level_count(self, five_city):
        # temp sequence 1.0 -> 0.5 -> 0.25 stops once not above 0.3: two levels
        cfg = tm.SaConfig(initial_temp=1.0, cooling=0.5, min_temp=0.3,
                          iters_per_temp=10, seed=0)
        assert tm.run_sa(five_city, cfg).iterations_run == 2

    def test_history_non_increasing(self, five_city):
        for seed in range(3):
            history = tm.run_sa(five_city, tm.SaConfig(seed=seed)).cost_history
            assert all(a >= b for a, b in zip(history, history[1:]))

    def test_deterministic(self, five_city):
        a = tm.run_sa(five_city, tm.SaConfig(seed=13))
        b = tm.run_sa(five_city, tm.SaConfig(seed=13))
        assert (a.best_tour, a.best_cost, a.cost_history, a.evaluations) == \
               (b.best_tour, b.best_cost, b.cost_history, b.evaluations)

    @pytest.mark.parametrize("instance, cfg", sa_reference_cases())
    def test_equals_the_one_proposal_at_a_time_reference(self, instance, cfg):
        result = tm.run_sa(instance, cfg)
        assert (result.best_tour, result.best_cost, result.iterations_run, result.cost_history,
                result.evaluations) == reference_sa(instance, cfg)

    def test_tiny_instances(self):
        two = tm.Instance.from_coords("two", [(0, 0), (3, 4)])
        result = tm.run_sa(two, tm.SaConfig(seed=0))
        assert result.best_tour == (0, 1)
        assert result.best_cost == pytest.approx(10.0, abs=1e-12)

    def test_valid_output_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(5):
            inst = random_instance(rng, rng.randint(2, 10))
            result = tm.run_sa(inst, tm.SaConfig(iters_per_temp=20, min_temp=0.01,
                                                 seed=rng.randrange(100)))
            tm.validate_tour(result.best_tour, inst.n)
            assert result.best_cost == tm.tour_length(
                result.best_tour, tm.build_distance_matrix(inst))

    @pytest.mark.parametrize("kwargs", [
        dict(cooling=0.0),
        dict(cooling=1.0),
        dict(min_temp=0.0),
        dict(initial_temp=-1.0),
        dict(initial_temp=0.5, min_temp=0.5),
        dict(iters_per_temp=0),
        dict(min_temp=math.inf),
        dict(min_temp=math.nan),
        dict(initial_temp=math.inf),
        dict(initial_temp=math.nan),
        dict(iters_per_temp=2.5),
        dict(cooling="0.9"),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(tm.ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            tm.SaConfig(**kwargs)
