import itertools
import math
import random
import statistics
import sys
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tspmeta as tm
from tspmeta import baselines
from conftest import assert_valid_result, in_time, random_instance
from golden import check
from tspmeta.baselines import (SA_BLOCK, SA_COLD_GAP, CrossoverWork, _sa_cold_passes, _sa_floor,
                               _sa_proposals, order_crossover_rows, sa_thresholds,
                               swap_mutation_rows, tournament_winners)
from tspmeta.errors import MAX_POPULATION, MAX_TEMPERATURE_LEVELS
from tspmeta.instance import cycle_length, cycle_lengths
from tspmeta.localsearch import reversal_table

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
    @example([((1, 0), (0, 1), 1, 2)])              # n = 2
    @example([((3, 0, 2, 1), (1, 2, 3, 0), 1, 4)])  # cut_r == n
    @example([((2, 0, 1, 3), (3, 1, 0, 2), 0, 4),   # full segment
              ((1, 0, 3, 2), (0, 1, 2, 3), 2, 3)])
    def test_batched_crossover_equals_the_scalar_reference(self, rows):
        p1, p2, cut_l, cut_r = (np.array(column) for column in zip(*rows))
        count = len(rows)
        # pair r's parent 1 is child row count - r, after a row that is not
        # crossed, and its parent 2 is row count - 1 - r of the parents
        children = np.concatenate((p1[:1], p1[::-1]))
        order_crossover_rows(children, count - np.arange(count), p2[::-1],
                             count - 1 - np.arange(count), cut_l, cut_r,
                             CrossoverWork(count + 1, children.shape[1]))
        assert [tuple(child) for child in children[:0:-1].tolist()] == \
               [tm.order_crossover(*row) for row in rows]
        assert children[0].tolist() == list(p1[0])

    @given(st.integers(1, 12), st.integers(0, 3))
    def test_no_rows_crossed_or_mutated_changes_nothing(self, n, count):
        # the GA crosses and mutates (0, n) batches when elitism == population
        tours = np.arange(count * n).reshape(count, n) % n
        before = tours.copy()
        none = np.arange(0)
        order_crossover_rows(tours, none, tours, none, none, none, CrossoverWork(count, n))
        if n >= 2:
            swap_mutation_rows(tours, none, np.random.default_rng(0))
        assert tours.tolist() == before.tolist()

    @given(st.integers(2, 12), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
    @example(2, 1, 0)  # n = 2: the one other position
    def test_batched_mutation_swaps_two_positions_per_row(self, n, count, seed):
        rng = random.Random(seed)
        tours = [tm.random_tour(n, rng) for _ in range(count)]
        rows = np.arange(0, count, 2)  # every other row; the rest stay as they are
        mutated = np.array(tours, dtype=np.intp).reshape(count, n)
        swap_mutation_rows(mutated, rows, np.random.default_rng(seed))
        # swap_mutation's randrange(n) and randrange(n - 1) replayed from the
        # same stream: all first positions, then all offsets
        gen = np.random.default_rng(seed)
        draws = {k: iter(gen.integers(k, size=len(rows)).tolist()) for k in (n, n - 1)}
        replay = types.SimpleNamespace(randrange=lambda k: next(draws[k]))
        assert [tuple(t) for t in mutated.tolist()] == \
               [tm.swap_mutation(t, replay) if r % 2 == 0 else t for r, t in enumerate(tours)]

    @given(st.integers(1, 300), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(tm.Metric))
    @example(1, 3, 0, tm.Metric.EUCLIDEAN_EXACT)
    @example(2, 0, 0, tm.Metric.EUCLIDEAN_EXACT)
    def test_batched_scores_equal_cycle_length_bit_for_bit(self, n, count, seed, metric):
        # the GA scores (0, n) batches too: when elitism == population
        rng = random.Random(seed)
        inst = tm.Instance.from_coords(
            "r", [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)], metric)
        m = tm.build_distance_matrix(inst)
        tours = [tm.random_tour(n, rng) for _ in range(count)]
        orders = np.array(tours, dtype=np.intp).reshape(count, n)
        expected = [cycle_length(t, m.rows) for t in tours]
        work = np.empty((count, n), np.intp), np.empty((count, n))
        assert cycle_lengths(orders, m.d, work).tolist() == expected

    @given(tournaments())
    def test_tournament_winner_is_the_lexicographic_minimum(self, costs_and_draws):
        costs, draws = costs_and_draws
        ranked = np.argsort(np.array(costs, dtype=float), kind="stable")
        work = np.empty(ranked.size, np.intp), np.arange(ranked.size)  # as run_ga keeps them
        winners = tournament_winners(np.array(draws), ranked, work)
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
        assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)

    def test_valid_output_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(5):
            inst = random_instance(rng, rng.randint(2, 10))
            cfg = tm.GaConfig(population=8, generations=10, seed=rng.randrange(100))
            result = tm.run_ga(inst, cfg)
            assert_valid_result(result, inst)

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
        check("ga-edges")

    def test_results_are_pinned_at_the_benchmark_shapes(self):
        check("ga-benchmark-shapes")

    def test_a_generation_allocates_less_than_one_population(self):
        # a generation makes its (P, n) arrays in buffers the run allocates
        # once; when each generation allocated its own, the C allocator
        # handed them back to the system and the next one page-faulted them in
        inst = tm.packaged_instance("berlin52")
        cfg = tm.GaConfig(population=350, mutation_rate=0.3, generations=8, seed=1)
        search = baselines._ga_search(inst, cfg, tm.build_distance_matrix(inst), random.Random(1))
        next(search)
        next(search)  # the first generation
        added = []  # the traced peak of each later generation over what was live before it
        tracemalloc.start()
        try:
            for _ in range(cfg.generations - 1):
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                next(search)
                added.append(tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
        assert max(added) < cfg.population * inst.n * 8, added

    @pytest.mark.parametrize("kwargs", [
        dict(population=0),
        dict(generations=0),
        dict(crossover_rate=1.5),
        dict(mutation_rate=-0.1),
        dict(tournament_k=0),
        dict(tournament_k=51),
        dict(elitism=51),
        dict(tournament_k=1.5),
        dict(population=MAX_POPULATION + 1),
        dict(population=10**20),
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


def outcome(result) -> tuple:
    """A run_sa result in reference_sa's shape."""
    return (result.best_tour, result.best_cost, result.iterations_run, result.cost_history,
            result.evaluations)


def reference_sa(instance, cfg, levels=None):
    """run_sa one proposal at a time, as (best tour, best cost, iterations,
    history, evaluations): the same draws from a Generator seeded the same
    way (one stream for the whole run, in blocks of up to 2**12 proposals:
    proposal indices, then as many uniforms), each index looked up in a list
    of reversals built by hand and each threshold sa_thresholds of the
    block's uniforms at its own level's temperature. levels, if given, gets
    each level's (accepted moves, whether one of them changed the cycle):
    every reversal but the two of n - 1 cities, which only reflect it."""
    m = tm.build_distance_matrix(instance)
    rows, n = m.rows, instance.n
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
        temps = []
        while temp > cfg.min_temp:
            temps.append(temp)
            temp *= cfg.cooling
        iters = cfg.iters_per_temp or n * n
        total = len(temps) * iters
        proposals = []  # (i, j, threshold) for the whole run
        for done in range(0, total, 2 ** 12):
            size = min(total - done, 2 ** 12)
            draws, u = gen.integers(len(pairs), size=size), gen.random(size)
            thresholds = {}  # level -> sa_thresholds of the whole block at its temperature
            for p, k in enumerate(draws, done):
                level = p // iters
                if level not in thresholds:
                    thresholds[level] = sa_thresholds(temps[level], u)
                proposals.append((*pairs[k], thresholds[level][p - done]))
        for level in range(len(temps)):
            accepts, moved = 0, False
            for i, j, threshold in proposals[level * iters:(level + 1) * iters]:
                change = delta(i, j)
                evaluations += 1
                if change < threshold:
                    order[i:j + 1] = reversed(order[i:j + 1])
                    accepts, moved = accepts + 1, moved or j - i + 1 != n - 1
                    current += change
                    if current < best_cost:
                        actual = cycle_length(order, rows)
                        if actual < best_cost:
                            best_tour, best_cost = tuple(order), actual
            current = cycle_length(order, rows)
            history.append(best_cost)
            if levels is not None:
                levels.append((accepts, moved))
    best_tour = tm.canonicalize(best_tour)
    return best_tour, cycle_length(best_tour, rows), len(history) - 1, tuple(history), evaluations


def sa_reference_cases():
    for seed in range(56):
        n = 3 + seed % 28
        cfg = tm.SaConfig(initial_temp=None if seed % 2 else 0.3, cooling=0.8,
                          iters_per_temp=None if seed % 3 else 7, seed=seed)
        yield pytest.param(random_instance(random.Random(seed), n), cfg, id=f"n{n}-seed{seed}")
    # 18 levels of 1000 proposals: levels 4, 8, 12 and 16 straddle a block boundary
    yield pytest.param(random_instance(random.Random(60), 12),
                       tm.SaConfig(initial_temp=0.5, cooling=0.7, iters_per_temp=1000, seed=60),
                       id="n12-straddling-levels")
    # four levels, each longer than a block, on integer distances that tie often
    berlin52 = tm.packaged_instance("berlin52")
    yield pytest.param(berlin52, tm.SaConfig(initial_temp=40.0, cooling=0.8, min_temp=19.0,
                                             iters_per_temp=7_000, seed=3), id="berlin52-levels")
    # one level of many blocks
    yield pytest.param(berlin52, tm.SaConfig(initial_temp=40.0, cooling=0.5, min_temp=30.0,
                                             iters_per_temp=70_000, seed=3), id="berlin52-block")


@pytest.mark.parametrize("iters, levels", [(3, 5), (1000, 10), (1024, 8), (5000, 2), (1, 4097)])
def test_each_proposal_gets_its_levels_threshold(iters, levels):
    # _sa_proposals draws one stream of blocks across the levels; the blocks
    # here hold many levels, end mid-level or on a level's end, or lie inside
    # one level
    table = reversal_table(9)
    temps = [3.0 * 0.9 ** level for level in range(levels)]
    total = iters * levels
    got = list(itertools.chain.from_iterable(
        zip(*(column.tolist() for column in block))
        for block in _sa_proposals(np.random.default_rng(11), table, temps, iters)))
    assert len(got) == total
    gen = np.random.default_rng(11)
    for done in range(0, total, SA_BLOCK):
        size = min(SA_BLOCK, total - done)
        k, u = gen.integers(len(table[0]), size=size), gen.random(size)
        for p in range(done, done + size):
            i, j, jn, threshold = got[p]
            assert (i, j, jn) == tuple(int(column[k[p - done]]) for column in table)
            expected = sa_thresholds(temps[p // iters], u)[p - done]
            assert threshold.hex() == float(expected).hex()


class PathLog:
    """Records which path scores each proposal of run_sa: one ("scalar", 1,
    passed) event per sa_accept call outside a cold or screened stretch, and
    one ("cold", proposals, passes) event per stretch _sa_cold_passes scores
    and one ("screened", proposals, passes) per stretch _sa_screened
    screens, counting the proposals it skips. The run calls sa_accept on
    each cold pass and each screened proposal too, and every call is
    counted."""

    def __init__(self, monkeypatch):
        self.events, self.accept_calls = [], 0
        self.stretch, self.stretch_passes = None, 0  # the path of the stretch being scored
        accept, passes, screened = (baselines.sa_accept, baselines._sa_cold_passes,
                                    baselines._sa_screened)

        def counted_accept(delta, threshold):
            self.accept_calls += 1
            out = accept(delta, threshold)
            if self.stretch is None:
                self.events.append(("scalar", 1, int(out)))
            else:
                assert out or self.stretch == "screened"  # the scalar rule passes what cold passed
                self.stretch_passes += out
            return out

        def logged(path, proposals, stretch):
            self.stretch, self.stretch_passes = path, 0
            yield from stretch
            self.events.append((path, proposals, self.stretch_passes))
            self.stretch = None

        monkeypatch.setattr(baselines, "sa_accept", counted_accept)
        monkeypatch.setattr(baselines, "_sa_cold_passes", lambda tour, flat, i, *rest: logged(
            "cold", len(i), passes(tour, flat, i, *rest)))
        monkeypatch.setattr(baselines, "_sa_screened", lambda *args: logged(
            "screened", args[-1] - args[-2], screened(*args)))

    def levels(self, iters: int) -> list[tuple[str, int]]:
        """(path, accepts) of each level, checking that one path scored it
        all, but that a screened level whose floor went stale goes on scalar
        in the next block."""
        levels, path, proposals, accepts = [], None, 0, 0
        for kind, count, passed in self.events:
            assert path in (None, kind) or (path, kind) == ("screened", "scalar")
            path, proposals, accepts = path or kind, proposals + count, accepts + passed
            assert proposals <= iters
            if proposals == iters:
                levels.append((path, accepts))
                path, proposals, accepts = None, 0, 0
        assert proposals == 0
        return levels


def expected_paths(levels, iters: int, screens: bool = True) -> list[tuple[str, int]]:
    """(path, accepts) of each level of a run_sa run of levels of iters
    proposals, from reference_sa's levels: the first level runs scalar; a
    later one runs cold when the level before it accepted a move less often
    than once in SA_COLD_GAP proposals, else screened when that level
    accepted no move that changed the cycle and the run screens, else
    scalar."""
    paths = ["scalar"] + ["cold" if iters // (accepts + 1) >= baselines.SA_COLD_GAP else
                          "screened" if screens and not moved else "scalar"
                          for accepts, moved in levels[:-1]]
    return [(path, accepts) for path, (accepts, _) in zip(paths, levels)]


@st.composite
def stretches(draw):
    """An instance of 3-40 cities, uniform or on a rounded grid, a tour of
    it as a list and a stretch of 300 proposals (arrays i, j, jn and
    thresholds). On the grid every delta is an integer, so the integer
    thresholds tie some of them."""
    n, seed = draw(st.integers(3, 40)), draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    if draw(st.booleans()):
        instance = tm.Instance.from_coords(
            "grid", [(rng.randrange(9) * 10, rng.randrange(9) * 10) for _ in range(n)],
            tm.Metric.EUCLIDEAN_ROUNDED)
    else:
        instance = random_instance(rng, n)
    gen = np.random.default_rng(seed)
    table = reversal_table(n)
    k = gen.integers(len(table[0]), size=300)
    stretch = (*(column[k] for column in table),
               gen.choice([-np.inf, -10.0, 0.0, 10.0, 20.0, np.inf], size=300))
    return tm.build_distance_matrix(instance), list(tm.random_tour(n, rng)), stretch


def scalar_delta(rows, order, i, j, jn):
    a, b, c, e = order[i - 1], order[i], order[j], order[jn]
    return rows[a][c] + rows[b][e] - rows[a][b] - rows[c][e]


def cold_cases():
    # berlin52's integer distances under the benchmark's schedule: about half
    # the levels accept a move less than once in SA_COLD_GAP proposals
    yield pytest.param(tm.packaged_instance("berlin52"),
                       tm.SaConfig(cooling=0.8, iters_per_temp=1500, min_temp=0.5, seed=3),
                       id="berlin52")
    # levels of 5000 proposals, longer than a block: a block ends inside each
    # of them and cuts the chunk then being scored short
    yield pytest.param(random_instance(random.Random(40), 40),
                       tm.SaConfig(initial_temp=0.05, cooling=0.5, iters_per_temp=5000, seed=40),
                       id="n40-long-levels")


@st.composite
def hand_offs(draw):
    """An instance of 3-30 cities, a short SA schedule whose level length
    does not divide SA_BLOCK, and an SA_COLD_GAP of 1-40. So small a gap
    flips levels from the numpy path back to the scalar one and forth,
    mid-block and in levels a block ends in."""
    n, seed = draw(st.integers(3, 30)), draw(st.integers(0, 2 ** 32 - 1))
    iters = draw(st.sampled_from([7, 100, 1000, 5000]))
    levels = draw(st.integers(SA_BLOCK // iters + 1, 12_000 // iters))  # over a block
    temp, cooling = draw(st.sampled_from([0.02, 0.1, 0.5])), draw(st.sampled_from([0.8, 0.9, 0.99]))
    cfg = tm.SaConfig(initial_temp=temp, cooling=cooling, min_temp=temp * cooling ** (levels - 0.5),
                      iters_per_temp=iters, seed=seed)
    return random_instance(random.Random(seed), n), cfg, draw(st.integers(1, 40))


class TestColdLevels:
    @pytest.mark.parametrize("instance, cfg", cold_cases())
    def test_equal_the_one_proposal_at_a_time_reference(self, monkeypatch, instance, cfg):
        log = PathLog(monkeypatch)
        result = in_time(tm.run_sa, instance, cfg, seconds=30.0)
        assert outcome(result) == reference_sa(instance, cfg)
        cold = [event for event in log.events if event[0] == "cold"]
        assert sum(count for _, count, _ in log.events) == result.evaluations - 1
        assert log.accept_calls < result.evaluations - 1
        assert sum(passed for _, _, passed in cold) > 0  # cold levels that accept moves
        if cfg.iters_per_temp > SA_BLOCK:
            assert any(count < cfg.iters_per_temp for _, count, _ in cold)

    @pytest.mark.parametrize("instance, cfg", [
        *cold_cases(),
        # default levels at n <= 9 hold at most 81 proposals, fewer than SA_COLD_GAP
        pytest.param(random_instance(random.Random(9), 9), tm.SaConfig(seed=9), id="n9-defaults"),
    ])
    def test_a_level_runs_in_numpy_when_the_one_before_was_cold(self, monkeypatch, instance,
                                                                 cfg):
        log = PathLog(monkeypatch)
        result = tm.run_sa(instance, cfg)
        iters = cfg.iters_per_temp or instance.n ** 2
        levels, moves = log.levels(iters), []
        assert len(levels) == result.iterations_run
        reference_sa(instance, cfg, moves)
        assert levels == expected_paths(moves, iters)
        assert any(path == "cold" for path, _ in levels) == (iters >= SA_COLD_GAP)

    @given(hand_offs())
    @settings(max_examples=40)
    def test_flips_between_the_paths_equal_the_reference(self, case):
        instance, cfg, gap = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "SA_COLD_GAP", gap)
            result = in_time(tm.run_sa, instance, cfg, seconds=30.0)
        assert outcome(result) == reference_sa(instance, cfg)

    def test_a_scalar_level_goes_on_mid_block_after_a_cold_one(self, monkeypatch):
        # 44 levels of 1000 proposals, 4096 to a block: with a gap of 30 the
        # levels flip between the paths both ways, also in levels a block ends in
        monkeypatch.setattr(baselines, "SA_COLD_GAP", 30)
        log = PathLog(monkeypatch)
        instance = random_instance(random.Random(1), 12)
        cfg = tm.SaConfig(initial_temp=0.1, cooling=0.9, min_temp=1e-3, iters_per_temp=1000,
                          seed=1)
        result, moves = tm.run_sa(instance, cfg), []
        assert outcome(result) == reference_sa(instance, cfg, moves)
        levels = log.levels(1000)
        assert levels == expected_paths(moves, 1000)
        paths = [path for path, _ in levels]
        flips = {(paths[level - 1], paths[level], level * 1000 % SA_BLOCK > 0,
                  level * 1000 // SA_BLOCK < ((level + 1) * 1000 - 1) // SA_BLOCK)
                 for level in range(1, len(paths)) if paths[level - 1] != paths[level]}
        # (from, to, starts mid-block, a block ends inside it)
        assert {("cold", "scalar", True, False), ("scalar", "cold", True, False),
                ("cold", "scalar", True, True), ("scalar", "cold", True, True)} <= flips

    @given(stretches())
    def test_each_delta_is_the_scalar_sum_bit_for_bit(self, case):
        # a proposal alone passes a threshold of its scalar delta's next float
        # up, and not one of the scalar delta itself, iff its numpy delta is
        # that very float
        m, order, (i, j, jn, _) = case
        flat, tour = m.d.ravel(), np.array(order)
        for p in range(len(i)):
            delta = scalar_delta(m.rows, order, int(i[p]), int(j[p]), int(jn[p]))
            one = (i[p:p + 1], j[p:p + 1], jn[p:p + 1])
            assert not list(_sa_cold_passes(tour.copy(), flat, *one, np.array([delta]), 1))
            assert list(_sa_cold_passes(tour.copy(), flat, *one,
                                        np.array([np.nextafter(delta, np.inf)]), 1))

    @given(stretches(), st.integers(1, 70))
    @example((tm.build_distance_matrix(tm.packaged_instance("berlin52")), list(range(52)),
              (*reversal_table(52), np.full(1325, 0.0))), 1)
    def test_passes_are_the_scalar_loops(self, case, chunk):
        m, order, stretch = case
        rows, tour = m.rows, np.array(order)
        got = in_time(list, _sa_cold_passes(tour, m.d.ravel(), *stretch, chunk))
        expected = []
        for i, j, jn, threshold in zip(*(column.tolist() for column in stretch)):
            if scalar_delta(rows, order, i, j, jn) < threshold:
                order[i:j + 1] = order[i:j + 1][::-1]
                expected.append((i, j, jn, threshold))
        assert got == expected
        assert tour.tolist() == order


def grid_or_uniform(rng, n: int, grid: bool) -> tm.Instance:
    """n uniform cities in the unit square, or on a rounded 5 x 5 grid, whose
    integer distances tie often."""
    if grid:
        return tm.Instance.from_coords(
            "grid", [(rng.randrange(5), rng.randrange(5)) for _ in range(n)],
            tm.Metric.EUCLIDEAN_ROUNDED)
    return random_instance(rng, n)


@st.composite
def cycles(draw):
    """A matrix of 4-14 uniform or grid cities and a random order of them."""
    n, seed = draw(st.integers(4, 14)), draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    m = tm.build_distance_matrix(grid_or_uniform(rng, n, draw(st.booleans())))
    return m, list(tm.random_tour(n, rng))


class TestScreenedLevels:
    @given(cycles())
    def test_the_floor_is_the_least_delta_of_every_reading_of_the_cycle(self, case):
        # every rotation of the order, read both ways: every reversal but the
        # two of n - 1 cities (j - i == n - 2) changes the cycle's edges, and
        # its scalar delta is at least the floor, which one of them equals
        m, order = case
        n, table = len(order), [column.tolist() for column in reversal_table(len(order))]

        def edges(cycle):
            return {frozenset(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])}

        floor = _sa_floor(np.array(order), m.d.ravel())
        deltas = []
        for start in range(n):
            for reading in (order[start:] + order[:start], order[start::-1] + order[:start:-1]):
                for i, j, jn in zip(*table):
                    reversed_ = reading[:i] + reading[i:j + 1][::-1] + reading[j + 1:]
                    assert (edges(reversed_) == edges(reading)) == (j - i == n - 2)
                    if j - i != n - 2:
                        deltas.append(scalar_delta(m.rows, reading, i, j, jn))
        assert min(deltas) == floor

    @given(st.integers(3, 60), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(3, False, False, 0)
    @settings(max_examples=60)
    def test_the_floor_is_the_least_of_both_sums_over_the_table(self, n, grid, polished, seed):
        # every entry but the two reflections, each summed both ways; a
        # 2-opt optimum has no delta far below a reflection's near-zero one,
        # so a reflection counted by mistake shows, and at 3 cities, where
        # every entry reflects, the floor is the largest float
        rng = random.Random(seed)
        m = tm.build_distance_matrix(grid_or_uniform(rng, n, grid))
        order, rows = list(tm.random_tour(n, rng)), m.rows
        if polished:
            order = list(tm.two_opt(order, m))
        sums = [sys.float_info.max]
        for i, j, jn in zip(*(column.tolist() for column in reversal_table(n))):
            if j - i != n - 2:
                a, b, c, e = order[i - 1], order[i], order[j], order[jn]
                added = rows[a][c] + rows[b][e]
                sums += [added - rows[a][b] - rows[c][e], added - rows[c][e] - rows[a][b]]
        assert _sa_floor(np.array(order), m.d.ravel()) == min(sums)

    @given(st.integers(3, 12), st.booleans(), st.sampled_from([None, 1, 7]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_default_runs_equal_the_reference(self, n, grid, iters, seed):
        # the result and each level's path and accepted moves
        instance = grid_or_uniform(random.Random(seed), n, grid)
        cfg = tm.SaConfig(iters_per_temp=iters, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            log = PathLog(mp)
            result = in_time(tm.run_sa, instance, cfg, seconds=30.0)
        moves, iters = [], iters or n * n
        assert outcome(result) == reference_sa(instance, cfg, moves)
        assert log.levels(iters) == expected_paths(moves, iters, iters >= n * (n - 1) // 2 - 1)

    def test_a_move_that_changes_the_cycle_ends_the_screening_of_its_level(self, monkeypatch):
        # default SA at 9 cities, seed 0, found by instrumenting _sa_screened:
        # screened levels accept moves that change the cycle, and in one of
        # them a block ends after that move, so the level goes on scalar in
        # the next block; each such level's next runs scalar, unscreened
        log = PathLog(monkeypatch)
        instance, cfg = random_instance(random.Random(0), 9), tm.SaConfig(seed=0)
        result, moves = tm.run_sa(instance, cfg), []
        assert outcome(result) == reference_sa(instance, cfg, moves)
        levels = log.levels(81)
        assert levels == expected_paths(moves, 81)
        stale = [level for level, ((path, _), (_, moved)) in enumerate(zip(levels, moves))
                 if path == "screened" and moved]
        assert len(stale) > 10
        paths, done = [[]], 0  # each level's stretch paths
        for kind, count, _ in log.events:
            paths[-1].append(kind)
            done += count
            if done == 81:
                paths, done = paths + [[]], 0
        assert any(path[0] == "screened" and "scalar" in path for path in paths)
        assert sum(count for kind, count, _ in log.events if kind == "screened") > \
               (result.evaluations - 1) // 3

    @pytest.mark.parametrize("n, iters, screens", [(9, 34, False), (9, 35, True), (300, 7, False)])
    def test_only_levels_as_long_as_the_reversal_table_are_screened(self, monkeypatch, n, iters,
                                                                    screens):
        # a floor reads every one of the n(n-1)/2 - 1 reversals; screening
        # levels of 7 proposals at 1000 cities made a run 17 times slower
        log = PathLog(monkeypatch)
        instance, cfg = random_instance(random.Random(n), n), tm.SaConfig(iters_per_temp=iters)
        result, moves = tm.run_sa(instance, cfg), []
        assert outcome(result) == reference_sa(instance, cfg, moves)
        assert ("screened" in {kind for kind, _, _ in log.events}) == screens
        assert log.levels(iters) == expected_paths(moves, iters, screens)

    def test_the_benchmark_schedule_on_berlin52_never_screens(self, monkeypatch, berlin52):
        # 2 of its 1325 reversals reflect the cycle, so a level of 1500
        # proposals that accepts only those runs in numpy, never screened
        log = PathLog(monkeypatch)
        for seed in range(4):
            tm.run_sa(berlin52, tm.SaConfig(cooling=0.8, iters_per_temp=1500, min_temp=0.5,
                                            seed=seed))
        assert {kind for kind, _, _ in log.events} == {"scalar", "cold"}


@st.composite
def sa_runs(draw):
    """An instance of 3-60 cities and a short SA schedule: uniform in the unit
    square, on a rounded grid (integer distances, so costs tie exactly), or
    uniform scaled by up to 1e150 (the largest drift bound), its min_temp
    scaled alike. At 3-5 cities many reversals give back the same cycle, so
    the running cost dips below the best by rounding alone."""
    family = draw(st.sampled_from(["uniform", "grid", "scaled"]))
    n, seed = draw(st.integers(3, 60)), draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    scale = 10.0 ** draw(st.integers(1, 150)) if family == "scaled" else 1.0
    if family == "grid":
        instance = tm.Instance.from_coords(
            "grid", [(rng.randrange(9) * 10, rng.randrange(9) * 10) for _ in range(n)],
            tm.Metric.EUCLIDEAN_ROUNDED)
    else:
        instance = tm.Instance.from_coords(
            family, [(rng.random() * scale, rng.random() * scale) for _ in range(n)])
    cfg = tm.SaConfig(cooling=draw(st.sampled_from([0.5, 0.8])),
                      iters_per_temp=draw(st.integers(1, 150)), min_temp=1e-3 * scale, seed=seed)
    return instance, cfg


def rescores(mp, module) -> list:
    """Counts module.cycle_length's calls, in a one-item list, from now until
    mp is undone."""
    count, score = [0], module.cycle_length

    def counted(order, rows):
        count[0] += 1
        return score(order, rows)

    mp.setattr(module, "cycle_length", counted)
    return count


class TestDeferredBest:
    @given(sa_runs())
    def test_equals_the_re_score_at_every_new_best(self, case):
        instance, cfg = case
        with pytest.MonkeyPatch.context() as mp:
            ours, theirs = rescores(mp, baselines), rescores(mp, sys.modules[__name__])
            result = in_time(tm.run_sa, instance, cfg, seconds=30.0)
            assert outcome(result) == reference_sa(instance, cfg)
        # the reference re-scores its best once more, after canonicalize
        assert ours[0] <= theirs[0] - 1

    @given(sa_runs())
    def test_when_the_bound_decides_nothing_each_new_best_is_re_scored(self, case):
        # a constant so large that the bound decides nothing: every new best
        # takes the exact path, with the reference's re-scores one for one
        instance, cfg = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "SA_DRIFT_ULPS", 1e300)
            ours, theirs = rescores(mp, baselines), rescores(mp, sys.modules[__name__])
            result = in_time(tm.run_sa, instance, cfg, seconds=30.0)
            assert outcome(result) == reference_sa(instance, cfg)
        assert ours[0] == theirs[0] - 1

    def test_a_run_re_scores_at_most_twice_a_level(self, monkeypatch):
        # the pinned n = 200 run re-scored 669 times when each new best was
        # re-scored at once: at most the pending best and the final order per level
        count = rescores(monkeypatch, baselines)
        result = tm.run_sa(random_instance(random.Random(200), 200),
                           tm.SaConfig(cooling=0.8, iters_per_temp=1000, min_temp=1e-3, seed=1))
        assert count[0] <= 2 * result.iterations_run + 2


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
        assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)

    @pytest.mark.parametrize("instance, cfg", sa_reference_cases())
    def test_equals_the_one_proposal_at_a_time_reference(self, instance, cfg):
        result = tm.run_sa(instance, cfg)
        assert outcome(result) == reference_sa(instance, cfg)

    def test_results_are_pinned(self):
        check("sa-benchmark-configs")

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
            assert_valid_result(result, inst)

    @pytest.mark.parametrize("temps", [dict(initial_temp=2.0, min_temp=1.0), dict()])
    def test_a_schedule_of_too_many_levels_is_refused(self, five_city, temps):
        # about 6.2e15 levels from 2 to 1, more from AUTO down to 1e-3: the
        # run must refuse them before it lists them all. Listing a million
        # takes well under a second, and the short limit also bounds how far
        # an uncapped list could grow before the test fails.
        cfg = tm.SaConfig(cooling=0.9999999999999999, **temps)
        with pytest.raises(tm.ConfigError, match=f"more than {MAX_TEMPERATURE_LEVELS}"):
            in_time(tm.run_sa, five_city, cfg, seconds=2.0)

    def test_a_schedule_of_exactly_the_most_levels_runs(self, five_city, monkeypatch):
        # temperatures 2^-k for k = 0..19 lie above 2^-20: twenty levels
        monkeypatch.setattr(baselines, "MAX_TEMPERATURE_LEVELS", 20)
        cfg = tm.SaConfig(initial_temp=1.0, cooling=0.5, min_temp=0.5 ** 20, iters_per_temp=1)
        assert tm.run_sa(five_city, cfg).iterations_run == 20
        with pytest.raises(tm.ConfigError, match="more than 20 temperature levels"):
            tm.run_sa(five_city, replace(cfg, min_temp=0.5 ** 21))

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
        dict(iters_per_temp=sys.maxsize + 1),  # numpy's int64 division refuses it
        dict(iters_per_temp=10 ** 29),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(tm.ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            tm.SaConfig(**kwargs)

    def test_iters_per_temp_at_the_bound_is_accepted(self):
        # only built: a run would take for ever
        assert tm.SaConfig(iters_per_temp=sys.maxsize).iters_per_temp == sys.maxsize

    def test_the_bound_is_the_largest_level_length_the_proposals_take(self):
        # _sa_proposals finds each proposal's level by int64 division
        table, gen = reversal_table(5), np.random.default_rng(0)
        first = next(_sa_proposals(gen, table, [1.0], sys.maxsize))
        assert len(first[0]) == SA_BLOCK
        with pytest.raises(OverflowError):
            next(_sa_proposals(gen, table, [1.0], sys.maxsize + 1))
