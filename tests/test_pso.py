import hashlib
import random
from dataclasses import replace

import pytest

import tspmeta as tm
from tspmeta.pso import _inertia_now, init_state
from conftest import random_instance

FIVE_CITY_OPT_COST = 15.15298244508295
# sha256 of TestRun.test_results_are_pinned's results per local-search mode
PSO_PINS = {
    "none": "bf0440c388c0971db3fc5340710607ab5fc566955e272b50d843e296929ae325",
    "two-opt-gbest": "f30dad183d2ed6d55e31cae78d957e7d778a1c7a5becf868ce1bae37318e67f3",
    "two-opt-all": "108f0fa62b346be0f32adbbea6097ca38b78e2836bd62f9a093264b49e377511",
    "three-opt-gbest": "ceecf50869addb278b08d6e054a571ebf66d29dfaacb5cb600b11f70128e6853",
}


class TestSwapDifference:
    def test_identical_tours_give_empty_sequence(self):
        assert tm.swap_difference((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)) == ()

    def test_single_transposition(self):
        assert tm.swap_difference((0, 1, 2, 3, 4), (0, 1, 4, 3, 2)) == ((2, 4),)

    def test_subtraction_law_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(1000):
            n = rng.randint(1, 8)
            a, b = tm.random_tour(n, rng), tm.random_tour(n, rng)
            assert tm.apply_swaps(a, tm.swap_difference(a, b)) == b

    def test_length_bound(self):
        rng = random.Random(78)
        for _ in range(200):
            n = rng.randint(2, 10)
            a, b = tm.random_tour(n, rng), tm.random_tour(n, rng)
            assert len(tm.swap_difference(a, b)) <= n - 1

    def test_size_mismatch(self):
        with pytest.raises(tm.DimensionMismatchError):
            tm.swap_difference((0, 1), (0, 1, 2))


class TestApplySwaps:
    def test_empty_sequence_is_identity(self):
        assert tm.apply_swaps((3, 1, 0, 2), ()) == (3, 1, 0, 2)

    def test_single_swap(self):
        assert tm.apply_swaps((0, 1, 2, 3, 4), ((2, 4),)) == (0, 1, 4, 3, 2)

    def test_reversed_sequence_undoes(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 9)
            t = tm.random_tour(n, rng)
            seq = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6)))
            forward = tm.apply_swaps(t, seq)
            assert tm.apply_swaps(forward, seq[::-1]) == t

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            tm.apply_swaps((0, 1, 2), ((0, 3),))


class TestStochasticScale:
    def test_zero_coefficient(self):
        rng = random.Random(0)
        assert tm.stochastic_scale(((0, 1), (1, 2)), 0.0, rng) == ()

    def test_empty_sequence(self):
        assert tm.stochastic_scale((), 2.0, random.Random(0)) == ()

    def test_result_is_a_prefix(self):
        rng = random.Random(1)
        seq = tuple((i, i + 1) for i in range(6))
        for _ in range(200):
            out = tm.stochastic_scale(seq, rng.random() * 3, rng)
            assert out == seq[:len(out)]

    def test_expected_kept_length(self):
        # coefficient 2 over length-4 input: E[min(2r,1)]*4 = 3.0
        rng = random.Random(0)
        seq = ((0, 1), (1, 2), (2, 3), (3, 0))
        total = sum(len(tm.stochastic_scale(seq, 2.0, rng)) for _ in range(10_000))
        assert total / 10_000 == pytest.approx(3.0, rel=0.02)

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            tm.stochastic_scale((), -1.0, random.Random(0))
        with pytest.raises(ValueError):
            tm.stochastic_scale((), float("inf"), random.Random(0))


class TestVelocityUpdate:
    def test_converged_swarm_is_stationary(self):
        tour = (0, 1, 2, 3)
        p = tm.Particle(position=tour, velocity=(), pbest=tour, pbest_cost=1.0)
        assert tm.velocity_update(p, tour, 0.8, 2.0, 2.0, random.Random(0)) == ()

    def test_social_term_isolation(self):
        rng = random.Random(3)
        pos, gbest = (0, 1, 2, 3, 4), (4, 3, 2, 1, 0)
        p = tm.Particle(position=pos, velocity=((0, 1), (2, 3)), pbest=pos, pbest_cost=0.0)
        social = tm.swap_difference(pos, gbest)
        for _ in range(50):
            out = tm.velocity_update(p, gbest, 0.0, 0.0, 2.0, rng)
            assert out == social[:len(out)]

    def test_length_cap(self):
        rng = random.Random(4)
        n = 6
        pos = tuple(range(n))
        long_velocity = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(40))
        p = tm.Particle(position=pos, velocity=long_velocity,
                        pbest=tm.random_tour(n, rng), pbest_cost=0.0)
        for _ in range(100):
            assert len(tm.velocity_update(p, tm.random_tour(n, rng), 1.0, 2.0, 2.0, rng)) <= 2 * n

    def test_output_applies_to_valid_permutation(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(2, 10)
            pos = tm.random_tour(n, rng)
            p = tm.Particle(
                position=pos,
                velocity=tuple((rng.randrange(n), rng.randrange(n))
                               for _ in range(rng.randint(0, 2 * n))),
                pbest=tm.random_tour(n, rng),
                pbest_cost=0.0,
            )
            v = tm.velocity_update(p, tm.random_tour(n, rng), rng.random(),
                                   2 * rng.random(), 2 * rng.random(), rng)
            tm.validate_tour(tm.apply_swaps(pos, v), n)


class TestStep:
    def test_swarm_at_optimum_is_a_fixed_point(self, five_city):
        m = tm.build_distance_matrix(five_city)
        cfg = tm.SwarmConfig(n_particles=4, seed=0)
        opt = (0, 1, 2, 3, 4)
        cost = tm.tour_length(opt, m)
        particles = tuple(tm.Particle(opt, (), opt, cost) for _ in range(4))
        state = tm.SwarmState(particles, opt, cost, 0, 4)
        after = tm.pso_step(state, cfg, m, random.Random(0))
        assert after.iteration == 1
        assert after.gbest == opt
        assert after.gbest_cost == cost
        assert all(p.position == opt for p in after.particles)

    def test_gbest_never_worsens(self, five_city):
        m = tm.build_distance_matrix(five_city)
        cfg = tm.SwarmConfig(seed=1)
        rng = random.Random(cfg.seed)
        state = init_state(five_city, cfg, m, rng)
        for _ in range(30):
            before = state.gbest_cost
            state = tm.pso_step(state, cfg, m, rng)
            assert state.gbest_cost <= before

    def test_zero_coefficients_freeze_single_particle(self, five_city):
        m = tm.build_distance_matrix(five_city)
        cfg = tm.SwarmConfig(n_particles=1, w=0.0, c1=0.0, c2=0.0,
                             local_search=tm.LocalSearch.NONE, seed=2)
        rng = random.Random(cfg.seed)
        state = init_state(five_city, cfg, m, rng)
        first = state.particles[0].position
        for _ in range(10):
            state = tm.pso_step(state, cfg, m, rng)
            assert state.particles[0].position == first

    def test_two_opt_all_leaves_every_position_two_opt_optimal(self):
        inst = random_instance(random.Random(23), 12)
        m = tm.build_distance_matrix(inst)
        cfg = tm.SwarmConfig(n_particles=6, local_search=tm.LocalSearch.TWO_OPT_ALL, seed=5)
        rng = random.Random(cfg.seed)
        state = init_state(inst, cfg, m, rng)
        for _ in range(3):
            state = tm.pso_step(state, cfg, m, rng)
            assert all(tm.two_opt(p.position, m) == p.position for p in state.particles)

    def test_gbest_matches_min_pbest_after_every_step(self):
        rng_inst = random.Random(31)
        inst = random_instance(rng_inst, 7)
        m = tm.build_distance_matrix(inst)
        cfg = tm.SwarmConfig(n_particles=8, seed=3)
        rng = random.Random(cfg.seed)
        state = init_state(inst, cfg, m, rng)
        for _ in range(25):
            state = tm.pso_step(state, cfg, m, rng)
            assert state.gbest_cost == min(p.pbest_cost for p in state.particles)
            for p in state.particles:
                assert p.pbest_cost == tm.tour_length(p.pbest, m)


class TestRun:
    @pytest.mark.parametrize("mode", list(tm.LocalSearch))
    def test_local_search_given_as_its_value(self, mode):
        # a config built in code takes the enum's value as well as its member
        inst = random_instance(random.Random(17), 15)
        cfg = tm.SwarmConfig(n_particles=5, max_iter=10, local_search=mode.value, seed=4)
        assert cfg.local_search is mode
        by_value = tm.run_pso(inst, cfg)
        by_member = tm.run_pso(inst, replace(cfg, local_search=mode))
        assert replace(by_value, wall_time=0.0) == replace(by_member, wall_time=0.0)

    def test_single_city(self):
        inst = tm.Instance.from_coords("one", [(0, 0)])
        result = tm.run_pso(inst, tm.SwarmConfig(seed=0))
        assert result.best_tour == (0,)
        assert result.best_cost == 0.0

    def test_three_cities_solved_at_initialization(self):
        inst = tm.Instance.from_coords("tri", [(0, 0), (2, 0), (1, 2)])
        result = tm.run_pso(inst, tm.SwarmConfig(seed=0))
        assert result.best_cost == pytest.approx(result.cost_history[0], abs=1e-12)

    def test_five_city_defaults_find_optimum(self, five_city):
        for seed in range(5):
            result = tm.run_pso(five_city, tm.SwarmConfig(seed=seed))
            assert result.best_cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)
            assert result.best_tour == (0, 1, 2, 3, 4)

    def test_bit_identical_reruns(self, five_city):
        a = tm.run_pso(five_city, tm.SwarmConfig(seed=11))
        b = tm.run_pso(five_city, tm.SwarmConfig(seed=11))
        assert a.best_tour == b.best_tour
        assert a.best_cost == b.best_cost
        assert a.cost_history == b.cost_history
        assert a.evaluations == b.evaluations
        assert a.iterations_run == b.iterations_run

    def test_history_is_non_increasing(self):
        rng = random.Random(41)
        inst = random_instance(rng, 9)
        result = tm.run_pso(inst, tm.SwarmConfig(seed=5))
        history = result.cost_history
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert len(history) == result.iterations_run + 1

    def test_stagnation_limit_stops_early(self, five_city):
        result = tm.run_pso(five_city, tm.SwarmConfig(seed=0, stagnation_limit=5))
        assert result.iterations_run < 100
        assert result.best_cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    @pytest.mark.parametrize("mode", list(tm.LocalSearch))
    def test_results_are_pinned(self, mode):
        # pins tour, cost, history and evaluations of each mode, with and without
        # the inertia decay and the stagnation stop; the rounded grids tie often
        rng = random.Random(2026)
        grids = [tm.Instance.from_coords("grid", [(i % 4 * 10, i // 4 * 10) for i in range(n)],
                                         tm.Metric.EUCLIDEAN_ROUNDED) for n in (9, 12)]
        digest = hashlib.sha256()
        for w_end, stagnation_limit in [(None, None), (0.3, None), (None, 3), (0.1, 2)]:
            for inst in grids + [random_instance(rng, n) for n in (3, 5, 8, 11)]:
                cfg = tm.SwarmConfig(n_particles=rng.randint(1, 8), max_iter=12, w_end=w_end,
                                     local_search=mode, stagnation_limit=stagnation_limit,
                                     seed=rng.randrange(1000))
                result = tm.run_pso(inst, cfg)
                digest.update(repr((result.best_tour, result.best_cost, result.cost_history,
                                    result.evaluations)).encode())
        assert digest.hexdigest() == PSO_PINS[mode.value]

    def test_permutation_safety_random_configs(self):
        rng = random.Random(55)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 12))
            cfg = tm.SwarmConfig(
                n_particles=rng.randint(1, 10),
                max_iter=rng.randint(1, 12),
                w=rng.random(),
                c1=2 * rng.random(),
                c2=2 * rng.random(),
                local_search=rng.choice(list(tm.LocalSearch)),
                seed=rng.randrange(1000),
            )
            result = tm.run_pso(inst, cfg)
            tm.validate_tour(result.best_tour, inst.n)
            assert result.best_cost == tm.tour_length(
                result.best_tour, tm.build_distance_matrix(inst))


class TestInertiaSchedule:
    def test_constant(self):
        cfg = tm.SwarmConfig(w=0.8)
        assert _inertia_now(cfg, 0) == 0.8
        assert _inertia_now(cfg, 99) == 0.8

    def test_linear_decay_endpoints(self):
        cfg = tm.SwarmConfig(w=0.9, w_end=0.3, max_iter=101)
        assert _inertia_now(cfg, 0) == pytest.approx(0.9)
        assert _inertia_now(cfg, 50) == pytest.approx(0.6)
        assert _inertia_now(cfg, 100) == pytest.approx(0.3)

    def test_linear_decay_run_reaches_optimum(self, five_city):
        cfg = tm.SwarmConfig(w=0.9, w_end=0.2, seed=0)
        result = tm.run_pso(five_city, cfg)
        assert result.best_cost == pytest.approx(FIVE_CITY_OPT_COST, abs=1e-9)

    def test_w_end_alone_decays_inertia(self):
        cfg = tm.SwarmConfig(w_end=0.3)
        schedule = [_inertia_now(cfg, i) for i in range(cfg.max_iter)]
        assert schedule[0] == cfg.w
        assert schedule[-1] == pytest.approx(0.3)
        assert all(a > b for a, b in zip(schedule, schedule[1:]))


class TestSwarmConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_particles=0),
        dict(max_iter=0),
        dict(w=1.5),
        dict(w=-0.1),
        dict(c1=-1),
        dict(w_end=-0.1),
        dict(w_end=0.9, w=0.5),
        dict(stagnation_limit=0),
        dict(n_particles=2.5),
        dict(max_iter=True),
        dict(w="0.8"),
        dict(stagnation_limit=1.5),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(tm.ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            tm.SwarmConfig(**kwargs)
