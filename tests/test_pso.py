import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tspmeta as tm
from tspmeta import pso
from tspmeta.errors import MAX_POPULATION
from tspmeta.instance import cycle_length
from tspmeta.localsearch import _two_opt_passes
from tspmeta.pso import _LEAD_POLISH, LocalSearch, Particle, SwarmState, _inertia_now, init_state
from conftest import assert_valid_result, random_instance
from golden import check

FIVE_CITY_OPT_COST = 15.15298244508295


def reference_swap_difference(frm, to):
    """The full selection pass over every position, with a dict of where
    each city sits: the scan that swap_difference must equal exactly."""
    if len(frm) != len(to):
        raise tm.DimensionMismatchError(f"tour sizes differ: {len(frm)} vs {len(to)}")
    working = list(frm)
    where = {city: idx for idx, city in enumerate(working)}
    swaps = []
    for k, target in enumerate(to):
        current = working[k]
        if current != target:
            j = where[target]
            working[k], working[j] = working[j], working[k]
            where[current] = j
            where[target] = k
            swaps.append((k, j))
    return tuple(swaps)


def reference_move(p, gbest, w_now, c1, c2, rng):
    """The velocity update and position update composed from the public
    parts, as step made them one particle at a time."""
    n = len(p.position)
    inertia = tm.stochastic_scale(p.velocity, w_now, rng)
    cognitive = tm.stochastic_scale(reference_swap_difference(p.position, p.pbest), c1, rng)
    social = tm.stochastic_scale(reference_swap_difference(p.position, gbest), c2, rng)
    velocity = (inertia + cognitive + social)[:2 * n]
    return velocity, tm.apply_swaps(p.position, velocity)


def reference_step(state, cfg, m, rng):
    """step as it was before particles at rest on gbest skipped their move:
    every particle moves and is evaluated. step must equal it exactly, stream
    state included."""
    rows = m.rows
    w_now = _inertia_now(cfg, state.iteration)
    gbest, gbest_cost = state.gbest, state.gbest_cost

    def visit(p: Particle, position, velocity, cost: float) -> Particle:
        nonlocal gbest, gbest_cost
        pbest, pbest_cost = (position, cost) if cost < p.pbest_cost else (p.pbest, p.pbest_cost)
        if pbest_cost < gbest_cost:
            gbest, gbest_cost = pbest, pbest_cost
        return Particle(position, velocity, pbest, pbest_cost)

    particles, costs = [], []
    for p in state.particles:
        velocity, position = reference_move(p, gbest, w_now, cfg.c1, cfg.c2, rng)
        if cfg.local_search is LocalSearch.TWO_OPT_ALL:
            position = _two_opt_passes(position, m)
        costs.append(cycle_length(position, rows))
        particles.append(visit(p, position, velocity, costs[-1]))
    evaluations = state.evaluations + len(particles)

    polish = _LEAD_POLISH.get(cfg.local_search)
    if polish is not None:
        lead = min((i for i, p in enumerate(particles) if p.position != state.gbest),
                   key=costs.__getitem__, default=None)
        if lead is not None:
            p = particles[lead]
            polished = polish(p.position, m)
            if polished != p.position:
                evaluations += 1
                particles[lead] = visit(p, polished, p.velocity, cycle_length(polished, rows))

    return SwarmState(tuple(particles), gbest, gbest_cost, state.iteration + 1, evaluations)


def collapsed_swarm(inst, m, n_particles, rng):
    """A hand-built swarm around a random gbest g: each particle at rest on
    g, just arrived on g with a velocity, drawn towards g as its pbest, or
    anywhere. Every stored cost is cycle_length of its tour, as in a run."""
    n, rows = inst.n, m.rows
    g = tm.random_tour(n, rng)
    particles = []
    for _ in range(n_particles):
        kind = rng.choice(["rest", "rest", "arrived", "pbest-on-g", "anywhere"])
        velocity = tuple((rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(1, 2 * n)))
        position = g if kind in ("rest", "arrived") else tm.random_tour(n, rng)
        pbest = position if kind in ("rest", "arrived", "anywhere") else g
        particles.append(Particle(position, () if kind == "rest" else velocity,
                                  pbest, cycle_length(pbest, rows)))
    return SwarmState(tuple(particles), g, cycle_length(g, rows), rng.randrange(5),
                      rng.randrange(100))


def coefficients(top):
    return st.one_of(st.just(0.0), st.floats(0.0, top))


@st.composite
def step_cases(draw):
    """(n, cfg, start, seed, steps) over every mode, with and without
    the inertia decay, coefficients sometimes 0: a swarm from init_state or a
    hand-built collapsed one, then `steps` further steps."""
    n = draw(st.integers(1, 30))
    w = draw(coefficients(1.0))
    cfg = tm.SwarmConfig(n_particles=draw(st.integers(1, 6)), max_iter=draw(st.integers(1, 40)),
                         w=w, c1=draw(coefficients(2.5)), c2=draw(coefficients(2.5)),
                         w_end=draw(st.one_of(st.none(), st.floats(0.0, w))),
                         local_search=draw(st.sampled_from(list(LocalSearch))))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, cfg, draw(st.sampled_from(["init", "collapsed"])), seed,
            draw(st.integers(0, 40)))


@st.composite
def tour_pairs(draw):
    """(frm, to) for n = 0..60: equal, a few random transpositions apart, or
    independent random tours."""
    n = draw(st.integers(0, 60))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    frm = tuple(rng.sample(range(n), n))
    kind = draw(st.sampled_from(["equal", "near", "independent"]))
    if kind == "equal":
        return frm, frm
    if kind == "independent":
        return frm, tuple(rng.sample(range(n), n))
    to = list(frm)
    for _ in range(draw(st.integers(1, 4)) if n > 1 else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        to[i], to[j] = to[j], to[i]
    return frm, tuple(to)


class TestSwapDifference:
    @given(tour_pairs())
    def test_equals_the_full_scan_reference(self, pair):
        frm, to = pair
        assert tm.swap_difference(frm, to) == reference_swap_difference(frm, to)

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


class TestMove:
    def test_equals_the_composed_reference(self):
        # fuzzed particles, velocities up to 3n swaps (over the 2n cap), and
        # every coefficient sometimes at 0: velocity_update and apply_swaps
        # give the same velocity and position, and the same stream state after
        rng = random.Random(808)
        for case in range(600):
            n = rng.randint(1, 40)
            position = tm.random_tour(n, rng)
            pbest = rng.choice([position, tm.random_tour(n, rng)])
            gbest = rng.choice([position, pbest, tm.random_tour(n, rng)])
            velocity = tuple((rng.randrange(n), rng.randrange(n))
                             for _ in range(rng.randint(0, 3 * n)))
            p = tm.Particle(position, velocity, pbest, 0.0)
            w, c1, c2 = (rng.choice([0.0, rng.random() * scale]) for scale in (1, 2, 2))
            seed = rng.randrange(2**32)
            ours, theirs = random.Random(seed), random.Random(seed)
            expected_velocity, expected_position = reference_move(p, gbest, w, c1, c2, theirs)
            velocity = tm.velocity_update(p, gbest, w, c1, c2, ours)
            assert velocity == expected_velocity, case
            assert tm.apply_swaps(position, velocity) == expected_position, case
            assert ours.getstate() == theirs.getstate()


class TestStep:
    @pytest.mark.parametrize("bad", [(0, 5), (-1, 0)])
    def test_out_of_range_velocity_raises(self, five_city, bad):
        # an inertia of 1 keeps a prefix of at least one swap at seed 0
        m = tm.build_distance_matrix(five_city)
        tour = (0, 1, 2, 3, 4)
        cost = tm.tour_length(tour, m)
        particle = tm.Particle(tour, (bad,) * 10, tour, cost)
        state = tm.SwarmState((particle,), tour, cost, 0, 1)
        cfg = tm.SwarmConfig(n_particles=1, w=1.0, local_search=tm.LocalSearch.NONE)
        with pytest.raises(ValueError, match="out of range"):
            tm.pso_step(state, cfg, m, random.Random(0))

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


class TestRestingParticles:
    @settings(max_examples=150)
    @given(step_cases())
    def test_step_equals_the_reference_step(self, case):
        n, cfg, start, seed, steps = case
        rng = random.Random(seed)
        inst = random_instance(rng, n)
        m = tm.build_distance_matrix(inst)
        if start == "init":
            state = init_state(inst, cfg, m, rng)
        else:
            state = collapsed_swarm(inst, m, cfg.n_particles, rng)
        for _ in range(steps + 1):
            theirs = random.Random()
            theirs.setstate(rng.getstate())
            expected = reference_step(state, cfg, m, theirs)
            state = tm.pso_step(state, cfg, m, rng)
            assert state == expected
            assert rng.getstate() == theirs.getstate()

    @pytest.mark.parametrize("mode", [mode for mode in LocalSearch
                                      if mode is not LocalSearch.TWO_OPT_ALL])
    @pytest.mark.parametrize("n_particles", [1, 7, 30])
    def test_a_collapsed_swarm_spends_only_six_draws_per_particle(self, mode, n_particles):
        rng = random.Random(61)
        inst = random_instance(rng, 9)
        m = tm.build_distance_matrix(inst)
        g = tm.random_tour(inst.n, rng)
        cost = tm.tour_length(g, m)
        state = SwarmState(tuple(Particle(g, (), g, cost) for _ in range(n_particles)),
                           g, cost, 3, 100)
        cfg = tm.SwarmConfig(n_particles=n_particles, local_search=mode)
        expected = random.Random(7)
        for _ in range(6 * n_particles):
            expected.random()
        ours = random.Random(7)
        after = tm.pso_step(state, cfg, m, ours)
        assert ours.getstate() == expected.getstate()
        assert after == SwarmState(state.particles, g, cost, 4, 100 + n_particles)
        assert all(a is b for a, b in zip(after.particles, state.particles))

    @pytest.mark.parametrize("before", [0, 1, 306, 311, 312, 1000])
    def test_one_call_spends_what_six_uniforms_spend(self, before):
        # a particle at rest reads its six uniforms' 12 Mersenne Twister words
        # with one getrandbits(384); after `before` uniforms the words also
        # straddle the generator's refill every 624 words
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for rng in (ours, theirs):
                for _ in range(before):
                    rng.random()
            ours.getrandbits(384)
            for _ in range(6):
                theirs.random()
            assert ours.getstate() == theirs.getstate()


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
        assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)

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

    def test_step_runs_the_exported_velocity_update(self, monkeypatch, five_city, berlin52):
        # step looks velocity_update up in its module, as the tracer rebinds
        # it; a particle at rest makes no call
        cases = ((five_city, tm.SwarmConfig()), (berlin52, tm.SwarmConfig(max_iter=20)))
        unwrapped = [tm.run_pso(inst, cfg) for inst, cfg in cases]
        original, calls = pso.velocity_update, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pso, "velocity_update", counted)
        for (inst, cfg), expected in zip(cases, unwrapped):
            calls.clear()
            result = tm.run_pso(inst, cfg)
            assert 1 <= len(calls) <= cfg.n_particles * result.iterations_run
            assert replace(result, wall_time=0.0) == replace(expected, wall_time=0.0)

    @pytest.mark.parametrize("mode", list(tm.LocalSearch))
    def test_results_are_pinned(self, mode):
        check(f"pso-{mode.value}")

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
            assert_valid_result(result, inst)


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

    @pytest.mark.parametrize("max_iter", [4, 7, 13])
    def test_decay_to_zero_ends_at_exactly_zero(self, max_iter):
        # unclamped, 0.8 + (0 - 0.8) * (max_iter - 1) / (max_iter - 1) rounds
        # to -1.1e-16 at these lengths, which stochastic_scale rejects
        cfg = tm.SwarmConfig(w=0.8, w_end=0.0, max_iter=max_iter)
        assert _inertia_now(cfg, max_iter - 1) == 0.0
        assert all(_inertia_now(cfg, it) >= 0.0 for it in range(max_iter))

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
        dict(n_particles=MAX_POPULATION + 1),
        dict(n_particles=10**20),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(tm.ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            tm.SwarmConfig(**kwargs)
