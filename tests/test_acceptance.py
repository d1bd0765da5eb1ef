"""Acceptance suite: every release gate runs here at its stated tolerance,
printing one PASS line per criterion (run with -s to see them inline).
"""

import json
import random
import time
from pathlib import Path

import pytest

import tspmeta as tm
from tspmeta.cli import main
from conftest import BUNDLED_SPEC, random_instance

REPO_ROOT = Path(__file__).resolve().parent.parent

FIVE_CITY_TARGET = 15.15299  # brute-force optimum, quoted at 5 decimals
FIVE_CITY_TOL = 1e-4


def _report(capsys, name: str) -> None:
    with capsys.disabled():
        print(f"[PASS] {name}")


def _assert_non_increasing(history, context: str) -> None:
    for a, b in zip(history, history[1:]):
        assert a >= b, f"history increased in {context}"


def test_c1_exact_five_city_optimum(capsys):
    start = time.perf_counter()
    assert main(["exact", "--builtin-paper"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out

    cost_line = next(line for line in out.splitlines() if line.startswith("optimal cost:"))
    cost = float(cost_line.split(":")[1])
    assert abs(cost - FIVE_CITY_TARGET) <= FIVE_CITY_TOL
    assert "optimal tour: 1 -> 2 -> 3 -> 4 -> 5 -> 1" in out
    assert elapsed < 1.0, f"exact took {elapsed:.3f}s"

    # the library agrees with the CLI, down to the canonical tour
    tour, exact_cost = tm.brute_force_optimal(tm.five_city_instance())
    assert tour == (0, 1, 2, 3, 4)
    assert abs(exact_cost - FIVE_CITY_TARGET) <= FIVE_CITY_TOL

    # the repo documents that the historically quoted costs for this
    # coordinate set (12.3 to 13.0, route 1,2,5,4,3) are not reproducible
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "12.3" in readme and "15.15298" in readme and "17.75854" in readme

    _report(capsys, f"c1 exact five-city optimum ({cost:.5f}, {elapsed:.2f}s)")


def test_c2_pso_reproduction_at_reference_settings(five_city, capsys):
    cfg_base = dict(n_particles=30, max_iter=100, w=0.8, c1=2.0, c2=2.0,
                    local_search=tm.LocalSearch.TWO_OPT_GBEST)
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        result = tm.run_pso(five_city, tm.SwarmConfig(seed=seed, **cfg_base))
        _assert_non_increasing(result.cost_history, f"pso seed {seed}")
        if abs(result.best_cost - FIVE_CITY_TARGET) <= FIVE_CITY_TOL:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 20, f"only {hits}/20 seeds reached the optimum"
    assert elapsed < 5.0, f"20 runs took {elapsed:.2f}s"
    _report(capsys, f"c2 swarm reproduction at reference settings (20/20, {elapsed:.2f}s)")


def test_c3_oracle_equivalence_small_instances(capsys):
    gen = random.Random(12345)
    instances = []
    for n in range(5, 10):
        for k in range(10):
            instances.append(random_instance(gen, n, name=f"u{n}-{k}"))
    assert len(instances) == 50
    optima = {inst.name: tm.brute_force_optimal(inst)[1] for inst in instances}

    runners = {
        "pso": (lambda seed: tm.SwarmConfig(seed=seed), tm.run_pso, 0.95),
        "ga": (lambda seed: tm.GaConfig(seed=seed), tm.run_ga, 0.90),
        "sa": (lambda seed: tm.SaConfig(seed=seed), tm.run_sa, 0.90),
    }
    start = time.perf_counter()
    rates, seconds = {}, {}
    for name, (make_cfg, runner, floor) in runners.items():
        solver_start = time.perf_counter()
        hits = total = 0
        for inst in instances:
            for seed in range(5):
                result = runner(inst, make_cfg(seed))
                _assert_non_increasing(result.cost_history, f"{name} {inst.name} seed {seed}")
                total += 1
                if abs(result.best_cost - optima[inst.name]) <= 1e-9:
                    hits += 1
        rates[name] = hits / total
        seconds[name] = time.perf_counter() - solver_start
        assert rates[name] >= floor, \
            f"{name} matched the exact optimum in {hits}/{total} pairs (< {floor:.0%})"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"matrix took {elapsed:.1f}s"
    summary = ", ".join(f"{k} {v:.1%} in {seconds[k]:.1f}s" for k, v in rates.items())
    _report(capsys, f"c3 oracle equivalence ({summary}, {elapsed:.1f}s)")


def test_c4_two_opt_certificate(capsys):
    from tspmeta.localsearch import IMPROVEMENT_EPS

    rng = random.Random(424242)
    checked = 0
    start = time.perf_counter()
    while checked < 200:
        inst = random_instance(rng, rng.randint(4, 50))
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(m.n, rng)
        out = tm.two_opt(tour, m)
        tm.validate_tour(out, m.n)
        out_len = tm.tour_length(out, m)
        assert out_len <= tm.tour_length(tour, m) + 1e-12

        # exhaustive oracle scan: full recomputation, no delta formula
        n = m.n
        for i in range(n - 1):
            for j in range(i + 1, n):
                if i == 0 and j == n - 1:
                    continue
                candidate = out[:i] + out[i:j + 1][::-1] + out[j + 1:]
                assert tm.tour_length(candidate, m) >= out_len - IMPROVEMENT_EPS, \
                    f"improving reversal ({i},{j}) left after two_opt"
        checked += 1
    elapsed = time.perf_counter() - start
    _report(capsys, f"c4 two-opt local-optimality certificate (200 tours, {elapsed:.1f}s)")


def test_c5_swap_algebra_laws(capsys):
    rng = random.Random(98765)
    for _ in range(1000):
        n = rng.randint(1, 10)
        a, b = tm.random_tour(n, rng), tm.random_tour(n, rng)
        assert tm.apply_swaps(a, tm.swap_difference(a, b)) == b

    for _ in range(500):
        n = rng.randint(2, 10)
        position = tm.random_tour(n, rng)
        particle = tm.Particle(
            position=position,
            velocity=tuple((rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(0, 2 * n))),
            pbest=tm.random_tour(n, rng),
            pbest_cost=0.0,
        )
        velocity = tm.velocity_update(
            particle, tm.random_tour(n, rng),
            rng.random(), 2 * rng.random(), 2 * rng.random(), rng)
        tm.validate_tour(tm.apply_swaps(position, velocity), n)
    _report(capsys, "c5 swap-algebra laws (1000 difference pairs, 500 velocity fuzz cases)")


def test_c6_berlin52_within_tolerance(berlin52, capsys):
    opt_tour = tm.packaged_opt_tour("berlin52", berlin52.n)
    reference = tm.tour_length(opt_tour, tm.build_distance_matrix(berlin52))
    assert reference == 7542.0  # nint-Euclidean length of the packaged optimal tour

    settings = [
        ("pso", lambda s: tm.SwarmConfig(seed=s), tm.run_pso, 1.05),
        ("sa", lambda s: tm.SaConfig(cooling=0.99, iters_per_temp=1500,
                                     min_temp=0.5, seed=s), tm.run_sa, 1.05),
        ("ga", lambda s: tm.GaConfig(population=350, generations=1000,
                                     mutation_rate=0.3, seed=s), tm.run_ga, 1.10),
    ]
    gaps = {}
    for name, make_cfg, runner, factor in settings:
        start = time.perf_counter()
        best = float("inf")
        for seed in range(10):
            result = runner(berlin52, make_cfg(seed))
            _assert_non_increasing(result.cost_history, f"{name} berlin52 seed {seed}")
            best = min(best, result.best_cost)
        elapsed = time.perf_counter() - start
        assert best <= factor * reference, \
            f"{name} best-of-10 {best:.0f} exceeds {factor:.2f} x {reference:.0f}"
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        gaps[name] = (100.0 * (best - reference) / reference, elapsed)
    summary = ", ".join(f"{k} gap {g:.2f}% in {t:.1f}s" for k, (g, t) in gaps.items())
    _report(capsys, f"c6 berlin52 tolerances ({summary})")


def test_c7_monotone_convergence_matrix(capsys):
    rng = random.Random(5150)
    runs = 0
    for _ in range(3):
        inst = random_instance(rng, rng.randint(5, 10))
        for seed in range(3):
            histories = [
                tm.run_pso(inst, tm.SwarmConfig(max_iter=40, seed=seed)).cost_history,
                tm.run_ga(inst, tm.GaConfig(population=20, generations=40, seed=seed)).cost_history,
                tm.run_sa(inst, tm.SaConfig(iters_per_temp=25, min_temp=0.01,
                                            seed=seed)).cost_history,
            ]
            for h in histories:
                _assert_non_increasing(h, f"{inst.name} seed {seed}")
            runs += len(histories)
    _report(capsys, f"c7 monotone convergence ({runs} runs, plus every run in c2/c3/c6)")


def test_c8_bench_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        out_csv = tmp_path / f"{tag}.csv"
        out_json = tmp_path / f"{tag}.json"
        assert main(["bench", str(BUNDLED_SPEC),
                     "--out-csv", str(out_csv), "--out-json", str(out_json)]) == 0
        outputs.append((out_csv.read_text(), out_json.read_text()))
    capsys.readouterr()

    def csv_without_wall_time(text: str) -> list[str]:
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    def json_without_wall_time(text: str):
        doc = json.loads(text)
        for record in doc["records"]:
            record.pop("wall_time_s")
        return doc

    assert csv_without_wall_time(outputs[0][0]) == csv_without_wall_time(outputs[1][0])
    assert json_without_wall_time(outputs[0][1]) == json_without_wall_time(outputs[1][1])

    # and the harness hits the known optimum on every one of the 5 runs
    doc = json.loads(outputs[0][1])
    assert all(abs(r["best_cost"] - FIVE_CITY_TARGET) <= FIVE_CITY_TOL
               for r in doc["records"])
    _report(capsys, "c8 bench determinism (CSV/JSON identical apart from wall time)")


def test_c9_statistics_fixture(capsys):
    costs = [12.5, 13.0, 12.8, 12.3, 12.6]
    records = [
        tm.TrialRecord(algorithm="fixture", run_index=i, seed=i, best_cost=c,
                       best_tour=(0, 1, 2), iterations=0, evaluations=0, wall_time=0.0)
        for i, c in enumerate(costs)
    ]
    (stats,) = tm.summarize(records)
    assert stats.mean == pytest.approx(12.64, abs=1e-9)
    assert stats.sample_std == pytest.approx(0.27019, abs=1e-5)
    assert stats.best == 12.3
    assert stats.worst == 13.0
    _report(capsys, "c9 statistics fixture (mean 12.64, sample std 0.27019)")
