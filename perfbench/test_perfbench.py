"""Self-test of the benchmark itself (not of tspmeta):

    python3 -m pytest perfbench -q

It runs a few jobs of each kind, not whole workloads.
"""

import dataclasses
import json
import random

import pytest

import run
from run import tm
from tracer import Tracer


def truncated(workload: str, seed: int, jobs: int) -> list:
    return run.build(workload, seed)[:jobs]


def declared(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def traced(jobs: list):
    tracer = Tracer()
    tally, evaluations, overhead = run.traced_pass(jobs, tracer)
    return tally, run.layer_metrics(tracer.totals(), evaluations, overhead)


def passes(jobs: list, count: int = run.MIN_PASSES) -> list:
    return [run.verdict(jobs, *run.call_all(jobs)) for _ in range(count)]


def test_printed_names_and_units_match_benchmark_json():
    jobs = truncated("oracle-small", 1, 5)  # every solver once
    assert sorted(job.solver for job in jobs) == sorted(run.SOLVERS)
    tally = run.combine(jobs, passes(jobs))
    assert tally.attempted == 5 * run.MIN_PASSES and not tally.failures
    e2e = run.end_to_end_metrics(tally, setup_s=0.1, rss_mb=1.0)
    assert {name: unit for name, (_, unit) in e2e.items()} == declared("end_to_end")

    tally, layers = traced(jobs)
    assert not tally.failures
    assert {name: unit for name, (_, unit) in layers.items()} == declared("per_layer")


def test_same_seed_repeats_cost_ratios_and_counts():
    def once():
        tally, layers = traced(truncated("oracle-small", 7, 10))
        counts = {k: v for k, (v, unit) in layers.items() if unit != "s" and k != "trace.overhead_share"}
        return tally.ratios, counts

    first, second = once(), once()
    assert first == second
    assert first[1]["pso.step.calls"] > 0 and first[1]["baselines.sa_accept.calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_determines_inputs(workload):
    def inputs(seed):
        return [(job.solver, job.instance.cities, repr(job.arg), job.reference)
                for job in run.build(workload, seed)]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_doctored_results_are_counted_as_failed(monkeypatch):
    jobs = run.build("berlin52", 3)
    pso_job = next(j for j in jobs if j.solver == "pso")
    two_opt_job = next(j for j in jobs if j.solver == "two_opt")
    three_opt_job = next(j for j in jobs if j.solver == "three_opt")

    good = run.call(pso_job)
    assert run.check(pso_job, good)[0] is None
    tour = good.best_tour
    doctored = [
        dataclasses.replace(good, best_cost=good.best_cost + 1e-9),
        dataclasses.replace(good, best_tour=(tour[0],) + tour[:-1]),
        dataclasses.replace(good, cost_history=good.cost_history + (good.best_cost + 1.0,)),
    ]
    for bad in doctored:
        assert run.check(pso_job, bad)[0] is not None

    assert run.check(two_opt_job, run.call(two_opt_job))[0] is None
    assert run.check(two_opt_job, two_opt_job.arg)[0] is not None  # random tour: not 2-opt optimal
    optimal = run.call(two_opt_job)
    longer = dataclasses.replace(three_opt_job, arg=optimal)
    assert run.check(longer, three_opt_job.arg)[0] is not None



def test_a_solver_whose_every_call_fails_still_gets_every_metric(monkeypatch):
    jobs = truncated("oracle-small", 5, 5)  # every solver once
    pso_job = next(j for j in jobs if j.solver == "pso")
    wrong = dataclasses.replace(run.call(pso_job), best_cost=0.0)

    def crash(instance, cfg):
        raise RuntimeError("solver crashed")

    for fake, ratio in ((lambda instance, cfg: wrong, True), (crash, False)):
        monkeypatch.setattr(tm, "run_pso", fake)
        tally = run.combine(jobs, passes(jobs))
        assert tally.attempted == 5 * run.MIN_PASSES and len(tally.failures) == run.MIN_PASSES
        assert all(len(tally.cal_times[s]) == 1 for s in run.SOLVERS)
        metrics = run.end_to_end_metrics(tally, setup_s=0.1, rss_mb=1.0)
        assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
        assert metrics["ok_share"][0] == 1 - 1 / 5
        assert (metrics["pso.cost_ratio"][0] is not None) == ratio


def test_a_pass_that_differs_from_the_first_is_counted_as_failed():
    jobs = truncated("oracle-small", 2, 5)
    first, second = passes(jobs, 2)
    second["digests"][3] = "0" * 64
    tally = run.combine(jobs, [first, second])
    assert tally.attempted == 10 and len(tally.failures) == 1
    assert len(tally.cal_times[jobs[3].solver]) == 1


def test_worker_repeats_the_in_process_pass():
    setup_s, record = run.worker("oracle-small", 4)
    jobs = run.build("oracle-small", 4)
    assert setup_s > 0 and not record["failures"]
    assert record["digests"] == run.verdict(jobs, *run.call_all(jobs))["digests"]
    setup_s, record = run.worker("oracle-small", 4, run_pass=False)
    assert setup_s > 0 and record is None


def test_improving_reversal_agrees_with_full_recomputation():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 12)
        inst = tm.Instance.from_coords("r", [(rng.random(), rng.random()) for _ in range(n)])
        m = tm.build_distance_matrix(inst)
        tour = tm.random_tour(n, rng)
        if rng.random() < 0.5:
            tour = tm.two_opt(tour, m)
        length = tm.tour_length(tour, m)
        expected = any(
            tm.tour_length(tour[:i] + tour[i:j + 1][::-1] + tour[j + 1:], m) < length - 1e-9
            for i in range(n - 1) for j in range(i + 1, n) if not (i == 0 and j == n - 1))
        assert run.improving_reversal(tour, m.d) == expected

