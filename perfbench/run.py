"""tspmeta benchmark: times calls into the public solver functions
(run_pso, run_ga, run_sa, two_opt, three_opt) from outside the program.

    python3 perfbench/run.py --workload oracle-small --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports tspmeta from ./src. Every input
is generated from --seed, so a seed fixes the job list: one call per job,
one process, one call at a time.

With --trace 0 the job list is run in passes, each in a fresh worker process
started after the previous one has exited: at least MIN_PASSES, and more
while a further one still fits into --seconds. Before each pass a further
worker is launched that only sets up, for more set-up samples.

Calls are timed in calibration units (cal): a call's wall time over that of
`calibration()`, a fixed pure-Python loop that does not touch tspmeta, run
in the same worker between calls (see call_all). On a shared machine the
processor's speed switches by up to 1.7x for seconds to minutes at a time,
as neighbours load the host. Wall times follow it; times in cal follow it
far less (on a shared 2-CPU x86-64 box, the run-to-run spread of one
solver's mean wall time reached 39%, against 5% for the same runs in cal).

The printed metrics are the end-to-end ones in BENCHMARK.json: per solver,
the mean over jobs of each job's median time in cal over its passes, whether
or not its calls passed their checks, and the mean cost_ratio; the set-up
time (the median over all workers of the time from launch until the worker
is ready to make its first call); the largest peak memory of a worker; and
the share of calls that passed their checks. Mean wall seconds per call are
in the result file.

With --trace 1 each job runs once untraced and once traced, back to back
in this process, and the printed metrics are the per-layer ones in BENCHMARK.json,
from the traced calls (see tracer.py); every traced result must equal its
untraced twin. --seconds applies to --trace 0 only.

Every output is checked, and a call that raises or fails a check is counted
in `failed` rather than stopping the run; so is a pass whose result differs
from the first pass. The last line of standard output is one JSON object; a
result file stamped with the machine and revision, and for traced runs the
span trace, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import tspmeta as tm
    from tspmeta.localsearch import IMPROVEMENT_EPS
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tspmeta from {SRC}: {exc}")
if not Path(tm.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported tspmeta from {tm.__file__}, not from {SRC}")

from tracer import FUNCTIONS, Tracer  # noqa: E402

WORKLOADS = ("oracle-small", "berlin52", "uniform-large")
SOLVERS = ("pso", "ga", "sa", "two_opt", "three_opt")
LOCAL_SEARCH = ("two_opt", "three_opt")
SEARCH_SOLVERS = ("pso", "ga", "sa")  # return a RunResult
RUNNERS = {"pso": "run_pso", "ga": "run_ga", "sa": "run_sa",
           "two_opt": "two_opt", "three_opt": "three_opt"}

MIN_PASSES = 2
CALIBRATE_EVERY_S = 0.05
CALIBRATE_WINDOW_S = 0.5
FIVE_CITY_OPTIMUM = 15.15299
BERLIN52_OPTIMUM = 7542.0
BHH_CONSTANT = 0.7124  # Beardwood-Halton-Hammersley: optimal tour ~ 0.7124 * sqrt(n * area)

# oracle-small: a seeded sample of the c3 matrix (uniform n = 5..9, default configs)
ORACLE_INSTANCES = 20  # 4 of each n
ORACLE_STARTS = 15     # random start tours per instance for each local search
# Calls are kept short, because one call's time varies by 15-20% even in
# calibration units on a shared machine, and only a mean over some dozens of
# calls per run is steady; the work per iteration, generation or proposal is
# that of the full-length runs.
# berlin52: the c6 swarm with half its iterations, the c6 GA population,
# crossover and mutation with 10 of its 1000 generations, and the c6 SA
# schedule cooled 20 times as fast. Full c6 calls take 4-7 s (GA) and
# 1-2.5 s (SA) on a shared 2-CPU x86-64 box. 3-opt starts from the 2-opt
# optimum of a random tour, as it is used after 2-opt; its run time varies by
# about 50% between starts (from random tours too), so it needs many starts.
BERLIN52_PSO = dict(max_iter=50)
BERLIN52_GA = dict(population=350, generations=10, mutation_rate=0.3)
BERLIN52_SA = dict(cooling=0.8, iters_per_temp=1500, min_temp=0.5)
BERLIN52_JOBS = {"pso": 20, "ga": 14, "sa": 14, "two_opt": 100, "three_opt": 48}
# uniform-large: unit-square instances. PSO runs without local search, so its
# time is the swap algebra at n = 200 rather than 2-opt polishing (whose cost
# varies several-fold between seeds); 3-opt runs from random tours at n = 40,
# each on its own instance, and like on berlin52 needs many starts.
UNIFORM_PSO = dict(max_iter=25, local_search=tm.LocalSearch.NONE)
UNIFORM_GA = dict(generations=25)
UNIFORM_SA = dict(cooling=0.8, iters_per_temp=1000, min_temp=1e-3)
UNIFORM_JOBS = {"pso": 12, "ga": 12, "sa": 12, "two_opt": 8, "three_opt": 64}
UNIFORM_N = {"pso": 200, "ga": 200, "sa": 200, "two_opt": 200, "three_opt": 40}


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass(frozen=True)
class Job:
    solver: str
    instance: tm.Instance
    matrix: tm.DistanceMatrix  # prebuilt: local-search input and the re-scoring matrix
    arg: object                # solver config, or the start tour of a local search
    reference: float           # cost_ratio divisor


# -- inputs -----------------------------------------------------------------

def _uniform_instance(rng, n: int, name: str) -> tm.Instance:
    return tm.Instance.from_coords(name, [(rng.random(), rng.random()) for _ in range(n)])


def _seed(rng) -> int:
    return rng.randrange(2 ** 31)


def _interleave(groups: list[list[Job]]) -> list[Job]:
    """Round-robin over the groups, so each solver's calls are spread over
    the whole pass instead of meeting one stretch of machine load."""
    return [job for batch in itertools.zip_longest(*groups) for job in batch if job is not None]


def check_anchors() -> tuple[tm.Instance, tm.DistanceMatrix, float]:
    """Known answers checked in every set-up, before anything is timed: the
    five-city optimum from the exact solver, and berlin52's optimal length
    re-derived from the packaged optimal tour."""
    _, five = tm.brute_force_optimal(tm.five_city_instance())
    if abs(five - FIVE_CITY_OPTIMUM) > 1e-4:
        raise BenchmarkError(f"five-city optimum is {five}, expected {FIVE_CITY_OPTIMUM}")
    berlin = tm.packaged_instance("berlin52")
    m = tm.build_distance_matrix(berlin)
    reference = tm.tour_length(tm.packaged_opt_tour("berlin52", berlin.n), m)
    if reference != BERLIN52_OPTIMUM:
        raise BenchmarkError(f"berlin52 optimal tour has length {reference}, expected 7542")
    return berlin, m, reference


def _oracle_small(rng, anchors) -> list[Job]:
    groups: dict[str, list[Job]] = {s: [] for s in SOLVERS}
    for k in range(ORACLE_INSTANCES):
        n = 5 + k % 5
        inst = _uniform_instance(rng, n, f"u{n}-{k}")
        m = tm.build_distance_matrix(inst)
        ref = tm.brute_force_optimal(inst)[1]
        seed = _seed(rng)
        groups["pso"].append(Job("pso", inst, m, tm.SwarmConfig(seed=seed), ref))
        groups["ga"].append(Job("ga", inst, m, tm.GaConfig(seed=seed), ref))
        groups["sa"].append(Job("sa", inst, m, tm.SaConfig(seed=seed), ref))
        for solver in LOCAL_SEARCH:
            groups[solver] += [Job(solver, inst, m, tm.random_tour(n, rng), ref)
                               for _ in range(ORACLE_STARTS)]
    return _interleave(list(groups.values()))


def _berlin52(rng, anchors) -> list[Job]:
    inst, m, ref = anchors
    make = {
        "pso": lambda: tm.SwarmConfig(seed=_seed(rng), **BERLIN52_PSO),
        "ga": lambda: tm.GaConfig(seed=_seed(rng), **BERLIN52_GA),
        "sa": lambda: tm.SaConfig(seed=_seed(rng), **BERLIN52_SA),
        "two_opt": lambda: tm.random_tour(inst.n, rng),
        "three_opt": lambda: tm.two_opt(tm.random_tour(inst.n, rng), m),
    }
    return _interleave([[Job(s, inst, m, make[s](), ref) for _ in range(BERLIN52_JOBS[s])]
                        for s in SOLVERS])


def _uniform_large(rng, anchors) -> list[Job]:
    shared = {}  # one instance per size, except 3-opt which gets one per start

    def instance(solver: str) -> tuple[tm.Instance, tm.DistanceMatrix]:
        n = UNIFORM_N[solver]
        if solver == "three_opt" or n not in shared:
            inst = _uniform_instance(rng, n, f"uniform-{n}")
            shared[n] = inst, tm.build_distance_matrix(inst)
        return shared[n]

    make = {
        "pso": lambda n: tm.SwarmConfig(seed=_seed(rng), **UNIFORM_PSO),
        "ga": lambda n: tm.GaConfig(seed=_seed(rng), **UNIFORM_GA),
        "sa": lambda n: tm.SaConfig(seed=_seed(rng), **UNIFORM_SA),
        "two_opt": lambda n: tm.random_tour(n, rng),
        "three_opt": lambda n: tm.random_tour(n, rng),
    }
    groups = []
    for solver in SOLVERS:
        group = []
        for _ in range(UNIFORM_JOBS[solver]):
            inst, m = instance(solver)
            group.append(Job(solver, inst, m, make[solver](inst.n),
                             BHH_CONSTANT * math.sqrt(inst.n)))  # unit square: area 1
        groups.append(group)
    return _interleave(groups)


BUILDERS = {"oracle-small": _oracle_small, "berlin52": _berlin52, "uniform-large": _uniform_large}


def build(workload: str, seed: int) -> list[Job]:
    """Everything before the first timed call: anchors, inputs, references,
    and the matrices that standalone local search takes as input."""
    anchors = check_anchors()
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), anchors)


# -- running and checking -----------------------------------------------------

def call(job: Job):
    """One call into the program, looked up at call time so the tracer's
    rebinding of the tspmeta namespace takes effect."""
    fn = getattr(tm, RUNNERS[job.solver])
    if job.solver in LOCAL_SEARCH:
        return fn(job.arg, job.matrix)
    return fn(job.instance, job.arg)


def run_guarded(job: Job):
    """(output, None) or (None, failure reason); this is the boundary that
    keeps the benchmark running when a solver raises."""
    try:
        return call(job), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed call
        return None, f"raised {exc!r}"


def improving_reversal(tour, d: np.ndarray) -> bool:
    """Exhaustive scan of every segment reversal (i, j), i < j, except the
    full-tour one, by the four-edge delta over row chunks of a dense table;
    True when some reversal shortens the tour by more than IMPROVEMENT_EPS."""
    order = np.asarray(tour, dtype=np.intp)
    n = len(order)
    if n < 4:
        return False
    prev, nxt = np.roll(order, 1), np.roll(order, -1)
    removed_right = d[order, nxt]  # edge (order[j], order[j+1])
    cols = np.arange(n)
    for lo in range(0, n, 64):
        rows = np.arange(lo, min(lo + 64, n))
        a, b = prev[rows], order[rows]
        delta = (d[a[:, None], order[None, :]] + d[b[:, None], nxt[None, :]]
                 - d[a, b][:, None] - removed_right[None, :])
        valid = (cols[None, :] > rows[:, None]) & ~((rows[:, None] == 0) & (cols[None, :] == n - 1))
        if np.any(delta[valid] < -IMPROVEMENT_EPS):
            return True
    return False


def check(job: Job, out) -> tuple[str | None, float | None]:
    """(reason the output is wrong or None, length of the returned tour, or
    None when it is not a tour)."""
    n, m = job.instance.n, job.matrix
    tour = tuple(out) if job.solver in LOCAL_SEARCH else out.best_tour
    if len(tour) != n or sorted(tour) != list(range(n)):
        return "returned tour is not a permutation", None
    cost = tm.tour_length(tour, m)
    if job.solver in LOCAL_SEARCH:
        if cost > tm.tour_length(job.arg, m):
            return f"{job.solver} returned a longer tour than its input", cost
        if job.solver == "two_opt" and improving_reversal(tour, m.d):
            return "two_opt left an improving reversal", cost
        return None, cost
    if cost != out.best_cost:
        return f"stored best_cost {out.best_cost!r} != re-scored {cost!r}", cost
    history = out.cost_history
    if any(later > earlier for earlier, later in zip(history, history[1:])):
        return "cost_history increases", cost
    return None, cost


def digest(out) -> str:
    """Fingerprint of a solver output, ignoring wall_time; repr keeps every
    digit of a float, so equal digests mean bit-identical results."""
    if isinstance(out, tm.RunResult):
        out = (out.best_tour, out.best_cost, out.iterations_run, out.cost_history, out.evaluations)
    return hashlib.sha256(repr(out).encode()).hexdigest()


_CAL_RNG = random.Random(0)
_CAL_ROWS = [[_CAL_RNG.random() for _ in range(60)] for _ in range(60)]
_CAL_TOURS = [_CAL_RNG.sample(range(60), 60) for _ in range(100)]


def calibration() -> float:
    """Wall seconds of a fixed loop of segment reversals and tour lengths
    over nested lists, the kind of work in the solvers' inner loops. It does
    not touch tspmeta, so only the machine's speed moves it."""
    start = time.perf_counter()
    total = 0.0
    for tour in _CAL_TOURS:
        order = tour[:]
        for i in range(0, 50, 5):
            order[i:i + 10] = order[i:i + 10][::-1]
            prev = order[-1]
            for city in order:
                total += _CAL_ROWS[prev][city]
                prev = city
    return time.perf_counter() - start


def call_all(jobs: list[Job]) -> tuple[list[float], list[float], list[tuple]]:
    """One call per job; only the call is inside the timed region. Returns
    each call's wall seconds, the same in calibration units, and outputs.
    The calibration loop runs first, last, and between two calls whenever
    CALIBRATE_EVERY_S has passed since it last ran. A call's unit is the
    median of the calibrations that started within CALIBRATE_WINDOW_S of the
    call's midpoint (so at least the one just before it): one calibration
    alone is too noisy, and the window is short against the machine's
    changes of speed."""
    times, mids, outputs = [], [], []
    cal_at, cals = [], []

    def calibrate():
        cal_at.append(time.perf_counter())
        cals.append(calibration())

    calibrate()
    for job in jobs:
        if time.perf_counter() - cal_at[-1] > CALIBRATE_EVERY_S:
            calibrate()
        start = time.perf_counter()
        outputs.append(run_guarded(job))
        end = time.perf_counter()
        times.append(end - start)
        mids.append((start + end) / 2)
    calibrate()
    cal_times = [t / statistics.median(c for at, c in zip(cal_at, cals)
                                       if abs(at - mid) <= CALIBRATE_WINDOW_S + t / 2)
                 for t, mid in zip(times, mids)]
    return times, cal_times, outputs


def verdict(jobs: list[Job], times: list[float], cal_times: list[float],
            outputs: list[tuple]) -> dict:
    """Checks every output of one pass. The record is what a pass worker
    sends back: times (s and cal), costs, digests and failures (index, reason)."""
    costs, digests, failures = [], [], []
    for index, (job, (out, reason)) in enumerate(zip(jobs, outputs)):
        cost = None
        if reason is None:
            reason, cost = check(job, out)
        if reason is not None:
            failures.append((index, reason))
        costs.append(cost)
        digests.append(digest(out))
    return {"times": times, "cal_times": cal_times, "costs": costs, "digests": digests,
            "failures": failures}


@dataclass
class Tally:
    """Per-solver samples (every job's median time over its passes, in s and
    in cal; the cost_ratio of every job whose first call returned a tour) and
    every failed call."""
    times: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in SOLVERS})
    cal_times: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in SOLVERS})
    ratios: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in SOLVERS})
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def combine(jobs: list[Job], passes: list[dict]) -> Tally:
    """Counts every call of every pass; a call fails if it failed its checks
    or differs from the first pass. Failed calls are counted, not dropped:
    every job adds its times, and its cost_ratio if its first call returned
    a tour."""
    tally = Tally()
    failed = [dict((index, reason) for index, reason in p["failures"]) for p in passes]
    for index, job in enumerate(jobs):
        for p, fails in zip(passes, failed):
            tally.attempted += 1
            reason = fails.get(index)
            if reason is None and p["digests"][index] != passes[0]["digests"][index]:
                reason = "result differs from the first pass on the same input"
            if reason is not None:
                tally.failures.append(f"{job.solver} on {job.instance.name}: {reason}")
        tally.times[job.solver].append(statistics.median(p["times"][index] for p in passes))
        tally.cal_times[job.solver].append(statistics.median(p["cal_times"][index] for p in passes))
        cost = passes[0]["costs"][index]
        if cost is not None:
            tally.ratios[job.solver].append(cost / job.reference)
    return tally


def traced_pass(jobs: list[Job], tracer: Tracer) -> tuple[Tally, dict, float]:
    """Each job runs untraced and then traced, back to back in this process,
    so both calls meet the same machine speed. Returns the tally (a traced
    call fails if it differs from its untraced twin), summed evaluation
    counts, and the tracing overhead: traced over untraced time, minus one."""
    plain, traced = ([], [], []), ([], [], [])
    for index, job in enumerate(jobs):
        cal = calibration()
        start = time.perf_counter()
        plain[2].append(run_guarded(job))
        plain[0].append(time.perf_counter() - start)
        tracer.install()
        try:
            with tracer.span(f"job:{job.solver}:{index}", run=True):
                start = time.perf_counter()
                traced[2].append(run_guarded(job))
                traced[0].append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        for times, cal_times, _ in (plain, traced):
            cal_times.append(times[-1] / cal)
    tally = combine(jobs, [verdict(jobs, *plain), verdict(jobs, *traced)])
    evaluations = {s: sum(out.evaluations for job, (out, _) in zip(jobs, traced[2])
                          if job.solver == s and out is not None) for s in SEARCH_SOLVERS}
    return tally, evaluations, sum(traced[0]) / sum(plain[0]) - 1


# -- metrics --------------------------------------------------------------------

def end_to_end_metrics(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    passed = tally.attempted - len(tally.failures)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
               "ok_share": (passed / tally.attempted, "share")}
    for solver in SOLVERS:
        ratios = tally.ratios[solver]
        metrics[f"{solver}.run_cal_mean"] = (statistics.fmean(tally.cal_times[solver]), "cal")
        # None (JSON null) only when no call of the solver returned a tour
        metrics[f"{solver}.cost_ratio"] = (statistics.fmean(ratios) if ratios else None, "ratio")
    return metrics


def layer_metrics(totals: dict, evaluations: dict, overhead: float) -> dict:
    metrics = {}
    for name in FUNCTIONS:
        calls, _, self_ns, _ = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")

    def ratio(name):
        calls, _, _, extra = totals[name]
        return extra / calls if calls else 0.0

    metrics["localsearch.two_opt.improved_share"] = (ratio("localsearch.two_opt"), "share")
    metrics["localsearch.three_opt.improved_share"] = (ratio("localsearch.three_opt"), "share")
    metrics["pso.swap_difference.swaps_per_call"] = (ratio("pso.swap_difference"), "swaps")
    metrics["baselines.sa_accept.accept_share"] = (ratio("baselines.sa_accept"), "share")
    for solver in SEARCH_SOLVERS:
        metrics[f"{solver}.evaluations"] = (evaluations[solver], "count")
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics


# -- set-up timing and machine stamp ----------------------------------------------

def worker(workload: str, seed: int, run_pass: bool = True) -> tuple[float, dict | None]:
    """Starts a fresh interpreter that sets up and, if run_pass, runs one
    pass; waits for it to exit. Returns the worker's set-up time (launch
    until it reports ready: import, anchors, inputs, references and
    matrices) and its pass record (None without a pass)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--worker", "pass" if run_pass else "setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        record = proc.stdout.read()
    if proc.returncode != 0 or ready != "ready\n":
        raise BenchmarkError(f"worker for {workload} seed {seed} exited with {proc.returncode}")
    return setup_s, json.loads(record) if run_pass else None


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tspmeta").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_rev": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


# -- entry point ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                jobs = build(workload, seed)
        finally:
            tracer.uninstall()
        tally, evaluations, overhead = traced_pass(jobs, tracer)
        metrics = layer_metrics(tracer.totals(), evaluations, overhead)
        trace_path = OUT / f"{workload}-seed{seed}.trace.json"
        tracer.write(trace_path)
        details = dict(trace_file=trace_path.name)
    else:
        jobs = build(workload, seed)
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            setup.append(worker(workload, seed, run_pass=False)[0])
            setup_s, record = worker(workload, seed)
            setup.append(setup_s)
            passes.append(record)
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        tally = combine(jobs, passes)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = end_to_end_metrics(tally, statistics.median(setup), rss_mb)
        details = dict(timed_s=elapsed, passes=len(passes), setup_samples_s=setup,
                       calls={s: len(tally.times[s]) for s in SOLVERS},
                       run_s_mean={s: statistics.fmean(tally.times[s]) for s in SOLVERS})
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "failures": tally.failures[:20], **details, **result}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("pass", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.worker:
            jobs = build(args.workload, args.seed)
            print("ready", flush=True)
            if args.worker == "pass":
                print(json.dumps(verdict(jobs, *call_all(jobs))))
            return 0
        OUT.mkdir(exist_ok=True)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{args.workload:<14} {name:<40} {value:>14} {metric['unit']}")
    print(f"{args.workload:<14} attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
