"""The golden table: one row per bit-for-bit anchor of tspmeta, and check(name),
which runs a row and raises AssertionError naming it when the result differs.
`python tests/golden.py tspmeta` runs the CLI rows through that console script.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path
from typing import NamedTuple

import tspmeta as tm
from tspmeta.localsearch import _three_opt_scans, _two_opt_passes
from conftest import BUNDLED_SPEC, SRC, in_time, random_instance


def digest(results) -> str:
    """sha256 over the results in turn: a run's (best_tour, best_cost,
    cost_history, evaluations), bytes as they are, anything else its repr."""
    h = hashlib.sha256()
    for r in results:
        if isinstance(r, tm.RunResult):
            r = (r.best_tour, r.best_cost, r.cost_history, r.evaluations)
        h.update(r if isinstance(r, bytes) else repr(r).encode())
    return h.hexdigest()


def ga_edges():
    # no elite and an all-elite population, and tournaments of one and of
    # the whole population; the rounded grid ties often
    grid = tm.Instance.from_coords("grid", [(i % 4 * 10, i // 4 * 10) for i in range(12)],
                                   tm.Metric.EUCLIDEAN_ROUNDED)
    for inst in [random_instance(random.Random(n), n) for n in range(1, 10)] + [grid]:
        for population in (1, 2, 7, 20):
            for elitism, k in itertools.product(sorted({0, population}),
                                             sorted({1, population})):
                cfg = tm.GaConfig(population=population, generations=8, elitism=elitism,
                                  tournament_k=k, mutation_rate=0.5, seed=inst.n + k)
                yield tm.run_ga(inst, cfg)


def ga_benchmark_shapes():
    # berlin52 with the benchmark's population of 350, and 200 uniform
    # cities with the default population: runs far larger than ga_edges'
    berlin = tm.packaged_instance("berlin52")
    runs = [(berlin, tm.GaConfig(population=350, mutation_rate=0.3, generations=20,
                                 seed=seed)) for seed in range(3)]
    uniform = random_instance(random.Random(200), 200)
    runs += [(uniform, tm.GaConfig(generations=25, seed=seed)) for seed in range(2)]
    for inst, cfg in runs:
        yield tm.run_ga(inst, cfg)


def sa_benchmark_configs():
    # the benchmark's three SA configs (defaults at n = 5..9, berlin52 with
    # cooling 0.8, n = 200 with 1000 proposals per level) and c6's schedule
    # on berlin52
    berlin52 = tm.packaged_instance("berlin52")
    cases = [(random_instance(random.Random(n), n), tm.SaConfig(seed=n)) for n in range(5, 10)]
    cases += [(berlin52, tm.SaConfig(cooling=0.8, iters_per_temp=1500, min_temp=0.5,
                                     seed=seed)) for seed in (2, 3)]
    cases += [(random_instance(random.Random(200), 200),
               tm.SaConfig(cooling=0.8, iters_per_temp=1000, min_temp=1e-3, seed=1)),
              (berlin52, tm.SaConfig(cooling=0.99, iters_per_temp=1500, min_temp=0.5,
                                     seed=0))]
    for inst, cfg in cases:
        yield tm.run_sa(inst, cfg)


def local_optima(search, seed, smallest):
    # a certificate admits any local optimum; this pins the one that search
    # reaches from each of 100 random starts
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(smallest, 30)
        m = tm.build_distance_matrix(random_instance(rng, n))
        yield in_time(search, tm.random_tour(n, rng), m)


def pso_modes(mode):
    # with and without the inertia decay and the stagnation stop; the
    # rounded grids tie often
    rng = random.Random(2026)
    grids = [tm.Instance.from_coords("grid", [(i % 4 * 10, i // 4 * 10) for i in range(n)],
                                     tm.Metric.EUCLIDEAN_ROUNDED) for n in (9, 12)]
    for w_end, stagnation_limit in [(None, None), (0.3, None), (None, 3), (0.1, 2)]:
        for inst in grids + [random_instance(rng, n) for n in (3, 5, 8, 11)]:
            cfg = tm.SwarmConfig(n_particles=rng.randint(1, 8), max_iter=12, w_end=w_end,
                                 local_search=mode, stagnation_limit=stagnation_limit,
                                 seed=rng.randrange(1000))
            yield tm.run_pso(inst, cfg)


def berlin52_optimum_svg():
    berlin52 = tm.packaged_instance("berlin52")
    yield tm.render_tour_svg(berlin52, tm.packaged_opt_tour("berlin52", berlin52.n)).encode()


def uniform_csv(n: int) -> str:
    rng = random.Random(n)
    return "\n".join(f"{rng.random()!r},{rng.random()!r}" for _ in range(n)) + "\n"


def spec(instance: str, *algorithms: dict, runs: int = 1) -> str:
    return json.dumps({"instance": instance, "algorithms": algorithms,
                       "runs_per_algorithm": runs, "base_seed": 0})


class Lib(NamedTuple):
    cases: object  # a function yielding the results that digest hashes
    sha256: str


class Cli(NamedTuple):
    argv: str  # tspmeta's arguments, run in a fresh directory holding INPUTS
    want: dict | None = None  # fields the JSON output holds
    exit_code: int = 0


FIVE_CITY_OPT = 15.15298244508295


def solved(best_cost: float, evaluations: int) -> dict:
    return {"best_cost": best_cost, "evaluations": evaluations}


INPUTS = {
    "uniform9.csv": uniform_csv(9),
    "uniform200.csv": uniform_csv(200),
    "berlin52.tsp": (Path(tm.__file__).parent / "data" / "berlin52.tsp").read_text(),
    "five_city_repro.json": BUNDLED_SPEC.read_text(),
    "shared-matrix.json": spec("uniform200.csv", {
        "name": "ga", "kind": "ga", "params": {"generations": 25}}, {
        "name": "sa", "kind": "sa", "params": {"cooling": 0.8, "iters_per_temp": 1000,
                                               "min_temp": 0.001}}, runs=2),
    "null-path.json": spec("a\x00b.csv", {"name": "pso", "kind": "pso"}),
    "misspelled-params.json": spec("builtin-paper", {
        "name": "sa", "kind": "sa", "parms": {"cooling": 0.5}}),
}

TABLE = {
    "ga-edges": Lib(ga_edges, "f94e74cb86287176da37c906998a227c7c5b64b22f0211aedcbe8d4c6944e2ea"),
    "ga-benchmark-shapes": Lib(ga_benchmark_shapes,
                               "ed9d6531c6326dab6008169985cf4915b3e9a1d1339d810b977f3a339159e954"),
    "sa-benchmark-configs": Lib(sa_benchmark_configs,
                                "dc1e7a36449f4471345e9f1315146c2e10765446533d2a28ef7149a329ef1c02"),
    # the best-improvement passes' tie rule (PSO's polish), then with the
    # neighbour-list sweep's moves first
    "two-opt-passes": Lib(partial(local_optima, _two_opt_passes, 2025, 4),
                          "70dcedfa5709668306f79213ea5120d4e5de07e6c38f9dab626290b3aa4005e8"),
    "two-opt": Lib(partial(local_optima, tm.two_opt, 2025, 4),
                   "3ce12a96489280b80312ce20c9c3f28e8eedfccd74e65844d0d61329c224e6bb"),
    # the scan order and first-improving reconnection (PSO's polish), then
    # from SWEEP_AND_BLOCK_MIN_N cities on with the 2-opt and Or-opt sweeps first
    "three-opt-scans": Lib(partial(local_optima, _three_opt_scans, 2024, 5),
                           "1c0b1b232d2ed0de038ffc82a54cf14cf6b43773cf909fc7b3453084f34a4e3f"),
    "three-opt": Lib(partial(local_optima, tm.three_opt, 2024, 5),
                     "c72c10aa0cfcb243bba07c151639143aee342c98f117ca05bb045e0c6eddcd91"),
    **{f"pso-{mode}": Lib(partial(pso_modes, tm.LocalSearch(mode)), pin) for mode, pin in {
        "none": "bf0440c388c0971db3fc5340710607ab5fc566955e272b50d843e296929ae325",
        "two-opt-gbest": "f30dad183d2ed6d55e31cae78d957e7d778a1c7a5becf868ce1bae37318e67f3",
        "two-opt-all": "108f0fa62b346be0f32adbbea6097ca38b78e2836bd62f9a093264b49e377511",
        "three-opt-gbest": "ceecf50869addb278b08d6e054a571ebf66d29dfaacb5cb600b11f70128e6853",
    }.items()},
    "svg-berlin52-optimum": Lib(berlin52_optimum_svg,
                                "ee154f1ba2ae43598987755c5b49d8295b6602b8f16e939b354db661e30f5e58"),
    # c2: default PSO on the five-city instance reaches its optimum
    "cli-pso-five-city": Cli("solve --builtin-paper --algo pso --format json",
                             solved(FIVE_CITY_OPT, 3057)),
    "cli-bench-five-city": Cli("bench five_city_repro.json --out-json out.json", {
        "records": [{"algorithm": "pso", "run_index": seed, "seed": seed,
                     "best_cost": FIVE_CITY_OPT, "best_tour": [0, 1, 2, 3, 4], "iterations": 100,
                     "evaluations": evaluations}
                    for seed, evaluations in enumerate([3057, 3076, 3088, 3068, 3081])],
        "summary": [{"algorithm": "pso", "mean": FIVE_CITY_OPT, "sample_std": 0.0,
                     "best": FIVE_CITY_OPT, "worst": FIVE_CITY_OPT, "gap_percent": 0.0}]}),
    # SA scores about half these levels in numpy, with the scalar loop's result
    "cli-sa-berlin52": Cli("solve berlin52.tsp --algo sa --cooling 0.8 --iters-per-temp 1500 "
                           "--min-temp 0.5 --seed 3 --format json", solved(7700.0, 45001)),
    # a new best certain under the drift bound is re-scored at its level's end
    "cli-sa-uniform200": Cli("solve uniform200.csv --algo sa --cooling 0.8 --iters-per-temp 1000 "
                             "--min-temp 1e-3 --seed 1 --format json",
                             solved(16.711061117675, 28001)),
    # over half the proposals lie in screened levels
    "cli-sa-uniform9": Cli("solve uniform9.csv --algo sa --seed 1 --format json",
                           solved(2.8493473766734345, 98335)),
    # the polish runs 3-opt's pure-Python scan
    "cli-pso-three-opt-uniform9": Cli("solve uniform9.csv --algo pso --local-search "
                                      "three-opt-gbest --seed 1 --format json",
                                      solved(2.8493473766734345, 3111)),
    "cli-ga-uniform200": Cli("solve uniform200.csv --algo ga --generations 25 --seed 1 "
                             "--format json", solved(80.53332433728926, 1250)),
    # each generation is made in buffers allocated once per run
    "cli-ga-berlin52": Cli("solve berlin52.tsp --algo ga --population 350 --generations 200 "
                           "--mutation-rate 0.3 --seed 3 --format json", solved(8621.0, 69950)),
    # each seed-1 run is the second on the instance's one distance matrix,
    # and gives what a first run on its own matrix gives
    "cli-bench-shared-matrix": Cli("bench shared-matrix.json --out-json out.json", {"records": [
        {"algorithm": a, "seed": s, **solved(c, e)} for a, s, c, e in [
            ("ga", 0, 77.55324476339769, 1250), ("ga", 1, 80.53332433728926, 1250),
            ("sa", 0, 16.623284815785983, 28001), ("sa", 1, 16.711061117675, 28001)]]}),
    "cli-exact-missing-file": Cli("exact missing.csv", exit_code=2),
    # an instance path no file can have (a null byte) is bad input
    "cli-bench-null-path": Cli("bench null-path.json", exit_code=2),
    # so is a misspelled key in an algorithm entry, which once ran default SA
    "cli-bench-misspelled-params": Cli("bench misspelled-params.json", exit_code=2),
}

# rows whose checks the pin tests of test_*.py make under their own node ids;
# tests/test_golden.py runs every other row
PINNED = {"ga-edges", "ga-benchmark-shapes", "sa-benchmark-configs", "two-opt-passes", "two-opt",
          "three-opt-scans", "three-opt", "svg-berlin52-optimum",
          *(f"pso-{mode.value}" for mode in tm.LocalSearch)}


def _pick(want, got):
    """got cut down to want's shape: the keys of each dict, each list item."""
    if isinstance(want, dict):
        return {k: _pick(v, got[k]) for k, v in want.items()}
    if isinstance(want, list) and len(want) == len(got):
        return [_pick(w, g) for w, g in zip(want, got)]
    return got


def run_cli(argv: list, script: str | None = None) -> tuple[int, str]:
    """The exit code and JSON text (out.json if written, else stdout) of
    `python -m tspmeta`, or of script, run in a fresh directory."""
    cmd = [script] if script else [sys.executable, "-m", "tspmeta"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        proc = subprocess.run(cmd + argv, cwd=tmp, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        out_json = Path(tmp, "out.json")
        return proc.returncode, out_json.read_text() if out_json.exists() else proc.stdout


def check(name: str, script: str | None = None) -> None:
    row = TABLE[name]
    if isinstance(row, Lib):
        got, want = digest(row.cases()), row.sha256
    else:
        code, text = run_cli(row.argv.split(), script)
        got, want = code, row.exit_code
        if code == row.exit_code and row.want:
            got, want = _pick(row.want, json.loads(text)), row.want
    if got != want:
        raise AssertionError(f"golden row {name}: got {got!r}, expected {want!r}")


if __name__ == "__main__":
    script, failed = sys.argv[1], []
    for name in [name for name, row in TABLE.items() if isinstance(row, Cli)]:
        try:
            check(name, script)
            print(f"ok   {name}", flush=True)
        except Exception:  # report every row, then fail
            failed.append(name)
            print(f"FAIL {name}", flush=True)
            traceback.print_exc()
    sys.exit(f"golden rows failed: {', '.join(failed)}" if failed else 0)
