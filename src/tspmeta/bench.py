"""Deterministic multi-run experiment harness.

An experiment is a JSON spec: one instance, a list of named algorithm
configurations, and a run count. Trial (algorithm, i) always runs with
seed base_seed + i, so results never depend on execution order or on which
other algorithms are present. Output is CSV (records) and JSON (records +
summary), both byte-stable apart from wall-time fields.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .baselines import GaConfig, SaConfig, run_ga, run_sa
from .errors import ConfigError
from .instance import Instance, RunResult, Tour, build_distance_matrix, tour_length
from .pso import SwarmConfig, run as run_pso
from .tsplib import five_city_instance, load_instance_file

BUILTIN_INSTANCE_MARKER = "builtin-paper"
THREADS_ENV_VAR = "TSPMETA_BENCH_THREADS"


class Solver(NamedTuple):
    config_class: type
    run: Callable[[Instance, typing.Any], RunResult]


# The one place that maps an algorithm kind to its config and its runner;
# the CLI's `solve --algo` choices come from here too.
SOLVERS = {
    "pso": Solver(SwarmConfig, run_pso),
    "ga": Solver(GaConfig, run_ga),
    "sa": Solver(SaConfig, run_sa),
}


@dataclass(frozen=True)
class AlgorithmEntry:
    name: str
    kind: str  # pso | ga | sa
    config: SwarmConfig | GaConfig | SaConfig


@dataclass(frozen=True)
class ExperimentSpec:
    instance_source: str  # path, or BUILTIN_INSTANCE_MARKER
    algorithms: tuple[AlgorithmEntry, ...]
    runs_per_algorithm: int
    base_seed: int
    reference_cost: float | None = None

    def __post_init__(self):
        if self.runs_per_algorithm < 1:
            raise ConfigError("runs_per_algorithm must be >= 1")
        if not self.algorithms:
            raise ConfigError("an experiment needs at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigError(f"algorithm names must be unique, got {names}")
        for a in self.algorithms:
            # names are written unquoted into CSV rows, one record per line
            if not isinstance(a.name, str) or a.name.splitlines() != [a.name] \
                    or "," in a.name or '"' in a.name:
                raise ConfigError("algorithm names must be non-empty text without ',', "
                                  f"'\"' or line breaks, got {a.name!r}")
            if a.kind not in SOLVERS:
                raise ConfigError(f"unknown algorithm kind {a.kind!r}")
            if not isinstance(a.config, SOLVERS[a.kind].config_class):
                raise ConfigError(f"algorithm {a.name!r} of kind {a.kind!r} has a "
                                  f"{type(a.config).__name__}")
        if self.reference_cost is not None and not (
                math.isfinite(self.reference_cost) and self.reference_cost > 0):
            raise ConfigError(f"reference_cost must be finite and > 0, got {self.reference_cost!r}")


@dataclass(frozen=True)
class TrialRecord:
    algorithm: str
    run_index: int
    seed: int
    best_cost: float
    best_tour: Tour
    iterations: int
    evaluations: int
    wall_time: float


@dataclass(frozen=True)
class SummaryStats:
    algorithm: str
    mean: float
    sample_std: float
    best: float
    worst: float
    gap_percent: float | None


def _describe(t: type) -> str:
    if t is int:
        return "an integer"
    if t is float:
        return "a number"
    if t is str:
        return "a string"
    if issubclass(t, Enum):
        return f"one of {[e.value for e in t]}"
    return "null"


def _check_type(key: str, value, hint):
    """value as the type hint (int, float, str, an Enum, or X | None) asks for.

    An int takes an int but not a bool; a str takes only a str; a float
    takes an int or a float (returned as a float) but not a bool; an Enum
    takes a member or its value; None passes only where the hint allows it.
    Anything else raises ConfigError naming the key and the expected type.
    Ranges are left to the dataclasses that use the value.
    """
    options = typing.get_args(hint) or (hint,)
    for t in options:
        if value is None and t is type(None):
            return None
        if isinstance(value, bool):
            continue
        if t in (int, str) and isinstance(value, t):
            return value
        if t is float and isinstance(value, (int, float)):
            with contextlib.suppress(OverflowError):  # an int too large for a float
                return float(value)
        if issubclass(t, Enum) and isinstance(value, (t, str)):
            with contextlib.suppress(ValueError):
                return t(value)
    expected = " or ".join(_describe(t) for t in options)
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def build_algorithm_config(kind: str, params: dict) -> SwarmConfig | GaConfig | SaConfig:
    """Turn a params mapping (a spec's, or the solve flags given) into the
    config dataclass of that kind, checking each value with _check_type.

    Unknown keys are rejected, and 'seed' is rejected too: trial seeds are
    derived from base_seed so specs stay order-independent.
    """
    solver = SOLVERS.get(kind) if isinstance(kind, str) else None
    if solver is None:
        raise ConfigError(f"unknown algorithm kind {kind!r} (expected one of {tuple(SOLVERS)})")
    if not isinstance(params, dict):
        raise ConfigError(f"{kind} params must be an object, got {params!r}")
    if "seed" in params:
        raise ConfigError("per-algorithm 'seed' is not allowed; seeds derive from base_seed")
    hints = typing.get_type_hints(solver.config_class)
    unknown = set(params) - {f.name for f in fields(solver.config_class)}
    if unknown:
        raise ConfigError(f"unknown {kind} parameter(s): {sorted(unknown)}")
    return solver.config_class(**{key: _check_type(key, value, hints[key])
                                  for key, value in params.items()})


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec from a JSON file. See README for the schema."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"experiment spec is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"experiment spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("experiment spec must be a JSON object")
    known = {"instance", "algorithms", "runs_per_algorithm", "base_seed", "reference_cost"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown experiment spec key(s): {sorted(unknown)}")
    try:
        instance_source = _check_type("instance", doc["instance"], str)
        algorithms_doc = doc["algorithms"]
        runs = _check_type("runs_per_algorithm", doc["runs_per_algorithm"], int)
        base_seed = _check_type("base_seed", doc["base_seed"], int)
    except KeyError as exc:
        raise ConfigError(f"experiment spec is missing {exc.args[0]!r}") from None
    reference = _check_type("reference_cost", doc.get("reference_cost"), float | None)
    entries = []
    if not isinstance(algorithms_doc, list):
        raise ConfigError("'algorithms' must be a list")
    for item in algorithms_doc:
        if not isinstance(item, dict) or not {"name", "kind"} <= set(item):
            raise ConfigError("each algorithm needs 'name' and 'kind'")
        config = build_algorithm_config(item["kind"], item.get("params", {}))
        entries.append(AlgorithmEntry(item["name"], item["kind"], config))
    return ExperimentSpec(
        instance_source=instance_source,
        algorithms=tuple(entries),
        runs_per_algorithm=runs,
        base_seed=base_seed,
        reference_cost=reference,
    )


def resolve_instance(source: str) -> Instance:
    if source == BUILTIN_INSTANCE_MARKER:
        return five_city_instance()
    instance, _ = load_instance_file(source)
    return instance


def run_trial(instance: Instance, entry: AlgorithmEntry, seed: int, run_index: int) -> TrialRecord:
    """One solver call: entry's config with this seed, as a record. Every
    solver run of `solve`, `bench` and `plot --solve-first` goes through here."""
    result = SOLVERS[entry.kind].run(instance, replace(entry.config, seed=seed))
    return TrialRecord(
        algorithm=entry.name,
        run_index=run_index,
        seed=seed,
        best_cost=result.best_cost,
        best_tour=result.best_tour,
        iterations=result.iterations_run,
        evaluations=result.evaluations,
        wall_time=result.wall_time,
    )


def record_fields(record: TrialRecord) -> dict:
    """A record's JSON fields in TrialRecord's order, wall_time as wall_time_s."""
    doc = asdict(record)
    doc["wall_time_s"] = doc.pop("wall_time")
    return doc


def run_experiment(spec: ExperimentSpec, threads: int | None = None) -> list[TrialRecord]:
    """Run every trial and return records sorted by (algorithm, run_index).

    threads defaults to the TSPMETA_BENCH_THREADS environment variable
    (sequential when unset), and the pool never exceeds the number of jobs
    or of CPUs. Trials are seed-isolated, so the worker count never changes
    the records.
    """
    instance = resolve_instance(spec.instance_source)
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR) or "1"
        with contextlib.suppress(json.JSONDecodeError):
            raw = json.loads(raw)  # read like a spec value: "2" is 2, "2.5" and "abc" fail
        threads = _check_type(THREADS_ENV_VAR, raw, int)
    if threads < 1:
        raise ConfigError(f"the worker count must be >= 1, got {threads}")
    jobs = [(entry, spec.base_seed + i, i)
            for entry in spec.algorithms for i in range(spec.runs_per_algorithm)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)

    records = None
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_trial, instance, e, s, i) for e, s, i in jobs]
                records = [f.result() for f in futures]
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc}); running trials sequentially")
    if records is None:
        records = [run_trial(instance, e, s, i) for e, s, i in jobs]

    records.sort(key=lambda r: (r.algorithm, r.run_index))

    m = build_distance_matrix(instance)
    for r in records:
        if tour_length(r.best_tour, m) != r.best_cost:
            raise RuntimeError(
                f"consistency audit failed for {r.algorithm} run {r.run_index}: "
                f"stored cost {r.best_cost!r} does not match its tour")
    return records


def summarize(records: list[TrialRecord], reference: float | None = None) -> list[SummaryStats]:
    """Per-algorithm mean, sample standard deviation (n-1; zero for a single
    run), best, worst, and optional best-vs-reference gap. Output is sorted
    by algorithm name and independent of record order."""
    if not records:
        raise ValueError("no records to summarize")
    by_algorithm: dict[str, list[float]] = {}
    for r in records:
        by_algorithm.setdefault(r.algorithm, []).append(r.best_cost)
    out = []
    for name in sorted(by_algorithm):
        costs = by_algorithm[name]
        best = min(costs)
        gap = None
        if reference is not None:
            gap = 100.0 * (best - reference) / reference
        out.append(SummaryStats(
            algorithm=name,
            mean=statistics.mean(costs),
            sample_std=statistics.stdev(costs) if len(costs) > 1 else 0.0,
            best=best,
            worst=max(costs),
            gap_percent=gap,
        ))
    return out


def emit_csv(records: list[TrialRecord]) -> str:
    """Trial records as CSV: fixed header, '.' decimals, LF endings, costs
    at five decimal places."""
    lines = ["algorithm,run_index,seed,best_cost,iterations,evaluations,wall_time_s"]
    for r in records:
        lines.append(f"{r.algorithm},{r.run_index},{r.seed},{r.best_cost:.5f},"
                     f"{r.iterations},{r.evaluations},{r.wall_time:.6f}")
    return "\n".join(lines) + "\n"


def emit_json(records: list[TrialRecord], stats: list[SummaryStats]) -> str:
    """Records (see record_fields) and summary as one JSON document; keys
    follow the dataclasses' field order."""
    doc = {"records": [record_fields(r) for r in records],
           "summary": [asdict(s) for s in stats]}
    return json.dumps(doc, indent=2) + "\n"
