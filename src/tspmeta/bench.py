"""Deterministic multi-run experiment harness.

An experiment is a JSON spec: one instance, a list of named algorithm
configurations, and a run count. Trial (algorithm, i) always runs with
seed base_seed + i, so results never depend on execution order or on which
other algorithms are present. Output is CSV (records) and JSON (records +
summary), both byte-stable apart from wall-time fields.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .baselines import GaConfig, SaConfig, run_ga, run_sa
from .errors import ConfigError
from .instance import Instance, Tour, build_distance_matrix, tour_length
from .pso import LocalSearch, SwarmConfig, WSchedule, run as run_pso
from .tsplib import five_city_instance, load_instance_file

BUILTIN_INSTANCE_MARKER = "builtin-paper"
THREADS_ENV_VAR = "TSPMETA_BENCH_THREADS"

_ALGORITHM_KINDS = ("pso", "ga", "sa")


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
            if a.kind not in _ALGORITHM_KINDS:
                raise ConfigError(f"unknown algorithm kind {a.kind!r}")
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


_CONFIG_CLASSES = {"pso": SwarmConfig, "ga": GaConfig, "sa": SaConfig}
_RUNNERS = {"pso": run_pso, "ga": run_ga, "sa": run_sa}
_ENUM_FIELDS = {"local_search": LocalSearch, "w_schedule": WSchedule}


def build_algorithm_config(kind: str, params: dict) -> SwarmConfig | GaConfig | SaConfig:
    """Turn a spec-file params mapping into the right config dataclass.

    Unknown keys are rejected, and 'seed' is rejected too: trial seeds are
    derived from base_seed so specs stay order-independent.
    """
    cls = _CONFIG_CLASSES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown algorithm kind {kind!r} (expected one of {_ALGORITHM_KINDS})")
    if "seed" in params:
        raise ConfigError("per-algorithm 'seed' is not allowed; seeds derive from base_seed")
    allowed = {f.name for f in fields(cls)}
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown {kind} parameter(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in params.items():
        enum_cls = _ENUM_FIELDS.get(key)
        if enum_cls is not None and isinstance(value, str):
            try:
                value = enum_cls(value)
            except ValueError:
                choices = [e.value for e in enum_cls]
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}") from None
        kwargs[key] = value
    return cls(**kwargs)


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec from a JSON file. See README for the schema."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"experiment spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("experiment spec must be a JSON object")
    known = {"instance", "algorithms", "runs_per_algorithm", "base_seed", "reference_cost"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown experiment spec key(s): {sorted(unknown)}")
    try:
        instance_source = doc["instance"]
        algorithms_doc = doc["algorithms"]
        runs = int(doc["runs_per_algorithm"])
        base_seed = int(doc["base_seed"])
    except KeyError as exc:
        raise ConfigError(f"experiment spec is missing {exc.args[0]!r}") from None
    entries = []
    if not isinstance(algorithms_doc, list):
        raise ConfigError("'algorithms' must be a list")
    for item in algorithms_doc:
        if not isinstance(item, dict) or not {"name", "kind"} <= set(item):
            raise ConfigError("each algorithm needs 'name' and 'kind'")
        config = build_algorithm_config(item["kind"], item.get("params", {}))
        entries.append(AlgorithmEntry(item["name"], item["kind"], config))
    reference = doc.get("reference_cost")
    if reference is not None:
        try:
            reference = float(reference)
        except (TypeError, ValueError):
            raise ConfigError(f"reference_cost must be a number, got {reference!r}") from None
    return ExperimentSpec(
        instance_source=str(instance_source),
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


def _run_trial(instance: Instance, entry: AlgorithmEntry, seed: int, run_index: int) -> TrialRecord:
    config = replace(entry.config, seed=seed)
    result = _RUNNERS[entry.kind](instance, config)
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


def run_experiment(spec: ExperimentSpec, threads: int | None = None) -> list[TrialRecord]:
    """Run every trial and return records sorted by (algorithm, run_index).

    threads defaults to the TSPMETA_BENCH_THREADS environment variable
    (sequential when unset). Trials are seed-isolated, so the worker count
    never changes the records.
    """
    instance = resolve_instance(spec.instance_source)
    if threads is None:
        threads = int(os.environ.get(THREADS_ENV_VAR, "1") or "1")
    jobs = [(entry, spec.base_seed + i, i)
            for entry in spec.algorithms for i in range(spec.runs_per_algorithm)]

    records: list[TrialRecord]
    if threads > 1:
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_run_trial, instance, e, s, i) for e, s, i in jobs]
                records = [f.result() for f in futures]
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc}); running trials sequentially")
            records = [_run_trial(instance, e, s, i) for e, s, i in jobs]
    else:
        records = [_run_trial(instance, e, s, i) for e, s, i in jobs]

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
    """Records and summary as one JSON document with fixed key order."""
    doc = {
        "records": [
            {
                "algorithm": r.algorithm,
                "run_index": r.run_index,
                "seed": r.seed,
                "best_cost": r.best_cost,
                "best_tour": list(r.best_tour),
                "iterations": r.iterations,
                "evaluations": r.evaluations,
                "wall_time_s": r.wall_time,
            }
            for r in records
        ],
        "summary": [
            {
                "algorithm": s.algorithm,
                "mean": s.mean,
                "sample_std": s.sample_std,
                "best": s.best,
                "worst": s.worst,
                "gap_percent": s.gap_percent,
            }
            for s in stats
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
