"""Deterministic multi-run experiment harness.

An experiment is a JSON spec: one instance, a list of named algorithm
configurations, and a run count. Trial (algorithm, i) always runs with
seed base_seed + i, so results never depend on execution order or on which
other algorithms are present. Output is CSV (records) and JSON (records +
summary), both byte-stable apart from wall-time fields.
"""

from __future__ import annotations

import json
import os
import reprlib
import statistics
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .baselines import GaConfig, SaConfig, run_ga, run_sa
from .errors import ConfigError, _check_type
from .instance import Instance, RunResult, Tour, build_distance_matrix, tour_length
from .pso import SwarmConfig, run as run_pso
from .tsplib import five_city_instance, load_instance_file, open_text

BUILTIN_INSTANCE_MARKER = "builtin-paper"


class Solver(NamedTuple):
    config_class: type
    run: Callable[[Instance, Any], RunResult]


# The one place that maps an algorithm kind to its config and its runner;
# the CLI's `solve --algo` choices come from here too.
SOLVERS = {
    "pso": Solver(SwarmConfig, run_pso),
    "ga": Solver(GaConfig, run_ga),
    "sa": Solver(SaConfig, run_sa),
}
_RUN_BY_CONFIG = {s.config_class: s.run for s in SOLVERS.values()}


@dataclass(frozen=True)
class AlgorithmEntry:
    name: str
    config: SwarmConfig | GaConfig | SaConfig  # its class picks the solver


@dataclass(frozen=True)
class ExperimentSpec:
    instance_source: str  # path, or BUILTIN_INSTANCE_MARKER
    algorithms: tuple[AlgorithmEntry, ...]
    runs_per_algorithm: int
    base_seed: int
    reference_cost: float | None = None

    def __post_init__(self):
        for name, hint in (("instance_source", str), ("runs_per_algorithm", int),
                           ("base_seed", int), ("reference_cost", float | None)):
            object.__setattr__(self, name, _check_type(name, getattr(self, name), hint))
        if self.runs_per_algorithm < 1:
            raise ConfigError("runs_per_algorithm must be >= 1")
        if not self.algorithms:
            raise ConfigError("an experiment needs at least one algorithm")
        for a in self.algorithms:
            # names are written unquoted into CSV rows, one record per line,
            # and printed: a lone surrogate has no UTF-8 encoding
            if not isinstance(a.name, str) or a.name.splitlines() != [a.name] \
                    or "," in a.name or '"' in a.name \
                    or any("\ud800" <= c <= "\udfff" for c in a.name):
                raise ConfigError("algorithm names must be non-empty text without ',', "
                                  f"'\"', line breaks or lone surrogates, got {a.name!r}")
            if type(a.config) not in _RUN_BY_CONFIG:
                raise ConfigError(f"algorithm {a.name!r} has a {type(a.config).__name__}, "
                                  "not a solver config")
        names = [a.name for a in self.algorithms]  # text by now, so hashable
        if len(set(names)) != len(names):
            raise ConfigError(f"algorithm names must be unique, got {names}")
        if self.reference_cost is not None and self.reference_cost <= 0:
            raise ConfigError(f"reference_cost must be > 0, got {self.reference_cost!r}")


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


def _check_keys(doc, what: str, keys: str, required=(), optional=()) -> None:
    """Raise ConfigError unless doc, a spec mapping, is a JSON object with
    every required key and no key but those and the optional ones."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(doc)}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {keys}(s): {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{what} is missing {missing[0]!r}")


def build_algorithm_config(kind: str, params: dict) -> SwarmConfig | GaConfig | SaConfig:
    """Turn a params mapping (a spec's, or the solve flags given) into the
    config dataclass of that kind, which checks each value's type itself.

    Unknown keys are rejected, and 'seed' is rejected too: trial seeds are
    derived from base_seed so specs stay order-independent.
    """
    solver = SOLVERS.get(kind) if isinstance(kind, str) else None
    if solver is None:
        raise ConfigError(f"unknown algorithm kind {kind!r} (expected one of {tuple(SOLVERS)})")
    if isinstance(params, dict) and "seed" in params:
        raise ConfigError("per-algorithm 'seed' is not allowed; seeds derive from base_seed")
    _check_keys(params, f"{kind} params", f"{kind} parameter",
                optional=[f.name for f in fields(solver.config_class)])
    return solver.config_class(**params)


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec from a JSON file. See README for the schema."""
    with open_text(path) as file:
        try:
            doc = json.load(file)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"experiment spec is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"experiment spec is not valid JSON: {exc}") from None
    _check_keys(doc, "experiment spec", "experiment spec key",
                ("algorithms", "base_seed", "instance", "runs_per_algorithm"), ("reference_cost",))
    if not isinstance(doc["algorithms"], list):
        raise ConfigError("'algorithms' must be a list")
    entries = []
    for item in doc["algorithms"]:
        _check_keys(item, "algorithm entry", "algorithm key", ("kind", "name"), ("params",))
        config = build_algorithm_config(item["kind"], item.get("params", {}))
        entries.append(AlgorithmEntry(item["name"], config))
    return ExperimentSpec(
        instance_source=doc["instance"],
        algorithms=tuple(entries),
        runs_per_algorithm=doc["runs_per_algorithm"],
        base_seed=doc["base_seed"],
        reference_cost=doc.get("reference_cost"),
    )


def load_instance_reporting(path: str) -> Instance:
    """load_instance_file's instance, with each parse warning printed to
    stderr as `warning: file:line: message`. `solve` and `bench` load
    instance files through here."""
    instance, warnings = load_instance_file(path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return instance


def resolve_instance(source: str) -> Instance:
    if source == BUILTIN_INSTANCE_MARKER:
        return five_city_instance()
    return load_instance_reporting(source)


def run_trial(instance: Instance, entry: AlgorithmEntry, seed: int, run_index: int) -> TrialRecord:
    """One solver call: entry's config with this seed, as a record. Every
    solver run of `solve`, `bench` and `plot --solve-first` goes through here."""
    result = _RUN_BY_CONFIG[type(entry.config)](instance, replace(entry.config, seed=seed))
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


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> list[TrialRecord]:
    """Run every trial and return records sorted by (algorithm, run_index).

    The pool never exceeds the number of jobs or of CPUs. Trials are
    seed-isolated, so the worker count never changes the records.
    """
    instance = resolve_instance(spec.instance_source)
    if threads < 1:
        raise ConfigError(f"the worker count must be >= 1, got {threads}")
    jobs = [(entry, spec.base_seed + i, i)
            for entry in spec.algorithms for i in range(spec.runs_per_algorithm)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)

    records = None
    if workers > 1:
        # imported here, as it loads multiprocessing and socket, which a
        # sequential run never needs
        from concurrent.futures import ProcessPoolExecutor
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
