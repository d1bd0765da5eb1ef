import concurrent.futures
import json
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

import tspmeta as tm
from tspmeta import bench
from tspmeta.bench import BUILTIN_INSTANCE_MARKER, build_algorithm_config
from tspmeta.pso import _inertia_now

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def bundled_spec_doc() -> dict:
    return json.loads((SPECS_DIR / "five_city_repro.json").read_text(encoding="utf-8"))


def write_spec(tmp_path, doc) -> Path:
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def small_pso_spec(runs=3, base_seed=0, reference=None):
    entry = tm.AlgorithmEntry(
        name="pso", config=tm.SwarmConfig(n_particles=10, max_iter=15))
    return tm.ExperimentSpec(
        instance_source=BUILTIN_INSTANCE_MARKER,
        algorithms=(entry,),
        runs_per_algorithm=runs,
        base_seed=base_seed,
        reference_cost=reference,
    )


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an in-process one; the list collects
    the max_workers of every pool the harness asks for."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


def make_record(algorithm, run_index, cost):
    return tm.TrialRecord(
        algorithm=algorithm, run_index=run_index, seed=run_index,
        best_cost=cost, best_tour=(0, 1, 2), iterations=1, evaluations=1,
        wall_time=0.5)


class TestRunExperiment:
    def test_records_sorted_and_seeded(self):
        records = tm.run_experiment(small_pso_spec(runs=3, base_seed=10))
        assert [(r.algorithm, r.run_index) for r in records] == \
               [("pso", 0), ("pso", 1), ("pso", 2)]
        assert [r.seed for r in records] == [10, 11, 12]

    def test_single_run(self):
        records = tm.run_experiment(small_pso_spec(runs=1, base_seed=4))
        assert len(records) == 1
        assert records[0].run_index == 0
        assert records[0].seed == 4

    def test_reruns_identical_except_wall_time(self):
        a = tm.run_experiment(small_pso_spec())
        b = tm.run_experiment(small_pso_spec())
        for ra, rb in zip(a, b):
            assert (ra.algorithm, ra.run_index, ra.seed, ra.best_cost,
                    ra.best_tour, ra.iterations, ra.evaluations) == \
                   (rb.algorithm, rb.run_index, rb.seed, rb.best_cost,
                    rb.best_tour, rb.iterations, rb.evaluations)

    def test_worker_count_does_not_change_records(self):
        seq = tm.run_experiment(small_pso_spec(), threads=1)
        par = tm.run_experiment(small_pso_spec(), threads=2)
        assert [(r.best_cost, r.best_tour) for r in seq] == \
               [(r.best_cost, r.best_tour) for r in par]

    def test_multi_algorithm_isolation(self):
        # adding a second algorithm must not disturb the first one's records
        pso = tm.AlgorithmEntry("pso", tm.SwarmConfig(n_particles=8, max_iter=10))
        sa = tm.AlgorithmEntry("sa", tm.SaConfig(iters_per_temp=20, min_temp=0.05))
        solo = tm.run_experiment(tm.ExperimentSpec(
            BUILTIN_INSTANCE_MARKER, (pso,), 2, 0))
        both = tm.run_experiment(tm.ExperimentSpec(
            BUILTIN_INSTANCE_MARKER, (pso, sa), 2, 0))
        assert [(r.best_cost, r.seed) for r in both if r.algorithm == "pso"] == \
               [(r.best_cost, r.seed) for r in solo]

    @pytest.mark.parametrize("threads, cpus, runs, expected", [
        (64, 4, 3, [3]),     # no more workers than jobs
        (64, 2, 5, [2]),     # no more workers than CPUs
        (3, 8, 5, [3]),      # the requested count when it is the smallest
        (64, None, 5, []),   # unknown CPU count: sequential, no pool
        (1, 8, 5, []),
    ])
    def test_pool_size_is_clamped(self, monkeypatch, pool_sizes, threads, cpus, runs, expected):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        records = tm.run_experiment(small_pso_spec(runs=runs), threads=threads)
        assert pool_sizes == expected
        assert [r.run_index for r in records] == list(range(runs))

    @pytest.mark.parametrize("threads", [0, -5])
    def test_worker_count_below_one(self, threads):
        with pytest.raises(tm.ConfigError, match="worker count"):
            tm.run_experiment(small_pso_spec(runs=1), threads=threads)

    def test_pool_oserror_falls_back_to_sequential(self, monkeypatch):
        def no_pool(max_workers):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        with pytest.warns(UserWarning, match="process pool unavailable"):
            fallback = tm.run_experiment(small_pso_spec(), threads=2)
        sequential = tm.run_experiment(small_pso_spec(), threads=1)
        assert [replace(r, wall_time=0.0) for r in fallback] == \
               [replace(r, wall_time=0.0) for r in sequential]

    def test_missing_instance_file_propagates(self):
        spec = tm.ExperimentSpec(
            "does-not-exist.csv",
            (tm.AlgorithmEntry("pso", tm.SwarmConfig()),), 1, 0)
        with pytest.raises(OSError):
            tm.run_experiment(spec)


class TestExperimentSpecValidation:
    def test_zero_algorithms(self):
        with pytest.raises(tm.ConfigError):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (), 1, 0)

    def test_zero_runs(self):
        entry = tm.AlgorithmEntry("pso", tm.SwarmConfig())
        with pytest.raises(tm.ConfigError):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (entry,), 0, 0)

    @pytest.mark.parametrize("runs, base_seed, reference", [
        (2.5, 0, None), (True, 0, None), (1, "0", None), (1, 0, "7542"), (1, 0, float("inf"))],
        ids=["runs-2.5", "runs-True", "base_seed-str", "reference-str", "reference-inf"])
    def test_mistyped_fields(self, runs, base_seed, reference):
        entry = tm.AlgorithmEntry("pso", tm.SwarmConfig())
        with pytest.raises(tm.ConfigError):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (entry,), runs, base_seed, reference)

    def test_instance_source_must_be_text(self):
        entry = tm.AlgorithmEntry("pso", tm.SwarmConfig())
        with pytest.raises(tm.ConfigError, match="instance_source"):
            tm.ExperimentSpec(Path("five.csv"), (entry,), 1, 0)

    def test_duplicate_names(self):
        entry = tm.AlgorithmEntry("x", tm.SwarmConfig())
        with pytest.raises(tm.ConfigError):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (entry, entry), 1, 0)

    @pytest.mark.parametrize("config", [{"n_particles": 8}, "pso", None], ids=["dict", "str", "None"])
    def test_config_must_be_a_solver_config(self, config):
        entry = tm.AlgorithmEntry("x", config)
        with pytest.raises(tm.ConfigError, match="not a solver config"):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (entry,), 1, 0)

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\r", "\u2028", "", 5, None,
                                      "\ud800", "a\udcffb", [], {"a": 1}])
    def test_bad_algorithm_name(self, name):
        # a list or a dict is no name, and no key of the uniqueness check
        entry = tm.AlgorithmEntry(name, tm.SwarmConfig())
        with pytest.raises(tm.ConfigError, match="algorithm names"):
            tm.ExperimentSpec(BUILTIN_INSTANCE_MARKER, (entry,), 1, 0)

    def test_comma_name_cannot_corrupt_the_csv(self, tmp_path):
        # "a,b" used to give the row "a,b,0,0,15.15298,..." under a seven-column header
        doc = bundled_spec_doc()
        doc["algorithms"][0]["name"] = "a,b"
        with pytest.raises(tm.ConfigError, match="algorithm names"):
            tm.load_experiment_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize("reference", [0, -1.0, float("inf"), float("nan"), "x", [1]])
    def test_bad_reference_cost(self, tmp_path, reference):
        spec = json.loads((SPECS_DIR / "five_city_repro.json").read_text(encoding="utf-8"))
        spec["reference_cost"] = reference
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        with pytest.raises(tm.ConfigError, match="reference_cost"):
            tm.load_experiment_spec(p)


class TestBuildAlgorithmConfig:
    def test_pso_with_enum_strings(self):
        cfg = build_algorithm_config("pso", {"n_particles": 5, "local_search": "none"})
        assert cfg.n_particles == 5
        assert cfg.local_search is tm.LocalSearch.NONE

    def test_unknown_parameter(self):
        with pytest.raises(tm.ConfigError, match="unknown pso parameter"):
            build_algorithm_config("pso", {"swarm_size": 5})

    def test_seed_rejected(self):
        with pytest.raises(tm.ConfigError, match="seed"):
            build_algorithm_config("ga", {"seed": 1})

    def test_unknown_kind(self):
        with pytest.raises(tm.ConfigError):
            build_algorithm_config("aco", {})

    def test_bad_enum_value(self):
        with pytest.raises(tm.ConfigError):
            build_algorithm_config("pso", {"local_search": "4-opt"})

    def test_typed_values(self):
        cfg = build_algorithm_config("pso", {"w": 1, "w_end": None,
                                             "local_search": tm.LocalSearch.NONE})
        assert cfg.w == 1.0 and type(cfg.w) is float
        assert cfg.w_end is None
        assert cfg.local_search is tm.LocalSearch.NONE
        cfg = build_algorithm_config("sa", {"initial_temp": 5, "iters_per_temp": None})
        assert cfg.initial_temp == 5.0 and type(cfg.initial_temp) is float

    def test_w_end_in_params_turns_on_decay(self):
        cfg = build_algorithm_config("pso", {"w_end": 0.1})
        assert _inertia_now(cfg, 0) == 0.8
        assert _inertia_now(cfg, cfg.max_iter - 1) == pytest.approx(0.1)

    @pytest.mark.parametrize("kind, params", [
        ("pso", {"w": 10 ** 400}),
        ("pso", {"w": None}),
        ("pso", {"c1": "2.0"}),
        ("ga", {"population": 50.0}),
        ("sa", {"iters_per_temp": False}),
        ("pso", 5),
        (["pso"], {}),
    ])
    def test_wrong_types(self, kind, params):
        with pytest.raises(tm.ConfigError):
            build_algorithm_config(kind, params)


class TestLoadExperimentSpec:
    def test_bundled_spec_loads(self):
        spec = tm.load_experiment_spec(SPECS_DIR / "five_city_repro.json")
        assert spec.instance_source == BUILTIN_INSTANCE_MARKER
        assert spec.runs_per_algorithm == 5
        assert spec.base_seed == 0
        assert len(spec.algorithms) == 1
        assert spec.algorithms[0].config.local_search is tm.LocalSearch.TWO_OPT_GBEST

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(tm.ConfigError):
            tm.load_experiment_spec(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"instance": "builtin-paper"}))
        with pytest.raises(tm.ConfigError):
            tm.load_experiment_spec(p)

    @pytest.mark.parametrize("key, value", [
        ("n_particles", "30"),
        ("max_iter", 2.0),
        ("n_particles", 3.5),
        ("local_search", 3),
        ("n_particles", True),
        ("runs_per_algorithm", "x"),
        ("base_seed", 1.7),
        ("instance", 5),
        ("instance", None),
    ])
    def test_mistyped_value(self, tmp_path, key, value):
        doc = bundled_spec_doc()
        if key in doc:
            doc[key] = value
        else:
            doc["algorithms"][0]["params"][key] = value
        with pytest.raises(tm.ConfigError, match=key):
            tm.load_experiment_spec(write_spec(tmp_path, doc))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_bytes(b'{"instance": "\xff"}')
        with pytest.raises(tm.ConfigError, match="UTF-8"):
            tm.load_experiment_spec(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "instance": "builtin-paper", "runs_per_algorithm": 1,
            "base_seed": 0, "algorithms": [], "extra": 1}))
        with pytest.raises(tm.ConfigError):
            tm.load_experiment_spec(p)


    # each once ignored: the first ran default SA, the second the base seed's
    @pytest.mark.parametrize("entry, problem", [
        ({"name": "sa", "kind": "sa", "parms": {"cooling": 0.5}},
         "unknown algorithm key(s): ['parms']"),
        ({"name": "sa", "kind": "sa", "seed": 3}, "unknown algorithm key(s): ['seed']"),
        ("sa", "algorithm entry must be a JSON object, got 'sa'"),
        ({"name": "sa"}, "algorithm entry is missing 'kind'"),
    ], ids=["misspelled-params", "entry-seed", "bare-string", "no-kind"])
    def test_bad_algorithm_entry(self, tmp_path, entry, problem):
        doc = {"instance": "builtin-paper", "runs_per_algorithm": 1, "base_seed": 0,
               "algorithms": [entry]}
        with pytest.raises(tm.ConfigError) as raised:
            tm.load_experiment_spec(write_spec(tmp_path, doc))
        assert str(raised.value) == problem


class TestSummarize:
    def test_reference_cost_vector_fixture(self):
        # pure arithmetic fixture over the costs {12.5, 13.0, 12.8, 12.3, 12.6}
        records = [make_record("x", i, c)
                   for i, c in enumerate([12.5, 13.0, 12.8, 12.3, 12.6])]
        (stats,) = tm.summarize(records)
        assert stats.mean == pytest.approx(12.64, abs=1e-12)
        assert stats.sample_std == pytest.approx(0.27018512172212583, abs=1e-12)
        assert stats.best == 12.3
        assert stats.worst == 13.0
        assert stats.gap_percent is None

    def test_single_record(self):
        (stats,) = tm.summarize([make_record("x", 0, 7.5)])
        assert stats.mean == stats.best == stats.worst == 7.5
        assert stats.sample_std == 0.0

    def test_gap_zero_when_reference_equals_best(self):
        (stats,) = tm.summarize([make_record("x", 0, 10.0)], reference=10.0)
        assert stats.gap_percent == 0.0

    def test_permutation_invariant(self):
        records = [make_record("b", i, c) for i, c in enumerate([3.0, 1.0, 2.0])]
        records += [make_record("a", i, c) for i, c in enumerate([5.0, 4.0])]
        forward = tm.summarize(records)
        backward = tm.summarize(records[::-1])
        assert forward == backward
        assert [s.algorithm for s in forward] == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tm.summarize([])


class TestEmitters:
    def test_csv_header_only_when_empty(self):
        assert tm.emit_csv([]) == \
            "algorithm,run_index,seed,best_cost,iterations,evaluations,wall_time_s\n"

    def test_csv_one_record(self):
        text = tm.emit_csv([make_record("pso", 0, 15.152982445)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "pso,0,0,15.15298,1,1,0.500000"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_json_round_trips(self):
        records = [make_record("pso", i, 10.0 + i) for i in range(2)]
        stats = tm.summarize(records, reference=10.0)
        doc = json.loads(tm.emit_json(records, stats))
        assert list(doc) == ["records", "summary"]
        assert list(doc["records"][0]) == [
            "algorithm", "run_index", "seed", "best_cost", "best_tour",
            "iterations", "evaluations", "wall_time_s"]
        assert list(doc["summary"][0]) == [
            "algorithm", "mean", "sample_std", "best", "worst", "gap_percent"]
        assert doc["records"][0]["best_cost"] == 10.0
        assert doc["summary"][0]["gap_percent"] == 0.0

    def test_emitters_byte_stable(self):
        records = [make_record("pso", 0, 12.3)]
        stats = tm.summarize(records)
        assert tm.emit_csv(records) == tm.emit_csv(records)
        assert tm.emit_json(records, stats) == tm.emit_json(records, stats)
