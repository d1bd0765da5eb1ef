import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import tspmeta as tm
from tspmeta.cli import main

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"
BUNDLED_SPEC = SPECS_DIR / "five_city_repro.json"


def strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("time:"))


class TestSolve:
    def test_builtin_pso_text(self, capsys):
        assert main(["solve", "--builtin-paper", "--algo", "pso", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "best cost: 15.15298" in out
        assert "best tour: 1 -> 2 -> 3 -> 4 -> 5 -> 1" in out
        assert "iterations:" in out and "evaluations:" in out

    def test_builtin_pso_json(self, capsys):
        assert main(["solve", "--builtin-paper", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_cost"] == pytest.approx(15.15298244508295, abs=1e-9)
        assert doc["best_tour"] == [0, 1, 2, 3, 4]
        assert doc["algorithm"] == "pso"

    @pytest.mark.parametrize("algo", ["pso", "ga", "sa"])
    def test_json_keys(self, capsys, algo):
        # instance and n, then one bench JSON record without run_index
        assert main(["solve", "--builtin-paper", "--algo", algo, "--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "instance", "n", "algorithm", "seed", "best_cost", "best_tour",
            "iterations", "evaluations", "wall_time_s"]

    @pytest.mark.parametrize("algo", ["ga", "sa"])
    def test_other_algorithms(self, capsys, algo):
        assert main(["solve", "--builtin-paper", "--algo", algo, "--seed", "1"]) == 0
        assert "best cost: 15.15298" in capsys.readouterr().out

    def test_missing_file_exits_2_with_no_partial_output(self, capsys):
        assert main(["solve", "--algo", "pso", "missing.tsp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err.lower()

    def test_no_instance_exits_2(self, capsys):
        assert main(["solve", "--algo", "pso"]) == 2

    def test_both_instance_sources_exit_2(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("0,0\n1,1\n")
        assert main(["solve", str(p), "--builtin-paper"]) == 2

    def test_deterministic_reports(self, capsys):
        assert main(["solve", "--builtin-paper", "--seed", "3"]) == 0
        first = strip_timing(capsys.readouterr().out)
        assert main(["solve", "--builtin-paper", "--seed", "3"]) == 0
        second = strip_timing(capsys.readouterr().out)
        assert first == second

    def test_csv_instance_file(self, tmp_path, capsys):
        p = tmp_path / "square.csv"
        p.write_text("0,0\n1,0\n1,1\n0,1\n")
        assert main(["solve", str(p), "--algo", "pso", "--seed", "0"]) == 0
        assert "best cost: 4.00000" in capsys.readouterr().out

    def test_bad_config_exits_2(self, capsys):
        assert main(["solve", "--builtin-paper", "--w", "3.0"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--c1", "inf"], ["--c2", "nan"],
        ["--algo", "sa", "--min-temp", "inf"], ["--algo", "sa", "--initial-temp", "inf"],
    ])
    def test_non_finite_config_exits_2(self, capsys, flags):
        assert main(["solve", "--builtin-paper", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "internal error" not in captured.err

    def test_flag_of_another_solver_exits_2(self, capsys):
        assert main(["solve", "--builtin-paper", "--algo", "ga", "--particles", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown ga parameter(s): ['n_particles']")

    @pytest.mark.parametrize("name", ["bad.csv", "bad.tsp"])
    def test_non_utf8_instance_exits_2(self, tmp_path, capsys, name):
        p = tmp_path / name
        p.write_bytes(b"0,0\n1,\xff\n")
        assert main(["solve", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "UTF-8" in captured.err

    def test_w_end_flag_matches_spec_w_end(self, tmp_path, capsys):
        # --w-end and a spec's "w_end" both turn on the decay, so they agree
        flags = ["--w", "0.9", "--w-end", "0.1", "--local-search", "none", "--iterations", "40"]
        assert main(["solve", "--builtin-paper", "--format", "json", *flags]) == 0
        solved = json.loads(capsys.readouterr().out)
        doc = json.loads(BUNDLED_SPEC.read_text())
        doc["runs_per_algorithm"] = 1
        doc["algorithms"][0]["params"] = {"w": 0.9, "w_end": 0.1, "local_search": "none",
                                          "max_iter": 40}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out_json = tmp_path / "report.json"
        assert main(["bench", str(spec), "--out-json", str(out_json)]) == 0
        (record,) = json.loads(out_json.read_text())["records"]
        assert (record["best_tour"], record["best_cost"], record["evaluations"]) == \
               (solved["best_tour"], solved["best_cost"], solved["evaluations"])


class TestExact:
    def test_builtin(self, capsys):
        assert main(["exact", "--builtin-paper"]) == 0
        out = capsys.readouterr().out
        assert "optimal cost: 15.15298" in out
        assert "optimal tour: 1 -> 2 -> 3 -> 4 -> 5 -> 1" in out

    def test_two_city_instance(self, tmp_path, capsys):
        p = tmp_path / "pair.csv"
        p.write_text("0,0\n3,4\n")
        assert main(["exact", str(p)]) == 0
        assert "optimal cost: 10.00000" in capsys.readouterr().out

    def test_oversized_instance_exits_2_naming_limit(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("\n".join(f"{i},0" for i in range(13)))
        assert main(["exact", str(p)]) == 2
        assert "12" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "--algo", "pso"], ["solve", "--algo", "ga"], ["solve", "--algo", "sa"], ["exact"],
], ids=["pso", "ga", "sa", "exact"])
@pytest.mark.parametrize("name", ["far.csv", "far.tsp"])
def test_overflowing_distances_exit_2(tmp_path, capsys, command, name):
    # cities 1 and 2 are 2e200 apart, so their squared distance overflows
    coords = [(1e200, 0), (-1e200, 0), (0, 1), (3, 4)]
    p = tmp_path / name
    p.write_text(tm.write_tsplib(tm.Instance.from_coords("far", coords)) if name.endswith(".tsp")
                 else "".join(f"{x},{y}\n" for x, y in coords))
    assert main([*command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "overflows" in captured.err


class TestBench:
    def test_bundled_spec(self, tmp_path, capsys):
        out_csv = tmp_path / "records.csv"
        out_json = tmp_path / "report.json"
        assert main(["bench", str(BUNDLED_SPEC),
                     "--out-csv", str(out_csv), "--out-json", str(out_json)]) == 0
        stdout = capsys.readouterr().out
        assert "algorithm" in stdout and "pso" in stdout
        csv_lines = out_csv.read_text().splitlines()
        assert len(csv_lines) == 6  # header + 5 pso rows
        assert all(line.startswith("pso,") for line in csv_lines[1:])
        doc = json.loads(out_json.read_text())
        assert len(doc["records"]) == 5
        assert doc["summary"][0]["gap_percent"] == pytest.approx(0.0, abs=1e-6)

    def test_rerun_identical_apart_from_wall_time(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"{tag}.csv"
            assert main(["bench", str(BUNDLED_SPEC), "--out-csv", str(out_csv)]) == 0
            paths.append(out_csv)

        def strip_wall(p):
            return [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]

        assert strip_wall(paths[0]) == strip_wall(paths[1])

    def test_spec_without_algorithms_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({
            "instance": "builtin-paper", "runs_per_algorithm": 1,
            "base_seed": 0, "algorithms": []}))
        assert main(["bench", str(bad)]) == 2

    def test_missing_spec_exits_2(self):
        assert main(["bench", "nope.json"]) == 2

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_bytes(b'{"instance": "\xff"}')
        assert main(["bench", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("where, key, value", [
        ("spec", "runs_per_algorithm", "x"), ("spec", "base_seed", 1.7),
        ("params", "n_particles", "30"), ("params", "local_search", 3), ("entry", "name", "a,b"),
    ])
    def test_mistyped_spec_exits_2(self, tmp_path, capsys, where, key, value):
        doc = json.loads(BUNDLED_SPEC.read_text())
        entry = doc["algorithms"][0]
        {"spec": doc, "entry": entry, "params": entry["params"]}[where][key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["bench", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_bad_threads_env_var_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TSPMETA_BENCH_THREADS", "abc")
        assert main(["bench", str(BUNDLED_SPEC)]) == 2
        assert capsys.readouterr().err.startswith("error: TSPMETA_BENCH_THREADS must be an integer")

    def test_unwritable_output_exits_2(self, tmp_path):
        assert main(["bench", str(BUNDLED_SPEC),
                     "--out-csv", str(tmp_path / "no" / "dir" / "x.csv")]) == 2


class TestConvert:
    def test_builtin_to_csv_stdout(self, capsys):
        assert main(["convert", "--builtin-paper", "--to", "csv"]) == 0
        out = capsys.readouterr().out
        parsed, _ = tm.parse_coords_csv(out)
        assert parsed.n == 5

    def test_builtin_to_tsplib_file(self, tmp_path, capsys):
        out = tmp_path / "five.tsp"
        assert main(["convert", "--builtin-paper", "--to", "tsplib",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "rounded" in captured.err  # exact -> EUC_2D warning
        parsed, _ = tm.parse_tsplib(out.read_text())
        assert parsed.n == 5
        assert parsed.metric is tm.Metric.EUCLIDEAN_ROUNDED

    def test_tsplib_to_csv_round_trip(self, tmp_path, capsys):
        src = tmp_path / "x.tsp"
        src.write_text(tm.write_tsplib(tm.Instance.from_coords(
            "x", [(0, 0), (5, 5), (9, 1)], tm.Metric.EUCLIDEAN_ROUNDED)))
        assert main(["convert", str(src), "--to", "csv"]) == 0
        parsed, _ = tm.parse_coords_csv(capsys.readouterr().out)
        assert [(c.x, c.y) for c in parsed.cities] == [(0.0, 0.0), (5.0, 5.0), (9.0, 1.0)]


class TestPlot:
    def test_explicit_tour(self, tmp_path, capsys):
        out = tmp_path / "tour.svg"
        assert main(["plot", "--builtin-paper", "--tour", "1,2,3,4,5",
                     "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 5
        assert len(root.findall(f"{ns}line")) == 5

    def test_solve_first(self, tmp_path, capsys):
        out = tmp_path / "solved.svg"
        assert main(["plot", "--builtin-paper", "--solve-first", "--seed", "0",
                     "--out", str(out)]) == 0
        assert "15.15298" in out.read_text()

    def test_solve_first_plots_the_tour_solve_returns(self, tmp_path, capsys):
        berlin52 = str(Path(tm.__file__).parent / "data" / "berlin52.tsp")
        assert main(["solve", berlin52, "--seed", "3", "--format", "json"]) == 0
        tour = json.loads(capsys.readouterr().out)["best_tour"]
        solved, given = tmp_path / "solved.svg", tmp_path / "given.svg"
        assert main(["plot", berlin52, "--solve-first", "--seed", "3", "--out", str(solved)]) == 0
        assert main(["plot", berlin52, "--tour", ",".join(str(c + 1) for c in tour),
                     "--out", str(given)]) == 0
        assert solved.read_bytes() == given.read_bytes()

    def test_single_city(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("4,2\n")
        out = tmp_path / "one.svg"
        assert main(["plot", str(src), "--tour", "1", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}circle")) == 1
        assert len(root.findall(f"{ns}line")) == 0

    def test_malformed_tour_exits_2(self, tmp_path, capsys):
        assert main(["plot", "--builtin-paper", "--tour", "1,2,bananas",
                     "--out", str(tmp_path / "x.svg")]) == 2

    def test_non_permutation_tour_exits_2(self, tmp_path, capsys):
        assert main(["plot", "--builtin-paper", "--tour", "1,1,2,3,4",
                     "--out", str(tmp_path / "x.svg")]) == 2

    def test_needs_exactly_one_tour_source(self, tmp_path, capsys):
        assert main(["plot", "--builtin-paper", "--out", str(tmp_path / "x.svg")]) == 2
        assert main(["plot", "--builtin-paper", "--tour", "1,2,3,4,5",
                     "--solve-first", "--out", str(tmp_path / "x.svg")]) == 2

    def test_byte_stable_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (a, b):
            assert main(["plot", "--builtin-paper", "--tour", "2,1,3,5,4",
                         "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "--builtin-paper", "--bogus"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "tspmeta", "exact", "--builtin-paper"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin:/usr/local/bin"})
        assert proc.returncode == 0
        assert "optimal cost: 15.15298" in proc.stdout
