import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

import tspmeta as tm
from tspmeta.cli import build_parser, main
from conftest import BUNDLED_SPEC, SRC, bundled_spec_doc, in_time, tsplib_text, write_spec
from golden import run_cli
from tspmeta.instance import MAX_EXACT_CITIES


# paths no file can have: a lone surrogate no byte stands for, a null byte
NO_FILE_CAN_HAVE = pytest.mark.parametrize("path", ["\ud800.out", "a\x00b.out"],
                                           ids=["lone-surrogate", "null-byte"])


def strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("time:"))


def error_output(capsys) -> str:
    """The command's error output, once checked that it starts "error:" and
    that nothing went to stdout."""
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    return captured.err


def refused_path(capsys, path: str) -> bool:
    """Whether the command's error output names path as one no file can have."""
    err = capsys.readouterr().err
    return err.startswith("error: no file can have the path") and repr(path) in err


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
        error_output(capsys)

    def test_path_with_a_null_byte_exits_2(self, capsys):
        assert main(["solve", "a\x00b.csv"]) == 2
        error_output(capsys)

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
        assert "internal error" not in error_output(capsys)

    def test_sa_schedule_of_too_many_levels_exits_2(self, capsys):
        flags = ["--algo", "sa", "--cooling", "0.9999999999999999", "--initial-temp", "2",
                 "--min-temp", "1"]
        assert in_time(main, ["solve", "--builtin-paper", *flags], seconds=2.0) == 2
        assert "temperature levels" in error_output(capsys)

    @pytest.mark.parametrize("iters", ["9223372036854775808", "1" + "0" * 29])
    def test_sa_levels_longer_than_islice_takes_exit_2(self, capsys, iters):
        # the cap is numpy's int64 division of proposal indices by
        # iters_per_temp, not islice, which the name is older than
        assert main(["solve", "--builtin-paper", "--algo", "sa", "--iters-per-temp", iters]) == 2
        assert error_output(capsys).startswith("error: iters_per_temp")

    def test_flag_of_another_solver_exits_2(self, capsys):
        assert main(["solve", "--builtin-paper", "--algo", "ga", "--particles", "3"]) == 2
        assert error_output(capsys).startswith("error: unknown ga parameter(s): ['n_particles']")

    @pytest.mark.parametrize("name", ["bad.csv", "bad.tsp"])
    def test_non_utf8_instance_exits_2(self, tmp_path, capsys, name):
        p = tmp_path / name
        p.write_bytes(b"0,0\n1,\xff\n")
        assert main(["solve", str(p)]) == 2
        assert "UTF-8" in error_output(capsys)

    def test_w_end_flag_matches_spec_w_end(self, tmp_path, capsys):
        # --w-end and a spec's "w_end" both turn on the decay, so they agree
        flags = ["--w", "0.9", "--w-end", "0.1", "--local-search", "none", "--iterations", "40"]
        assert main(["solve", "--builtin-paper", "--format", "json", *flags]) == 0
        solved = json.loads(capsys.readouterr().out)
        doc = bundled_spec_doc()
        doc["runs_per_algorithm"] = 1
        doc["algorithms"][0]["params"] = {"w": 0.9, "w_end": 0.1, "local_search": "none",
                                          "max_iter": 40}
        out_json = tmp_path / "report.json"
        assert main(["bench", str(write_spec(tmp_path, doc)), "--out-json", str(out_json)]) == 0
        (record,) = json.loads(out_json.read_text())["records"]
        assert (record["best_tour"], record["best_cost"], record["evaluations"]) == \
               (solved["best_tour"], solved["best_cost"], solved["evaluations"])


    def test_inertia_decaying_to_zero_exits_0(self, capsys):
        assert main(["solve", "--builtin-paper", "--w-end", "0", "--iterations", "4"]) == 0
        assert "best cost:" in capsys.readouterr().out


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

    def test_the_largest_instance_exits_0(self, tmp_path, capsys):
        p = tmp_path / "line.csv"
        p.write_text("\n".join(f"{i},0" for i in range(MAX_EXACT_CITIES)))
        assert main(["exact", str(p)]) == 0
        assert f"optimal cost: {2 * (MAX_EXACT_CITIES - 1)}.00000" in capsys.readouterr().out

    def test_oversized_instance_exits_2_naming_limit(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("\n".join(f"{i},0" for i in range(MAX_EXACT_CITIES + 1)))
        assert main(["exact", str(p)]) == 2
        assert capsys.readouterr().err == (f"error: exact solver is limited to {MAX_EXACT_CITIES} "
                                           f"cities, got {MAX_EXACT_CITIES + 1}\n")

    def test_help_names_the_limit(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
        assert f"Held-Karp dynamic programme (n <= {MAX_EXACT_CITIES})" in out


@pytest.mark.parametrize("command", [
    ["solve", "--algo", "pso"], ["solve", "--algo", "ga"], ["solve", "--algo", "sa"], ["exact"],
], ids=["pso", "ga", "sa", "exact"])
@pytest.mark.parametrize("name", ["far.csv", "far.tsp"])
def test_overflowing_distances_exit_2(tmp_path, capsys, command, name):
    # cities 1 and 2 are 2e200 apart, so their squared distance overflows
    coords = [(1e200, 0), (-1e200, 0), (0, 1), (3, 4)]
    p = tmp_path / name
    p.write_text(tsplib_text(coords, "far") if name.endswith(".tsp")
                 else "".join(f"{x},{y}\n" for x, y in coords))
    assert main([*command, str(p)]) == 2
    assert "overflows" in error_output(capsys)


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

    def test_prints_the_parse_warnings_solve_prints_once(self, tmp_path, capsys):
        text = tsplib_text([(0, 0), (1, 3), (4, 3), (6, 1), (3, 0)]).replace(
            "EDGE_WEIGHT_TYPE: EUC_2D\n", "FOO: 1\n")  # unknown keyword, no weight type
        instance = tmp_path / "t.tsp"
        instance.write_text(text)
        assert main(["solve", str(instance), "--algo", "sa"]) == 0
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 2 and all(line.startswith("warning: t.tsp:") for line in warned)
        spec = write_spec(tmp_path, {"instance": str(instance), "runs_per_algorithm": 2,
                                     "base_seed": 0, "algorithms": [{"name": "sa", "kind": "sa"}]})
        assert main(["bench", str(spec), "--threads", "2"]) == 0
        assert capsys.readouterr().err.splitlines() == warned

    def test_spec_without_algorithms_exits_2(self, tmp_path, capsys):
        bad = write_spec(tmp_path, {"instance": "builtin-paper", "runs_per_algorithm": 1,
                                    "base_seed": 0, "algorithms": []})
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
        doc = bundled_spec_doc()
        entry = doc["algorithms"][0]
        {"spec": doc, "entry": entry, "params": entry["params"]}[where][key] = value
        assert main(["bench", str(write_spec(tmp_path, doc))]) == 2
        error_output(capsys)

    @pytest.mark.parametrize("entry, problem", [
        ({"name": "sa", "kind": "sa", "parms": {"cooling": 0.5}}, "['parms']"),
        ({"name": "sa", "kind": "sa", "seed": 3}, "['seed']"),
        ("sa", "must be a JSON object"),
    ], ids=["misspelled-params", "entry-seed", "bare-string"])
    def test_bad_algorithm_entry_exits_2(self, tmp_path, capsys, entry, problem):
        spec = write_spec(tmp_path, {"instance": "builtin-paper", "runs_per_algorithm": 1,
                                     "base_seed": 0, "algorithms": [entry]})
        assert main(["bench", str(spec)]) == 2
        assert problem in error_output(capsys)

    @pytest.mark.parametrize("instance", ["\ud800.csv", "a\x00b.csv"],
                             ids=["lone-surrogate", "null-byte"])
    def test_instance_path_no_file_can_have_exits_2(self, tmp_path, capsys, instance):
        # both used to exit 1: UnicodeEncodeError, and ValueError: embedded null byte
        doc = bundled_spec_doc()
        doc["instance"] = instance
        assert main(["bench", str(write_spec(tmp_path, doc))]) == 2  # as \ud800 and \u0000
        assert repr(instance) in error_output(capsys)

    def test_algorithm_name_with_a_lone_surrogate_exits_2(self, tmp_path, capsys):
        # used to exit 1: the summary table could not print the name
        doc = bundled_spec_doc()
        doc["algorithms"][0]["name"] = "\ud800"
        assert main(["bench", str(write_spec(tmp_path, doc))]) == 2  # as \ud800
        assert "'\\ud800'" in error_output(capsys)

    @NO_FILE_CAN_HAVE
    def test_spec_path_no_file_can_have_exits_2(self, tmp_path, monkeypatch, capsys, path):
        # used to exit 1: load_experiment_spec caught only decode errors
        monkeypatch.chdir(tmp_path)
        assert main(["bench", path]) == 2
        assert refused_path(capsys, path)

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-json"])
    @NO_FILE_CAN_HAVE
    def test_output_path_no_file_can_have_exits_2(self, tmp_path, monkeypatch, capsys, flag,
                                                   path):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", str(BUNDLED_SPEC), flag, path]) == 2
        assert refused_path(capsys, path)
        assert list(tmp_path.iterdir()) == []

    def test_threads_env_var_is_ignored(self, monkeypatch, capsys):
        def no_pool(max_workers):
            raise AssertionError("bench without --threads started a pool")

        monkeypatch.setenv("TSPMETA_BENCH_THREADS", "abc")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert main(["bench", str(BUNDLED_SPEC)]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("to", ["csv", "tsplib"])
    def test_output_of_a_file_named_with_a_line_break_loads(self, tmp_path, capsys, to):
        # the name "a\nb" once spilled "b" onto a line of its own
        src = tmp_path / "a\nb.csv"
        try:
            src.write_text("0,0\n1,3\n4,3\n")
        except OSError:
            pytest.skip("the file system refuses a line break in a file name")
        out = tmp_path / f"out.{to}"
        assert main(["convert", str(src), "--to", to, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(out), "--algo", "sa"]) == 0
        assert capsys.readouterr().err == ""


    @NO_FILE_CAN_HAVE
    def test_output_path_no_file_can_have_exits_2(self, tmp_path, monkeypatch, capsys, path):
        monkeypatch.chdir(tmp_path)
        assert main(["convert", "--builtin-paper", "--to", "csv", "--out", path]) == 2
        assert refused_path(capsys, path)
        assert list(tmp_path.iterdir()) == []


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

    def test_cities_too_close_to_scale_are_plotted(self, tmp_path, capsys):
        src = tmp_path / "tiny.csv"
        src.write_text("0,0\n1e-320,0\n")
        out = tmp_path / "tiny.svg"
        assert main(["plot", str(src), "--tour", "1,2", "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

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

    @NO_FILE_CAN_HAVE
    def test_output_path_no_file_can_have_exits_2(self, tmp_path, monkeypatch, capsys, path):
        monkeypatch.chdir(tmp_path)
        assert main(["plot", "--builtin-paper", "--tour", "1,2,3,4,5", "--out", path]) == 2
        assert refused_path(capsys, path)
        assert list(tmp_path.iterdir()) == []

    def test_byte_stable_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (a, b):
            assert main(["plot", "--builtin-paper", "--tour", "2,1,3,5,4",
                         "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_name_xml_cannot_hold_is_captioned_with_a_replacement_character(self, tmp_path, capsys):
        src = tmp_path / "bad.tsp"
        src.write_text(tsplib_text([(0, 0), (3, 0), (3, 3), (0, 3)], name="bad\x01name"),
                       encoding="utf-8")
        out = tmp_path / "bad.svg"
        assert main(["plot", str(src), "--tour", "1,2,3,4", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        caption = root.findall("{http://www.w3.org/2000/svg}text")[-1].text
        assert caption == "bad\ufffdname: tour length 12.00000"


class TestSolveFlags:
    def test_one_flag_per_config_field(self):
        # the solver flags come from the config fields, all but seed
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        groups = sub.choices["solve"]._action_groups
        flags = [a for g in groups if g.title.endswith(" options") and g.title != "options"
                 for a in g._group_actions]
        expected = [f.name for config in (tm.SwarmConfig, tm.GaConfig, tm.SaConfig)
                    for f in fields(config) if f.name != "seed"]
        assert [a.dest for a in flags] == expected
        spelling = {"n_particles": "--particles", "max_iter": "--iterations"}
        for a in flags:
            assert a.option_strings == [spelling.get(a.dest, "--" + a.dest.replace("_", "-"))]
        local_search = next(a for a in flags if a.dest == "local_search")
        assert local_search.choices == [m.value for m in tm.LocalSearch]


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert main(["solve", "--builtin-paper", "--bogus"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestByteOrderMark:
    # editors on Windows often start a UTF-8 file with U+FEFF
    def test_csv_instance(self, tmp_path, capsys):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeff0,0\n3,4\n", encoding="utf-8")
        assert main(["exact", str(p)]) == 0
        assert "optimal cost: 10.00000" in capsys.readouterr().out

    def test_tsplib_instance_keeps_its_name(self, tmp_path, capsys):
        p = tmp_path / "bom.tsp"
        p.write_text("\ufeffNAME: square\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                     "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 3 4\n4 0 4\nEOF\n", encoding="utf-8")
        assert main(["exact", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("instance: square (n=4)") and captured.err == ""

    def test_bench_spec(self, tmp_path, capsys):
        doc = bundled_spec_doc()
        doc["runs_per_algorithm"] = 1
        p = tmp_path / "bom.json"
        p.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        assert main(["bench", str(p)]) == 0
        assert capsys.readouterr().err == ""


class TestFileNameNotUtf8:
    # Linux file names are bytes; os.fsdecode keeps the ones that are not
    # UTF-8 as lone surrogates, which no UTF-8 output can encode
    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / os.fsdecode(b"bad\xffname.csv")
        try:
            path.write_text("0,0\n3,0\n3,4\n", encoding="utf-8")
        except (OSError, UnicodeEncodeError):
            pytest.skip("this file system refuses file names that are not UTF-8")
        return str(path)

    def test_plot(self, src, tmp_path, capsys):
        out = tmp_path / "out.svg"
        assert main(["plot", src, "--tour", "1,2,3", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_bytes().decode("utf-8"))
        caption = root.findall("{http://www.w3.org/2000/svg}text")[-1].text
        assert caption == "bad\ufffdname: tour length 12.00000"

    def test_convert_to_tsplib(self, src, tmp_path, capsys):
        out = tmp_path / "out.tsp"
        assert main(["convert", src, "--to", "tsplib", "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8").startswith("NAME: bad\ufffdname\n")

    def test_solve_json(self, src, capsys):
        assert main(["solve", src, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["instance"] == "bad\ufffdname"

    def test_tsplib_file_without_a_name_is_named_after_it(self, src, tmp_path, capsys):
        # src only for its skip where such names are refused
        path = tmp_path / os.fsdecode(b"bad\xffname.tsp")
        path.write_text(tsplib_text([(0, 0), (3, 0), (3, 4)]).replace("NAME: t\n", ""),
                        encoding="utf-8")
        assert main(["solve", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["instance"] == "bad\ufffdname.tsp"


class TestImportFootprint:
    # these are loaded by xml.sax.saxutils and by concurrent.futures'
    # process pool, and no tspmeta run but a multi-worker bench needs them
    UNUSED = ("ssl", "socket", "http.client", "email", "urllib.request", "xml.sax",
              "multiprocessing", "concurrent.futures.process")

    def test_import_tspmeta_loads_no_network_xml_or_process_modules(self):
        code = ("import sys, numpy; before = set(sys.modules); import tspmeta; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin",
                                   "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "tspmeta" in added
        assert sorted(added.intersection(self.UNUSED)) == []


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        code, out = run_cli(["exact", "--builtin-paper"])
        assert code == 0 and "optimal cost: 15.15298" in out
