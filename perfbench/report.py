"""Runs perfbench/run.py with --trace 0 once per workload and seed, one run
at a time, and summarises every end-to-end metric: median, quartiles and
spread (the distance between the quartiles over the median), flagged
against the bound in BENCHMARK.json.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --seeds 1-10 --out perfbench/trajectory/BENCH_<rev>.json

Run it from the repository root. --out writes the summary, stamped with the
machine and git revision, as one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, environment

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"env": environment(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
                  file=sys.stderr)
        rows = summary["workloads"][workload] = {}
        for name, meta in declared.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": meta["unit"], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": values}
            bound = meta["bound"]
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3 bound")
            print(f"{workload:<14} {name:<40} {median:>14.6g} {meta['unit']:<6} "
                  f"spread {spread:7.2%}  bound {bound:.0%} {flag}")
    summary["correct"] = ok
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
