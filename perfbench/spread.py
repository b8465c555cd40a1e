"""Repeat the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out S.json]
                                [--baseline EARLIER.json]

For each workload it prints the wall time per run.  For each metric it
prints the median of the runs, the distance between the first and third
quartiles as a share of the median (the spread), and the metric's bound
from BENCHMARK.json.  With ``--baseline`` it also
prints how far each median moved against an earlier summary, as a share of
the earlier median, worse-is-positive.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--baseline", help="an earlier --out summary to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    summary: dict = {}
    for workload in names:
        runs, walls = [], []
        for seed in args.seeds:
            start = time.perf_counter()
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                return 1
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            runs.append(result)
        summary[workload] = {"wall_s": walls}
        print(f"{workload:<16} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
            summary[workload][name] = row
            line = (f"{workload:<16} {name:<12} median {med:12.6g}  spread {row['spread']:7.2%}"
                    f"  bound {bound['bound']:.0%}")
            before = baseline.get(workload, {}).get(name)
            if before:
                change = (med - before["median"]) / before["median"]
                worse = change if bound["better"] == "lower" else -change
                line += f"  worse by {worse:+7.2%}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
