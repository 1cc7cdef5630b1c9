"""Run the benchmark on several seeds per workload and record the results.

    python3 bench/baseline.py [--seeds 101-110] [--workload NAME ...] [--out PATH]

For each workload: one untraced run per seed, then one traced run on the
first seed. Prints every end-to-end metric's median and its quartile spread
(the distance between the first and third quartile, as a share of the
median), which must stay well inside the metric's bound in BENCHMARK.json,
and writes all values, the machine facts of each run and the traced
per-layer figures to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(spec, workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.strip().splitlines()
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[len("facts "):])
    return facts, json.loads(lines[-1])


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run(spec, name, seed, 0) for seed in args.seeds]
        if not all(result["correct"] for _, result in runs):
            raise SystemExit(f"{name}: a run failed its correctness gate")
        end_to_end = {}
        print(f"{name}: {len(runs)} runs")
        for metric in spec["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for _, result in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            end_to_end[metric["name"]] = dict(metric, median=median, q1=q1, q3=q3,
                                              spread=spread, values=values)
            print(f"  {metric['name']:16s} median {median:12.6g} {metric['unit']:4s} "
                  f"spread {spread:6.3f} (bound {metric['bound']})")
        facts, traced = run(spec, name, args.seeds[0], 1)
        record["workloads"][name] = {
            "facts": [f for f, _ in runs],
            "end_to_end": end_to_end,
            "per_layer": {"seed": args.seeds[0], "facts": facts, "metrics": traced["metrics"]},
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
