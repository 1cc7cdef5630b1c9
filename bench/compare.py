"""Compare two checkouts (parent and change) on one workload, alternating order.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload NAME [--pairs 10] [--trace 0]

Both directories are source checkouts with identical bench/*.py files and
BENCHMARK.json (a change that claims a gain may not edit the benchmark). Pair
i runs both sides on seed FIRST_SEED + i, the parent first in even pairs and
the change first in odd ones. For each metric the script prints both sides'
medians and quartiles and how many pairs the change won. With --trace 0 it
also gives a verdict per end-to-end metric:

  gain        at least 10 pairs ran, the change won at least nine tenths of them
              (ties count for neither), and the medians differ by more than
              the parent's quartile spread
  unresolved  the parent's own spread is wider than the bound, and not every
              run of the change reads better than every run of the parent
  regression  the change's median is worse than the parent's by more than the bound
  same        none of the above
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _digest(root):
    """Digest of the benchmark's code and settings."""
    h = hashlib.sha256()
    for path in [root / "BENCHMARK.json"] + sorted((root / "bench").glob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(root, spec, workload, seed, trace):
    cmd = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: seed {seed} failed its correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if _digest(parent) != _digest(change):
        raise SystemExit("the two checkouts run different benchmark code")
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    runs = {parent: [], change: []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ((parent, change) if i % 2 == 0 else (change, parent)):
            runs[side].append(_run(side, spec, args.workload, seed, args.trace))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)

    for name, m in metrics.items():
        a = [r[name] for r in runs[parent]]
        b = [r[name] for r in runs[change]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        line = (f"{name:32s} parent {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}  "
                f"change won {wins}/{args.pairs}")
        if "bound" in m:
            worse = sign * (qa[1] - qb[1]) / abs(qa[1])
            all_better = min(sign * y for y in b) > max(sign * x for x in a)
            if (args.pairs >= 10 and wins >= 0.9 * args.pairs
                    and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "gain"
            elif (qa[2] - qa[0]) / abs(qa[1]) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            else:
                verdict = "same"
            line += f"  {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
