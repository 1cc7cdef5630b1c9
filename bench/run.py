"""hndeploy benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each repeat of the workload is a fresh `hndeploy` process (through
bench/child.py), run one at a time. Repeats go on while the next one is
expected to end within --seconds; each metric is the median over the
repeats of the run.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced repeats in turn and prints the per-layer metrics, the
tracing overhead among them. Every repeat's outputs go through the
correctness gate. The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"

# Per-side error of the analytic-vs-Monte-Carlo gate, the normal tail beyond
# 5 sigma: a correct row fails with chance 5.7e-7, over a few thousand rows.
GATE_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
SETUP_PROBES = 16          # extra processes per run that stop at the end of set-up
REPEAT_TIMEOUT_S = 150     # one workload process; the whole run must end within 180 s
LAYERS = ("process", "cli", "config", "montecarlo", "distributions", "rng",
          "geometry", "analytic", "numerics")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "rows_per_s": "1/s",
             "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "config.load_ms": "ms", "cli.csv_write_ms": "ms",
    "montecarlo.estimate_s": "s", "montecarlo.sensors_per_trial": "count",
    "montecarlo.worker_busy_frac": "fraction",
    "distributions.sample_s": "s", "distributions.sensors_per_s": "1/s",
    "distributions.accept_ratio": "fraction", "distributions.max_call_sensors": "count",
    "rng.draw_s": "s", "rng.values": "count", "rng.values_per_s": "1/s",
    "rng.values_per_sensor": "count",
    "geometry.detect_s": "s", "geometry.sensors_checked": "count",
    "analytic.report_s": "s", "analytic.calls": "count", "analytic.ms_per_call": "ms",
    "numerics.integrate_calls": "count", "analytic.density_evals": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{f"{layer}.wall_share": "%" for layer in LAYERS},
}


# -- workloads --------------------------------------------------------------

@dataclass
class Row:
    status: str
    trials: int
    p_analytic: Optional[float]
    p_hat: Optional[float]


@dataclass
class Workload:
    argv: List[str]                          # hndeploy CLI arguments
    rows: int                                # rows (or runs) one repeat attempts
    parse: Callable[[str, str], List[Row]]   # (stdout, csv text) -> rows
    csv: Optional[Path] = None
    config: Optional[dict] = None


def _sweep_rows(stdout, csv_text):
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cell = dict(zip(header, line.split(",")))
        rows.append(Row(cell["status"], int(cell["trials"]),
                        float(cell["p_analytic"]) if cell["p_analytic"] else None,
                        float(cell["p_hat"]) if cell["p_hat"] else None))
    return rows


def _sweep(config, work):
    csv = work / "sweep.csv"
    config = dict(config, output_path=str(csv))
    # the uniform model has no sigma, so it makes one row per (N, S, d, r)
    sigmas = sum(len(config["sigma_values"]) if m == "half_normal" else 1 for m in config["models"])
    rows = sigmas * math.prod(len(config[k]) for k in ("n_values", "s_values", "d_values", "r_values"))
    return Workload(["sweep", "--config", str(work / "config.json")], rows, _sweep_rows,
                    csv=csv, config=config)


def sweep_readme(seed, smoke, work):
    """The README comparison sweep: sampling-bound, bounded rejection region."""
    return _sweep({
        "models": ["half_normal", "uniform"], "sigma_values": [10.0],
        "n_values": [10, 50, 100, 200, 500], "s_values": [5.0], "d_values": [5.0],
        "r_values": [1.0], "region": [-50.0, 50.0, -50.0, 50.0],
        "trials": 200 if smoke else 20000, "master_seed": seed,
        "quadrature_tolerance": 1e-8, "workers": 1,
    }, work)


def analytic_grid(seed, smoke, work):
    """A half-normal scenario grid at tight tolerance: quadrature-bound."""
    return _sweep({
        "models": ["half_normal"],
        "sigma_values": [5.0] if smoke else [1.0, 3.0, 5.0, 10.0],
        "n_values": [20], "s_values": [4.0] if smoke else [4.0, 8.0, 15.0, 25.0],
        "d_values": [1.0, 3.0], "r_values": [1.0] if smoke else [0.5, 1.0, 2.0],
        "region": [-50.0, 50.0, -50.0, 50.0], "trials": 100 if smoke else 2000,
        "master_seed": seed, "quadrature_tolerance": 1e-6 if smoke else 1e-10, "workers": 1,
    }, work)


SIMULATE = {"sigma": 5.0, "n": 100, "r": 1.0, "s": 5.0, "d": 3.0}


def simulate_halfplane(seed, smoke, work):
    """`hndeploy simulate` on the unbounded half-plane with two worker threads."""
    trials = 2000 if smoke else 200000
    p = SIMULATE
    argv = ["simulate", "--model", "half_normal", "--sigma", str(p["sigma"]), "-N", str(p["n"]),
            "-r", str(p["r"]), "-S", str(p["s"]), "-d", str(p["d"]),
            "--trials", str(trials), "--seed", str(seed), "--workers", "2"]
    # the reference comes from the library, outside every timed process
    sys.path.insert(0, str(SRC))
    from hndeploy.analytic import full_report
    from hndeploy.geometry import IntruderScenario
    p_d = full_report(IntruderScenario(start_s=p["s"], distance_d=p["d"]), p["r"],
                      p["sigma"], p["n"]).p_d

    def parse(stdout, csv_text):
        payload = json.loads(stdout.strip().splitlines()[-1])
        return [Row("ok", int(payload["trials"]), p_d, float(payload["p_hat"]))]

    return Workload(argv, 1, parse)


WORKLOADS = {"sweep_readme": sweep_readme, "analytic_grid": analytic_grid,
             "simulate_halfplane": simulate_halfplane}


# -- correctness gate -------------------------------------------------------

def binomial_tail(k, n, p, upper):
    """P(X >= k) if upper else P(X <= k), X ~ Binomial(n, p), for the tail
    away from the mean: its terms fall geometrically from k outward."""
    q = 1.0 - p
    term = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log(q))
    total = 0.0
    i = k
    while term > total * 1e-16:
        total += term
        if upper:
            if i == n:
                break
            term *= (n - i) / (i + 1) * p / q
            i += 1
        else:
            if i == 0:
                break
            term *= i / (n - i + 1) * q / p
            i -= 1
    return total


def covers(k, n, p):
    """Whether p lies in the exact (Clopper-Pearson) interval of k successes
    in n trials, at GATE_TAIL per side. Unlike Wald it keeps its width at
    p_hat = 0 or 1; unlike Wilson it keeps its level at 1 or 2 successes."""
    if p <= 0.0 or p >= 1.0:
        return k == round(n * p)
    if k > n * p and binomial_tail(k, n, p, upper=True) < GATE_TAIL:
        return False
    return not (k < n * p and binomial_tail(k, n, p, upper=False) < GATE_TAIL)


def row_ok(row):
    if row.status != "ok" or row.p_analytic is None or row.p_hat is None:
        return False
    return covers(round(row.p_hat * row.trials), row.trials, row.p_analytic)


# -- running one workload process ------------------------------------------

@dataclass
class Repeat:
    t0: float                   # perf_counter when the process was started
    t1: float                   # and when it had ended
    setup_s: Optional[float]
    rss_mb: float
    returncode: int
    record: List[dict]          # the JSON lines child.py wrote
    digest: str = ""
    rows: List[Row] = field(default_factory=list)

    @property
    def wall_s(self):
        return self.t1 - self.t0


def run_child(mode, workload, work):
    out = work / f"{mode}.jsonl"
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    for path in (out, workload.csv):
        if path is not None and path.exists():
            path.unlink()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, str(CHILD), mode, str(out)] + workload.argv
    with open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=str(ROOT), env=env)
        watchdog = threading.Timer(REPEAT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = []
    if out.exists():
        record = [json.loads(line) for line in out.read_text().splitlines()]
    setup_end = record[0]["setup_end"] if record else None
    rep = Repeat(t0, t1, None if setup_end is None else setup_end - t0,
                 usage.ru_maxrss / 1024.0, proc.returncode, record)
    if proc.returncode != 0:
        sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
    if mode in ("probe", "count") or proc.returncode != 0:
        return rep
    stdout = stdout_path.read_text()
    csv_text = workload.csv.read_text() if workload.csv is not None else ""
    rep.digest = hashlib.sha256((stdout + "\0" + csv_text).encode()).hexdigest()
    rep.rows = workload.parse(stdout, csv_text)
    return rep


def count_failed(repeats, workload):
    """Rows that are not ok, miss the gate, or come from output that differs
    from the set's first repeat (every repeat of a run must be byte-identical)."""
    reference = next((r.digest for r in repeats if r.digest), None)
    failed = 0
    for rep in repeats:
        if rep.returncode != 0 or rep.digest != reference or len(rep.rows) != workload.rows:
            failed += workload.rows
        else:
            failed += sum(not row_ok(row) for row in rep.rows)
    return failed


# -- metrics ----------------------------------------------------------------

def end_to_end(repeats, probes):
    ok_trials = [sum(r.trials for r in rep.rows if row_ok(r)) for rep in repeats]
    setups = [r.setup_s for r in probes + repeats if r.setup_s is not None]
    return {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "wall_s": statistics.median(r.wall_s for r in repeats),
        "trials_per_s": statistics.median(t / r.wall_s for t, r in zip(ok_trials, repeats)),
        "rows_per_s": statistics.median(len(r.rows) / r.wall_s for r in repeats),
        "peak_rss_mb": statistics.median(r.rss_mb for r in repeats),
    }


def _layer(name):
    return name.split(".", 1)[0]


def wall_shares(spans, t0, t1):
    """Split the process's wall time among layers.

    Each instant goes to the innermost open spans (those with no open child),
    shared equally when worker threads run several at once; time outside
    every span goes to `process` (interpreter start-up and exit).
    """
    open_children = defaultdict(int)
    events = sorted([(s["start"], 1, s) for s in spans] + [(s["end"], 0, s) for s in spans],
                    key=lambda e: (e[0], e[1]))
    active = {None: "process"}
    share = defaultdict(float)
    prev = t0
    for t, starts, span in events + [(t1, 0, None)]:
        if t > prev:
            leaves = [layer for sid, layer in active.items() if open_children[sid] == 0]
            for layer in leaves:
                share[layer] += (t - prev) / len(leaves)
            prev = t
        if span is None:
            break
        if starts:
            active[span["id"]] = _layer(span["name"])
            open_children[span["parent"]] += 1
        else:
            del active[span["id"]]
            open_children[span["parent"]] -= 1
    return {layer: 100.0 * share[layer] / (t1 - t0) for layer in LAYERS}


def layer_metrics(rep, density_evals):
    spans = [s for s in rep.record if s["kind"] == "span"]
    counters = {c["name"]: c["value"] for c in rep.record if c["kind"] == "counter"}
    by_id = {s["id"]: s for s in spans}

    def parent_layer(s):
        return _layer(by_id[s["parent"]]["name"]) if s["parent"] in by_id else None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(group):
        return sum(s["end"] - s["start"] for s in group)

    def attr(group, key):
        return [s["attrs"][key] for s in group if s["attrs"]]

    estimates = named("montecarlo.estimate_detection")
    samples = named("distributions.sample_positions")
    detects = named("geometry.detects_any")
    draws = [s for s in spans if _layer(s["name"]) == "rng" and parent_layer(s) != "rng"]
    analytic = [s for s in spans if _layer(s["name"]) == "analytic" and parent_layer(s) == "montecarlo"]
    integrals = [s for s in spans if _layer(s["name"]) == "numerics" and parent_layer(s) == "analytic"]
    trials = sum(attr(estimates, "trials"))
    sensors = sum(attr(samples, "sensors"))
    # every placement attempt draws an x and a y value
    attempts = sum(attr([s for s in draws if parent_layer(s) == "distributions"], "values")) / 2
    sample_s, detect_s, draw_s = total(samples), total(detects), total(draws)
    capacity = sum((s["end"] - s["start"]) * (s["attrs"] or {}).get("workers", 1) for s in estimates)
    values = counters.get("rng.values", 0)
    metrics = {
        "cli.import_s": total(named("cli.import")),
        "config.load_ms": 1e3 * total([s for s in spans if _layer(s["name"]) == "config"]),
        "cli.csv_write_ms": 1e3 * total(named("cli.sweep_csv") + named("cli._write_text")),
        "montecarlo.estimate_s": total(estimates),
        "montecarlo.sensors_per_trial": sensors / trials if trials else 0.0,
        "montecarlo.worker_busy_frac": (sample_s + detect_s) / capacity if capacity else 0.0,
        "distributions.sample_s": sample_s,
        "distributions.sensors_per_s": sensors / sample_s if sample_s else 0.0,
        "distributions.accept_ratio": sensors / attempts if attempts else 0.0,
        "distributions.max_call_sensors": max(attr(samples, "sensors"), default=0),
        "rng.draw_s": draw_s,
        "rng.values": values,
        "rng.values_per_s": values / draw_s if draw_s else 0.0,
        "rng.values_per_sensor": values / sensors if sensors else 0.0,
        "geometry.detect_s": detect_s,
        "geometry.sensors_checked": sum(attr(detects, "sensors")),
        "analytic.report_s": total(analytic),
        "analytic.calls": len(analytic),
        "analytic.ms_per_call": 1e3 * total(analytic) / len(analytic) if analytic else 0.0,
        "numerics.integrate_calls": len(integrals),
        "analytic.density_evals": density_evals,
        "trace.spans": len(spans),
    }
    for layer, pct in wall_shares(spans, rep.t0, rep.t1).items():
        metrics[f"{layer}.wall_share"] = pct
    return metrics


# -- facts ------------------------------------------------------------------

def machine_facts(seed):
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hndeploy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def measure(step, seconds):
    """Call step(elapsed) at least once, and again while the next call is
    expected (from the median step so far) to end within `seconds`."""
    begin = time.perf_counter()
    durations = []
    while True:
        start = time.perf_counter()
        step(start - begin)
        durations.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(durations) > seconds:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one repeat; checks the harness, not the program")
    args = parser.parse_args(argv)
    if not (SRC / "hndeploy" / "cli.py").is_file():
        print(f"no hndeploy sources under {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts(args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
    if workload.config is not None:
        (work / "config.json").write_text(json.dumps(workload.config, indent=2))

    if not args.smoke:
        # the first process of a checkout compiles the package's bytecode
        run_child("probe", workload, work)
    probes, repeats = [], []
    if args.trace:
        density = run_child("count", workload, work)
        density_evals = next((c["value"] for c in density.record
                              if c.get("name") == "analytic.density_evals"), 0)
        traced = []

        def pair(elapsed):
            repeats.append(run_child("plain", workload, work))
            traced.append(run_child("trace", workload, work))

        measure(pair, 0 if args.smoke else args.seconds)
        # one whole traced repeat, the median one, so its wall shares add up
        median_traced = sorted(traced, key=lambda r: r.wall_s)[(len(traced) - 1) // 2]
        metrics = layer_metrics(median_traced, density_evals)
        # each pair ran back to back, so its difference is free of slow drift
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for t, u in zip(traced, repeats))
        units = PER_LAYER_UNITS
        repeats += traced
    else:
        # set-up probes are spread over the run, so a slow phase of the machine
        # does not land on all of them
        wanted = 0 if args.smoke else SETUP_PROBES

        def repeat(elapsed):
            while len(probes) < min(wanted, math.ceil(wanted * elapsed / args.seconds)):
                probes.append(run_child("probe", workload, work))
            repeats.append(run_child("plain", workload, work))

        measure(repeat, 0 if args.smoke else args.seconds)
        while len(probes) < wanted:
            probes.append(run_child("probe", workload, work))
        metrics = end_to_end(repeats, probes)
        units = E2E_UNITS

    attempted = workload.rows * len(repeats)
    failed = count_failed(repeats, workload)
    facts.update(repeats=len(repeats), setup_samples=len(probes) + len(repeats),
                 failed_frac=failed / attempted)
    print("facts " + json.dumps(facts))
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
