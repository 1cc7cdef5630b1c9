"""Batch command-line front end.

Subcommands: sample, analytic, simulate, sweep, plot, validate. Every
command is deterministic given its full argument set (seeds included);
outputs carry no timestamps, so repeated runs are byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from dataclasses import asdict, astuple, fields
from typing import List, Optional, Sequence

import numpy as np

from .analytic import full_report
from .config import load_config
from .distributions import DeploymentKind, DeploymentModel, sample_positions
from .geometry import HalfPlane, IntruderScenario, Rectangle
from .montecarlo import SweepRow, estimate_detection, sweep
from .numerics import QuadratureError, QuadratureSpec
from .rng import RandomSeed, check_real

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _cell(value) -> str:
    """None as empty, an int in full, a float to 10 significant digits, a str as one CSV cell."""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return "" if value is None else str(value) if isinstance(value, int) else f"{value:.10g}"


def _print_record(record) -> None:
    """Print each field of a result record as key=value, then the record as one JSON line."""
    payload = asdict(record)
    for key, value in payload.items():
        print(f"{key}={_cell(value)}")
    print(json.dumps(payload))


def _region_from_args(values: Optional[Sequence[float]]):
    if values is None:
        return HalfPlane()
    region = Rectangle(*values)
    check_real("--region area", region.area)
    return region


def _model_from_args(args) -> DeploymentModel:
    return DeploymentModel(args.model, _region_from_args(args.region), args.sigma)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_sample(args) -> int:
    model = _model_from_args(args)
    seeds = np.array([RandomSeed(args.seed).master], dtype=np.uint64)
    xs, ys = sample_positions(model, args.n, seeds)
    lines = ["x,y"] + [f"{x:.17g},{y:.17g}" for x, y in zip(xs[0].tolist(), ys[0].tolist())]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_analytic(args) -> int:
    scenario = IntruderScenario(start_s=args.start, distance_d=args.distance)
    spec = QuadratureSpec(absolute_tolerance=args.tolerance)
    _print_record(full_report(scenario, args.range, args.sigma, args.n_sensors,
                              region=_region_from_args(args.region), spec=spec))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _model_from_args(args)
    scenario = IntruderScenario(start_s=args.start, distance_d=args.distance)
    _print_record(estimate_detection(model, args.n_sensors, scenario, args.range, args.trials,
                                     RandomSeed(args.seed), workers=args.workers))
    return EXIT_OK


def sweep_csv(rows: List[SweepRow]) -> str:
    lines = [",".join(f.name for f in fields(SweepRow))]
    lines += [",".join(map(_cell, astuple(row))) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    _write_text(config.output_path, sweep_csv(sweep(config)))
    return EXIT_OK


def cmd_plot(args) -> int:
    # imported here, so that the other commands do not load them
    from .svgplot import PlotSpec, render_line_chart

    spec = PlotSpec(
        x_column=args.x,
        y_columns=tuple(args.y),
        series_key=args.series or "",
        title=args.title or "",
        x_label=args.x_label or args.x,
        y_label=args.y_label or ", ".join(args.y),
        width=args.width,
        height=args.height,
    )
    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    svg = render_line_chart(rows, spec)
    _write_text(args.out, svg)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_validation

    results = run_validation()
    failed = 0
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        print(f"{mark} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hndeploy",
        description="Half-normal sensor deployment analysis: analytic detection "
                    "probability, Monte Carlo cross-validation and experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_region(p, required=False):
        p.add_argument("--region", nargs=4, type=float, required=required,
                       metavar=("X_MIN", "X_MAX", "Y_MIN", "Y_MAX"),
                       help="bounded rectangle region (omit for the half-plane x >= 0)")

    p = sub.add_parser("sample", help="draw a sensor deployment and write it as CSV")
    p.add_argument("--model", required=True, choices=[k.value for k in DeploymentKind])
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_region(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analytic", help="analytic detection probability report")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("-r", "--range", type=float, required=True, help="sensing range")
    p.add_argument("-S", "--start", type=float, required=True, help="intruder entry abscissa")
    p.add_argument("-d", "--distance", type=float, required=True, help="distance traveled")
    p.add_argument("-N", "--n-sensors", type=int, required=True)
    add_region(p)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo detection-probability estimate")
    p.add_argument("--model", required=True, choices=[k.value for k in DeploymentKind])
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("-N", "--n-sensors", type=int, required=True)
    p.add_argument("-r", "--range", type=float, required=True)
    p.add_argument("-S", "--start", type=float, required=True)
    p.add_argument("-d", "--distance", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    add_region(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render a results CSV as an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", nargs="+", required=True)
    p.add_argument("--series", default=None)
    p.add_argument("--title", default=None)
    p.add_argument("--x-label", default=None)
    p.add_argument("--y-label", default=None)
    p.add_argument("--width", type=int, default=720)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("validate", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # the objects the imports made live until exit; frozen, the collections
    # at interpreter exit skip them
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
