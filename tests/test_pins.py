"""Integer counts, CSV text, analytic bits and CLI stdout recorded as the code stands.

A refactor of the sampling, trial or analytic code must leave every number
here unchanged. A change that alters the draws or the integral on purpose
(a different normal generator, say) updates these pins in the same change
and says so.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from hndeploy.analytic import full_report
from hndeploy.cli import main, sweep_csv
from hndeploy.config import config_from_dict
from hndeploy.distributions import DeploymentKind, DeploymentModel, sample_positions
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle, detects_any
from hndeploy.montecarlo import estimate_detection, sweep
from hndeploy.numerics import QuadratureSpec
from hndeploy.rng import RandomSeed

SCENARIO = IntruderScenario(start_s=5.0, distance_d=3.0)
BOX = Rectangle(0.0, 20.0, -5.0, 5.0)

# (kind, region) -> (detected_count of 1000 trials, seed 11, r = 1, sigma = 5,
# N = 10 redrawn per trial; whether the one N = 10 field keyed by seed 11
# itself, the field `hndeploy sample --seed 11` writes, detects); N = 0 never
# detects
DETECTED = {
    ("half_normal", "halfplane"): (609, False),
    ("half_normal", "box"): (748, False),
    ("quadrant", "halfplane"): (624, True),
    ("quadrant", "box"): (770, True),
    ("uniform", "box"): (370, False),
    ("strip", "box"): (706, False),
}

SWEEP_CONFIG = {
    "models": ["half_normal", "quadrant", "uniform", "strip"],
    "sigma_values": [5.0], "n_values": [0, 10], "s_values": [5.0],
    "d_values": [3.0, 8.0], "r_values": [1.0], "region": [0.0, 20.0, -5.0, 5.0],
    "trials": 500, "master_seed": 7, "workers": 2,
}
SWEEP_SHA256 = "65c2b00e04beba16def73be2336537504c796c8222fe79beda27ceeb8ee3087a"

# full_report(scenario, r, sigma, N = 10, region, tolerance 1e-8) as float.hex:
# p_rect, p_left, p_right, p_total and p_d = detection_probability(p_total, N)
REPORT_BITS = {
    # S = 5, d = 3, r = 1, sigma = 5: nothing is cut off
    "halfplane": (HalfPlane(), 5.0, 3.0, 1.0, 5.0, (
        "0x1.e2e03ba514646p-5", "0x1.35df846e8d92dp-6", "0x1.6a15a12f21d42p-7",
        "0x1.6c2ab31411d16p-4", "0x1.3636950dffb9ap-1")),
    # S = 5, d = 3, r = 1, sigma = 10: renormalized, capsule inside
    "box50": (Rectangle(-50.0, 50.0, -50.0, 50.0), 5.0, 3.0, 1.0, 10.0, (
        "0x1.24ddfd8bd298ap-6", "0x1.431fdf5f5fd07p-8", "0x1.1a6d140a035e0p-8",
        "0x1.bc413a662b644p-6", "0x1.ec3bdfd853cc1p-3")),
    # S = 6, d = 3, r = 1, sigma = 3: the region clips x below 2 and y below -0.5
    "clip": (Rectangle(2.0, 7.0, -0.5, 9.5), 6.0, 3.0, 1.0, 3.0, (
        "0x1.8f16ac0dccb0bp-3", "0x1.cb0a5a1661f38p-4", "0x1.0a711c2885748p-6",
        "0x1.4af4fe4f072c8p-2", "0x1.f5ace8aaed282p-1")),
}

# the whole stdout of `hndeploy ARGS`: the key=value lines, then the JSON line
CLI_STDOUT = {
    "analytic": ("analytic --sigma 5 -r 1 -S 5 -d 3 -N 10", """\
p_rect=0.05894481325
p_left=0.01891315396
p_right=0.01104994173
p_total=0.08890790894
p_uniform=
p_d=0.6058851795
p_not_detected=0.3941148205
{"p_rect": 0.05894481324561389, "p_left": 0.018913153961159047, \
"p_right": 0.011049941733530692, "p_total": 0.08890790894030362, "p_uniform": null, \
"p_d": 0.6058851794804128, "p_not_detected": 0.3941148205195872}
"""),
    "analytic_region": ("analytic --sigma 3 -r 1 -S 6 -d 3 -N 10 --region 2 7 -0.5 9.5", """\
p_rect=0.1948674623
p_left=0.1120704192
p_right=0.01626231909
p_total=0.3232002006
p_uniform=0.1405481556
p_d=0.9798348149
p_not_detected=0.0201651851
{"p_rect": 0.19486746232140492, "p_left": 0.11207041922000094, \
"p_right": 0.01626231908638623, "p_total": 0.3232002006277921, \
"p_uniform": 0.14054815562958461, "p_d": 0.97983481489662, "p_not_detected": 0.02016518510338}
"""),
    "simulate": ("simulate --model half_normal --sigma 5 -N 10 -r 1 -S 5 -d 3 "
                 "--trials 1000 --seed 11", """\
p_hat=0.609
ci_half_width=0.0302449657
trials=1000
detected_count=609
seed=11
{"p_hat": 0.609, "ci_half_width": 0.03024496570340261, "trials": 1000, \
"detected_count": 609, "seed": 11}
"""),
}


@pytest.mark.parametrize("kind,region_name", sorted(DETECTED))
@pytest.mark.parametrize("fixed_field", [False, True])
@pytest.mark.parametrize("n", [0, 10])
@pytest.mark.parametrize("workers", [1, 3])
def test_detected_count(kind, region_name, fixed_field, n, workers):
    region = HalfPlane() if region_name == "halfplane" else BOX
    sigma = None if kind == "uniform" else 5.0
    model = DeploymentModel(DeploymentKind(kind), region, sigma)
    redrawn, fixed = DETECTED[kind, region_name]
    if fixed_field:
        # one field, no trials: workers has nothing to share
        seeds = np.array([RandomSeed(11).master], dtype=np.uint64)
        xs, ys = sample_positions(model, n, seeds)
        assert bool(detects_any(xs, ys, SCENARIO, 1.0)[0]) is (fixed and n > 0)
    else:
        estimate = estimate_detection(model, n, SCENARIO, 1.0, 1000, RandomSeed(11),
                                      workers=workers)
        assert estimate.detected_count == (redrawn if n else 0)


def test_sweep_csv_digest():
    text = sweep_csv(sweep(config_from_dict(SWEEP_CONFIG)))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize("name", sorted(REPORT_BITS))
def test_report_bits(name):
    region, s, d, r, sigma, expected = REPORT_BITS[name]
    report = full_report(IntruderScenario(start_s=s, distance_d=d), r, sigma, 10,
                         region=region, spec=QuadratureSpec(1e-8))
    values = (report.p_rect, report.p_left, report.p_right, report.p_total, report.p_d)
    assert tuple(value.hex() for value in values) == expected


@pytest.mark.parametrize("name", sorted(CLI_STDOUT))
def test_cli_stdout(name, capsys):
    args, expected = CLI_STDOUT[name]
    assert main(args.split()) == 0
    assert capsys.readouterr().out == expected


def test_cli_stdout_in_a_fresh_interpreter():
    # the command as a process of its own, which freezes the collector at
    # start: in development mode, with every warning an error, its stdout is
    # the pin
    args, expected = CLI_STDOUT["simulate"]
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "hndeploy.cli",
                           *args.split()], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected and proc.stderr == ""
