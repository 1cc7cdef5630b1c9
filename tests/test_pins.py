"""Integer counts and CSV text recorded from the sampler as it stands.

A refactor of the sampling or trial code must leave every number here
unchanged. A change that alters the draws on purpose (a different normal
generator, say) updates these pins in the same change and says so.
"""

import hashlib

import pytest

from hndeploy.cli import sweep_csv
from hndeploy.config import config_from_dict
from hndeploy.distributions import DeploymentKind, DeploymentModel
from hndeploy.geometry import HalfPlane, IntruderScenario, Rectangle
from hndeploy.montecarlo import estimate_detection, sweep
from hndeploy.rng import RandomSeed

SCENARIO = IntruderScenario(start_s=5.0, distance_d=3.0)
BOX = Rectangle(0.0, 20.0, -5.0, 5.0)

# (kind, region) -> detected_count of 1000 trials, seed 11, r = 1, sigma = 5,
# for (N = 10 redrawn per trial, N = 10 one fixed field); N = 0 always gives 0
DETECTED = {
    ("half_normal", "halfplane"): (617, 1000),
    ("half_normal", "box"): (761, 1000),
    ("quadrant", "halfplane"): (617, 1000),
    ("quadrant", "box"): (761, 1000),
    ("uniform", "box"): (371, 0),
    ("strip", "box"): (713, 1000),
}

SWEEP_CONFIG = {
    "models": ["half_normal", "quadrant", "uniform", "strip"],
    "sigma_values": [5.0], "n_values": [0, 10], "s_values": [5.0],
    "d_values": [3.0, 8.0], "r_values": [1.0], "region": [0.0, 20.0, -5.0, 5.0],
    "trials": 500, "master_seed": 7, "workers": 2,
}
SWEEP_SHA256 = "427d20478b309289148bcd435c1de2d690d3091510bed1bcb7d30e6e9eeab089"


@pytest.mark.parametrize("kind,region_name", sorted(DETECTED))
@pytest.mark.parametrize("fixed_field", [False, True])
@pytest.mark.parametrize("n", [0, 10])
@pytest.mark.parametrize("workers", [1, 3])
def test_detected_count(kind, region_name, fixed_field, n, workers):
    region = HalfPlane() if region_name == "halfplane" else BOX
    sigma = None if kind == "uniform" else 5.0
    model = DeploymentModel(DeploymentKind(kind), region, sigma)
    estimate = estimate_detection(model, n, SCENARIO, 1.0, 1000, RandomSeed(11),
                                  workers=workers, fixed_field=fixed_field)
    expected = DETECTED[kind, region_name][fixed_field] if n else 0
    assert estimate.detected_count == expected


def test_sweep_csv_digest():
    text = sweep_csv(sweep(config_from_dict(SWEEP_CONFIG)))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256
