"""Experiment configuration: a single JSON document, strictly validated.

Schema (all keys top-level; unknown keys are rejected to catch typos):

    {
      "models": ["half_normal", "uniform"],          // deployment kinds
      "sigma_values": [10.0],
      "n_values": [10, 50, 100],
      "s_values": [5.0],
      "d_values": [5.0],
      "r_values": [1.0],
      "region": [0.0, 100.0, -50.0, 50.0],           // x_min, x_max, y_min, y_max
      "trials": 20000,
      "master_seed": 42,
      "quadrature_tolerance": 1e-8,                  // optional, default 1e-8
      "workers": 1,                                  // optional, default 1
      "output_path": "sweep.csv"                     // optional, default "sweep.csv"
    }

Keys are ExperimentConfig's fields; those without a default are required.
config_from_dict checks only the document's shape. ExperimentConfig checks
every value, reals by rng.check_real (finite, not a bool) and counts by
rng.check_integer (JSON's 2.0 is accepted, 2.7 is not), so anything out of
domain (a subnormal sigma, an empty list, an unbounded region) fails up front.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import List

from .distributions import DeploymentKind, HalfNormalParams
from .geometry import Rectangle
from .rng import MASK64, check_integer, check_real

_COUNTS = ("n_values", "trials", "master_seed", "workers")


@dataclass(frozen=True)
class ExperimentConfig:
    models: List[DeploymentKind]
    sigma_values: List[float]
    n_values: List[int]
    s_values: List[float]
    d_values: List[float]
    r_values: List[float]
    region: Rectangle
    trials: int
    master_seed: int
    quadrature_tolerance: float = 1e-8
    workers: int = 1
    output_path: str = "sweep.csv"

    def __post_init__(self):
        for name in ("models", "sigma_values", "n_values", "s_values", "d_values", "r_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        try:
            models = [DeploymentKind(m) for m in self.models]
        except ValueError as exc:
            raise ValueError(f"bad deployment kind: {exc}") from None
        positive = math.ulp(0.0)
        checked = {
            "models": models,
            "sigma_values": [HalfNormalParams(sigma).sigma for sigma in self.sigma_values],
            "n_values": [check_integer("n_values", n) for n in self.n_values],
            "s_values": [check_real("s_values", s, 0.0) for s in self.s_values],
            "d_values": [check_real("d_values", d, 0.0) for d in self.d_values],
            "r_values": [check_real("r_values", r, positive) for r in self.r_values],
            "trials": check_integer("trials", self.trials, 1),
            "master_seed": check_integer("master_seed", self.master_seed, 0, MASK64),
            "quadrature_tolerance": check_real("quadrature_tolerance", self.quadrature_tolerance,
                                               positive),
            "workers": check_integer("workers", self.workers, 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not isinstance(self.region, Rectangle):
            raise ValueError(f"region must be a Rectangle, got {self.region!r}")
        check_real("region area", self.region.area)
        if not (isinstance(self.output_path, str) and self.output_path):
            raise ValueError(f"output_path must be a non-empty string, got {self.output_path!r}")


def _integer(value):
    """JSON's integral floats (2.0), alone or in a list, as ints."""
    if isinstance(value, list):
        return [_integer(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a JSON object describes; only its shape is checked here."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(raw)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    region = raw["region"]
    if not (isinstance(region, list) and len(region) == 4):
        raise ValueError("region must be [x_min, x_max, y_min, y_max]")
    values = {key: _integer(value) if key in _COUNTS else value for key, value in raw.items()}
    return ExperimentConfig(**dict(values, region=Rectangle(*region)))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
