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

Every number must be finite and a JSON number (not a bool); trials,
n_values, master_seed and workers must also be integral (2.0 is accepted,
2.7 is not), and output_path must be a non-empty string. Any out-of-domain
value (sigma <= 0, trials < 1, empty lists, a malformed or unbounded
region) is rejected before any computation starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List

from .distributions import DeploymentKind
from .geometry import Rectangle
from .rng import MASK64

_REQUIRED = {
    "models", "sigma_values", "n_values", "s_values", "d_values", "r_values",
    "region", "trials", "master_seed",
}
_OPTIONAL = {"quadrature_tolerance", "workers", "output_path"}


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
        if any(s <= 0 for s in self.sigma_values):
            raise ValueError("sigma_values must be positive")
        if any(n < 0 for n in self.n_values):
            raise ValueError("n_values must be nonnegative")
        if any(s < 0 for s in self.s_values):
            raise ValueError("s_values must be nonnegative")
        if any(d < 0 for d in self.d_values):
            raise ValueError("d_values must be nonnegative")
        if any(r <= 0 for r in self.r_values):
            raise ValueError("r_values must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0 <= self.master_seed <= MASK64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.quadrature_tolerance <= 0:
            raise ValueError("quadrature_tolerance must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not self.region.bounded:
            raise ValueError("region must be bounded")
        if not (isinstance(self.output_path, str) and self.output_path):
            raise ValueError(f"output_path must be a non-empty string, got {self.output_path!r}")


def _real(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key} must hold finite numbers, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must hold integers, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _REQUIRED - _OPTIONAL
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED - set(raw)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    try:
        models = [DeploymentKind(m) for m in raw["models"]]
    except ValueError as exc:
        raise ValueError(f"bad deployment kind: {exc}") from None
    region_values = raw["region"]
    if not (isinstance(region_values, list) and len(region_values) == 4):
        raise ValueError("region must be [x_min, x_max, y_min, y_max]")
    region = Rectangle(*(_real("region", v) for v in region_values))
    kwargs = {}
    if "quadrature_tolerance" in raw:
        kwargs["quadrature_tolerance"] = _real("quadrature_tolerance", raw["quadrature_tolerance"])
    if "workers" in raw:
        kwargs["workers"] = _integer("workers", raw["workers"])
    if "output_path" in raw:
        kwargs["output_path"] = raw["output_path"]
    return ExperimentConfig(
        models=models,
        sigma_values=[_real("sigma_values", v) for v in raw["sigma_values"]],
        n_values=[_integer("n_values", v) for v in raw["n_values"]],
        s_values=[_real("s_values", v) for v in raw["s_values"]],
        d_values=[_real("d_values", v) for v in raw["d_values"]],
        r_values=[_real("r_values", v) for v in raw["r_values"]],
        region=region,
        trials=_integer("trials", raw["trials"]),
        master_seed=_integer("master_seed", raw["master_seed"]),
        **kwargs,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
