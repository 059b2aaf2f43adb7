"""Default tolerances and run configuration.

All tolerances are keyword-overridable in the functions that use them; the
values here are the desk-scale defaults (degree <= 64 polynomials, domains of
diameter a few units).
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

from .errors import InputError

# Coefficient magnitudes below COEFF_TOL * max(1, |coeffs|) are treated as zero.
COEFF_TOL = 1e-12

# Roots closer than this are merged into a single multiple root; pole sets and
# interpolation nodes must be separated by more than this.
ROOT_TOL = 1e-8

# Absolute tolerance for the G7-K15 contour quadrature: the sum of the
# |K15 - G7| panel estimates along a path, each floored at 50 eps times the
# panel's integral of |f dz|.
QUAD_TOL = 1e-10

# Numerical residues of constructed integrands must stay below this.
RESIDUE_TOL = 1e-9

# "On the boundary" clearance, as a fraction of the contour diameter.
CLEARANCE_FACTOR = 1e-6

# Integrand evaluations the argument-principle count may spend before refusing.
COUNT_EVAL_BUDGET = 400_000

# Truncation degrees tried by the disc approximation routines.
DEGREE_SCHEDULE = (8, 16, 32, 64, 128, 256)
DEGREE_BUDGET = 256

ENV_PREFIX = "MEROIMM_"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and budgets for a CLI run.

    Values are resolved flag > environment (``MEROIMM_*``) > default.  A
    tolerance that is not a finite positive number, or a degree budget below
    1, raises InputError.
    """

    eps: float = 1e-3
    tol_residue: float = RESIDUE_TOL
    tol_root: float = ROOT_TOL
    tol_quad: float = QUAD_TOL
    degree_budget: int = DEGREE_BUDGET

    def __post_init__(self):
        for name in ("eps", "tol_residue", "tol_root", "tol_quad"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be a finite positive number, not {value}")
        if self.degree_budget < 1:
            raise InputError("degree_budget must be >= 1")

    def tolerances(self) -> dict:
        """The run's settings, plus the fixed boundary clearance factor."""
        return {**asdict(self), "clearance_factor": CLEARANCE_FACTOR}


_ENV_FIELDS = {
    "eps": float,
    "tol_residue": float,
    "tol_root": float,
    "tol_quad": float,
    "degree_budget": int,
}


def config_from_env(overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from MEROIMM_* environment variables plus overrides."""
    values: dict = {}
    for name, cast in _ENV_FIELDS.items():
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                values[name] = cast(raw)
            except ValueError as exc:
                raise InputError(
                    f"{ENV_PREFIX + name.upper()}={raw!r} is not a valid {cast.__name__}"
                ) from exc
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
