"""Default tolerances and run configuration.

The values here are the desk-scale defaults (degree <= 64 polynomials,
domains of diameter a few units); the entry points that take a tolerance as
a keyword default to them.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

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

    These fields are the one list of run settings: the CLI flag
    ``--tol-root`` and the environment variable ``MEROIMM_TOL_ROOT`` are
    made from the field ``tol_root``, and each setting's type is its
    default's.  Values are resolved flag > environment > default.  A float
    setting that is not a finite positive number, or an int setting below
    1, raises InputError.
    """

    eps: float = 1e-3
    tol_residue: float = RESIDUE_TOL
    tol_root: float = ROOT_TOL
    tol_quad: float = QUAD_TOL
    degree_budget: int = DEGREE_BUDGET

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                if value < 1:
                    raise InputError(f"{f.name} must be >= 1")
            elif not (math.isfinite(value) and value > 0):
                raise InputError(f"{f.name} must be a finite positive number, not {value}")

    def tolerances(self) -> dict:
        """The run's settings, plus the fixed boundary clearance factor."""
        return {**asdict(self), "clearance_factor": CLEARANCE_FACTOR}


def config_from_env(overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from MEROIMM_* environment variables plus overrides."""
    values: dict = {}
    for f in fields(RunConfig):
        cast, var = type(f.default), ENV_PREFIX + f.name.upper()
        raw = os.environ.get(var)
        if raw is not None:
            try:
                values[f.name] = cast(raw)
            except ValueError as exc:
                raise InputError(f"{var}={raw!r} is not a valid {cast.__name__}") from exc
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
