"""Tolerances and run configuration.

The tolerances here are constants at desk scale (degree <= 64 polynomials,
domains of diameter a few units); each layer reads its own from this module.
The one run setting is the accuracy target eps.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

from .errors import InputError

# A polynomial built from raw coefficients drops its leading coefficients of
# modulus <= COEFF_TOL: an absolute bound, whatever the size of the others.
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

# "On the boundary" clearance, as a fraction of a circle's diameter 2 r: the
# certificate's refusal band around its boundary circles (with
# COUNT_NODE_CAP) and classify's band around its basis loops.  Windings and
# counts over certified arcs need none.
CLEARANCE_FACTOR = 1e-6

# Integrand evaluations one G7-K15 path integral may spend before refusing.
QUAD_EVAL_BUDGET = 400_000

# Most Taylor expansions the zero count spends on one polynomial of its map.
# The certificate also refuses a pole or derivative zero within
# 2 pi r / COUNT_NODE_CAP of a boundary circle of radius r, the finest node
# spacing of the periodic rule that once made the count, so that changing the
# count's budget also moves that band.
COUNT_NODE_CAP = 2 ** 18

# Truncation degrees tried by the disc approximation routines.
DEGREE_SCHEDULE = (8, 16, 32, 64, 128, 256)
DEGREE_BUDGET = DEGREE_SCHEDULE[-1]

ENV_PREFIX = "MEROIMM_"


def check_eps(eps: float) -> None:
    """Refuse an accuracy target that is not a finite positive number."""
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be a finite positive number, not {eps}")


def as_integer(x, what: str) -> int:
    """x as an int: a count may be an integral float, but not a bool or a
    number with a fractional part, which int() would silently truncate."""
    try:
        if not (isinstance(x, bool) or getattr(x, "dtype", None) == bool) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{what} must be an integer, not {x!r}")


@dataclass(frozen=True)
class RunConfig:
    """The settings of a CLI run: the accuracy target ``eps``.

    These fields are the one list of run settings: the CLI flag ``--eps``
    and the environment variable ``MEROIMM_EPS`` are made from the field
    ``eps``.  Values are resolved flag > environment > default.  An eps that
    is not a finite positive number raises InputError.
    """

    eps: float = 1e-3

    def __post_init__(self):
        check_eps(self.eps)

    def tolerances(self) -> dict:
        """The run's settings plus the fixed tolerances, as reports list them."""
        return {
            **asdict(self),
            "tol_residue": RESIDUE_TOL,
            "tol_root": ROOT_TOL,
            "tol_quad": QUAD_TOL,
            "degree_budget": DEGREE_BUDGET,
            "clearance_factor": CLEARANCE_FACTOR,
        }


def config_from_env(overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from MEROIMM_* environment variables plus overrides.

    A MEROIMM_* variable that names no setting raises InputError.
    """
    values: dict = {}
    known = {ENV_PREFIX + f.name.upper(): f for f in fields(RunConfig)}
    for var in sorted(v for v in os.environ if v.startswith(ENV_PREFIX)):
        if var not in known:
            raise InputError(f"{var} names no setting; the settings are {', '.join(known)}")
        raw, f = os.environ[var], known[var]
        cast = type(f.default)
        try:
            values[f.name] = cast(raw)
        except ValueError as exc:
            raise InputError(f"{var}={raw!r} is not a valid {cast.__name__}") from exc
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
