"""Meromorphic immersions of plane domains into the Riemann sphere.

Verification and winding-number classification of immersions, a
residue-constrained algorithm extending immersions from a small disc to a
larger one (single maps and sampled parametric families, with a relative
variant that reproduces prescribed members), and partition-of-unity blending
of polynomial approximants over parameter grids.
"""

from .config import RunConfig
from .contours import (
    Contour,
    Disc,
    argument_principle_count,
    winding_number,
)
from .errors import (
    DegreeBudgetError,
    GridResolutionError,
    InputError,
    InternalConsistencyError,
    MeroimmError,
    NotAnImmersionError,
    NumericalError,
    PathTooCloseError,
    PoleCollisionError,
    PreconditionError,
    QuadratureBudgetError,
    RootSolveError,
    SingularityOnBoundaryError,
    UnreducedFractionError,
    ZeroOnContourError,
)
from .extension import (
    ConstrainedEta,
    IntegralImmersion,
    constrained_eta,
    extend_family,
    extend_immersion,
    extension_boundary_error,
    residue_targets,
)
from .blending import (
    SampledFamily,
    blend_parametric,
    fix_on_Q,
    poly_approx_on_disc,
    sampled_sup_distance,
)
from .grids import ParamGrid
from .immersions import (
    CircularDomain,
    FormalSeed,
    HomotopyClass,
    ImmersionCertificate,
    basis_loops,
    chart_transition_winding,
    classify,
    same_component,
    seed_disc,
    seed_disc_family,
    verify_immersion,
)
from .poly import ComplexPolynomial, roots
from .rational import Factored, PoleSet, RationalMap, residue
from .sphere import INF, SpherePoint, chordal_distance, is_inf

__version__ = "0.1.0"

__all__ = [
    "INF",
    "ComplexPolynomial",
    "CircularDomain",
    "ConstrainedEta",
    "Contour",
    "DegreeBudgetError",
    "Disc",
    "Factored",
    "FormalSeed",
    "GridResolutionError",
    "HomotopyClass",
    "ImmersionCertificate",
    "InputError",
    "IntegralImmersion",
    "InternalConsistencyError",
    "MeroimmError",
    "NotAnImmersionError",
    "NumericalError",
    "ParamGrid",
    "PathTooCloseError",
    "PoleCollisionError",
    "PoleSet",
    "PreconditionError",
    "QuadratureBudgetError",
    "RationalMap",
    "RootSolveError",
    "RunConfig",
    "SampledFamily",
    "SingularityOnBoundaryError",
    "SpherePoint",
    "UnreducedFractionError",
    "ZeroOnContourError",
    "argument_principle_count",
    "basis_loops",
    "blend_parametric",
    "chart_transition_winding",
    "chordal_distance",
    "classify",
    "constrained_eta",
    "extend_family",
    "extend_immersion",
    "extension_boundary_error",
    "fix_on_Q",
    "is_inf",
    "poly_approx_on_disc",
    "residue",
    "residue_targets",
    "roots",
    "same_component",
    "sampled_sup_distance",
    "seed_disc",
    "seed_disc_family",
    "verify_immersion",
    "winding_number",
]
