"""Meromorphic immersions of plane domains into the Riemann sphere.

Verification and winding-number classification of immersions, a
residue-constrained algorithm extending immersions from a small disc to a
larger one (single maps and sampled parametric families, with a relative
variant that reproduces prescribed members), and partition-of-unity blending
of polynomial approximants over parameter grids.

The namespace is lazy (PEP 562): ``meroimm.name`` imports the name's home
module on first use and reads the name there on every access, so a process
loads only the modules it runs, and a name replaced in its home module is
seen through the package.  Submodules (``meroimm.cli``, ...) resolve the same
way.
"""

import importlib
import sys

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "config": ("RunConfig",),
    "contours": ("Contour", "Disc", "argument_principle_count", "winding_number"),
    "errors": (
        "DegreeBudgetError",
        "InputError",
        "InternalConsistencyError",
        "MeroimmError",
        "NotAnImmersionError",
        "NumericalError",
        "PathTooCloseError",
        "PoleCollisionError",
        "PreconditionError",
        "QuadratureBudgetError",
        "RootSolveError",
        "SingularityOnBoundaryError",
        "UnreducedFractionError",
        "ZeroOnContourError",
    ),
    "extension": (
        "ConstrainedEta",
        "IntegralImmersion",
        "constrained_eta",
        "extend_family",
        "extend_immersion",
        "extension_boundary_error",
        "residue_targets",
    ),
    "blending": (
        "SampledFamily",
        "blend_parametric",
        "fix_on_Q",
        "poly_approx_on_disc",
        "sampled_sup_distance",
    ),
    "grids": ("ParamGrid",),
    "immersions": (
        "CircularDomain",
        "FormalSeed",
        "HomotopyClass",
        "ImmersionCertificate",
        "basis_loops",
        "chart_transition_winding",
        "classify",
        "same_component",
        "seed_disc",
        "seed_disc_family",
        "verify_immersion",
    ),
    "poly": ("ComplexPolynomial", "roots"),
    "rational": ("Factored", "PoleSet", "RationalMap", "residue"),
    "sphere": ("INF", "SpherePoint", "chordal_distance", "is_inf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "serialize"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        home = f"{__name__}.{_HOME[name]}"
        return getattr(sys.modules.get(home) or importlib.import_module(home), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
