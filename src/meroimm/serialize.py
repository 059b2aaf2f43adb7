"""JSON and CSV encodings for every value the library exchanges.

Complex numbers are [re, im] pairs; the point at infinity is the string
"inf".  Polynomials are arrays of pairs in ascending degree; rational maps
are {"num": ..., "den": ...}.  Values the package writes read back exactly
(floats pass through repr-faithful JSON).  A map read as input drops leading
coefficients of modulus <= COEFF_TOL, as every ComplexPolynomial built from
raw coefficients does; an immersion's computed polynomials are read untrimmed.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from typing import TYPE_CHECKING, Any, Sequence

from .contours import Contour, Disc
from .errors import InputError
from .immersions import CircularDomain, FormalSeed, HomotopyClass, ImmersionCertificate
from .poly import ComplexPolynomial
from .rational import PoleSet, RationalMap
from .sphere import INF, SpherePoint, is_inf

if TYPE_CHECKING:  # annotations only; the decoders import them when they run
    from .extension import IntegralImmersion
    from .grids import ParamGrid


def _refusing(what: str):
    """Decorate a decoder so that a missing field or a value of the wrong
    kind raises InputError naming ``what``, not a bare KeyError or ValueError."""

    def wrap(decode):
        @functools.wraps(decode)
        def call(data):
            try:
                return decode(data)
            except KeyError as exc:
                raise InputError(f"{what} is missing the field {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise InputError(f"malformed {what}: {exc}") from exc

        return call

    return wrap


# -- scalars ------------------------------------------------------------------


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(data) -> complex:
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 2
        or not all(isinstance(x, (int, float)) for x in data)
    ):
        raise InputError(f"expected [re, im], got {data!r}")
    return complex(data[0], data[1])


def sphere_point_to_json(p: SpherePoint):
    if is_inf(p):
        return "inf"
    return complex_to_json(complex(p))


def sphere_point_from_json(data) -> SpherePoint:
    if data == "inf":
        return INF
    return complex_from_json(data)


def real_to_json(x: float):
    return "inf" if math.isinf(x) else float(x)


# -- polynomials and rational maps ---------------------------------------------


def poly_to_json(p: ComplexPolynomial) -> list[list[float]]:
    return [complex_to_json(c) for c in p.coeffs]


def poly_from_json(data) -> ComplexPolynomial:
    if not isinstance(data, list):
        raise InputError("polynomial must be an array of [re, im] pairs")
    return ComplexPolynomial([complex_from_json(c) for c in data])


def rational_to_json(f: RationalMap) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rational_from_json(data) -> RationalMap:
    if isinstance(data, list):  # bare polynomial
        return RationalMap(poly_from_json(data))
    if not isinstance(data, dict) or "num" not in data:
        raise InputError('rational map must be {"num": [...], "den": [...]}')
    num = poly_from_json(data["num"])
    den = poly_from_json(data.get("den", [[1.0, 0.0]]))
    return RationalMap(num, den)


# -- geometry -------------------------------------------------------------------


def disc_to_json(d: Disc) -> dict:
    return {"center": complex_to_json(d.center), "radius": d.radius}


@_refusing("disc")
def disc_from_json(data) -> Disc:
    if not isinstance(data, dict) or "center" not in data or "radius" not in data:
        raise InputError('disc must be {"center": [re, im], "radius": r}')
    return Disc(complex_from_json(data["center"]), float(data["radius"]))


@_refusing("domain")
def domain_from_json(data) -> CircularDomain:
    if not isinstance(data, dict) or "outer" not in data:
        raise InputError('domain must be {"outer": disc, "holes": [disc, ...]}')
    holes = tuple(disc_from_json(h) for h in data.get("holes", []))
    return CircularDomain(disc_from_json(data["outer"]), holes)


@_refusing("contour")
def contour_from_json(data) -> Contour:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("contour must have a 'kind' field")
    kind = data["kind"]
    if kind == "circle":
        return Contour.circle(
            complex_from_json(data["center"]),
            float(data["radius"]),
            samples=data.get("samples", 256),
            turns=data.get("turns", 1),
        )
    if kind == "polyline":
        pts = [complex_from_json(p) for p in data["points"]]
        return Contour.polyline(pts, closed=bool(data.get("closed", False)))
    raise InputError(f"unknown contour kind {kind!r}")


# -- results --------------------------------------------------------------------


def pole_set_to_json(ps: PoleSet) -> list[dict]:
    return [
        {"location": complex_to_json(a), "order": m} for a, m in ps.entries
    ]


@_refusing("pole set")
def pole_set_from_json(data) -> PoleSet:
    return PoleSet(
        [(complex_from_json(e["location"]), e["order"]) for e in data]
    )


def certificate_to_json(c: ImmersionCertificate) -> dict:
    return {
        "valid": c.valid,
        "poles_inside": pole_set_to_json(c.poles_inside),
        "derivative_zero_count": c.derivative_zero_count,
        "boundary_clearance": real_to_json(c.boundary_clearance),
        "target": c.target,
    }


def homotopy_class_to_json(h: HomotopyClass) -> dict:
    return {
        "z_class": list(h.z_class) if h.z_class is not None else None,
        "mod2_class": list(h.mod2_class),
        "target": h.target,
    }


@_refusing("seed")
def seed_from_json(data) -> FormalSeed:
    if not isinstance(data, dict):
        raise InputError("seed must be an object")
    return FormalSeed(
        complex_from_json(data["base_point"]),
        sphere_point_from_json(data["target"]),
        complex_from_json(data["fiber"]),
        complex_from_json(data["frame"]),
    )


@_refusing("grid")
def grid_from_json(data) -> ParamGrid:
    from .grids import ParamGrid

    if not isinstance(data, dict) or "shape" not in data:
        raise InputError('grid must be {"shape": [...], "q": [...]}')
    shape = list(data["shape"])
    q = data.get("q", [])
    if len(shape) == 1:
        return ParamGrid.line(shape[0], q_nodes=q)
    if len(shape) == 2:
        return ParamGrid.box(shape[0], shape[1], q_nodes=q)
    raise InputError("grid shape must have 1 or 2 axes")


def immersion_to_json(F: IntegralImmersion) -> dict:
    theta = ComplexPolynomial.from_roots([a for a, _ in F.poles for _ in range(2)])
    return {
        "base_point": complex_to_json(F.base_point),
        "base_value": complex_to_json(F.base_value),
        "scale": complex_to_json(F.scale),
        "xi": poly_to_json(F.xi),
        "theta": poly_to_json(theta),
        "poles": pole_set_to_json(F.poles),
        "domain": disc_to_json(F.domain),
        "eta": {
            "lagrange": poly_to_json(F.eta_parts.lagrange),
            "sigma": poly_to_json(F.eta_parts.sigma),
            "nodes": [complex_to_json(a) for a in F.eta_parts.nodes],
            "expanded": poly_to_json(F.eta_parts.expanded),
        },
    }


@_refusing("immersion")
def immersion_from_json(data) -> IntegralImmersion:
    """The immersion written as ``data`` by :func:`immersion_to_json`.

    Only the independent fields are read, the computed polynomials without
    trimming; the derived ones (xi, theta, the eta nodes and expansion) must
    then match what the immersion computes, or the input is refused.
    """
    from .extension import ConstrainedEta, IntegralImmersion

    poles = pole_set_from_json(data["poles"])
    lagrange, sigma = (
        ComplexPolynomial([complex_from_json(c) for c in data["eta"][k]], coeff_tol=0.0)
        for k in ("lagrange", "sigma")
    )
    F = IntegralImmersion(
        base_point=complex_from_json(data["base_point"]),
        base_value=complex_from_json(data["base_value"]),
        scale=complex_from_json(data["scale"]),
        poles=poles,
        domain=disc_from_json(data["domain"]),
        eta_parts=ConstrainedEta(lagrange, sigma, poles.locations),
    )
    if immersion_to_json(F) != data:
        raise InputError("immersion fields disagree with the values they derive from")
    return F


# -- files ----------------------------------------------------------------------


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, repr-faithful floats, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_map_samples_csv(path, zs: Sequence[complex], fs: Sequence[SpherePoint]) -> None:
    """Map sample rows z_re, z_im, f_re, f_im; infinities print as inf."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z_re", "z_im", "f_re", "f_im"])
        for z, f in zip(zs, fs):
            z = complex(z)
            if is_inf(f):
                fre = fim = "inf"
            else:
                f = complex(f)
                fre, fim = repr(f.real), repr(f.imag)
            w.writerow([repr(z.real), repr(z.imag), fre, fim])
