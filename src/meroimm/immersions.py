"""Immersion certificates, winding-number classes, and seed discs.

A meromorphic map immerses a plane domain into the sphere when its poles are
simple and its derivative never vanishes off the poles; into the plane, when
additionally there are no poles at all.  Each public call factors the map
once (:class:`~meroimm.rational.Factored`), which solves its denominator
and leaves its numerator unsolved unless a pole can cancel.  Both the
verdict and the classes read the Wronskian W = n'd - nd' of the reduced
f = n/d, since f' = W/d^2: W has a zero of order m - 1 at a pole of order
m, and elsewhere the zeros of f'.  So f immerses a domain D into CP1 when
wind(W) = 0 over its boundary (the outer circle minus the holes), and into
C when wind(d) = 0 too; these windings read the coefficients alone.  The
certificate's evidence comes from the solved roots: it derives the factored
f' from the same W, solving only its numerator (two root solves in general
position), and checks wind(W) = its zero count in D + sum(m - 1) over the
poles in D, and, where d is wound, wind(d) = sum m.

Homotopy classes are winding-number vectors of the derivative along one
deterministic basis circle per hole: the class on a loop is
wind(W) - 2 wind(d) around its circle, from the same zero count, and no
zero of f' is solved.  The integer vector classifies plane targets
completely; for sphere targets only its parity vector is stable (crossing a
simple pole changes the integer winding by -2), so the integer classes are
reported relative to the chosen loops.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from .config import CLEARANCE_FACTOR, COUNT_NODE_CAP
from .contours import Contour, Disc, _counts, _result, winding_number
from .errors import (
    InputError,
    InternalConsistencyError,
    NotAnImmersionError,
    PathTooCloseError,
    PreconditionError,
    SingularityOnBoundaryError,
)
from .poly import ComplexPolynomial
from .rational import Factored, PoleSet, RationalMap, wronskian
from .sphere import INF, SpherePoint, _is_nan, is_inf

if TYPE_CHECKING:
    from .grids import ParamGrid

Target = Literal["C", "CP1"]


@dataclass(frozen=True)
class CircularDomain:
    """A disc with finitely many disjoint closed sub-discs removed."""

    outer: Disc
    holes: tuple[Disc, ...] = ()

    def __post_init__(self):
        holes = tuple(self.holes)
        object.__setattr__(self, "holes", holes)
        for h in holes:
            if not self.outer.contains_disc(h):
                raise InputError("each hole must lie in the interior of the outer disc")
        for i in range(len(holes)):
            for j in range(i):
                if abs(holes[i].center - holes[j].center) <= holes[i].radius + holes[j].radius:
                    raise InputError("holes must be pairwise disjoint")

    @classmethod
    def annulus(cls, inner_radius: float, outer_radius: float) -> "CircularDomain":
        return cls(Disc(0, outer_radius), (Disc(0, inner_radius),))

    @classmethod
    def disc(cls, d: Disc) -> "CircularDomain":
        return cls(d, ())

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if abs(z - self.outer.center) >= self.outer.radius:
            return False
        return all(abs(z - h.center) > h.radius for h in self.holes)

    def boundary_distance(self, z: complex) -> float:
        d = self.outer.boundary_distance(z)
        for h in self.holes:
            d = min(d, h.boundary_distance(z))
        return d


def _as_domain(D) -> CircularDomain:
    if isinstance(D, CircularDomain):
        return D
    if isinstance(D, Disc):
        return CircularDomain.disc(D)
    raise InputError("domain must be a Disc or a CircularDomain")


@dataclass(frozen=True)
class ImmersionCertificate:
    """Verdict plus the evidence it was computed from."""

    valid: bool
    poles_inside: PoleSet
    derivative_zero_count: int
    boundary_clearance: float
    target: Target


@dataclass(frozen=True)
class HomotopyClass:
    """Winding classes of the derivative on the basis loops."""

    z_class: tuple[int, ...] | None
    mod2_class: tuple[int, ...]
    target: Target

    def __post_init__(self):
        if self.z_class is not None:
            expected = tuple(w % 2 for w in self.z_class)
            if tuple(self.mod2_class) != expected:
                raise InputError("mod2_class must reduce z_class modulo two")

    @property
    def component(self) -> tuple[int, ...] | None:
        """The part of the class that names the path component: the integer
        vector for plane targets, its parity vector for sphere targets."""
        return self.z_class if self.target == "C" else self.mod2_class


def _refuse_near_boundary(D: CircularDomain, points) -> None:
    """SingularityOnBoundaryError if a point lies within the refusal band of
    a boundary circle of radius r: CLEARANCE_FACTOR times the outer diameter
    plus 2 pi r / COUNT_NODE_CAP."""
    # the band is the finest node spacing of the periodic rule that once made
    # the count, kept so that verify refuses the inputs it always refused, and
    # classify the poles it refused; the arc count needs no band
    clearance = CLEARANCE_FACTOR * 2.0 * D.outer.radius
    for circle in (D.outer, *D.holes):
        band = clearance + 2.0 * math.pi * circle.radius / COUNT_NODE_CAP
        if any(circle.boundary_distance(s) <= band for s in points):
            raise SingularityOnBoundaryError(
                f"pole or derivative zero within {band:g} of a boundary circle"
            )


def _rows(W: ComplexPolynomial, d: ComplexPolynomial, target: Target) -> tuple[RationalMap, ...]:
    """The rows that decide an immersion into the target, wound over the
    boundary: W, and d for plane targets."""
    return (RationalMap(W), RationalMap(d)) if target == "C" else (RationalMap(W),)


def _windings(rows, D: CircularDomain, extra: list) -> tuple[list[int], list]:
    """The winding of each row over the boundary of D (its count in the outer
    disc minus those in the holes), a count's error raised; then the counts,
    or errors, of the extra (map, disc) pairs: all as one block (``_counts``)."""
    pairs = [(g, b) for b in (D.outer, *D.holes) for g in rows]
    on_boundary, k = len(pairs), len(rows)
    pairs += extra
    counts = _counts([g for g, _ in pairs], [b for _, b in pairs])
    inside = [_result(x) for x in counts[:on_boundary]]  # row i in the outer disc, then in each hole
    return [inside[i] - sum(inside[i + k::k]) for i in range(k)], counts[on_boundary:]


def _before_count(F: Factored, D, target: Target):
    """verify_immersion up to its count, with its refusals: the rows to wind
    over the boundary of D (``_rows``), and ``finish(*windings)`` -> (cert, f')."""
    D = _as_domain(D)
    W = wronskian(F.map)
    fp = F.derivative(W)
    if fp.map.num.is_zero:
        raise InputError("constant map: the derivative vanishes identically")
    poles, zeros = F.poles, fp.zeros
    singular = list(poles.locations) + [z for z, _ in zeros]
    _refuse_near_boundary(D, singular)
    bclear = min((D.boundary_distance(s) for s in singular), default=math.inf)

    poles_inside = poles.filter(lambda a: D.contains(a))
    count_roots = sum(m for z, m in zeros if D.contains(z))

    def finish(wind_W: int, *wind_d: int) -> tuple[ImmersionCertificate, Factored]:
        checks = [("derivative zero", count_roots, wind_W - sum(m - 1 for _, m in poles_inside))]
        checks += [("pole", sum(poles_inside.orders), w) for w in wind_d]
        for what, by_roots, by_count in checks:
            if by_count != by_roots:
                raise InternalConsistencyError(f"{what} counts disagree: roots give {by_roots}, "
                                               f"argument principle gives {by_count}",
                                               by_roots=by_roots, by_count=by_count)
        valid = wind_W == 0 and not any(wind_d)
        return ImmersionCertificate(valid, poles_inside, count_roots, bclear, target), fp

    return _rows(W, F.map.den, target), finish


def verify_immersion(
    f: RationalMap,
    D,
    target: Target = "CP1",
) -> ImmersionCertificate:
    """Certify whether f immerses the domain into the chosen target.

    The verdict reads the coefficients: with f = n/d reduced, f immerses D
    into CP1 when its Wronskian W = n'd - nd' winds 0 times over the
    boundary (the outer circle minus the holes), and into C when d winds 0
    times too, both in one block of zero counts that reads no root.  The
    evidence reads the roots: f is factored once, which solves its
    denominator (its numerator only when a pole can cancel), and f' is
    factored from it and W with only its numerator solved, two root solves
    in general position; the zeros of f are never read.  The two agree when
    wind(W) is the number of zeros of f' in D plus sum(m - 1) over the poles
    of f in D, and, for C, wind(d) is sum m.  Disagreement points at the
    root solver: it raises InternalConsistencyError with both counts,
    ``by_roots`` and ``by_count``.  Refusals come in this order: an unknown
    target (InputError), a pole of f or zero of f' within 2 pi r /
    COUNT_NODE_CAP plus CLEARANCE_FACTOR times the outer diameter of a
    boundary circle of radius r (SingularityOnBoundaryError), a count's
    error, and a disagreement.
    """
    if target not in ("C", "CP1"):
        raise InputError(f"unknown target {target!r}")
    D = _as_domain(D)
    rows, finish = _before_count(f.factor(), D, target)
    return finish(*_windings(rows, D, [])[0])[0]


def chart_transition_winding(contour: Contour) -> int:
    """Winding of z -> -1/z^2 along the contour.

    This is the frame transition between the plane chart and the chart at
    infinity; it contributes -2 per turn around the origin, which is why only
    parities of derivative windings survive on sphere targets.
    """
    w = RationalMap(ComplexPolynomial([-1.0]), ComplexPolynomial([0, 0, 1.0]))
    return winding_number(w, contour)


def _loop_discs(M: CircularDomain) -> list[Disc]:
    """The discs whose boundary circles are the basis loops."""
    discs = []
    for i, hole in enumerate(M.holes):
        nearest = M.outer.radius - abs(hole.center - M.outer.center)
        for j, other in enumerate(M.holes):
            if j == i:
                continue
            nearest = min(nearest, abs(hole.center - other.center) - other.radius)
        discs.append(Disc(hole.center, 0.5 * (hole.radius + nearest)))
    return discs


def basis_loops(M: CircularDomain) -> list[Contour]:
    """One deterministic circle per hole, at the mid-radius between the hole
    boundary and the nearest other boundary feature."""
    return [Contour.circle(d.center, d.radius) for d in _loop_discs(M)]


def classify(
    f: RationalMap,
    M: CircularDomain,
    target: Target = "CP1",
) -> HomotopyClass:
    """Winding classes of f' on the basis loops of the domain.

    Requires a valid immersion for the chosen target.  The integer vector is
    loop-dependent for sphere targets (only its parity is intrinsic there);
    it is the complete invariant for plane targets.

    f = n/d is reduced by one factorization.  It immerses M when its
    Wronskian W = n'd - nd', and for C also d, winds 0 times over the
    boundary, as verify_immersion decides (see the module notes), and the
    class on a basis loop is wind(W) - 2 wind(d) around its circle.  All
    these windings are one block of zero counts (``contours._counts``),
    which read no root: no zero of f' is solved.  Refusals come in this order: a pole of f in verify_immersion's
    boundary band (SingularityOnBoundaryError), a boundary count's error, a
    map that is not an immersion (NotAnImmersionError), a pole of f within
    CLEARANCE_FACTOR times a loop's diameter of its circle
    (PathTooCloseError), and a loop count's error.
    """
    if target not in ("C", "CP1"):
        raise InputError(f"unknown target {target!r}")
    M = _as_domain(M)
    F = f.factor()
    W, d = wronskian(F.map), F.map.den
    if W.is_zero:
        raise InputError("constant map: the derivative vanishes identically")
    _refuse_near_boundary(M, F.poles.locations)
    loops = _loop_discs(M)
    both = _rows(W, d, "C")  # wound on every loop
    winds, on_loops = _windings(_rows(W, d, target), M, [(g, loop) for loop in loops for g in both])
    if any(winds):
        raise NotAnImmersionError("not an immersion: classification undefined")
    for loop in loops:
        clearance = CLEARANCE_FACTOR * 2.0 * loop.radius
        for a in F.poles.locations:
            if loop.boundary_distance(a) <= clearance:
                raise PathTooCloseError(f"pole at {a} within clearance of a basis loop")
    winds = [_result(x) for x in on_loops]
    z_class = tuple(w - 2 * p for w, p in zip(winds[0::2], winds[1::2]))
    return HomotopyClass(z_class, tuple(w % 2 for w in z_class), target)


def same_component(
    f: RationalMap,
    g: RationalMap,
    M: CircularDomain,
    target: Target = "CP1",
) -> bool:
    """Whether f and g can be joined by a path of immersions into the target.

    Plane targets compare the integer winding vectors; sphere targets only
    their parities.
    """
    cf = classify(f, M, target)
    cg = classify(g, M, target)
    return cf.component == cg.component


# -- seed discs ---------------------------------------------------------------


@dataclass(frozen=True)
class FormalSeed:
    """First-order data for an embedded disc: base point, target value,
    tangent-fiber value, and the frame constant of the trivializing field.

    The fiber value is read in the chart containing the target value: the
    plane chart for finite targets, the reciprocal chart when the target is
    the point at infinity.  A NaN target, or a base point, fiber value or
    frame constant that is not finite, raises InputError.  The target is
    stored as INF when it is infinite (INF, a real or a complex infinity) and
    as a complex otherwise.
    """

    base_point: complex
    target_value: SpherePoint
    fiber_value: complex
    frame_constant: complex

    def __post_init__(self):
        object.__setattr__(self, "base_point", complex(self.base_point))
        object.__setattr__(self, "fiber_value", complex(self.fiber_value))
        object.__setattr__(self, "frame_constant", complex(self.frame_constant))
        if not all(map(cmath.isfinite, (self.base_point, self.fiber_value, self.frame_constant))):
            raise InputError("base point, fiber value and frame constant must be finite")
        if _is_nan(self.target_value):
            raise InputError("target value must be a point of the sphere, not NaN")
        target = INF if is_inf(self.target_value) else complex(self.target_value)
        object.__setattr__(self, "target_value", target)
        if self.fiber_value == 0:
            raise InputError("fiber value must be nonzero")
        if self.frame_constant == 0:
            raise InputError("frame constant must be nonzero")


def seed_disc(seed: FormalSeed) -> RationalMap:
    """The affine disc with the prescribed 1-jet at the base point.

    Finite target a: z -> a + (v/c)(z - x1).  Target at infinity: the affine
    map lives in the reciprocal chart, so the result is the simple-pole map
    z -> c / (v (z - x1)).
    """
    x1, a = seed.base_point, seed.target_value
    v, c = seed.fiber_value, seed.frame_constant
    if is_inf(a):
        num = ComplexPolynomial([c])
        den = ComplexPolynomial([-v * x1, v])
        return RationalMap(num, den)
    a = complex(a)
    slope = v / c
    return RationalMap(ComplexPolynomial([a - slope * x1, slope]))


def _seed_disc_infinity_chart(seed: FormalSeed) -> RationalMap:
    """The seed written in the reciprocal chart, for finite nonzero targets.

    Same 1-jet as the plane-chart seed; differs away from the base point.
    """
    x1, a = seed.base_point, complex(seed.target_value)
    v, c = seed.fiber_value, seed.frame_constant
    if a == 0:
        raise InputError("reciprocal-chart seed needs a nonzero target value")
    # reciprocal chart: w -> 1/w sends the fiber value v to -v/a^2
    num = ComplexPolynomial([a * a * c])
    den = ComplexPolynomial([a * c + v * x1, -v])
    return RationalMap(num, den)


# blending across charts is restricted to targets in this modulus band;
# outside it one chart is degenerate and the cutoff must be 0 or 1
CHART_BAND = (0.01, 100.0)


def seed_disc_family(
    seeds: Sequence[FormalSeed],
    grid: ParamGrid,
    chi,
) -> list[RationalMap]:
    """Blend plane-chart and reciprocal-chart seeds with the cutoff chi.

    chi maps a grid parameter to [0,1]; 1 selects the plane-chart seed, 0 the
    reciprocal-chart seed.  Strictly interior cutoff values require both
    charts, hence target values away from 0 and infinity (within the chart
    band); otherwise a PreconditionError is raised.
    """
    if len(seeds) != grid.npoints:
        raise InputError("one seed per grid point required")
    out: list[RationalMap] = []
    for i, seed in enumerate(seeds):
        p = grid.point(i)
        t = float(chi(p if grid.ndim > 1 else p[0]))
        if not (0.0 <= t <= 1.0):
            raise InputError("chi must take values in [0,1]")
        a = seed.target_value
        if t == 1.0:
            out.append(seed_disc(seed))
            continue
        if t == 0.0:
            if is_inf(a):
                out.append(seed_disc(seed))
            else:
                out.append(_seed_disc_infinity_chart(seed))
            continue
        if is_inf(a) or complex(a) == 0 or not (
            CHART_BAND[0] <= abs(complex(a)) <= CHART_BAND[1]
        ):
            raise PreconditionError(
                f"chi({p}) = {t} is strictly between 0 and 1 but the target "
                "value admits only one chart"
            )
        g = seed_disc(seed)
        h = _seed_disc_infinity_chart(seed)
        out.append(t * g + (1.0 - t) * h)
    return out
