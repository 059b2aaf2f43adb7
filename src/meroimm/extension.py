"""Residue-constrained extension of sphere immersions from a small disc to a
larger one.

The pipeline: clear the poles of f' with the squared pole polynomial Theta,
take the logarithmic derivative of the cleared function h = f' Theta, replace
it by a polynomial that (i) approximates it on the small disc and (ii) takes
the prescribed logarithmic-residue values at every pole of the big disc, then
integrate back.  Condition (ii) makes every residue of the reconstructed
derivative vanish, so the primitive is single-valued and the result is a
sphere immersion on the whole big disc, no matter how far the approximation
drifts outside the small one.

The disc approximation realizes polynomial (Runge-type) approximation as
Taylor truncation at a base point, with coefficients recovered by FFT from
samples on a circle between the small disc and the nearest singularity.

A family is extended as one block of rows, one row per member, by the
periodic trapezoid rule (Trefethen & Weideman, SIAM Rev. 56 (2014)) applied
to many rows at once.  Each member is set up with every refusal of extending
it alone (its certificate, poles, base point and eta = h'/h), with the
windings of all members' Wronskians as one block (:func:`_extend`).  The eta
fits of all members then share one padded Horner per polynomial on their
rings and one FFT and one scaling per degree, each row checked on its own
disc; the boundary values on the small circle share one padded Horner over
xi and one FFT per node count of the rule, each row from its own start, and
one adaptive quadrature call for the base values of all rows
(``contours._integrate_paths``, the vectorized panels of Shampine, J.
Comput. Appl. Math. 211 (2008) 131-140, over many paths).  The block and
``evaluate`` share one integrand, h0 exp(xi)/Theta from ``_integrands``,
whose one row is a closure over the extension's own xi, h0 and poles:
``evaluate`` integrates it along one path, and an array of points as one
call over all their paths.  A row keeps its own error, and a block raises
the first in member order.  ``extend_immersion``, ``constrained_eta``,
``IntegralImmersion.values_on_circle`` and ``extension_boundary_error`` (at
256 boundary points) are the one-row case; each polynomial of a single row
is evaluated by its own Horner.  Every row's result is bit for bit the
one-row result.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import QUAD_TOL, RESIDUE_TOL, ROOT_TOL, as_integer, check_eps
from .blending import _taylor_truncations, _truncations
from .contours import (Disc, _counts, _integrate_paths, _per_row, _result, _unit_roots,
                       circle_primitives, circle_samples, integrate_pieces)
from .errors import (
    DegreeBudgetError,
    InputError,
    InternalConsistencyError,
    NotAnImmersionError,
    NumericalError,
    PathTooCloseError,
    PoleCollisionError,
    PreconditionError,
)
from .grids import ParamGrid
from .immersions import ImmersionCertificate, _before_count
from .poly import ComplexPolynomial, _column, _plus, _PolyRows, _rows, _times
from .poly import roots  # noqa: F401  never called here; perfbench's tracer test patches the name
from .rational import Factored, PoleSet, RationalMap, wronskian
from .sphere import INF, SpherePoint, chordal_distance, is_inf

# chordal target for the Q members of a family, which are reproduced on the big disc
Q_EPS = 1e-8


def residue_targets(A: PoleSet) -> list[complex]:
    """Logarithmic-residue targets g'(a)/g(a), g = prod over the other poles
    of (z-b)^2.

    A nonvanishing function h admits a single-valued primitive of h/Theta
    exactly when h'/h hits these values at the poles.
    """
    if any(m != 1 for _, m in A):
        raise PreconditionError("residue targets require simple poles")
    locs = A.locations
    out = []
    for i, a in enumerate(locs):
        others = [b for j, b in enumerate(locs) if j != i]
        if not others:
            out.append(0j)
            continue
        g = ComplexPolynomial.from_roots([b for b in others for _ in range(2)])
        out.append(g.derivative()(a) / g(a))
    return out


def _lagrange_basis(locs: Sequence[complex]) -> list[ComplexPolynomial]:
    basis = []
    for i, a in enumerate(locs):
        others = [b for j, b in enumerate(locs) if j != i]
        denom = 1.0 + 0j
        for b in others:
            denom *= a - b
        basis.append(ComplexPolynomial.from_roots(others, leading=1.0 / denom))
    return basis


@dataclass(frozen=True)
class ConstrainedEta:
    """Polynomial log-derivative replacement, kept in structured form.

    Stored: ``lagrange``, ``sigma`` and the interpolation ``nodes``.  Derived:
    ``expanded = lagrange + sigma * node_product``, where node_product is the
    monic product of (z - a) over the nodes.  The structured parts evaluate
    the interpolation conditions exactly (the node product vanishes by
    construction), which the expanded coefficients only do to rounding.  A
    node that is not finite raises InputError.
    """

    lagrange: ComplexPolynomial
    sigma: ComplexPolynomial
    nodes: tuple[complex, ...]
    expanded: ComplexPolynomial = field(init=False, compare=False)

    def __post_init__(self):
        if not all(map(cmath.isfinite, self.nodes)):
            raise InputError("interpolation nodes must be finite")
        node_product = ComplexPolynomial.from_roots(self.nodes).coeffs
        expanded = _plus(self.lagrange.coeffs, _times(self.sigma.coeffs, node_product))
        object.__setattr__(self, "expanded", ComplexPolynomial(expanded, coeff_tol=0.0))

    def value_at_node(self, i: int) -> complex:
        # node_product(node) = 0 exactly in the factored form
        return self.lagrange(self.nodes[i])


class _EtaFit(NamedTuple):
    """One member's eta fit, set up: eta = h'/h, the Lagrange part and node
    product of its interpolation nodes, the disc it must match eta on, and
    the circle |z - center| = rho its residual is sampled on."""

    eta: RationalMap
    lagrange: ComplexPolynomial
    node_product: ComplexPolynomial
    nodes: tuple[complex, ...]
    disc: Disc
    center: complex
    rho: float


def _eta_fit(h: Factored | RationalMap, poles: PoleSet, targets: Sequence[complex],
             disc: Disc, center: complex) -> _EtaFit:
    """The set-up of :func:`constrained_eta`, with its refusals."""
    center = complex(center)
    locs = list(poles.locations)
    if len(targets) != len(locs):
        raise InputError("one target per pole required")
    H = h if isinstance(h, Factored) else h.factor()
    eta = RationalMap(wronskian(H.map), H.map.num * H.map.den)

    # singularities of the residual: the zeros and poles of h, plus
    # interpolation nodes outside the disc (no cancellation is guaranteed there)
    singular = [s for s, _ in H.zeros] + list(H.poles.locations)
    for a, c in zip(locs, targets):
        if disc.contains(a):
            val = eta(a)
            if is_inf(val) or abs(complex(val) - c) > 1e-6 * (1.0 + abs(c)):
                raise NotAnImmersionError(
                    f"log-derivative misses its residue target at the pole {a}; "
                    "the input is not an immersion with simple poles there"
                )
        else:
            singular.append(a)

    r_eff = disc.radius + abs(center - disc.center)
    R = min((abs(s - center) for s in singular), default=math.inf)
    if R <= r_eff * (1.0 + 1e-9):
        raise NotAnImmersionError(
            "the log-derivative residual is singular on the closed disc; "
            "the map fails to immerse a neighborhood of it"
        )

    lagrange = ComplexPolynomial.zero()
    for c, phi in zip(targets, _lagrange_basis(locs)):
        lagrange = lagrange + c * phi
    rho = 0.5 * (r_eff + R) if math.isfinite(R) else 2.0 * r_eff
    rho = min(rho, 4.0 * r_eff)
    return _EtaFit(eta, lagrange, ComplexPolynomial.from_roots(locs), tuple(locs), disc,
                   center, rho)


def _fit_etas(fits: Sequence[_EtaFit], eps_etas: Sequence[float]) -> list:
    """The eta of each set-up fit to its eps_eta, or the error it raises: the
    block path of :func:`constrained_eta`.

    The residuals (eta - lagrange)/node_product of the open rows are sampled
    together, each on its own ring, by one padded Horner per polynomial, and
    fitted by one FFT per degree (``_taylor_truncations``) and made
    polynomials in z by one ``_truncations``.  Each row is checked on its own
    disc boundary, and closes at its first degree within its eps_eta.
    """
    out: list = [None] * len(fits)
    num, den = _PolyRows([f.eta.num for f in fits]), _PolyRows([f.eta.den for f in fits])
    lag, node = _PolyRows([f.lagrange for f in fits]), _PolyRows([f.node_product for f in fits])
    centers, rhos = _column([f.center for f in fits]), _column([f.rho for f in fits])
    is_open = np.ones(len(fits), dtype=bool)

    def residual(idx, u):
        z = _rows(centers, idx) + _rows(rhos, idx) * u
        return (num(idx, z) / den(idx, z) - lag(idx, z)) / node(idx, z)

    truncations = _taylor_truncations(residual, is_open)
    first = next(truncations, None)  # the first ring is sampled before the boundary

    # sampled error check on the disc boundary (max principle: the difference
    # is holomorphic on the disc, so the boundary sup bounds the interior),
    # at circle_samples(disc.center, disc.radius, 256) of each row's disc
    bdry = (np.array([f.disc.center for f in fits])[:, None]
            + np.array([f.disc.radius for f in fits])[:, None] * _unit_roots(256, 0.0))
    with np.errstate(all="ignore"):
        eta_bdry = num(None, bdry) / den(None, bdry)
    if not np.isfinite(eta_bdry).all():
        for i in np.flatnonzero(~np.isfinite(eta_bdry).all(axis=1) & is_open):
            out[i] = InternalConsistencyError("eta is singular on the disc boundary")
            is_open[i] = False
        if first:
            keep = is_open[first[0]]
            first = first[0][keep], first[1][keep]

    best = [math.inf] * len(fits)
    for idx, c in itertools.chain([first] if first else [], truncations):
        rows = idx.tolist()
        sigmas = _truncations(c, _rows(centers, idx), _rows(rhos, idx))
        parts = [ConstrainedEta(fits[i].lagrange, s, fits[i].nodes) for i, s in zip(rows, sigmas)]
        vals = _PolyRows([p.expanded for p in parts])(None, _rows(bdry, idx))
        err = np.abs(vals - _rows(eta_bdry, idx)).max(axis=1)
        for i, p, e in zip(rows, parts, err.tolist()):
            if e < eps_etas[i]:
                out[i], is_open[i] = p, False
            best[i] = min(best[i], e)
    for i, still in enumerate(is_open.tolist()):
        if still:
            out[i] = DegreeBudgetError(
                f"degree schedule exhausted at sampled error {best[i]:.3e} "
                f"(target {eps_etas[i]:.3e})",
                achieved=best[i],
            )
        elif out[i] is None:  # closed by a non-finite sample
            out[i] = InternalConsistencyError("residual sampling hit a singularity")
    return out


def constrained_eta(
    h: Factored | RationalMap,
    poles: PoleSet,
    targets: Sequence[complex],
    eps_eta: float,
    *,
    disc: Disc,
    center: complex,
) -> ConstrainedEta:
    """Polynomial eta-tilde with eta-tilde(a) = c_a exactly at every pole and
    sampled sup |eta-tilde - eta| < eps_eta on the disc, for eta = h'/h.

    h is the pole-cleared derivative of the map being extended; a
    RationalMap is factored once on entry.  The singularities of eta are the
    zeros and poles of h, read from its factors, and none may lie on a
    neighborhood of the disc.  Poles of the map being extended that lie in
    the disc must already satisfy eta(a) = c_a, or the input was not an
    immersion there.  The residual after removing the Lagrange interpolant is
    Taylor-truncated at ``center``, with the degree raised along the doubling
    schedule until the sampled bound on the disc boundary holds.  Degree N is
    fitted from 8N samples on a circle about ``center`` halfway to the
    nearest singularity, whose ring doubles with the degree by adding its
    midpoints; the aliasing that 8N samples leave, about q^(8N) for the
    radius ratio q < 1 of that circle to the singularity, stays far below the
    truncation tail q^(N+1).  A non-finite residual sample on any ring taken
    raises InternalConsistencyError.  This is the one-row case of the block
    path that :func:`extend_family` runs over all its members at once.
    """
    fit = _eta_fit(h, poles, targets, disc, center)
    return _result(_fit_etas([fit], [eps_eta])[0])


# -- reconstructed immersions -------------------------------------------------


@dataclass(frozen=True)
class IntegralImmersion:
    """Extension in integral form: f0 + integral of h0 exp(xi)/Theta.

    Stored: ``base_point`` z0, ``base_value`` f0, ``scale`` h0, ``poles``,
    ``domain`` and ``eta_parts``, whose nodes must be the pole locations.
    z0, f0 and h0 must be finite and h0 nonzero, or InputError is raised.
    Derived: ``xi``, the primitive of ``eta_parts.expanded`` vanishing at z0.
    Theta, the squared product of (z - a) over the poles, is evaluated as
    that product.  The interpolation conditions hold exactly in the
    structured form, so every residue of the integrand vanishes analytically;
    the derivative h0 exp(xi)/Theta never vanishes away from the poles.
    """

    base_point: complex
    base_value: complex
    scale: complex
    poles: PoleSet
    domain: Disc
    eta_parts: ConstrainedEta
    # sampled sup chordal distance to the extended map on the small disc's
    # boundary, set by extend_immersion; not serialized, not part of the value
    achieved_eps: float | None = field(default=None, compare=False)
    xi: ComplexPolynomial = field(init=False, compare=False)

    def __post_init__(self):
        if any(m != 1 for _, m in self.poles):
            raise InputError("integral immersions carry only simple poles")
        for name in ("base_point", "base_value", "scale"):
            if not cmath.isfinite(getattr(self, name)):
                raise InputError(f"the {name} of an integral immersion must be finite")
        if self.scale == 0:
            raise InputError("the derivative scale h0 must be nonzero")
        if self.eta_parts.nodes != self.poles.locations:
            raise InputError("the eta interpolation nodes must be the pole locations")
        object.__setattr__(self, "xi", self.eta_parts.expanded.antiderivative(self.base_point))

    # -- integrand ----------------------------------------------------------

    @functools.cached_property
    def detour_radius(self) -> float:
        """The radius of the arcs that paths take around the poles, computed
        once: the pole separation takes O(k^2) for k poles."""
        return min(0.02 * self.domain.radius, 0.5 * self.poles.min_separation())

    @functools.cached_property
    def _fz(self):
        """The integrand at the points z: the one row of :func:`_integrands`."""
        return functools.partial(_integrands([self]), None)

    # -- residues (structured evaluation; exact interpolation) ---------------

    def residues(self) -> list[complex]:
        """Numerical residues of the integrand at the poles.

        Res = h(a) (eta(a) - c_a) / g(a) with g = Theta/(z-a)^2; the
        structured eta evaluation makes eta(a) - c_a pure rounding.  A
        residue that is not finite in double precision, as when h(a) =
        scale exp(xi(a)) overflows, cannot be checked and raises
        NumericalError.
        """
        out = []
        targets = residue_targets(self.poles)
        locs = self.poles.locations
        for i, a in enumerate(locs):
            g = 1.0 + 0j
            for j, b in enumerate(locs):
                if j != i:
                    g *= (a - b) ** 2
            eta_at = self.eta_parts.value_at_node(i)
            try:
                res = self.scale * cmath.exp(self.xi(a)) * (eta_at - targets[i]) / g
            except OverflowError:
                res = complex(math.nan)
            if not cmath.isfinite(res):  # NaN compares false, so a tolerance test would pass it
                raise NumericalError(f"the residue at the pole {a} is out of double range")
            out.append(res)
        return out

    # -- evaluation -----------------------------------------------------------

    def _detour_path(self, z: complex, side: int) -> tuple[np.ndarray, np.ndarray]:
        """Polyline from the base point to z avoiding poles by arc detours.

        Returns (piece starts, piece deltas).  side +1 bends one way, -1 the
        other; the two agree because the integrand has no residues.  A
        segment that no pole's bubble meets is the one piece (z0, z - z0).
        """
        z0 = self.base_point
        d = z - z0
        L = abs(d)
        pts = [z0]
        if L == 0:
            return np.array([], dtype=complex), np.array([], dtype=complex)
        u = d / L
        events = []
        for a, _ in self.poles:
            delta = self.detour_radius
            # shrink the bubble if an endpoint sits inside it
            for endpoint in (z0, z):
                dist = abs(endpoint - a)
                if dist < delta:
                    delta = max(0.5 * dist, 1e-12)
            s = ((a - z0) * u.conjugate()).real
            hdist = abs(a - (z0 + s * u))
            if hdist >= delta or s < -delta or s > L + delta:
                continue
            dt = math.sqrt(max(delta * delta - hdist * hdist, 0.0))
            events.append((s, dt, a, delta))
        if not events:  # no bubble meets the segment: one straight piece
            return np.array([z0]), np.array([d])
        events.sort(key=lambda e: e[0])
        cursor = 0.0
        for s, dt, a, delta in events:
            t1 = max(s - dt, cursor)
            t2 = min(s + dt, L)
            if t2 <= t1:
                continue
            p1 = z0 + t1 * u
            p2 = z0 + t2 * u
            # walk the circle |w - a| = delta from p1's angle to p2's angle
            th1 = cmath.phase(p1 - a)
            th2 = cmath.phase(p2 - a)
            sweep = (th2 - th1) % (2.0 * math.pi)
            if side < 0:
                sweep = sweep - 2.0 * math.pi
            n_arc = max(8, int(abs(sweep) / (math.pi / 16.0)))
            q1 = a + delta * cmath.exp(1j * th1)
            pts.append(q1)
            for k in range(1, n_arc + 1):
                pts.append(a + delta * cmath.exp(1j * (th1 + sweep * k / n_arc)))
            cursor = t2
        pts.append(z)
        arr = np.array(pts, dtype=complex)
        starts = arr[:-1]
        deltas = arr[1:] - arr[:-1]
        keep = deltas != 0
        return starts[keep], deltas[keep]

    def _path_to(self, z: complex, side: int):
        """The detour path (piece starts, piece deltas) from the base point to
        z, or the value at z where no quadrature is needed: INF on a pole, the
        base value at the base point."""
        for a, _ in self.poles:
            if abs(z - a) <= ROOT_TOL:
                return INF
        starts, deltas = self._detour_path(z, side)
        return (starts, deltas) if len(starts) else self.base_value

    def evaluate(self, z, *, side: int = 1) -> SpherePoint | list[SpherePoint]:
        """Value at z by path integration from the base point, to the
        quadrature tolerance QUAD_TOL.

        A non-finite z raises InputError.  Pole locations return INF
        exactly; a value too large for double precision (the integrand
        overflows) is INF as well, chordally indistinguishable from it.  A
        1-D array of points gives a list of values, one per point, bit for
        bit the pointwise ones: the paths of all the points run in one
        quadrature call (:func:`_values_at`) over the one integrand, and the
        first point whose quadrature is refused, in order, raises its error.
        A side other than +1 or -1 raises InputError before any path is
        built.
        """
        if as_integer(side, "side") not in (1, -1):
            raise InputError(f"side must be +1 or -1, not {side!r}")
        if isinstance(z, (np.ndarray, list, tuple)) and np.ndim(z):
            zs = np.asarray(z, dtype=complex)
            if zs.ndim != 1:
                raise InputError("evaluate takes a point or a 1-D array of points")
            if not np.isfinite(zs).all():
                raise InputError("evaluation points must be finite")
            every = lambda idx, z: self._fz(z)  # noqa: E731  one integrand for every path
            return [_result(v) for v in _values_at([self] * zs.size, zs.tolist(), side, every)]
        z = complex(z)
        if not cmath.isfinite(z):
            raise InputError("evaluation point must be finite")
        path = self._path_to(z, side)
        if not isinstance(path, tuple):
            return path
        try:
            val = integrate_pieces(self._fz, *path, QUAD_TOL)
        except PathTooCloseError:
            return INF  # integrand overflow: the value has left double range
        return self.base_value + val

    def __call__(self, z: complex) -> SpherePoint:
        return self.evaluate(z)

    def values_on_circle(self, center: complex, radius: float, n: int) -> np.ndarray:
        """Values at the n samples circle_samples(center, radius, n): the one
        farthest from the poles as :meth:`evaluate` gives it, the others from
        it by the periodic rule (:func:`circle_primitives`) to the quadrature
        tolerance QUAD_TOL on 64 to 2^14 nodes, at least 4 (deg xi + 1), below
        which exp(xi) aliases unseen.  A closure defect
        over 1e4 QUAD_TOL + 1e-10 int |dF| is a residue: InternalConsistencyError.
        A pole within a detour radius of the circle, an INF entry, a non-finite
        sample or the cap sends the whole ring to one array :meth:`evaluate`,
        whose INF comes back as complex("inf").  A non-finite center, radius
        <= 0, or an n that is not an integer >= 1 (:func:`circle_samples`)
        raises InputError.  This is the one-row case of the block that
        :func:`extend_family` checks all its members with.
        """
        center = complex(center)
        if not (0 < radius < math.inf and cmath.isfinite(center)):
            raise InputError("values_on_circle needs a finite center and radius > 0")
        return _result(_circle_values([self], center, radius, n)[0])

    def certificate(self) -> ImmersionCertificate:
        """Sphere-immersion certificate on the extension disc.

        The derivative h0 exp(xi)/Theta is nonvanishing by its form, and
        log|F'| is finite off the poles wherever xi is.  With c and R the
        disc's center and radius, S = xi.horner_scale(max(1, |c| + R)) bounds
        every Horner partial sum of xi on the closed disc, so a finite 2S
        (which covers the rounding growth of any degree below 2^50) certifies
        the whole disc, and any other S raises NumericalError.
        """
        disc = self.domain
        bound = self.xi.horner_scale(max(1.0, abs(disc.center) + disc.radius))
        if not math.isfinite(2.0 * bound):
            raise NumericalError(f"xi leaves double range on the disc (Horner bound {bound:.3e})")
        poles_inside = self.poles.filter(
            lambda a: abs(a - self.domain.center) < self.domain.radius
        )
        bclear = math.inf
        for a, _ in poles_inside:
            bclear = min(bclear, self.domain.boundary_distance(a))
        return ImmersionCertificate(True, poles_inside, 0, bclear, "CP1")  # the poles are simple


def _integrands(Fs: Sequence[IntegralImmersion]):
    """fz(idx, z): the integrands h0 exp(xi)/Theta of the extensions Fs[idx]
    at the points z, one row each, by one padded Horner over xi; idx is
    increasing, as circle_primitives keeps it, or None for every row.  This
    is the one place the integrand is computed: a single extension's
    :meth:`~IntegralImmersion.evaluate` integrates its one row, and each row
    of a block keeps the bits of that row alone.  One extension gets a
    one-row closure over its own xi, h0 and poles, which ignores idx and
    keeps the shape of z.  The rows have one pole count, as the members of a
    family do: extend_family refuses a count that changes across the grid,
    whose cells connect every node."""
    if len(Fs) == 1:
        (F,) = Fs
        xi, h0, locs = F.xi, F.scale, F.poles.locations
        return lambda idx, z: _integrand(z, xi(z), locs, h0)
    xi, scale = _PolyRows([F.xi for F in Fs]), _column([F.scale for F in Fs])
    width = len(Fs[0].poles) if Fs else 0
    if any(len(F.poles) != width for F in Fs):
        raise InternalConsistencyError("the rows of a block differ in their pole counts")
    poles = [_column([F.poles.locations[j] for F in Fs]) for j in range(width)]
    return lambda idx, z: _integrand(z, xi(idx, z), [_rows(a, idx) for a in poles],
                                     _rows(scale, idx))


def _integrand(z, w, poles, scale):
    """h0 exp(xi)/Theta at the points z from w = xi(z), its poles and h0 (a
    column per row, or one row's values)."""
    # Theta as the product of its factors (z - a)^2: Horner on the
    # expanded Theta loses relative accuracy to cancellation near a
    # pole (Higham, Accuracy and Stability of Numerical Algorithms, 5.1)
    theta = np.ones(w.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for a in poles:
            t = z - a
            theta *= t * t
        # exp(w) is named: numpy would compute scale * (a large
        # temporary) as temporary * scale, whose complex product rounds
        # differently, so that a point's bits would depend on the block
        e = np.exp(w)
        return scale * e / theta


def _values_at(Fs: Sequence[IntegralImmersion], zs: Sequence[complex], side: int, fz) -> list:
    """Fs[i].evaluate(zs[i], side=side) for each i, or the error it raises:
    the paths of all i in one :func:`~meroimm.contours._integrate_paths` call
    over fz(idx, z), the rows idx of ``_integrands(Fs)`` or one integrand
    that all the Fs share."""
    paths = [F._path_to(z, side) for F, z in zip(Fs, zs)]
    pieces = [p for p in paths if isinstance(p, tuple)]
    sums = [None] * len(paths)
    if pieces:
        sums = _integrate_paths(fz, np.concatenate([p[0] for p in pieces]),
                                np.concatenate([p[1] for p in pieces]), QUAD_TOL,
                                [len(p[0]) if isinstance(p, tuple) else 0 for p in paths])
    out = []
    for F, path, val in zip(Fs, paths, sums):
        if not isinstance(path, tuple):
            out.append(path)
        elif isinstance(val, PathTooCloseError):
            out.append(INF)  # integrand overflow: the value has left double range
        else:
            out.append(val if isinstance(val, Exception) else F.base_value + val)
    return out


def _circle_values(Fs: Sequence[IntegralImmersion], center: complex, radius: float,
                   n: int) -> list:
    """values_on_circle(center, radius, n) of each extension, or the error it
    raises.  The rows whose poles clear the circle run one block of the
    periodic rule (:func:`circle_primitives`), each from its own start
    4 (deg xi + 1).  Every row takes its base value at its sample k0
    farthest from its poles, all of them from one quadrature call over
    ``_integrands(Fs)`` (:func:`_values_at`), and the rows with a rule
    and a finite base value are assembled as one array, base + prim -
    prim[k0].  The rows have one pole count, as ``_integrands`` needs.  A
    single row takes the route of one extension (:func:`_ring_values`),
    since a one-row block costs an extend op about 3%."""
    ring = circle_samples(center, radius, n)
    if len(Fs) == 1:
        return [_per_row(_ring_values, Fs[0], ring, center, radius)]
    if not Fs:
        return []
    fz = _integrands(Fs)
    locs = np.array([F.poles.locations for F in Fs], dtype=complex).reshape(len(Fs), -1)
    k0 = np.abs(ring[:, None] - locs[:, None, :]).min(axis=2, initial=math.inf).argmax(axis=1)
    bases = _values_at(Fs, ring[k0].tolist(), 1, fz)
    radii = np.array([F.detour_radius for F in Fs])[:, None]
    ruled = np.flatnonzero((np.abs(np.abs(locs - center) - radius) > radii).all(axis=1))
    rule_of = dict(zip(ruled.tolist(), circle_primitives(
        lambda idx, z: fz(ruled[idx], z), center, radius, n, QUAD_TOL,
        [4 * len(Fs[i].xi.coeffs) for i in ruled])))
    out: list = [None] * len(Fs)
    rows = []  # the rows taken from their rule
    for i, (F, base) in enumerate(zip(Fs, bases)):
        rule = rule_of.get(i)
        if isinstance(base, Exception):
            out[i] = base
        elif rule is None or is_inf(base):
            out[i] = _per_row(_evaluated, F, ring)
        elif (error := _closure_error(*rule[1:])) is not None:
            out[i] = error
        else:
            rows.append(i)
    if rows:
        prims = np.array([rule_of[i][0] for i in rows])
        base = np.array([complex(bases[i]) for i in rows])[:, None]
        for i, vals in zip(rows, base + (prims - prims[np.arange(len(rows)), k0[rows]][:, None])):
            out[i] = vals
    return out


def _ring_values(F: IntegralImmersion, ring: np.ndarray, center: complex,
                 radius: float) -> np.ndarray:
    """The one-row route of :func:`_circle_values`: the base value at k0 by
    :meth:`~IntegralImmersion.evaluate`, the others from the periodic rule,
    or the whole ring by :func:`_evaluated`."""
    locs = np.array(F.poles.locations, dtype=complex)
    k0 = int(np.argmax(np.abs(ring[:, None] - locs).min(axis=1, initial=math.inf)))
    rule = None
    if np.all(np.abs(np.abs(locs - center) - radius) > F.detour_radius):
        rule = circle_primitives(_integrands([F]), center, radius, len(ring), QUAD_TOL,
                                 [4 * len(F.xi.coeffs)])[0]
    base = F.evaluate(complex(ring[k0]))
    if rule is None or is_inf(base):
        return _evaluated(F, ring)
    if (error := _closure_error(*rule[1:])) is not None:
        raise error
    return complex(base) + (rule[0] - rule[0][k0])


def _closure_error(defect: complex, mass: float) -> InternalConsistencyError | None:
    """The error of a circle whose closure defect, over 1e4 QUAD_TOL + 1e-10
    int |dF|, shows a residue, or None."""
    if abs(defect) > 1e4 * QUAD_TOL + 1e-10 * mass:
        return InternalConsistencyError(f"nonzero residue (closure defect {abs(defect):.2e})")
    return None


def _evaluated(F: IntegralImmersion, ring: np.ndarray) -> np.ndarray:
    """The values of F at the ring by one array :meth:`~IntegralImmersion.evaluate`,
    INF as complex("inf"): the way round a pole near the ring, an INF base
    value or a ring without a rule."""
    return np.array([complex("inf") if is_inf(v) else complex(v) for v in F.evaluate(ring)])


# -- the extension pipeline ---------------------------------------------------


def _pipeline_data(F: Factored, fp: Factored, d1: Disc):
    """Pole set in the big disc and the factored cleared derivative h, from
    the factored map and derivative."""
    inside = F.poles.filter(d1.contains)
    if any(m != 1 for _, m in inside):
        raise PreconditionError(
            "extension requires simple, pairwise distinct poles in the big disc"
        )
    return inside, fp.cleared(d1.contains)


def _choose_base_point(d0: Disc, poles: PoleSet) -> complex:
    """Center of the small disc, nudged off any too-close pole."""
    z0 = d0.center
    if not len(poles):
        return z0
    nearest = min(poles.locations, key=lambda a: abs(a - z0))
    if abs(nearest - z0) >= 0.05 * d0.radius:
        return z0
    if abs(nearest - z0) == 0:
        direction = 1.0 + 0j
    else:
        direction = (z0 - nearest) / abs(z0 - nearest)
    return z0 + 0.1 * d0.radius * direction


def extend_immersion(
    f: RationalMap,
    d0: Disc,
    d1: Disc,
    eps: float,
) -> IntegralImmersion:
    """Extend a sphere immersion from the small disc to the big one.

    The output is an immersion on the whole big disc by construction, with
    the same simple poles f has there, and its sampled chordal distance to f
    on the small disc's boundary stays below eps (which bounds the interior
    difference where both maps are finite, by the maximum principle).  That
    measured distance is returned as the output's ``achieved_eps``.  This is
    the one-member case of :func:`extend_family`'s block.
    """
    return _extend_with_ring(f, d0, d1, eps)[0]


def _extend_with_ring(f: RationalMap, d0: Disc, d1: Disc,
                      eps: float) -> tuple[IntegralImmersion, np.ndarray]:
    """extend_immersion(f, d0, d1, eps), with the extension's values at
    circle_samples(d0.center, d0.radius, 256), which its achieved_eps was
    measured on: values_on_circle(d0.center, d0.radius, 256), bit for bit."""
    F = f.factor()
    check_eps(eps)
    outs, rings = _extend([(f, F, eps, d0)], d0, d1)
    return _result(outs[0]), rings[0]


def _set_up(f: RationalMap, F: Factored, d0: Disc, d1: Disc, disc: Disc, finish, count):
    """A member's certificate, finished from the winding of its W around ``disc``
    (or its error), then its poles, base point, values and eta fit, with refusals."""
    cert, fp = finish(_result(count))
    if not cert.valid:
        raise NotAnImmersionError(
            f"the map does not immerse the disc of center {disc.center:g} and "
            f"radius {disc.radius:g} into the sphere"
        )
    poles, h = _pipeline_data(F, fp, d1)
    z0 = _choose_base_point(d0, poles)
    targets = residue_targets(poles)
    f0 = f(z0)
    h0 = h.map(z0)
    if is_inf(f0) or is_inf(h0) or complex(h0) == 0:
        raise PreconditionError("base point landed on a singular value")
    return poles, z0, complex(f0), complex(h0), _eta_fit(h, poles, targets, disc, z0)


def _integral(set_up, parts: ConstrainedEta, d1: Disc) -> IntegralImmersion:
    """The extension a round builds from a member's set-up and its eta."""
    poles, z0, f0, h0, _ = set_up
    out = IntegralImmersion(
        base_point=z0, base_value=f0, scale=h0, poles=poles, domain=d1, eta_parts=parts
    )
    worst_res = max((abs(r) for r in out.residues()), default=0.0)
    if worst_res > RESIDUE_TOL:
        raise InternalConsistencyError(f"constructed integrand has residue {worst_res:.2e}")
    return out


def _extend(members: Sequence, d0: Disc, d1: Disc) -> tuple[list, list]:
    """The extension of each member (f, F, eps, disc), or the error that
    extending it alone raises: f, factored as F, to the chordal target eps,
    certified and its log-derivative matched on ``disc``.  extend_family
    passes d1 there to reproduce Q members, which are already immersions on
    the big disc.  Second, the values of each extension at the 256 samples
    of d0's circle that its achieved_eps was measured on (None for an error).

    The set-up runs in three passes, in member order: each certificate up to
    its count (``_before_count``), the windings of each member's Wronskian
    around its disc, as one block (:func:`_counts`), and the rest of each
    set-up (``_set_up``).  The first and last stop at the first member that fails.  A member's error is that
    of its first failing pass, and the list ends at the first failing member,
    as when the members are set up one by one.  The rest run as one block:
    one ``_fit_etas`` and one ``_circle_values`` over d0 per round.  A member
    that misses eps there tightens its eps_eta by 32 and refits, alone with
    the other misses, for up to 4 rounds.
    """
    if not d1.contains_disc(d0):
        raise PreconditionError("the small disc must lie inside the big disc")
    pres = []
    for _, F, _, disc in members:
        pres.append(_per_row(_before_count, F, disc, "CP1"))
        if isinstance(pres[-1], Exception):
            break
    counted = [pre for pre in pres if not isinstance(pre, Exception)]  # all but a failing last
    counts = _counts([W for (W,), _ in counted], [m[3] for m in members[:len(counted)]]) + [None]
    out: list = []
    for (f, F, _, disc), pre, count in zip(members, pres, counts):
        out.append(pre if isinstance(pre, Exception) else
                   _per_row(_set_up, f, F, d0, d1, disc, pre[1], count))
        if isinstance(out[-1], Exception):
            break
    set_ups = [x for x in out if not isinstance(x, Exception)]

    eps_eta = [eps / (64.0 * max(1.0, d1.radius)) for _, _, eps, _ in members]
    best, rings = [math.inf] * len(set_ups), [None] * len(out)
    todo = list(range(len(set_ups)))
    for _ in range(4):
        if not todo:
            break
        etas = _fit_etas([set_ups[i][4] for i in todo], [eps_eta[i] for i in todo])
        for i, eta in zip(todo, etas):
            out[i] = eta if isinstance(eta, Exception) else _per_row(_integral, set_ups[i], eta, d1)
        todo = [i for i in todo if not isinstance(out[i], Exception)]
        measured = []
        for i, vals in zip(todo, _circle_values([out[i] for i in todo], d0.center, d0.radius, 256)):
            if isinstance(vals, Exception):
                out[i] = vals
            else:
                measured.append((i, vals))
        sups = _boundary_errors([members[i][0] for i, _ in measured],
                                np.reshape([v for _, v in measured], (len(measured), 256)), d0)
        misses = []
        for (i, vals), sup in zip(measured, sups):
            if sup < members[i][2]:
                # out[i] is not shared yet: set the field, as a copy would derive xi again
                object.__setattr__(out[i], "achieved_eps", sup)
                rings[i] = vals
            else:
                best[i] = min(best[i], sup)
                eps_eta[i] /= 32.0
                misses.append(i)
        todo = misses
    for i in todo:
        eps = members[i][2]
        out[i] = DegreeBudgetError(f"chordal target {eps} not reached (best {best[i]:.3e})",
                                   achieved=best[i])
    return out, rings


def extension_boundary_error(f: RationalMap, F: IntegralImmersion, d0: Disc) -> float:
    """Sampled sup of the chordal distance between f and F at 256 equispaced
    points of the disc boundary, circle_samples(d0.center, d0.radius, 256).

    Both maps are sampled as arrays and the distance is taken in numpy; an
    entry that is non-finite or above 1e140 in either goes through the
    scalar f and :func:`chordal_distance`, which handle poles and INF.  This
    is the one-row case of the block that :func:`extend_family` measures
    all its members with.
    """
    vals = F.values_on_circle(d0.center, d0.radius, 256)
    return _boundary_errors([f], vals[None], d0)[0]


def _boundary_errors(fs: Sequence[RationalMap], vals: np.ndarray, d0: Disc) -> list[float]:
    """extension_boundary_error of each map fs[i] against the values vals[i]
    of its extension at circle_samples(d0.center, d0.radius, vals.shape[1]);
    the maps are sampled by one padded Horner over their numerators and one
    over their denominators, which keeps the bits of f(ring)."""
    ring = circle_samples(d0.center, d0.radius, vals.shape[1])
    with np.errstate(all="ignore"):
        fv = _PolyRows([f.num for f in fs])(None, ring) / _PolyRows([f.den for f in fs])(None, ring)
        fv = fv.reshape(vals.shape)
        # np.hypot rounds as abs() on a Python complex does
        ap, aq = np.hypot(fv.real, fv.imag), np.hypot(vals.real, vals.imag)
        plain = (ap <= 1e140) & (aq <= 1e140)
        diff = fv - vals
        dist = 2.0 * np.hypot(diff.real, diff.imag) / np.sqrt((1.0 + ap * ap) * (1.0 + aq * aq))
    if plain.all():
        return np.minimum(2.0, np.max(dist, axis=1)).tolist()
    worst = np.minimum(2.0, np.max(dist, axis=1, where=plain, initial=0.0)).tolist()
    for i in np.flatnonzero(~plain.all(axis=1)):
        for z, v in zip(ring[~plain[i]], vals[i][~plain[i]]):
            worst[i] = max(worst[i], chordal_distance(fs[i](complex(z)), v))
    return worst


# -- parametric families ------------------------------------------------------


def _check_pole_continuity(grid: ParamGrid, pole_sets: list[PoleSet]):
    for i, j in grid.adjacent_pairs():
        if len(pole_sets[i]) != len(pole_sets[j]):
            raise PoleCollisionError(
                f"pole count changes across the grid cell ({i}, {j}): "
                f"{len(pole_sets[i])} vs {len(pole_sets[j])}"
            )


def extend_family(
    maps: Sequence[RationalMap],
    grid: ParamGrid,
    d0: Disc,
    d1: Disc,
    eps: float,
) -> list[IntegralImmersion]:
    """Extend a sampled family, reproducing the members marked by the grid's Q.

    Every member must immerse the small disc; Q members must immerse the big
    disc, and their outputs match them there (the log-derivative is fitted on
    the big disc, to the chordal target min(eps, Q_EPS)).  Each map is
    factored once: the pole-continuity check and the member's extension read
    the same factors.  The members are extended as one block (see the module
    notes): each output is bit for bit extend_immersion's for its member, or
    for a Q member the one-member block on the big disc, and a failure
    raises the error of the first member that fails, in order.
    Pole count must stay constant across grid cells; a jump raises
    PoleCollisionError naming the cell, before any member is extended.  An
    eps that is not a finite positive number raises InputError.
    """
    check_eps(eps)  # Q members alone would see only min(eps, Q_EPS)
    if len(maps) != grid.npoints:
        raise InputError("one map per grid point required")
    factors = [f.factor() for f in maps]
    _check_pole_continuity(grid, [F.poles.filter(d1.contains) for F in factors])
    members = [(f, F, min(eps, Q_EPS) if on_q else eps, d1 if on_q else d0)
               for f, F, on_q in zip(maps, factors, grid.q_mask)]
    return [_result(F) for F in _extend(members, d0, d1)[0]]
