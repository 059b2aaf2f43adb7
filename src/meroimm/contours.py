"""Sampled paths in the plane, adaptive contour quadrature, and winding numbers.

Contours are piecewise-linear paths through the stored samples; circles are
built analytically from uniform angular samples so that closure is exact.
Winding numbers are read from the factored zeros and poles of a rational map:
each is exact or refused.  A function known only by its values gets none,
because samples cannot rule out a full turn between two of them.
Zero/pole counts come independently from the argument-principle integral,
taken by a trapezoid rule that doubles its nodes until the count settles at
an integer.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import CLEARANCE_FACTOR, COUNT_EVAL_BUDGET, QUAD_TOL
from .errors import InputError, PathTooCloseError, QuadratureBudgetError
from .poly import ComplexPolynomial
from .rational import Factored, RationalMap


@dataclass(frozen=True)
class Disc:
    """Closed disc in the plane."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0):
            raise InputError("disc radius must be positive")

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return abs(complex(z) - self.center) <= self.radius - margin

    def contains_disc(self, other: "Disc", margin: float = 0.0) -> bool:
        return (
            abs(other.center - self.center) + other.radius
            <= self.radius - margin
        )

    def boundary(self, samples: int = 256) -> "Contour":
        return Contour.circle(self.center, self.radius, samples=samples)

    def boundary_distance(self, z: complex) -> float:
        return abs(abs(complex(z) - self.center) - self.radius)


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear sampled path; closed paths repeat the first sample last."""

    samples: tuple[complex, ...]
    closed: bool

    def __post_init__(self):
        samples = tuple(complex(s) for s in self.samples)
        object.__setattr__(self, "samples", samples)
        if len(samples) < 2:
            raise InputError("a contour needs at least two samples")
        if self.closed and samples[0] != samples[-1]:
            raise InputError("closed contours must repeat the first sample last")
        for a, b in zip(samples, samples[1:]):
            if a == b:
                raise InputError("consecutive contour samples must be distinct")

    @classmethod
    def circle(
        cls,
        center: complex,
        radius: float,
        samples: int = 256,
        turns: int = 1,
    ) -> "Contour":
        """Uniformly sampled circle; ``turns`` may be negative for clockwise."""
        if radius <= 0:
            raise InputError("circle radius must be positive")
        if turns == 0:
            raise InputError("turns must be nonzero")
        if samples < 8:
            raise InputError("need at least 8 samples per turn")
        n = samples * abs(turns)
        sign = 1 if turns > 0 else -1
        center = complex(center)
        pts = [
            center + radius * cmath.exp(sign * 2j * math.pi * k / samples)
            for k in range(n)
        ]
        pts.append(pts[0])
        return cls(tuple(pts), closed=True)

    @classmethod
    def segment(cls, a: complex, b: complex, samples: int = 2) -> "Contour":
        a, b = complex(a), complex(b)
        pts = [a + (b - a) * k / (samples - 1) for k in range(samples)]
        return cls(tuple(pts), closed=False)

    @classmethod
    def polyline(cls, points: Sequence[complex], closed: bool = False) -> "Contour":
        pts = [complex(p) for p in points]
        if closed and pts[0] != pts[-1]:
            pts.append(pts[0])
        return cls(tuple(pts), closed=closed)

    @property
    def diameter(self) -> float:
        xs = [s.real for s in self.samples]
        ys = [s.imag for s in self.samples]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in zip(self.samples, self.samples[1:]))

    def clearance(self) -> float:
        """Default geometric clearance: a small fraction of the diameter."""
        return CLEARANCE_FACTOR * max(self.diameter, 1e-300)

    def distance_to(self, z):
        """Distance from z to the polyline; an array of points gives an array."""
        z = np.asarray(z, dtype=complex)[..., None]
        zs = np.array(self.samples, dtype=complex)
        a, d = zs[:-1], np.diff(zs)
        # np.hypot rounds as abs() on a Python complex does; np.abs may not
        t = ((z - a).real * d.real + (z - a).imag * d.imag) / np.hypot(d.real, d.imag) ** 2
        w = z - (a + np.clip(t, 0.0, 1.0) * d)
        out = np.min(np.hypot(w.real, w.imag), axis=-1)
        return float(out) if out.ndim == 0 else out


def _vectorized(f) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap f so that it maps complex arrays to complex arrays."""

    def call(zs: np.ndarray) -> np.ndarray:
        try:
            out = f(zs)
        except TypeError:
            out = None
        if isinstance(out, np.ndarray) and out.shape == zs.shape:
            return out.astype(complex)
        return np.array([complex(f(complex(z))) for z in zs.ravel()]).reshape(zs.shape)

    return call


# -- adaptive quadrature ------------------------------------------------------


def integrate_pieces(
    fz: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    d: np.ndarray,
    tol: float,
    *,
    eval_budget: int = 400_000,
    per_piece: bool = False,
):
    """Adaptive Simpson over a batch of straight pieces za[k] + t d[k], t in [0,1].

    All active intervals across all pieces are refined together, one
    vectorized evaluation per round.  Interval acceptance uses the Richardson
    estimate |S2 - S1| <= 15 * local tol; accepted intervals contribute the
    extrapolated value S2 + (S2 - S1)/15.

    Returns the total integral, or the per-piece integrals when
    ``per_piece`` is set.
    """
    lengths = np.abs(d)
    total_len = float(np.sum(lengths))
    n = len(za)
    totals = np.zeros(n, dtype=complex)
    if total_len == 0.0:
        return totals if per_piece else 0j

    def g(seg: np.ndarray, t: np.ndarray) -> np.ndarray:
        return fz(za[seg] + t * d[seg]) * d[seg]

    seg = np.arange(n)
    t0 = np.zeros(n)
    t2 = np.ones(n)
    f0 = g(seg, t0)
    f2 = g(seg, t2)
    f1 = g(seg, 0.5 * (t0 + t2))
    evals = 3 * n
    S = (t2 - t0) / 6.0 * (f0 + 4.0 * f1 + f2)
    tols = tol * lengths / total_len
    while len(seg):
        for arr in (f0, f1, f2):
            if not np.all(np.isfinite(arr)):
                raise PathTooCloseError(
                    "non-finite integrand: path too close to singularity"
                )
        tm = 0.5 * (t0 + t2)
        tl = 0.5 * (t0 + tm)
        tr = 0.5 * (tm + t2)
        fl = g(seg, tl)
        fr = g(seg, tr)
        evals += 2 * len(seg)
        Sl = (tm - t0) / 6.0 * (f0 + 4.0 * fl + f1)
        Sr = (t2 - tm) / 6.0 * (f1 + 4.0 * fr + f2)
        S2 = Sl + Sr
        done = np.abs(S2 - S) <= 15.0 * tols
        np.add.at(totals, seg[done], S2[done] + (S2[done] - S[done]) / 15.0)
        keep = ~done
        if not keep.any():
            break
        if evals > eval_budget:
            np.add.at(totals, seg[keep], S2[keep])
            raise QuadratureBudgetError(
                "quadrature budget exhausted",
                best=complex(np.sum(totals)),
            )
        half = 0.5 * tols[keep]
        seg = np.concatenate([seg[keep], seg[keep]])
        t0 = np.concatenate([t0[keep], tm[keep]])
        t2 = np.concatenate([tm[keep], t2[keep]])
        f0 = np.concatenate([f0[keep], f1[keep]])
        f2 = np.concatenate([f1[keep], f2[keep]])
        f1 = np.concatenate([fl[keep], fr[keep]])
        S = np.concatenate([Sl[keep], Sr[keep]])
        tols = np.concatenate([half, half])
    return totals if per_piece else complex(np.sum(totals))


def integrate(
    f,
    contour: Contour,
    tol: float = QUAD_TOL,
    *,
    eval_budget: int = 400_000,
) -> complex:
    """Integral of f dz along the contour by adaptive Simpson subdivision.

    ``tol`` is the absolute target for the Richardson error estimate summed
    over the whole path.  f must be finite on the path; a non-finite value
    raises PathTooCloseError, and an exhausted budget raises
    QuadratureBudgetError carrying the best estimate.
    """
    fz = _vectorized(f)
    za = np.array(contour.samples[:-1], dtype=complex)
    zb = np.array(contour.samples[1:], dtype=complex)
    return integrate_pieces(fz, za, zb - za, tol, eval_budget=eval_budget)


# -- winding numbers ----------------------------------------------------------


def winding_number(
    f: ComplexPolynomial | RationalMap | Factored,
    contour: Contour,
) -> int:
    """Total argument change of f along a closed contour, divided by 2 pi.

    The winding is read from the zeros and poles of f
    (:meth:`Factored.winding`), which is exact and refuses a zero or pole
    within the contour's clearance or not certified to lie on one side of
    the contour.  A Factored map brings its zeros and
    poles along; a RationalMap, or a ComplexPolynomial taken as one, is
    factored once on entry.  Any other f raises InputError: without a bound
    on f, no sampling of its values can rule out a full turn between two
    samples (Henrici, Applied and Computational Complex Analysis I, 4.6).
    """
    if not contour.closed:
        raise InputError("winding numbers need a closed contour")
    if isinstance(f, ComplexPolynomial):
        f = RationalMap(f)
    if isinstance(f, RationalMap):
        f = f.factor()
    if not isinstance(f, Factored):
        raise InputError(
            "winding numbers need a polynomial or rational map; "
            "sampled values cannot certify one"
        )
    return f.winding(contour)


def argument_principle_count(
    f: RationalMap | Factored,
    contour: Contour,
    *,
    clearance: float | None = None,
) -> int:
    """(1/2 pi i) times the contour integral of f'/f, settled at an integer.

    Counts zeros minus poles enclosed, with multiplicity.  Zeros and poles of
    f must stay off the contour by the geometric clearance.  A Factored map
    brings its zeros and poles along and nothing is solved; a RationalMap is
    factored once on entry.

    The integral is taken by the composite trapezoid rule on the chords of
    the contour.  The first rule uses the samples as nodes; each further rule
    halves every panel and reuses the values already computed.  On a circle
    sampled at N uniform angles the first rule is the circle's own N-point
    trapezoid rule times N sin(2 pi/N)/(2 pi), and the error decays
    geometrically in the node count once the panels are shorter than the
    distance from the contour to the nearest zero or pole (Trefethen &
    Weideman, SIAM Rev. 2014).

    Refinement stops when two successive counts lie within 0.1 of the same
    integer and the panels of the finer rule are no longer than that
    distance, where the error is about exp(-2 pi) per unit of multiplicity.
    No finer accuracy is asked for.  Coarser rules can step over a nearby
    zero or pole and agree on a wrong integer, so they never end the
    refinement.  If the next rule would take the total above
    COUNT_EVAL_BUDGET integrand evaluations, the count refuses with
    QuadratureBudgetError carrying the latest estimate in ``best``; it never
    returns an integer that has not settled.
    """
    if not contour.closed:
        raise InputError("argument principle needs a closed contour")
    if clearance is None:
        clearance = contour.clearance()
    F = f if isinstance(f, Factored) else f.factor()
    singular = [a for a, _ in F.zeros] + list(F.poles.locations)
    dists = contour.distance_to(np.array(singular, dtype=complex))
    for s, dist in zip(singular, dists):
        if dist <= clearance:
            raise PathTooCloseError(
                f"zero or pole at {s} within clearance of the contour"
            )
    reach = float(np.min(dists, initial=math.inf))
    n, d = F.map.num, F.map.den
    dn, dd = n.derivative(), d.derivative()

    def logderiv(z: np.ndarray) -> np.ndarray:
        vals = (dn(z) * d(z) - n(z) * dd(z)) / (n(z) * d(z))
        if not np.all(np.isfinite(vals)):
            raise PathTooCloseError(
                "non-finite integrand: path too close to singularity"
            )
        return vals

    zs = np.array(contour.samples, dtype=complex)
    za, chords = zs[:-1], np.diff(zs)
    fa = logderiv(za)
    total = 0.5 * complex(np.sum(chords * (fa + np.roll(fa, -1))))
    count = total / (2j * math.pi)
    longest = float(np.max(np.abs(chords)))
    panels = 1
    # the values reused so far plus the new midpoints: 2 * panels per chord
    while 2 * panels * len(za) <= COUNT_EVAL_BUDGET:
        t = (np.arange(panels) + 0.5) / panels
        mids = logderiv(za[:, None] + chords[:, None] * t)
        total = 0.5 * (total + complex(np.sum(chords * mids.sum(axis=1))) / panels)
        panels *= 2
        previous, count = count, total / (2j * math.pi)
        nearest = round(count.real)
        if (
            longest / panels <= reach
            and abs(count - nearest) < 0.1
            and abs(previous - nearest) < 0.1
        ):
            return int(nearest)
    raise QuadratureBudgetError(
        "argument-principle count did not settle at an integer within the budget",
        best=count,
    )
