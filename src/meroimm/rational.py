"""Rational maps (quotients of complex polynomials), pole data, and residues.

A RationalMap is stored as given.  :meth:`RationalMap.factor` makes the
denominator monic, cancels common roots of numerator and denominator by root
matching, and returns a :class:`Factored`: the reduced map with its PoleSet
and its zeros.  ``reduced``, ``pole_set`` and ``zero_set`` read that value.
The denominator is solved at once.  The numerator is solved only when a
pole fails a certified exclusion test (a root of the numerator could then
match it); otherwise its zeros are solved when first read, by ``zero_set``,
and verify, classify, the windings and the extensions never read them.  The factored derivative takes its poles
(a, m+1) from the poles (a, m) of the map, and the extension's h = f' Theta
drops those in the big disc, so neither ever solves a denominator.
:func:`wronskian` gives W = n'd - nd', so that f' = W / d^2: the quotient
rule deflates it, and the certificates, classify, the extension's eta and
``meroimm wind`` wind it.
:func:`~meroimm.poly.roots` has two callers, :meth:`RationalMap.factor` and
:attr:`Factored.zeros`: every other singular point in the package is read
from a Factored.
Scalar evaluation lands on the Riemann sphere (a pole returns INF); an
indeterminate 0/0 of an unreduced fraction raises.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ROOT_TOL, as_integer
from .errors import InputError, NumericalError, UnreducedFractionError
from .poly import ComplexPolynomial, _as_poly, _number, _plus, _slope, _times, roots, _EPS
from .sphere import INF, SpherePoint, _is_nan, is_inf


@dataclass(frozen=True)
class PoleSet:
    """Pole locations with orders, sorted by (real, imag).

    Locations must be finite and pairwise distinct beyond the
    root-separation tolerance ROOT_TOL; InputError otherwise.
    """

    entries: tuple[tuple[complex, int], ...]

    def __init__(self, entries):
        es = sorted(
            ((complex(a), as_integer(m, "a pole order")) for a, m in entries),
            key=lambda e: (e[0].real, e[0].imag),
        )
        if not all(cmath.isfinite(a) for a, _ in es):
            raise InputError("pole locations must be finite")
        for i in range(len(es)):
            if es[i][1] < 1:
                raise InputError("pole orders must be positive")
            for j in range(i):
                if abs(es[i][0] - es[j][0]) <= ROOT_TOL:
                    raise InputError(
                        f"poles {es[j][0]} and {es[i][0]} coincide within tolerance"
                    )
        object.__setattr__(self, "entries", tuple(es))

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(a for a, _ in self.entries)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def filter(self, keep) -> "PoleSet":
        """The entries whose location passes keep, in order: a subset of a
        checked set, so not checked again, sharing this set's entries."""
        return _checked(e for e in self.entries if keep(e[0]))

    def min_separation(self) -> float:
        locs = self.locations
        if len(locs) < 2:
            return math.inf
        return min(
            abs(locs[i] - locs[j]) for i in range(len(locs)) for j in range(i)
        )


def _checked(entries) -> PoleSet:
    """The PoleSet of entries already sorted, finite, positive and apart, as they are."""
    P = object.__new__(PoleSet)
    object.__setattr__(P, "entries", tuple(entries))
    return P


def _shift_noise(p: ComplexPolynomial, a: complex) -> list[float]:
    """Rounding floors for the Taylor-shift coefficients of p at a, one per
    coefficient.

    Coefficient k of p(a + t) is the sum of C(j, k) p_j a^(j-k) over j >= k,
    so its floor is 16 n eps times the same sum taken in moduli: the Taylor
    shift of |p| at |a|.  A single floor shared by all coefficients is wrong
    when |a| is small, since the k = 0 sum is then about |p_0| and may sit
    far below the rounding error of a higher coefficient.
    """
    absp = ComplexPolynomial([abs(c) for c in p.coeffs], coeff_tol=0.0)
    scale = 16.0 * max(len(p.coeffs), 1) * _EPS
    return [
        scale * max(c.real, 1e-300) for c in absp.taylor_shift(abs(a)).coeffs
    ]


def _first_above_noise(p: ComplexPolynomial, a: complex) -> int | None:
    """Index of the first Taylor coefficient of p at a above its noise floor."""
    if p.is_zero:
        return None
    shifted = p.taylor_shift(a)
    for k, (c, floor) in enumerate(zip(shifted.coeffs, _shift_noise(p, a))):
        if abs(c) > floor:
            return k
    return None


def _vanishing_order(p: ComplexPolynomial, a: complex, max_order: int) -> int:
    """Order of a as a root of p, judged against the Taylor-shift noise floors."""
    k = _first_above_noise(p, a)
    return max_order if k is None else min(k, max_order)


_APART = 4.0 * ROOT_TOL  # the radius that _apart clears around a pole


def _apart(p: ComplexPolynomial, a: complex) -> bool:
    """Whether p has no root within _APART of a, and no root that ``roots``
    accepts within ROOT_TOL of a: then reduction by root matching cancels
    nothing at a.

    With t = |a| + _APART, S = sum |c_k| t^k and D = sum k |c_k| t^(k-1)
    (one Horner pass), D bounds |p'| on the disc and 8 (n+1) eps S the
    Horner rounding of p there (Higham, Accuracy and Stability, 5.1).  A
    root b within _APART of a gives |p(a)| <= _APART D.  A root that
    ``roots`` accepts has a computed residual below 64 n eps S or below
    8 eps (1 + t) |p'(b)|, so within ROOT_TOL of a it gives
    |p(a)| <= (ROOT_TOL + 16 eps (1 + t)) D + 72 (n+1) eps S.  The test
    |p(a)| - 80 (n+1) eps S > (_APART + 16 eps (1 + t)) D excludes both.
    """
    t = abs(a) + _APART
    s = d = 0.0
    for c in reversed(p.coeffs):
        d = d * t + s
        s = s * t + abs(c)
    noise = 80.0 * len(p.coeffs) * _EPS * max(s, 1e-300)
    return abs(p(a)) - noise > (_APART + 16.0 * _EPS * (1.0 + t)) * d


@dataclass(frozen=True)
class RationalMap:
    """Quotient num/den of two complex polynomials."""

    num: ComplexPolynomial
    den: ComplexPolynomial

    def __init__(self, num, den=(1.0,)):
        num = _as_poly(num) if not isinstance(num, ComplexPolynomial) else num
        den = _as_poly(den) if not isinstance(den, ComplexPolynomial) else den
        if den.is_zero:
            raise InputError("denominator is the zero polynomial")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> ComplexPolynomial:
        if not self.is_polynomial:
            raise InputError("map has a nonconstant denominator")
        c = self.den.coeffs[0]
        return ComplexPolynomial([x / c for x in self.num.coeffs], coeff_tol=0.0)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z) -> SpherePoint:
        """Evaluate on the sphere.  Arrays evaluate by plain division
        (poles produce non-finite entries, and a NaN entry gives NaN, by
        design: no entry is checked); scalars get the full
        pole/indeterminacy treatment; a scalar NaN raises InputError.  At
        infinity the value is the degree limit: 0, the ratio of the leading
        coefficients, or INF as deg num is below, equal to or above deg den."""
        if isinstance(z, np.ndarray):
            with np.errstate(all="ignore"):
                return self.num(z) / self.den(z)
        if z is not INF:
            z = complex(z)
            if _is_nan(z):
                raise InputError("a rational map is evaluated at points of the sphere, not NaN")
        if is_inf(z):
            excess = self.num.degree - self.den.degree
            if excess == 0:
                return self.num.coeffs[-1] / self.den.coeffs[-1]
            return 0j if excess < 0 else INF
        dval = self.den(z)
        dnoise = 8.0 * max(len(self.den.coeffs), 1) * _EPS * max(
            self.den.horner_scale(abs(z)), 1e-300
        )
        if abs(dval) > dnoise:
            return self.num(z) / dval
        # z sits on a denominator root: compare vanishing orders
        m_den = _vanishing_order(self.den, z, self.den.degree + 1)
        m_num = _vanishing_order(self.num, z, self.num.degree + 1) if not self.num.is_zero else 10**9
        if m_den == 0:
            # small but genuinely nonzero denominator
            return self.num(z) / dval if dval != 0 else INF
        if m_num >= m_den:
            raise UnreducedFractionError(
                f"indeterminate 0/0 at z={z}: unreduced fraction"
            )
        return INF

    # -- structure ----------------------------------------------------------

    def factor(self) -> "Factored":
        """The reduced map with its poles; its zeros are solved when read.

        Both polynomials are first divided by the leading coefficient of the
        denominator, which makes it monic; a scaled coefficient out of double
        range raises NumericalError.  Reduction then cancels common roots of
        the scaled num and den, found by matching the two root sets within
        the root-separation tolerance (robust to the root solver's own
        accuracy limits at multiple roots), and deflating each polynomial at
        its own matched roots.  The denominator is solved first;
        when the numerator is certainly apart from every pole (``_apart``) no
        root can match, and the numerator is left unsolved.  The zeros and
        poles are the roots of the reduced numerator and denominator: the
        roots from the matching step when nothing cancelled, else the
        deflated polynomials' own.
        """
        lead = self.den.coeffs[-1]
        num, den = (ComplexPolynomial([c / lead for c in p.coeffs], coeff_tol=0.0)
                    for p in (self.num, self.den))
        if not all(map(cmath.isfinite, num.coeffs + den.coeffs)):
            raise NumericalError(f"the monic scaling by the leading denominator coefficient "
                                 f"{lead} leaves double range")
        zeros, poles = None, roots(den) if den.degree >= 1 else []
        if poles and num.degree >= 1 and not all(_apart(num, a) for a, _ in poles):
            given = num.degree
            zeros = roots(num)
            for a, m in poles:
                matches = [(b, k) for b, k in zeros if abs(b - a) <= ROOT_TOL]
                t = min(m, sum(k for _, k in matches))
                if t == 0:
                    continue
                near = sorted((b for b, k in matches for _ in range(k)), key=lambda b: abs(b - a))
                for b in near[:t]:
                    num, den = num.deflate(b), den.deflate(a)
            if num.degree < given:  # reduction changed both polynomials: solve them again
                zeros, poles = None, roots(den) if den.degree >= 1 else []
        return _knowing(Factored(RationalMap(num, den), PoleSet(poles)), zeros)

    def reduced(self) -> "RationalMap":
        """Common roots of num and den cancelled, den monic (see :meth:`factor`)."""
        return self.factor().map

    def derivative(self) -> "RationalMap":
        """The derivative, with the common pole factors cancelled (see
        :meth:`Factored.derivative`); its numerator is not solved."""
        if self.is_polynomial:
            return RationalMap(self.as_polynomial().derivative())
        F = self.factor()
        return _quotient_rule(F.map, F.poles, wronskian(F.map))

    def pole_set(self) -> PoleSet:
        """Denominator roots with multiplicities, after reduction."""
        return self.factor().poles

    def zero_set(self) -> list[tuple[complex, int]]:
        """Numerator roots of the reduced map."""
        return list(self.factor().zeros)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "RationalMap":
        if isinstance(other, RationalMap):
            return other
        if isinstance(other, (int, float, complex, ComplexPolynomial, np.number)):
            return RationalMap(_as_poly(other))
        raise TypeError(f"cannot combine RationalMap with {type(other)!r}")

    def __add__(self, other):
        o = self._coerce(other)
        return RationalMap(self.num * o.den + o.num * self.den, self.den * o.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        return RationalMap(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return RationalMap(self.num * other, self.den)
        if isinstance(other, np.number):
            return self * _number(other)
        o = self._coerce(other)
        return RationalMap(self.num * o.num, self.den * o.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def reciprocal(self) -> "RationalMap":
        if self.num.is_zero:
            raise InputError("reciprocal of the zero map")
        return RationalMap(self.den, self.num)


def wronskian(f: RationalMap) -> ComplexPolynomial:
    """W = n'd - nd' of f = n/d as given, so that f' = W / d^2.

    Formed on coefficient lists and wrapped once, bit for bit as
    ``n.derivative() * d - n * d.derivative()``: it adds the negated second
    product, as ``__sub__`` does, so signed zeros come out the same.
    """
    n, d = f.num.coeffs, f.den.coeffs
    W = _plus(_times(_slope(n), d), [-c for c in _times(n, _slope(d))])
    return ComplexPolynomial(W, coeff_tol=0.0)


def _quotient_rule(red: RationalMap, poles: PoleSet, W: ComplexPolynomial) -> RationalMap:
    """Derivative of a reduced map whose poles are known, from W = wronskian(red).

    For a pole of order m the raw quotient W/D^2 carries a common factor
    (z-a)^(m-1).  Cancelling it against roots of D^2 is ill-conditioned
    (2m-fold clusters), so W is deflated m-1 times at each pole and the
    denominator is the exact product of the (z-a)^(m+1) factors.
    """
    if red.is_polynomial:
        return RationalMap(red.as_polynomial().derivative())
    for a, m in poles:
        for _ in range(m - 1):
            W = W.deflate(a)
    den = ComplexPolynomial.from_roots([a for a, m in poles for _ in range(m + 1)])
    return RationalMap(W, den)


@dataclass(frozen=True)
class Factored:
    """A reduced rational map together with its poles and its zeros.

    Made by :meth:`RationalMap.factor`, or from another Factored by
    :meth:`derivative` and :meth:`cleared`, which take the poles from the
    factors already known.  The denominator of ``map`` is monic.  The zeros
    are the roots of the numerator, solved on first read unless the maker
    already knows them.  A Factored is a plain value: the functions that
    need one build it inside the call and drop it on return, and its zeros
    with it.  Windings read none of it but ``map``
    (:func:`~meroimm.contours.winding_number`).
    """

    map: RationalMap
    poles: PoleSet

    @functools.cached_property
    def zeros(self) -> tuple[tuple[complex, int], ...]:
        """The roots of the numerator with multiplicities, solved once."""
        num = self.map.num
        return tuple(roots(num)) if num.degree >= 1 else ()

    def derivative(self, W: ComplexPolynomial) -> "Factored":
        """f' from W = wronskian(self.map), with poles (a, m+1) from those (a, m) of f.

        Its denominator is the product of the (z-a)^(m+1) factors and never
        reaches the root solver; its zeros are solved when read.
        """
        poles = _checked((a, m + 1) for a, m in self.poles)
        return Factored(_quotient_rule(self.map, self.poles, W), poles)

    def cleared(self, drop) -> "Factored":
        """The map times the product of (z-a)^m over its poles a with drop(a).

        Those poles cancel: the numerator and the zeros stay as they are (the
        zeros solved, if this value has solved them), and the denominator is
        rebuilt from the remaining poles.  Its one use is the extension's
        h = f' Theta: the factored derivative cleared of its poles in the
        big disc (``extension._pipeline_data``).
        """
        rest = self.poles.filter(lambda a: not drop(a))
        den = ComplexPolynomial.from_roots([a for a, m in rest for _ in range(m)])
        return _knowing(Factored(RationalMap(self.map.num, den), rest), self.__dict__.get("zeros"))


def _knowing(F: Factored, zeros) -> Factored:
    """F with its zeros already solved, or as it is for zeros None: known
    zeros fill the cache of ``Factored.zeros``, as its first read would."""
    if zeros is not None:
        F.__dict__["zeros"] = tuple(zeros)
    return F


def _series_divide(
    num: Sequence[complex], den: Sequence[complex], order: int
) -> list[complex]:
    """First coefficients of the power-series quotient num/den; den[0] != 0."""
    q: list[complex] = []
    d0 = den[0]
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0j
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * q[k - j]
        q.append(acc / d0)
    return q


def residue(f: RationalMap, a: complex) -> complex:
    """Laurent coefficient c_{-1} of f at a, by truncated series division.

    Returns 0 when a is not a pole.  An indeterminate 0/0 (numerator
    vanishing at a to at least the denominator's order) raises
    UnreducedFractionError.  A determinate common factor (numerator vanishing
    to lower order) is deflated at a before the series division; this keeps
    the division away from noise-dominated leading coefficients.  A NaN or
    infinite a raises InputError: the expansion is about a point of the plane.
    """
    a = complex(a)
    if not cmath.isfinite(a):
        raise InputError("residues are taken at finite points")
    num, den = f.num, f.den
    m_den = _first_above_noise(den, a)
    if m_den is None:
        raise InputError("denominator is numerically zero at the expansion point")
    if m_den == 0:
        return 0j
    m_num = _first_above_noise(num, a)
    if m_num is None:
        return 0j  # numerator numerically zero near a
    if m_num >= m_den:
        raise UnreducedFractionError(
            f"0/0 at z={a}: reduce the fraction before taking residues"
        )
    for _ in range(m_num):
        num = num.deflate(a)
        den = den.deflate(a)
    m = m_den - m_num
    den_shift = den.taylor_shift(a)
    num_shift = num.taylor_shift(a)
    dtail = den_shift.coeffs[m:]
    if not dtail or abs(dtail[0]) == 0.0:
        raise InputError("pole order detection failed at the expansion point")
    q = _series_divide(num_shift.coeffs, dtail, m - 1)
    return complex(q[m - 1])
