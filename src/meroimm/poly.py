"""Complex polynomials with double-precision coefficients.

Coefficients are stored in ascending degree order; the zero polynomial is the
empty tuple.  Construction converts its coefficients once (an array through
``tolist``), refuses a non-finite one with InputError and drops leading
coefficients of modulus <= the coefficient tolerance (1e-12 by default), so
a nonzero polynomial always has |leading| above that tolerance.  Arithmetic
on existing polynomials (coeff_tol=0.0) neither checks nor discards computed
coefficients (only exact zeros).  It runs on coefficient lists: ``_times``,
``_plus`` and ``_slope`` are the one place a product (``np.convolve``), a
sum and a derivative are formed, so a caller that needs several steps, such
as ``rational.wronskian``, wraps only its result.

The root solver takes the eigenvalues of the companion matrix (closed forms
for degrees 1 and 2), merges root clusters into multiple roots, and polishes
each root by Newton steps on the derivative of matching order.  It builds
p' once and works in one pass per root on plain coefficient tuples, with the
scalar Horner loops that ``ComplexPolynomial.__call__`` and ``horner_scale``
run (``_horner``, ``_scale``).
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import COEFF_TOL, ROOT_TOL
from .errors import InputError, RootSolveError

_EPS = 2.220446049250313e-16


def _trim(coeffs: Iterable[complex], tol: float) -> tuple[complex, ...]:
    cs = list(map(complex, coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs))
    if tol and not all(map(cmath.isfinite, cs)):
        raise InputError("polynomial coefficients must be finite")
    # at tol 0 an exact zero, -0j too, is falsy, and NaN is not: as abs(c) <= 0
    while cs and (not cs[-1] if tol == 0 else abs(cs[-1]) <= tol):
        cs.pop()
    return tuple(cs)


def _times(a: Sequence[complex], b: Sequence[complex]) -> tuple[complex, ...]:
    """The product of two coefficient sequences by ``np.convolve``, its
    trailing exact zeros dropped."""
    return _trim(np.convolve(np.array(a), np.array(b)), 0.0) if a and b else ()


def _slope(cs: Sequence[complex]) -> list[complex]:
    """The derivative's coefficients."""
    return [k * c for k, c in enumerate(cs)][1:]


def _plus(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    """The sum of two coefficient sequences, each zero-padded to the longer."""
    n = max(len(a), len(b))
    return [x + y for x, y in zip([*a] + [0j] * (n - len(a)), [*b] + [0j] * (n - len(b)))]


def _horner(cs: Sequence[complex], z: complex) -> complex:
    """sum cs[k] z^k for ascending coefficients at a scalar z."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _scale(mods: Sequence[float], r: float) -> float:
    """sum mods[k] r^k for the moduli of ascending coefficients."""
    acc = 0.0
    for c in reversed(mods):
        acc = acc * r + c
    return acc


@dataclass(frozen=True)
class ComplexPolynomial:
    """Immutable polynomial sum(coeffs[k] * z**k)."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex], *, coeff_tol: float = COEFF_TOL):
        object.__setattr__(self, "coeffs", _trim(coeffs, coeff_tol))

    @classmethod
    def zero(cls) -> "ComplexPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ComplexPolynomial":
        return cls((1.0,))

    @classmethod
    def from_roots(cls, roots: Iterable[complex], leading: complex = 1.0) -> "ComplexPolynomial":
        cs = np.array([leading], dtype=complex)
        for r in roots:
            cs = np.convolve(cs, np.array([-complex(r), 1.0]))
        return cls(cs, coeff_tol=0.0)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if isinstance(z, np.ndarray):
            # a zero start, not the leading coefficient, keeps signed zeros
            out = np.zeros(z.shape, dtype=complex)
            for c in reversed(self.coeffs):
                out *= z
                out += c
            return out
        return _horner(self.coeffs, z)

    def horner_scale(self, r: float) -> float:
        """sum |c_k| r^k, the magnitude scale entering backward-error bounds."""
        return _scale([abs(c) for c in self.coeffs], r)

    # -- arithmetic (no tolerance trimming; exact zeros only) --------------

    def __add__(self, other):
        return ComplexPolynomial(_plus(self.coeffs, _as_poly(other).coeffs), coeff_tol=0.0)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ComplexPolynomial([-c for c in self.coeffs], coeff_tol=0.0)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexPolynomial([c * other for c in self.coeffs], coeff_tol=0.0)
        if isinstance(other, np.number):
            return self * _number(other)
        return ComplexPolynomial(_times(self.coeffs, _as_poly(other).coeffs), coeff_tol=0.0)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return isinstance(other, ComplexPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "ComplexPolynomial":
        return ComplexPolynomial(_slope(self.coeffs), coeff_tol=0.0)

    def antiderivative(self, base_point: complex = 0j) -> "ComplexPolynomial":
        """The antiderivative F with F(base_point) = 0."""
        cs = [0j] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return ComplexPolynomial([-_horner(cs, base_point)] + cs[1:], coeff_tol=0.0)

    def taylor_shift(self, a: complex) -> "ComplexPolynomial":
        """Coefficients of p(a + t) as a polynomial in t."""
        cs = list(self.coeffs)
        n = len(cs)
        a = complex(a)
        if a == 0 and _unshifted(np.array(cs, dtype=complex).reshape(1, n))[0]:
            return self
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return ComplexPolynomial(cs, coeff_tol=0.0)

    def deflate(self, root: complex) -> "ComplexPolynomial":
        """Synthetic division by (z - root); the remainder is dropped."""
        if self.is_zero:
            return self
        out = []
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        out.pop()  # the final accumulator is the remainder p(root)
        return ComplexPolynomial(reversed(out), coeff_tol=0.0)


def _unshifted(cs: np.ndarray) -> np.ndarray:
    """Whether a zero Taylor shift leaves each row of coefficients as it is:
    when every part is finite and nonzero, as adding 0 a clears a signed zero
    and makes NaN of an infinite part (a trailing zero fails its row)."""
    parts = cs.view(float)  # each coefficient's real and imaginary parts
    return (np.isfinite(parts) & (parts != 0)).all(axis=1)


def _padded(rows: Sequence) -> np.ndarray:
    """Coefficient sequences, ascending, as one zero-padded row each."""
    out = np.zeros((len(rows), max(map(len, rows), default=1)), dtype=complex)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _horner_rows(cs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of ascending coefficients at z, one row each, where z holds
    the points shared by all rows or one row of points per row; zero padding
    keeps every bit of ``ComplexPolynomial.__call__``."""
    out = np.zeros((cs.shape[0], z.shape[-1]), dtype=complex)
    for k in range(cs.shape[1] - 1, -1, -1):
        out *= z
        out += cs[:, k : k + 1]
    return out


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


_BINOMIAL_DEGREE = 1029  # the highest degree d whose binomials C(d, k) are all doubles


@functools.lru_cache(maxsize=16)
def _hankel(n: int) -> tuple[np.ndarray, np.ndarray]:  # C(j + m, j), 0 for j + m >= n, and j + m
    k = np.add.outer(np.arange(n), np.arange(n))
    binom = [[math.comb(i, j) if i < n else 0 for i in row] for j, row in enumerate(k.tolist())]
    return _read_only(np.array(binom, dtype=float), np.minimum(k, n - 1))


def _taylor_rows(cs: np.ndarray) -> np.ndarray:
    """Taylor matrices H[i, j, m] = C(j + m, j) cs[i, j + m] of rows of ascending
    coefficients: H[i] @ w^m is p_i^(j)(w) / j!, j = 0..n, at any point w.
    Rows of more than _BINOMIAL_DEGREE + 1 coefficients raise OverflowError."""
    binom, k = _hankel(cs.shape[1])
    return binom * cs[:, k]


def _rows(a, idx: np.ndarray | None):
    """The rows idx of a, for increasing idx: a itself when idx takes them
    all or is None, or when a is not an array (a single row's value)."""
    if not isinstance(a, np.ndarray) or idx is None or idx.size == len(a):
        return a
    return a[idx]


def _column(values: Sequence):
    """One value per row, as a column that broadcasts against the rows'
    points; a single row's value is left as it is, so that its row stays
    one-dimensional, where numpy's arithmetic is fastest."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


class _PolyRows:
    """Polynomials as the rows of a block: ``rows(idx, z)`` is the
    polynomials idx (increasing, or None for all) at the points z, one row
    each, by one Horner over their zero-padded coefficients.  A single
    polynomial is evaluated by its own Horner, which gives the same bits, and
    its row keeps the shape of z."""

    __slots__ = ("polys", "coeffs")

    def __init__(self, polys: Sequence[ComplexPolynomial]):
        self.polys = polys
        self.coeffs = None if len(polys) == 1 else _padded([p.coeffs for p in polys])

    def __call__(self, idx: np.ndarray | None, z: np.ndarray) -> np.ndarray:
        if self.coeffs is None:
            return self.polys[0](z)
        return _horner_rows(_rows(self.coeffs, idx), z)




def _as_poly(x) -> ComplexPolynomial:
    if isinstance(x, ComplexPolynomial):
        return x
    if isinstance(x, (int, float, complex)):
        return ComplexPolynomial((complex(x),), coeff_tol=0.0)
    if isinstance(x, np.number):
        return _as_poly(_number(x))
    if isinstance(x, (tuple, list)):
        return ComplexPolynomial(x)
    raise TypeError(f"cannot coerce {type(x)!r} to ComplexPolynomial")


def _number(x: np.number) -> int | float | complex:
    """The Python number equal to a numpy number scalar; an extended one rounds to double."""
    return (int if isinstance(x, np.integer) else float if isinstance(x, np.floating) else complex)(x)


# -- root finding -----------------------------------------------------------


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    monic = coeffs / coeffs[-1]
    A = np.zeros((n, n), dtype=complex)
    A[1:, :-1] = np.eye(n - 1)
    A[:, -1] = -monic[:-1]
    return np.linalg.eigvals(A)


def _root_accepted(cs, dcs, mods, z: complex) -> bool:
    """Backward-error residual test with a Newton-step fallback.

    Accepts when |p(z)| <= 64 n eps sum|c_k||z|^k, or when the Newton step
    can no longer move z (the forward limit of double precision).
    """
    n = max(len(cs) - 1, 1)
    scale = max(_scale(mods, abs(z)), 1e-300)
    pz = abs(_horner(cs, z))
    if pz <= 64.0 * n * _EPS * scale:
        return True
    d = abs(_horner(dcs, z))
    return d > 0.0 and pz / d <= 8.0 * _EPS * (1.0 + abs(z))


def _cluster(cs, dcs, mods, approx: list[complex]) -> list[list[complex]]:
    """Group approximations whose Newton inclusion discs overlap.

    The eigenvalues of an m-fold root scatter on a ring of radius about
    eps^(1/m); the disc radius n|p|/|p'| covers that spread, so genuine
    clusters merge while well-separated simple roots stay apart.
    """
    n = len(cs) - 1
    radii = []
    for z in approx:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            radii.append(0.0)
            continue
        pz, d = abs(_horner(cs, z)), abs(_horner(dcs, z))
        if not (math.isfinite(pz) and math.isfinite(d)):
            radii.append(0.0)
            continue
        # floor the residual at the Horner noise level: near a multiple root
        # the evaluated p(z) is noise and says nothing about the distance
        pz = max(pz, 2.0 * n * _EPS * _scale(mods, abs(z)))
        if d < 1e-300:
            radii.append(10.0 * ROOT_TOL)
        else:
            radii.append(min(0.1, 4.0 * n * pz / d))
    order = sorted(range(len(approx)), key=lambda i: (approx[i].real, approx[i].imag))
    clusters: list[list[int]] = []
    for i in order:
        for cl in clusters:
            if any(
                abs(approx[i] - approx[j]) <= 2.0 * ROOT_TOL + radii[i] + radii[j]
                for j in cl
            ):
                cl.append(i)
                break
        else:
            clusters.append([i])
    return [[approx[i] for i in cl] for cl in clusters]


def _polish(cs, dcs, z: complex, multiplicity: int) -> complex:
    """Newton steps on the (m-1)-th derivative of p, where the root is simple;
    cs and dcs are the coefficients of p and p'.

    At most 6 steps.  A simple root stops once the step is below
    1e-15 (1 + |z|); a multiple root, which starts from a cluster centroid,
    steps until the step is exactly 0.
    """
    for _ in range(multiplicity - 1):
        cs, dcs = dcs, _slope(dcs)
    tol = 1e-15 if multiplicity == 1 else 0.0
    for _ in range(6):
        d = _horner(dcs, z)
        if abs(d) < 1e-300:
            break
        step = _horner(cs, z) / d
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
        if step == 0 or abs(step) < tol * (1.0 + abs(z)):
            break
    return z


def roots(p: ComplexPolynomial) -> list[tuple[complex, int]]:
    """All complex roots of p with multiplicities, sorted by (real, imag).

    Degrees 1 and 2 use closed forms; higher degrees take the eigenvalues of
    the companion matrix.  Clusters of approximations merge into multiple
    roots, each polished by Newton steps.  Raises RootSolveError (carrying
    the polished roots) when a root fails the residual acceptance test.
    """
    if p.degree < 1:
        raise InputError("roots requires degree >= 1")
    coeffs = np.array(p.coeffs, dtype=complex)

    if p.degree == 1:
        approx = np.array([-coeffs[0] / coeffs[1]])
    elif p.degree == 2:
        c, b, a = coeffs[0], coeffs[1], coeffs[2]
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        if (b.conjugate() * disc).real >= 0:
            qq = -(b + disc) / 2.0
        else:
            qq = -(b - disc) / 2.0
        if abs(qq) > 1e-300:
            approx = np.array([qq / a, c / qq])
        else:
            approx = np.array([0j, -b / a])
    else:
        approx = _companion_roots(coeffs)

    cs, dcs, mods = p.coeffs, _slope(p.coeffs), [abs(c) for c in p.coeffs]
    out: list[tuple[complex, int]] = []
    for cl in _cluster(cs, dcs, mods, [complex(z) for z in approx]):
        m = len(cl)
        center = sum(cl) / m
        spread = max((abs(c - center) for c in cl), default=0.0)
        z = _polish(cs, dcs, center, m)
        if abs(z - center) > 10.0 * max(ROOT_TOL, spread):
            z = center  # polish wandered off; keep the cluster centroid
        out.append((z, m))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    if not all(_root_accepted(cs, dcs, mods, z) for z, _ in out):
        raise RootSolveError("a root failed the residual acceptance test", partial=out)
    return out
