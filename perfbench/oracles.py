"""Independent oracles for the benchmark.

Nothing here imports ``meroimm``.  Maps arrive as coefficient arrays written
by the input generators, or as the plain data fields of a returned result
(polynomial coefficients, pole locations, base point and value), so every
check recomputes its answer by a route that shares no code with the package:
``numpy.roots`` for zero and pole counts, and a batched Gauss-Legendre
quadrature of its own for extension values.
"""
from __future__ import annotations

import math

import numpy as np

# -- polynomial data -------------------------------------------------------------
# Coefficient arrays are ascending (c0, c1, ...), as the package stores them.


def desc(asc) -> np.ndarray:
    """Descending-order copy of an ascending coefficient array."""
    return np.asarray(asc, dtype=complex)[::-1].copy()


def polyval(asc, z):
    """Horner evaluation of an ascending coefficient array."""
    return np.polyval(desc(asc), z)


def quotient_numerator(num_asc, den_asc) -> np.ndarray:
    """Ascending coefficients of N'D - ND', the numerator of f' = (N/D)'."""
    n, d = desc(num_asc), desc(den_asc)
    dn = np.polyder(n) if len(n) > 1 else np.array([0j])
    dd = np.polyder(d) if len(d) > 1 else np.array([0j])
    top = np.polysub(np.polymul(dn, d), np.polymul(n, dd))
    return np.trim_zeros(top, "f")[::-1].copy()


def numpy_roots(asc) -> np.ndarray:
    d = np.trim_zeros(desc(asc), "f")
    return np.roots(d) if len(d) > 1 else np.array([], dtype=complex)


def count_inside(points, center: complex, radius: float) -> int:
    return int(np.sum(np.abs(np.asarray(points) - center) < radius))


def singular_points(num_asc, den_asc) -> np.ndarray:
    """Poles of f and zeros of f' (roots of N'D - ND' that are not poles)."""
    poles = numpy_roots(den_asc)
    top = numpy_roots(quotient_numerator(num_asc, den_asc))
    keep = [z for z in top if not (len(poles) and np.min(np.abs(z - poles)) < 1e-6)]
    return np.concatenate([poles, np.array(keep, dtype=complex)])


def derivative_zero_count(num_asc, den_asc, poles, center, radius) -> int:
    """Zeros of f' inside the circle, with multiplicity.

    A pole of order m makes N'D - ND' vanish to order m - 1 there without
    being a zero of f', so those roots are taken off by the known orders.
    """
    top = numpy_roots(quotient_numerator(num_asc, den_asc))
    spurious = sum(m - 1 for a, m in poles if abs(a - center) < radius)
    return count_inside(top, center, radius) - spurious


def derivative_winding(num_asc, den_asc, center, radius) -> int:
    """Winding number of f' = (N'D - ND')/D^2 around the circle.

    The winding of a quotient is the zero count of its numerator minus that
    of its denominator, common factors or not.
    """
    top = numpy_roots(quotient_numerator(num_asc, den_asc))
    return count_inside(top, center, radius) - 2 * count_inside(numpy_roots(den_asc), center, radius)


# -- sphere ---------------------------------------------------------------------


def chordal(u, v) -> np.ndarray:
    """Chordal distance on the Riemann sphere; non-finite values are infinity."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ui, vi = ~np.isfinite(u), ~np.isfinite(v)
    uu = np.where(ui, 0, u)
    vv = np.where(vi, 0, v)
    with np.errstate(all="ignore"):
        both = 2 * np.abs(uu - vv) / np.sqrt((1 + np.abs(uu) ** 2) * (1 + np.abs(vv) ** 2))
        one_u = 2 / np.sqrt(1 + np.abs(vv) ** 2)
        one_v = 2 / np.sqrt(1 + np.abs(uu) ** 2)
    out = np.where(ui & vi, 0.0, np.where(ui, one_u, np.where(vi, one_v, both)))
    return np.nan_to_num(out, nan=2.0)


# -- primitives of integrands exp(xi)/Theta ---------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def _gl_pieces(fun, za: np.ndarray, zb: np.ndarray, tol: float, max_rounds: int = 40,
               max_pieces: int = 1 << 15) -> np.ndarray:
    """Integral of fun along each straight piece za[k] -> zb[k].

    A piece is accepted when one 16-point Gauss-Legendre rule and the same
    rule on its two halves agree within tol (relative to the piece's size);
    otherwise both halves are refined in the next batched round.  A piece
    whose value is not finite (the integrand left double range) is kept as
    it is: refining it cannot help.
    """
    out = np.zeros(len(za), dtype=complex)
    idx = np.arange(len(za))
    a, b = za.astype(complex), zb.astype(complex)

    def rule(a, b):
        pts = a[:, None] + (b - a)[:, None] * _GL_X[None, :]
        with np.errstate(all="ignore"):
            vals = fun(pts)
        return (vals @ _GL_W) * (b - a)

    whole = rule(a, b)
    for _ in range(max_rounds):
        if not len(idx):
            return out
        m = 0.5 * (a + b)
        left, right = rule(a, m), rule(m, b)
        fine = left + right
        with np.errstate(invalid="ignore"):
            ok = np.abs(fine - whole) <= tol * (1.0 + np.abs(fine))
        ok |= ~np.isfinite(fine)
        np.add.at(out, idx[ok], fine[ok])
        keep = ~ok
        if 2 * np.count_nonzero(keep) > max_pieces:
            break
        idx = np.concatenate([idx[keep], idx[keep]])
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    if len(idx):
        raise ArithmeticError("oracle quadrature did not converge")
    return out


class Primitive:
    """F(z) = base_value + integral from base_point to z of scale exp(xi)/Theta,
    with Theta the squared product over the given simple poles."""

    def __init__(self, xi_asc, scale, base_point, base_value, poles):
        self.xi = desc(xi_asc)
        self.scale = complex(scale)
        self.z0 = complex(base_point)
        self.f0 = complex(base_value)
        self.poles = np.array([complex(a) for a in poles], dtype=complex)

    def integrand(self, w):
        theta = np.ones_like(w)
        for a in self.poles:
            theta = theta * (w - a) ** 2
        return self.scale * np.exp(np.polyval(self.xi, w)) / theta

    def _room(self, za: complex, zb: complex) -> float:
        """Distance from the segment za -> zb to the nearest pole."""
        if not len(self.poles):
            return math.inf
        d = zb - za
        t = np.clip(((self.poles - za) * np.conj(d)).real / max(abs(d) ** 2, 1e-300), 0, 1)
        return float(np.min(np.abs(self.poles - (za + t * d))))

    def _paths(self, z: complex) -> list[list[complex]]:
        """The two candidate paths (straight, or bent once) with most room from the poles."""
        d = z - self.z0
        cands = [[self.z0, z]]
        if abs(d):
            mid, normal = 0.5 * (self.z0 + z), 1j * d / abs(d)
            cands += [[self.z0, mid + s * h * abs(d) * normal, z] for h in (0.2, 0.4, 0.7) for s in (1, -1)]
        cands.sort(key=lambda p: -min(self._room(a, b) for a, b in zip(p, p[1:])))
        return (cands * 2)[:2]

    def at(self, points, tol: float = 1e-12) -> np.ndarray:
        """Values at the points, each integrated along two different paths.

        The integrand has no residues, so both paths must agree; where they
        do not, the integrand's range along a path has drowned the value in
        rounding, and the point's value is NaN (undecided).
        """
        za, zb, owner = [], [], []
        for k, z in enumerate(points):
            for j, path in enumerate(self._paths(complex(z))):
                za += path[:-1]
                zb += path[1:]
                owner += [2 * k + j] * (len(path) - 1)
        per = _gl_pieces(self.integrand, np.array(za), np.array(zb), tol)
        both = np.full(2 * len(points), self.f0, dtype=complex)
        np.add.at(both, np.array(owner), per)
        v1, v2 = both[0::2], both[1::2]
        with np.errstate(invalid="ignore"):
            agree = np.abs(v1 - v2) <= 1e-8 * (1.0 + np.abs(v1))
        return np.where(agree | (~np.isfinite(v1) & ~np.isfinite(v2)), v1, np.nan)

    def on_circle(self, center: complex, radius: float, n: int, tol: float = 1e-12):
        """Values at n uniform samples of the circle and the loop's closure defect.

        One leg reaches the sample with the most room from the poles; the
        other samples follow by arcs (chords refined adaptively), so the
        values also test path independence.
        """
        ring = center + radius * np.exp(2j * np.pi * np.arange(n) / n)
        k0 = max(range(n), key=lambda k: self._room(self.z0, ring[k]))
        start = self.at(ring[k0:k0 + 1], tol)[0]
        if np.isnan(start):
            raise ArithmeticError("oracle paths to the circle disagree")
        order = (k0 + np.arange(n + 1)) % n
        za, zb = ring[order[:-1]], ring[order[1:]]
        # each chord is bent onto the circle by a midpoint split to keep to the arc
        mids = center + radius * np.exp(1j * (np.angle(za - center) + np.pi / n))
        per = _gl_pieces(self.integrand, za, mids, tol) + _gl_pieces(self.integrand, mids, zb, tol)
        vals = np.empty(n, dtype=complex)
        vals[order[:-1]] = start + np.concatenate([[0], np.cumsum(per)[:-1]])
        closure = abs(np.sum(per))
        return ring, vals, closure
