"""Sampled paths in the plane, adaptive contour quadrature, and winding numbers.

Contours are piecewise-linear paths through the stored samples; circles are
built analytically from uniform angular samples so that closure is exact.
Path integrals have one scheme, an adaptive Gauss-Kronrod G7-K15 rule over
straight pieces, in :func:`integrate_pieces` for one path and
``_integrate_paths`` for many paths in one round loop, each path bit for bit
as alone.  It starts a path on a mesh of about ten equal panels, as
Shampine's vectorized quadgk does, accepts a panel when |K15 - G7| is within
its share of the tolerance or QUADPACK's rounding floor (a NaN floor leaves
the share), bisects the rest, and refuses a non-finite value at a node or an
end point of a piece.
Circles have one kernel, the periodic trapezoid rule (Trefethen & Weideman,
SIAM Rev. 2014), on one sampler, :func:`_rings`: it samples the open rows of
a block at N equispaced nodes, doubles N by adding the midpoints, and closes
a row at its first non-finite sample.  :func:`circle_primitives` takes one
FFT of each ring, divides mode k by ik and inverts it, and
``blending._taylor_truncations`` fits Taylor coefficients.
Windings have one algorithm: the numerator and the denominator of a rational
map are wound over certified arcs, from their coefficients alone, and no
root is read.  Zero/pole counts in a disc (:func:`argument_principle_count`)
wind them around its circle, and a block of maps, each on its own disc, is
counted as one (``_counts``); :func:`winding_number` winds them along the
chords of a closed polyline.  Both halve their failing arcs in the same
rounds (``_halve``).  Each winding is exact or refused.  A function known
only by its values gets none, because samples cannot rule out a full turn
between two of them.
Fixed geometry is built once per process and shared read-only.  Unit roots,
first quadrature meshes and arc powers are memoized in LRU caches of
_CACHE_SIZE entries each, which keep no set of more than _CACHE_NODES nodes.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import COUNT_NODE_CAP, QUAD_EVAL_BUDGET, as_integer
from .errors import (InputError, MeroimmError, NumericalError, PathTooCloseError,
                     QuadratureBudgetError, ZeroOnContourError)
from .poly import _BINOMIAL_DEGREE, ComplexPolynomial, _padded, _read_only, _taylor_rows
from .rational import Factored, RationalMap

_CACHE_SIZE = 32  # entries per cache of fixed geometry
_CACHE_NODES = 2 ** 14  # largest node set a cache keeps


@dataclass(frozen=True)
class Disc:
    """Closed disc in the plane."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (0 < self.radius < math.inf and cmath.isfinite(self.center)):
            raise InputError("a disc needs a finite center and a finite radius > 0")

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) <= self.radius

    def contains_disc(self, other: "Disc") -> bool:
        """Whether other lies in this disc with a clearance of 1e-12 max(1, r)
        to its boundary, r its radius, so that no tangent disc is contained."""
        return abs(other.center - self.center) + other.radius <= (
            self.radius - 1e-12 * max(1.0, self.radius))

    def boundary_distance(self, z: complex) -> float:
        return abs(abs(complex(z) - self.center) - self.radius)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _unit_roots(n: int, offset: float) -> np.ndarray:
    th = 2.0 * math.pi * (np.arange(n) + offset) / n
    return _read_only(np.exp(1j * th))


def circle_samples(center: complex, radius: float, n: int, *, offset: float = 0.0) -> np.ndarray:
    """The n points center + radius exp(2 pi i (k + offset)/n), k = 0..n-1.

    The unit roots are memoized by (n, offset) and shared read-only; the
    returned array is new on every call and writeable.  An n that is not an
    integer >= 1, or is a bool, raises InputError.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InputError(f"a circle needs an integer number of samples >= 1, not {n!r}")
    roots = (_unit_roots if n <= _CACHE_NODES else _unit_roots.__wrapped__)(n, offset)
    return center + radius * roots


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear sampled path; closed paths repeat the first sample last.

    ``points`` holds the samples as a read-only complex array.
    """

    samples: tuple[complex, ...]
    closed: bool
    points: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        zs = np.array([complex(s) for s in self.samples], dtype=complex)
        zs.flags.writeable = False
        object.__setattr__(self, "samples", tuple(zs.tolist()))
        object.__setattr__(self, "points", zs)
        if len(zs) < 2:
            raise InputError("a contour needs at least two samples")
        if not np.all(np.isfinite(zs)):
            raise InputError("contour samples must be finite")
        if self.closed and zs[0] != zs[-1]:
            raise InputError("closed contours must repeat the first sample last")
        if np.any(zs[1:] == zs[:-1]):
            raise InputError("consecutive contour samples must be distinct")

    @classmethod
    def circle(
        cls,
        center: complex,
        radius: float,
        samples: int = 256,
        turns: int = 1,
    ) -> "Contour":
        """Uniformly sampled circle; ``turns`` may be negative for clockwise.

        Equal arguments, as complex, float and int, give equal contours, bit
        for bit.
        """
        samples, turns = as_integer(samples, "samples"), as_integer(turns, "turns")
        center, radius = complex(center), float(radius)
        if not 0 < radius < math.inf:
            raise InputError("circle radius must be positive and finite")
        if turns == 0:
            raise InputError("turns must be nonzero")
        if samples < 8:
            raise InputError("need at least 8 samples per turn")
        sign = 1 if turns > 0 else -1
        th = sign * (2.0 * math.pi * np.arange(samples * abs(turns))) / samples
        pts = (center + radius * np.exp(1j * th)).tolist()
        pts.append(pts[0])
        return cls(pts, closed=True)

    @classmethod
    def polyline(cls, points: Sequence[complex], closed: bool = False) -> "Contour":
        pts = [complex(p) for p in points]
        if closed and pts[0] != pts[-1]:
            pts.append(pts[0])
        return cls(tuple(pts), closed=closed)


def _result(x):
    """x, unless it is the error a row of a block raised: then raise it."""
    if isinstance(x, Exception):
        raise x
    return x


def _per_row(stage, *args):
    """stage(*args), or the package error it raises: a row of a block keeps
    its own error, so the block can raise errors in row order."""
    try:
        return stage(*args)
    except MeroimmError as exc:
        return exc


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

# Gauss-Kronrod G7-K15 on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# Kronrod nodes and weights, and the Gauss weights, which sit on the odd nodes
_XK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                0.20778495500789848, 0.0])
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782])
_WG = np.array([0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0,
                0.3818300505051189, 0.0, 0.4179591836734694])
_XK = np.concatenate([-_XK, _XK[-2::-1]])
_WK = np.concatenate([_WK, _WK[-2::-1]])
_WG = np.concatenate([_WG, _WG[-2::-1]])
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
# initial panels over the whole path: in a vectorized round extra nodes cost
# less than extra rounds (Shampine, J. Comput. Appl. Math. 211 (2008) 131-140)
_MESH = 10


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _first_round(counts: tuple[int, ...]):
    """The first mesh for pieces of counts[k] equal panels: each panel's
    piece, its piece's panel count, midpoint and half-width in t, and its 15
    nodes in t."""
    seg = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(seg)) - np.searchsorted(seg, seg)  # panel index within its piece
    m = np.array(counts, dtype=float)[seg]
    mid, half = (j + 0.5) / m, 0.5 / m
    return _read_only(seg, m, mid, half, mid[:, None] + half[:, None] * _XK)


def integrate_pieces(
    fz: Callable[[np.ndarray], np.ndarray],
    za: np.ndarray,
    d: np.ndarray,
    tol: float,
) -> complex:
    """Adaptive G7-K15 quadrature of fz dz over the straight pieces
    za[k] + t d[k], t in [0, 1].

    Piece k starts as ceil(_MESH |d[k]| / L) equal panels, L the path
    length, so a one-piece path starts as ten panels and a piece shorter
    than L/_MESH as one.  Each round evaluates fz once, at the 15 Kronrod
    nodes of every active panel.  A panel is accepted with its K15 value
    when |K15 - G7| <= fmax(share, floor), its length share of ``tol`` or
    the rounding floor 50 eps times its integral of |fz dz|, which keeps a
    large integrand from being asked for more digits than doubles carry.  A
    NaN floor (0 * inf: 50 eps |dz| / 2 underflows, the mass overflows)
    leaves the share, a NaN error rejects, and a rejected panel is bisected.
    So the share decides every panel that passes it: the floors are formed
    only in a round where a panel fails it, and then for the whole round, as
    a real matrix product rounds a row by its place in the block.  The first
    round also evaluates the piece endpoints, which no node reaches.  A
    non-finite value anywhere raises PathTooCloseError.  Evaluations (15 per
    panel, 2 per piece) are counted against QUAD_EVAL_BUDGET.  The first
    round is always evaluated in full; after any round, a next round that
    would take the count past the budget raises QuadratureBudgetError with
    the best estimate, so a budget smaller than the first round refuses
    after it.  The first mesh depends only on the panel counts; meshes of up
    to _CACHE_NODES nodes are memoized by them and shared read-only.  A path
    of one finite piece is set up with a scalar d, the tolerance
    (tol L / L) / _MESH per panel, and its end points and nodes in one
    array; its accepted panels are added to one complex in panel order, as
    np.add.at adds them to a piece total.  :func:`_integrate_paths`
    integrates many paths in one call, each bit for bit as here.
    """
    lengths = np.abs(d)
    total_len = float(lengths.sum())
    n = len(za)
    if total_len == 0.0:
        return 0j

    # the share before the product, so that a one-piece path gets exactly
    # _MESH panels: _MESH * L / L can round above _MESH.  fmax gives a NaN
    # share one panel, so that a non-finite path is refused at its nodes
    one = n == 1 and math.isfinite(total_len)
    if one:
        counts = (_MESH,)  # its share is L / L = 1
    else:
        counts = tuple(np.fmax(np.ceil(_MESH * (lengths / total_len)), 1.0).astype(int).tolist())
    build = _first_round if len(_XK) * sum(counts) <= _CACHE_NODES else _first_round.__wrapped__
    seg, m, mid, half, template = build(counts)
    if one:
        a, ds, acc = za[0], d[0], 0j
        tols = (tol * total_len / total_len) / m
        pts = np.empty(2 + template.size, dtype=complex)
        pts[0], pts[1] = a, a + ds
        nodes = pts[2:].reshape(template.shape)
        np.multiply(template, ds, out=nodes)
        nodes += a
    else:
        totals = np.zeros(n, dtype=complex)
        tols = (tol * lengths / total_len)[seg] / m
        ds = d[seg]
        nodes = za[seg, None] + template * ds[:, None]
        pts = np.concatenate([za, za + d, nodes.ravel()])
    fv = fz(pts)
    evals = 0
    while True:
        evals += fv.size
        if np.count_nonzero(np.isfinite(fv)) < fv.size:
            raise PathTooCloseError(_TOO_CLOSE)
        fv = fv[-nodes.size:].reshape(nodes.shape)  # past round 1's piece endpoints
        scale = half * ds
        # three products over the same rows: matmul rounding depends on the
        # operand's shape, so stacking _WK and _WG into one product changes
        # the bits.  The sums are named, so that numpy does not reuse a large
        # temporary as the left factor of scale, which changes the bits of a
        # complex product.  _integrate_paths repeats this round (see there)
        k15, g7 = fv @ _WK, fv @ _WG
        kronrod = scale * k15
        err = np.abs(kronrod - scale * g7)
        done = err <= tols
        if np.count_nonzero(done) < done.size:
            done = err <= np.fmax(tols, _ROUNDING_FLOOR * np.abs(scale) * (np.abs(fv) @ _WK))
        keep = ~done
        n_keep = np.count_nonzero(keep)
        if one:
            acc = _in_order(acc, kronrod[done])
        else:
            np.add.at(totals, seg[done], kronrod[done])
        if not n_keep:
            return acc if one else complex(totals.sum())
        if evals + 30 * n_keep > QUAD_EVAL_BUDGET:
            if one:
                best = _in_order(acc, kronrod[keep])
            else:
                np.add.at(totals, seg[keep], kronrod[keep])
                best = complex(totals.sum())
            raise QuadratureBudgetError(_BUDGET, best=best)
        split = np.flatnonzero(keep).repeat(2)
        seg, mid, half, tols = seg[split], mid[split], 0.5 * half[split], 0.5 * tols[split]
        mid[0::2] -= half[0::2]
        mid[1::2] += half[1::2]
        t = mid[:, None] + half[:, None] * _XK
        if one:
            nodes = a + t * ds
        else:
            ds = d[seg]
            nodes = za[seg, None] + t * ds[:, None]
        fv = fz(nodes.ravel())


def _in_order(acc: complex, values: np.ndarray) -> complex:
    """acc plus the values one by one, in order, as np.add.at adds them to one
    entry: a plain loop, as the built-in sum() compensates float sums since
    Python 3.12."""
    for v in values.tolist():
        acc += v
    return acc


_TOO_CLOSE = "non-finite integrand: path too close to singularity"
_BUDGET = "quadrature budget exhausted"


def _integrate_paths(fz, za: np.ndarray, d: np.ndarray, tol: float, paths: Sequence[int]) -> list:
    """integrate_pieces over many paths in one round loop: paths[p] is the
    number of pieces of path p, which follow those of path p - 1.  Entry p is
    the sum of path p, or the error it raises alone.

    ``fz(idx, z)`` returns the rows idx (increasing) at the points z, one
    row each, as ``_integrands`` does; row p is path p, and the rows of a
    round hold the points of each path that is still open, in the order of
    its own call, padded to one width with its first point.  fz must give
    each point the bits it gives that point alone.  Each path gets its own
    first mesh over its own length, its own share of tol, its own count
    against QUAD_EVAL_BUDGET and its own refusal, and the same rule, err <=
    fmax(share, floor): a NaN floor leaves the share, a NaN err rejects.  A
    round takes the K15 and G7 sums of all panels in one product each, but
    the floors of a path only when one of its panels fails its share, with
    the mass of its panels in a product of its own (a complex product rounds
    each row alone, for two rows or more; the real one does not), and each
    path's piece totals are summed as one slice, so that every bit is that
    of the path alone.  The round repeats integrate_pieces' own, which a
    shared helper would slow by a call per round.  One path runs the
    one-path loop.
    """
    if len(paths) == 1 and paths[0] == len(za):
        row = np.zeros(1, dtype=int)
        return [_per_row(integrate_pieces, lambda z: fz(row, z[None])[0], za, d, tol)]
    sizes = np.asarray(paths, dtype=int)
    n_paths, bounds = len(sizes), np.concatenate([[0], np.cumsum(sizes)])
    if bounds[-1] != len(za) or (sizes < 0).any():
        raise InputError("paths must count the pieces of each path, and all pieces once")
    lengths = np.abs(d)
    # each path's length, summed as its own call sums it
    total = np.array([lengths[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])
    out: list = [0j] * n_paths
    path = np.repeat(np.arange(n_paths), sizes)
    live = (total != 0.0)[path]  # a path of length 0 sums to 0 unevaluated
    za, d, lengths, path = za[live], d[live], lengths[live], path[live]
    if not len(za):
        return out
    first = np.searchsorted(path, np.arange(n_paths + 1))  # path p: pieces first[p]:first[p + 1]
    share = lengths / total[path]
    one_piece = ((sizes == 1) & np.isfinite(total))[path]
    counts = np.where(one_piece, _MESH, np.fmax(np.ceil(_MESH * share), 1.0)).astype(int)
    build = _first_round if len(_XK) * counts.sum() <= _CACHE_NODES else _first_round.__wrapped__
    seg, m, mid, half, template = build(tuple(counts.tolist()))
    tols = (tol * lengths / total[path])[seg] / m
    nodes = za[seg, None] + template * d[seg, None]
    totals = np.zeros(len(za), dtype=complex)
    evals = np.zeros(n_paths, dtype=int)
    pts, ends = np.concatenate([za, za + d, nodes.ravel()]), np.concatenate([path, path])
    while True:
        panel_path = path[seg]
        on = np.concatenate([ends, panel_path.repeat(len(_XK))])  # each point's path
        fv = _on_rows(fz, pts, on)
        evals += np.bincount(on, minlength=n_paths)
        bad = np.zeros(n_paths, dtype=bool)
        bad[on[~np.isfinite(fv)]] = True
        for p in np.flatnonzero(bad).tolist():
            out[p] = PathTooCloseError(_TOO_CLOSE)
        ok = ~bad[panel_path]
        if not ok.any():
            return out
        fv = fv[-nodes.size:].reshape(nodes.shape)[ok]  # past round 1's piece endpoints
        seg, mid, half, tols, panel_path = seg[ok], mid[ok], half[ok], tols[ok], panel_path[ok]
        runs = np.flatnonzero(np.diff(panel_path, prepend=-1, append=n_paths))
        scale = half * d[seg]
        k15, g7 = fv @ _WK, fv @ _WG
        kronrod = scale * k15
        err = np.abs(kronrod - scale * g7)
        done = err <= tols
        # the floors of each path with a panel that fails its share, as in
        # integrate_pieces, each path's mass in a product of its own
        floored = np.zeros(n_paths, dtype=bool)
        floored[panel_path[~done]] = True
        for lo, hi in zip(runs[:-1], runs[1:]):
            if floored[panel_path[lo]]:
                done[lo:hi] = err[lo:hi] <= np.fmax(
                    tols[lo:hi], _ROUNDING_FLOOR * np.abs(scale[lo:hi]) * (np.abs(fv[lo:hi]) @ _WK))
        np.add.at(totals, seg[done], kronrod[done])
        keep = ~done
        kept = np.bincount(panel_path[keep], minlength=n_paths)
        over = (evals + 30 * kept > QUAD_EVAL_BUDGET) & (kept > 0)
        refused = keep & over[panel_path]
        np.add.at(totals, seg[refused], kronrod[refused])
        for p in panel_path[runs[:-1]].tolist():  # the paths of this round
            if over[p] or not kept[p]:
                best = complex(totals[first[p]:first[p + 1]].sum())
                out[p] = QuadratureBudgetError(_BUDGET, best=best) if over[p] else best
        keep &= ~over[panel_path]
        if not keep.any():
            return out
        split = np.flatnonzero(keep).repeat(2)
        seg, mid, half, tols = seg[split], mid[split], 0.5 * half[split], 0.5 * tols[split]
        mid[0::2] -= half[0::2]
        mid[1::2] += half[1::2]
        nodes = za[seg, None] + (mid[:, None] + half[:, None] * _XK) * d[seg, None]
        pts, ends = nodes.ravel(), ends[:0]


def _on_rows(fz, pts: np.ndarray, on: np.ndarray) -> np.ndarray:
    """fz at the points pts, pts[i] on row on[i], by one call fz(idx, block):
    idx the rows that have points, and each row of the block its points in
    order, then its first point again up to the widest row."""
    order = np.argsort(on, kind="stable")
    first = np.flatnonzero(np.diff(on[order], prepend=-1))  # where each row starts in order
    idx, width = on[order][first], np.diff(first, append=on.size)
    row = np.searchsorted(idx, on)
    col = np.empty_like(on)
    col[order] = np.arange(on.size) - first[row[order]]
    block = np.repeat(pts[order][first][:, None], width.max(), axis=1)
    block[row, col] = pts
    return fz(idx, block)[row, col]


_RING_START, _RING_CAP = 64, 2 ** 14  # node counts of the periodic rule on circles


def _rings(sample, N: int, is_open: np.ndarray, cap: int):
    """Sample the open rows of a block on rings of N, 2N, 4N, ... <= cap
    equispaced points of the unit circle, and yield (N, idx, vals) per ring.

    idx holds the rows open in ``is_open``, increasing, and vals[j] is row
    idx[j] at the N unit roots exp(2 pi i k/N), in angular order.
    ``sample(idx, u)`` returns the rows idx at the points u, one row each, or
    a single row's values as one array, which then stays one-dimensional.
    Each doubling samples only the midpoints of the ring before it.  A row
    with a non-finite sample is closed in ``is_open`` before the yield; the
    caller closes the rows it is done with between yields.  Rows still open
    at the cap stay open.  Each row of a block gets what it gets alone.
    """
    def still_open(idx, vals):  # idx holds every open row, and rows only close
        if (n_open := np.count_nonzero(is_open)) in (idx.size, 0):  # all or none
            return idx[:n_open], vals
        keep = is_open[idx]
        return idx[keep], vals.reshape(idx.size, -1)[keep]

    idx, vals = is_open.nonzero()[0], None
    while N <= cap and idx.size:
        roots = _unit_roots if N <= _CACHE_NODES else _unit_roots.__wrapped__
        with np.errstate(all="ignore"):
            if vals is None:
                vals = fresh = sample(idx, roots(N, 0.0))
            else:  # the midpoints, which double N
                fresh = sample(idx, roots(N // 2, 0.5))
                pairs = np.concatenate([vals[..., None], fresh[..., None]], axis=-1)
                vals = pairs.reshape(*vals.shape[:-1], N)
        if not np.isfinite(fresh).all():
            is_open[idx[~np.isfinite(fresh.reshape(idx.size, -1)).all(axis=1)]] = False
            idx, vals = still_open(idx, vals)
        if idx.size:
            yield N, idx, vals
            idx, vals = still_open(idx, vals)
        N *= 2


def circle_primitives(fz, center: complex, radius: float, n: int, tol: float, starts):
    """Primitives G of fz dz at the n samples circle_samples(center, radius, n),
    up to one constant per row, by the periodic trapezoid rule, for a block
    of rows on one circle.

    ``fz(idx, z)`` returns the rows idx (increasing) at the points z, one row
    each, or a single row's values as one array.  Row i samples g(theta) =
    fz(z) i (z - center) at N = n 2^j >= max(starts[i], 64) equispaced
    angles; mode c_k of one FFT, divided by i k, is mode k of G.  N doubles
    (:func:`_rings`) until sum over |k| >= N/4 of |c_k| / |k| is within tol
    or 50 eps sum |c_k|; a start should pass the frequencies of fz, which the
    tail cannot see.  Rows of one start run their rings as one block and
    share one FFT per ring, and each row gets what it gets alone, bit for
    bit.  Entry i is (G, closure defect 2 pi c_0, int |g| d theta), or None
    if a sample is non-finite or N would pass 2^14.
    """
    first = np.full(len(starts), n)  # each row's first ring: n 2^j >= max(start, 64)
    while (short := first < np.maximum(starts, _RING_START)).any():
        first[short] *= 2
    out = [None] * len(first)

    def sample(idx, u):
        w = radius * u
        return fz(idx, center + w) * 1j * w

    for start in sorted(set(first.tolist())):
        is_open = first == start
        for N, idx, g in _rings(sample, start, is_open, _RING_CAP):
            c, k = np.fft.fft(g, axis=-1) / N, np.fft.fftfreq(N, 1.0 / N)
            # |k| >= N/4, a contiguous slice, so that each row sums as one row alone does
            high = slice(N // 4, N - N // 4 + 1)
            # np.maximum, not fmax: the floor sums every mode and the tail only
            # |k| >= N/4, so a NaN low mode with a finite tail must reject
            done = np.abs(c[..., high] / k[high]).sum(axis=-1) <= np.maximum(
                tol, _ROUNDING_FLOOR * np.abs(c).sum(axis=-1))
            n_done = np.count_nonzero(done)
            if n_done:
                rows, c, gd = (idx, c, g) if n_done == idx.size else (idx[done], c[done], g[done])
                modes0 = c[..., :1].ravel().tolist()
                c[..., 0], c[..., 1:] = 0.0, c[..., 1:] / (1j * k[1:])
                prims = (N * np.fft.ifft(c, axis=-1)[..., :: N // n]).reshape(rows.size, n)
                for j, i in enumerate(rows.tolist()):
                    mass = 2.0 * math.pi * float(np.mean(np.abs(gd.reshape(rows.size, N)[j])))
                    out[i] = prims[j], 2.0 * math.pi * modes0[j], mass
                is_open[rows] = False
    return out


# -- winding numbers ----------------------------------------------------------

_ARCS = 128  # first arcs of the zero count
_CHUNK = 256  # most points of one product in _taylor_at
_FAR = "a polynomial of the count leaves double range"
_NEXT = np.roll(np.arange(_ARCS), -1)  # arc l ends where arc _NEXT[l] starts


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _arc_powers(n: int) -> np.ndarray:  # u^m, row m < n, at the _ARCS unit roots u, one column each
    return _read_only(_unit_roots(_ARCS, 0.0)[np.arange(n)[:, None] * np.arange(_ARCS) % _ARCS])


def argument_principle_count(f: RationalMap | Factored, disc: Disc) -> int:
    """Zeros minus poles of f = num/den in the open disc, with multiplicity:
    the winding of num around the circle |z - c| = r minus that of den, from
    their coefficients alone (of ``f.map`` for a Factored): no root is solved.

    Each polynomial P of degree n is wound over certified arcs (Ying & Katz,
    Numer. Math. 53 (1988) 143-163): 128 equal arcs, halved while they fail.
    An arc of angle h is certified when, at one of its ends, |T_0| - e > sum
    over j >= 1 of |T_j| rho^j (rho = h + 2^-48), T_j the Taylor coefficients
    of P(end + r t) from ``poly._taylor_rows`` and e = 8 (n + 1) 2^-53 sum
    |c_k| (|c| + r + r rho)^k their rounding bound (Higham 5.1); the arc then
    turns by arg(P(end) / P(start)).  QuadratureBudgetError refuses a failing
    arc with |T_0| within e at rho = 0 at an end (the zero map) or shorter
    than 2^-50 of the circle, and a polynomial past COUNT_NODE_CAP
    expansions, naming the polynomial (numerator or denominator, and its
    degree) and the circle;
    NumericalError, e or a T_j out of double range, or a degree above
    ``poly._BINOMIAL_DEGREE``.  Each halving expands the midpoints of one
    polynomial from its one Taylor matrix, so k arcs of degree n take
    O(n^2 + k n) memory.  The one-row case of ``_counts``.
    """
    return _result(_counts([f], [disc])[0])


def _counts(fs: Sequence[RationalMap | Factored], discs: Sequence[Disc]) -> list:
    """argument_principle_count(fs[i], discs[i]) of each map, or the error it
    raises: one disc per map, and the numerators and denominators of all the
    maps, on all their circles, wound as one block.

    Each polynomial is shifted to its own circle and scaled to the unit one
    (u = (z - c)/r), so that one Taylor block and one list of halving rounds
    serve every circle.  No row reads another's disc, degree or values: each
    map gets what its one-row call gets.
    """
    polys = [p for m in (getattr(f, "map", f) for f in fs) for p in (m.num, m.den)]
    live, degree, r, zmax, floor, H = _frames(polys, [(d.center, d.radius) for d in discs for _ in "nd"])
    rows, n = len(live), H.shape[1]
    j = np.arange(n)

    def test(absT, h, row):  # on arcs of h turns: |T_0| - e > sum over j >= 1 of |T_j| rho^j
        rho = 2.0 * math.pi * h + 2.0 ** -48
        e = floor * (1.0 + r * rho / zmax) ** degree  # e at rho = 0 times its growth
        return np.einsum("...j,j->...", absT, np.where(j > 0, rho ** j, -1.0)) < -e[row]

    with np.errstate(all="ignore"):
        # node p _ARCS + l (row p of T, later flat): unit root l, where arc l of polynomial p starts
        T = np.einsum("pjm,ml->plj", H, _arc_powers(n))  # not @, which would add BLAS buffers
        absT, P, h = np.abs(T), T[..., 0], 1.0 / _ARCS
        in_range = np.isfinite(floor) & np.isfinite(absT).all(axis=(1, 2))
        alive = in_range.copy()
        good = test(absT, h, np.arange(rows)[:, None])
        certified = good | good[:, _NEXT] | ~alive[:, None]
        turns = np.where(certified, np.angle(P[:, _NEXT] / P), 0.0).sum(axis=1)
        pid, a = np.nonzero(~certified)  # pid ascending, as every filter below keeps it
        if pid.size:
            _halve(lambda p, t: _taylor_at(H, p, np.exp(2j * math.pi * t)), test, np.arange(rows),
                   floor, h, (pid, pid * _ARCS + a, pid * _ARCS + _NEXT[a]),
                   (np.tile(np.arange(_ARCS) / _ARCS, rows), P.ravel(), absT.reshape(-1, n)),
                   np.full(rows, _ARCS), alive, in_range, turns)

    def refused(i):
        disc, which = discs[i // 2], ("numerator", "denominator")[i % 2]
        return QuadratureBudgetError(
            f"argument-principle count: uncertified arc of the {which} of degree "
            f"{polys[i].degree} on the circle of center {disc.center:g} and radius "
            f"{disc.radius:g}")

    out = _settle(polys, live, turns, alive, in_range, refused)
    return [num if isinstance(num, Exception) else den if isinstance(den, Exception) else num - den
            for num, den in zip(out[0::2], out[1::2])]


def winding_number(f: ComplexPolynomial | RationalMap | Factored, contour: Contour) -> int:
    """Total argument change of f = num/den along a closed polyline, divided
    by 2 pi: wind(num) - wind(den) for f as given (``f.map`` for a Factored,
    num/1 for a ComplexPolynomial), from the coefficients alone: f is not
    reduced and no root is solved.

    Each polynomial is wound as :func:`argument_principle_count` winds it,
    shifted to the centre c of the contour's bounding box and scaled by L,
    the largest |z - c| at a vertex.  Each chord is one first arc, halved
    while it fails; rho is an arc's length over L plus 2^-48, and e bounds
    the rounding at |z| <= |c| + L + L rho.  An arc that cannot be certified
    (|T_0| within e at an end, shorter than 2^-50 of its chord, or past
    COUNT_NODE_CAP expansions) raises ZeroOnContourError for the numerator,
    the zero map among them, and PathTooCloseError for the denominator; the
    count's NumericalError stays.  Any other f raises InputError: without a
    bound on f, no sampling of its values can rule out a full turn between
    two samples (Henrici, Applied and Computational Complex Analysis I, 4.6).
    """
    if not contour.closed:
        raise InputError("winding numbers need a closed contour")
    f = RationalMap(f) if isinstance(f, ComplexPolynomial) else getattr(f, "map", f)
    if not isinstance(f, RationalMap):
        raise InputError("winding numbers need a polynomial or rational map; "
                         "sampled values cannot certify one")
    # row q of the halving rounds is chord q % K of polynomial q // K, K the
    # number of chords: its first arc, from node q, and the halves of that arc
    zs, polys = contour.points[:-1], [f.num, f.den]
    c = complex(0.5 * (zs.real.min() + zs.real.max()), 0.5 * (zs.imag.min() + zs.imag.max()))
    L = float(np.max(np.hypot((zs - c).real, (zs - c).imag)))
    live, degree, r, zmax, floor, H = _frames(polys, [(c, L), (c, L)])
    K, rows, n = len(zs), len(live), H.shape[1]
    j, owner = np.arange(n), np.repeat(np.arange(rows), K)
    u, du = np.tile((zs - c) / L, rows), np.tile(np.diff(contour.points) / L, rows)
    length = np.hypot(du.real, du.imag)

    def test(absT, h, q):  # the count's test on arcs of t-length h, each on its own chord
        rho, p = length[q] * h + 2.0 ** -48, owner[q]
        e = floor[p] * (1.0 + r[p] * rho / zmax[p]) ** degree[p]
        return np.einsum("ij,ij->i", absT, np.where(j > 0, rho[:, None] ** j, -1.0)) < -e

    with np.errstate(all="ignore"):
        T = _taylor_at(H, owner, u)  # node q: vertex q % K of polynomial q // K, where arc q starts
        absT, P = np.abs(T), T[:, 0]
        in_range = np.isfinite(floor) & np.isfinite(absT).reshape(rows, K * n).all(axis=1)
        alive = in_range.copy()
        q = np.arange(rows * K)
        end = owner * K + (q + 1) % K  # arc q ends where arc end[q] starts
        certified = test(absT, 1.0, q) | test(absT[end], 1.0, q) | ~alive[owner]
        turns = np.bincount(owner, np.where(certified, np.angle(P[end] / P), 0.0), rows)
        q = q[~certified]
        if q.size:
            _halve(lambda q, t: _taylor_at(H, owner[q], u[q] + t * du[q]), test, owner, floor,
                   1.0, (q, q, end[q]), (np.zeros(rows * K), P, absT), np.full(rows, K),
                   alive, in_range, turns)

    def refused(i):
        which, error = (("numerator", ZeroOnContourError), ("denominator", PathTooCloseError))[i]
        if polys[i].is_zero:
            return error("the zero map has no winding number")
        return error(f"winding number: uncertified arc of the {which} of degree "
                     f"{polys[i].degree}: a root lies on the contour or within its rounding")

    num, den = _settle(polys, live, turns, alive, in_range, refused)
    return _result(num) - _result(den)


def _frames(polys: Sequence[ComplexPolynomial], frames: Sequence[tuple[complex, float]]):
    """Each polynomial P in its frame (c, r) = frames[i] as P(c + r u), for
    the wound ones (degree 1 to ``poly._BINOMIAL_DEGREE``, or the zero one):
    their indices, degrees, r, |c| + r, rounding floors 8 (n + 1) 2^-53 sum
    |c_k| (|c| + r)^k, which cover the shift too, and Taylor matrices in u."""
    live = [i for i, p in enumerate(polys) if p.degree != 0 and p.degree <= _BINOMIAL_DEGREE]
    cs = _padded([(polys[i] if frames[i][0] == 0 else polys[i].taylor_shift(frames[i][0])).coeffs
                  or (0,) for i in live])
    j, degree = np.arange(cs.shape[1]), np.array([polys[i].degree for i in live], dtype=int)
    r = np.array([frames[i][1] for i in live])
    zmax = np.array([abs(frames[i][0]) + frames[i][1] for i in live])
    with np.errstate(all="ignore"):
        scale = [polys[i].horner_scale(x) for i, x in zip(live, zmax.tolist())]
        floor = 8.0 * 2.0 ** -53 * (degree + 1) * scale
        H = _taylor_rows(cs * np.where(j <= degree[:, None], r[:, None] ** j, 0.0))
    return live, degree, r, zmax, floor, H


def _halve(expand, test, owner, floor, h, arcs, nodes, spent, alive, in_range, turns) -> None:
    """The halving rounds of the circle count and the polyline winding,
    after their first round.  ``arcs`` = (pid, a, b) are the failing arcs, of
    t-length h, from node a to node b on rows pid (ascending), which wind
    polynomials owner[pid]; ``nodes`` = (t, P, absT) are each node's
    parameter, value and Taylor moduli.  A round refuses the polynomial of an
    arc with |T_0| within its floor at an end, h below 2^-50 or past
    COUNT_NODE_CAP expansions, expands the midpoints t + h/2 by
    ``expand(pid, t)``, and adds the turn of each half that ``test(absT, h,
    pid)`` certifies at an end.  It updates ``spent``, ``alive``,
    ``in_range`` and ``turns``, one per polynomial, in place.
    """
    (pid, a, b), (t, P, absT) = arcs, nodes
    while pid.size:
        o = owner[pid]
        spent += np.bincount(o, minlength=len(spent))
        stuck = np.minimum(absT[a, 0], absT[b, 0]) <= floor[o]
        alive[o[stuck | (spent[o] > COUNT_NODE_CAP) | (h < 2.0**-50)]] = False
        keep = alive[o]
        pid, a, b, h = pid[keep], a[keep], b[keep], h / 2.0
        mid_t = t[a] + h
        mid = len(t) + np.arange(pid.size)
        mids = expand(pid, mid_t)
        far = owner[pid[~np.isfinite(mids).all(axis=1)]]
        in_range[far] = alive[far] = False
        P = np.concatenate([P, mids[:, 0]])
        absT = np.concatenate([absT, np.abs(mids)])
        t = np.concatenate([t, mid_t])
        pid = pid.repeat(2)
        a, b = np.stack([a, mid], 1).ravel(), np.stack([mid, b], 1).ravel()
        certified = test(absT[a], h, pid) | test(absT[b], h, pid)
        turns += np.bincount(owner[pid[certified]], np.angle(P[b] / P[a])[certified], len(turns))
        pid, a, b = pid[~certified], a[~certified], b[~certified]


def _settle(polys, live, turns, alive, in_range, refused) -> list:
    """Each polynomial's winding, round(turns / 2 pi), or the error it
    raises: NumericalError out of double range, refused(i) for polynomial i
    with an arc that could not be certified.  A constant winds 0."""
    out: list = [0 if p.degree <= _BINOMIAL_DEGREE else NumericalError(_FAR) for p in polys]
    for k, i in enumerate(live):
        if alive[k]:
            out[i] = round(turns[k] / (2.0 * math.pi))
        elif not in_range[k]:
            out[i] = NumericalError(_FAR)
        else:
            out[i] = refused(i)
    return out


def _taylor_at(H: np.ndarray, pid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i: the Taylor coefficients T_j of polynomial pid[i] at w[i], from
    its Taylor matrix H[pid[i]].  pid is ascending, and each polynomial takes
    one product per _CHUNK of its points, so that no matrix is copied per
    point and no Vandermonde block grows with the number of points."""
    out = np.empty((pid.size, H.shape[1]), dtype=complex)
    starts = np.flatnonzero((np.diff(pid, prepend=-1) != 0) | (np.arange(pid.size) % _CHUNK == 0))
    for lo, hi in zip(starts, np.append(starts[1:], pid.size)):
        out[lo:hi] = np.einsum("jm,im->ij", H[pid[lo]], np.vander(w[lo:hi], H.shape[1], True))
    return out
