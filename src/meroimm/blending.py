"""Polynomial approximation on discs and partition-of-unity blending of
sampled families of plane-valued maps.

A map is Taylor-truncated at the disc center by the periodic trapezoid rule
(Trefethen & Weideman, SIAM Rev. 56 (2014)): degree N of the schedule is
fitted by one FFT from 8N equispaced boundary samples, and the ring doubles
with the degree by adding its midpoints, so a map that closes at degree 8
costs 64 samples.  A family sampled over a parameter grid is blended through
a net of representative nodes: the net members are truncated in blocks of
rows, with one padded Horner evaluation of the rational rows, one FFT per
degree and one degree sweep per block.  Each truncation is checked at 256
equispaced points of the same circle, offset by 0.37 of a step, which is one
inverse FFT of its twisted coefficients (at N = 256 the top coefficient
folds onto the constant one).  The outputs are convex combinations with
piecewise-linear net weights, taken a few rows at a time, so each stride
tried and the blend on a coarser net hold at most 2^16 weights at once; the
full grid is taken without a test, since there each node weighs only
itself, and its blend is its member's approximant.  Every net of stride > 1
first tests the same pair: node 0 and the first node in no such net, node 1
(node 2 on an (n, 2) grid).  That pair is tested once, before the search, and
a family that fails it, a NaN distance included, blends at the full grid
without building a net weight.  The two-triangle
estimate gives sup errors below half the target whenever each covered node
stays within a quarter of it from its net representative.  A relative
variant swaps in prescribed exact maps on the grid's marked subset Q.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEGREE_BUDGET, DEGREE_SCHEDULE, check_eps
from .contours import Disc, _result, _rings, _vectorized, circle_samples
from .errors import DegreeBudgetError, InputError, MeroimmError, PreconditionError
from .grids import ParamGrid
from .poly import ComplexPolynomial, _horner_rows, _padded, _unshifted
from .rational import RationalMap


@dataclass(frozen=True)
class SampledFamily:
    """One evaluable plane-valued map per grid node, on a common domain."""

    grid: ParamGrid
    maps: tuple
    domain: Disc

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) != self.grid.npoints:
            raise InputError("one map per grid point required")

    def __len__(self):
        return len(self.maps)


def sampled_sup_distance(f, g, disc: Disc, *, samples: int = 256) -> float:
    """Sampled sup of |f - g| over the disc boundary.

    For maps holomorphic on the disc this bounds the interior difference by
    the maximum principle.
    """
    ring = circle_samples(disc.center, disc.radius, samples, offset=0.37)
    fv = _vectorized(f)(ring)
    gv = _vectorized(g)(ring)
    return float(np.max(np.abs(fv - gv)))


# a block's samples at the top degree: 32 rows of 2048 complex values, 1 MiB
_BLOCK_ROWS = 32

# the check ring: 256 points offset by 0.37 of a step from the fitting rings
_CHECK_POINTS, _CHECK_OFFSET = 256, 0.37

# net weights per net_weights call: 2^16 of them, 512 KiB
_WEIGHT_ENTRIES = 1 << 16


def _taylor_truncations(sample, is_open: np.ndarray):
    """Taylor coefficients of the rows of a block, lowest degree first, by
    the periodic trapezoid rule on each row's circle |z - center| = rho.

    Degree N of DEGREE_SCHEDULE is fitted by one FFT from the ring of 8N
    samples that :func:`~meroimm.contours._rings` takes, which doubles with
    the schedule by adding its midpoints, so each sample is taken once and
    the top degree sees 2048.  Aliasing folds mode k + 8N onto mode k: for a
    row holomorphic out to radius rho/q that is about q^(8N), far below the
    truncation tail q^(N+1).  ``sample(idx, u)`` returns the rows idx at the
    points center + rho u of their circles, one row each (a single row may
    come back as one array), for points u of the unit circle; mapped as
    center + rho * u, each point is that of circle_samples, bit for bit.  It
    is asked only for the rows still open in ``is_open``; a row with a
    non-finite sample closes there without a truncation.  Yields (idx, c)
    per degree, where c[j, k] is the coefficient of ((z - center)/rho)^k in
    row idx[j], k <= N; the caller closes rows between degrees.
    """
    for K, idx, vals in _rings(sample, 8 * DEGREE_SCHEDULE[0], is_open, 8 * DEGREE_SCHEDULE[-1]):
        yield idx, (np.fft.fft(vals, axis=-1)[..., : K // 8 + 1] / K).reshape(idx.size, K // 8 + 1)


def _truncations(c: np.ndarray, center, rho) -> list[ComplexPolynomial]:
    """The polynomials in z with coefficients c[j, k] of ((z - center)/rho)^k,
    center and rho one value or a column of one per row: one division scales
    the rows, and only those that taylor_shift's rule would change shift."""
    scaled = c / rho ** np.arange(c.shape[1])
    shift = -np.asarray(center, dtype=complex)
    shifts = shift.ravel().tolist() if shift.ndim else [complex(shift)] * len(c)
    as_is = ((shift == 0).ravel() & _unshifted(scaled)).tolist()
    polys = [ComplexPolynomial(row, coeff_tol=0.0) for row in scaled.tolist()]
    return [p if keep else p.taylor_shift(a) for p, keep, a in zip(polys, as_is, shifts)]


def _check_values(c: np.ndarray) -> np.ndarray:
    """Each row of c, the coefficients of u^k, at the check points
    u_j = exp(2 pi i (j + offset)/n), n = _CHECK_POINTS, one row each.

    Sum_k c_k u_j^k = Sum_k (c_k twist_k) exp(2 pi i j k/n) with twist_k =
    exp(2 pi i offset k/n), one unscaled inverse FFT; a column k >= n folds
    onto k - n, since u_j^n = twist_n for every j.
    """
    n = _CHECK_POINTS
    t = c * np.exp(2j * np.pi * _CHECK_OFFSET / n * np.arange(c.shape[1]))
    if t.shape[1] > n:
        t[:, : t.shape[1] - n] += t[:, n:]
        t = t[:, :n]
    return np.fft.ifft(t, n=n, axis=1, norm="forward")


def _row_sampler(fs: Sequence):
    """sample(idx, z): the maps fs[idx] at the points z, one row each.  The
    RationalMap rows are evaluated together, by one padded Horner over their
    numerators and one over their denominators; other callables one by one."""
    rational = np.array([isinstance(f, RationalMap) for f in fs], dtype=bool)
    one = ComplexPolynomial.one()  # the placeholder fraction of the other rows
    num = _padded([(f.num if r else one).coeffs for f, r in zip(fs, rational)])
    den = _padded([(f.den if r else one).coeffs for f, r in zip(fs, rational)])
    calls = [_vectorized(f) for f in fs]

    def sample(idx: np.ndarray, z: np.ndarray) -> np.ndarray:
        out = np.empty((idx.size, z.size), dtype=complex)
        rat = rational[idx]
        with np.errstate(all="ignore"):
            if rat.any():
                out[rat] = _horner_rows(num[idx[rat]], z) / _horner_rows(den[idx[rat]], z)
            for j in np.flatnonzero(~rat):
                out[j] = calls[idx[j]](z)
        return out

    return sample


def _approximate_block(block: list, disc: Disc, eps: float, check: np.ndarray) -> list:
    """The block's maps replaced by polynomials within eps on the disc, or
    by the errors they raise.  A row closes at its first truncation within
    eps at the points ``check`` of the boundary, the check ring.  Each
    degree's truncations are evaluated there by one inverse FFT of their
    twisted coefficients (``_check_values``), with the top degree's
    coefficient of u^256 folded onto the constant; only the rows that close
    are made polynomials in z, by one ``_truncations`` per degree."""
    rows = []
    for r, f in enumerate(block):
        if isinstance(f, RationalMap) and f.is_polynomial:
            block[r] = f = f.as_polynomial()
        if not isinstance(f, ComplexPolynomial):
            rows.append(r)
        elif f.degree > DEGREE_BUDGET:
            block[r] = DegreeBudgetError("polynomial input exceeds the degree budget")
    center, rho = disc.center, disc.radius
    sample = _row_sampler([block[r] for r in rows])
    is_open = np.ones(len(rows), dtype=bool)
    target = sample(np.arange(len(rows)), check)
    best = np.full(len(rows), math.inf)
    for idx, c in _taylor_truncations(lambda idx, u: sample(idx, center + rho * u), is_open):
        err = np.max(np.abs(_check_values(c) - target[idx]), axis=1)
        best[idx] = np.fmin(best[idx], err)
        shut = err < eps
        if shut.any():  # only the rows that close get a polynomial
            for i, g in zip(idx[shut].tolist(), _truncations(c[shut], center, rho)):
                block[rows[i]], is_open[i] = g, False
    for i, r in enumerate(rows):
        if is_open[i]:
            msg = f"degree schedule exhausted at sampled error {best[i]:.3e}"
            block[r] = _pole_inside(block[r], disc) or DegreeBudgetError(
                msg, achieved=float(best[i]))
        elif not isinstance(block[r], ComplexPolynomial):  # closed by a non-finite sample
            block[r] = PreconditionError("map is singular on the disc boundary")
    return block


def _pole_inside(f, disc: Disc) -> PreconditionError | None:
    """The refusal of a rational map with a pole in the closed disc, which no
    polynomial approximates there, or None; asked only of rows that ran out
    of degrees, so only a failing fit pays for the factorization."""
    if not isinstance(f, RationalMap):
        return None
    try:
        poles = f.factor().poles.locations
    except MeroimmError:
        return None  # the row's budget failure stands
    for a in poles:
        if disc.contains(a):
            return PreconditionError(f"the map has a pole at {a:.6g} in the closed disc")
    return None


def _approximate_net(maps: Sequence, disc: Disc, eps: float):
    """Polynomials within eps of each map on the disc, in blocks of
    _BLOCK_ROWS maps sampled on shared rings and one shared check ring.  The
    first map that fails, in order, raises its error.
    """
    check = circle_samples(disc.center, disc.radius, _CHECK_POINTS, offset=_CHECK_OFFSET)
    for start in range(0, len(maps), _BLOCK_ROWS):
        for g in _approximate_block(list(maps[start : start + _BLOCK_ROWS]), disc, eps, check):
            yield _result(g)


def poly_approx_on_disc(f, disc: Disc, eps: float) -> ComplexPolynomial:
    """Polynomial within eps of f on the disc (sampled sup norm).

    Polynomial inputs of degree within budget pass through unchanged.  For
    everything else the Taylor coefficients at the disc center of degree N
    are recovered by FFT from 8N equispaced boundary samples, and N doubles
    along DEGREE_SCHEDULE until an offset 256-point boundary check clears
    eps; each doubling samples only the midpoints of the ring before it.
    Aliasing puts mode k + 8N into mode k, which is about q^(8N) for a map
    holomorphic out to radius rho/q, far below the truncation tail q^(N+1),
    so the check still decides every degree.  This is the one-row case of
    the block path that ``blend_parametric`` runs over a whole net: a map
    singular at a sample of a ring it takes raises PreconditionError, and a
    schedule that runs out raises DegreeBudgetError with the best sampled
    error, unless the map is rational with a pole in the closed disc, which
    no polynomial approximates: that raises PreconditionError naming the
    pole.  An eps that is not a finite positive number raises InputError.
    """
    check_eps(eps)
    return next(_approximate_net([f], disc, eps))


def _weight_rows(grid: ParamGrid, net: Sequence[int], points: np.ndarray):
    """(i, net weights at points[i]) for every i in order, from one
    net_weights call per _WEIGHT_ENTRIES weights, so memory stays linear in
    the net; the rows are those of one whole-grid call, bit for bit."""
    step = max(1, _WEIGHT_ENTRIES // len(net))
    for start in range(0, len(points), step):
        yield from enumerate(grid.net_weights(net, points[start : start + step]), start)


def _closeness(family: SampledFamily, eps_quarter: float):
    """close(i, j): whether nodes i and j stay eps/4-close on the domain at
    128 boundary samples, a NaN distance failing; each pair sampled once."""

    @functools.cache
    def close(i: int, j: int) -> bool:
        d = sampled_sup_distance(family.maps[i], family.maps[j], family.domain, samples=128)
        return d < eps_quarter

    return close


def _net_condition_holds(grid: ParamGrid, net: Sequence[int], points: np.ndarray, close) -> bool:
    """Check that every node with positive net weight stays close to its net
    representatives, by close(i, j) from :func:`_closeness`."""
    for i, w in _weight_rows(grid, net, points):
        for k in np.flatnonzero(w > 0.0):
            if net[k] != i and not close(i, net[k]):
                return False
    return True


def blend_parametric(family: SampledFamily, eps: float) -> SampledFamily:
    """Replace the family by polynomial blends with sup error below eps/2.

    The net of representative nodes is the coarsest power-of-two stride
    whose covered nodes stay within eps/4 of their representatives; the full
    grid always qualifies, so no net is ever refused.  Every stride > 1 first
    tests node 0 against the first node in no such net, so that pair is
    tested once, before the search: a family that fails it, a NaN distance
    included, takes the full grid without net weights.  No pair is sampled
    twice in one call.  Net members are polynomial-approximated to eps/4 and
    recombined per node with the piecewise-linear net weights; the triangle
    inequality then bounds every node's error by eps/2.  An eps that is not
    a finite positive number raises InputError.
    """
    check_eps(eps)
    if not isinstance(family.domain, Disc):
        raise InputError(
            "blending needs a disc domain (polynomial approximation target)"
        )
    grid, close = family.grid, _closeness(family, eps / 4.0)
    stride = max(grid.shape) - 1
    if stride > 1 and not close(1 if grid.shape[-1] > 2 else 2, 0):
        stride = 1  # the pair that every stride > 1 tests first fails
    points = np.array(grid.points) if stride > 1 else None  # read by net weights only
    while stride > 1 and not _net_condition_holds(grid, grid.net_indices(stride), points, close):
        stride //= 2
    net = grid.net_indices(stride)

    members = [family.maps[j] for j in net]
    approximants = list(_approximate_net(members, family.domain, eps / 4.0))
    if net == list(range(grid.npoints)):
        # each node weighs only itself: its blend is its own approximant
        return SampledFamily(grid, tuple(approximants), family.domain)
    out = []
    for _, w in _weight_rows(grid, net, points):
        blend = ComplexPolynomial.zero()
        for k in np.flatnonzero(w > 0.0):
            blend = blend + w[k] * approximants[k]
        out.append(blend)
    return SampledFamily(grid, tuple(out), family.domain)


def fix_on_Q(
    blended: SampledFamily,
    q_maps: Mapping[int, object],
    *,
    original: SampledFamily,
    eps: float,
) -> SampledFamily:
    """Swap in prescribed exact maps on Q.

    q_maps gives one map per Q node of the grid, and no other.  Each Q node
    receives its prescribed map object unchanged, so equality there is
    exact; every other node keeps its blend.  An empty Q returns the blend
    itself.  Each prescribed map must stay within eps/2 of the ``original``
    family at its node (sampled on the domain boundary), or
    PreconditionError is raised; an eps that is not a finite positive number
    raises InputError.
    """
    check_eps(eps)
    grid = blended.grid
    q_nodes = grid.q_indices
    if set(q_maps.keys()) != set(q_nodes):
        raise InputError("q_maps must prescribe exactly the grid's Q nodes")
    if not q_nodes:
        return blended
    out = list(blended.maps)
    for i in q_nodes:
        d = sampled_sup_distance(q_maps[i], original.maps[i], blended.domain, samples=128)
        if not d < eps / 2.0:  # a NaN distance fails
            raise PreconditionError(
                f"prescribed map at Q node {i} drifts {d:.3e} from the family"
            )
        out[i] = q_maps[i]
    return SampledFamily(grid, tuple(out), blended.domain)
