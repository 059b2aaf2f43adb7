"""Polynomial approximation on discs and partition-of-unity blending of
sampled families of plane-valued maps.

A family sampled over a parameter grid is blended through a net of
representative nodes: the net members are Taylor-truncated on the disc in
blocks of rows, with one FFT and one degree sweep per block, and the outputs
are convex combinations with piecewise-linear net weights.  Each coarser
stride tried builds one (nodes x net) weight matrix, and so does the blend;
the full grid is taken without a test, since there each node weighs only
itself.  The two-triangle estimate gives sup errors below half the target
whenever each covered node stays within a quarter of it from its net
representative.  A relative variant swaps in prescribed exact maps on the
grid's marked subset Q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEGREE_BUDGET, DEGREE_SCHEDULE, check_eps
from .contours import Disc, _vectorized, circle_samples
from .errors import (
    DegreeBudgetError,
    GridResolutionError,
    InputError,
    PreconditionError,
)
from .grids import ParamGrid
from .poly import ComplexPolynomial
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


_BLOCK_ROWS = 8  # a block's samples: 8 rows of 2048 complex values, 256 KiB


def _taylor_truncations(vals, center: complex, rho: float, is_open):
    """Taylor truncations at center, lowest degree first, of the rows of a
    block of finite samples on ``circle_samples(center, rho, K)``, from one
    FFT over the block.  Each degree of DEGREE_SCHEDULE yields the rows
    still open in ``is_open`` with their truncations; the caller closes rows
    between degrees.
    """
    coeffs = np.fft.fft(vals, axis=1)[:, : DEGREE_BUDGET + 1] / vals.shape[1]
    for N in DEGREE_SCHEDULE:
        idx = np.flatnonzero(is_open)
        if idx.size:
            scaled = coeffs[idx, : N + 1] / rho ** np.arange(N + 1)
            yield idx, [
                ComplexPolynomial(c, coeff_tol=0.0).taylor_shift(-center) for c in scaled
            ]


def _horner_rows(polys: Sequence[ComplexPolynomial], z: np.ndarray) -> np.ndarray:
    """Each polynomial at z, one row each; zero padding keeps every bit."""
    width = max(len(p.coeffs) for p in polys)
    cs = np.array([p.coeffs + (0j,) * (width - len(p.coeffs)) for p in polys])
    out = np.zeros((len(polys), z.size), dtype=complex)
    for k in range(cs.shape[1] - 1, -1, -1):
        out *= z
        out += cs[:, k : k + 1]
    return out


def _approximate_net(maps: Sequence, disc: Disc, eps: float):
    """Polynomials within eps of each map on the disc, in blocks of
    _BLOCK_ROWS maps sampled on one shared ring and one shared check ring.
    A row closes at its first truncation within eps on the check ring.  The
    first map that fails, in order, raises its error.
    """
    center, rho = disc.center, disc.radius
    ring = circle_samples(center, rho, max(2048, 8 * DEGREE_BUDGET))
    check = circle_samples(center, rho, 256, offset=0.37)
    for start in range(0, len(maps), _BLOCK_ROWS):
        block, rows = list(maps[start : start + _BLOCK_ROWS]), []
        for r, f in enumerate(block):
            if isinstance(f, RationalMap) and f.is_polynomial:
                block[r] = f = f.as_polynomial()
            if not isinstance(f, ComplexPolynomial):
                rows.append(r)
            elif f.degree > DEGREE_BUDGET:
                block[r] = DegreeBudgetError("polynomial input exceeds the degree budget")
        vals = np.empty((len(rows), ring.size), dtype=complex)
        target = np.empty((len(rows), check.size), dtype=complex)
        with np.errstate(all="ignore"):
            for i, r in enumerate(rows):
                fv = _vectorized(block[r])
                vals[i], target[i] = fv(ring), fv(check)
        is_open = np.isfinite(vals).all(axis=1)
        for i in np.flatnonzero(~is_open):
            block[rows[i]] = PreconditionError("map is singular on the disc boundary")
        vals[~is_open] = 0.0  # refused rows: keep the FFT free of inf and nan
        best = np.full(len(rows), math.inf)
        for idx, polys in _taylor_truncations(vals, center, rho, is_open):
            err = np.max(np.abs(_horner_rows(polys, check) - target[idx]), axis=1)
            best[idx] = np.fmin(best[idx], err)
            for i, g, e in zip(idx, polys, err):
                if e < eps:
                    block[rows[i]], is_open[i] = g, False
        for i in np.flatnonzero(is_open):
            msg = f"degree schedule exhausted at sampled error {best[i]:.3e}"
            block[rows[i]] = DegreeBudgetError(msg, achieved=float(best[i]))
        for g in block:
            if isinstance(g, Exception):
                raise g
            yield g


def poly_approx_on_disc(f, disc: Disc, eps: float) -> ComplexPolynomial:
    """Polynomial within eps of f on the disc (sampled sup norm).

    Polynomial inputs of degree within budget pass through unchanged.  For
    everything else the Taylor coefficients at the disc center are recovered
    by FFT from boundary samples, and the truncation degree doubles until an
    offset boundary sample check clears eps.  This is the one-row case of the
    block path that ``blend_parametric`` runs over a whole net: a map
    singular on the boundary raises PreconditionError, and a schedule that
    runs out raises DegreeBudgetError with the best sampled error.  An eps
    that is not a finite positive number raises InputError.
    """
    check_eps(eps)
    return next(_approximate_net([f], disc, eps))


def _net_condition_holds(
    family: SampledFamily, net: Sequence[int], points: np.ndarray, eps_quarter: float
) -> bool:
    """Check that every node with positive net weight stays eps/4-close to
    its net representatives on the domain."""
    for i, w in enumerate(family.grid.net_weights(net, points)):
        for k in np.flatnonzero(w > 0.0):
            if net[k] == i:
                continue
            d = sampled_sup_distance(
                family.maps[i], family.maps[net[k]], family.domain, samples=128
            )
            if d >= eps_quarter:
                return False
    return True


def blend_parametric(
    family: SampledFamily,
    eps: float,
    *,
    net_stride: int | None = None,
) -> SampledFamily:
    """Replace the family by polynomial blends with sup error below eps/2.

    A net of representative nodes is chosen (coarsest power-of-two stride
    whose covered nodes stay within eps/4 of their representatives; the full
    grid always qualifies).  Net members are polynomial-approximated to
    eps/4 and recombined per node with the piecewise-linear net weights; the
    triangle inequality then bounds every node's error by eps/2.

    A caller-forced ``net_stride`` that violates the closeness condition
    raises GridResolutionError asking for a finer net.  An eps that is not
    a finite positive number raises InputError.
    """
    check_eps(eps)
    if not isinstance(family.domain, Disc):
        raise InputError(
            "blending needs a disc domain (polynomial approximation target)"
        )
    grid = family.grid
    points = np.array(grid.points)
    if net_stride is not None:
        net = grid.net_indices(net_stride)
        if not _net_condition_holds(family, net, points, eps / 4.0):
            raise GridResolutionError(
                f"net of stride {net_stride} misses the eps/4 closeness "
                "condition; use a finer net or a finer grid"
            )
    else:
        stride = max(grid.shape) - 1
        while stride > 1 and not _net_condition_holds(
            family, grid.net_indices(stride), points, eps / 4.0
        ):
            stride //= 2
        net = grid.net_indices(stride)

    members = [family.maps[j] for j in net]
    approximants = list(_approximate_net(members, family.domain, eps / 4.0))
    out = []
    for w in grid.net_weights(net, points):
        blend = ComplexPolynomial.zero()
        for k in np.flatnonzero(w > 0.0):
            blend = blend + w[k] * approximants[k]
        out.append(blend)
    return SampledFamily(grid, tuple(out), family.domain)


def fix_on_Q(
    blended: SampledFamily,
    q_maps: Mapping[int, object],
    *,
    original: SampledFamily | None = None,
    eps: float | None = None,
) -> SampledFamily:
    """Swap in prescribed exact maps on Q.

    q_maps gives one map per Q node of the grid, and no other.  Each Q node
    receives its prescribed map object unchanged, so equality there is
    exact; every other node keeps its blend.  An empty Q returns the blend
    itself.

    When ``original`` and ``eps`` are given, each prescribed map must stay
    within eps/2 of the original family at its node (sampled on the domain
    boundary), or PreconditionError is raised; an eps that is not a finite
    positive number raises InputError.
    """
    if eps is not None:
        check_eps(eps)
    grid = blended.grid
    q_nodes = grid.q_indices
    if set(q_maps.keys()) != set(q_nodes):
        raise InputError("q_maps must prescribe exactly the grid's Q nodes")
    if not q_nodes:
        return blended
    out = list(blended.maps)
    for i in q_nodes:
        if original is not None and eps is not None:
            d = sampled_sup_distance(q_maps[i], original.maps[i], blended.domain, samples=128)
            if d >= eps / 2.0:
                raise PreconditionError(
                    f"prescribed map at Q node {i} drifts {d:.3e} from the family"
                )
        out[i] = q_maps[i]
    return SampledFamily(grid, tuple(out), blended.domain)
