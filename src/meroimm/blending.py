"""Polynomial approximation on discs and partition-of-unity blending of
sampled families of plane-valued maps.

A family sampled over a parameter grid is blended through a net of
representative nodes: each net member is Taylor-truncated on the disc, and
the outputs are convex combinations with piecewise-linear net weights.  Each
stride tried builds one (nodes x net) weight matrix, and so does the blend;
the per-node loops read its rows.  The two-triangle estimate gives sup
errors below half the target whenever each covered node stays within a
quarter of it from its net representative.  A relative variant swaps in
prescribed exact maps near a marked subset of the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import DEGREE_BUDGET, DEGREE_SCHEDULE
from .contours import Disc, _vectorized, circle_samples
from .errors import (
    DegreeBudgetError,
    GridResolutionError,
    InputError,
    PreconditionError,
    SupportViolationError,
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


def _taylor_truncations(
    sample, center: complex, rho: float, degree_budget: int, singular: Exception
):
    """Taylor truncations at center, lowest degree first, of a function
    holomorphic past the circle |z - center| = rho.

    The degrees follow DEGREE_SCHEDULE below degree_budget and end at it.
    The coefficients come from one FFT of ``sample`` on that circle, taken
    on the call; a sample that is not finite raises ``singular``.  Each
    truncation is built in the monomial basis only when it is reached.
    """
    K = max(2048, 8 * degree_budget)
    with np.errstate(all="ignore"):
        vals = sample(circle_samples(center, rho, K))
    if not np.all(np.isfinite(vals)):
        raise singular
    coeffs_ring = np.fft.fft(vals) / K  # c_k rho^k
    schedule = [n for n in DEGREE_SCHEDULE if n <= degree_budget]
    if not schedule or schedule[-1] < degree_budget:
        schedule.append(degree_budget)
    return (
        ComplexPolynomial(
            coeffs_ring[: N + 1] / rho ** np.arange(N + 1), coeff_tol=0.0
        ).taylor_shift(-center)
        for N in schedule
    )


def poly_approx_on_disc(
    f,
    disc: Disc,
    eps: float,
    *,
    degree_budget: int = DEGREE_BUDGET,
) -> ComplexPolynomial:
    """Polynomial within eps of f on the disc (sampled sup norm).

    Polynomial inputs of degree within budget pass through unchanged.  For
    everything else the Taylor coefficients at the disc center are recovered
    by FFT from boundary samples; the truncation degree doubles until an
    offset boundary sample check clears eps.
    """
    if isinstance(f, ComplexPolynomial):
        if f.degree <= degree_budget:
            return f
        raise DegreeBudgetError("polynomial input exceeds the degree budget")
    if isinstance(f, RationalMap) and f.is_polynomial:
        p = f.as_polynomial()
        if p.degree <= degree_budget:
            return p
        raise DegreeBudgetError("polynomial input exceeds the degree budget")

    fv = _vectorized(f)
    refusal = PreconditionError("map is singular on the disc boundary")
    truncations = _taylor_truncations(fv, disc.center, disc.radius, degree_budget, refusal)
    check = circle_samples(disc.center, disc.radius, 256, offset=0.37)
    target = fv(check)
    best = math.inf
    for g in truncations:
        err = float(np.max(np.abs(g(check) - target)))
        if err < eps:
            return g
        best = min(best, err)
    raise DegreeBudgetError(
        f"degree schedule exhausted at sampled error {best:.3e}", achieved=best
    )


def _net_condition_holds(
    family: SampledFamily, net: Sequence[int], eps_quarter: float
) -> bool:
    """Check that every node with positive net weight stays eps/4-close to
    its net representatives on the domain."""
    grid = family.grid
    for i, w in enumerate(grid.net_weights(net, np.array(grid.points))):
        for j, wj in zip(net, w):
            if wj <= 0.0 or j == i:
                continue
            d = sampled_sup_distance(
                family.maps[i], family.maps[j], family.domain, samples=128
            )
            if d >= eps_quarter:
                return False
    return True


def blend_parametric(
    family: SampledFamily,
    eps: float,
    *,
    net_stride: int | None = None,
    degree_budget: int = DEGREE_BUDGET,
) -> SampledFamily:
    """Replace the family by polynomial blends with sup error below eps/2.

    A net of representative nodes is chosen (coarsest power-of-two stride
    whose covered nodes stay within eps/4 of their representatives; the full
    grid always qualifies).  Net members are polynomial-approximated to
    eps/4 and recombined per node with the piecewise-linear net weights; the
    triangle inequality then bounds every node's error by eps/2.

    A caller-forced ``net_stride`` that violates the closeness condition
    raises GridResolutionError asking for a finer net.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    if not isinstance(family.domain, Disc):
        raise InputError(
            "blending needs a disc domain (polynomial approximation target)"
        )
    grid = family.grid
    if net_stride is not None:
        net = grid.net_indices(net_stride)
        if not _net_condition_holds(family, net, eps / 4.0):
            raise GridResolutionError(
                f"net of stride {net_stride} misses the eps/4 closeness "
                "condition; use a finer net or a finer grid"
            )
    else:
        stride = max(grid.shape) - 1
        while True:
            net = grid.net_indices(stride)
            if _net_condition_holds(family, net, eps / 4.0):
                break
            if stride == 1:
                raise GridResolutionError(
                    "even the full grid misses the eps/4 closeness condition"
                )
            stride = max(1, stride // 2)

    approximants = {
        j: poly_approx_on_disc(
            family.maps[j], family.domain, eps / 4.0, degree_budget=degree_budget
        )
        for j in net
    }
    out = []
    for w in grid.net_weights(net, np.array(grid.points)):
        blend = ComplexPolynomial.zero()
        for j, wj in zip(net, w):
            if wj > 0.0:
                blend = blend + wj * approximants[j]
        out.append(blend)
    return SampledFamily(grid, tuple(out), family.domain)


def fix_on_Q(
    blended: SampledFamily,
    q_maps: Mapping[int, object],
    chi: Callable[[tuple[float, ...]], float] | None = None,
    *,
    original: SampledFamily | None = None,
    eps: float | None = None,
) -> SampledFamily:
    """Swap in prescribed exact maps on Q, interpolating across one cell layer.

    q_maps gives the exact maps on the grid's Q nodes; they extend to the
    one-cell neighborhood of Q by nearest-Q-node copy.  chi defaults to the
    grid's Q-cutoff (1 on Q, 0 beyond the neighborhood), evaluated at every
    node in one call; a caller's chi is called node by node and must vanish
    outside the neighborhood.  Q nodes receive their prescribed map object
    unchanged, so equality there is exact.

    When ``original`` and ``eps`` are given, the prescribed extension is
    checked to stay within eps/2 of the original family on the neighborhood.
    """
    grid = blended.grid
    q_nodes = set(grid.q_indices)
    if set(q_maps.keys()) != q_nodes:
        raise InputError("q_maps must prescribe exactly the grid's Q nodes")
    if not q_nodes:
        return blended
    hood = grid.q_neighborhood()
    points = grid.points
    cutoffs = grid.q_cutoff(np.array(points)) if chi is None else map(chi, points)

    xi = {i: q_maps[grid.nearest_q_node(i)] for i in hood}
    out = list(blended.maps)
    for i, t in enumerate(cutoffs):
        t = float(t)
        if t < 0.0 or t > 1.0:
            raise InputError("chi must take values in [0,1]")
        if t > 0.0 and i not in hood:
            raise SupportViolationError(
                f"chi is positive at node {i}, outside the Q neighborhood"
            )
        if i in q_nodes:
            if t != 1.0:
                raise SupportViolationError(f"chi must equal 1 on Q (node {i})")
            out[i] = q_maps[i]
        elif t > 0.0:
            # a genuine mix happens here, so the prescribed extension must
            # still track the family (the paper-side smallness of P0)
            if original is not None and eps is not None:
                d = sampled_sup_distance(
                    xi[i], original.maps[i], blended.domain, samples=128
                )
                if d >= eps / 2.0:
                    raise PreconditionError(
                        f"prescribed data at node {i} drifts {d:.3e} from the "
                        "family; shrink the cutoff support or refine the grid"
                    )
            out[i] = _convex_combination(t, xi[i], blended.maps[i])
    return SampledFamily(grid, tuple(out), blended.domain)


def _convex_combination(t: float, f, g):
    """t f + (1-t) g, staying polynomial when both sides are."""
    if isinstance(f, ComplexPolynomial) and isinstance(g, ComplexPolynomial):
        return t * f + (1.0 - t) * g
    fv, gv = _vectorized(f), _vectorized(g)

    def combo(z):
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = t * fv(zs) + (1.0 - t) * gv(zs)
        return vals if isinstance(z, np.ndarray) else complex(vals[0])

    return combo
