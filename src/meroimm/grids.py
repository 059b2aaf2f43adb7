"""Uniform parameter grids on [0,1]^m with piecewise-linear net weights.

Grids carry a boolean mask marking the relative subset Q (a union of grid
faces).  A net is a tensor subgrid of nodes, every ``stride`` along each
axis with the axis ends kept.  Its weights at a parameter are products of
1-d linear interpolation weights on the net's axis values: nonnegative,
summing to one, supported on the net cell holding the parameter, and
exactly 1 at the parameter's own net node.  The net of stride 1 is the
whole grid, whose weights are the usual hat functions.

The weights take one parameter (a float or an m-tuple) or a (k, m) array of
them.  An array gives one row per parameter, built from per-axis 1-d
interpolation matrices; each row equals the single-parameter result bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .config import as_integer
from .errors import InputError

Params = float | Sequence[float] | np.ndarray


def _interp_1d(x: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Linear interpolation weights on the sorted nodes vals, one row per x:
    1 - t and t, t = (x - a) / (b - a), on the first interval [a, b] holding
    x; the end nodes take what lies beyond them whole."""
    out = np.zeros((len(x), len(vals)))
    inner = np.flatnonzero((x > vals[0]) & (x < vals[-1]))
    j = np.searchsorted(vals, x[inner]) - 1
    t = (x[inner] - vals[j]) / (vals[j + 1] - vals[j])
    out[inner, j] = 1.0 - t
    out[inner, j + 1] = t
    out[x <= vals[0], 0] = 1.0
    out[x >= vals[-1], -1] = 1.0
    return out


@dataclass(frozen=True)
class ParamGrid:
    """Uniform grid on [0,1]^m (m = 1 or 2), with a Q-mask per node."""

    shape: tuple[int, ...]
    q_mask: tuple[bool, ...]

    def __post_init__(self):
        shape = tuple(as_integer(s, "a grid axis size") for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (1, 2):
            raise InputError("parameter grids must be 1- or 2-dimensional")
        if any(s < 2 for s in shape):
            raise InputError("each grid axis needs at least 2 points")
        mask = tuple(bool(b) for b in self.q_mask)
        object.__setattr__(self, "q_mask", mask)
        if len(mask) != self.npoints:
            raise InputError("q_mask length must match the number of grid points")

    # -- constructors -------------------------------------------------------

    @classmethod
    def line(cls, n: int, q_nodes: Iterable[int] = ()) -> "ParamGrid":
        """1-d grid of n points; q_nodes lists the node indices in Q."""
        n = as_integer(n, "a grid axis size")
        qs = {as_integer(i, "a q node index") for i in q_nodes}
        if any(i < 0 or i >= n for i in qs):
            raise InputError("q node index out of range")
        return cls((n,), tuple(i in qs for i in range(n)))

    @classmethod
    def box(cls, n1: int, n2: int, q_nodes: Iterable[int] = ()) -> "ParamGrid":
        """2-d grid of n1 x n2 points (flat indexing, axis 0 major)."""
        n1, n2 = (as_integer(s, "a grid axis size") for s in (n1, n2))
        qs = {as_integer(i, "a q node index") for i in q_nodes}
        total = n1 * n2
        if any(i < 0 or i >= total for i in qs):
            raise InputError("q node index out of range")
        return cls((n1, n2), tuple(i in qs for i in range(total)))

    # -- geometry ------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def npoints(self) -> int:
        return math.prod(self.shape)

    def node_index(self, multi: tuple[int, ...]) -> int:
        return multi[0] * self.shape[1] + multi[1] if self.ndim == 2 else multi[0]

    def node_multi(self, i: int) -> tuple[int, ...]:
        return divmod(i, self.shape[1]) if self.ndim == 2 else (i,)

    def point(self, i: int) -> tuple[float, ...]:
        return tuple(k / (s - 1) for k, s in zip(self.node_multi(i), self.shape))

    @property
    def points(self) -> list[tuple[float, ...]]:
        return [self.point(i) for i in range(self.npoints)]

    @property
    def q_indices(self) -> list[int]:
        return [i for i, b in enumerate(self.q_mask) if b]

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Pairs of node indices one grid step apart."""
        out = []
        if self.ndim == 1:
            out = [(i, i + 1) for i in range(self.shape[0] - 1)]
        else:
            n1, n2 = self.shape
            for i, j in product(range(n1), range(n2)):
                if i + 1 < n1:
                    out.append((self.node_index((i, j)), self.node_index((i + 1, j))))
                if j + 1 < n2:
                    out.append((self.node_index((i, j)), self.node_index((i, j + 1))))
        return out

    # -- coarse nets and their weights ------------------------------------------

    def net_indices(self, stride: int) -> list[int]:
        """A subsample including the axis endpoints, every ``stride`` nodes."""
        if stride < 1:
            raise InputError("stride must be >= 1")
        axes = [sorted({*range(0, s, stride), s - 1}) for s in self.shape]
        return [self.node_index(multi) for multi in product(*axes)]

    def _params(self, p: Params) -> tuple[np.ndarray, bool]:
        """p as a (k, m) array, and whether it was a single parameter."""
        arr = np.asarray(p, dtype=float)
        single = arr.ndim < 2
        arr = arr.reshape(1, -1) if single else arr
        if arr.ndim != 2 or arr.shape[1] != self.ndim:
            raise InputError(f"parameter must have {self.ndim} coordinates")
        if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
            raise InputError("parameters live in [0,1]^m")
        return arr, single

    def net_weights(self, net: Sequence[int], p: Params) -> np.ndarray:
        """Piecewise-linear partition of unity over the net nodes, at p.

        The net nodes must form a tensor grid (as produced by net_indices).
        Each weight is the product of 1-d interpolation weights on the net's
        axis values; a point on a net node weighs exactly 1 there.  A (k, m)
        array p gives the (k, len(net)) matrix of weights, one row per
        parameter.
        """
        arr, single = self._params(p)
        if len(net) == 0 or min(net) < 0 or max(net) >= self.npoints:
            raise InputError("net nodes must be grid node indices")
        out = np.ones((len(arr), len(net)))
        multis = np.unravel_index(np.asarray(net, dtype=int), self.shape)
        for x, s, ks in zip(arr.T, self.shape, multis):
            axis, col = np.unique(ks, return_inverse=True)
            out *= _interp_1d(x, axis / (s - 1))[:, col]
        return out[0] if single else out
