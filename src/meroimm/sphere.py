"""Points on the Riemann sphere and the chordal metric."""
from __future__ import annotations

import cmath
import math
from typing import Union

from .errors import InputError


class _Infinity:
    """The point at infinity. A single shared instance, ``INF``."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("meroimm-INF")


INF = _Infinity()

SpherePoint = Union[complex, _Infinity]


def is_inf(p: SpherePoint) -> bool:
    """Whether p is the point at infinity: INF, an infinite real, or a
    complex with an infinite part (C99 Annex G).  A NaN is not infinite; see
    ``_is_nan``."""
    return isinstance(p, _Infinity) or (isinstance(p, (complex, float)) and cmath.isinf(p))


def _is_nan(p) -> bool:
    """Whether p is NaN, no point of the sphere: a NaN part and no infinite
    one, since C99 Annex G counts a complex with an infinite part as
    infinite whatever its other part is."""
    return not isinstance(p, _Infinity) and cmath.isnan(p) and not cmath.isinf(p)


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal distance on the sphere of diameter 2.

    For finite points, 2|p-q| / sqrt((1+|p|^2)(1+|q|^2)); the limits apply
    when an argument is INF.  Values lie in [0, 2]; antipodal points (for
    instance 0 and INF) are at distance exactly 2.  A NaN argument raises
    InputError.
    """
    if _is_nan(p) or _is_nan(q):
        raise InputError("chordal distance needs two points of the sphere, not NaN")
    pi, qi = is_inf(p), is_inf(q)
    if pi and qi:
        return 0.0
    if pi or qi:
        af = abs(complex(q if pi else p))
        if af > 1e140:
            return 2.0 / af
        return min(2.0, 2.0 / math.sqrt(1.0 + af * af))
    p = complex(p)
    q = complex(q)
    ap, aq = abs(p), abs(q)
    # 1+|z|^2 overflows near 1e154; scale through the INF limit instead.
    if ap > 1e140 or aq > 1e140:
        if ap > 1e140 and aq > 1e140:
            # both essentially at infinity in double precision
            return min(2.0, abs(1.0 / p - 1.0 / q) * 2.0)
        finite = q if ap > aq else p
        return min(2.0, 2.0 / math.sqrt(1.0 + abs(finite) ** 2))
    d = 2.0 * abs(p - q) / math.sqrt((1.0 + ap * ap) * (1.0 + aq * aq))
    return min(2.0, d)
