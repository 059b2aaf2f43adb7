"""Shared generators and independent oracles for the test suite."""
import cmath
import math

import mpmath
import numpy as np

from meroimm import ComplexPolynomial, InputError, RationalMap


def separated_points(rng, k, *, box=1.5, min_sep=0.5, tries=200):
    """k random complex points with pairwise separation at least min_sep."""
    for _ in range(tries):
        pts = rng.uniform(-box, box, k) + 1j * rng.uniform(-box, box, k)
        if all(
            abs(pts[i] - pts[j]) > min_sep for i in range(k) for j in range(i)
        ):
            return [complex(p) for p in pts]
    raise RuntimeError("could not place separated points")


def random_rational(rng, *, max_poles=3, max_order=2, max_num_degree=2,
                    box=1.5, min_sep=0.5):
    """Random rational map with well-separated poles; degree stays <= 6."""
    k = int(rng.integers(1, max_poles + 1))
    poles = separated_points(rng, k, box=box, min_sep=min_sep)
    orders = [int(m) for m in rng.integers(1, max_order + 1, k)]
    while sum(orders) > 6 - max_num_degree:
        orders[int(np.argmax(orders))] -= 1
        if all(o == 1 for o in orders):
            break
    den = ComplexPolynomial.from_roots(
        [p for p, m in zip(poles, orders) for _ in range(m)]
    )
    ncoef = rng.normal(size=max_num_degree + 1) + 1j * rng.normal(size=max_num_degree + 1)
    num = ComplexPolynomial(ncoef)
    return RationalMap(num, den), poles, orders


def cauchy_residue(f, a, radius, n=4096):
    """Independent residue oracle: trapezoid Cauchy integral on a circle.

    The trapezoid rule is spectrally exact on the Laurent modes here; the
    radius should sit well away from the pole and its neighbors so double
    precision does not drown the answer.
    """
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ring = a + radius * np.exp(1j * th)
    vals = f(ring) * (ring - a)
    return complex(np.mean(vals))


def numpy_rational_data(f):
    """Descending-order numpy coefficient arrays for an independent oracle."""
    num = np.array(list(reversed(f.num.coeffs)), dtype=complex)
    den = np.array(list(reversed(f.den.coeffs)), dtype=complex)
    return num, den


def numpy_derivative_zeros_and_poles(f):
    """Zeros of f' and poles of f via numpy.roots (quotient rule), an
    implementation-independent route for certificate checks."""
    num, den = numpy_rational_data(f)
    dnum = np.polyder(num) if len(num) > 1 else np.array([0j])
    dden = np.polyder(den) if len(den) > 1 else np.array([0j])
    top = np.polysub(np.polymul(dnum, den), np.polymul(num, dden))
    zeros = np.roots(top) if len(top) > 1 else np.array([])
    poles = np.roots(den) if len(den) > 1 else np.array([])
    # remove derivative "zeros" that are actually pole locations (the raw
    # quotient-rule numerator keeps a factor there for higher-order poles)
    keep = [z for z in zeros if not (len(poles) and np.min(np.abs(z - poles)) < 1e-6)]
    return np.array(keep), poles


def mpmath_pieces(scale, xi, poles, starts, deltas, dps=50):
    """Independent quadrature oracle: the integrals of
    scale exp(xi(w)) / prod over the poles of (w - a)^2 dw along the straight
    pieces starts[k] + t deltas[k], t in [0, 1], by mpmath.quad at ``dps``
    digits.  xi is an ascending coefficient list; one complex per piece.

    30 digits are too few for a leg 0.04 from a pole: there tanh-sinh stops
    1e-9 off and its own error estimate reads 1.  So the estimate is read,
    and a piece whose estimate is above 1e-13 (1 + |integral|) raises."""
    with mpmath.workdps(dps):
        xi = [mpmath.mpc(c) for c in reversed(list(xi))]
        poles = [mpmath.mpc(a) for a in poles]
        scale = mpmath.mpc(scale)

        def g(w):
            theta = mpmath.mpf(1)
            for a in poles:
                theta *= (w - a) ** 2
            return scale * mpmath.exp(mpmath.polyval(xi, w)) / theta

        out = []
        for a, d in zip(starts, deltas):
            a, d = mpmath.mpc(complex(a)), mpmath.mpc(complex(d))
            val, err = mpmath.quad(lambda t: g(a + t * d), [0, 1], error=True)
            if err > 1e-13 * (1 + abs(val)):
                raise AssertionError(f"mpmath.quad did not settle (estimate {err})")
            out.append(complex(val * d))
        return out


def distance_by_loop(contour, z):
    """Distance from z to a polyline: the chord-by-chord loop, one clamped
    projection per chord."""
    z = complex(z)
    best = math.inf
    for a, b in zip(contour.samples, contour.samples[1:]):
        d = b - a
        t = ((z - a).real * d.real + (z - a).imag * d.imag) / (abs(d) ** 2)
        t = min(1.0, max(0.0, t))
        best = min(best, abs(z - (a + t * d)))
    return best


def same_bits(a, b):
    """Equal as stored doubles, so that signed zeros and NaN payloads count."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))


class Recorder:
    """Wraps an integrand and keeps a copy of the points of every call."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, z):
        self.calls.append(np.array(z))
        return self.f(z)


def integrate_pieces_by_loop(fz, za, d, tol):
    """Reference copy of the adaptive G7-K15 round loop as first written:
    endpoints concatenated into every round, the midpoint update through
    np.tile, and one add.at per outcome, accepting on the kernel's rule
    err <= fmax(share, floor).  The set-up before the loop is the
    initial mesh: piece k starts as ceil(_MESH |d[k]| / L) equal panels, each
    with its length share of tol.  The budget is read from the kernel's
    module when called, so a test that patches it patches both."""
    from meroimm import contours
    from meroimm.contours import _MESH, _ROUNDING_FLOOR, _WG, _WK, _XK
    from meroimm.errors import PathTooCloseError, QuadratureBudgetError

    lengths = np.abs(d)
    total_len = float(np.sum(lengths))
    n = len(za)
    totals = np.zeros(n, dtype=complex)
    if total_len == 0.0:
        return 0j
    m = [max(math.ceil(_MESH * (x / total_len)), 1) if math.isfinite(total_len) else 1
         for x in lengths]
    seg = np.array([k for k in range(n) for _ in range(m[k])], dtype=int)
    per = np.array([float(m[k]) for k in seg])
    mid = np.array([j + 0.5 for k in range(n) for j in range(m[k])]) / per
    half = 0.5 / per
    tols = (tol * lengths / total_len)[seg] / per
    ends = np.concatenate([za, za + d])
    evals = 0
    while True:
        nodes = za[seg, None] + (mid[:, None] + half[:, None] * _XK) * d[seg, None]
        fv = fz(np.concatenate([ends, nodes.ravel()]))
        evals += fv.size
        if not np.all(np.isfinite(fv)):
            raise PathTooCloseError("non-finite integrand: path too close to singularity")
        fv = fv[len(ends):].reshape(nodes.shape)
        ends = ends[:0]
        scale = half * d[seg]
        kronrod = scale * (fv @ _WK)
        err = np.abs(kronrod - scale * (fv @ _WG))
        done = err <= np.fmax(tols, _ROUNDING_FLOOR * np.abs(scale) * (np.abs(fv) @ _WK))
        np.add.at(totals, seg[done], kronrod[done])
        keep = ~done
        if not keep.any():
            return complex(np.sum(totals))
        if evals + 30 * np.count_nonzero(keep) > contours.QUAD_EVAL_BUDGET:
            np.add.at(totals, seg[keep], kronrod[keep])
            raise QuadratureBudgetError("quadrature budget exhausted", best=complex(np.sum(totals)))
        seg, tols = np.repeat(seg[keep], 2), np.repeat(0.5 * tols[keep], 2)
        half = np.repeat(0.5 * half[keep], 2)
        mid = np.repeat(mid[keep], 2) + half * np.tile([-1.0, 1.0], len(half) // 2)


def integrate_pieces_full_floor(fz, za, d, tol):
    """Reference copy of the vectorized round loop that forms the rounding
    floor of every panel in every round, sets a one-piece path up as any
    other, and sums through np.add.at and totals.sum(), accepting on the
    kernel's rule err <= fmax(share, floor).  The budget is read
    from the kernel's module when called, so a test that patches it patches
    both."""
    from meroimm import contours
    from meroimm.contours import (_BUDGET, _CACHE_NODES, _MESH, _ROUNDING_FLOOR, _TOO_CLOSE, _WG,
                                  _WK, _XK, _first_round)
    from meroimm.errors import PathTooCloseError, QuadratureBudgetError

    lengths = np.abs(d)
    total_len = float(lengths.sum())
    n = len(za)
    totals = np.zeros(n, dtype=complex)
    if total_len == 0.0:
        return 0j

    # the share before the product, so that a one-piece path gets exactly
    # _MESH panels: _MESH * L / L can round above _MESH.  fmax gives a NaN
    # share one panel, so that a non-finite path is refused at its nodes
    if n == 1 and math.isfinite(total_len):
        counts = (_MESH,)  # its share is L / L = 1
    else:
        counts = tuple(np.fmax(np.ceil(_MESH * (lengths / total_len)), 1.0).astype(int).tolist())
    build = _first_round if len(_XK) * sum(counts) <= _CACHE_NODES else _first_round.__wrapped__
    seg, m, mid, half, template = build(counts)
    tols = (tol * lengths / total_len)[seg] / m
    ds = d[seg]
    nodes = za[seg, None] + template * ds[:, None]
    fv = fz(np.concatenate([za, za + d, nodes.ravel()]))
    evals = 0
    while True:
        evals += fv.size
        if not np.isfinite(fv).all():
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
        done = err <= np.fmax(tols, _ROUNDING_FLOOR * np.abs(scale) * (np.abs(fv) @ _WK))
        if done.all():
            np.add.at(totals, seg, kronrod)
            return complex(totals.sum())
        np.add.at(totals, seg[done], kronrod[done])
        keep = ~done
        if evals + 30 * np.count_nonzero(keep) > contours.QUAD_EVAL_BUDGET:
            np.add.at(totals, seg[keep], kronrod[keep])
            raise QuadratureBudgetError(_BUDGET, best=complex(totals.sum()))
        split = np.flatnonzero(keep).repeat(2)
        seg, mid, half, tols = seg[split], mid[split], 0.5 * half[split], 0.5 * tols[split]
        mid[0::2] -= half[0::2]
        mid[1::2] += half[1::2]
        ds = d[seg]
        nodes = za[seg, None] + (mid[:, None] + half[:, None] * _XK) * ds[:, None]
        fv = fz(nodes.ravel())


def assert_same_quadrature(fz, za, d, tol, reference=integrate_pieces_by_loop):
    """integrate_pieces and the reference loop return, or refuse with, the
    same bits, after the same integrand calls on the same points.  Returns
    the outcome, "returned" or "refused" (budget), and the sum or the best
    estimate."""
    from meroimm.contours import integrate_pieces
    from meroimm.errors import QuadratureBudgetError

    results = []
    for kernel in (integrate_pieces, reference):
        rec = Recorder(fz)
        try:
            results.append(("returned", kernel(rec, za, d, tol), rec.calls))
        except QuadratureBudgetError as exc:
            results.append(("refused", exc.best, rec.calls))
    (got_how, got, got_calls), (want_how, want, want_calls) = results
    assert got_how == want_how
    assert same_bits(got, want)
    assert len(got_calls) == len(want_calls)
    assert all(same_bits(a, b) for a, b in zip(got_calls, want_calls))
    return want_how, want


def assert_same_paths(fzs, paths, tol):
    """contours._integrate_paths over the paths (za, d), path p with the
    integrand fzs[p], and the reference loop over each path alone return, or
    refuse with, the same bits.  Round r of the block evaluates on row p the
    points of round r of path p's own call, in order, padded with the first
    of them, for as many rounds as that call takes.  Returns each path's
    outcome: "returned", "refused" (budget) or "too close"."""
    from meroimm.contours import _integrate_paths
    from meroimm.errors import PathTooCloseError, QuadratureBudgetError

    calls = []

    def rows(idx, z):
        calls.append((list(idx), np.array(z)))
        return np.array([fzs[i](row) for i, row in zip(idx, z)])

    def outcome(x):
        if isinstance(x, QuadratureBudgetError):
            return "refused", x.best
        return ("too close", None) if isinstance(x, PathTooCloseError) else ("returned", x)

    got = _integrate_paths(rows, np.concatenate([za for za, _ in paths]),
                           np.concatenate([d for _, d in paths]), tol, [len(za) for za, _ in paths])
    assert len(got) == len(paths)
    outcomes = []
    for p, ((za, d), fz) in enumerate(zip(paths, fzs)):
        rec = Recorder(fz)
        try:
            want = outcome(integrate_pieces_by_loop(rec, za, d, tol))
        except (QuadratureBudgetError, PathTooCloseError) as exc:
            want = outcome(exc)
        have = outcome(got[p])
        assert have[0] == want[0]
        assert (have[1] is None and want[1] is None) or same_bits(have[1], want[1])
        assert [p in idx for idx, _ in calls] == [r < len(rec.calls) for r in range(len(calls))]
        for (idx, z), mine in zip(calls, rec.calls):
            row = z[idx.index(p)]
            assert same_bits(row[:len(mine)], mine)
            assert same_bits(row[len(mine):], np.full(len(row) - len(mine), mine[0]))
        outcomes.append(want[0])
    return outcomes


def blend_by_every_stride(family, eps):
    """The stride of blend_parametric and its output maps, by the search
    that tests every stride tried from its net weights over the whole grid,
    node by node in flat order, with no test ahead of it; the blend on the
    stride found is then taken from one whole-grid weight matrix.  The
    distances are sampled through ``blending.sampled_sup_distance``."""
    from meroimm import blending

    grid, quarter = family.grid, eps / 4.0
    points = np.array(grid.points)

    def holds(net):
        for i, w in enumerate(grid.net_weights(net, points)):
            for k in np.flatnonzero(w > 0.0):
                if net[k] == i:
                    continue
                d = blending.sampled_sup_distance(
                    family.maps[i], family.maps[net[k]], family.domain, samples=128
                )
                if not d < quarter:  # a NaN distance fails
                    return False
        return True

    stride = max(grid.shape) - 1
    while stride > 1 and not holds(grid.net_indices(stride)):
        stride //= 2
    net = grid.net_indices(stride)
    members = [family.maps[j] for j in net]
    approximants = list(blending._approximate_net(members, family.domain, quarter))
    if stride == 1:
        return stride, approximants
    out = []
    for w in grid.net_weights(net, points):
        blend = ComplexPolynomial.zero()
        for k in np.flatnonzero(w > 0.0):
            blend = blend + w[k] * approximants[k]
        out.append(blend)
    return stride, out


# Polynomial construction and arithmetic as they were written on polynomial
# objects, before ``meroimm.poly`` formed them on coefficient lists: the
# references that the one-pass construction and ``rational.wronskian`` keep
# bit for bit.


def reference_trim(coeffs, tol):
    """Construction: a tuple copy, complex() of each entry, then the trim."""
    cs = [complex(c) for c in tuple(coeffs)]
    if tol and not all(map(cmath.isfinite, cs)):
        raise InputError("polynomial coefficients must be finite")
    while cs and abs(cs[-1]) <= tol:
        cs.pop()
    return tuple(cs)


def reference_times(a, b):
    """``__mul__`` of two polynomials with coefficients a and b."""
    if not a or not b:
        return ()
    return reference_trim(np.convolve(np.array(a), np.array(b)), 0.0)


def reference_derivative(cs):
    return reference_trim([k * c for k, c in enumerate(cs)][1:], 0.0)


def reference_plus(a, b):
    """``__add__``: both zero-padded to the longer, then added."""
    n = max(len(a), len(b))
    a, b = list(a) + [0j] * (n - len(a)), list(b) + [0j] * (n - len(b))
    return reference_trim([x + y for x, y in zip(a, b)], 0.0)


def reference_wronskian(n, d):
    """n.derivative() * d - n * d.derivative(), with ``__sub__`` adding the
    negation (``__neg__``) of the second product."""
    first = reference_times(reference_derivative(n), d)
    second = reference_times(n, reference_derivative(d))
    return reference_plus(first, reference_trim([-c for c in second], 0.0))


def hex_parts(cs):
    """The real and imaginary parts of each coefficient by float.hex, so that
    signed zeros count."""
    return tuple((c.real.hex(), c.imag.hex()) for c in cs)
