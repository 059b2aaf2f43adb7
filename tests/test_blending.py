import numpy as np
import pytest

from helpers import blend_by_every_stride, same_bits
from meroimm import blending
from meroimm.config import DEGREE_SCHEDULE
from meroimm.contours import circle_samples
from meroimm import (
    ComplexPolynomial,
    DegreeBudgetError,
    Disc,
    InputError,
    ParamGrid,
    PreconditionError,
    RationalMap,
    SampledFamily,
    blend_parametric,
    fix_on_Q,
    poly_approx_on_disc,
    sampled_sup_distance,
)

P = ComplexPolynomial
R = RationalMap
UNIT = Disc(0, 1.0)


def moebius_family(n):
    return [R(P([1]), P.from_roots([2.0 + i / (n - 1)])) for i in range(n)]


def test_poly_approx_polynomial_passthrough():
    p = P([1, 2, 3])
    assert poly_approx_on_disc(p, UNIT, 1e-9) is p
    q = poly_approx_on_disc(R(P([1, 2, 3])), UNIT, 1e-9)
    assert np.allclose(q.coeffs, p.coeffs)


def test_poly_approx_geometric_series():
    # 1/(z-2) on the unit disc: tail bound 2^-(N+1)/(1-1/2) needs N ~ 20
    f = R(P([1]), P.from_roots([2.0]))
    g = poly_approx_on_disc(f, UNIT, 1e-6)
    assert g.degree <= 32
    assert sampled_sup_distance(f, g, UNIT) < 1e-6
    # leading coefficients match the geometric series -1/2 - z/4 - ...
    assert g.coeffs[0] == pytest.approx(-0.5, abs=1e-9)
    assert g.coeffs[1] == pytest.approx(-0.25, abs=1e-9)


def test_poly_approx_exponential():
    # factorial tail: degree 14 suffices for 1e-8; the doubling schedule
    # lands on 16
    g = poly_approx_on_disc(lambda z: np.exp(z), UNIT, 1e-8)
    assert g.degree <= 16
    assert sampled_sup_distance(lambda z: np.exp(z), g, UNIT) < 1e-8
    assert g.coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert g.coeffs[3] == pytest.approx(1.0 / 6.0, abs=1e-8)


def test_poly_approx_budget():
    f = R(P([1]), P.from_roots([1.01]))
    with pytest.raises(DegreeBudgetError):
        poly_approx_on_disc(f, UNIT, 1e-12)


def test_poly_approx_offcenter_disc():
    d = Disc(1 + 1j, 0.5)
    f = R(P([1]), P.from_roots([3.0]))
    g = poly_approx_on_disc(f, d, 1e-8)
    assert sampled_sup_distance(f, g, d) < 1e-8


def test_blend_constant_family():
    fam = SampledFamily(ParamGrid.line(11), [R(P([2, 1]))] * 11, UNIT)
    out = blend_parametric(fam, 1e-3)
    for i in range(11):
        assert sampled_sup_distance(out.maps[i], fam.maps[i], UNIT) < 2.5e-4


def test_blend_polynomial_family_exact():
    grid = ParamGrid.line(101)
    maps = [R(P([0, 0, i / 100])) for i in range(101)]
    out = blend_parametric(SampledFamily(grid, maps, UNIT), 1e-3)
    for i in range(0, 101, 10):
        assert sampled_sup_distance(out.maps[i], maps[i], UNIT) < 1e-12


def test_blend_moebius_family_bound():
    grid = ParamGrid.line(101, q_nodes=[0, 100])
    maps = moebius_family(101)
    fam = SampledFamily(grid, maps, UNIT)
    out = blend_parametric(fam, 1e-3)
    errs = [sampled_sup_distance(out.maps[i], maps[i], UNIT) for i in range(101)]
    assert max(errs) < 5e-4  # the eps/2 guarantee


def test_blend_outputs_are_polynomials():
    fam = SampledFamily(ParamGrid.line(5), moebius_family(5), UNIT)
    out = blend_parametric(fam, 1e-3)
    assert all(isinstance(m, P) for m in out.maps)


def test_blend_needs_positive_eps():
    fam = SampledFamily(ParamGrid.line(5), moebius_family(5), UNIT)
    with pytest.raises(InputError):
        blend_parametric(fam, 0.0)


def test_fix_on_q_exact_objects():
    grid = ParamGrid.line(101, q_nodes=[0, 100])
    maps = moebius_family(101)
    fam = SampledFamily(grid, maps, UNIT)
    out = blend_parametric(fam, 1e-3)
    fixed = fix_on_Q(out, {0: maps[0], 100: maps[100]}, original=fam, eps=1e-3)
    assert fixed.maps[0] is maps[0]
    assert fixed.maps[100] is maps[100]
    # everything else keeps its blend
    assert fixed.maps[50] is out.maps[50]


def test_fix_on_q_empty_is_identity():
    fam = SampledFamily(ParamGrid.line(5), moebius_family(5), UNIT)
    out = blend_parametric(fam, 1e-3)
    assert fix_on_Q(out, {}, original=fam, eps=1e-3) is out


def test_fix_on_q_drift_check():
    # a prescribed Q map that is not the family's own member: the check
    # measures it against the original at its node
    grid = ParamGrid.line(5, q_nodes=[0])
    maps = moebius_family(5)
    fam = SampledFamily(grid, maps, UNIT)
    out = blend_parametric(fam, 1e-3)
    drifted = maps[0] + R(P([1e-3]))
    with pytest.raises(PreconditionError, match="drifts"):
        fix_on_Q(out, {0: drifted}, original=fam, eps=1e-3)
    # within eps/2 it is put in place as given
    near = maps[0] + R(P([1e-4]))
    assert fix_on_Q(out, {0: near}, original=fam, eps=1e-3).maps[0] is near


# the 6th point of the 128-point ring, offset 0.37, that the net condition and
# fix_on_Q sample the unit disc's boundary on: there k (z - a)/(z - a) is NaN
_RING_POINT = complex(circle_samples(0, 1.0, 128, offset=0.37)[5])


def _nan_on_the_ring(k):
    return lambda z: k * (z - _RING_POINT) / (z - _RING_POINT)


def test_a_nan_distance_fails_the_net_condition():
    # NaN >= eps/4 compared false, so stride 2 passed and node 1 was blended
    # from the constant 1 of its neighbours, 4.0 from its member 5
    fam = SampledFamily(ParamGrid.line(3), [R(P([1])), _nan_on_the_ring(5), R(P([1]))], UNIT)
    with np.errstate(invalid="ignore"):
        out = blend_parametric(fam, 1e-3)
    assert sampled_sup_distance(out.maps[1], R(P([5])), UNIT) < 5e-4


def test_fix_on_q_refuses_a_nan_distance():
    # NaN >= eps/2 compared false, so a map that is NaN at a sample was put in
    grid = ParamGrid.line(3, q_nodes=[1])
    fam = SampledFamily(grid, [R(P([1]))] * 3, UNIT)
    with np.errstate(invalid="ignore"), pytest.raises(PreconditionError, match="drifts nan"):
        fix_on_Q(fam, {1: _nan_on_the_ring(1)}, original=fam, eps=1e-3)


def test_fix_on_q_wrong_nodes():
    grid = ParamGrid.line(5, q_nodes=[0])
    maps = [R(P([0, 1]))] * 5
    fam = SampledFamily(grid, maps, UNIT)
    out = blend_parametric(fam, 1e-3)
    with pytest.raises(InputError):
        fix_on_Q(out, {1: maps[1]}, original=fam, eps=1e-3)


def test_convexity_of_sup_ball(rng):
    # convex combinations of maps within delta of f stay within delta
    f = R(P([0, 1]))
    delta = 1e-3
    for _ in range(20):
        g1 = f + R(P([complex(rng.normal(), rng.normal()) * 4e-4]))
        g2 = f + R(P([complex(rng.normal(), rng.normal()) * 4e-4]))
        t = float(rng.random())
        combo = t * g1 + (1.0 - t) * g2
        d1 = sampled_sup_distance(g1, f, UNIT)
        d2 = sampled_sup_distance(g2, f, UNIT)
        dc = sampled_sup_distance(combo, f, UNIT)
        assert dc <= max(d1, d2) + 1e-15
        assert dc <= delta


def test_blend_rejects_non_disc_domain():
    from meroimm import CircularDomain
    fam = SampledFamily(
        ParamGrid.line(5), moebius_family(5), CircularDomain.annulus(0.5, 1.0)
    )
    with pytest.raises(InputError):
        blend_parametric(fam, 1e-3)


def _box_family(q_nodes=()):
    # 1/(z - p) with p within 0.02 of 2.5 + 0j over a 9 x 13 grid
    grid = ParamGrid.box(9, 13, q_nodes=q_nodes)
    maps = [R(P([1]), P.from_roots([2.5 + 0.02 * s + 0.02j * t])) for s, t in grid.points]
    return SampledFamily(grid, maps, UNIT)


def _reference_weights(grid, net, p):
    # per-point piecewise-linear weights over a tensor net, one axis at a time
    def axis_weights(vals, x):
        if x <= vals[0]:
            return {vals[0]: 1.0}
        if x >= vals[-1]:
            return {vals[-1]: 1.0}
        a, b = next((a, b) for a, b in zip(vals, vals[1:]) if a <= x <= b)
        t = (x - a) / (b - a)
        return {a: 1.0 - t, b: t}

    w = np.ones(len(net))
    for d in range(grid.ndim):
        axis = axis_weights(sorted({grid.point(j)[d] for j in net}), p[d])
        w = w * np.array([axis.get(grid.point(j)[d], 0.0) for j in net])
    return w


@pytest.mark.parametrize("eps, net_size", [(1e-1, 4), (3e-2, 9), (1e-3, 117)])
def test_blend_box_family_matches_per_point_reference(eps, net_size):
    fam = _box_family()
    grid = fam.grid
    out = blend_parametric(fam, eps)
    stride = max(grid.shape) - 1
    while len(grid.net_indices(stride)) != net_size:
        stride //= 2
    net = grid.net_indices(stride)
    approx = {j: poly_approx_on_disc(fam.maps[j], UNIT, eps / 4.0) for j in net}
    for i, p in enumerate(grid.points):
        blend = P.zero()
        for j, wj in zip(net, _reference_weights(grid, net, p)):
            if wj > 0.0:
                blend = blend + wj * approx[j]
        assert np.array_equal(out.maps[i].coeffs, blend.coeffs)
    assert max(sampled_sup_distance(out.maps[i], fam.maps[i], UNIT)
               for i in range(grid.npoints)) < eps / 2.0
    if net_size == 4:
        # the coarse net really blends: interior nodes mix all four corners
        assert sum(np.count_nonzero(_reference_weights(grid, net, p)) == 4
                   for p in grid.points) == 7 * 11


# shapes whose search tries strides > 1: lines of 3 to 65 nodes, and boxes
# with an axis of 2 nodes on either side
_SEARCH_SHAPES = [(n,) for n in range(3, 66)] + [(3, 2), (7, 2), (2, 3), (2, 7), (3, 3), (5, 4), (4, 9)]


def _pole_family(shape, pole):
    # 1/(z - pole(p)) at each grid point p
    grid = ParamGrid(shape, (False,) * int(np.prod(shape)))
    return SampledFamily(grid, [R(P([1]), P.from_roots([pole(*p)])) for p in grid.points], UNIT)


def _first_outside_every_net(grid):
    strides = [max(grid.shape) - 1 >> k for k in range(8) if max(grid.shape) - 1 >> k > 1]
    return min(set(range(grid.npoints)).difference(*(grid.net_indices(s) for s in strides)))


def _raising(z):
    raise ValueError("no value here")


def _search_cases(kind):
    """(family, eps, whether the shared pair passes, whether a coarse net is
    taken) for each family of the kind; None where the blend raises."""
    if kind == "fails the pair":
        return [(_pole_family(s, lambda *p: 2 + sum(p)), 1e-3, False, False) for s in _SEARCH_SHAPES]
    if kind == "coarsens":
        return [(_pole_family(s, lambda *p: 3 + 1e-5 * sum(p)), 1e-3, True, True)
                for s in _SEARCH_SHAPES] + [(_box_family(), 1e-1, True, True),
                                            (_box_family(), 3e-2, True, True)]
    if kind == "fails later":  # node i1 takes node 0's map, and fails against its other neighbour
        cases = []
        for s in _SEARCH_SHAPES:
            family = _pole_family(s, lambda *p: 2 + sum(p) / 2)
            maps = list(family.maps)
            maps[_first_outside_every_net(family.grid)] = R(P([1]), P.from_roots([2.0]))
            cases.append((SampledFamily(family.grid, maps, UNIT), 1e-3, True, False))
        return cases

    def line(special, at):
        maps = [R(P([1])) for _ in range(9)]
        maps[at] = special
        return SampledFamily(ParamGrid.line(9), maps, UNIT)

    if kind == "NaN":
        return [(line(_nan_on_the_ring(5), 1), 1e-3, False, False),
                (line(_nan_on_the_ring(5), 5), 1e-3, True, False)]
    return [(line(_raising, 1), 1e-3, False, None), (line(_raising, 5), 1e-3, True, None)]


def _record_search(monkeypatch, blend, family, eps):
    """blend(family, eps), or the type of the error it raises; the (f, g)
    identities of its sampled_sup_distance calls; its net_weights calls."""
    pairs, weights = [], []
    distance, net_weights = blending.sampled_sup_distance, ParamGrid.net_weights

    def counted_distance(f, g, *args, **kwargs):
        pairs.append((id(f), id(g)))
        return distance(f, g, *args, **kwargs)

    def counted_weights(self, *args):
        weights.append(args)
        return net_weights(self, *args)

    monkeypatch.setattr(blending, "sampled_sup_distance", counted_distance)
    monkeypatch.setattr(ParamGrid, "net_weights", counted_weights)
    try:
        with np.errstate(invalid="ignore"):
            out = blend(family, eps)
    except ValueError as err:
        out = type(err)
    finally:
        monkeypatch.undo()
    return out, pairs, len(weights)


@pytest.mark.parametrize("kind", ["fails the pair", "coarsens", "fails later", "NaN", "raises"])
def test_the_shared_pair_is_tested_once_and_the_blend_keeps_its_bits(kind, monkeypatch):
    for family, eps, passes, coarse in _search_cases(kind):
        want, want_pairs, want_weights = _record_search(monkeypatch, blend_by_every_stride, family, eps)
        got, pairs, weights = _record_search(monkeypatch, blend_parametric, family, eps)
        # every stride tried first tests node 0 against the first node in no net
        i1 = _first_outside_every_net(family.grid)
        assert want_pairs[0] == pairs[0] == (id(family.maps[i1]), id(family.maps[0]))
        # each pair is sampled once, in the order the reference first samples
        # it, and a failing shared pair ends the search without a net weight
        assert pairs == list(dict.fromkeys(want_pairs))
        assert weights == (want_weights if passes else 0)
        if coarse is None:
            assert got is want is ValueError
            continue
        stride, maps = want
        assert (stride > 1) == coarse
        assert len(got.maps) == len(maps)
        assert all(same_bits(a.coeffs, b.coeffs) for a, b in zip(got.maps, maps))


def test_a_family_failing_the_shared_pair_builds_no_net_weight(monkeypatch):
    # a search of every stride, 100 down to 3, makes 6 net_weights calls and
    # samples node 1 against node 0 6 times
    family = _pole_family((101,), lambda t: 2 + t)
    out, pairs, weights = _record_search(monkeypatch, blend_parametric, family, 1e-3)
    assert (len(pairs), weights) == (1, 0)
    assert len(out.maps) == 101


def test_fix_on_q_inside_a_box_grid():
    q = 4 * 13 + 6  # an interior node
    fam = _box_family(q_nodes=[q])
    out = blend_parametric(fam, 1e-3)
    fixed = fix_on_Q(out, {q: fam.maps[q]}, original=fam, eps=1e-3)
    assert fixed.maps[q] is fam.maps[q]
    assert all(fixed.maps[i] is out.maps[i] for i in range(fam.grid.npoints) if i != q)


def _per_map_reference(f, disc, eps):
    # one map alone, at the default budget of 256: its own ring of 8N nodes
    # for each degree N, its own FFT, its own degree walk
    th = 2.0 * np.pi * (np.arange(256) + 0.37) / 256
    check = disc.center + disc.radius * np.exp(1j * th)
    target = f(check)
    for N in (8, 16, 32, 64, 128, 256):
        K = 8 * N
        th = 2.0 * np.pi * np.arange(K) / K
        coeffs = np.fft.fft(f(disc.center + disc.radius * np.exp(1j * th))) / K
        c = coeffs[: N + 1] / disc.radius ** np.arange(N + 1)
        g = P(c, coeff_tol=0.0).taylor_shift(-disc.center)
        if float(np.max(np.abs(g(check) - target))) < eps:
            return g
    raise AssertionError("reference ran out of degrees")


@pytest.mark.parametrize("disc", [UNIT, Disc(0.3 - 0.2j, 0.8)])
def test_block_path_matches_one_row_path(disc):
    eps = 1e-6
    # 1/(z - a) needs degree 8, 16 and 32 at |a| = 6, 2.5 and 1.6 on the unit disc
    mix = [
        P([1, 2j, 3]),
        R(P([1, -1, 0.5])),
        R(P([1]), P.from_roots([6.0])),
        R(P([1]), P.from_roots([2.5j])),
        R(P([1]), P.from_roots([-1.6])),
        lambda z: np.exp(z),
    ]
    maps = mix + [R(P([1 + k]), P.from_roots([(2.0 + 0.2 * k) * np.exp(1j * k)]))
                  for k in range(40)] + mix
    assert len(maps) > blending._BLOCK_ROWS
    block = list(blending._approximate_net(maps, disc, eps))
    assert len(block) == len(maps)
    for f, g in zip(maps, block):
        alone = poly_approx_on_disc(f, disc, eps)
        assert np.array_equal(g.coeffs, alone.coeffs)
        if isinstance(f, P):
            assert g is f
        elif not (isinstance(f, R) and f.is_polynomial):
            ref = _per_map_reference(f, disc, eps)
            assert np.array_equal(np.array(g.coeffs), np.array(ref.coeffs))
    if disc == UNIT:
        assert [g.degree for g in block[2:6]] == [8, 16, 32, 16]


def test_fit_samples_a_ring_that_grows_with_the_degree():
    # exp at 1e-8 closes at degree 16: 64 ring samples for degree 8, their 64
    # midpoints for degree 16 and the 256-point check, where one fixed ring of
    # 2048 samples and the check took 2304
    sizes = []

    def counting_exp(z):
        sizes.append(np.size(z))
        return np.exp(z)

    g = poly_approx_on_disc(counting_exp, UNIT, 1e-8)
    assert g.degree == 16
    assert sum(sizes) == 384


def test_a_pole_on_a_later_ring_is_refused_when_the_ring_reaches_it():
    # the pole sits on a midpoint of the 64-point ring of degree 8, which the
    # 128-point ring of degree 16 samples
    pole = circle_samples(0j, 1.0, 64, offset=0.5)[3]
    with pytest.raises(PreconditionError, match="singular"):
        poly_approx_on_disc(R(P([1]), P.from_roots([pole])), UNIT, 1e-6)


def test_a_block_row_singular_on_a_later_ring_keeps_the_others_apart():
    # the middle row's pole is on the 128-point ring and closes there; the
    # others close at degrees 16 and 64 and are their one-row approximants
    pole = circle_samples(0j, 1.0, 64, offset=0.5)[3]
    maps = [R(P([1]), P.from_roots([1.5])), R(P([1]), P.from_roots([pole])),
            R(P([1]), P.from_roots([3j]))]
    check = circle_samples(0j, 1.0, 256, offset=0.37)
    got = blending._approximate_block(list(maps), UNIT, 1e-6, check)
    assert isinstance(got[1], PreconditionError) and "singular" in str(got[1])
    for i in (0, 2):
        assert got[i].coeffs == poly_approx_on_disc(maps[i], UNIT, 1e-6).coeffs
    assert (got[0].degree, got[2].degree) == (64, 16)


def test_a_pole_inside_the_disc_is_refused_as_a_precondition():
    # the Taylor series at the centre never reaches the boundary, so the
    # schedule runs out; the map's pole in the closed disc is the reason
    with pytest.raises(PreconditionError, match=r"pole at 0\.5\+0j in the closed disc"):
        poly_approx_on_disc(R(P([1]), P.from_roots([0.5])), UNIT, 1e-3)
    on_boundary = np.exp(0.3j)  # no sample of any ring or of the check ring
    with pytest.raises(PreconditionError, match="in the closed disc"):
        poly_approx_on_disc(R(P([1]), P.from_roots([on_boundary])), UNIT, 1e-3)
    fam = SampledFamily(ParamGrid.line(3), [R(P([1]), P.from_roots([a])) for a in (2.0, 0.5, 2.5)], UNIT)
    with pytest.raises(PreconditionError, match=r"pole at 0\.5\+0j"):
        blend_parametric(fam, 1e-3)
    # a pole outside the disc still runs out of degrees as a budget failure
    with pytest.raises(DegreeBudgetError):
        poly_approx_on_disc(R(P([1]), P.from_roots([1.0005])), UNIT, 1e-9)


def test_family_class_blend_is_within_a_quarter_eps_by_polyval():
    # c/(z - p) with 1.05 < |p| < 3 needs every degree from 8 to 256 at eps
    # 1e-3; each member against its blend on a dense offset ring, evaluated by
    # numpy alone
    rng = np.random.default_rng(23)
    n, eps = 101, 1e-3
    p = (1.05 + 1.95 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    c = (0.5 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    fam = SampledFamily(ParamGrid.line(n), [R(P([ck]), P.from_roots([pk])) for ck, pk in zip(c, p)],
                        UNIT)
    blended = blend_parametric(fam, eps)
    z = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    degrees = set()
    for ck, pk, g in zip(c, p, blended.maps):
        degrees.add(g.degree)
        err = np.max(np.abs(np.polyval(np.array(g.coeffs)[::-1], z) - ck / (z - pk)))
        assert err < eps / 4.0
    assert degrees == {8, 16, 32, 64, 128, 256}


def _precedence_net(budget_row, singular_row):
    maps = [R(P([1]), P.from_roots([3.0 + 0.1 * k])) for k in range(8)]
    maps[budget_row] = R(P([1]), P.from_roots([1.01]))
    maps[singular_row] = R(P([1]), P.from_roots([1.0]))  # a ring sample sits on it
    return SampledFamily(ParamGrid.line(8), maps, UNIT)


def test_block_path_keeps_error_precedence():
    fam = _precedence_net(2, 5)
    with pytest.raises(DegreeBudgetError) as alone:
        poly_approx_on_disc(fam.maps[2], UNIT, 1e-12 / 4.0)
    with pytest.raises(DegreeBudgetError) as net:
        blend_parametric(fam, 1e-12)
    assert net.value.achieved == alone.value.achieved
    assert str(net.value) == str(alone.value)
    with pytest.raises(PreconditionError):
        blend_parametric(_precedence_net(5, 2), 1e-12)


def test_block_path_memory_does_not_grow_with_the_net():
    import tracemalloc

    def net(n):
        return [R(P([1]), P.from_roots([2.5 * np.exp(2j * np.pi * k / n)]))
                for k in range(n)]

    def peak(maps):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = list(blending._approximate_net(maps, UNIT, 1e-6))
        assert len(out) == len(maps)
        return tracemalloc.get_traced_memory()[1] - before

    small, large = net(101), net(404)
    tracemalloc.start()
    try:
        grown = peak(large) - peak(small)
    finally:
        tracemalloc.stop()
    assert grown < 2**20


@pytest.mark.parametrize("N", DEGREE_SCHEDULE)
def test_check_by_inverse_fft_matches_horner(N):
    # unit-size coefficients up to u^N: a top coefficient of u^256 that missed
    # the fold onto the constant would be off by about 1.  Horner's own
    # rounding is up to 2N eps sum |c_k| on the circle (Higham, Accuracy and
    # Stability of Numerical Algorithms, 5.1)
    rng = np.random.default_rng(N)
    c = rng.standard_normal((4, N + 1)) + 1j * rng.standard_normal((4, N + 1))
    unit = circle_samples(0, 1.0, 256, offset=0.37)
    gap = np.abs(blending._check_values(c) - blending._horner_rows(c, unit))
    bound = 2 * (N + 1) * np.finfo(float).eps * np.sum(np.abs(c), axis=1)
    assert np.all(np.max(gap, axis=1) <= bound)


def _one_row_truncation(c, center, rho):
    # one row at a time: scale, build, then Taylor-shift by -center
    return P((c / rho ** np.arange(c.size)).tolist(), coeff_tol=0.0).taylor_shift(-center)


def test_block_truncations_are_the_one_row_truncations_bit_for_bit():
    # rows with an exact zero, signed zero parts, trailing zeros and
    # non-finite parts take the shift even at center 0, which clears a signed
    # zero and turns 0 inf into NaN; the others are taken as they are
    rng = np.random.default_rng(29)
    c = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    c[1, 3] = 0
    c[2, 4] = complex(-0.0, 1.0)
    c[3, 5:] = 0
    c[4, 2] = complex(np.inf, 1.0)
    c[5, 6] = complex(1.0, np.nan)
    c[6] = 0
    with np.errstate(invalid="ignore"):  # inf / rho takes 0 inf in complex division
        for center in (0j, complex(-0.0, -0.0), 0.3 - 0.2j):
            for rho in (1.0, 1.7):
                for g, row in zip(blending._truncations(c, center, rho), c):
                    assert same_bits(g.coeffs, _one_row_truncation(row, center, rho).coeffs)
        # one center and rho per row, as the eta fits pass them
        centers = np.array([0j, 0.3 - 0.2j, 0j, 0.5j, 0j, 0j, -0.1 + 0j])
        rhos = rng.uniform(0.5, 3.0, 7)
        got = blending._truncations(c, centers[:, None], rhos[:, None])
        for g, row, center, rho in zip(got, c, centers.tolist(), rhos.tolist()):
            assert same_bits(g.coeffs, _one_row_truncation(row, center, rho).coeffs)


def test_check_sends_no_truncation_through_horner(monkeypatch):
    widths = []
    horner = blending._horner_rows

    def counting_horner(cs, z):
        widths.append(cs.shape[1])
        return horner(cs, z)

    monkeypatch.setattr(blending, "_horner_rows", counting_horner)
    g = poly_approx_on_disc(R(P([1]), P.from_roots([1.6])), UNIT, 1e-6)
    assert g.degree == 32
    # only the sampler's numerator (1 coefficient) and denominator (2)
    assert widths and set(widths) <= {1, 2}
    assert not {w - 1 for w in widths} & set(DEGREE_SCHEDULE)


def test_full_grid_blend_memory_is_linear_in_the_grid():
    import tracemalloc

    grid = ParamGrid.box(60, 60)
    fam = SampledFamily(grid, [P([1, 0.5 * k / grid.npoints]) for k in range(grid.npoints)], UNIT)
    tracemalloc.start()
    try:
        out = blend_parametric(fam, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.maps == fam.maps
    # one 3600 x 3600 weight matrix alone is 99 MiB
    assert peak < 10 * 2**20
