import numpy as np
import pytest

from helpers import distance_by_loop, numpy_derivative_zeros_and_poles, random_rational
from meroimm import (
    INF,
    CircularDomain,
    ComplexPolynomial,
    Contour,
    Disc,
    FormalSeed,
    InputError,
    InternalConsistencyError,
    NotAnImmersionError,
    NumericalError,
    ParamGrid,
    PreconditionError,
    QuadratureBudgetError,
    RationalMap,
    SingularityOnBoundaryError,
    basis_loops,
    chart_transition_winding,
    classify,
    same_component,
    seed_disc,
    seed_disc_family,
    verify_immersion,
    winding_number,
)
from meroimm.config import CLEARANCE_FACTOR

P = ComplexPolynomial
R = RationalMap

UNIT = Disc(0, 1.0)
ANNULUS = CircularDomain.annulus(0.5, 2.0)


def zpow(d):
    if d > 0:
        return R(P([0] * d + [1]))
    return R(P([1]), P([0] * (-d) + [1]))


def test_domain_validation():
    with pytest.raises(InputError):
        CircularDomain(Disc(0, 1.0), (Disc(0, 2.0),))
    with pytest.raises(InputError):
        CircularDomain(Disc(0, 5.0), (Disc(-1, 1.0), Disc(1, 1.5)))
    assert ANNULUS.contains(1.0)
    assert not ANNULUS.contains(0.1)
    assert not ANNULUS.contains(3.0)


def test_a_hole_tangent_to_a_large_outer_circle_is_refused():
    # 1e6 - 1e-12 rounds to 1e6: an absolute clearance would accept this hole
    with pytest.raises(InputError, match="interior"):
        CircularDomain(Disc(0, 1e6), (Disc(1, 1e6 - 1),))
    assert CircularDomain(Disc(0, 1e6), (Disc(1, 1e6 - 2),)).holes


def test_verify_identity_map():
    cert = verify_immersion(R(P([0, 1])), UNIT, "C")
    assert cert.valid
    assert len(cert.poles_inside) == 0
    assert cert.derivative_zero_count == 0
    assert cert.boundary_clearance == np.inf


def test_verify_square_invalid():
    cert = verify_immersion(R(P([0, 0, 1])), UNIT, "C")
    assert not cert.valid
    assert cert.derivative_zero_count == 1


def test_verify_simple_pole_sphere_target():
    f = R(P([1]), P.from_roots([0.3]))
    cert = verify_immersion(f, UNIT, "CP1")
    assert cert.valid
    assert cert.poles_inside.entries == ((0.3 + 0j, 1),)
    # a plane target rejects the same map
    assert not verify_immersion(f, UNIT, "C").valid


def test_verify_double_pole_invalid_for_sphere():
    f = R(P([1]), P.from_roots([0.2, 0.2]))
    cert = verify_immersion(f, UNIT, "CP1")
    assert not cert.valid


def test_verify_boundary_hit():
    f = R(P([1]), P.from_roots([1.0]))
    with pytest.raises(SingularityOnBoundaryError):
        verify_immersion(f, UNIT, "CP1")


def test_verify_constant_rejected():
    with pytest.raises(InputError):
        verify_immersion(R(P([2.0])), UNIT, "C")


def test_certificate_soundness_vs_numpy_oracle(rng):
    # verdict agrees with a brute-force oracle built on numpy.roots
    checked = 0
    while checked < 60:
        f, poles, orders = random_rational(rng)
        zeros, np_poles = numpy_derivative_zeros_and_poles(f)
        sing = list(zeros) + list(np_poles)
        if any(abs(UNIT.boundary_distance(s)) < 1e-3 for s in sing):
            continue  # stay clear of the boundary so both routes are stable
        if len(zeros) and len(np_poles):
            if min(abs(z - p) for z in zeros for p in np_poles) < 1e-3:
                continue
        cert = verify_immersion(f, UNIT, "CP1")
        want_zeros = sum(1 for z in zeros if abs(z) < 1)
        want_poles = [
            (p, o) for p, o in zip(poles, orders) if abs(p) < 1
        ]
        assert cert.derivative_zero_count == want_zeros
        assert len(cert.poles_inside) == len(want_poles)
        want_valid = want_zeros == 0 and all(o == 1 for _, o in want_poles)
        assert cert.valid == want_valid
        checked += 1


# double poles of f just outside the unit circle: h = f' Theta has a triple
# pole a few thousandths outside it.  Each entry: num, den, zeros of f' in
# the unit disc.
NEAR_BOUNDARY_MAPS = [
    # double pole of f at 0.405+0.919i, |a| ~ 1.0040
    (
        [
            -0.49695256650169284 - 1.0455013635937556j,
            0.7138252764857692 - 1.633924817257123j,
            -0.24275240193658357 - 0.07921930446107024j,
        ],
        [
            1.6660998648211534 - 0.21947408532059476j,
            0.2647392611699123 + 5.520928575187577j,
            -7.129219282615189 + 0.00997048064083561j,
            0.07492028125646666 - 4.263098987790858j,
            1.0,
        ],
        1,
    ),
    # double pole of f at 0.4166-0.9109i, |a| ~ 1.0016
    (
        [
            -0.9332184473059956 + 0.17287588283016983j,
            1.7337139940885014 - 0.11417362864795376j,
            0.6743611103765169 + 1.2856216698131229j,
        ],
        [
            -0.2601892217873136 + 0.7798685501069788j,
            2.2102481811676693 - 1.4353641998308273j,
            -3.8429423054659484 - 1.4665994851557758j,
            -0.2597961694736637 + 3.079161330618395j,
            1.0,
        ],
        2,
    ),
]


@pytest.mark.parametrize("num, den, zeros_inside", NEAR_BOUNDARY_MAPS)
def test_verify_pole_just_outside_boundary(num, den, zeros_inside):
    # the argument-principle count must settle although a pole of h sits
    # a few thousandths outside the circle
    f = R(P(num), P(den))
    zeros, _ = numpy_derivative_zeros_and_poles(f)
    assert sum(1 for z in zeros if abs(z) < 1) == zeros_inside
    cert = verify_immersion(f, UNIT)
    assert cert.derivative_zero_count == zeros_inside


@pytest.mark.parametrize(
    "num, den, winding",
    [(num, den, w) for (num, den, _), w in zip(NEAR_BOUNDARY_MAPS, (1, 0))],
)
def test_derivative_winding_near_pole_is_exact(num, den, winding):
    # sampled tracking at 256 points aliases a full turn near the triple
    # pole of f'; the factored route counts it from the zeros and poles
    fp = R(P(num), P(den)).derivative()
    zeros, poles = numpy_derivative_zeros_and_poles(R(P(num), P(den)))
    inside = [p for p in poles if abs(p) < 1]
    distinct = {(round(p.real, 4), round(p.imag, 4)) for p in inside}
    oracle = sum(1 for z in zeros if abs(z) < 1) - len(inside) - len(distinct)
    assert oracle == winding
    assert winding_number(fp, Contour.circle(0, 1.0)) == winding


def _zero_near_circle(gap):
    # f' = (z - z0)(z + 3), z0 = (1 - gap) e^{i pi/256}: between the unit
    # circle and the chord of its 256-gon for 0 < gap < 7.5e-5
    z0 = (1 - gap) * np.exp(1j * np.pi / 256)
    f = R(P([0, -3 * z0, (3 - z0) / 2, 1 / 3]))
    return f, np.roots([1, 3 - z0, -3 * z0])


def test_verify_counts_zero_near_the_circle():
    # the count runs on the circle, not on a polygon, so a zero 3e-5 from it
    # is counted on the side it lies; the numpy.roots oracle agrees
    for gap, inside in ((3e-5, 1), (-3e-5, 0)):
        f, oracle = _zero_near_circle(gap)
        assert int(np.sum(np.abs(oracle) < 1)) == inside
        cert = verify_immersion(f, UNIT)
        assert cert.derivative_zero_count == inside and cert.valid == (inside == 0)
    # on the ring 1 < |z| < 4 the zero at -3 is inside; z0 is in the hole
    ring = CircularDomain(Disc(0, 4.0), (Disc(0, 1.0),))
    for gap in (5e-5, -5e-5):
        f, oracle = _zero_near_circle(gap)
        inside = int(np.sum((np.abs(oracle) > 1) & (np.abs(oracle) < 4)))
        assert verify_immersion(f, ring).derivative_zero_count == inside == 1 + (gap < 0)


def test_verify_refuses_zero_within_the_count_reach():
    # within CLEARANCE_FACTOR times the outer diameter plus 2 pi r / 2^18 of a
    # circle the count cannot settle: refused before counting, on the disc
    # and on the hole of a ring, whose band is scaled to each circle
    ring = CircularDomain(Disc(0, 4.0), (Disc(0, 1.0),))
    for gap in (2e-5, -2e-5, 0.0):
        f, _ = _zero_near_circle(gap)
        for domain in (UNIT, ring):
            with pytest.raises(SingularityOnBoundaryError):
                verify_immersion(f, domain)


def test_a_count_disagreement_carries_both_counts():
    # f' = (z - a)^2 (z - b)^3, a = 1 - 2^-7, b = 1.001: the root solver
    # merges the five roots into one at 0.9975, while the count, which reads
    # no root, finds a alone inside these discs
    a, b = 1 - 2.0 ** -7, 1.001
    f = R(P.from_roots([a, a, b, b, b]).antiderivative())
    for radius, by_roots in ((0.995, 0), (0.999, 5)):
        with pytest.raises(InternalConsistencyError) as info:
            verify_immersion(f, Disc(0, radius), "C")
        assert (info.value.by_roots, info.value.by_count) == (by_roots, 2)
        assert f"roots give {by_roots}, argument principle gives 2" in str(info.value)


def _recording_roots(monkeypatch):
    import meroimm.rational as rational

    solved = []
    solve = rational.roots

    def recording(p):
        solved.append(p)
        return solve(p)

    monkeypatch.setattr(rational, "roots", recording)
    return solved


def test_each_polynomial_solved_once(monkeypatch):
    # one verify_immersion and one classify on maps with double poles: no
    # polynomial reaches the root solver twice, not even as a multiple of
    # itself (f's denominator leads with 2 - i), and no derivative
    # denominator (an (m+1)-fold root at a pole of order m) reaches it at all
    solved = _recording_roots(monkeypatch)
    f_poles = [(0.3 + 0.1j, 2), (-0.5 + 1.2j, 2), (1.5 - 0.4j, 1)]
    f = R(
        P([0.7 - 0.2j, 1.1 + 0.4j, -0.3j]),
        P.from_roots([a for a, m in f_poles for _ in range(m)], leading=2 - 1j),
    )
    g_poles = [(0.1 + 0j, 2), (3.0 + 0j, 2)]
    g = R(P([1]), P.from_roots([0.1, 0.1])) + R(P([1e-3]), P.from_roots([3.0, 3.0]))
    for run, poles in (
        (lambda: verify_immersion(f, UNIT), f_poles),
        (lambda: classify(g, ANNULUS), g_poles),
    ):
        solved.clear()
        run()
        monic = [tuple(np.round(np.array(p.coeffs) / p.coeffs[-1], 12)) for p in solved]
        assert monic and len(set(monic)) == len(monic)
        for p in solved:
            found = np.roots(np.array(p.coeffs[::-1]))
            for a, m in poles:
                assert np.sum(np.abs(found - a) < 1e-3) <= m


def test_roots_census_in_general_position(monkeypatch):
    # f's numerator is apart from every pole, so factor leaves it unsolved:
    # verify solves the denominator and the numerator of f', classify the
    # denominator alone, and the extension of a pole-free cubic only f'
    from meroimm import extend_immersion

    f = R(P([0.7 - 0.2j, 1.1 + 0.4j, -0.3j]), P.from_roots([0.3 + 0.1j, -0.5 + 1.2j, 1.5 - 0.4j]))
    g = R(P([1, 0, 0.01]), P([0, 1]))
    cubic = R(P([0, 1, 0, 0.05]))  # f' = 1 + 0.15 z^2 vanishes at |z| = 2.58
    want = {"verify": [f.factor().map.den, f.derivative().num], "classify": [g.factor().map.den],
            "extend": [cubic.derivative().num]}
    solved = _recording_roots(monkeypatch)
    for name, run in (("verify", lambda: verify_immersion(f, UNIT)),
                      ("classify", lambda: classify(g, ANNULUS)),
                      ("extend", lambda: extend_immersion(cubic, UNIT, Disc(0, 2.0), 1e-3))):
        solved.clear()
        run()
        assert solved == want[name], name


def test_chart_transition_examples():
    assert chart_transition_winding(Contour.circle(0, 1.0)) == -2
    assert chart_transition_winding(Contour.circle(3.0, 0.5)) == 0
    assert chart_transition_winding(Contour.circle(0, 1.0, turns=2)) == -4


def test_chart_consistency_powers():
    # winding of (z^d)' is d-1; of (z^-d)' is -d-1; the difference is 2d
    circ = Contour.circle(0, 1.0)
    for d in (1, 2, 3):
        wf = winding_number(zpow(d).derivative(), circ)
        wg = winding_number(zpow(-d).derivative(), circ)
        assert wf == d - 1
        assert wg == -d - 1
        assert wf - wg == 2 * d


def test_basis_loops_mid_radius():
    [loop] = basis_loops(ANNULUS)
    radii = {abs(z) for z in loop.samples}
    assert max(radii) == pytest.approx(1.25)
    two = CircularDomain(Disc(0, 10.0), (Disc(-2, 1.0), Disc(2, 1.0)))
    l1, l2 = basis_loops(two)
    # nearest feature of each hole is the other hole, at distance 4 - 1 = 3
    assert abs(l1.samples[0] - (-2)) == pytest.approx((1.0 + 3.0) / 2)
    assert abs(l2.samples[0] - 2) == pytest.approx(2.0)
    # with a tight outer boundary the outer circle is the nearest feature
    tight = CircularDomain(Disc(0, 4.0), (Disc(-2, 1.0), Disc(2, 1.0)))
    t1, _ = basis_loops(tight)
    assert abs(t1.samples[0] - (-2)) == pytest.approx((1.0 + 2.0) / 2)


def test_classify_powers():
    for d in (-3, -2, -1, 1, 2, 3):
        hc = classify(zpow(d), ANNULUS, "CP1")
        assert hc.z_class == (d - 1,)
        assert hc.mod2_class == ((d - 1) % 2,)


def test_classify_requires_immersion():
    with pytest.raises(NotAnImmersionError):
        classify(R(P([0, 0, 1])), CircularDomain.disc(UNIT), "C")


def test_classify_refuses_a_pole_on_a_basis_loop():
    # the annulus's basis loop is the circle |z| = 1.25, through the pole
    f = R(P([1]), P([-1.25, 1]))
    (loop,) = basis_loops(ANNULUS)
    assert distance_by_loop(loop, 1.25) <= CLEARANCE_FACTOR * 2 * 1.25
    assert verify_immersion(f, ANNULUS, "CP1").valid
    with pytest.raises(PreconditionError):
        classify(f, ANNULUS, "CP1")


def test_an_uncertified_count_names_its_polynomial_and_circle():
    # f' = (z - 2i)(z - 5) vanishes at 2i, on the outer circle of the
    # annulus: the count of W = f' there cannot certify an arc through it
    f = R(P([0, 10j, -(5 + 2j) / 2, 1 / 3]))
    with pytest.raises(QuadratureBudgetError) as exc:
        classify(f, CircularDomain.annulus(0.5, 2.0))
    assert str(exc.value) == ("argument-principle count: uncertified arc of the numerator of "
                              "degree 2 on the circle of center 0+0j and radius 2")


def test_classify_figure_eight():
    # the rational model of the figure eight: on |z|=1 it traces
    # sin(2t) + i sin(t); tangent winding 0, derivative winding -1
    num = P([0.5j, -0.5, 0, 0.5, -0.5j])
    F = R(num, P([0, 0, 1]))
    for t in (0.3, 1.2, 2.5):
        z = np.exp(1j * t)
        assert complex(F(complex(z))) == pytest.approx(
            np.sin(2 * t) + 1j * np.sin(t), abs=1e-12
        )
    dom = CircularDomain.annulus(0.9, 1.1)
    assert verify_immersion(F, dom, "C").valid
    hc = classify(F, dom, "C")
    assert hc.z_class == (-1,)
    assert hc.mod2_class == (1,)


# (outer, holes, basis loop circles) as (center, radius): the loops are the
# mid-radius circles of basis_loops, worked out by hand
_ORACLE_DOMAINS = [
    ((0j, 2.0), [(0j, 0.5)], [(0j, 1.25)]),
    ((0j, 4.0), [(-1.5 + 0j, 0.5), (1.5 + 0j, 0.6)], [(-1.5 + 0j, 1.45), (1.5 + 0j, 1.55)]),
]


def _oracle_map(rng, outer, holes):
    """Descending numpy coefficients (num, den) of one of three kinds: a
    Moebius power (alpha T^k + beta)/(T^k - c), T = (z - p)/(z - q), whose f'
    vanishes only at p in a hole and q outside; an antiderivative of a
    product of (z - w) over w in the holes or outside; a random quotient."""
    def point_in(c, r):
        return c + r * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())

    def outside():
        return outer[0] + outer[1] * rng.uniform(1.1, 1.8) * np.exp(2j * np.pi * rng.random())

    kind = rng.integers(3)
    if kind == 0:
        k = int(rng.integers(1, 3))
        p, q = point_in(*holes[rng.integers(len(holes))]), outside()
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        A, B = np.poly([p] * k), np.poly([q] * k)
        c = ((point_in(*outer) - p) / (point_in(*outer) - q)) ** k
        return alpha * A + beta * B, A - c * B
    if kind == 1:
        ws = [point_in(*holes[rng.integers(len(holes))]) if rng.random() < 0.7 else outside()
              for _ in range(rng.integers(1, 4))]
        return np.polyint(np.poly(ws)), np.array([1.0 + 0j])
    num = rng.normal(size=rng.integers(2, 4)) + 1j * rng.normal(size=1)
    return num, np.poly([point_in(*outer) for _ in range(rng.integers(1, 3))])


def _wronskian_roots(num, den):
    """numpy.roots of W = n'd - nd', its leading coefficients below 1e-12 of
    the largest dropped."""
    W = np.polysub(np.polymul(np.polyder(num), den), np.polymul(num, np.polyder(den)))
    return np.roots(W[np.argmax(np.abs(W) > 1e-12 * np.abs(W).max()):])


def _oracle_class(num, den, outer, holes, loops, target):
    """None if f = num/den does not immerse the domain into the target, else
    its classes, from numpy.roots of W = n'd - nd' and of d alone."""
    zw, zd = _wronskian_roots(num, den), np.roots(den)

    def inside(zs, c, r):
        return int(np.sum(np.abs(zs - c) < r))

    def in_domain(zs):
        return inside(zs, *outer) - sum(inside(zs, *h) for h in holes)

    if in_domain(zw) or (target == "C" and in_domain(zd)):
        return None
    return tuple(inside(zw, *loop) - 2 * inside(zd, *loop) for loop in loops)


def test_classify_matches_numpy_roots_of_the_wronskian():
    # seeded maps on an annulus and on a two-hole domain, every root of W and
    # d at least 0.02 from every circle: validity and classes are numpy's
    rng = np.random.default_rng(31)
    for outer, holes, loops in _ORACLE_DOMAINS:
        M = CircularDomain(Disc(*outer), tuple(Disc(*h) for h in holes))
        seen = {(t, v): 0 for t in ("C", "CP1") for v in (True, False)}
        cases = 0
        while cases < 60:
            num, den = _oracle_map(rng, outer, holes)
            points = np.concatenate([_wronskian_roots(num, den), np.roots(den)])
            circles = [outer, *holes, *loops]
            if min(np.min(np.abs(np.abs(points - c) - r), initial=np.inf) for c, r in circles) < 0.02:
                continue
            cases += 1
            f = R(P(num[::-1]), P(den[::-1]))
            for target in ("C", "CP1"):
                want = _oracle_class(num, den, outer, holes, loops, target)
                seen[target, want is not None] += 1
                if want is None:
                    with pytest.raises(NotAnImmersionError):
                        classify(f, M, target)
                else:
                    got = classify(f, M, target)
                    assert got.z_class == want and got.mod2_class == tuple(w % 2 for w in want)
        assert min(seen.values()) >= 5, seen


def test_classify_refuses_a_merged_root_cluster_as_no_immersion():
    # the cluster of test_a_count_disagreement_carries_both_counts: f' =
    # (z - a)^2 (z - b)^3, a = 1 - 2^-7 and b = 1.001, which the root solver
    # merges.  The outer circle runs between a and b: W = f' has a, twice,
    # in the domain.  verify_immersion's two counts disagree there, but
    # classify reads no root of f'
    a, b = 1 - 2.0 ** -7, 1.001
    f = R(P.from_roots([a, a, b, b, b]).antiderivative())
    for radius in (0.995, 0.999):
        M = CircularDomain(Disc(0, radius), (Disc(0, 0.5),))
        with pytest.raises(InternalConsistencyError):
            verify_immersion(f, M, "C")
        for target in ("C", "CP1"):
            with pytest.raises(NotAnImmersionError):
                classify(f, M, target)


def test_classes_are_counted_on_the_loop_circle():
    # f = z + 1/(z - a) has f' = ((z - a)^2 - 1)/(z - a)^2, zeros a - 1 in the
    # hole and a + 1 outside: an immersion of the annulus into CP1.  Its pole
    # a sits in the sliver between the basis loop |z| = 1.25 and the 256-gon
    # through its samples, more than the loop's clearance from both, so the
    # circle holds the pole and the polygon does not.  The class counts the
    # circle: 1 zero - 2 poles of f' = -1, where the polygon would give 1
    # zero - 0 poles = 1.  The parity is the same
    h = np.pi / 256
    a = 1.25 * (1.0 - 0.5 * (1.0 - np.cos(h))) * np.exp(1j * h)  # halfway across the sliver
    (loop,) = basis_loops(ANNULUS)
    gap = 1.25 - abs(a)
    clearance = CLEARANCE_FACTOR * 2 * 1.25
    assert distance_by_loop(loop, a) > 10 * clearance and gap > 10 * clearance
    chords = np.angle((loop.points[1:] - a) / (loop.points[:-1] - a)).sum()
    assert abs(chords) < 1e-9  # a lies outside the polygon
    f = R(P([0, 1])) + R(P([1]), P.from_roots([a]))
    assert verify_immersion(f, ANNULUS, "CP1").valid
    hc = classify(f, ANNULUS, "CP1")
    assert hc.z_class == (-1,) and hc.mod2_class == (1,)


def test_classify_reads_no_root_of_the_derivative(monkeypatch):
    # classify factors f once, solving its denominator, and winds W and d
    # on every circle in one block of counts: no factored derivative and no
    # winding of f' along the polygon
    from meroimm import immersions, rational

    def refuse(*args, **kwargs):
        raise AssertionError("classify solved or wound the derivative")

    for owner, name in ((rational.Factored, "derivative"), (immersions, "winding_number")):
        monkeypatch.setattr(owner, name, refuse)
    blocks = []
    counts = immersions._counts

    def block(fs, discs):
        blocks.append(len(fs))
        return counts(fs, discs)

    monkeypatch.setattr(immersions, "_counts", block)
    two = CircularDomain(Disc(0, 4.0), (Disc(-1.5, 0.5), Disc(1.5, 0.6)))
    g = R(P([1]), P.from_roots([1.0])) + R(P([0, 0.01]))  # f' vanishes at -9 and 11
    cubic = R(P([0, -2.25, 0, 1 / 3]))  # f' vanishes at the hole centres
    for f, M, target, rows in ((zpow(3), ANNULUS, "C", 6), (zpow(-2), ANNULUS, "CP1", 4),
                               (g, ANNULUS, "CP1", 4), (cubic, two, "C", 10)):
        blocks.clear()
        classify(f, M, target)
        assert blocks == [rows]


def test_verify_winds_the_wronskian_and_for_c_the_denominator(monkeypatch):
    # the verdict reads W = n'd - nd' of the reduced map on every boundary
    # circle, and for C also d: no pole-cleared derivative f' Theta, which
    # for 1/(z - 0.3)^2 is the constant -2
    from meroimm import immersions
    from meroimm.rational import wronskian

    blocks = []
    counts = immersions._counts

    def block(fs, discs):
        blocks.append((list(fs), list(discs)))
        return counts(fs, discs)

    monkeypatch.setattr(immersions, "_counts", block)
    double = R(P([1]), P.from_roots([0.3, 0.3]))
    g = R(P([0, 1])) + R(P([1]), P.from_roots([1.2]))  # f' vanishes at 0.2, in the hole, and 2.2
    for f, M in ((double, UNIT), (g, UNIT), (g, ANNULUS), (zpow(2), ANNULUS)):
        F = f.factor()
        W, d = R(wronskian(F.map)), R(F.map.den)
        circles = [M] if isinstance(M, Disc) else [M.outer, *M.holes]
        for target, rows in (("CP1", [W]), ("C", [W, d])):
            blocks.clear()
            verify_immersion(f, M, target)
            assert blocks == [([r for _ in circles for r in rows], [c for c in circles for _ in rows])]
    blocks.clear()
    verify_immersion(double, UNIT, "CP1")
    assert blocks == [([R(P([0.6, -2]))], [UNIT])]


def test_an_unknown_target_is_refused_before_any_root_is_solved(monkeypatch):
    # a pole on the unit circle would be a SingularityOnBoundaryError, but the
    # target is refused first, as classify refuses it
    solved = _recording_roots(monkeypatch)
    on_circle = R(P([1]), P.from_roots([1.0]))
    for f in (on_circle, zpow(2)):
        for run in (verify_immersion, classify):
            with pytest.raises(InputError, match="unknown target"):
                run(f, ANNULUS if run is classify else UNIT, "R2")
    assert solved == []


def test_same_component_examples():
    z1, z2, z3 = zpow(1), zpow(2), zpow(3)
    assert same_component(z1, z3, ANNULUS, "CP1")
    assert not same_component(z1, z3, ANNULUS, "C")
    assert not same_component(z1, z2, ANNULUS, "CP1")
    assert not same_component(z1, z2, ANNULUS, "C")
    assert same_component(z2, z2, ANNULUS, "CP1")


def test_same_component_equivalence_relation():
    maps = [zpow(d) for d in (-2, 1, 2, 3)]
    for target in ("C", "CP1"):
        rel = {
            (i, j): same_component(maps[i], maps[j], ANNULUS, target)
            for i in range(4)
            for j in range(4)
        }
        for i in range(4):
            assert rel[(i, i)]
            for j in range(4):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(4):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]


def test_mod2_loop_invariance_across_poles(rng):
    # two homologous circles separated by simple poles: windings of f' agree
    # mod 2 and differ by exactly -2 per pole in between
    cases = 0
    while cases < 20:
        k = int(rng.integers(1, 4))
        radii = rng.uniform(1.2, 1.8, k)
        angles = rng.uniform(0, 2 * np.pi, k)
        poles = [complex(r * np.exp(1j * a)) for r, a in zip(radii, angles)]
        if min(
            [3.0] + [abs(poles[i] - poles[j]) for i in range(k) for j in range(i)]
        ) < 0.25:
            continue
        f = R(P([0, 1e-4]))
        for p in poles:
            f = f + R(P([1]), P.from_roots([p]))
        fp = f.derivative()
        # keep derivative zeros away from the annulus between the circles
        if any(0.9 < abs(z) < 2.1 for z, _ in fp.zero_set()):
            continue
        inner = Contour.circle(0, 1.0)
        outer = Contour.circle(0, 2.0)
        w1 = winding_number(fp, inner)
        w2 = winding_number(fp, outer)
        assert (w1 - w2) % 2 == 0
        assert w2 - w1 == -2 * k
        cases += 1


def test_seed_disc_finite():
    s = FormalSeed(0, 0j, 1.0, 1.0)
    assert seed_disc(s).num.coeffs == (0j, 1 + 0j)
    s = FormalSeed(0, 2 + 1j, 3.0, 1.0)
    assert seed_disc(s).num.coeffs == (2 + 1j, 3 + 0j)
    # 1-jet: f(x1) = a and c f'(x1) = v
    s = FormalSeed(0.5, 1 - 2j, 0.7j, 2.0)
    f = seed_disc(s)
    assert complex(f(0.5)) == pytest.approx(1 - 2j)
    assert 2.0 * complex(f.derivative()(0.5)) == pytest.approx(0.7j)


def test_seed_disc_infinity():
    s = FormalSeed(0, INF, 1.0, 1.0)
    f = seed_disc(s)
    assert f(0) is INF
    # 1-jet in the reciprocal chart: (1/f)'(x1) * c = v
    rec = f.reciprocal()
    assert complex(rec.derivative()(0)) == pytest.approx(1.0)
    cert = verify_immersion(f, Disc(0, 0.1), "CP1")
    assert cert.valid


def test_seed_disc_validation():
    with pytest.raises(InputError):
        FormalSeed(0, 0j, 0.0, 1.0)
    with pytest.raises(InputError):
        FormalSeed(0, 0j, 1.0, 0.0)


def test_seed_refuses_nan_and_non_finite_data():
    nan, inf = float("nan"), float("inf")
    # a NaN target is no point of the sphere
    for target in (complex(nan, 0), complex(0, nan), nan):
        with pytest.raises(InputError, match="NaN"):
            FormalSeed(0, target, 1.0, 1.0)
    for x1, v, c in [(complex(nan, 0), 1, 1), (complex(0, inf), 1, 1), (0, complex(inf, 1), 1),
                     (0, complex(nan, 1), 1), (0, 1, complex(1, nan)), (0, 1, -inf)]:
        with pytest.raises(InputError, match="finite"):
            FormalSeed(x1, 1.0, v, c)
    # INF, and a complex with an infinite part, stay legal targets
    for target in (INF, complex(inf, nan)):
        assert seed_disc(FormalSeed(0, target, 1.0, 1.0)).den.degree == 1


def test_seed_stores_its_target_as_complex_or_inf():
    inf = float("inf")
    pole_map = seed_disc(FormalSeed(0, complex("inf"), 1, 1))
    for target in (inf, -inf, np.float64(inf), complex(inf, 1), INF):
        seed = FormalSeed(0, target, 1, 1)
        assert seed.target_value is INF
        assert seed_disc(seed) == pole_map
    for target in (2, 2.0, np.float64(2.0), 2 + 0j):
        seed = FormalSeed(0, target, 1, 1)
        assert type(seed.target_value) is complex and seed.target_value == 2


def test_seeds_pass_verify_near_base(rng):
    for _ in range(10):
        x1 = complex(rng.normal(), rng.normal())
        a = complex(rng.normal(), rng.normal())
        s = FormalSeed(x1, a, complex(rng.normal() + 1j * rng.normal() + 2), 1.0)
        cert = verify_immersion(seed_disc(s), Disc(x1, 0.1), "C")
        assert cert.valid


def test_seed_family_pure_charts():
    grid = ParamGrid.line(5)
    seeds = [FormalSeed(0, 1.0 + 0.1 * i, 1.0, 1.0) for i in range(5)]
    plane = seed_disc_family(seeds, grid, lambda p: 1.0)
    for s, f in zip(seeds, plane):
        assert f == seed_disc(s)
    recip = seed_disc_family(seeds, grid, lambda p: 0.0)
    for s, f in zip(seeds, recip):
        assert complex(f(0)) == pytest.approx(complex(s.target_value))


def test_seed_family_blend_keeps_jet():
    grid = ParamGrid.line(11)
    seeds = [FormalSeed(0, 1.0, complex(1.0 + 0.2 * i), 1.0) for i in range(11)]
    fam = seed_disc_family(seeds, grid, lambda p: p)
    for i, f in enumerate(fam):
        assert complex(f(0)) == pytest.approx(1.0)
        assert complex(f.derivative()(0)) == pytest.approx(1.0 + 0.2 * i)


def test_seed_family_forbidden_zone():
    grid = ParamGrid.line(3)
    seeds = [FormalSeed(0, 1e6, 1.0, 1.0) for _ in range(3)]
    with pytest.raises(PreconditionError):
        seed_disc_family(seeds, grid, lambda p: 0.5)
    # at the cutoff extremes the same targets are fine
    seed_disc_family(seeds, grid, lambda p: 0.0)
    seed_disc_family(seeds, grid, lambda p: 1.0)


def test_a_certificate_out_of_double_range_is_refused_as_numerical():
    # the zeros of f' = 60 z^59 sit at 0, far inside; the count on the circle
    # of radius 1e6 overflows, which is not a zero near the boundary
    f = R(P([1] + [0] * 59 + [1]))
    with pytest.raises(NumericalError, match="double range"):
        verify_immersion(f, Disc(0, 1e6), "CP1")
    assert verify_immersion(f, Disc(0, 1e3), "CP1").derivative_zero_count == 59
