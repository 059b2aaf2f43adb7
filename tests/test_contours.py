import cmath
import itertools
import math
import re
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meroimm import (
    ComplexPolynomial,
    Contour,
    Disc,
    InputError,
    MeroimmError,
    NumericalError,
    PathTooCloseError,
    QuadratureBudgetError,
    RationalMap,
    ZeroOnContourError,
    argument_principle_count,
    winding_number,
)
from meroimm import contours, poly
from meroimm.contours import circle_primitives, circle_samples, integrate_pieces

from helpers import (Recorder, assert_same_paths, assert_same_quadrature,
                     integrate_pieces_full_floor, mpmath_pieces, same_bits)

P = ComplexPolynomial
R = RationalMap
UNIT = Disc(0, 1.0)


def test_contour_validation():
    # the checks run in this order, each with its own message; a non-finite
    # sample is refused here rather than surfacing later as a zero on the contour
    short = "a contour needs at least two samples"
    finite = "contour samples must be finite"
    open_end = "closed contours must repeat the first sample last"
    repeat = "consecutive contour samples must be distinct"
    for make, args, message in [
        (Contour, ((), True), short),
        (Contour, ((math.nan,), True), short),
        (Contour, ((0j, complex(math.nan, 0.0), 1j), False), finite),
        (Contour, ((math.inf, 1.0, math.inf), True), finite),
        (Contour, ((1, 2, complex(0.0, -math.inf)), False), finite),
        (Contour, ((0j, 1j), True), open_end),
        (Contour, ((0j, 1.0, 1.0), True), open_end),
        (Contour, ((0j, 1.0, 1.0, 0j), True), repeat),
        (Contour, ((0j, 0j), False), repeat),
        (Contour, ((0j, -0.0, 1j), False), repeat),
    ]:
        with pytest.raises(InputError, match=re.escape(message)):
            make(*args)
    with pytest.raises(InputError, match=finite):
        Contour.polyline([0, math.nan, 1j], closed=True)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError, match="radius"):
            Contour.circle(0, radius)
    c = Contour((0, 1, 1j, 0), closed=True)
    assert same_bits(c.points, [0, 1, 1j, 0]) and not c.points.flags.writeable
    c = Contour.circle(0, 1.0, samples=64)
    assert c.samples[0] == c.samples[-1]
    assert c.closed


def _circle_by_cmath(center, radius, samples, turns):
    # reference: the samples as first built, one cmath.exp per sample
    sign = 1 if turns > 0 else -1
    center = complex(center)
    pts = [
        center + radius * cmath.exp(sign * 2j * math.pi * k / samples)
        for k in range(samples * abs(turns))
    ]
    pts.append(pts[0])
    return pts


def test_circle_matches_cmath_samples():
    for center, radius, samples, turns in itertools.product(
        (0, -0.0 - 0.0j, 0.3 - 1.2j, -2.5 + 0.7j),
        (1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 7.3),
        (8, 16, 33, 64, 100, 256, 1024),
        (1, -1, 2, -3),
    ):
        c = Contour.circle(center, radius, samples=samples, turns=turns)
        assert same_bits(c.samples, _circle_by_cmath(center, radius, samples, turns))
        assert same_bits(c.points, c.samples)


def test_circle_samples_match_the_direct_formula():
    # the memoized unit roots give the bits of the formula, on a first call
    # and a repeated one; n above the cache's node bound is built afresh
    sizes = [2 ** k for k in range(4, 15)] + [17, 100, 257, 2 ** 14 + 1]
    for n, offset in itertools.product(sizes, (0.0, 0.37, 0.5)):
        th = 2.0 * math.pi * (np.arange(n) + offset) / n
        for center, radius in ((0j, 1.0), (0.3 - 1.2j, 2.0)):
            want = center + radius * np.exp(1j * th)
            for _ in range(2):
                assert same_bits(circle_samples(center, radius, n, offset=offset), want)


def test_shared_geometry_is_read_only():
    from meroimm.contours import _first_round, _unit_roots

    c = Contour.circle(0j, 1.0, samples=64)
    shared = [_unit_roots(64, 0.0), c.points, *_first_round((10,))]
    for a in shared:
        with pytest.raises(ValueError):
            a[0] = 7
    # what circle_samples returns is new on every call and the caller's to write
    a, b = circle_samples(0j, 1.0, 64), circle_samples(0j, 1.0, 64)
    assert a is not b and a.flags.writeable and b.flags.writeable
    a[0] = 7
    assert b[0] == 1 and _unit_roots(64, 0.0)[0] == 1


def test_equal_circle_arguments_give_equal_contours():
    first = Contour.circle(0, 1, 64, 1)
    for args in [
        (0.0, 1.0, 64, 1),
        (0j, 1.0, 64.0, 1.0),
        (np.complex128(0), np.float64(1), np.int64(64), np.int32(1)),
        (np.float32(0), np.int16(1), np.uint8(64), np.int8(1)),
    ]:
        c = Contour.circle(*args)
        assert c == first and same_bits(c.points, first.points)
    # a center of signed zeros gives the bits of 0j: -0.0 + 0.0 is 0.0
    for center in (0j, complex(-0.0, -0.0), complex(0.0, -0.0)):
        c = Contour.circle(center, 1.0, samples=64, turns=-1)
        assert same_bits(c.samples, _circle_by_cmath(center, 1.0, 64, -1))


def test_bad_circle_arguments_are_refused_every_call():
    Contour.circle(0, 1.0, samples=64, turns=1)
    for _ in range(2):
        for kwargs in [
            dict(radius=0.0), dict(radius=-1.0), dict(radius=math.nan), dict(radius=math.inf),
            dict(turns=0), dict(turns=0.5), dict(turns=1.5),
            dict(samples=7), dict(samples=0), dict(samples=64.5),
        ]:
            with pytest.raises(InputError):
                Contour.circle(0, **{"radius": 1.0, "samples": 64, "turns": 1, **kwargs})


def test_circle_turns_and_polyline():
    c2 = Contour.circle(0, 1.0, samples=32, turns=2)
    assert len(c2.samples) == 65
    p = Contour.polyline([0, 1, 1 + 1j], closed=True)
    assert p.samples[-1] == p.samples[0]


@pytest.mark.parametrize("samples, turns", [(64.9, 1), (True, 1), (16, 1.7), (16, True)])
def test_circle_refuses_samples_or_turns_that_are_not_integers(samples, turns):
    with pytest.raises(InputError, match="integer"):
        Contour.circle(0, 1.0, samples=samples, turns=turns)
    c, want = Contour.circle(0, 1.0, samples=16.0, turns=-2.0), Contour.circle(0, 1.0, samples=16, turns=-2)
    assert c == want and same_bits(c.points, want.points)


def _chords(contour):
    return contour.points[:-1], np.diff(contour.points)


def test_integrate_constant_segment():
    got = integrate_pieces(np.ones_like, np.array([0j]), np.array([1 + 0j]), 1e-12)
    assert got == pytest.approx(1.0)


def test_integrate_cauchy():
    v = integrate_pieces(lambda z: 1.0 / z, *_chords(Contour.circle(0, 1.0)), 1e-12)
    assert v == pytest.approx(2j * math.pi, abs=1e-10)


def test_integrate_double_pole_no_residue():
    f = R(P([1]), P.from_roots([0.3, 0.3]))
    v = integrate_pieces(f, *_chords(Contour.circle(0, 1.0)), 1e-12)
    assert abs(v) < 1e-10


def test_integrate_pole_on_path():
    f = R(P([1]), P.from_roots([1.0]))
    with pytest.raises(PathTooCloseError):
        integrate_pieces(f, *_chords(Contour.circle(0, 1.0, samples=64)), 1e-10)


def test_integrate_pieces_refuses_non_finite_piece():
    # a non-finite piece puts non-finite nodes on the path
    f = R(P([1]), P.from_roots([1.0]))
    for bad in (complex("nan"), complex("inf")):
        with pytest.raises(PathTooCloseError), np.errstate(invalid="ignore"):
            integrate_pieces(f, np.array([0j, 1j]), np.array([1j, bad]), 1e-10)


def test_integrate_budget(monkeypatch):
    # a needle the subdivision cannot resolve with a handful of evaluations
    monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", 40)
    f = lambda z: 1.0 / (z - (1.0 + 1e-7j))
    with pytest.raises(QuadratureBudgetError) as exc:
        integrate_pieces(f, np.array([0j]), np.array([2 + 0j]), 1e-14)
    assert exc.value.best is not None


# the extension integrand h0 exp(xi)/Theta with one double pole at _POLE
_XI = [0.4 + 0.1j, 0.8 - 0.3j, -0.25 + 0.5j, 0.1 + 0.05j, -0.02j]
_POLE = 0.5 + 0.4j
_H0 = 10.0 - 5.0j


def _h_exp_xi_over_theta(z):
    return _H0 * np.exp(P(_XI)(z)) / (z - _POLE) ** 2


def _detour_pieces(radius=0.04, chords=16):
    """Radial path from 0 to |z| = 1.5 through _POLE's direction, passing the
    pole by a half circle of the given radius cut into the given chords."""
    u = _POLE / abs(_POLE)
    th = np.angle(-u) - np.pi * np.arange(chords + 1) / chords
    pts = np.concatenate([[0j], _POLE + radius * np.exp(1j * th), [1.5 * u]])
    return pts[:-1], np.diff(pts)


def test_integrate_pieces_long_leg_matches_mpmath():
    za, d = np.array([0j]), np.array([1.5 * np.exp(-1j * np.pi / 3)])
    got = integrate_pieces(_h_exp_xi_over_theta, za, d, 1e-10)
    want = mpmath_pieces(_H0, _XI, [_POLE], za, d)[0]
    assert abs(got - want) < 1e-10


def test_integrate_pieces_starts_one_leg_on_ten_panels():
    # round 1 evaluates both endpoints and 10 equal panels of 15 nodes; at
    # most one more round follows
    za, d = np.array([0j]), np.array([1.5 * np.exp(-1j * np.pi / 3)])
    rec = Recorder(_h_exp_xi_over_theta)
    got = integrate_pieces(rec, za, d, 1e-10)
    first = rec.calls[0]
    assert len(first) == 2 + 15 * 10
    centres = first[2:].reshape(10, 15)[:, 7]  # the K15 centre node of each panel
    assert np.allclose(centres, (np.arange(10) + 0.5) / 10 * d[0], rtol=0, atol=1e-15)
    assert len(rec.calls) <= 2
    assert abs(got - mpmath_pieces(_H0, _XI, [_POLE], za, d)[0]) < 1e-11


def test_integrate_pieces_near_pole_arc_matches_mpmath():
    # chords 0.008 long, 0.04 from the double pole, |integrand| > 1e4: each
    # chord's share of tol asks for 5e-15 relative accuracy, near rounding
    za, d = _detour_pieces()
    assert np.max(np.abs(_h_exp_xi_over_theta(za[1:]))) > 1e4
    got = integrate_pieces(_h_exp_xi_over_theta, za, d, 1e-10)
    want = sum(mpmath_pieces(_H0, _XI, [_POLE], za, d))
    assert abs(got - want) < 1e-10


def test_integrate_pieces_matches_reference_loop(monkeypatch):
    # the round loop against its first form, bit for bit: totals, refusals
    # with their best estimate, and the points of every integrand call
    za, d = _detour_pieces()
    assert_same_quadrature(_h_exp_xi_over_theta, za, d, 1e-10)
    leg = np.array([0j]), np.array([1.5 * np.exp(-1j * np.pi / 3)])
    assert assert_same_quadrature(_h_exp_xi_over_theta, *leg, 1e-10)[0] == "returned"
    # a 256-chord polygon around |z| = 1
    ring = circle_samples(0j, 1.0, 256)
    how, _ = assert_same_quadrature(_h_exp_xi_over_theta, ring, np.roll(ring, -1) - ring, 1e-10)
    assert how == "returned"
    # one straight piece accepted after 1, 2 and 5 rounds, each round one call
    for offset, rounds in ((0.5, 1), (0.2, 2), (0.03, 5)):
        rec = Recorder(lambda z, w=1.0 + offset * 1j: 1.0 / (z - w))  # sees both kernels' calls
        assert assert_same_quadrature(rec, np.array([0j]), np.array([2 + 0j]), 1e-10)[0] == "returned"
        assert len(rec.calls) == 2 * rounds and len(rec.calls[0]) == 2 + 15 * 10
    # the first of two pieces gets m = 1..10 panels and the second 11 - m; then three pieces
    for m in range(1, 11):
        share = (m - 0.5) / 10
        za, d = np.array([0j, share]), np.array([share, (1 - share) * 1j])
        rec = Recorder(_h_exp_xi_over_theta)
        assert_same_quadrature(rec, za, d, 1e-10)
        assert len(rec.calls[0]) == 4 + 15 * 11
    za, d = np.array([0j, 0.05, 0.05 + 0.3j]), np.array([0.05, 0.3j, 0.65])
    assert_same_quadrature(_h_exp_xi_over_theta, za, d, 1e-10)
    # the needle of test_integrate_budget, refused after one round and after several
    needle = lambda z: 1.0 / (z - (1.0 + 1e-7j))
    for budget in (40, 300, 3000):
        monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", budget)
        how, best = assert_same_quadrature(needle, np.array([0j]), np.array([2 + 0j]), 1e-14)
        assert how == "refused" and best is not None


def test_many_paths_in_one_call_are_each_path_alone(monkeypatch):
    # one call over many paths, each with its own integrand, against the
    # reference loop on each path alone: sums, refusals and the points of
    # every round.  Paths of no length take no round; a path that ends on the
    # pole is refused alone, and the needle runs out of its own budget
    legs = [_detour_pieces(), (np.array([0j]), np.array([1.5 * np.exp(-1j * np.pi / 3)])),
            (np.array([], dtype=complex), np.array([], dtype=complex)),
            (np.array([0j]), np.array([_POLE])), _detour_pieces(0.01, 8),
            (np.array([0j, 0.05, 0.05 + 0.3j]), np.array([0.05, 0.3j, 0.65])),
            (np.array([0j]), np.array([2 + 0j])), (np.array([0.5j]), np.array([0j]))]
    needle = lambda z: 1.0 / (z - (1.0 + 1e-7j))
    fzs = [_h_exp_xi_over_theta] * 6 + [needle, _h_exp_xi_over_theta]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert assert_same_paths(fzs, legs, 1e-10) == (
            ["returned"] * 3 + ["too close"] + ["returned"] * 2 + ["refused", "returned"])
        monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", 300)
        assert assert_same_paths(fzs, legs, 1e-10) == (
            ["refused", "returned", "returned", "too close", "refused", "refused", "refused",
             "returned"])
        # one path is the one-path call; no path, or only empty ones, takes no call
        assert assert_same_paths(fzs[:1], legs[:1], 1e-10) == ["refused"]
    assert contours._integrate_paths(None, np.array([0j]), np.array([0j]), 1e-10, [0, 1]) == [0j] * 2
    with pytest.raises(InputError):
        contours._integrate_paths(None, np.array([0j]), np.array([1 + 0j]), 1e-10, [2, -1])


def _seeded_legs(rng, count):
    """count paths of 1 to 6 pieces 0.05 to 3 long, the first half of them
    one piece, with an integrand each: a polynomial of degree 0 to 8, or
    1 / (z - w)^2 with w 0.001 to 0.3 off the first piece, which takes
    several rounds."""
    for k in range(count):
        n = 1 if k < count // 2 else int(rng.integers(2, 7))
        za0 = complex(*rng.uniform(-1, 1, 2))
        d = rng.uniform(0.05, 3.0, n) * np.exp(2j * np.pi * rng.random(n)) / n
        za = za0 + np.concatenate([[0j], np.cumsum(d)[:-1]])
        if k % 3:
            coeffs = rng.normal(size=int(rng.integers(1, 10))) * (1 + 1j * rng.normal())
            yield P(coeffs.tolist()), za, d
        else:
            w = za[0] + rng.random() * d[0] + 10.0 ** rng.uniform(-3, -0.5) * 1j * d[0] / abs(d[0])
            yield (lambda z, w=w: 1.0 / (z - w) ** 2), za, d


def test_lean_round_is_the_full_floor_round_bit_for_bit(monkeypatch):
    # the one-piece set-up, the sum in panel order and the early share test
    # against the round that forms every floor and sets every path up
    # alike, on seeded paths: sums, refusals with their best estimate, and
    # the points of every call
    rng = np.random.default_rng(35)
    outcomes = []
    for budget in (contours.QUAD_EVAL_BUDGET, 250, 1000):
        monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", budget)
        for fz, za, d in _seeded_legs(rng, 120):
            rec = Recorder(fz)
            tol = (1e-6, 1e-10, 1e-13)[len(outcomes) % 3]
            how, _ = assert_same_quadrature(rec, za, d, tol, reference=integrate_pieces_full_floor)
            outcomes.append((how, len(za) == 1, len(rec.calls) // 2))
    assert {(how, one) for how, one, _ in outcomes} == {
        (how, one) for how in ("returned", "refused") for one in (True, False)}
    assert max(rounds for _, one, rounds in outcomes if one) >= 4


def test_one_piece_refuses_a_non_finite_end_point():
    # no node reaches a piece's end points, which round 1 also evaluates
    za, d = np.array([0.3 + 0j]), np.array([2j])
    for end, bad in ((za[0], complex("nan")), (za[0] + d[0], complex("inf"))):
        fz = lambda z, end=end, bad=bad: np.where(z == end, bad, 1.0 + 0j)  # noqa: E731
        for kernel in (integrate_pieces, integrate_pieces_full_floor):
            with pytest.raises(PathTooCloseError):
                kernel(fz, za, d, 1e-10)
        got = contours._integrate_paths(lambda idx, z, fz=fz: fz(z), np.array([za[0], -1.0]),
                                        np.array([d[0], 1.0]), 1e-10, [1, 1])
        assert isinstance(got[0], PathTooCloseError) and got[1] == pytest.approx(1.0)


def test_one_piece_budget_refusal_keeps_the_best_estimate(monkeypatch):
    # refused after the first round (its 152 evaluations) and after later ones
    needle = lambda z: 1.0 / (z - (1.0 + 1e-7j))  # noqa: E731
    bests = []
    for budget in (100, 152, 400, 2000, 8000):
        monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", budget)
        how, best = assert_same_quadrature(needle, np.array([0j]), np.array([2 + 0j]), 1e-14,
                                           reference=integrate_pieces_full_floor)
        assert how == "refused"
        bests.append(best)
    assert bests[0] == bests[1] and len(set(bests)) == 4  # 100 and 152 refuse after round 1


def test_a_nan_floor_accepts_a_panel_that_passes_its_share(monkeypatch):
    # a constant whose modulus is 1.13e308 and whose sums stay finite, so
    # that the mass overflows while |K15 - G7| does not: where |dz| / 2 is so
    # small that 50 eps |dz| / 2 underflows to 0, the floor is 0 * inf = NaN,
    # and err <= fmax(share, NaN) falls back to the share, which these panels
    # pass (np.maximum rejected them until the budget ran out).  Elsewhere
    # the floor is inf.  Every leg returns its exact integral, within 1e-10
    # and relative above 1, in both loops, as the reference loops do.  The
    # last leg adds a piece near a pole, so that its first round forms the
    # floors: np.maximum would bisect the tiny piece's panel there
    c, w = 0.8e308 * (1 + 1j), 4.5 + 1e-3j
    big = lambda z: np.full(z.shape, c)  # noqa: E731
    mixed = lambda z: np.where(z.real < 2.0, c, 1.0 / (z - w))  # noqa: E731
    monkeypatch.setattr(contours, "QUAD_EVAL_BUDGET", 2000)
    tiny = 5e-324
    legs = [(np.array([0j]), np.array([tiny * 1j])),  # |dz| / 2 rounds to 0
            (np.array([0j]), np.array([1e-310 + 0j])),  # 50 eps |dz| / 2 underflows
            (np.array([0j]), np.array([1e-300 + 0j])),
            (np.array([0j]), np.array([1.0 + 0j])),
            (np.array([0j, 1.0]), np.array([1.0, tiny])),  # a tiny second piece
            (np.array([0j, 1.0]), np.array([1.0, 1j])),
            (np.array([0j, 4.0]), np.array([1e-310, 1.0]))]
    fzs = [big] * 6 + [mixed]
    exact = [c * complex(d.sum()) for _, d in legs[:6]]
    exact.append(c * 1e-310 + cmath.log(5.0 - w) - cmath.log(4.0 - w))
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [integrate_pieces(fz, za, d, 1e-10) for fz, (za, d) in zip(fzs, legs)]
        together = contours._integrate_paths(
            lambda idx, z: np.array([fzs[i](row) for i, row in zip(idx, z)]),
            np.concatenate([za for za, _ in legs]), np.concatenate([d for _, d in legs]), 1e-10,
            [len(za) for za, _ in legs])
        assert [assert_same_quadrature(fz, za, d, 1e-10, reference=integrate_pieces_full_floor)[0]
                for fz, (za, d) in zip(fzs, legs)] == ["returned"] * len(legs)
        assert assert_same_paths(fzs, legs, 1e-10) == ["returned"] * len(legs)
    for got in (alone, together):
        assert all(abs(g - e) <= 1e-10 * max(1.0, abs(e)) for g, e in zip(got, exact)), (got, exact)


def one_row_primitive(fz, center, radius, n, tol):
    """The one-row block of circle_primitives, from the first ring."""
    return circle_primitives(lambda idx, z: fz(z), center, radius, n, tol, [0])[0]


def test_circle_primitive_of_exp():
    # the primitive of e^z dz is e^z, and a closed loop has no defect
    got, defect, mass = one_row_primitive(np.exp, 0.2j, 0.8, 16, 1e-12)
    z = circle_samples(0.2j, 0.8, 16)
    assert abs(defect) < 1e-14 and mass > 0
    assert np.max(np.abs((got - got[0]) - (np.exp(z) - np.exp(z[0])))) < 1e-14


def test_circle_primitive_defect_and_refusals():
    # residue 1 inside the circle: g = i, so the closure defect is 2 pi i
    _, defect, _ = one_row_primitive(lambda z: 1 / z, 0j, 1.0, 16, 1e-12)
    assert abs(defect - 2j * math.pi) < 1e-14
    # a double pole 1e-4 outside the circle needs about 1e5 nodes, past the cap
    assert one_row_primitive(lambda z: 1 / (z - 1.0001) ** 2, 0j, 1.0, 16, 1e-10) is None
    assert one_row_primitive(lambda z: np.full(z.shape, np.inf + 0j), 0j, 1.0, 16, 1e-10) is None


def test_circle_primitives_rows_close_at_their_own_rings():
    # rows from starts 64, 256 and 1024 close on their first rings; the last
    # row's double pole sits on a midpoint of its 64-node ring, so its
    # 128-node ring overflows there.  Each row is its one-row call, bit for bit
    pole = circle_samples(0.1j, 1.0, 64, offset=0.5)[3]
    fs = [np.exp, lambda z: 1 / (z - 1.5), lambda z: z ** 3 * np.exp(0.5 * z),
          lambda z: 1 / (z - pole) ** 2]
    starts = [64, 256, 1024, 64]
    rings = []

    def block(idx, z):
        rings.append((idx.tolist(), z.size))
        return np.stack([fs[i](z) for i in idx])

    got = circle_primitives(block, 0.1j, 1.0, 16, 1e-12, starts)
    # rows 0 and 3 share their first ring, then row 3 alone takes its midpoints
    assert rings == [([0, 3], 64), ([3], 64), ([1], 256), ([2], 1024)]
    assert got[3] is None
    for i, (f, start) in enumerate(zip(fs, starts)):
        alone = circle_primitives(lambda idx, z: f(z), 0.1j, 1.0, 16, 1e-12, [start])[0]
        if alone is None:
            assert i == 3
            continue
        assert np.array_equal(got[i][0], alone[0]) and got[i][1:] == alone[1:]


def test_winding_examples():
    circ = Contour.circle(0, 1.0)
    assert winding_number(P([0, 1]), circ) == 1
    assert winding_number(P([0, 0, 3]), circ) == 2  # derivative of z^3
    assert winding_number(R(P([-1]), P([0, 0, 1])), circ) == -2  # -1/z^2
    assert winding_number(R(P([-1]), P([0, 0, 1])).factor(), circ) == -2
    assert winding_number(P([0, 1]), Contour.circle(0, 1.0, turns=2)) == 2
    assert winding_number(P([0, 1]), Contour.circle(0, 1.0, turns=-1)) == -1
    # z^5 turns 5/8 of a turn per chord of an 8-sample circle
    assert winding_number(P([0, 0, 0, 0, 0, 1]), Contour.circle(0, 1.0, samples=8)) == 5


def test_winding_zero_on_contour():
    with pytest.raises(ZeroOnContourError):
        winding_number(P.from_roots([1.0]), Contour.circle(0, 1.0, samples=64))


def test_winding_clearance_is_two_millionths_of_the_radius():
    # windings have no clearance band: zeros 2.5e-6 and 1.5e-6 outside the
    # vertex at 1 of the 256-gon, and 1.5e-6 or 1e-13 inside it, get the
    # polygon's own winding, from certified arcs
    circ = Contour.circle(0, 1.0)
    for gap, winding in ((2.5e-6, 0), (1.5e-6, 0), (-1.5e-6, 1), (1e-13, 0), (-1e-13, 1)):
        assert winding_number(P.from_roots([1 + gap]), circ) == winding


def test_rational_winding_refuses_near_zero_or_pole():
    # a zero 1e-9 outside the vertex at 1 is wound; a pole on the vertex at
    # i and the zero map are refused (item 3's cluster: see the probe test)
    circ = Contour.circle(0, 1.0)
    assert winding_number(R(P.from_roots([1.0 + 1e-9])), circ) == 0
    with pytest.raises(PathTooCloseError):
        winding_number(R(P([1.0]), P.from_roots([1j])), circ)
    with pytest.raises(ZeroOnContourError, match="zero map"):
        winding_number(R(P([])), circ)


def test_winding_needs_closed():
    with pytest.raises(InputError):
        winding_number(P([0, 1]), Contour.polyline([1, 2]))


def test_winding_resampling_invariance():
    f = R(P.from_roots([0.2 + 0.1j, -0.4]), P.from_roots([1.9]))
    ws = {
        winding_number(f, Contour.circle(0, 1.0, samples=n))
        for n in (64, 256, 777)
    }
    assert ws == {2}


def test_winding_radial_perturbation_invariance(rng):
    f = R(P.from_roots([0.3, -0.2j]), P.from_roots([2.5]))
    base = winding_number(f, Contour.circle(0, 1.0))
    th = np.linspace(0, 2 * math.pi, 257)
    r = 1.0 + 0.08 * np.sin(3 * th) + 0.05 * np.cos(5 * th)
    wobble = Contour(tuple(r * np.exp(1j * th)), closed=False)
    wobble = Contour(tuple(list(r[:-1] * np.exp(1j * th[:-1])) + [r[0]]), closed=True)
    assert winding_number(f, wobble) == base


def test_winding_multiplicativity(rng):
    circ = Contour.circle(0, 1.0)
    for _ in range(20):
        inner = [0.5 * np.exp(2j * math.pi * rng.random()) for _ in range(int(rng.integers(0, 3)))]
        outer = [2.2 * np.exp(2j * math.pi * rng.random()) for _ in range(int(rng.integers(1, 3)))]
        f = R(P.from_roots(inner) if inner else P([1.0]), P.from_roots(outer))
        g = R(P.from_roots(outer), P.from_roots(inner) if inner else P([1.0]))
        assert winding_number(f * g, circ) == winding_number(f, circ) + winding_number(g, circ)


def test_argument_principle_examples():
    assert argument_principle_count(R(P([0, 0, 0, 1])), UNIT) == 3
    assert argument_principle_count(R(P([1]), P.from_roots([0.3])), UNIT) == -1
    assert argument_principle_count(R(P([1, 0, 0, 0, 0.5])), Disc(0, 2.0)) == 4


def test_count_evaluates_each_polynomial_once_per_rule(monkeypatch):
    # the count evaluates no polynomial and samples no ring: one Taylor
    # matrix block, numerator and denominator together, gives every arc end
    F = R(P.from_roots([0.5, 0.99]), P.from_roots([-0.3])).factor()
    calls = {"poly": 0, "rings": 0, "taylor": []}
    call, taylor = ComplexPolynomial.__call__, contours._taylor_rows

    def counted_call(self, z):
        calls["poly"] += 1
        return call(self, z)

    def counted_rings(*args):
        calls["rings"] += 1
        return iter(())

    def counted_taylor(cs):
        calls["taylor"].append(cs.shape)
        return taylor(cs)

    monkeypatch.setattr(ComplexPolynomial, "__call__", counted_call)
    monkeypatch.setattr(contours, "_rings", counted_rings)
    monkeypatch.setattr(contours, "_taylor_rows", counted_taylor)
    assert argument_principle_count(F, UNIT) == 1
    assert calls["poly"] == calls["rings"] == 0 and calls["taylor"] == [(2, 3)]


def test_argument_principle_clearance():
    # no clearance: a zero 1e-9 off the circle is counted on its side, and a
    # zero on it, where |P| is within its rounding bound, is refused
    assert argument_principle_count(R(P.from_roots([1.0 + 1e-9])), UNIT) == 0
    assert argument_principle_count(R(P.from_roots([1.0 - 1e-9])), UNIT) == 1
    with pytest.raises(QuadratureBudgetError):
        argument_principle_count(R(P.from_roots([1.0])), UNIT)


def test_argument_principle_refuses_unresolved_pole():
    # poles 1e-5 outside and inside the circle and a triple pole 0.004 out
    # are counted; a pole on the circle is refused
    assert argument_principle_count(R(P([1]), P.from_roots([1 + 1e-5])), UNIT) == 0
    assert argument_principle_count(R(P([1]), P.from_roots([1 - 1e-5])), UNIT) == -1
    assert argument_principle_count(R(P([1]), P.from_roots([1.004j] * 3)), UNIT) == 0
    with pytest.raises(QuadratureBudgetError):
        argument_principle_count(R(P([1]), P.from_roots([1j])), UNIT)


def test_argument_principle_refuses_an_unreachable_pole_after_one_rule(monkeypatch):
    # a pole on the circle at an end of a first-level arc is refused there:
    # no arc is halved, so no midpoint is expanded, whatever the budget
    vander, halved = np.vander, []

    def recorded(*args, **kwargs):
        halved.append(args[0].size)
        return vander(*args, **kwargs)

    monkeypatch.setattr(contours.np, "vander", recorded)
    with pytest.raises(QuadratureBudgetError):
        argument_principle_count(R(P([1]), P.from_roots([1.0])), UNIT)
    assert sum(halved) == 0
    # one zero 1e-4 off the circle is certified after a few halvings
    assert argument_principle_count(R(P.from_roots([1.0 + 1e-4])), UNIT) == 0
    assert 0 < sum(halved) < 100


@pytest.mark.parametrize("degree, radius", [(60, 1e6), (200, 40.0)])
def test_a_count_whose_factors_overflow_is_refused_as_out_of_double_range(degree, radius):
    # no zero or pole is near the circle, but |z|^degree passes 1.8e308
    # there, so the rounding bound of the count leaves double range
    f = R(P([0] * degree + [1]))
    with pytest.raises(NumericalError, match="double range"):
        argument_principle_count(f, Disc(0, radius))
    assert argument_principle_count(f, Disc(0, 2.0)) == degree


def test_a_count_block_gives_each_row_its_one_row_outcome():
    # on |z| = 1e6, in one block: an ordinary row, zeros 1 out, 10 in and 30
    # out, z^60, whose coefficients leave double range there, a zero on the
    # circle, the zero map, 1 + 1e-300 z^60, whose rounding bound is finite
    # but whose Taylor matrix is not, and z^1030, whose binomials leave double
    # range.  Zero padding lets no row's overflow reach another: each row is
    # its one-row call
    disc = Disc(0, 1e6)
    maps = [R(P.from_roots([1.0, 2.0]), P.from_roots([3e5])).factor(), R(P.from_roots([1e6 + 1.0])),
            R(P([0] * 60 + [1])), R(P.from_roots([1e6 - 10.0])), R(P.from_roots([1e6 + 30.0])),
            R(P.from_roots([1e6])), R(P([])), R(P([1] + [0] * 59 + [1e-300], coeff_tol=0.0)),
            R(P([0] * 1030 + [1]))]
    got = contours._counts(maps, [disc] * len(maps))
    assert got[:2] + got[3:5] == [1, 0, 1, 0]
    assert [type(got[i]) for i in (2, 5, 6, 7, 8)] == [
        NumericalError, QuadratureBudgetError, QuadratureBudgetError, NumericalError, NumericalError]
    for f, row in zip(maps, got):
        try:
            alone = argument_principle_count(f, disc)
        except MeroimmError as exc:
            assert type(exc) is type(row) and str(exc) == str(row)
        else:
            assert alone == row


def test_a_count_block_across_circles_gives_each_row_its_one_row_outcome():
    # one block, each map on its own disc: shifted and scaled circles, one of
    # radius 1e6 on which z^60 leaves double range, the zero map, and a zero
    # 1e-9 outside a circle.  No row reads another's disc: each row is its
    # one-row call, and the counts are those of the constructed zeros and poles
    cases = [
        (R(P.from_roots([1.0, 2.0]), P.from_roots([3e5])), Disc(0, 1e6), 1),
        (R(P([0] * 60 + [1])), Disc(0, 1e6), NumericalError),
        (R(P([0] * 60 + [1])), Disc(0, 1.0), 60),
        (R(P.from_roots([2 + 1j, 2.5 + 1j]), P.from_roots([2.0 + 1.2j])), Disc(2 + 1j, 0.7), 1),
        (R(P([])), Disc(-3.0, 0.1), QuadratureBudgetError),
        (R(P.from_roots([1e-3 + 1e-9 + 5.0, 5.0])), Disc(5.0, 1e-3), 1),
        (R(P([1]), P.from_roots([0.5j, -0.5j, 40.0])), Disc(40.0, 1e-2), -1),
        (R(P.from_roots([0.1, 0.2, 0.3])).factor(), Disc(0, 0.25), 2),
    ]
    got = contours._counts([f for f, _, _ in cases], [d for _, d, _ in cases])
    for (f, disc, want), row in zip(cases, got):
        if isinstance(want, type):
            assert type(row) is want
        else:
            assert row == want
        try:
            alone = argument_principle_count(f, disc)
        except MeroimmError as exc:
            assert type(exc) is type(row) and str(exc) == str(row)
        else:
            assert alone == row


def test_count_memory_grows_with_the_square_of_the_degree():
    # z^256 certifies only on arcs shorter than ln 2 / 256 radians, about 2,300
    # of them: each keeps its Taylor row, but no arc copies a Taylor matrix
    tracemalloc.start()
    try:
        assert argument_principle_count(R(P([0] * 256 + [1])), UNIT) == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_a_degree_whose_binomials_leave_double_range_is_refused():
    d = poly._BINOMIAL_DEGREE
    assert math.isfinite(float(math.comb(d, d // 2))) and math.comb(d + 1, (d + 1) // 2) > sys.float_info.max
    with pytest.raises(NumericalError, match="double range"):
        argument_principle_count(R(P([0] * (d + 1) + [1])), UNIT)


def test_count_reads_no_roots(monkeypatch):
    # the count reads only num and den: with the root solver patched to
    # raise, a RationalMap and a block still count
    from meroimm import rational

    def refuse(p):
        raise AssertionError("the count solved a polynomial")

    monkeypatch.setattr(poly, "roots", refuse)
    monkeypatch.setattr(rational, "roots", refuse)
    f = R(P.from_roots([0.5, 1.5j, 1 - 1e-6]), P.from_roots([-0.2, 3.0]))
    assert argument_principle_count(f, UNIT) == 1
    assert contours._counts([f, R(P.from_roots([0.1, 0.2]))], [Disc(0, 2.0)] * 2) == [2, 2]


def test_count_of_a_triple_root_near_a_double_one():
    # the probe of a merged root cluster: (z - a)^2 (z - b)^3, a = 1 - 2^-7,
    # b = 1.001.  The count reads no root, so it counts a alone inside; on
    # the unit circle |P| is within its rounding bound, which is refused
    a, b = 1 - 2.0 ** -7, 1.001
    f = R(P.from_roots([a, a, b, b, b]))
    for radius, inside in ((0.995, 2), (0.998, 2), (0.999, 2), (1.005, 5)):
        assert argument_principle_count(f, Disc(0, radius)) == inside
    with pytest.raises(QuadratureBudgetError):
        argument_principle_count(f, Disc(0, 1.0))


@pytest.mark.parametrize("gap", [1e-6, 1e-5, 2.5e-5, 1e-4, 2e-4])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_count_answers_a_zero_near_the_circle(gap, side):
    # f' = (z - z0)(z + 3), z0 = (1 - gap) e^{i pi/256}: counted on its side,
    # where a count that stopped at its distance to the roots refused
    # |gap| <= 2.5e-5
    z0 = (1 - side * gap) * cmath.exp(1j * math.pi / 256)
    assert argument_principle_count(R(P.from_roots([z0, -3])), UNIT) == (side > 0)


_near_circle = st.tuples(
    st.floats(1e-5, 0.3),  # distance to the circle, in radii
    st.booleans(),  # inside
    st.floats(0.0, 2 * math.pi),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    center=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    radius=st.floats(0.3, 4.0),
    zeros=st.lists(_near_circle, min_size=1, max_size=4),
    poles=st.lists(_near_circle, max_size=2),
    lead=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_counts_near_the_circle_match_the_constructed_zeros_and_poles(center, radius, zeros, poles, lead):
    # 1-4 zeros and 0-2 poles, 1e-5 to 0.3 radii from the circle of a shifted
    # and scaled disc: the count is the constructed one, or a typed refusal
    def placed(points):
        return [center + radius * (1 - gap if inside else 1 + gap) * cmath.exp(1j * angle)
                for gap, inside, angle in points]

    disc = Disc(center, radius)
    f = R(P.from_roots(placed(zeros), leading=lead), P.from_roots(placed(poles)))
    try:
        got = argument_principle_count(f, disc)
    except MeroimmError:
        pass
    else:
        assert got == sum(inside for _, inside, _ in zeros) - sum(inside for _, inside, _ in poles)
    with pytest.raises(QuadratureBudgetError):
        argument_principle_count(R(P([]), f.den), disc)


def test_argument_principle_near_contour_sound(rng):
    # zeros and poles of order <= 3 placed 1e-3 to 1e-2 inside or outside
    # the unit circle, plus far ones: each count matches the numpy.roots
    # oracle or refuses with a typed error, never a wrong integer
    decided = 0
    for _ in range(60):
        k = int(rng.integers(1, 4))
        gaps = rng.uniform(1e-3, 1e-2, k) * rng.choice([-1.0, 1.0], k)
        pts = list((1.0 + gaps) * np.exp(2j * math.pi * rng.random(k)))
        far = rng.choice([0.5, 1.6], 2)
        pts += list(far * np.exp(2j * math.pi * rng.random(2)))
        orders = rng.integers(1, 4, len(pts))
        top = rng.random(len(pts)) < 0.5
        nr = [p for p, m, t in zip(pts, orders, top) if t for _ in range(m)]
        dr = [p for p, m, t in zip(pts, orders, top) if not t for _ in range(m)]
        lead = complex(rng.normal(), rng.normal())
        f = R(P.from_roots(nr, leading=lead), P.from_roots(dr))
        expected = 0
        for poly, sign in ((f.num, 1), (f.den, -1)):
            if poly.degree >= 1:
                found = np.roots(np.array(poly.coeffs[::-1]))
                expected += sign * int(np.sum(np.abs(found) < 1.0))
        try:
            got = argument_principle_count(f, UNIT)
        except MeroimmError:
            continue
        assert got == expected
        decided += 1
    assert decided >= 55


_placed = st.tuples(
    st.one_of(st.floats(0.0, 0.95), st.floats(1.05, 2.5)),  # |z - center| / radius
    st.floats(0.0, 2 * math.pi),
    st.integers(1, 2),  # order
    st.booleans(),  # zero or pole
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    center=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    radius=st.floats(0.3, 4.0),
    points=st.lists(_placed, min_size=1, max_size=4),
    lead=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_count_on_scaled_discs_matches_numpy_roots(center, radius, points, lead):
    # zeros and poles at least 0.05 radii from the circle of an off-centre
    # disc of any radius: the count is the numpy.roots count in the disc
    placed = [(center + radius * rho * cmath.exp(1j * angle), m, zero) for rho, angle, m, zero in points]
    nr = [p for p, m, zero in placed if zero for _ in range(m)]
    dr = [p for p, m, zero in placed if not zero for _ in range(m)]
    f = R(P.from_roots(nr, leading=lead), P.from_roots(dr))
    expected = 0
    for poly, sign in ((f.num, 1), (f.den, -1)):
        if poly.degree >= 1:
            found = np.roots(np.array(poly.coeffs[::-1]))
            expected += sign * int(np.sum(np.abs(found - center) < radius))
    assert argument_principle_count(f, Disc(center, radius)) == expected


def _mp_count_inside(poly: ComplexPolynomial) -> int:
    """Roots of poly in the open unit disc, by mpmath.polyroots.

    Durand-Kerner runs at 60 digits and stops at steps below 1e-15, ample
    for roots 1e-3 or more from the circle.  An exact m-fold root resolves
    only to 1/m of the working digits, so on NoConvergence the extra
    precision doubles.
    """
    if poly.degree < 1:
        return 0
    coeffs = [mpmath.mpc(c.real, c.imag) for c in reversed(poly.coeffs)]
    for extraprec in (150, 300, 600):
        try:
            with mpmath.workdps(15):
                found = mpmath.polyroots(coeffs, maxsteps=600, extraprec=extraprec)
        except mpmath.NoConvergence:
            continue
        return sum(1 for r in found if abs(r) < 1)
    raise AssertionError("mpmath.polyroots did not converge")


_near = st.tuples(
    st.floats(1e-3, 1e-2),  # distance to the unit circle
    st.sampled_from([-1.0, 1.0]),  # inside or outside
    st.floats(0.0, 2 * math.pi),
    st.integers(1, 3),  # order
    st.booleans(),  # zero or pole
)
_far = st.tuples(
    st.sampled_from([0.5, 1.6]),
    st.floats(0.0, 2 * math.pi),
    st.integers(1, 3),
    st.booleans(),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    near=st.lists(_near, min_size=1, max_size=3),
    far=st.lists(_far, max_size=2),
    lead=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_counts_near_contour_match_mpmath_or_refuse(near, far, lead):
    # zeros and poles of order <= 3 placed 1e-3 to 1e-2 from the unit circle:
    # each count equals the 60-digit mpmath.polyroots count or refuses with a
    # typed error, never a wrong integer
    circ = Contour.circle(0, 1.0)
    points = [
        ((1.0 + sign * gap) * np.exp(1j * angle), order, zero)
        for gap, sign, angle, order, zero in near
    ] + [(radius * np.exp(1j * angle), order, zero) for radius, angle, order, zero in far]
    nr = [p for p, m, zero in points if zero for _ in range(m)]
    dr = [p for p, m, zero in points if not zero for _ in range(m)]
    f = R(P.from_roots(nr, leading=lead), P.from_roots(dr))
    expected = _mp_count_inside(f.num) - _mp_count_inside(f.den)
    for count, boundary in ((winding_number, circ), (argument_principle_count, UNIT)):
        try:
            got = count(f, boundary)
        except MeroimmError:
            continue
        assert got == expected
    # the same map known only by its values has no certified winding
    with pytest.raises(InputError):
        winding_number(lambda z: f(z), circ)


def test_winding_argument_principle_oracle_exhaustive():
    # products of <= 4 linear factors, each root inside or outside the unit
    # circle and placed in numerator or denominator; expected count comes
    # from the construction itself
    circ = Contour.circle(0, 1.0)
    pool = [0.3 + 0.2j, -0.5 + 0.1j, 0.45j, 1.6 + 0j, 1.2 + 1.1j, -1.8 + 0.4j]
    for k in range(1, 5):
        for combo in itertools.combinations(range(len(pool)), k):
            for signs in itertools.product([1, -1], repeat=k):
                nr = [pool[i] for i, s in zip(combo, signs) if s > 0]
                dr = [pool[i] for i, s in zip(combo, signs) if s < 0]
                f = R(
                    P.from_roots(nr) if nr else P([1.0]),
                    P.from_roots(dr) if dr else P([1.0]),
                )
                expected = sum(1 for r in nr if abs(r) < 1) - sum(
                    1 for r in dr if abs(r) < 1
                )
                assert winding_number(f, circ) == expected
                assert argument_principle_count(f, UNIT) == expected


def _mp_roots(poly: ComplexPolynomial) -> list:
    """The roots of the given double coefficients: numpy.roots, then Newton
    steps in mpmath at 50 digits until a step is below 1e-40.  The callers'
    roots are simple, so each start settles on its own root (checked)."""
    if poly.degree < 1:
        return []
    desc = list(reversed(poly.coeffs))
    cs = [mpmath.mpc(c.real, c.imag) for c in desc]
    dcs = [c * (len(cs) - 1 - k) for k, c in enumerate(cs[:-1])]
    out = []
    for z in np.roots(desc):
        w = mpmath.mpc(z.real, z.imag)
        for _ in range(50):
            step = mpmath.polyval(cs, w) / mpmath.polyval(dcs, w)
            w -= step
            if abs(step) < 1e-40 * (1 + abs(w)):
                break
        else:
            raise AssertionError("Newton did not settle")
        out.append(w)
    assert all(abs(a - b) > 1e-30 for a, b in itertools.combinations(out, 2))
    return out


def _mp_polygon_winding(f: RationalMap, zs) -> int:
    """Independent oracle for the winding of f along the closed polygon zs:
    the turning of its chords around each zero minus each pole, in mpmath."""
    with mpmath.workdps(50):
        vs = [mpmath.mpc(z.real, z.imag) for z in zs]
        total = 0
        for poly, sign in ((f.num, 1), (f.den, -1)):
            for w in _mp_roots(poly):
                turn = sum(mpmath.arg((b - w) / (a - w)) for a, b in zip(vs, vs[1:]))
                k = mpmath.nint(turn / (2 * mpmath.pi))
                assert abs(turn - 2 * mpmath.pi * k) < 1e-30
                total += sign * int(k)
        return total


def _random_polygon(rng, kind, n, center, radius):
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    if kind == "convex":
        zs = radius * np.exp(1j * th)
    elif kind == "star":
        zs = radius * rng.uniform(0.3, 1.0, n) * np.exp(1j * th)
    else:  # tangled: random vertices in random order, so that the chords cross
        zs = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    zs = center + (zs if rng.random() < 0.5 else zs[::-1])
    return Contour.polyline(zs, closed=True)


def _root_near(rng, zs, gap):
    """A point gap from the polygon zs, off a chord's interior or a vertex."""
    k = int(rng.integers(len(zs) - 1))
    if rng.random() < 0.5:
        d = zs[k + 1] - zs[k]
        return zs[k] + rng.uniform(0.05, 0.95) * d + rng.choice([-1, 1]) * gap * 1j * d / abs(d)
    return zs[k] + gap * np.exp(2j * math.pi * rng.random())


def test_polyline_windings_match_the_oracle_or_refuse():
    # random polygons (convex, star-shaped and tangled, 4 to 777 vertices,
    # centres up to 1e3) and maps of degree <= 6 with zeros and poles 1e-12 to
    # 1e-3 from a chord or a vertex: each winding equals the mpmath oracle's
    # or is a typed refusal
    rng = np.random.default_rng(34)
    answered = refused = 0
    for case in range(90):
        kind = ("convex", "star", "tangled")[case % 3]
        n = int(rng.choice([4, 5, 9, 33, 128, 777], p=[0.2, 0.2, 0.2, 0.2, 0.15, 0.05]))
        center = complex(rng.choice([0.0, 1.0, 10.0, 1e3]) * np.exp(2j * math.pi * rng.random()))
        radius = float(rng.choice([0.01, 1.0, 3.0]))
        contour = _random_polygon(rng, kind, n, center, radius)
        zs = contour.points

        def roots_of(degree):
            near = [_root_near(rng, zs, 10 ** rng.uniform(-12, -3))
                    for _ in range(min(degree, int(rng.integers(0, 3))))]
            far = center + 2 * radius * (rng.uniform(-1, 1, degree - len(near))
                                         + 1j * rng.uniform(-1, 1, degree - len(near)))
            return near + list(far)

        dn, dd = (int(x) for x in rng.integers(0, 7, 2))
        lead = complex(rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random()))
        f = R(P.from_roots(roots_of(dn), leading=lead), P.from_roots(roots_of(dd)))
        try:
            got = winding_number(f, contour)
        except (ZeroOnContourError, PathTooCloseError, NumericalError):
            refused += 1
            continue
        assert got == _mp_polygon_winding(f, zs), (case, kind, n, center, radius)
        answered += 1
    assert answered >= 55, (answered, refused)


def test_polyline_winding_of_the_cluster_probe():
    # item 3's cluster (z - a)^2 (z - b)^3, a = 1 - 2^-7, b = 1.001, which the
    # root solver merges into one 5-fold root: the arcs wind it as 2 inside
    # |z| = b and 5 outside, and refuse the 256-gon of |z| = 1, where |P| ~
    # 1e-13 near b sits within the arcs' rounding bound
    a, b = 1 - 2.0**-7, 1.001
    f = R(P.from_roots([a, a, b, b, b]))
    got = []
    for r in (0.995, 0.998, 0.999, 1.0, 1.005):
        try:
            got.append(winding_number(f, Contour.circle(0, r)))
        except ZeroOnContourError:
            got.append(None)
    assert got == [2, 2, 2, None, 5]


def test_polyline_winding_far_from_the_origin():
    # the polynomials are shifted to the contour's centre, so that a zero
    # 1e-8 outside or inside the vertex 1001 of a circle centred at 1000 is
    # wound, and one 1e-9 from the corner of a square there
    circ = Contour.circle(1000, 1.0)
    square = Contour.polyline([999.5 - 0.5j, 1000.5 - 0.5j, 1000.5 + 0.5j, 999.5 + 0.5j],
                              closed=True)
    assert winding_number(P.from_roots([1001 + 1e-8]), circ) == 0
    assert winding_number(P.from_roots([1001 - 1e-8]), circ) == 1
    assert winding_number(R(P([1]), P.from_roots([1001 - 1e-8])), circ) == -1
    assert winding_number(P.from_roots([1000.5 + 0.5j + 1e-9]), square) == 0
    assert winding_number(P.from_roots([1000.5 + 0.5j - 1e-9 - 1e-9j]), square) == 1


def test_windings_solve_no_root(monkeypatch):
    # winding_number and chart_transition_winding read the coefficients alone
    from meroimm import chart_transition_winding, rational

    def refuse(p):
        raise AssertionError("a winding solved a root")

    F = R(P.from_roots([0.5, 2.0]), P.from_roots([0.1j, 0.1j])).factor()
    monkeypatch.setattr(poly, "roots", refuse)
    monkeypatch.setattr(rational, "roots", refuse)
    circ = Contour.circle(0, 1.0)
    assert winding_number(F, circ) == winding_number(F.map, circ) == -1
    assert winding_number(P.from_roots([0.3, 0.3, 3]), circ) == 2
    assert chart_transition_winding(circ) == -2


def test_a_tangent_disc_is_not_contained_at_a_large_radius():
    # 1e6 - 1e-12 rounds to 1e6: an absolute clearance would let it in
    assert not Disc(0, 1e6).contains_disc(Disc(1, 1e6 - 1))
    assert Disc(0, 1e6).contains_disc(Disc(1, 1e6 - 2))
    assert Disc(0, 2.0).contains_disc(Disc(0, 1.0))


def test_disc_geometry():
    d = Disc(1 + 0j, 2.0)
    assert d.contains(2.5)
    assert not d.contains(3.5)
    assert d.boundary_distance(1 + 0j) == pytest.approx(2.0)
    assert Disc(0, 3.0).contains_disc(Disc(1 + 0j, 1.5))
    assert not Disc(0, 3.0).contains_disc(d)  # tangent: no clearance to the boundary
    for center, radius in ((0, 0.0), (0, math.nan), (0, math.inf), (math.nan, 1.0),
                           (complex(0, math.inf), 1.0)):
        with pytest.raises(InputError):
            Disc(center, radius)
