import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cauchy_residue, hex_parts, random_rational, reference_wronskian,
                     separated_points)
from meroimm import (
    INF,
    ComplexPolynomial,
    Contour,
    Disc,
    InputError,
    NumericalError,
    PoleSet,
    RationalMap,
    UnreducedFractionError,
    residue,
    roots,
    verify_immersion,
    winding_number,
)
from meroimm import rational
from meroimm.config import ROOT_TOL
from meroimm.rational import _APART, _apart, _first_above_noise, wronskian

P = ComplexPolynomial


def test_pole_set_validation():
    with pytest.raises(InputError):
        PoleSet([(0.0, 1), (1e-9, 1)])
    with pytest.raises(InputError):
        PoleSet([(0.0, 0)])
    for bad in (float("nan"), complex(0, float("nan")), float("inf"), complex(1, float("-inf"))):
        with pytest.raises(InputError, match="finite"):
            PoleSet([(0.5, 1), (bad, 1)])
    ps = PoleSet([(1.0, 2), (-2.0, 1)])
    assert ps.locations == (-2 + 0j, 1 + 0j)
    assert ps.orders == (1, 2)


@pytest.mark.parametrize("order", [1.9, True, np.True_, "2"])
def test_pole_set_refuses_an_order_that_int_would_truncate(order):
    with pytest.raises(InputError, match="integer"):
        PoleSet([(0j, order)])
    assert PoleSet([(0j, 2.0)]).orders == PoleSet([(0j, np.int64(2))]).orders == (2,)


def test_eval_root_and_pole():
    f = RationalMap(P([1]), P.from_roots([0.5]))
    assert f(0.5) is INF
    assert f(1.5) == pytest.approx(1.0)


def test_eval_hand_value():
    # (z+2)/(z^2 (z-1)^2) at 2: 4/(4*1) = 1
    f = RationalMap(P([2, 1]), P.from_roots([0, 0, 1, 1]))
    assert complex(f(2.0)) == pytest.approx(1.0)


def test_eval_unreduced_raises():
    g = RationalMap(P([-1, 0, 1]), P.from_roots([1.0]))  # (z^2-1)/(z-1)
    with pytest.raises(UnreducedFractionError):
        g(1.0)
    # determinate unreduced pole still evaluates to INF
    h = RationalMap(P.from_roots([2.0]), P.from_roots([2.0, 2.0]))
    assert h(2.0) is INF


def test_eval_array():
    f = RationalMap(P([1]), P.from_roots([0.5]))
    zs = np.array([0.0, 1.0, 2.0], dtype=complex)
    vals = f(zs)
    assert np.allclose(vals, [-2.0, 2.0, 2.0 / 3.0])


def test_reduced_cancels_common_root():
    g = RationalMap(P([-1, 0, 1]), P.from_roots([1.0])).reduced()
    assert g.den.degree == 0
    assert abs(g(1.0) - 2.0) < 1e-12


def test_derivative_simple_pole():
    a = 0.7 + 0.2j
    f = RationalMap(P([1]), P.from_roots([a]))
    df = f.derivative()
    # -1/(z-a)^2
    assert df.num.degree == 0
    assert df.den.degree == 2
    for z in [0.0, 1.0 + 1j]:
        assert complex(df(z)) == pytest.approx(-1.0 / (z - a) ** 2)


def test_derivative_matches_finite_differences(rng):
    for _ in range(10):
        f, poles, _ = random_rational(rng)
        df = f.derivative()
        z = 2.5 + 0.3j  # outside the pole box
        h = 1e-6
        fd = (complex(f(z + h)) - complex(f(z - h))) / (2 * h)
        assert complex(df(z)) == pytest.approx(fd, rel=1e-5)


def test_polynomial_derivative_path():
    f = RationalMap(P([0, 1, 0, 0, 0, 0.1]))
    assert f.derivative().num.coeffs == (1 + 0j, 0j, 0j, 0j, 0.5 + 0j)


def test_residue_examples():
    a = 0.7 - 0.4j
    f = RationalMap(P([1]), P.from_roots([a]))
    assert residue(f, a) == pytest.approx(1.0)
    g = RationalMap(P([-1]), P.from_roots([a, a]))
    assert abs(residue(g, a)) < 1e-14
    # Laurent oracle: (z+2)(1-z)^{-2} = 2 + 5z + ... so c_{-1} at 0 is 5
    h = RationalMap(P([2, 1]), P.from_roots([0, 0, 1, 1]))
    assert residue(h, 0.0) == pytest.approx(5.0)
    assert residue(h, 5.0) == 0j  # not a pole


def test_residue_matches_cauchy_oracle(rng):
    for _ in range(40):
        f, poles, orders = random_rational(rng)
        for a in poles:
            rad = 0.2
            want = cauchy_residue(f, a, rad)
            assert residue(f, a) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("a", [np.nan, complex(0.5, np.nan), complex("inf")])
def test_residue_refuses_a_nonfinite_point(a):
    # residue(1/(z - 0.5), nan) once returned 1
    with pytest.raises(InputError):
        residue(RationalMap(P([1]), P.from_roots([0.5])), a)


@pytest.mark.parametrize("z", [np.nan, complex(np.nan, 1.0), np.complex128(complex(0.5, np.nan))])
def test_scalar_call_refuses_nan(z):
    # a scalar NaN once evaluated to INF
    with pytest.raises(InputError):
        RationalMap(P([1]), P.from_roots([0.5]))(z)


def test_array_call_gives_nan_for_a_nan_entry():
    # by design: arrays evaluate by plain division, and no entry is checked
    f = RationalMap(P([1]), P.from_roots([0.5]))
    out = f(np.array([0.0, np.nan, complex(0.5, np.nan), 2.0]))
    assert np.isnan(out[1]) and np.isnan(out[2])
    assert out[0] == f(0.0) and out[3] == f(2.0)


_INFINITIES = [complex("inf"), INF, math.inf]


@pytest.mark.parametrize("z", _INFINITIES)
def test_value_at_infinity_below_the_denominator_degree_is_zero(z):
    # 1/(z - 0.5) once gave INF at complex("inf")
    assert RationalMap(P([1]), P.from_roots([0.5]))(z) == 0


@pytest.mark.parametrize("z", _INFINITIES)
def test_value_at_infinity_of_equal_degrees_is_the_leading_ratio(z):
    # (2z + 1)/(4z + 3) once raised UnreducedFractionError at complex("inf")
    assert RationalMap(P([1, 2]), P([3, 4]))(z) == 0.5


@pytest.mark.parametrize("z", _INFINITIES)
def test_value_at_infinity_above_the_denominator_degree_is_inf(z):
    # z^2 once gave nan+nanj at complex("inf"), and INF raised TypeError
    assert RationalMap(P([0, 0, 1]))(z) is INF


@pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.nan), math.inf, complex(0.0, -math.inf)])
def test_raw_coefficients_must_be_finite(bad):
    # RationalMap([nan, 1], [1]) was accepted and failed later in the root solver
    for make in (lambda: P([bad, 1]), lambda: RationalMap([bad, 1], [1]), lambda: RationalMap([1], [1, bad])):
        with pytest.raises(InputError, match="finite"):
            make()
    # arithmetic results are not checked, so hot paths pay nothing
    assert len(P([bad, 1], coeff_tol=0.0).coeffs) == 2


def test_residue_unreduced_raises():
    g = RationalMap(P([-1, 0, 1]), P.from_roots([1.0]))
    with pytest.raises(UnreducedFractionError):
        residue(g, 1.0)


def test_residue_of_derivative_vanishes(rng):
    worst = 0.0
    for _ in range(120):
        f, poles, _ = random_rational(rng)
        df = f.derivative()
        for a in poles:
            worst = max(worst, abs(residue(df, a)))
    assert worst < 1e-10


def test_derivative_pole_order_near_origin():
    # f has a double pole at |a| ~ 0.012; the t^2 Taylor coefficient of the
    # denominator of f' at a is rounding noise far above the constant
    # coefficient's own floor, so a floor shared by all coefficients reads
    # the triple pole of f' as a double pole and the residue as ~1e35
    num = P([
        -0.9134364067749994 + 2.250461835823043j,
        -1.0433874769116838 - 0.32685104844624474j,
        0.7086041579049992 + 0.926524449518922j,
    ])
    den = P([
        3.796429099114831e-07 - 7.653743909670369e-05j,
        -0.008540866813670679 + 0.009073200940829543j,
        0.5184811421494159 - 0.04547935224831748j,
        -1.4235448061962401 + 0.04655653335733145j,
        1.0,
    ])
    a = 0.009003992031337837 - 0.008592615618621569j
    df = RationalMap(num, den).derivative()
    assert _first_above_noise(df.den, a) == 3
    assert _first_above_noise(df.num, a) == 0
    res = residue(df, a)
    assert abs(res) < 1e-12
    assert res == pytest.approx(cauchy_residue(df, a, 0.2), abs=1e-12)


def test_double_pole_closed_form_vs_laurent(rng):
    # residue(h/Theta, a) for Theta with an exact double root at a equals
    # (g h' - g' h)/g^2 at a, where g = Theta/(z-a)^2
    for _ in range(40):
        pts = separated_points(rng, 3, min_sep=0.6)
        a, others = pts[0], pts[1:]
        theta = P.from_roots([a, a] + [b for b in others for _ in range(2)])
        g = P.from_roots([b for b in others for _ in range(2)])
        h = P(rng.normal(size=4) + 1j * rng.normal(size=4))
        f = RationalMap(h, theta)
        closed = (g(a) * h.derivative()(a) - g.derivative()(a) * h(a)) / g(a) ** 2
        assert residue(f, a) == pytest.approx(closed, abs=1e-10)


def test_pole_set_examples():
    f = RationalMap(P([1]), P.from_roots([0.3]))
    assert f.pole_set().entries == ((0.3 + 0j, 1),)
    g = RationalMap(P([1, 2]))
    assert len(g.pole_set()) == 0
    h = RationalMap(P([1]), P.from_roots([1.0, 1.0, -2.0]))
    assert h.pole_set().entries == ((-2 + 0j, 1), (1 + 0j, 2))


def test_rational_arithmetic(rng):
    f = RationalMap(P([1]), P.from_roots([0.5]))
    g = RationalMap(P([0, 1]))
    for z in [0.1, 1.3 - 0.2j]:
        assert complex((f + g)(z)) == pytest.approx(complex(f(z)) + complex(g(z)))
        assert complex((f * g)(z)) == pytest.approx(complex(f(z)) * complex(g(z)))
        assert complex((f - g)(z)) == pytest.approx(complex(f(z)) - complex(g(z)))
        assert complex((2.0 * f)(z)) == pytest.approx(2.0 * complex(f(z)))


def test_zero_denominator_rejected():
    with pytest.raises(InputError):
        RationalMap(P([1]), P([]))


def test_factor_solves_the_numerator_when_it_is_read(monkeypatch):
    # (z^2 - 0.25)/(z - 2): the pole is far from both zeros, so factor solves
    # the denominator alone; the zeros are solved at the first read and kept
    solved = []
    solve = rational.roots
    monkeypatch.setattr(rational, "roots", lambda p: solved.append(p) or solve(p))
    f = RationalMap(P([-0.25, 0, 1]), P([-2, 1]))
    F = f.factor()
    assert solved == [P([-2, 1])]
    zeros = F.zeros
    assert solved == [P([-2, 1]), F.map.num] and zeros == tuple(roots(F.map.num))
    assert [z for z, _ in zeros] == [-0.5, 0.5] and F.zeros is zeros and len(solved) == 2
    # the winding reads the coefficients, not the zeros
    assert winding_number(F, Contour.circle(0, 1.0)) == 2 and len(solved) == 2
    assert f.zero_set() == list(zeros) and len(solved) == 4  # a new factor, solved again


def test_a_common_root_within_the_tolerance_still_cancels():
    # gaps of 0.1, 0.5 and 0.9 ROOT_TOL cancel; den is deflated at its own
    # pole a and num at its own zero b, so the kept pole and zero stay where
    # mpmath puts the roots of the given coefficients
    a = 0.3 - 0.2j
    for gap in (0.1, 0.5, 0.9):
        f = RationalMap(P.from_roots([a + gap * ROOT_TOL * cmath.exp(0.7j), -1.1]),
                        P.from_roots([a, 1.4j], leading=1.5))
        assert not rational._apart(f.num, a)  # the matching branch runs
        F = f.factor()
        with mpmath.workdps(50):
            pole, zero = (min((complex(r) for r in mpmath.polyroots(list(reversed(p.coeffs)))),
                              key=lambda r: abs(r - near)) for p, near in ((f.den, 1.4j), (f.num, -1.1)))
        assert F.map.num.degree == 1 and F.map.den.degree == 1 and len(F.poles) == len(F.zeros) == 1
        assert abs(F.poles.locations[0] - pole) < 1e-13 and abs(F.zeros[0][0] - zero) < 1e-13


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 10])
def test_a_zero_near_a_pole_factors_as_solving_both(monkeypatch, k):
    # a zero k ROOT_TOL from a pole: within _APART the exclusion test must
    # refuse, and either way factor gives what solving and matching both gives
    a = 0.3 - 0.2j
    f = RationalMap(P.from_roots([a + k * ROOT_TOL * cmath.exp(0.7j), -1.1]),
                    P.from_roots([a, 1.4j], leading=1.5))
    F = f.factor()
    if k * ROOT_TOL <= _APART:
        assert not _apart(F.map.num, a)
    monkeypatch.setattr(rational, "_apart", lambda *args: False)
    both = f.factor()
    assert "zeros" in both.__dict__  # solved in the matching step
    assert F == both and F.zeros == both.zeros and F.map.den.degree == 2


def test_apart_is_confirmed_by_mpmath_and_by_the_solver():
    # whenever the exclusion test clears a, the 50-digit roots of the same
    # double coefficients keep more than _APART away from a, and roots()
    # finds none within ROOT_TOL; the points a sit 1e-10 to 1e-5 from a root,
    # some of them double, so that both verdicts occur often
    rng = np.random.default_rng(1733)
    verdicts = []
    with mpmath.workdps(50):
        for i in range(150):
            d = int(rng.integers(1, 7))
            base = [complex(b) for b in rng.normal(size=d) + 1j * rng.normal(size=d)]
            if i % 3 == 0 and d >= 2:
                base[1] = base[0]
            p = P.from_roots(base, leading=complex(rng.normal(), rng.normal()))
            exact = mpmath.polyroots([mpmath.mpc(c) for c in p.coeffs[::-1]],
                                     maxsteps=200, extraprec=200)
            found = roots(p)
            for _ in range(4):
                b = base[int(rng.integers(d))]
                a = b + 10 ** rng.uniform(-10, -5) * cmath.exp(2j * math.pi * rng.uniform())
                clear = _apart(p, a)
                verdicts.append(clear)
                if clear:
                    assert min(abs(w - mpmath.mpc(a)) for w in exact) > _APART
                    assert min(abs(z - a) for z, _ in found) > ROOT_TOL
    assert min(verdicts.count(True), verdicts.count(False)) > 150


@pytest.mark.parametrize("num, den", [(P([1]), P([1e300, 1e-11])), (P([1e300, 1]), P([0, 1e-11]))])
def test_a_monic_scaling_out_of_double_range_is_refused(num, den):
    # dividing by the leading 1e-11 makes 1e300 infinite: refused before any
    # root is solved, for that reason, and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="monic scaling.*double range"):
            RationalMap(num, den).factor()
        with pytest.raises(NumericalError, match="monic scaling.*double range"):
            verify_immersion(RationalMap(num, den), Disc(0, 1.0))


_PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                  st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _map_coefficients(draw):
    """Numerator and denominator coefficients, half of them of equal degree,
    where the leading terms of W cancel; zero and constant numerators too,
    and in about one map in five an infinite or NaN part."""
    def coeffs(n):
        return [complex(*draw(st.tuples(_PART, _PART))) for _ in range(n)]

    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        n, d = coeffs(k), coeffs(k)
    else:
        n, d = coeffs(draw(st.integers(0, 6))), coeffs(draw(st.integers(1, 6)))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(d) - 1))
        d[i] = complex(d[i].real, draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    return n, d


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_map_coefficients())
def test_wronskian_keeps_the_bits_of_the_polynomial_arithmetic(nd):
    n, d = (ComplexPolynomial(c, coeff_tol=0.0) for c in nd)
    if d.is_zero:
        return
    with np.errstate(all="ignore"):
        want = hex_parts(reference_wronskian(n.coeffs, d.coeffs))
        assert hex_parts(wronskian(RationalMap(n, d)).coeffs) == want
        assert hex_parts((n.derivative() * d - n * d.derivative()).coeffs) == want


def test_wronskian_builds_one_polynomial(monkeypatch):
    f = RationalMap(ComplexPolynomial([1, 2, 3]), ComplexPolynomial.from_roots([0.5, -1j]))
    built = []
    init = ComplexPolynomial.__init__
    monkeypatch.setattr(ComplexPolynomial, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    W = wronskian(f)
    assert len(built) == 1 and W.degree == 2


def test_filtered_and_derived_pole_sets_are_the_checked_ones(rng):
    # both keep entries that are already checked; rebuilt from those entries
    # by the checking constructor, each set is unchanged
    for _ in range(40):
        F = random_rational(rng)[0].factor()
        cut = float(rng.uniform(-1.5, 1.5))
        fp = F.derivative(wronskian(F.map))
        assert fp.poles.orders == tuple(m + 1 for m in F.poles.orders)
        for S in (F.poles.filter(lambda a: a.real < cut), fp.poles):
            again = PoleSet(S.entries)
            assert S == again and hex_parts(S.locations) == hex_parts(again.locations)
            assert all(type(a) is complex and type(m) is int for a, m in S.entries)
