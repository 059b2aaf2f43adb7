import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meroimm.poly
from helpers import (hex_parts, reference_derivative, reference_plus, reference_times,
                     reference_trim, same_bits)
from meroimm import ComplexPolynomial, InputError, RationalMap, RootSolveError, roots


def test_zero_polynomial_is_empty():
    assert ComplexPolynomial([]).is_zero
    assert ComplexPolynomial([0.0, 0.0]).is_zero
    assert ComplexPolynomial([]).degree == -1


def test_leading_coefficient_trimming_is_absolute():
    p = ComplexPolynomial([1.0, 1e-15])
    assert p.degree == 0
    # a huge constant term must not swallow a unit leading coefficient
    q = ComplexPolynomial([2.0**40, 0, 1.0])
    assert q.degree == 2


def test_eval_examples():
    p = ComplexPolynomial([1, 0, 1])  # z^2 + 1
    assert abs(p(1j)) < 1e-15
    assert p(2.0) == 5.0 + 0j


def test_eval_vectorized_matches_scalar(rng):
    p = ComplexPolynomial(rng.normal(size=7) + 1j * rng.normal(size=7))
    zs = rng.normal(size=20) + 1j * rng.normal(size=20)
    vec = p(zs)
    for z, v in zip(zs, vec):
        assert abs(p(complex(z)) - v) < 1e-12


def _horner_out_of_place(p, z):
    # reference: the array Horner loop as first written, two temporaries a step
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(p.coeffs):
        out = out * z + c
    return out


def test_eval_array_matches_out_of_place_horner(rng):
    specials = np.array([0.0, -0.0, 1.0, -1.0, 1e300, -1e-300, np.inf, -np.inf, np.nan])
    coeff_sets = [
        rng.normal(size=9) + 1j * rng.normal(size=9),
        [1.0, -0.0, complex(0.0, -0.0), 2.0],
        [complex(-0.0, -0.0), 1.0],
        [3.0 - 1j],
        [],
        [1.0, np.inf, 0.5j, -2.0],
        [np.nan, 1.0, 1e200],
    ]
    zs = [
        rng.normal(size=40) + 1j * rng.normal(size=40),
        np.array([complex(a, b) for a in specials for b in specials]),
        specials,
        rng.normal(size=(3, 4, 5)) * 1e3 - 1j * rng.normal(size=(3, 4, 5)),
        np.array(complex(-0.0, 0.0)),
        np.array([], dtype=complex),
    ]
    for cs in coeff_sets:
        p = ComplexPolynomial(cs, coeff_tol=0.0)
        for z in zs:
            with np.errstate(all="ignore"):
                assert same_bits(p(z), _horner_out_of_place(p, z))


def test_arithmetic_and_calculus():
    p = ComplexPolynomial([0, 0, 0, 1])  # z^3
    assert p.derivative().coeffs == (0j, 0j, 3 + 0j)
    q = ComplexPolynomial([0, 1, 0, 0, 0, 0.1])  # z + 0.1 z^5
    assert q.derivative().coeffs == (1 + 0j, 0j, 0j, 0j, 0.5 + 0j)
    r = p + q
    assert r(0.7) == pytest.approx(p(0.7) + q(0.7))
    s = p * q
    assert s(1.3) == pytest.approx(complex(p(1.3) * q(1.3)))


def test_antiderivative_vanishes_at_base_point():
    p = ComplexPolynomial([1, 2, 3])
    F = p.antiderivative(0.4 + 0.1j)
    assert abs(F(0.4 + 0.1j)) < 1e-14
    assert F.derivative().coeffs == p.coeffs


def test_taylor_shift_round_trip(rng):
    p = ComplexPolynomial(rng.normal(size=6) + 1j * rng.normal(size=6))
    a = 0.7 - 0.2j
    shifted = p.taylor_shift(a)
    for t in [0.1, -0.3 + 0.2j, 1.0]:
        assert shifted(t) == pytest.approx(complex(p(a + t)), abs=1e-12)


def test_taylor_shift_by_zero_matches_the_loop():
    def loop(cs, a):
        cs = list(cs)
        for i in range(len(cs)):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return cs

    inf, nan = float("inf"), float("nan")
    for cs in (
        [1 + 2j, -3 - 0.5j, 0.25 + 1j],
        [complex(-0.0, 1.0), 1 + 1j],
        [0.5 + 0j, complex(2.0, -0.0), 1 + 1j],
        [1 + 1j, complex(inf, 1.0), 1 + 1j],
        [1 + 1j, complex(1.0, nan), 1 + 1j],
    ):
        p = ComplexPolynomial(cs, coeff_tol=0.0)
        for a in (0j, complex(-0.0, -0.0), complex(0.0, -0.0)):
            assert repr(p.taylor_shift(a).coeffs) == repr(tuple(loop(cs, a)))


def test_deflate_inverts_from_roots():
    p = ComplexPolynomial.from_roots([1.0, 2.0, -0.5j])
    q = p.deflate(2.0)
    expect = ComplexPolynomial.from_roots([1.0, -0.5j])
    assert np.allclose(q.coeffs, expect.coeffs)


def test_roots_simple():
    assert roots(ComplexPolynomial([-1, 0, 1])) == [
        ((-1 + 0j), 1),
        ((1 + 0j), 1),
    ]


def test_roots_double():
    [(r, m)] = roots(ComplexPolynomial.from_roots([0.3, 0.3]))
    assert m == 2
    assert abs(r - 0.3) < 1e-10


def test_roots_quartic_modulus():
    # analytic solution of z^4 = -2: four simple roots of modulus 2^(1/4)
    rs = roots(ComplexPolynomial([1, 0, 0, 0, 0.5]))
    assert len(rs) == 4
    for r, m in rs:
        assert m == 1
        assert abs(abs(r) - 2.0 ** 0.25) < 1e-12
        assert abs(r ** 4 + 2.0) < 1e-12


def test_roots_requires_degree():
    with pytest.raises(InputError):
        roots(ComplexPolynomial([1.0]))


def test_roots_expand_round_trip(rng):
    # well-separated roots of modulus <= 10, degree <= 12, recovered to 1e-8
    for _ in range(60):
        n = int(rng.integers(1, 13))
        while True:
            pts = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
            if all(abs(pts[i] - pts[j]) > 0.5 for i in range(n) for j in range(i)):
                break
        found = roots(ComplexPolynomial.from_roots(pts))
        assert len(found) == n
        for r, m in found:
            assert m == 1
            assert min(abs(r - t) for t in pts) < 1e-8


def test_roots_residual_backward_bound(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        p = ComplexPolynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        for r, m in roots(p):
            bound = 64.0 * n * 2.3e-16 * max(p.horner_scale(abs(r)), 1.0)
            newton = abs(p(r)) / max(abs(p.derivative()(r)), 1e-300)
            assert abs(p(r)) <= bound or newton <= 8.0 * 2.3e-16 * (1 + abs(r))


def test_roots_multiplicity_recovery(rng):
    for _ in range(25):
        base = separated(rng, 3)
        mults = [int(m) for m in rng.integers(1, 4, 3)]
        p = ComplexPolynomial.from_roots(
            [b for b, m in zip(base, mults) for _ in range(m)]
        )
        found = roots(p)
        got = sorted((round(r.real, 5), round(r.imag, 5), m) for r, m in found)
        want = sorted((round(b.real, 5), round(b.imag, 5), m) for b, m in zip(base, mults))
        assert got == want


def separated(rng, k):
    while True:
        pts = rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k)
        if all(abs(pts[i] - pts[j]) > 0.8 for i in range(k) for j in range(i)):
            return [complex(p) for p in pts]


def test_roots_nonconvergence_carries_partial(monkeypatch):
    # eigenvalues far from every root: polishing cannot reach the roots
    monkeypatch.setattr(
        meroimm.poly, "_companion_roots", lambda c: np.array([50.0, 60.0, 70.0, 80.0]) + 40j
    )
    p = ComplexPolynomial.from_roots([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(RootSolveError) as exc:
        roots(p)
    assert len(exc.value.partial) >= 1


def test_roots_match_mpmath_cluster_means():
    # The oracle solves the same double-precision coefficients at 50 digits;
    # an m-fold root is compared with the mean of its m-point cluster there.
    # The bound is 2e-15 (1 + |a|), widened to 2e-15 kappa for roots whose
    # condition number kappa = sum |q_k| |a|^k / |q'(a)| is larger, where
    # q = p^(m-1) is the polynomial the polish steps on.  Forward error
    # within a few eps kappa is the most double-precision Horner evaluation
    # allows.
    rng = np.random.default_rng(4711)
    with mpmath.workdps(50):
        for _ in range(20):
            base = separated(rng, 3)
            mults = [int(m) for m in rng.integers(1, 4, 3)]
            p = ComplexPolynomial.from_roots([b for b, m in zip(base, mults) for _ in range(m)])
            cs = [mpmath.mpc(c) for c in p.coeffs]
            exact = mpmath.polyroots(cs[::-1], maxsteps=200, extraprec=200)
            found = roots(p)
            assert len(found) == 3
            for z, m in found:
                assert m == mults[int(np.argmin([abs(z - b) for b in base]))]
                mean = sum(sorted(exact, key=lambda w: abs(w - z))[:m]) / m
                q = [c * mpmath.ff(k + m - 1, m - 1) for k, c in enumerate(cs[m - 1:])]
                scale = sum(abs(c) * abs(mean) ** k for k, c in enumerate(q))
                slope = abs(sum(k * c * mean ** (k - 1) for k, c in enumerate(q) if k))
                bound = 2e-15 * max(1.0 + abs(complex(mean)), float(scale / slope))
                assert abs(z - complex(mean)) <= bound, (z, m, complex(mean))


def test_roots_builds_the_derivative_once(monkeypatch):
    # p' is built once per call and shared by clustering, polish and
    # acceptance; a double root's polish adds only p''
    built = []
    slope = meroimm.poly._slope
    monkeypatch.setattr(meroimm.poly, "_slope", lambda cs: built.append(len(cs) - 1) or slope(cs))
    for given, want in (([0.5, -1j, 2.0, 3 + 1j], [4]), ([0.5, 0.5, -1j], [3, 2])):
        built.clear()
        roots(ComplexPolynomial.from_roots(given))
        assert built == want


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@st.composite
def _coefficients(draw, finite=False):
    """A maker of fresh copies of one coefficient sequence: a list, tuple or
    generator of complex, or a numpy array of one of five dtypes."""
    kind = draw(st.sampled_from(
        ["list", "tuple", "generator", "complex128", "float64", "int64", "bool", "complex64"]))
    if kind == "int64":
        vals = draw(st.lists(st.one_of(st.just(0), st.integers(-2**63, 2**63 - 1)), max_size=7))
        return lambda: np.array(vals, dtype=np.int64)
    if kind == "bool":
        vals = draw(st.lists(st.booleans(), max_size=7))
        return lambda: np.array(vals, dtype=bool)
    special = _SPECIAL.filter(math.isfinite) if finite else _SPECIAL
    part = st.one_of(special, st.floats(allow_nan=not finite, allow_infinity=not finite,
                                        width=32 if kind == "complex64" else 64))
    cs = [complex(a, b) for a, b in draw(st.lists(st.tuples(part, part), max_size=7))]
    return {
        "list": lambda: list(cs),
        "tuple": lambda: tuple(cs),
        "generator": lambda: (c for c in cs),
        "complex128": lambda: np.array(cs, dtype=complex),
        "float64": lambda: np.array([c.real for c in cs]),
        "complex64": lambda: np.array(cs, dtype=np.complex64),
    }[kind]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_coefficients(), st.sampled_from([0.0, 1e-12, 0.5]))
def test_construction_keeps_the_bits_of_the_reference(make, tol):
    # one conversion, a truthiness trim at coeff_tol 0: -0j is zero and NaN
    # is not, as abs(c) <= 0 has them; checked construction still refuses
    try:
        want = hex_parts(reference_trim(make(), tol))
    except InputError:
        with pytest.raises(InputError, match="finite"):
            ComplexPolynomial(make(), coeff_tol=tol)
        return
    assert hex_parts(ComplexPolynomial(make(), coeff_tol=tol).coeffs) == want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_coefficients(), _coefficients())
def test_products_sums_and_derivatives_keep_the_bits_of_the_reference(a, b):
    p, q = ComplexPolynomial(a(), coeff_tol=0.0), ComplexPolynomial(b(), coeff_tol=0.0)
    with np.errstate(all="ignore"):
        assert hex_parts((p * q).coeffs) == hex_parts(reference_times(p.coeffs, q.coeffs))
        assert hex_parts((p + q).coeffs) == hex_parts(reference_plus(p.coeffs, q.coeffs))
        assert hex_parts(p.derivative().coeffs) == hex_parts(reference_derivative(p.coeffs))


@pytest.mark.parametrize("x", [np.int64(2), np.int8(-3), np.uint8(5), np.float32(0.5),
                               np.float64(-1.5), np.complex64(1 - 2j), np.complex128(0.25j)])
def test_a_numpy_number_acts_as_the_equal_python_number(x):
    p, f = ComplexPolynomial([1, complex(-0.0, 2), 3]), RationalMap([1, 2], [3, 1])
    y = x.item()
    for got, want in ((p * x, p * y), (p + x, p + y), (p - x, p - y)):
        assert hex_parts(got.coeffs) == hex_parts(want.coeffs)
    for got, want in ((f * x, f * y), (f + x, f + y), (f - x, f - y)):
        assert hex_parts(got.num.coeffs + got.den.coeffs) == hex_parts(want.num.coeffs + want.den.coeffs)
