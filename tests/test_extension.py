import dataclasses
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import meroimm.extension
import meroimm.immersions
from helpers import (assert_same_quadrature, integrate_pieces_full_floor, mpmath_pieces, same_bits,
                     separated_points)
from meroimm import (
    INF,
    ComplexPolynomial,
    ConstrainedEta,
    DegreeBudgetError,
    Disc,
    InputError,
    InternalConsistencyError,
    NotAnImmersionError,
    NumericalError,
    ParamGrid,
    PathTooCloseError,
    PoleCollisionError,
    PoleSet,
    PreconditionError,
    QuadratureBudgetError,
    RationalMap,
    SampledFamily,
    blend_parametric,
    chordal_distance,
    constrained_eta,
    extend_family,
    extend_immersion,
    extension_boundary_error,
    fix_on_Q,
    is_inf,
    poly_approx_on_disc,
    residue_targets,
    sampled_sup_distance,
)
from meroimm.config import QUAD_TOL, RESIDUE_TOL
from meroimm.contours import circle_samples, integrate_pieces
from meroimm.rational import wronskian

P = ComplexPolynomial
R = RationalMap

D0 = Disc(0, 1.0)
D1 = Disc(0, 2.0)


def ring(radius, n, center=0j):
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


# -- residue targets -----------------------------------------------------------


def test_residue_targets_singleton():
    assert residue_targets(PoleSet([(0.5, 1)])) == [0j]


def test_residue_targets_pair():
    # g = (z-1)^2 at 0: g'(0)/g(0) = -2/1
    c = residue_targets(PoleSet([(0.0, 1), (1.0, 1)]))
    assert c[0] == pytest.approx(-2.0)
    assert c[1] == pytest.approx(2.0)


def test_residue_targets_symmetric_triple():
    # g = (z^2-1)^2 has odd derivative, so the target at 0 vanishes
    c = residue_targets(PoleSet([(0.0, 1), (1.0, 1), (-1.0, 1)]))
    by_loc = dict(zip(PoleSet([(0.0, 1), (1.0, 1), (-1.0, 1)]).locations, c))
    assert abs(by_loc[0j]) < 1e-14


def test_residue_targets_need_simple_poles():
    with pytest.raises(PreconditionError):
        residue_targets(PoleSet([(0.0, 2)]))


# -- constrained log-derivative --------------------------------------------------


def test_non_finite_nodes_are_refused_before_residue_targets():
    nan = float("nan")
    # residue_targets reads its nodes from a PoleSet, which refuses them: it cannot return NaN
    with pytest.raises(InputError, match="finite"):
        residue_targets(PoleSet([(0.5, 1), (nan, 1)]))
    for node in (nan, complex(0, nan), float("inf")):
        with pytest.raises(InputError, match="finite"):
            ConstrainedEta(P([1]), P([0]), (0.5 + 0j, complex(node)))
    assert all(np.isfinite(residue_targets(PoleSet([(0.5, 1), (-0.5j, 1)]))))


def test_constrained_eta_zero_input():
    h = R(P([1]))  # eta = h'/h = 0
    poles = PoleSet([(0.3, 1)])
    out = constrained_eta(h, poles, [0j], 1e-8, disc=D0, center=0j)
    assert out.expanded.is_zero or out.expanded.horner_scale(1.0) < 1e-12


def test_constrained_eta_no_poles_is_taylor():
    # pure truncation branch: h = z-2, eta = 1/(z-2) on the unit disc
    h = R(P.from_roots([2.0]))
    out = constrained_eta(h, PoleSet(()), [], 1e-6, disc=D0, center=0j)
    zs = ring(1.0, 128)
    err = np.max(np.abs(out.expanded(zs) - 1.0 / (zs - 2.0)))
    assert err < 1e-6
    # against the geometric-series oracle for the leading coefficients
    assert out.expanded.coeffs[0] == pytest.approx(-0.5, abs=1e-10)
    assert out.expanded.coeffs[1] == pytest.approx(-0.25, abs=1e-10)


def test_constrained_eta_interpolation_exactness(rng):
    # the structured form hits the targets exactly; the expanded
    # coefficients only to rounding
    for _ in range(10):
        k = int(rng.integers(1, 5))
        locs = separated_points(rng, k, box=1.6, min_sep=0.5)
        poles = PoleSet([(a, 1) for a in locs])
        targets = residue_targets(poles)
        # a harmless h: its zeros, the singularities of eta = h'/h, lie far
        # outside the box
        h = R(P.from_roots([5.0, -5j]))
        # force the in-disc nodes to be consistent: use an eta that already
        # matches the targets there via the lagrange trick is overkill;
        # instead put all nodes outside the disc
        if any(abs(a) <= 1.0 for a in locs):
            continue
        out = constrained_eta(h, poles, targets, 1e-6, disc=D0, center=0j)
        for i, (a, c) in enumerate(zip(out.nodes, targets)):
            assert out.value_at_node(i) == pytest.approx(c, abs=1e-12)
            assert complex(out.expanded(a)) == pytest.approx(c, abs=1e-8)


def test_constrained_eta_rejects_inconsistent_in_disc_node():
    # a node inside the disc whose target eta cannot meet: not an immersion
    h = R(P([1]))  # eta = h'/h identically zero
    poles = PoleSet([(0.2, 1)])
    with pytest.raises(NotAnImmersionError):
        constrained_eta(h, poles, [1.0 + 0j], 1e-6, disc=D0, center=0j)


def test_constrained_eta_singular_on_disc():
    h = R(P.from_roots([0.5]))  # eta = 1/(z-0.5): pole inside the disc
    with pytest.raises(NotAnImmersionError):
        constrained_eta(h, PoleSet(()), [], 1e-6, disc=D0, center=0j)


def test_constrained_eta_degree_budget():
    h = R(P.from_roots([1.05]))  # eta = 1/(z-1.05): hugs the disc
    with pytest.raises(DegreeBudgetError) as exc:
        constrained_eta(h, PoleSet(()), [], 1e-12, disc=D0, center=0j)
    assert exc.value.achieved is not None


# -- single extension -------------------------------------------------------------


def test_extend_identity_exact():
    F = extend_immersion(R(P([0, 1])), D0, D1, 1e-3)
    for z in ring(0.8, 64):
        assert abs(complex(F.evaluate(complex(z))) - z) < 1e-8
    assert F.certificate().valid


def test_extend_simple_pole_exact():
    f = R(P([1]), P.from_roots([0.3]))
    F = extend_immersion(f, D0, D1, 1e-3)
    for z in ring(0.95, 64):
        assert abs(complex(F.evaluate(complex(z))) - complex(f(complex(z)))) < 1e-8
    assert complex(F.evaluate(0.9)) == pytest.approx(1.0 / 0.6, abs=1e-6)
    assert F.evaluate(0.3) is INF
    assert F.evaluate(F.base_point) == F.base_value


def test_extend_quintic_targets_met():
    # derivative of the input vanishes at modulus 2^(1/4) inside the big
    # disc, so no naive extension is an immersion there
    f = R(P([0, 1, 0, 0, 0, 0.1]))
    F = extend_immersion(f, D0, D1, 1e-3)
    cert = F.certificate()
    assert cert.valid
    assert len(cert.poles_inside) == 0
    assert extension_boundary_error(f, F, D0) < 1e-3


def test_extend_pole_case_full_contract():
    f = R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5]))
    F = extend_immersion(f, D0, D1, 1e-3)
    cert = F.certificate()
    assert cert.valid
    assert len(cert.poles_inside) == 1
    a, m = cert.poles_inside.entries[0]
    assert m == 1 and abs(a - 0.3) < 1e-8
    assert max(abs(r) for r in F.residues()) < 1e-9
    assert extension_boundary_error(f, F, D0) < 1e-3


def test_evaluate_path_independence():
    f = R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5]))
    F = extend_immersion(f, D0, D1, 1e-3)
    for z in (0.9, 0.3 + 0.5j, -0.2 + 0.01j, 1.2):
        a = complex(F.evaluate(z, side=1))
        b = complex(F.evaluate(z, side=-1))
        assert abs(a - b) < 1e-8


def test_evaluate_detour_actually_detours():
    # a point straight behind the pole forces a detour on the radial path
    f = R(P([1]), P.from_roots([0.3]))
    F = extend_immersion(f, D0, D1, 1e-3)
    z = 0.6  # the segment 0 -> 0.6 passes through the pole at 0.3
    want = complex(f(z))
    assert abs(complex(F.evaluate(z, side=1)) - want) < 1e-8
    assert abs(complex(F.evaluate(z, side=-1)) - want) < 1e-8


def test_extend_rejects_non_immersion():
    with pytest.raises(NotAnImmersionError):
        extend_immersion(R(P([0, 0, 1])), D0, D1, 1e-3)  # z^2


def test_extend_rejects_double_pole():
    f = R(P([1]), P.from_roots([0.2, 0.2]))
    with pytest.raises((NotAnImmersionError, PreconditionError)):
        extend_immersion(f, D0, D1, 1e-3)


def test_extend_rejects_bad_discs():
    with pytest.raises(PreconditionError):
        extend_immersion(R(P([0, 1])), Disc(0, 2.0), Disc(0, 1.0), 1e-3)


def test_extend_base_point_nudges_off_pole():
    f = R(P([1]), P.from_roots([0.01]))  # pole almost at the disc center
    F = extend_immersion(f, D0, D1, 1e-3)
    assert abs(F.base_point - 0.01) > 0.05
    assert F.achieved_eps == extension_boundary_error(f, F, D0) < 1e-3


def test_extend_derives_xi_once_per_round(monkeypatch):
    # achieved_eps goes on the extension the round built, not on a copy that
    # would take the antiderivative again
    calls = []
    antiderivative = P.antiderivative

    def counting(self, *args):
        calls.append(self)
        return antiderivative(self, *args)

    monkeypatch.setattr(P, "antiderivative", counting)
    f = R(P([1]), P.from_roots([0.3]))
    F = extend_immersion(f, D0, D1, 1e-3)
    assert len(calls) == 1
    assert F.achieved_eps == extension_boundary_error(f, F, D0) < 1e-3


def test_extend_tightens_eta_after_a_boundary_miss(monkeypatch):
    fitted = []
    fit = meroimm.extension._fit_etas
    measure = meroimm.extension.extension_boundary_error
    measure_rows = meroimm.extension._boundary_errors
    misses = [0.5]

    def recording(fits, eps_etas):
        fitted.extend(eps_etas)
        return fit(fits, eps_etas)

    def boundary_errors(fs, vals, d0):
        return [misses.pop()] if misses else measure_rows(fs, vals, d0)

    monkeypatch.setattr(meroimm.extension, "_fit_etas", recording)
    monkeypatch.setattr(meroimm.extension, "_boundary_errors", boundary_errors)
    f = R(P([0, 1, 0, 0, 0, 0.1]))
    F = extend_immersion(f, D0, D1, 1e-3)
    assert fitted == [1e-3 / 128.0, 1e-3 / 128.0 / 32.0]
    assert F.achieved_eps == measure(f, F, D0) < 1e-3


def _extend_class_map(rng, d):
    # the extend class, as numpy coefficients, highest degree first: d = 0 a
    # cubic; d >= 1 (alpha T^d + beta)/(T^d - c), T = (z - p)/(z - q), whose
    # derivative vanishes only at p and q, 1.7 < |p|, |q| < 3, with a pole at
    # 0.15 < |a| < 0.95 and its other poles inside 0.95 or beyond 1.7
    def polar(lo, hi):
        return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())

    while True:
        if d == 0:
            num = np.array([polar(0, 0.1), polar(0, 0.3), polar(0.5, 1.5), polar(0, 1)])
            den = np.array([1.0 + 0j])
        else:
            p, q, a = polar(1.7, 3.0), polar(1.7, 3.0), polar(0.15, 0.95)
            A, B = np.poly([p] * d), np.poly([q] * d)
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            num, den = alpha * A + beta * B, A - ((a - p) / (a - q)) ** d * B
        w = np.polysub(np.polymul(np.polyder(num), den), np.polymul(num, np.polyder(den)))
        poles = np.roots(den)
        if all((abs(x) < 0.95 or abs(x) > 1.7) and abs(abs(x) - 2.0) > 0.05 for x in poles) and all(
                abs(x) > 1.7 for x in np.roots(w)):
            return num, den, w, poles[np.abs(poles) > 2.0]


def test_constrained_eta_meets_eps_eta_on_a_dense_ring_by_polyval(monkeypatch, rng):
    # every eta that extend_immersion fits, against h'/h on a dense offset ring
    # of the small disc's boundary, evaluated by numpy alone: h = f' Theta, with
    # Theta the squared product over the poles in the big disc, is w = num' den
    # - num den' divided by the squared factors of the poles beyond it
    fitted = []
    fit = meroimm.extension._fit_etas

    def recording(fits, eps_etas):
        outs = fit(fits, eps_etas)
        fitted.extend(zip(eps_etas, outs))
        return outs

    monkeypatch.setattr(meroimm.extension, "_fit_etas", recording)
    z = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    for d in (0, 0, 1, 1, 2, 2, 2, 2):
        num, den, w, beyond = _extend_class_map(rng, d)
        start = len(fitted)
        extend_immersion(R(P(num[::-1]), P(den[::-1])), D0, D1, 1e-3)
        eta = np.polyval(np.polyder(w), z) / np.polyval(w, z)
        eta -= sum(2.0 / (z - b) for b in beyond)
        for eps_eta, out in fitted[start:]:
            expanded = np.array(out.expanded.coeffs)[::-1]
            assert np.max(np.abs(np.polyval(expanded, z) - eta)) < eps_eta
    assert len(fitted) >= 8


def test_extend_reports_its_best_miss(monkeypatch):
    misses = [0.2, 0.1, 0.3, 0.4]  # popped from the end, one per round
    monkeypatch.setattr(meroimm.extension, "_boundary_errors",
                        lambda fs, vals, d0: [misses.pop() for _ in fs])
    with pytest.raises(DegreeBudgetError, match="chordal target 0.001 not reached") as exc:
        extend_immersion(R(P([0, 1])), D0, D1, 1e-3)
    assert exc.value.achieved == 0.1 and not misses


def test_extend_refuses_a_residue_above_tolerance(monkeypatch):
    f = R(P([1]), P.from_roots([0.3]))
    Immersion = meroimm.extension.IntegralImmersion
    monkeypatch.setattr(Immersion, "residues", lambda self: [RESIDUE_TOL])
    assert extend_immersion(f, D0, D1, 1e-3).achieved_eps < 1e-3
    monkeypatch.setattr(Immersion, "residues", lambda self: [0j, 2.0 * RESIDUE_TOL])
    with pytest.raises(InternalConsistencyError, match="residue 2.00e-09"):
        extend_immersion(f, D0, D1, 1e-3)


# poles at |a| = 0.23, 1.64 and 1.88, critical points at |z| = 1.40 to 1.47:
# exp(xi) leaves double range at the pole 1.16 + 1.47i
_OVERFLOWING_RESIDUE_MAP = R(
    P([-4.5029 + 4.6032j, 5.1451 - 4.6031j, 0.0039 + 1.3718j, -1.6901 + 0.4869j, 0.8016 - 0.4695j]),
    P([0.6918 - 0.076j, 2.5391 + 0.2959j, -2.0514 - 0.3219j, 1]),
)


def test_extend_refuses_a_residue_out_of_double_range():
    # cmath.exp raised a bare OverflowError here
    with pytest.raises(NumericalError, match="out of double range"):
        extend_immersion(_OVERFLOWING_RESIDUE_MAP, D0, D1, 1e-3)


def test_a_nan_residue_is_refused():
    # NaN compares false against any tolerance, so it must not reach one.  A
    # finite scale of 1e308 times exp(xi(a)) = e overflows to inf, and inf
    # times the exact zero eta(a) - c_a is NaN
    F = extend_immersion(R(P([1]), P.from_roots([1.5])), D0, D1, 1e-3)
    assert F.residues() == [0j]
    parts = F.eta_parts
    assert parts.lagrange.is_zero and parts.sigma.is_zero
    sigma = P([-2.0 / (F.base_point - 1.5) ** 2])  # xi(1.5) = 1
    G = dataclasses.replace(
        F, scale=1e308 + 0j, eta_parts=ConstrainedEta(parts.lagrange, sigma, parts.nodes)
    )
    with pytest.raises(NumericalError, match="out of double range"):
        G.residues()


@pytest.mark.parametrize("field", ["scale", "base_value", "base_point"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_field_is_refused(field, bad):
    # a NaN or infinite scale evaluated to INF, a NaN base_value to NaN, and a
    # NaN base_point raised a bare ValueError
    F = extend_immersion(R(P([1]), P.from_roots([1.5])), D0, D1, 1e-3)
    with pytest.raises(InputError, match=f"{field} of an integral immersion must be finite"):
        dataclasses.replace(F, **{field: complex(bad, 0.0)})


_IDENTITY_FAMILY = SampledFamily(ParamGrid.line(2, q_nodes=[0, 1]), [R(P([0, 1]))] * 2, D0)

# every entry point that takes an accuracy target; the family is all Q, whose
# members are fitted to min(eps, Q_EPS)
_EPS_ENTRY_POINTS = {
    "extend_immersion": lambda eps: extend_immersion(R(P([0, 1])), D0, D1, eps),
    "extend_family": lambda eps: extend_family(
        list(_IDENTITY_FAMILY.maps), _IDENTITY_FAMILY.grid, D0, D1, eps),
    "blend_parametric": lambda eps: blend_parametric(_IDENTITY_FAMILY, eps),
    "poly_approx_on_disc": lambda eps: poly_approx_on_disc(
        R(P([1]), P.from_roots([2.0])), D0, eps),
    "fix_on_Q": lambda eps: fix_on_Q(
        _IDENTITY_FAMILY, dict(enumerate(_IDENTITY_FAMILY.maps)),
        original=_IDENTITY_FAMILY, eps=eps),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1e-3])
@pytest.mark.parametrize("entry", sorted(_EPS_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_eps(entry, eps):
    with pytest.raises(InputError, match="finite positive"):
        _EPS_ENTRY_POINTS[entry](eps)
    _EPS_ENTRY_POINTS[entry](1e-3)


def test_the_certificate_refuses_an_xi_out_of_double_range():
    # xi = s z on Disc(0, 2): its Horner bound 2 |s| overflows for |s| = 1e308,
    # where 1,024 samples of log|F'| read -inf and NaN and blamed the program
    # (InternalConsistencyError) after a RuntimeWarning
    F = extend_immersion(R(P([0, 1])), D0, D1, 1e-3)
    assert F.poles.locations == ()

    def with_xi(s):
        G = dataclasses.replace(F, base_point=0j, eta_parts=ConstrainedEta(P([]), P([s]), ()))
        assert G.xi == P([0, s])
        return G

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e308, -1e308):
            with pytest.raises(NumericalError, match="double range"):
                with_xi(s).certificate()
        assert with_xi(1e150).certificate().valid


def _mpmath_value(F, z, via=()):
    """F(z) by mpmath along F's own detour path, or along the polyline from
    the base point through ``via`` to z: an oracle for the quadrature."""
    if via:
        pts = np.array([F.base_point, *via, z], dtype=complex)
        starts, deltas = pts[:-1], np.diff(pts)
    else:
        starts, deltas = F._detour_path(complex(z), 1)
    return F.base_value + sum(
        mpmath_pieces(F.scale, F.xi.coeffs, [a for a, _ in F.poles], starts, deltas)
    )


# Moebius maps with one pole in the big disc, whose paths to |z| = 1.5 pass
# the pole by arcs of radius 0.04.  Adaptive Simpson exhausted its budget on
# the first; a G7-K15 rule without a rounding floor did on the second.
_PINNED_MOEBIUS = [
    (
        [-7.0854307248920465 + 1.0433571768311454j, -1.2225277379616517 + 3.2233554772069297j],
        [0.0034101059645046394 - 0.033902135510989195j, 0.012581673174547947 + 0.05175156288048876j],
    ),
    (
        [-8.273376763532731 + 4.617983285798465j, -3.9577160560916234 + 2.073235124068424j],
        [-0.05665336276253985 - 0.16615187715398377j, 0.10575881516799202 - 0.2017297520207219j],
    ),
]


_CIRCLE_MAPS = [
    R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5])),  # deg xi 130 at eps 1e-3
    R(P([0.2, 1.0, 0.3j])),
    R(P([1]), P.from_roots([0.01])),
    R(P([0, 1, 0, 0.05])),
]
_CIRCLES = ((0j, 1.0, 256), (0j, 0.9, 16), (0.1j, 0.7, 33), (0j, 1.0, 1), (0j, 1.0, 2), (0j, 1.0, 3))


def _pointwise(F, center, radius, n):
    return np.array([complex(F.evaluate(complex(z))) for z in circle_samples(center, radius, n)])


def test_values_on_circle_matches_pointwise():
    # the periodic rule against path integration from the base point, to
    # 1e-11 relative; the two agree to about 2e-14 on these circles
    for f in _CIRCLE_MAPS + [R(P(num), P(den)) for num, den in _PINNED_MOEBIUS]:
        F = extend_immersion(f, D0, D1, 1e-3)
        for center, radius, n in _CIRCLES:
            got, want = F.values_on_circle(center, radius, n), _pointwise(F, center, radius, n)
            assert got.shape == (n,)
            assert np.all(np.abs(got - want) <= 1e-11 * (1 + np.abs(want)))


def test_values_on_circle_matches_mpmath():
    # deg xi = 130: a rule of 128 or 256 nodes reads a small Fourier tail
    # here, but high modes alias into the low ones and the value at z = 1
    # misses by 3e-10 or 4e-11, so the rule starts at 4 (deg xi + 1) nodes.
    # The oracle's path runs through i, clear of the pole at 0.3
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    assert F.xi.degree == 130
    got = F.values_on_circle(0j, 1.0, 2)[0]
    assert abs(got - _mpmath_value(F, 1.0, via=(1j,))) <= 1e-11 * (1 + abs(got))
    for num, den in _PINNED_MOEBIUS:
        F = extend_immersion(R(P(num), P(den)), D0, D1, 1e-3)
        want = np.array([_mpmath_value(F, z) for z in circle_samples(0j, 1.5, 8)])
        got = F.values_on_circle(0j, 1.5, 8)
        assert np.all(np.abs(got - want) <= 1e-11 * (1 + np.abs(want)))


def _quadrature_calls(monkeypatch):
    """The calls that extension makes to either quadrature kernel, one
    path or many, as a list that fills as they run."""
    calls = []
    for name in ("integrate_pieces", "_integrate_paths"):
        def counting(*args, kernel=getattr(meroimm.extension, name), **kw):
            calls.append(args)
            return kernel(*args, **kw)

        monkeypatch.setattr(meroimm.extension, name, counting)
    return calls


def test_values_on_circle_integrates_only_the_entry_path(monkeypatch):
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    calls = _quadrature_calls(monkeypatch)
    F.values_on_circle(0j, 1.0, 256)
    assert len(calls) == 1


def _same_point(a, b):
    return is_inf(a) and is_inf(b) or (not is_inf(a) and not is_inf(b) and same_bits(a, b))


def test_evaluate_on_an_array_is_pointwise_evaluate():
    # one quadrature call for all the points, bit for bit the pointwise
    # values: on |z| = 1.5 (where exp(xi) of the first map overflows at 6
    # points), at the poles, which give INF, and at the base point, which
    # gives the base value, on either side of the poles
    for f in _CIRCLE_MAPS:
        F = extend_immersion(f, D0, D1, 1e-3)
        zs = np.concatenate([ring(1.5, 16), F.poles.locations, [F.base_point, 0.3 - 0.2j]])
        for side in (1, -1):
            got = F.evaluate(zs, side=side)
            want = [F.evaluate(complex(z), side=side) for z in zs]
            assert isinstance(got, list) and len(got) == len(zs)
            assert all(_same_point(a, b) for a, b in zip(got, want))
            assert got[16 + len(F.poles)] == F.base_value
            assert all(v is INF for v in got[16:16 + len(F.poles)])
        assert sum(is_inf(v) for v in got[:16]) == (6 if f is _CIRCLE_MAPS[0] else 0)
        assert not isinstance(F.evaluate(zs[0]), list)  # a point still gives a point
        assert F.evaluate(list(zs[:3])) == [F.evaluate(z) for z in zs[:3]]
        assert F.evaluate(np.array([], dtype=complex)) == []
        for bad in ([0.5, math.nan], [[0.5]], np.array([complex(0, math.inf)])):
            with pytest.raises(InputError):
                F.evaluate(bad)


def test_evaluate_on_an_array_raises_the_first_refused_point(monkeypatch):
    # with a budget that only some paths meet, the array call raises what the
    # first point that fails raises pointwise, with its best estimate
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    monkeypatch.setattr(meroimm.contours, "QUAD_EVAL_BUDGET", 200)
    zs = [0.01j, 1.2, 0.9]
    assert not is_inf(F.evaluate(zs[0]))
    best = []
    for z in zs[1:]:
        with pytest.raises(QuadratureBudgetError) as alone:
            F.evaluate(z)
        best.append(alone.value.best)
    with pytest.raises(QuadratureBudgetError) as together:
        F.evaluate(zs)
    assert same_bits(together.value.best, best[0]) and not same_bits(best[0], best[1])


def test_detour_radius_is_computed_once(monkeypatch):
    F = extend_immersion(R(P([1]), P.from_roots([0.3])) + R(P([0.2]), P.from_roots([1.5])), D0, D1,
                         1e-3)
    F = dataclasses.replace(F)  # a fresh instance, which has not computed it yet
    calls = []
    separation = PoleSet.min_separation
    monkeypatch.setattr(PoleSet, "min_separation", lambda self: calls.append(1) or separation(self))
    F.evaluate(ring(1.2, 16))
    F.values_on_circle(0j, 1.0, 64)
    assert len(calls) == 1 and F.detour_radius == min(0.04, 0.5 * separation(F.poles))


def test_values_on_circle_falls_back_where_exp_xi_overflows():
    # on |z| = 1.5, exp(xi) leaves double range near the positive real axis:
    # evaluate gives INF at 6 of 16 samples, and the rule, whose samples are
    # then non-finite, hands the whole circle to evaluate
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    want = [F.evaluate(complex(z)) for z in circle_samples(0j, 1.5, 16)]
    got = F.values_on_circle(0j, 1.5, 16)
    assert sum(is_inf(v) for v in want) == 6
    for v, w in zip(got, want):
        assert v == (complex("inf") if is_inf(w) else complex(w))


def test_values_on_circle_refuses_a_circle_that_does_not_close():
    # a shifted Lagrange part misses the residue target at the pole 0.3, so
    # the integrand keeps a residue there: the rule's mode 0 is 2 pi i times it
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    eta = dataclasses.replace(F.eta_parts, lagrange=F.eta_parts.lagrange + 0.1)
    G = dataclasses.replace(F, eta_parts=eta)
    assert abs(G.residues()[0]) > 0.1
    with pytest.raises(InternalConsistencyError):
        G.values_on_circle(0j, 1.0, 16)
    # a circle that leaves the pole outside closes
    assert np.all(np.isfinite(G.values_on_circle(0.5j - 0.5, 0.3, 16)))


def test_integral_immersion_derives_xi_and_checks_its_nodes():
    # xi and the expanded eta are computed from the structured parts, so they
    # cannot be set apart from them; the eta nodes must be the poles
    F = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    eta = F.eta_parts
    assert eta.expanded == eta.lagrange + eta.sigma * P.from_roots(eta.nodes)
    assert F.xi == eta.expanded.antiderivative(F.base_point)
    with pytest.raises(ValueError):
        dataclasses.replace(F, xi=F.xi + P([0, 0.1]))
    with pytest.raises(TypeError):
        ConstrainedEta(eta.lagrange, eta.sigma, eta.nodes, eta.expanded)
    for nodes in ((0.31 + 0j,), (), (0.3 + 0j, 1.5 + 0j)):
        with pytest.raises(InputError):
            dataclasses.replace(F, eta_parts=dataclasses.replace(eta, nodes=nodes))


def test_evaluate_and_values_on_circle_refuse_non_finite_points():
    for f in (R(P([0.2, 1.0, 0.3j])), R(P([1]), P.from_roots([0.3]))):
        F = extend_immersion(f, D0, D1, 1e-3)
        for z in (math.nan, complex(0, math.nan), math.inf, complex(-math.inf, 1)):
            with pytest.raises(InputError):
                F.evaluate(z)
            with pytest.raises(InputError):
                F.values_on_circle(z, 1.0, 4)


def test_a_sample_count_that_is_not_an_integer_above_zero_is_refused():
    # numpy would refuse 2.5 and 16.0 with a bare ValueError, an empty ring
    # has no max, 2.5 would round to 3 uneven points, and True made one point
    f = R(P([1]), P.from_roots([1.5]))
    F = extend_immersion(f, D0, D1, 1e-3)
    for n in (0, -3, 2.5, 16.0, True):
        with pytest.raises(InputError):
            circle_samples(0j, 1.0, n)
        with pytest.raises(InputError):
            F.values_on_circle(0j, 1.0, n)
        with pytest.raises(InputError):
            sampled_sup_distance(f, f, D0, samples=n)


def test_values_on_circle_fallback_maps_inf_and_keeps_quad_tol(monkeypatch):
    # the pole at 1.5 is a sample of the circle: after the base value, the
    # fallback evaluates the whole ring in one array call, and its value
    # there is INF
    F = extend_immersion(R(P([1]), P.from_roots([1.5])), D0, D1, 1e-3)
    evaluate = meroimm.extension.IntegralImmersion.evaluate
    seen = []

    def recording(self, z, **kw):
        seen.append(z)
        return evaluate(self, z, **kw)

    monkeypatch.setattr(meroimm.extension.IntegralImmersion, "evaluate", recording)
    vals = F.values_on_circle(0, 1.5, 16)
    assert len(seen) == 2 and seen[1].tobytes() == circle_samples(0j, 1.5, 16).tobytes()
    assert vals[0] == complex("inf")
    for z, v in zip(circle_samples(0j, 1.5, 16)[1:], vals[1:]):
        assert v == evaluate(F, complex(z))
    # extension_boundary_error takes the INF entry through chordal_distance
    f = R(P([1]), P.from_roots([1.5]))
    assert extension_boundary_error(f, F, Disc(0, 1.5)) < 1e-3


def test_values_on_circle_refuses_bad_circles():
    F = extend_immersion(R(P([0.2, 1.0, 0.3j])), D0, D1, 1e-3)
    for radius, n in ((1.0, 0), (1.0, -3), (0.0, 16), (-1.0, 16), (math.nan, 16), (math.inf, 16)):
        with pytest.raises(InputError):
            F.values_on_circle(0j, radius, n)


@pytest.mark.parametrize("num, den", _PINNED_MOEBIUS)
def test_evaluate_past_pole_matches_mpmath(num, den):
    F = extend_immersion(R(P(num), P(den)), D0, D1, 1e-3)
    assert len(F.poles) == 1
    for z in ring(1.5, 16):
        got = F.evaluate(complex(z))
        assert not is_inf(got)
        assert abs(complex(got) - _mpmath_value(F, z)) < 1e-10


@pytest.mark.parametrize("num, den", _PINNED_MOEBIUS)
def test_detour_quadrature_matches_reference_loop(num, den):
    F = extend_immersion(R(P(num), P(den)), D0, D1, 1e-3)
    for z in ring(1.5, 16):
        starts, deltas = F._detour_path(complex(z), 1)
        assert assert_same_quadrature(F._fz, starts, deltas, QUAD_TOL)[0] == "returned"


def test_detour_quadrature_of_the_extend_pool_is_the_full_floor_round():
    # the rows h0 exp(xi)/Theta of the benchmark's seed-11 extend pool, on
    # their detour paths to |z| = 1.5 on both sides, one piece and many:
    # the lean round against the round that forms every floor, bit for bit
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    wl = workloads.Extend(meroimm, 11, None)
    pieces = set()
    for op in wl.build():
        F = extend_immersion(op["map"], D0, D1, wl.spec["eps"])
        for z in workloads.RING16:
            for side in (1, -1):
                starts, deltas = F._detour_path(complex(z), side)
                pieces.add(len(starts) > 1)
                try:
                    assert_same_quadrature(F._fz, starts, deltas, QUAD_TOL,
                                           reference=integrate_pieces_full_floor)
                except PathTooCloseError:  # exp(xi) overflows: then both refuse
                    with pytest.raises(PathTooCloseError):
                        integrate_pieces_full_floor(F._fz, starts, deltas, QUAD_TOL)
    assert pieces == {True, False}


def test_evaluate_refuses_a_side_other_than_plus_or_minus_one(monkeypatch):
    # the point 1.5 lies in the pole's direction, so its path bends; a bad
    # side is refused before any path is built, for a point and for an array
    F = extend_immersion(R(P([1]), P.from_roots([0.5])), D0, D1, 1e-3)
    assert len(F._detour_path(1.5 + 0j, 1)[0]) > 1
    want = {side: F.evaluate(1.5, side=side) for side in (1, -1)}
    assert F.evaluate(1.5, side=1.0) == want[1] and F.evaluate(1.5, side=np.int64(-1)) == want[-1]

    def no_path(*args):
        raise AssertionError("a path was built")

    monkeypatch.setattr(meroimm.extension.IntegralImmersion, "_detour_path", no_path)
    for side in (0, 2, -2, 0.5, math.nan, True, "a", None, [1]):
        for z in (1.5, np.array([1.5, 0.2j])):
            with pytest.raises(InputError, match="side"):
                F.evaluate(z, side=side)


def test_evaluate_next_to_pole_on_either_side():
    # f = (beta + alpha z)/(z - a), a pole 0.023 from the point 1.5i: Horner
    # on the expanded Theta is noisy there above the quadrature's rounding
    # floor, so the detour arc's panels never pass and the budget runs out
    a = -0.012103065899004055 + 1.5196080834991943j
    alpha = -1.2656369792245639 + 1.8671455145806186j
    beta = -0.969179511082668 - 0.2960838149974946j
    F = extend_immersion(R(P([beta, alpha]), P([-a, 1])), D0, D1, 1e-3)
    z = 1.5j
    exact = (beta + alpha * z) / (z - a)
    for side in (1, -1):
        got = complex(F.evaluate(z, side=side))
        assert abs(got - exact) < 1e-13 * abs(exact)


def _mpmath_entire_values(F, zs, terms=200):
    """F(z) for an extension based at 0 without poles, from the Taylor series
    of E = exp(xi) integrated term by term at 30 digits.

    E' = xi' E gives (n + 1) e[n+1] = sum_k (k + 1) x[k+1] e[n-k].
    """
    assert F.base_point == 0 and len(F.poles) == 0
    with mpmath.workdps(30):
        x = [mpmath.mpc(c) for c in F.xi.coeffs]
        e = [mpmath.exp(x[0])]
        for n in range(terms):
            e.append(sum(
                (k + 1) * x[k + 1] * e[n - k] for k in range(min(n + 1, len(x) - 1))
            ) / (n + 1))
        assert max(abs(c) for c in e[-10:]) < mpmath.mpf(10) ** -40
        prim = [c / (n + 1) for n, c in enumerate(e)][::-1] + [0]
        h0 = mpmath.mpc(F.scale)
        return [mpmath.mpc(F.base_value) + h0 * mpmath.polyval(prim, mpmath.mpc(z)) for z in zs]


def test_achieved_eps_matches_mpmath_sup():
    # a cubic: no poles, so the extension is f0 + h0 times a primitive of exp(xi)
    f = R(P([
        0.10109520293185721 - 0.009242161189900698j,
        -0.49367971663195087 + 0.6948473263990413j,
        0.1549720514241619 - 0.08208544204253704j,
        -0.0332051588142591 - 0.018210222334970466j,
    ]))
    F = extend_immersion(f, D0, D1, 1e-3)
    zs = ring(1.0, 256)
    values = _mpmath_entire_values(F, zs)
    # the series agrees with mpmath.quad along the path
    assert abs(complex(values[37]) - _mpmath_value(F, zs[37])) < 1e-14
    sup = mpmath.mpf(0)
    with mpmath.workdps(30):
        for z, q in zip(zs, values):
            p = mpmath.polyval([mpmath.mpc(c) for c in reversed(f.num.coeffs)], mpmath.mpc(z))
            d = 2 * abs(p - q) / mpmath.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2))
            sup = max(sup, d)
    assert abs(F.achieved_eps - float(sup)) < 1e-12


def _boundary_error_by_loop(f, vals, n):
    ring_ = ring(1.0, n)
    return max(chordal_distance(f(complex(z)), v) for z, v in zip(ring_, vals))


class _FixedValues:
    """Stands in for an extension whose boundary values are given."""

    def __init__(self, vals):
        self.vals = vals

    def values_on_circle(self, center, radius, n):
        return self.vals


def test_extension_boundary_error_matches_scalar_loop():
    for f in (
        R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5])),
        R(P([0.2, 1.0, 0.3j])),
        R(P([1]), P.from_roots([0.01])),
        R(P([0, 1, 0, 0.05])),
    ):
        F = extend_immersion(f, D0, D1, 1e-3)
        vals = F.values_on_circle(0j, 1.0, 256)
        want = _boundary_error_by_loop(f, vals, 256)
        assert abs(extension_boundary_error(f, F, D0) - want) <= 1e-14


def test_extension_boundary_error_with_inf_values():
    # f has a pole at the ring sample z = 1; the extension values hold an
    # INF, a value past 1e140 and an ordinary miss
    f = R(P([1]), P.from_roots([1.0])) + R(P([0, 0.5]))
    vals = f(ring(1.0, 256))
    vals[0] = 1e200
    vals[5] = complex(math.inf, 0.0)
    vals[9] += 1e-3
    got = extension_boundary_error(f, _FixedValues(vals), D0)
    assert got == _boundary_error_by_loop(f, vals, 256)
    assert got == pytest.approx(chordal_distance(f(complex(ring(1.0, 256)[5])), INF))


# -- families ---------------------------------------------------------------------


def test_extend_family_constant():
    grid = ParamGrid.line(11, q_nodes=[0, 10])
    maps = [R(P([0, 1]))] * 11
    outs = extend_family(maps, grid, D0, D1, 1e-3)
    for F in outs:
        assert abs(complex(F.evaluate(0.5 + 0.2j)) - (0.5 + 0.2j)) < 1e-8


def test_extend_family_quintic_sweep():
    grid = ParamGrid.line(21)
    maps = [R(P([0, 1, 0, 0, 0, 0.1 * (i / 20)])) for i in range(21)]
    outs = extend_family(maps, grid, D0, D1, 1e-3)
    assert all(F.certificate().valid for F in outs)
    errs = [extension_boundary_error(maps[i], outs[i], D0) for i in range(21)]
    assert max(errs) < 1e-3


def test_extend_family_moving_pole_relative():
    grid = ParamGrid.line(11, q_nodes=[0, 10])
    maps = [R(P([1]), P.from_roots([0.3 + 0.2 * (i / 10)])) for i in range(11)]
    outs = extend_family(maps, grid, D0, D1, 1e-3)
    assert all(F.certificate().valid for F in outs)
    # per-parameter interpolation targets: residues vanish everywhere
    for F in outs:
        assert max(abs(r) for r in F.residues()) < 1e-9
    # relative exactness at the Q nodes, on the big disc
    for i in (0, 10):
        for z in ring(1.9, 32):
            v = complex(outs[i].evaluate(complex(z)))
            assert abs(v - complex(maps[i](complex(z)))) < 1e-6


def test_extend_family_pole_collision_names_cell():
    maps = [R(P([1]), P.from_roots([1.9 + 0.2 * (i / 10)])) for i in range(11)]
    with pytest.raises(PoleCollisionError) as exc:
        extend_family(maps, ParamGrid.line(11), D0, D1, 1e-3)
    assert "cell" in str(exc.value)


def test_extend_family_pole_collision_precedes_node_errors():
    # node 0, z^2, fails its certificate on the small disc (f'(0) = 0), and
    # the pole count jumps across the cell (0, 1)
    maps = [R(P([0, 0, 1]))] + [R(P([1]), P.from_roots([0.3])) for _ in range(4)]
    with pytest.raises(NotAnImmersionError):
        extend_immersion(maps[0], D0, D1, 1e-3)
    with pytest.raises(PoleCollisionError):
        extend_family(maps, ParamGrid.line(5), D0, D1, 1e-3)


def test_extend_family_q_member_must_cover_big_disc():
    # derivative zero at -1.7 lies inside the big disc: invalid on Q
    maps = [R(P([1]), P.from_roots([0.3]))
            + R(P([0, 0.25])) for _ in range(5)]
    with pytest.raises(NotAnImmersionError, match="radius 2 "):
        extend_family(maps, ParamGrid.line(5, q_nodes=[0]), D0, D1, 1e-3)


def test_extend_family_certifies_each_node_once(monkeypatch):
    seen, blocks = [], []
    before_count, counts = meroimm.immersions._before_count, meroimm.extension._counts

    def recorder(F, D, *args, **kwargs):
        seen.append((F.poles.locations, D))
        return before_count(F, D, *args, **kwargs)

    def block_recorder(rows, discs):
        blocks.append((tuple(rows), tuple(discs)))
        return counts(rows, discs)

    monkeypatch.setattr(meroimm.immersions, "_before_count", recorder)
    monkeypatch.setattr(meroimm.extension, "_before_count", recorder)
    monkeypatch.setattr(meroimm.extension, "_counts", block_recorder)
    poles = [0.3 + 0.1 * (i / 4) for i in range(5)]
    maps = [R(P([1]), P.from_roots([a])) for a in poles]
    outs = extend_family(maps, ParamGrid.line(5, q_nodes=[0]), D0, D1, 1e-3)
    assert len(outs) == 5
    # node i is recognized by its pole; Q node 0 is certified on the big disc
    assert seen == [((complex(a),), D1 if i == 0 else D0) for i, a in enumerate(poles)]
    # one block winds each member's Wronskian W around its disc
    wronskians = tuple(R(wronskian(f.factor().map)) for f in maps)
    assert blocks == [(wronskians, (D1, D0, D0, D0, D0))]


def test_extension_solves_each_polynomial_once(monkeypatch):
    # every singular point on the extension path is read from the map's one
    # factorization: no coefficient tuple reaches the root solver twice, and
    # the extension module solves nothing itself
    import meroimm.rational as rational

    solved = []
    solve = rational.roots

    def recording(where):
        def record(p, **kwargs):
            solved.append((where, p.coeffs))
            return solve(p, **kwargs)
        return record

    monkeypatch.setattr(rational, "roots", recording("rational"))
    monkeypatch.setattr(meroimm.extension, "roots", recording("extension"), raising=False)
    # the pole at 3 lies outside the big disc and stays a pole of the cleared
    # derivative h, so the denominator h.num * h.den of eta = h'/h is not h.num
    f = R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5])) + R(P([0.1]), P.from_roots([3.0]))
    maps = [R(P([1]), P.from_roots([0.3 + 0.2 * (i / 10)])) for i in range(11)]
    for run in (
        lambda: extend_immersion(f, D0, D1, 1e-3),
        lambda: extend_family(maps, ParamGrid.line(11, q_nodes=[0, 10]), D0, D1, 1e-3),
    ):
        solved.clear()
        run()
        assert solved and all(where == "rational" for where, _ in solved)
        coeffs = [c for _, c in solved]
        assert len(set(coeffs)) == len(coeffs)


def test_extend_family_takes_one_quadrature_call_per_round(monkeypatch):
    # every member's base value on the small circle comes from one call, in
    # each round of eta fits: here two rounds, as a boundary miss makes one,
    # and the second round's one row takes the one-path call
    fitted = []
    fit = meroimm.extension._fit_etas
    measure_rows = meroimm.extension._boundary_errors

    def boundary_errors(fs, vals, d0):
        sups = measure_rows(fs, vals, d0)
        if len(fitted) == 1:
            sups[1] = 0.5  # row 1 misses in the first round
        return sups

    monkeypatch.setattr(meroimm.extension, "_fit_etas", lambda *a: fitted.append(a) or fit(*a))
    monkeypatch.setattr(meroimm.extension, "_boundary_errors", boundary_errors)
    calls = _quadrature_calls(monkeypatch)
    grid, maps, _ = _BLOCK_FAMILIES[1]
    extend_family(maps, grid, D0, D1, 1e-3)
    assert len(fitted) == len(calls) == 2
    assert len(calls[0][4]) == 4 and len(calls[1]) == 4  # four paths, then one path


def test_extend_family_size_mismatch():
    with pytest.raises(InputError):
        extend_family([R(P([0, 1]))], ParamGrid.line(5), D0, D1, 1e-3)


# -- a family as one block ---------------------------------------------------------


def _extension_bits(F):
    eta = F.eta_parts
    return (F.xi.coeffs, F.scale, F.base_point, F.base_value, F.poles.entries,
            eta.lagrange.coeffs, eta.sigma.coeffs, eta.nodes, F.achieved_eps)


def _alone(f, on_q, eps=1e-3):
    # the one-member block: a Q member is fitted on the big disc to min(eps, Q_EPS)
    if not on_q:
        return extend_immersion(f, D0, D1, eps)
    q_eps = min(eps, meroimm.extension.Q_EPS)
    return meroimm.extension._extend([(f, f.factor(), q_eps, D1)], D0, D1)[0][0]


# one family per pole count in the big disc, which a family cannot change; the
# maps on Q immerse the big disc, and the two 0.01 from the centre have their
# base points nudged off that pole
_BLOCK_FAMILIES = [
    (ParamGrid.line(4, q_nodes=[0, 3]),
     [R(P([0, 1, 0, c])) for c in (0.01, 0.05, 0.1, 0.02)], 0),
    (ParamGrid.line(4, q_nodes=[0]),
     [R(P([1]), P.from_roots([0.01])),
      R(P([1]), P.from_roots([0.01])) + R(P([0, 0.3])),
      R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5])),
      R(P([1]), P.from_roots([0.5j])) + R(P([0, 0.2]))], 2),
    (ParamGrid.line(3),
     [R(P([1]), P.from_roots([0.3])) + R(P([0.2]), P.from_roots([1.5])),
      R(P([1]), P.from_roots([0.3])) + R(P([0.2]), P.from_roots([1.6])),
      R(P([1]), P.from_roots([0.3j])) + R(P([0.2]), P.from_roots([1.5]))], 0),
]


@pytest.mark.parametrize("grid, maps, nudged", _BLOCK_FAMILIES)
def test_each_member_of_a_block_is_its_one_member_extension(grid, maps, nudged):
    outs = extend_family(maps, grid, D0, D1, 1e-3)
    for f, on_q, F in zip(maps, grid.q_mask, outs):
        assert _extension_bits(F) == _extension_bits(_alone(f, on_q))
    assert sum(F.base_point != 0 for F in outs) == nudged


def test_a_block_raises_the_error_of_its_first_failing_member():
    # z - z^2/2.1 has its critical point 0.05 outside the small disc: its eta
    # fit runs out of degrees; z^2 fails its certificate, before any fit
    late = R(P([0, 1, -1 / 2.1]))
    early = R(P([0, 0, 1]))
    ident = R(P([0, 1]))
    for maps in ([ident, late, early, ident], [ident, early, late, ident]):
        alone = []
        for f in maps:
            try:
                extend_immersion(f, D0, D1, 1e-3)
            except Exception as exc:  # noqa: BLE001  the first member error, whatever it is
                alone.append(exc)
        with pytest.raises(type(alone[0])) as exc:
            extend_family(maps, ParamGrid.line(4), D0, D1, 1e-3)
        assert str(exc.value) == str(alone[0])
        assert getattr(exc.value, "achieved", None) == getattr(alone[0], "achieved", None)
    assert isinstance(alone[0], NotAnImmersionError)  # the second order: z^2 comes first


def test_a_family_raises_its_first_failing_member_whichever_set_up_pass_catches_it():
    # member 2's f' = 1 + 1.6z vanishes at -0.625 in the small disc, which
    # only the certificate after the zero count sees; member 3 is constant,
    # which the first pass refuses before any count.  One by one, member 2
    # fails first.  Without member 2, member 3's error is raised
    maps = [R(P([0, 1])), R(P([0, 1, 0.1])), R(P([0, 1, 0.8])), R(P([1])), R(P([0, 1, 0.02]))]
    grid = ParamGrid.line(5, q_nodes=[0, 4])
    with pytest.raises(NotAnImmersionError, match="does not immerse"):
        extend_immersion(maps[2], D0, D1, 1e-3)
    with pytest.raises(NotAnImmersionError, match=r"center 0\+0j and radius 1 "):
        extend_family(maps, grid, D0, D1, 1e-3)
    maps[2] = R(P([0, 1, 0.2]))
    with pytest.raises(InputError, match="constant map"):
        extend_family(maps, grid, D0, D1, 1e-3)


def test_a_boundary_miss_refits_only_its_row(monkeypatch):
    fitted = []
    fit = meroimm.extension._fit_etas
    measure_rows = meroimm.extension._boundary_errors

    def recording(fits, eps_etas):
        fitted.append(list(eps_etas))
        return fit(fits, eps_etas)

    def boundary_errors(fs, vals, d0):
        sups = measure_rows(fs, vals, d0)
        if len(fitted) == 1:
            sups[1] = 0.5  # row 1 misses in the first round
        return sups

    monkeypatch.setattr(meroimm.extension, "_fit_etas", recording)
    monkeypatch.setattr(meroimm.extension, "_boundary_errors", boundary_errors)
    maps = [R(P([0, 1, 0, c])) for c in (0.01, 0.05, 0.1)]
    outs = extend_family(maps, ParamGrid.line(3), D0, D1, 1e-3)
    eps_eta = 1e-3 / 128.0
    assert fitted == [[eps_eta] * 3, [eps_eta / 32.0]]
    monkeypatch.undo()
    for i in (0, 2):
        assert _extension_bits(outs[i]) == _extension_bits(extend_immersion(maps[i], D0, D1, 1e-3))
    assert outs[1].achieved_eps == extension_boundary_error(maps[1], outs[1], D0) < 1e-3


def test_expanded_eta_is_the_polynomial_sum_bit_for_bit():
    # ConstrainedEta expands lagrange + sigma * node_product on coefficient
    # lists: the coefficients, signed zeros included, are those of the
    # polynomial sum
    rng = np.random.default_rng(26)

    def poly(n):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        signed = rng.choice([0.0, -0.0], size=(2, n))
        re = np.where(rng.random(n) < 0.3, signed[0], c.real)
        im = np.where(rng.random(n) < 0.3, signed[1], c.imag)
        return P((re + 1j * im).tolist(), coeff_tol=0.0)

    for _ in range(2000):
        lag, sigma = poly(rng.integers(0, 5)), poly(rng.integers(0, 40))
        nodes = tuple((rng.normal(size=rng.integers(0, 4)) + 1j * rng.normal()).tolist())
        want = lag + sigma * P.from_roots(nodes)
        assert repr(ConstrainedEta(lag, sigma, nodes).expanded.coeffs) == repr(want.coeffs)


def test_circle_values_of_a_block_are_the_one_row_values():
    # a plain row, a row with a pole on the circle (the pointwise fallback), a
    # row whose xi needs a later start of the rule, and a row that keeps a
    # residue, whose error stays in its row
    F = extend_immersion(_CIRCLE_MAPS[2], D0, D1, 1e-3)
    on_circle = extend_immersion(R(P([1]), P.from_roots([1.1])), D0, D1, 1e-3)
    late = extend_immersion(_CIRCLE_MAPS[0], D0, D1, 1e-3)
    assert 4 * len(late.xi.coeffs) > 256
    eta = dataclasses.replace(late.eta_parts, lagrange=late.eta_parts.lagrange + 0.1)
    residue = dataclasses.replace(late, eta_parts=eta)
    rows = meroimm.extension._circle_values([F, on_circle, late, residue], 0j, 1.1, 16)
    for G, got in zip((F, on_circle, late), rows):
        want = G.values_on_circle(0j, 1.1, 16)
        assert got.tobytes() == want.tobytes()
    assert np.isinf(rows[1]).any() and isinstance(rows[3], InternalConsistencyError)


def test_circle_values_of_the_family_pools_are_the_one_row_values():
    # every member of the benchmark's family pools at three seeds: the rows
    # of one block against values_on_circle of each member alone
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for seed in (11, 23, 7919):
        wl = workloads.Family(meroimm, seed, None)
        for _ in range(wl.spec["pool_ops"]):
            data = workloads.family_input(wl.rng, wl.spec)
            maps = [workloads.to_map(meroimm, m) for m in data["maps11"]]
            outs = extend_family(maps, wl.grid11, D0, D1, wl.spec["eps"])
            for F, got in zip(outs, meroimm.extension._circle_values(outs, 0j, 1.0, 256)):
                assert got.tobytes() == F.values_on_circle(0j, 1.0, 256).tobytes()
