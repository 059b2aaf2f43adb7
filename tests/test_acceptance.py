"""Acceptance suite.

Each criterion runs at its pinned tolerance and runtime budget and prints one
pass/fail line (visible with pytest -s; the assertions enforce the verdicts
either way).
"""
import itertools
import math
import time

import numpy as np
import pytest

from helpers import numpy_derivative_zeros_and_poles, random_rational, separated_points
from meroimm import (
    CircularDomain,
    ComplexPolynomial,
    Contour,
    Disc,
    ParamGrid,
    RationalMap,
    SampledFamily,
    argument_principle_count,
    blend_parametric,
    chart_transition_winding,
    chordal_distance,
    classify,
    extend_family,
    extend_immersion,
    extension_boundary_error,
    fix_on_Q,
    residue,
    same_component,
    sampled_sup_distance,
    verify_immersion,
    winding_number,
)

P = ComplexPolynomial
R = RationalMap

D0 = Disc(0, 1.0)
D1 = Disc(0, 2.0)
ANNULUS = CircularDomain.annulus(0.5, 2.0)


def zpow(d):
    if d > 0:
        return R(P([0] * d + [1]))
    return R(P([1]), P([0] * (-d) + [1]))


def report(name, elapsed, limit, ok):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.2f}s (limit {limit:g}s)")
    assert ok
    assert elapsed < limit, f"{name} exceeded its runtime budget"


def test_criterion_01_power_table():
    t0 = time.perf_counter()
    ok = True
    for d in (-3, -2, -1, 1, 2, 3):
        hc = classify(zpow(d), ANNULUS, "CP1")
        ok = ok and hc.z_class == (d - 1,) and hc.mod2_class == ((d - 1) % 2,)
    report("criterion 1: z^d winding table", time.perf_counter() - t0, 1.0, ok)


def test_criterion_02_figure_eight():
    t0 = time.perf_counter()
    F = R(P([0.5j, -0.5, 0, 0.5, -0.5j]), P([0, 0, 1]))
    dom = CircularDomain.annulus(0.9, 1.1)
    cert = verify_immersion(F, dom, "C")
    hc = classify(F, dom, "C")
    ok = cert.valid and hc.z_class == (-1,) and hc.mod2_class == (1,)
    report("criterion 2: figure-eight class", time.perf_counter() - t0, 1.0, ok)


def test_criterion_03_component_logic():
    t0 = time.perf_counter()
    z1, z2, z3 = zpow(1), zpow(2), zpow(3)
    ok = (
        not same_component(z1, z3, ANNULUS, "C")
        and same_component(z1, z3, ANNULUS, "CP1")
        and not same_component(z1, z2, ANNULUS, "C")
        and not same_component(z1, z2, ANNULUS, "CP1")
    )
    report("criterion 3: component logic", time.perf_counter() - t0, 1.0, ok)


def test_criterion_04_chart_transition():
    t0 = time.perf_counter()
    circ = Contour.circle(0, 1.0)
    ok = chart_transition_winding(circ) == -2
    for d in (1, 2, 3):
        wf = winding_number(zpow(d).derivative(), circ)
        wg = winding_number(zpow(-d).derivative(), circ)
        ok = ok and (wf - wg == 2 * d)
    report("criterion 4: chart transition windings", time.perf_counter() - t0, 1.0, ok)


def test_criterion_05_polefree_extension():
    t0 = time.perf_counter()
    f = R(P([0, 1, 0, 0, 0, 0.1]))
    F = extend_immersion(f, D0, D1, 1e-3)
    cert = F.certificate()
    sup = extension_boundary_error(f, F, D0)
    ok = cert.valid and len(cert.poles_inside) == 0 and sup < 1e-3
    report("criterion 5: pole-free extension", time.perf_counter() - t0, 10.0, ok)


def test_criterion_06_pole_extension():
    t0 = time.perf_counter()
    f = R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5]))
    F = extend_immersion(f, D0, D1, 1e-3)
    cert = F.certificate()
    ok = cert.valid and len(cert.poles_inside) == 1
    a, m = cert.poles_inside.entries[0]
    ok = ok and m == 1 and abs(a - 0.3) < 1e-8
    ok = ok and max(abs(r) for r in F.residues()) < 1e-9
    for z in (0.9, 0.3 + 0.4j):
        two = abs(
            complex(F.evaluate(z, side=1)) - complex(F.evaluate(z, side=-1))
        )
        ok = ok and two < 1e-8
    sup = extension_boundary_error(f, F, D0)
    ok = ok and sup < 1e-3
    report("criterion 6: pole-case extension", time.perf_counter() - t0, 10.0, ok)


def test_criterion_07_exactness_fixtures():
    t0 = time.perf_counter()
    ok = True
    F = extend_immersion(R(P([0, 1])), D0, D1, 1e-3)
    for z in 0.8 * np.exp(2j * np.pi * np.arange(64) / 64):
        ok = ok and abs(complex(F.evaluate(complex(z))) - z) < 1e-8
    f = R(P([1]), P.from_roots([0.3]))
    G = extend_immersion(f, D0, D1, 1e-3)
    for z in 0.95 * np.exp(2j * np.pi * np.arange(64) / 64):
        ok = ok and abs(
            complex(G.evaluate(complex(z))) - complex(f(complex(z)))
        ) < 1e-8
    report("criterion 7: exactness fixtures", time.perf_counter() - t0, 2.0, ok)


def test_criterion_08_parametric_blend():
    t0 = time.perf_counter()
    grid = ParamGrid.line(101, q_nodes=[0, 100])
    maps = [R(P([1]), P.from_roots([2.0 + i / 100])) for i in range(101)]
    fam = SampledFamily(grid, maps, D0)
    blended = blend_parametric(fam, 1e-3)
    errs = [
        sampled_sup_distance(blended.maps[i], maps[i], D0, samples=256)
        for i in range(101)
    ]
    ok = max(errs) < 5e-4
    fixed = fix_on_Q(blended, {0: maps[0], 100: maps[100]}, original=fam, eps=1e-3)
    ok = ok and fixed.maps[0] is maps[0] and fixed.maps[100] is maps[100]
    report("criterion 8: parametric blending", time.perf_counter() - t0, 5.0, ok)


def test_criterion_09_relative_family():
    t0 = time.perf_counter()
    grid = ParamGrid.line(11, q_nodes=[0, 10])
    maps = [R(P([1]), P.from_roots([0.3 + 0.2 * (i / 10)])) for i in range(11)]
    outs = extend_family(maps, grid, D0, D1, 1e-3)
    ok = all(F.certificate().valid for F in outs)
    for i in (0, 10):
        for z in 1.9 * np.exp(2j * np.pi * np.arange(64) / 64):
            diff = abs(
                complex(outs[i].evaluate(complex(z))) - complex(maps[i](complex(z)))
            )
            ok = ok and diff < 1e-6
    report("criterion 9: relative parametric extension", time.perf_counter() - t0, 30.0, ok)


def test_criterion_10_property_suites(rng):
    t0 = time.perf_counter()
    ok = True

    # residue of the derivative vanishes: 500 random rationals, degree <= 6.
    # The bound is relative to o |A_a|, where A_a is the leading Laurent
    # coefficient of f at a pole a of order o: the residue of the stored f'
    # moves by about that much times eps under one-ulp coefficient changes.
    worst = 0.0
    count = 0
    while count < 500:
        f, poles, orders = random_rational(rng)
        df = f.derivative()
        for a, o in zip(poles, orders):
            lead = f.num(a)
            for b, ob in zip(poles, orders):
                if b != a:
                    lead /= (a - b) ** ob
            worst = max(worst, abs(residue(df, a)) / max(1.0, o * abs(lead)))
        count += 1
    ok = ok and worst < 1e-10

    # winding vs argument principle, exhaustive over <= 4-factor products
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
                ok = ok and winding_number(f, circ) == expected
                ok = ok and argument_principle_count(f, Disc(0, 1.0)) == expected

    # mod-2 loop invariance across pole-separating homologous circles
    cases = 0
    while cases < 20:
        k = int(rng.integers(1, 4))
        pts = rng.uniform(1.2, 1.8, k) * np.exp(2j * np.pi * rng.random(k))
        poles = [complex(p) for p in pts]
        if min(
            [3.0] + [abs(poles[i] - poles[j]) for i in range(k) for j in range(i)]
        ) < 0.25:
            continue
        f = R(P([0, 1e-4]))
        for p in poles:
            f = f + R(P([1]), P.from_roots([p]))
        fp = f.derivative()
        if any(0.9 < abs(z) < 2.1 for z, _ in fp.zero_set()):
            continue
        w1 = winding_number(fp, Contour.circle(0, 1.0))
        w2 = winding_number(fp, Contour.circle(0, 2.0))
        ok = ok and (w1 - w2) % 2 == 0
        ok = ok and w2 - w1 == -2 * k
        cases += 1

    # certificate soundness against the numpy brute-force oracle
    checked = 0
    while checked < 200:
        f, poles, orders = random_rational(rng)
        zeros, np_poles = numpy_derivative_zeros_and_poles(f)
        sing = list(zeros) + list(np_poles)
        if any(abs(D0.boundary_distance(s)) < 1e-3 for s in sing):
            continue
        if len(zeros) and len(np_poles):
            if min(abs(z - p) for z in zeros for p in np_poles) < 1e-3:
                continue
        cert = verify_immersion(f, D0, "CP1")
        want_zeros = sum(1 for z in zeros if abs(z) < 1)
        want_poles = [(p, o) for p, o in zip(poles, orders) if abs(p) < 1]
        ok = ok and cert.derivative_zero_count == want_zeros
        ok = ok and len(cert.poles_inside) == len(want_poles)
        want_valid = want_zeros == 0 and all(o == 1 for _, o in want_poles)
        ok = ok and cert.valid == want_valid
        checked += 1

    report("criterion 10: property suites", time.perf_counter() - t0, 60.0, ok)
