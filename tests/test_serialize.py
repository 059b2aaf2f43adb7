import csv
import math

import numpy as np
import pytest

from meroimm import (
    INF,
    CircularDomain,
    ComplexPolynomial,
    Contour,
    Disc,
    InputError,
    ParamGrid,
    RationalMap,
    extend_immersion,
    verify_immersion,
)
from meroimm.serialize import (
    certificate_to_json,
    complex_from_json,
    complex_to_json,
    contour_from_json,
    contour_to_json,
    disc_from_json,
    disc_to_json,
    domain_from_json,
    domain_to_json,
    dumps,
    grid_from_json,
    grid_to_json,
    immersion_from_json,
    immersion_to_json,
    poly_from_json,
    poly_to_json,
    rational_from_json,
    rational_to_json,
    sphere_point_from_json,
    sphere_point_to_json,
    write_curve_csv,
    write_map_samples_csv,
)

P = ComplexPolynomial
R = RationalMap


def test_complex_round_trip():
    z = 1.25 - 3.5j
    assert complex_from_json(complex_to_json(z)) == z
    with pytest.raises(InputError):
        complex_from_json([1.0])
    with pytest.raises(InputError):
        complex_from_json("nope")


def test_sphere_point_round_trip():
    assert sphere_point_from_json(sphere_point_to_json(INF)) is INF
    assert sphere_point_from_json(sphere_point_to_json(2 + 1j)) == 2 + 1j


def test_poly_round_trip():
    p = P([1.5, 0, -2j])
    assert poly_from_json(poly_to_json(p)) == p


def test_rational_round_trip():
    f = R(P([1, 2]), P.from_roots([0.5, -1.0]))
    g = rational_from_json(rational_to_json(f))
    assert g.num == f.num and g.den == f.den
    # bare polynomial array is accepted
    h = rational_from_json([[1.0, 0.0], [0.0, 1.0]])
    assert h.is_polynomial


def test_disc_domain_round_trip():
    d = Disc(1 - 1j, 2.5)
    assert disc_from_json(disc_to_json(d)) == d
    D = CircularDomain(Disc(0, 3.0), (Disc(1, 0.5), Disc(-1.5, 0.4)))
    D2 = domain_from_json(domain_to_json(D))
    assert D2.outer == D.outer and D2.holes == D.holes


def test_contour_round_trip_and_circle():
    c = contour_from_json(
        {"kind": "circle", "center": [0, 0], "radius": 1.0, "samples": 64}
    )
    assert c.closed and len(c.samples) == 65
    p = contour_from_json(contour_to_json(c))
    assert p.samples == c.samples
    with pytest.raises(InputError):
        contour_from_json({"kind": "spline"})


def test_grid_round_trip():
    g = ParamGrid.line(7, q_nodes=[0, 6])
    g2 = grid_from_json(grid_to_json(g))
    assert g2.shape == g.shape and g2.q_mask == g.q_mask
    g3 = grid_from_json({"shape": [3, 4], "q": [0]})
    assert g3.ndim == 2


def test_certificate_json_inf_clearance():
    cert = verify_immersion(R(P([0, 1])), Disc(0, 1.0), "C")
    data = certificate_to_json(cert)
    assert data["boundary_clearance"] == "inf"
    assert data["valid"] is True


def test_immersion_round_trip_evaluates_identically():
    f = R(P([1]), P.from_roots([0.3])) + R(P([0, 0.5]))
    F = extend_immersion(f, Disc(0, 1.0), Disc(0, 2.0), 1e-3)
    G = immersion_from_json(immersion_to_json(F))
    for z in (0.9, -0.5 + 0.2j, 0.2 + 0.6j):
        assert complex(G.evaluate(z)) == pytest.approx(complex(F.evaluate(z)), abs=1e-12)
    assert G.theta == F.theta
    assert max(abs(r) for r in G.residues()) < 1e-9
    # the measured boundary error is not serialized and not part of the value
    assert F.achieved_eps is not None and G.achieved_eps is None
    assert G == F


def test_dumps_deterministic():
    obj = {"b": 1.5, "a": [1e-9, "inf"], "nested": {"y": 2, "x": 1}}
    assert dumps(obj) == dumps(obj)
    assert dumps(obj).endswith("\n")


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    ts = [0.0, 0.5, 1.0]
    zs = [0j, 1 + 1j, 2 - 0.25j]
    write_curve_csv(path, ts, zs)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "re", "im"]
    assert float(rows[2][1]) == 1.0 and float(rows[2][2]) == 1.0


def test_map_samples_csv_with_infinity(tmp_path):
    path = tmp_path / "samples.csv"
    write_map_samples_csv(path, [0.3, 1.0], [INF, 2 - 1j])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["z_re", "z_im", "f_re", "f_im"]
    assert rows[1][2] == "inf"
    assert float(rows[2][2]) == 2.0
