import csv
import json
import math

import numpy as np
import pytest

from meroimm import (
    INF,
    ComplexPolynomial,
    Contour,
    Disc,
    InputError,
    RationalMap,
    extend_immersion,
    verify_immersion,
)
from meroimm.serialize import (
    certificate_to_json,
    complex_from_json,
    complex_to_json,
    contour_from_json,
    disc_from_json,
    disc_to_json,
    domain_from_json,
    dumps,
    grid_from_json,
    immersion_from_json,
    immersion_to_json,
    pole_set_from_json,
    poly_from_json,
    poly_to_json,
    rational_from_json,
    rational_to_json,
    sphere_point_from_json,
    sphere_point_to_json,
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
    D = domain_from_json({
        "outer": {"center": [0, 0], "radius": 3.0},
        "holes": [{"center": [1, 0], "radius": 0.5}, {"center": [-1.5, 0], "radius": 0.4}],
    })
    assert D.outer == Disc(0, 3.0) and D.holes == (Disc(1, 0.5), Disc(-1.5, 0.4))
    with pytest.raises(InputError):
        domain_from_json({"outer": {"center": [0, 0], "radius": math.inf}})


def test_contour_round_trip_and_circle():
    c = contour_from_json(
        {"kind": "circle", "center": [0, 0], "radius": 1.0, "samples": 64}
    )
    assert c.closed and len(c.samples) == 65
    p = contour_from_json({"kind": "polyline", "points": [[0, 0], [1, 0.5], [0, 1]], "closed": True})
    assert p.closed and p.samples == (0j, 1 + 0.5j, 1j, 0j)
    with pytest.raises(InputError):
        contour_from_json({"kind": "spline"})


@pytest.mark.parametrize("order", [1.9, True, "x"])
def test_pole_set_refuses_an_order_that_is_not_an_integer(order):
    with pytest.raises(InputError, match="integer|malformed"):
        pole_set_from_json([{"location": [0.0, 0.0], "order": order}])
    assert pole_set_from_json([{"location": [0.0, 0.0], "order": 2.0}]).orders == (2,)


def test_grid_round_trip():
    g = grid_from_json({"shape": [7], "q": [0, 6]})
    assert g.shape == (7,) and g.q_indices == [0, 6]
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
    assert immersion_to_json(G) == immersion_to_json(F)
    assert max(abs(r) for r in G.residues()) < 1e-9
    # the measured boundary error is not serialized and not part of the value
    assert F.achieved_eps is not None and G.achieved_eps is None
    assert G == F


def _quintic_extension():
    return extend_immersion(R(P([0, 1, 0, 0, 0, 0.1])), Disc(0, 1.0), Disc(0, 2.0), 1e-3)


def test_immersion_reads_back_exactly():
    # the computed polynomials are read untrimmed: trimming at COEFF_TOL drops
    # the leading coefficient of this xi and moves its values on |z| = 1.9
    F = _quintic_extension()
    text = dumps(immersion_to_json(F))
    G = immersion_from_json(json.loads(text))
    assert G == F and G.xi == F.xi and G.eta_parts.expanded == F.eta_parts.expanded
    assert dumps(immersion_to_json(G)) == text


def test_immersion_reader_refuses_derived_fields_that_disagree():
    data = json.loads(dumps(immersion_to_json(_quintic_extension())))
    data["xi"][1][0] += 0.1
    with pytest.raises(InputError):
        immersion_from_json(data)
    for field in ("theta", "expanded", "nodes"):
        data = json.loads(dumps(immersion_to_json(_quintic_extension())))
        where = data["eta"] if field in data["eta"] else data
        where[field] = where[field] + [[0.0, 1.0]]
        with pytest.raises(InputError):
            immersion_from_json(data)


def test_immersion_reader_refuses_malformed_input():
    data = immersion_to_json(_quintic_extension())
    with pytest.raises(InputError):
        immersion_from_json({k: v for k, v in data.items() if k != "scale"})
    with pytest.raises(InputError):
        immersion_from_json({**data, "eta": 5})
    for poles in ([5], [{"location": [0, 0], "order": "x"}]):
        with pytest.raises(InputError):
            pole_set_from_json(poles)


def test_dumps_deterministic():
    obj = {"b": 1.5, "a": [1e-9, "inf"], "nested": {"y": 2, "x": 1}}
    assert dumps(obj) == dumps(obj)
    assert dumps(obj).endswith("\n")


def test_map_samples_csv_with_infinity(tmp_path):
    path = tmp_path / "samples.csv"
    write_map_samples_csv(path, [0.3, 1.0], [INF, 2 - 1j])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["z_re", "z_im", "f_re", "f_im"]
    assert rows[1][2] == "inf"
    assert float(rows[2][2]) == 2.0
