import numpy as np
import pytest

from meroimm import INF, InputError, chordal_distance, is_inf


def test_examples():
    assert chordal_distance(0j, 0j) == 0.0
    assert chordal_distance(0j, INF) == 2.0
    # antipodal equatorial pair: the stated formula gives exactly 2
    assert chordal_distance(1 + 0j, -1 + 0j) == pytest.approx(2.0)


def test_formula_value():
    # 2|p-q| / sqrt((1+|p|^2)(1+|q|^2))
    p, q = 1 + 2j, -0.5j
    want = 2 * abs(p - q) / np.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2))
    assert chordal_distance(p, q) == pytest.approx(want)


def test_infinity_handling():
    assert chordal_distance(INF, INF) == 0.0
    assert chordal_distance(3 + 4j, INF) == pytest.approx(2.0 / np.sqrt(26.0))
    big = 1e200 + 0j
    assert chordal_distance(big, INF) < 1e-100
    assert chordal_distance(big, -big) < 1e-100  # both at the pole in doubles


def test_is_inf():
    assert is_inf(INF)
    assert is_inf(complex(np.inf, 0))
    assert not is_inf(5 + 1j)
    # C99 Annex G: an infinite part makes a complex infinite, a NaN part alone does not
    assert is_inf(complex(np.inf, np.nan))
    assert not is_inf(complex(np.nan, 0))
    # a real infinity is the point at infinity too, whatever its float type
    for x in (float("inf"), float("-inf"), np.float64(np.inf)):
        assert is_inf(x)
    assert not is_inf(2.5) and not is_inf(np.float64(2.5)) and not is_inf(float("nan"))


def test_range_symmetry_triangle(rng):
    pts = []
    for _ in range(60):
        pts.append(complex(rng.normal() * 3, rng.normal() * 3))
    pts += [INF, 0j, 1e6 + 0j]
    for _ in range(300):
        a, b, c = (pts[i] for i in rng.integers(0, len(pts), 3))
        dab = chordal_distance(a, b)
        assert 0.0 <= dab <= 2.0
        assert dab == pytest.approx(chordal_distance(b, a))
        assert dab <= chordal_distance(a, c) + chordal_distance(c, b) + 1e-12


@pytest.mark.parametrize(
    "p, q",
    [(np.nan, 0j), (complex(1, np.nan), 1 + 0j), (0j, complex(np.nan, 0)), (INF, np.nan)],
)
def test_chordal_distance_refuses_nan(p, q):
    # NaN is no point of the sphere; it once read 2.0, or 1.414 as INF
    with pytest.raises(InputError):
        chordal_distance(p, q)


def test_chordal_distance_keeps_infinity():
    # INF, complex("inf") and a complex with one infinite part are the pole
    for inf in (INF, complex("inf"), complex(np.inf, np.nan)):
        assert chordal_distance(inf, 0j) == 2.0
        assert chordal_distance(inf, INF) == 0.0

