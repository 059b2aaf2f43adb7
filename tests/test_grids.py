import numpy as np
import pytest

from meroimm import InputError, ParamGrid


def test_line_basics():
    g = ParamGrid.line(5, q_nodes=[0, 4])
    assert g.npoints == 5
    assert g.points[0] == (0.0,)
    assert g.points[-1] == (1.0,)
    assert g.q_indices == [0, 4]
    assert g.adjacent_pairs() == [(0, 1), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("make", [
    lambda: ParamGrid.line(3.9), lambda: ParamGrid.line(4, q_nodes=[1.6]),
    lambda: ParamGrid.line(4, q_nodes=[True]), lambda: ParamGrid.box(3, 2.5),
    lambda: ParamGrid.box(3, 3, q_nodes=[0.5]), lambda: ParamGrid((3.9,), (False,) * 3),
])
def test_a_size_or_q_node_that_is_not_an_integer_is_refused(make):
    with pytest.raises(InputError, match="integer"):
        make()
    assert ParamGrid.line(4.0, q_nodes=[1.0]) == ParamGrid.line(4, q_nodes=[1])


def test_box_basics():
    g = ParamGrid.box(3, 4)
    assert g.npoints == 12
    assert g.ndim == 2
    assert g.point(0) == (0.0, 0.0)
    assert g.point(11) == (1.0, 1.0)
    assert len(g.adjacent_pairs()) == 2 * 4 + 3 * 3 * 1 + 0  # 17 edges


def test_validation():
    with pytest.raises(InputError):
        ParamGrid.line(1)
    with pytest.raises(InputError):
        ParamGrid.line(5, q_nodes=[7])
    with pytest.raises(InputError):
        ParamGrid((2, 2, 2), (False,) * 8)


def _hat_weights(g, p):
    # the net weights of the full grid: its hat functions
    return g.net_weights(range(g.npoints), p)


def test_hat_weights_partition_of_unity(rng):
    for g in (ParamGrid.line(7), ParamGrid.box(4, 5)):
        for _ in range(50):
            p = tuple(rng.random(g.ndim))
            w = _hat_weights(g, p)
            assert np.all(w >= 0)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)


def test_hat_weights_at_nodes_are_kronecker():
    # each node's only positive weight is on itself, bit for bit, so the full
    # grid always meets blend_parametric's closeness condition
    for g in (ParamGrid.line(6), ParamGrid.box(4, 5)):
        for i in range(g.npoints):
            w = _hat_weights(g, g.point(i))
            assert np.array_equal(w, np.eye(g.npoints)[i])


def test_hat_weights_single_cell_support(rng):
    g = ParamGrid.line(9)
    for _ in range(30):
        x = float(rng.random())
        w = _hat_weights(g, (x,))
        support = np.nonzero(w > 0)[0]
        # positive weight only at the two nodes bounding the cell of x
        assert len(support) <= 2
        h = 1.0 / 8.0
        for i in support:
            assert abs(x - i * h) < h + 1e-12


def test_net_indices_and_weights():
    g = ParamGrid.line(9)
    net = g.net_indices(4)
    assert net == [0, 4, 8]
    w = g.net_weights(net, (0.25,))
    assert w == pytest.approx([0.5, 0.5, 0.0])
    w = g.net_weights(net, g.point(4))
    assert w == pytest.approx([0.0, 1.0, 0.0])
    assert np.sum(g.net_weights(net, (0.9,))) == pytest.approx(1.0)
    full = g.net_indices(1)
    assert full == list(range(9))


def test_net_weights_2d():
    g = ParamGrid.box(5, 5)
    net = g.net_indices(4)
    assert len(net) == 4
    w = g.net_weights(net, (0.5, 0.5))
    assert np.sum(w) == pytest.approx(1.0)
    assert np.all(np.asarray(w) == 0.25)


def _tried_strides(g):
    # the strides blend_parametric may take, coarsest first
    stride, out = max(g.shape) - 1, []
    while True:
        out.append(stride)
        if stride == 1:
            return out
        stride = max(1, stride // 2)


def _probe_points(g, rng):
    pts = [g.point(i) for i in range(g.npoints)]
    pts += [(0.0,) * g.ndim, (1.0,) * g.ndim, (0.0, 1.0)[: g.ndim], (1.0, 0.0)[: g.ndim]]
    pts += [tuple(rng.random(g.ndim)) for _ in range(50)]
    return pts


@pytest.mark.parametrize("g", [ParamGrid.line(101, q_nodes=[0, 100]), ParamGrid.line(7, q_nodes=[3]),
                               ParamGrid.box(9, 13, q_nodes=[58]), ParamGrid.box(5, 4, q_nodes=[0, 1, 9])])
def test_array_forms_equal_per_point_results(g, rng):
    pts = _probe_points(g, rng)
    for stride in _tried_strides(g):  # stride 1 is the full grid
        net = g.net_indices(stride)
        # the net nodes themselves are among the probes
        probes = pts + [g.point(j) for j in net]
        got = g.net_weights(net, np.array(probes))
        assert got.shape == (len(probes), len(net))
        assert np.array_equal(got, np.array([g.net_weights(net, p) for p in probes]))


def test_net_weights_on_net_nodes_are_kronecker():
    for g in (ParamGrid.line(101), ParamGrid.box(9, 13)):
        for stride in _tried_strides(g):
            net = g.net_indices(stride)
            w = g.net_weights(net, np.array([g.point(j) for j in net]))
            assert np.array_equal(w, np.eye(len(net)))


def test_net_weights_match_linear_interpolation():
    # uneven last interval: the stride-3 net of a 9-point axis is 0, 3, 6, 8
    g = ParamGrid.line(9)
    net = g.net_indices(3)
    assert net == [0, 3, 6, 8]
    w = g.net_weights(net, np.array([[0.5], [0.8125], [0.875], [1.0]]))
    assert w[0] == pytest.approx([0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])
    assert np.array_equal(w[1], [0.0, 0.0, 0.75, 0.25])
    assert np.array_equal(w[2], [0.0, 0.0, 0.5, 0.5])
    assert np.array_equal(w[3], [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("method", ["hat_weights", "net_weights"])
def test_weights_validate_parameters(method):
    line, box = ParamGrid.line(11, q_nodes=[0]), ParamGrid.box(5, 4, q_nodes=[0])

    def call(g, p):
        if method == "net_weights":
            return g.net_weights(g.net_indices(2), p)
        return _hat_weights(g, p)

    bad = [
        (line, (0.3, 7.0)),                     # a second coordinate on a 1-d grid
        (line, 1.7), (line, -3), (line, (1.0 + 1e-9,)),
        (box, 0.5),                             # a scalar on a 2-d grid
        (box, (0.5,)), (box, (0.5, 0.5, 0.5)), (box, (0.5, -0.1)),
        (box, (float("nan"), 0.5)),
        (line, np.array([[0.2], [1.5]])),       # one bad row spoils the array
        (line, np.array([[0.2, 0.3]])), (line, np.array([0.2, 0.3])),
        (box, np.array([[0.2], [0.3]])), (box, np.array([[0.2, 0.3], [0.4, -1.0]])),
        (box, np.zeros((2, 2, 2))),
    ]
    for g, p in bad:
        with pytest.raises(InputError):
            call(g, p)
    if method == "net_weights":
        for net in ([], [0, 11], [-1, 10]):
            with pytest.raises(InputError):
                line.net_weights(net, 0.5)
    # the 1e-12 slack that absorbs rounding dust is kept
    for g, p in [(line, -1e-13), (line, (1.0 + 1e-13,)), (box, (1e-13 - 1e-12, 1.0)),
                 (box, np.array([[0.5, 1.0 + 5e-13]]))]:
        call(g, p)
