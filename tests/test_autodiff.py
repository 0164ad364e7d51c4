import dataclasses
import functools
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurodiff import autodiff as ad
from neurodiff import losses, operators
from neurodiff.network import MLP, MLPSpec


def scalar(v):
    return ad.variable(np.array([[float(v)]]))


def central_fd(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2 * h)


class TestForward:
    def test_tanh_at_origin(self):
        assert ad.tanh(scalar(0.0)).value[0, 0] == 0.0

    def test_matmul_of_ones(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((3, 1)))
        out = ad.matmul(a, b)
        assert out.value.shape == (2, 1)
        assert np.all(out.value == 3.0)

    def test_exp_library_constant(self):
        assert ad.exp(scalar(1.0)).value[0, 0] == pytest.approx(
            2.718281828459045, abs=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.constant(np.ones((2, 1)))
        b = ad.constant(np.ones((3, 1)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 1\).*\(3, 1\)"):
            ad.add(a, b)

    @pytest.mark.parametrize("sa,sb", [((1, 3), (4, 2)), ((2, 3), (4, 3)),
                                       ((4, 3), (1, 2))])
    def test_only_scalars_and_rows_broadcast(self, sa, sb):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant(np.ones(sa)), ad.constant(np.ones(sb)))

    def test_row_broadcasts_down_a_tensor(self):
        row = ad.constant(np.array([[1.0, 2.0, 3.0]]))
        tensor = ad.constant(np.arange(12.0).reshape(4, 3))
        for out in (row + tensor, tensor - row, row * tensor):
            assert out.shape == (4, 3)
        np.testing.assert_array_equal((tensor - row).value,
                                      tensor.value - row.value)

    def test_columns(self):
        a = ad.constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.column(a, 1).value, [[1], [3], [5]])
        joined = ad.concat_cols([ad.column(a, 1), ad.column(a, 0)])
        np.testing.assert_array_equal(joined.value, a.value[:, ::-1])
        col = ad.column(a, 0)
        assert ad.concat_cols([col]) is col
        assert ad.column(col, 0) is col
        with pytest.raises(ad.ShapeError):
            ad.concat_cols([col, ad.constant(np.ones((2, 1)))])
        with pytest.raises(ad.ShapeError):
            ad.concat_cols([col, ad.constant(np.ones((2, 2)))])
        # a column and a block join; C-ordered unless F is asked for
        joined = ad.concat_cols([col, a])
        np.testing.assert_array_equal(joined.value,
                                      [[0, 0, 1], [2, 2, 3], [4, 4, 5]])
        assert joined.value.flags.c_contiguous
        assert ad.concat_cols([col, a], order="F").value.flags.f_contiguous
        for j in (2, -1):
            with pytest.raises(ad.ShapeError):
                ad.column(a, j)
        np.testing.assert_array_equal(ad.columns(a, 1, 2).value, [[1], [3], [5]])
        assert ad.columns(a, 0, 2) is a
        for lo, hi in ((1, 1), (0, 3), (-1, 1), (2, 1)):
            with pytest.raises(ad.ShapeError):
                ad.columns(a, lo, hi)

    def test_transpose_is_a_view(self):
        x = ad.variable(np.arange(6.0).reshape(2, 3))
        t = ad.transpose(x)
        assert t.shape == (3, 2)
        assert np.shares_memory(t.value, x.value)

    def test_nonfinite_propagates(self):
        out = ad.log(scalar(-1.0))
        assert np.isnan(out.value[0, 0])
        out = ad.div(scalar(1.0), scalar(0.0))
        assert np.isinf(out.value[0, 0])

    def test_determinism(self):
        def build():
            x = ad.variable(np.linspace(-1, 1, 7).reshape(-1, 1))
            return ad.reduce_sum(ad.tanh(x * 3.0 + 0.5) ** 2).value
        assert build().tobytes() == build().tobytes()


class TestBackward:
    def test_bilinear(self):
        x, y = scalar(2.0), scalar(3.0)
        gx, gy = ad.backward(ad.reduce_sum(x * y), [x, y])
        assert gx.value[0, 0] == 3.0
        assert gy.value[0, 0] == 2.0

    def test_second_derivative_of_sin(self):
        x = scalar(np.pi / 2)
        d2 = ad.diff(ad.sin(x), x, 2)
        assert d2.value[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_tanh_matches_finite_difference(self):
        xv = 0.2
        x = scalar(xv)
        g = ad.diff(ad.tanh(3.0 * x + 1.0), x)
        fd = central_fd(lambda t: np.tanh(3 * t + 1), xv)
        assert g.value[0, 0] == pytest.approx(fd, rel=1e-6)

    def test_non_scalar_output_rejected(self):
        x = ad.variable(np.ones((3, 1)))
        with pytest.raises(ad.ShapeError):
            ad.backward(x * 2.0, [x])

    def test_unreachable_wrt_gives_zeros(self):
        x, y = scalar(1.0), scalar(2.0)
        (g,) = ad.backward(ad.reduce_sum(x * x), [y])
        assert np.all(g.value == 0.0)

    def test_single_traversal_multi_wrt(self):
        x, y, z = scalar(1.0), scalar(2.0), scalar(3.0)
        out = ad.reduce_sum(x * y * z)
        gx, gy, gz = ad.backward(out, [x, y, z])
        assert (gx.value[0, 0], gy.value[0, 0], gz.value[0, 0]) == (6.0, 3.0, 2.0)


class TestNthDerivative:
    def test_cubic(self):
        x = scalar(2.0)
        d2 = ad.diff(x ** 3, x, order=2)
        assert d2.value[0, 0] == pytest.approx(12.0, abs=1e-12)

    def test_third_order_exp(self):
        x = scalar(0.0)
        d3 = ad.diff(ad.exp(x), x, order=3)
        assert d3.value[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_second_of_tanh_matches_fd(self):
        xv = 0.7
        h = 1e-4
        fd = (np.tanh(xv + h) - 2 * np.tanh(xv) + np.tanh(xv - h)) / h ** 2
        x = scalar(xv)
        d2 = ad.diff(ad.tanh(x), x, order=2)
        assert d2.value[0, 0] == pytest.approx(fd, rel=1e-5)

    def test_order_zero_rejected(self):
        x = scalar(1.0)
        with pytest.raises(ValueError):
            ad.diff(x, x, order=0)


UNARY_OPS = [
    ("exp", ad.exp, np.exp, (-2, 2)),
    ("ln", ad.log, np.log, (0.1, 2)),
    ("sin", ad.sin, np.sin, (-2, 2)),
    ("cos", ad.cos, np.cos, (-2, 2)),
    ("tanh", ad.tanh, np.tanh, (-2, 2)),
    ("pow3", lambda n: n ** 3.0, lambda v: v ** 3.0, (-2, 2)),
    ("abs", ad.absolute, np.abs, (0.05, 2)),
    ("neg", ad.neg, np.negative, (-2, 2)),
]


@pytest.mark.parametrize("name,op,ref,dom", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_gradcheck_unary(name, op, ref, dom):
    rng = np.random.Generator(np.random.Philox(key=(7, 7)))
    xs = rng.uniform(dom[0], dom[1], size=100)
    for xv in xs:
        x = scalar(xv)
        g = ad.backward(ad.reduce_sum(op(x)), [x])[0].value[0, 0]
        d = ad.diff(op(x), x).value[0, 0]
        fd = central_fd(ref, xv)
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)
        # one rule serves both sweeps, so they agree bit for bit
        assert d == g


BINARY_OPS = [
    ("add", ad.add, np.add),
    ("sub", ad.sub, np.subtract),
    ("mul", ad.mul, np.multiply),
    ("div", ad.div, np.divide),
]


@pytest.mark.parametrize("name,op,ref", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_gradcheck_binary(name, op, ref):
    rng = np.random.Generator(np.random.Philox(key=(8, 8)))
    for _ in range(100):
        av, bv = rng.uniform(-2, 2, size=2)
        if name == "div" and abs(bv) < 0.1:
            bv = 0.5
        a, b = scalar(av), scalar(bv)
        ga, gb = ad.backward(ad.reduce_sum(op(a, b)), [a, b])
        fa = central_fd(lambda t: ref(t, bv), av)
        fb = central_fd(lambda t: ref(av, t), bv)
        for operand, g, fd in ((a, ga, fa), (b, gb, fb)):
            d = ad.diff(op(a, b), operand).value[0, 0]
            assert g.value[0, 0] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)
            assert d == g.value[0, 0]


def test_gradcheck_matmul():
    rng = np.random.Generator(np.random.Philox(key=(9, 9)))
    a = ad.variable(rng.uniform(-2, 2, size=(3, 4)))
    b = ad.variable(rng.uniform(-2, 2, size=(4, 2)))
    ga, gb = ad.backward(ad.reduce_sum(ad.matmul(a, b)), [a, b])
    h = 1e-5
    for idx in [(0, 0), (2, 3)]:
        av = a.value.copy()
        up, dn = av.copy(), av.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (np.sum(up @ b.value) - np.sum(dn @ b.value)) / (2 * h)
        assert ga.value[idx] == pytest.approx(fd, rel=1e-6)


def test_gradcheck_columns_and_row_bias():
    rng = np.random.Generator(np.random.Philox(key=(11, 11)))
    w = ad.constant(rng.uniform(-2, 2, size=(2, 3)))
    p = ad.constant(rng.uniform(-2, 2, size=(4, 3)))

    def build(a, b):
        joined = ad.concat_cols([ad.sin(ad.column(a, 3)),
                                 ad.column(a, 0) * ad.column(a, 3)])
        return (ad.reduce_sum(ad.tanh(a + b))
                + ad.reduce_sum(ad.matmul(joined, w) * ad.matmul(b, p)))

    av = rng.uniform(-2, 2, size=(3, 4))
    bv = rng.uniform(-2, 2, size=(1, 4))
    a, b = ad.variable(av), ad.variable(bv)
    ga, gb = ad.backward(build(a, b), [a, b])
    h = 1e-5
    for which, grad, idx in [(0, ga, (0, 0)), (0, ga, (2, 3)), (0, ga, (1, 1)),
                             (1, gb, (0, 0)), (1, gb, (0, 3))]:
        sides = []
        for step in (h, -h):
            vals = [av.copy(), bv.copy()]
            vals[which][idx] += step
            sides.append(build(*map(ad.constant, vals)).value)
        fd = (sides[0] - sides[1]) / (2 * h)
        assert grad.value[idx] == pytest.approx(fd, rel=1e-6)


class TestNestedConsistency:
    CASES = [
        (ad.sin, lambda x: -np.sin(x)),
        (ad.exp, np.exp),
        (ad.tanh, lambda x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2)),
        (lambda n: n ** 4.0, lambda x: 12 * x ** 2),
    ]

    @pytest.mark.parametrize("fn,d2_ref", CASES, ids=["sin", "exp", "tanh", "x4"])
    def test_backward_of_backward(self, fn, d2_ref):
        for xv in [-1.2, -0.3, 0.4, 1.1]:
            x = scalar(xv)
            g1 = ad.backward(ad.reduce_sum(fn(x)), [x])[0]
            g2 = ad.backward(ad.reduce_sum(g1), [x])[0]
            assert g2.value[0, 0] == pytest.approx(d2_ref(xv), abs=1e-10)


def test_linearity_of_differentiation():
    rng = np.random.Generator(np.random.Philox(key=(10, 10)))
    for _ in range(20):
        xv, a_c, b_c = rng.uniform(-2, 2, size=3)
        x = scalar(xv)
        f, g = ad.sin(x), ad.exp(x)
        combo = a_c * f + b_c * g
        d_combo = ad.diff(combo, x).value[0, 0]
        x2 = scalar(xv)
        df = ad.diff(ad.sin(x2), x2).value[0, 0]
        x3 = scalar(xv)
        dg = ad.diff(ad.exp(x3), x3).value[0, 0]
        assert d_combo == pytest.approx(a_c * df + b_c * dg, abs=1e-12)


class TestAccumulateGradients:
    def _loss_fn(self, batch):
        w = ad.variable(np.array([[0.7]]))
        x = ad.constant(batch.reshape(-1, 1))
        pred = x * w
        target = ad.constant(2.0 * batch.reshape(-1, 1))
        loss = ad.reduce_mean((pred - target) ** 2)
        return float(loss.value), [g.value for g in ad.backward(loss, [w])]

    def test_single_batch_degenerate(self):
        batch = np.array([1.0, 2.0, 3.0])
        _, acc = ad.accumulate_gradients(self._loss_fn, [batch])
        _, direct = self._loss_fn(batch)
        np.testing.assert_allclose(acc[0], direct[0], atol=0)

    def test_two_batches_match_union(self):
        b1, b2 = np.array([1.0, 2.0]), np.array([3.0, -1.0, 0.5])
        _, acc = ad.accumulate_gradients(self._loss_fn, [b1, b2])
        _, union = self._loss_fn(np.concatenate([b1, b2]))
        np.testing.assert_allclose(acc[0], union[0], atol=1e-12)

    def test_identical_batches_symmetry(self):
        b = np.array([0.3, -0.9, 1.7])
        _, acc = ad.accumulate_gradients(self._loss_fn, [b, b, b])
        _, single = self._loss_fn(b)
        np.testing.assert_allclose(acc[0], single[0], atol=1e-12)

    def test_empty_batch_list_rejected(self):
        with pytest.raises(ValueError):
            ad.accumulate_gradients(self._loss_fn, [])

    def test_loss_is_the_union_batch_mean(self):
        b1, b2 = np.array([1.0, 2.0]), np.array([3.0, -1.0, 0.5])
        loss, _ = ad.accumulate_gradients(self._loss_fn, [b1, b2])
        union, _ = self._loss_fn(np.concatenate([b1, b2]))
        assert loss == pytest.approx(union, rel=1e-14)


def test_creation_order_is_topological():
    x = scalar(1.0)
    y = x * 2.0
    z = ad.exp(y)
    (g,) = ad.backward(ad.reduce_sum(z), [x])
    stack, seen = [g, z], set()
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen.add(node._id)
        for inp in node.inputs:
            assert inp._id < node._id
            stack.append(inp)
    assert len(seen) > 4


def test_graphs_are_freed_without_a_scope():
    mlp = MLP.init(MLPSpec(1, (16, 16), 1, seed=0))
    pts = np.linspace(-1.0, 1.0, 256).reshape(-1, 1)
    first = None
    for _ in range(100):
        x = ad.variable(pts)
        u = mlp.forward(x, mlp.param_nodes())
        d2 = ad.diff(u, x, order=2)
        if first is None:
            first = (weakref.ref(u.value), weakref.ref(d2.value))
    del x, u, d2
    assert first[0]() is None
    assert first[1]() is None


def _record_nodes(monkeypatch):
    built = []
    init = ad.Node.__init__

    def recording_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        built.append(node)
    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    return built


class TestPruning:
    def test_coordinate_derivative_builds_no_weight_gradients(self, monkeypatch):
        n = 5
        mlp = MLP.init(MLPSpec(1, (3, 4), 1, seed=0))
        x = ad.variable(np.linspace(-1.0, 1.0, n).reshape(-1, 1))
        u = mlp.forward(x, mlp.param_nodes())
        built = _record_nodes(monkeypatch)
        du = ad.diff(u, x)
        matmuls = [m for m in built if m.op == "matmul"]
        assert len(matmuls) == 3  # one tangent @ W.T per linear layer
        assert all(m.shape[0] == n for m in matmuls)
        weight_shapes = {w.shape for w in mlp.weights}
        weight_shapes |= {w.T.shape for w in mlp.weights}
        # tangents reuse the forward pass's transposed weights: no
        # transpose and no weight gradient is built
        assert not [m for m in built if m.shape in weight_shapes]
        monkeypatch.undo()
        # parameters no caller holds, which no sweep can take as a wrt
        frozen = mlp.forward(x)
        assert np.array_equal(du.value, ad.diff(frozen, x).value)

    def test_second_derivative_runs_no_reverse_pass(self, monkeypatch):
        mlp = MLP.init(MLPSpec(1, (4,), 1, seed=0))
        t = ad.variable(np.linspace(0.0, 1.0, 5).reshape(-1, 1))
        u = mlp.forward(t, mlp.param_nodes())
        calls = []
        monkeypatch.setattr(ad, "backward",
                            lambda *args: calls.append(args))
        d2 = ad.diff(u, t, 2)
        assert calls == []
        assert d2.shape == u.shape

    def test_scalar_tangent_is_broadcast_to_node_shape(self):
        s = scalar(0.5)
        tensor = ad.constant(np.arange(4.0).reshape(-1, 1))
        out = ad.add(s, tensor)
        d = ad.diff(out, s)
        assert d.shape == out.shape == (4, 1)
        np.testing.assert_array_equal(d.value, np.ones((4, 1)))
        d2 = ad.diff(ad.sin(s) * 2.0 + tensor, s, 2)
        np.testing.assert_allclose(d2.value, np.full((4, 1), -2 * np.sin(0.5)),
                                   rtol=1e-15)

    def test_derivative_of_independent_node_is_zero(self):
        x, y = scalar(1.0), ad.variable(np.ones((3, 1)))
        d = ad.diff(ad.tanh(y), x)
        np.testing.assert_array_equal(d.value, np.zeros((3, 1)))
        # any node may be the wrt, a constant that y does not read too
        d = ad.diff(y, ad.constant(np.ones((3, 1))))
        np.testing.assert_array_equal(d.value, np.zeros((3, 1)))

    def test_bias_is_added_by_row_broadcasting(self, monkeypatch):
        mlp = MLP.init(MLPSpec(2, (3, 4), 1, seed=0))
        batch = ad.variable(np.linspace(-1.0, 1.0, 10).reshape(5, 2))
        params = mlp.param_nodes()
        built = _record_nodes(monkeypatch)
        mlp.forward(batch, params)
        matmuls = [m for m in built if m.op == "matmul"]
        assert len(matmuls) == 3
        assert all(m.inputs[0].shape[1] != 1 for m in matmuls)

    def test_parameter_gradient_builds_no_coordinate_adjoint(self, monkeypatch):
        x = ad.variable(np.linspace(-1.0, 1.0, 6).reshape(-1, 1))
        w = ad.variable(np.array([[0.3]]))
        loss = ad.reduce_mean(ad.tanh(ad.matmul(x, w)) ** 2.0)
        built = _record_nodes(monkeypatch)
        ad.backward(loss, [w])
        assert not any(m.shape == x.shape and m.op == "matmul" for m in built)

    def test_one_factor_node_per_tanh_layer(self, monkeypatch):
        n, width = 5, 8
        mlp = MLP.init(MLPSpec(1, (width, width), 1, seed=0))
        t = ad.variable(np.linspace(0.0, 1.0, n).reshape(-1, 1))
        params = mlp.param_nodes()
        u = mlp.forward(t, params)
        built = _record_nodes(monkeypatch)
        d2 = ad.diff(u, t, 2)
        factors = [m for m in built if m.op == "dtanh"]
        assert len(factors) == 2
        assert all(f.inputs[0].op == "tanh" for f in factors)
        assert not [m for m in built
                    if m.op in ("sub", "neg") and m.shape == (n, width)]
        # the reverse sweep through both tanh layers builds its own
        del built[:]
        ad.backward(ad.reduce_mean((d2 + u) * (d2 + u)), params)
        assert len([m for m in built if m.op == "dtanh"]) == 2
        assert not [m for m in built
                    if m.op in ("sub", "neg") and m.shape == (n, width)]


def _dead_nodes(monkeypatch, output, wrt):
    """The ops of the nodes ``backward(output, wrt)`` builds that are not
    below a returned gradient, less the output's seed adjoint."""
    built = _record_nodes(monkeypatch)
    grads = ad.backward(output, wrt)
    monkeypatch.undo()
    seed, *rest = built
    assert seed.op == "constant" and seed.shape == output.shape
    below = {n._id for n in ad._below(grads)}
    return [n.op for n in rest if n._id not in below]


def _nested_loss(kind):
    """A 2-D problem's loss of ``kind`` (an order-2 residual) and the sum
    of the squared parameter gradients, with the parameters and
    coordinates."""
    mlp = MLP.init(MLPSpec(2, (5, 4), 1, seed=4))
    rng = np.random.Generator(np.random.Philox(key=4))
    xs = [ad.variable(v) for v in rng.uniform(0.3, 1.2, (2, 6, 1))]
    params = mlp.param_nodes()
    u = mlp.forward(ad.concat_cols(xs), params)
    r = ad.diff(u, xs[0], 2) - ad.diff(u, xs[1]) * u
    loss = losses.loss(losses.LossSpec(kind), r, coords=xs)
    grads = ad.backward(loss, params)
    return loss, sum(ad.reduce_sum(g * g) for g in grads), params, xs


class TestActivity:
    """A sweep builds nodes only where a derivative of a wrt node goes:
    never through a no-gradient op (abs's sign, max's argmax mask), nor to
    a guard's checked inputs."""

    @pytest.mark.parametrize("kind", ["l1", "linf"])
    def test_a_nested_parameter_sweep_builds_only_what_it_returns(
            self, monkeypatch, kind):
        loss, norm, params, xs = _nested_loss(kind)
        assert _dead_nodes(monkeypatch, loss, params) == []
        assert _dead_nodes(monkeypatch, norm, params) == []
        assert _dead_nodes(monkeypatch, norm, xs) == []

    def test_a_coordinate_sweep_through_a_guarded_laplacian(self,
                                                            monkeypatch):
        mlp = MLP.init(MLPSpec(3, (6,), 1, seed=5))
        rng = np.random.Generator(np.random.Philox(key=5))
        coords = [ad.variable(rng.uniform(lo, hi, (5, 1)))
                  for lo, hi in ((0.5, 1.5), (0.3, 2.8), (0.0, 6.0))]
        params = mlp.param_nodes()
        u = mlp.forward(ad.concat_cols(coords), params)
        lap = operators.laplacian(u, coords, "spherical")
        assert lap.op == "guard"
        r = lap - abs(u)
        loss = ad.reduce_mean(r * r)
        assert _dead_nodes(monkeypatch, loss, coords) == []
        assert _dead_nodes(monkeypatch, loss, params) == []

    # the nodes each sweep builds, in order, through u = f(sin(x) * y)
    SWEEPS = {
        ("abs", "diff"): "constant cos mul mul sign mul sin mul neg mul mul "
                         "mul",
        ("abs", "laplacian"): "constant constant cos mul mul sign mul mul "
                              "sign mul sin mul neg mul mul sign mul",
        ("max", "diff"): "constant cos mul mul argmax_mask mul sum mul mul "
                         "add sin mul neg mul mul mul sum mul mul add mul "
                         "add",
        ("max", "laplacian"): "constant constant cos mul mul argmax_mask mul "
                              "sum mul mul add mul argmax_mask mul sum mul "
                              "sin mul neg mul mul argmax_mask mul sum mul "
                              "mul mul add add",
    }

    @pytest.mark.parametrize("op,sweep", sorted(SWEEPS))
    def test_second_order_sweeps_through_no_gradient_ops(self, monkeypatch,
                                                         op, sweep):
        x = ad.variable(np.linspace(-1.0, 1.0, 4).reshape(-1, 1))
        y = ad.variable(np.linspace(0.5, 2.0, 4).reshape(-1, 1))
        v = ad.sin(x) * y
        u = abs(v) if op == "abs" else ad.reduce_max(v) * x
        built = _record_nodes(monkeypatch)
        d2 = ad.diff(u, x, 2) if sweep == "diff" else ad.laplacian(u, [x, y])
        assert " ".join(n.op for n in built) == self.SWEEPS[op, sweep]
        if sweep == "laplacian":
            return
        # sign(sin(x) y) and the argmax are constant near these points; the
        # tangent of max(v) along ones is v's at the argmax k
        if op == "abs":
            want = -np.sin(x.value) * y.value * np.sign(v.value)
        else:
            k = np.argmax(v.value)
            xk, yk = x.value[k], y.value[k]
            want = -np.sin(xk) * yk * x.value + 2.0 * np.cos(xk) * yk
        np.testing.assert_allclose(d2.value, want, rtol=1e-14, atol=1e-15)

    def test_a_guard_is_active_through_its_node_alone(self, monkeypatch):
        x = ad.variable(np.linspace(0.5, 1.5, 4).reshape(-1, 1))
        c = ad.constant(np.linspace(-1.0, 1.0, 4).reshape(-1, 1))
        checked = ad._guard(ad.sin(c), [x], lambda v: None)
        loss = ad.reduce_sum(checked * x)
        assert _dead_nodes(monkeypatch, loss, [x]) == []
        (gx,) = ad.backward(loss, [x])
        np.testing.assert_array_equal(gx.value, np.sin(c.value))

    def test_a_no_gradient_op_as_a_wrt_gets_no_adjoint_past_it(self):
        x = ad.variable(np.linspace(-1.0, 1.0, 4).reshape(-1, 1))
        s = ad._sign(x)
        gx, gs = ad.backward(ad.reduce_sum(s * x), [x, s])
        np.testing.assert_array_equal(gx.value, s.value)
        np.testing.assert_array_equal(gs.value, x.value)


def _three_node_tanh_jvp(node, t, jvp=ad._jvp):
    """The tanh rule that builds its derivative factor as 1 - h*h."""
    if node.op == "tanh":
        return ad.mul(t[0], 1.0 - ad.mul(node, node))
    return jvp(node, t)


def _cast(mlp, dtype):
    """``mlp`` with its weights and biases cast to ``dtype``."""
    return MLP(mlp.spec, [w.astype(dtype) for w in mlp.weights],
               [b.astype(dtype) for b in mlp.biases])


def _mlp_problem(seed, widths, dtype):
    """A random tanh MLP with random biases, in ``dtype``, and 17 random
    points."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    mlp = MLP.init(MLPSpec(1, widths, 1, seed=seed))
    biases = [rng.uniform(-1.0, 1.0, b.shape) for b in mlp.biases]
    mlp = _cast(MLP(mlp.spec, mlp.weights, biases), dtype)
    return mlp, rng.uniform(-1.0, 1.0, (17, 1)).astype(dtype)


def _order2_residual(mlp, xv):
    x = ad.variable(xv)
    params = mlp.param_nodes()
    u = mlp.forward(x, params)
    return x, u, params, ad.diff(u, x, 2) + u


def _mlp_derivatives(seed, widths, dtype):
    """diff orders 1-3 and the parameter gradient of an order-2 residual
    loss of ``_mlp_problem``."""
    x, u, params, r = _order2_residual(*_mlp_problem(seed, widths, dtype))
    orders = [ad.diff(u, x, k).value for k in (1, 2, 3)]
    grads = [g.value for g in ad.backward(ad.reduce_mean(r * r), params)]
    return orders, grads


def _per_sample_gradient_magnitudes(seed, widths, dtype):
    """sum_i |d(r_i^2 / N) / d theta| for each parameter entry: the
    magnitudes of the per-sample terms that the loss gradient sums, taken
    in float64 on the ``dtype`` problem's own (rounded) values."""
    mlp, xv = _mlp_problem(seed, widths, dtype)
    x, _, params, r = _order2_residual(_cast(mlp, np.float64),
                                       xv.astype(np.float64))
    total = [np.zeros(p.shape) for p in params]
    for i in range(xv.shape[0]):
        mask = np.zeros(xv.shape)
        mask[i] = 1.0 / xv.shape[0]
        grads = ad.backward(ad.reduce_sum(r * r * ad.constant(mask)), params)
        total = [t + np.abs(g.value) for t, g in zip(total, grads)]
    return total


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       widths=st.lists(st.integers(1, 16), min_size=1, max_size=3),
       dtype=st.sampled_from([np.float64, np.float32]))
# float32 draws that a bound of 32 eps of each array's own largest entry
# failed: a gradient entry that is a cancelling sum of larger terms
@example(seed=1, widths=[1, 13, 1], dtype=np.float32)
@example(seed=10491, widths=[1, 14, 10], dtype=np.float32)
def test_tanh_derivative_matches_three_node_rule(seed, widths, dtype):
    orders, grads = _mlp_derivatives(seed, tuple(widths), dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_jvp", _three_node_tanh_jvp)
        ref_orders, ref_grads = _mlp_derivatives(seed, tuple(widths), dtype)
    # -2h * t and -(h*t + t*h) round alike, so the tangents are equal
    for got, ref in zip(orders, ref_orders):
        assert np.array_equal(got, ref)
    for got, ref in zip(grads, ref_grads):
        assert got.dtype == dtype
    if dtype == np.float64:
        for got, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
        return
    # the reverse sweep adds h's adjoint terms in another order.  A sum's
    # rounding error is bounded by eps times the sum of its terms'
    # magnitudes, not by eps times the result, and a gradient entry sums
    # per-sample terms that may cancel to far below their size (a bias
    # gradient of 2e-4 from terms of 1e-1).  So each entry may differ by
    # 32 float32 eps (room for the few roundings a reordered sum's error
    # passes through) of its per-sample terms' summed magnitudes
    scale = _per_sample_gradient_magnitudes(seed, tuple(widths), dtype)
    eps = np.finfo(np.float32).eps
    for got, ref, s in zip(grads, ref_grads, scale):
        diff = np.abs(got.astype(np.float64) - ref)
        assert (diff <= 32 * eps * s).all(), (diff.max(), s.max())


def _residual_sweeps(u, xs, params):
    """du/dt, the Laplacian of u along x, y and z, and the parameter
    gradient of the mean squared du/dt - Laplacian."""
    x, t, y, z = xs
    du = ad.diff(u, t)
    lap = ad.laplacian(u, [x, y, z])
    r = du - lap
    return [du, lap, *ad.backward(ad.reduce_mean(r * r), params)]


# sweeps of u = x * N(x, t, y, z), given its coordinates and parameters
MLP_SWEEPS = {
    "diff": lambda u, xs, params: [ad.diff(u, xs[1])],
    "diff2": lambda u, xs, params: [ad.diff(u, xs[1], 2)],
    "laplacian": lambda u, xs, params: [ad.laplacian(u, [xs[0], *xs[2:]])],
    "backward": lambda u, xs, params: ad.backward(ad.reduce_mean(u * u),
                                                  params),
    "residual": _residual_sweeps,
}


def _alone_and_together(build, sweeps, names):
    """The results of the ``sweeps`` named, each taken first on a graph of
    its own from ``build()``, and all taken in turn on one graph, as two
    lists that start with the graph's output.  ``build()`` returns the
    output and the further arguments of a sweep."""
    out, *args = build()
    together = [out] + [r for name in names for r in sweeps[name](out, *args)]
    alone = [build()[0]]
    for name in names:
        out, *args = build()
        alone += sweeps[name](out, *args)
    return alone, together


def _assert_same_bits(got, want, dtype):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.value.dtype == w.value.dtype == dtype
        assert g.value.tobytes() == w.value.tobytes()


class TestDerivativeFactor:
    """A tanh node's factor dtanh(h), and a dtanh node's -2h, are built by
    each sweep that passes the node, so no sweep depends on another."""

    @staticmethod
    def graph(mlp, xvs):
        """u = x * N(x, t, y, z), its coordinates and its parameters."""
        xs = [ad.variable(v) for v in xvs]
        params = mlp.param_nodes()
        return _trial(mlp, xs, params), xs, params

    @classmethod
    def sweeps(cls, mlp, xvs):
        """u, du/dt, its Laplacian along x, y and z, and the parameter
        gradient of the mean squared du/dt - Laplacian."""
        u, xs, params = cls.graph(mlp, xvs)
        return [u, *_residual_sweeps(u, xs, params)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float64, np.float32]),
           names=st.lists(st.sampled_from(sorted(MLP_SWEEPS)), min_size=2,
                          max_size=4))
    def test_a_sweep_gives_the_bits_it_gives_alone(self, seed, dtype, names):
        mlp, xvs = _laplacian_problem(seed, (8, 8), 4, dtype)
        alone, together = _alone_and_together(
            lambda: self.graph(mlp, xvs), MLP_SWEEPS, names)
        _assert_same_bits(together, alone, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_values_equal_the_three_node_rule(self, dtype):
        mlp, xvs = _laplacian_problem(3, (8, 8), 4, dtype)
        got = self.sweeps(mlp, xvs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_jvp", _three_node_tanh_jvp)
            want = self.sweeps(mlp, xvs)
        eps = np.finfo(dtype).eps
        # u and du/dt are the same products; the Laplacian and the
        # gradients add the same terms grouped otherwise
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g.value, w.value)
        for g, w in zip(got, want):
            assert g.value.dtype == dtype
            bound = 8 * eps * np.abs(w.value).max()
            assert (np.abs(g.value - w.value) <= bound).all()


# ops the random-graph property test below does not draw; x is 1 x 1, so
# forward and reverse agree even through reductions
SPREAD = ad.constant(np.array([[0.5, -1.0, 2.0]]))
TENSOR = ad.constant(np.arange(12.0).reshape(4, 3) / 10.0)
FORWARD_RULES = {
    "ln": lambda x: ad.log(x * x + 1.0),
    "abs": lambda x: ad.absolute(x) * x,
    "pow": lambda x: ad.sqrt(x * x + 1.0) ** 3.0,
    "reductions": lambda x: (ad.reduce_sum(ad.matmul(x, SPREAD))
                             * ad.reduce_mean(ad.matmul(x, SPREAD))
                             + ad.reduce_max(ad.sin(ad.matmul(x, SPREAD)))),
    "broadcast": lambda x: ad.reduce_mean(
        ad.broadcast_to(ad.reduce_sum(ad.exp(x)), (3, 2)) * x),
    "matmul": lambda x: ad.matmul(ad.transpose(ad.matmul(x, SPREAD)),
                                  ad.cos(ad.matmul(x, SPREAD))),
    "column": lambda x: (ad.column(ad.sin(ad.matmul(x, SPREAD)), 1)
                         * ad.column(ad.matmul(x, SPREAD), 2)),
    "concat": lambda x: ad.sin(ad.matmul(
        ad.concat_cols([ad.exp(x), ad.constant([[0.3]]), x * x]),
        ad.transpose(SPREAD))),
    # a row meets a constant tensor (its tangent is broadcast down the
    # rows) and an active one
    "row_broadcast": lambda x: (ad.tanh(TENSOR + ad.matmul(x, SPREAD))
                                + ad.matmul(x, SPREAD) * ad.sin(TENSOR * x)),
    # orders 2 and 3 run through the forward rule of tanh's derivative node
    "nested_tanh": lambda x: ad.tanh(ad.tanh(x) * x + 0.3),
}


@pytest.mark.parametrize("name", sorted(FORWARD_RULES))
def test_forward_rules_match_reverse_over_reverse(name):
    x = scalar(-0.4)
    g = FORWARD_RULES[name](x)
    for k in (1, 2, 3):
        g = ad.backward(ad.reduce_sum(g), [x])[0]
        forward = ad.diff(FORWARD_RULES[name](x), x, k).value
        np.testing.assert_allclose(np.sum(forward), g.value[0, 0],
                                   rtol=1e-12, atol=1e-12)


UNARY = {
    "sin": ad.sin, "cos": ad.cos, "tanh": ad.tanh, "neg": ad.neg,
    "square": lambda a: a ** 2.0, "exp_tanh": lambda a: ad.exp(ad.tanh(a)),
    "scale": lambda a: 0.7 * a,
}
BINARY = {
    "add": ad.add, "sub": ad.sub, "mul": ad.mul,
    "div": lambda a, b: a / (b * b + 1.0),
}
instructions = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), st.integers(0, 99)),
        st.tuples(st.sampled_from(sorted(BINARY)), st.integers(0, 99),
                  st.integers(0, 99))),
    min_size=1, max_size=8)


def _build(program, x, y):
    nodes = [x, y]
    for op, *args in program:
        operands = [nodes[i % len(nodes)] for i in args]
        fn = UNARY.get(op) or BINARY[op]
        nodes.append(fn(*operands))
    return nodes[-1]


def _eval(program, xv, yv):
    return _build(program, ad.variable(xv), ad.variable(yv)).value


@settings(max_examples=60, deadline=None)
@given(program=instructions,
       seed=st.integers(0, 2 ** 16))
# the nested gradients of two sweeps of one graph differed in the last
# ulp when a sweep reused the dtanh node an earlier one had built; each
# sweep builds its own
@example(program=[("tanh", 0), ("scale", 0), ("div", 3, 2)], seed=0)
def test_pruned_gradients_match_full_and_finite_differences(program, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    xv, yv = rng.uniform(-1.0, 1.0, size=(2, 4, 1))
    x, y = ad.variable(xv), ad.variable(yv)
    out = ad.reduce_sum(_build(program, x, y))
    (gx,) = ad.backward(out, [x])
    gx_both, _ = ad.backward(out, [x, y])
    assert np.array_equal(gx.value, gx_both.value)
    h = 1e-6
    fd = (_eval(program, xv + h, yv) - _eval(program, xv - h, yv)) / (2 * h)
    np.testing.assert_allclose(gx.value, fd, rtol=1e-5, atol=1e-6)

    (g2,) = ad.backward(ad.reduce_sum(gx), [x])
    g2_both, _ = ad.backward(ad.reduce_sum(gx_both), [x, y])
    assert np.array_equal(g2.value, g2_both.value)
    (g3,) = ad.backward(ad.reduce_sum(g2), [x])
    for k, reverse in enumerate((gx, g2, g3), start=1):
        np.testing.assert_allclose(ad.diff(_build(program, x, y), x, k).value,
                                   reverse.value, rtol=1e-12, atol=1e-12)
    h = 1e-4
    fd2 = (_eval(program, xv + h, yv) - 2 * _eval(program, xv, yv)
           + _eval(program, xv - h, yv)) / h ** 2
    np.testing.assert_allclose(g2.value, fd2, rtol=1e-4, atol=1e-4)


def _nested_gradient(f, xs):
    """d sum(f) / dx, and the gradient of its sum with respect to x and
    y: a reverse sweep over the nodes of another."""
    (g,) = ad.backward(ad.reduce_sum(f), xs[:1])
    return [g, *ad.backward(ad.reduce_sum(g), xs)]


# sweeps of a random field f of the coordinates xs = [x, y]
GRAPH_SWEEPS = {
    "diff": lambda f, xs: [ad.diff(f, xs[0])],
    "diff2": lambda f, xs: [ad.diff(f, xs[0], 2)],
    "laplacian": lambda f, xs: [ad.laplacian(f, xs)],
    "backward": lambda f, xs: ad.backward(ad.reduce_sum(f), xs),
    "nested": _nested_gradient,
}


@settings(max_examples=60, deadline=None)
@given(program=instructions,
       seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float64, np.float32]),
       names=st.lists(st.sampled_from(sorted(GRAPH_SWEEPS)), min_size=2,
                      max_size=4))
# the graph of the @example above: a backward sweep, then a nested one
@example(program=[("tanh", 0), ("scale", 0), ("div", 3, 2)], seed=0,
         dtype=np.float64, names=["backward", "nested"])
def test_random_graph_sweeps_give_the_bits_they_give_alone(program, seed,
                                                          dtype, names):
    rng = np.random.Generator(np.random.Philox(key=seed))
    xv, yv = rng.uniform(-1.0, 1.0, size=(2, 4, 1)).astype(dtype)

    def build():
        xs = [ad.variable(xv), ad.variable(yv)]
        return _build(program, *xs), xs
    alone, together = _alone_and_together(build, GRAPH_SWEEPS, names)
    _assert_same_bits(together, alone, dtype)


@settings(max_examples=60, deadline=None)
@given(program=instructions,
       seed=st.integers(0, 2 ** 16))
def test_float32_leaves_build_float32_graphs(program, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    xv, yv = rng.uniform(-1.0, 1.0, size=(2, 4, 1)).astype(np.float32)
    dtypes = set()
    init = ad.Node.__init__

    def recording_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        dtypes.add(node.value.dtype)
    ad.Node.__init__ = recording_init
    try:
        x, y = ad.variable(xv), ad.variable(yv)
        # the mean and the square root bring the constants of the mean and
        # general-power rules onto every path
        u = _build(program, x, y)
        u = ad.reduce_mean(ad.sqrt(u ** 2.0 + 1.0)) * u
        gx, gy = ad.backward(ad.reduce_sum(u), [x, y])
        (g2,) = ad.backward(ad.reduce_sum(gx * gy), [x])
        results = [u, gx, gy, g2] + [ad.diff(u, x, k) for k in (1, 2, 3)]
    finally:
        ad.Node.__init__ = init
    assert dtypes == {np.dtype(np.float32)}
    assert all(r.value.dtype == np.float32 for r in results)


# -- recorded programs ------------------------------------------------------

SIGNED = np.array([[-0.0], [0.0], [1.5], [-2.0], [np.inf], [np.nan]])


def _recorded(outputs, inputs):
    """The program of a finished graph: its build returns the graph on any
    row count, so both probe graphs are the graph itself."""
    return ad._record(lambda rows: (outputs, inputs), len(inputs[0].value))


def _program(out, x):
    return _recorded([out], [x])


def _replays_graph(out, x, build):
    """The one-output program of out = build(x) replays the graph's bytes
    on x's values and on other values."""
    program = _program(out, x)
    for v in (x.value, x.value[::-1] * 3.0):
        (got,) = ad._replay(program, [v])
        with np.errstate(all="ignore"):
            want = build(ad.variable(v)).value
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return program


def _written_into(program):
    """{op: the argument slot each step of that op writes into, or None}
    for a program whose ops are all different."""
    return {s.op: s.args[-1] if len(s.args) > ad._INTO.get(s.op, len(s.args))
            else None for s in program.steps}


def _assert_runs_in_order(program):
    """Each step reads only inputs, kept arrays and slots an earlier step
    wrote, and no slot after a step wrote into it."""
    ready = set(range(program.inputs)).union(
        s for s, v in enumerate(program.slots) if v is not None)
    overwritten = set()
    for step in program.steps:
        n = ad._INTO.get(step.op, len(step.args))
        assert set(step.args[:n]) <= ready - overwritten, step
        overwritten.update(step.args[n:])
        ready.add(step.out)


class TestRewrites:
    @pytest.mark.parametrize("build, xv", [
        (lambda x: x + 0.0, SIGNED),
        (lambda x: 0.0 + x, SIGNED),
        (lambda x: x - (-0.0), SIGNED),
        # ones wider than x: the product is a broadcast, not x
        (lambda x: x * ad.constant(np.ones((3, 1))), np.array([[-0.0]])),
        (lambda x: ad.constant(np.ones((3, 4))) * x,
         np.array([[-0.0, 1.0, np.nan, 2.0]])),
    ])
    def test_steps_that_are_not_x_are_kept(self, build, xv):
        x = ad.variable(xv)
        program = _replays_graph(build(x), x, build)
        assert len(program.steps) == 1
        assert program.outputs != [0]

    def test_float32_times_float64_ones_is_kept(self):
        x = ad.variable(SIGNED.astype(np.float32))
        ones = ad.constant(np.ones((1, 1)))
        out = ad.mul(x, ones)
        assert out.value.dtype == np.float64
        program = _program(out, x)
        assert [s.op for s in program.steps] == ["mul"]

    @pytest.mark.parametrize("build", [
        lambda x: x * 1.0, lambda x: 1.0 * x, lambda x: x - 0.0,
        lambda x: x * ad.constant(np.ones(SIGNED.shape)),
    ])
    def test_times_one_and_minus_plus_zero_read_x(self, build):
        x = ad.variable(SIGNED)
        program = _replays_graph(build(x), x, build)
        assert program.steps == [] and program.outputs == [0]
        assert program.rewrites["alias"] == 1

    def test_constant_steps_fold_to_their_recorded_values(self):
        x = ad.variable(SIGNED[:3])
        c = ad.constant(np.arange(6.0).reshape(2, 3))
        folded = ad.transpose(ad.sin(c) * 2.0)  # a view of a folded value

        def build(x):
            return x * ad.column(folded, 1)
        program = _replays_graph(build(x), x, build)
        assert [s.op for s in program.steps] == ["mul"]
        kept = [v for v in program.slots if v is not None]
        # the kept column owns its 3 entries, not the whole 3 x 2 base
        assert all(v.base is None for v in kept)
        assert sum(v.nbytes for v in kept) == 3 * 8
        assert program.rewrites["fold"] == 4

    def test_folded_transpose_keeps_its_layout(self):
        c = ad.constant(np.arange(6.0).reshape(2, 3))
        t = ad.transpose(ad.exp(c))
        x = ad.variable(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
        program = _program(ad.matmul(x, t), x)
        kept = [v for v in program.slots if v is not None]
        assert len(kept) == 1 and kept[0].flags.f_contiguous
        assert not kept[0].flags.c_contiguous

    def test_identical_steps_are_shared(self):
        x = ad.variable(SIGNED)

        def build(x):
            return ad.sin(x) * ad.sin(x) + ad.sin(x) ** 2.0 + x ** 2.0
        program = _replays_graph(build(x), x, build)
        assert [s.op for s in program.steps].count("sin") == 1
        assert [s.op for s in program.steps].count("pow") == 2
        assert program.rewrites["share"] == 2

    def test_exponents_of_different_sign_are_not_shared(self):
        x = ad.variable(np.array([[2.0]]))
        program = _program(x ** 0.0 + x ** -0.0, x)
        assert [s.op for s in program.steps].count("pow") == 2

    def test_guards_with_different_checks_are_not_shared(self):
        x = ad.variable(SIGNED)
        calls = []

        def check(tag):
            # one name and one code object: only identity tells them apart
            def check(v):
                calls.append(tag)
            return check
        check_a = check("a")
        out = (ad._guard(x, (x,), check_a) + ad._guard(x, (x,), check("b"))
               + ad._guard(x, (x,), check_a))
        program = _program(out, x)
        assert [s.op for s in program.steps].count("guard") == 2
        assert program.rewrites["share"] == 1
        del calls[:]
        ad._replay(program, [SIGNED])
        assert calls == ["a", "b"]

    def test_equal_checks_that_are_two_objects_are_not_shared(self):
        x = ad.variable(SIGNED)
        checks = [functools.partial(np.testing.assert_array_equal, SIGNED)
                  for _ in range(2)]
        equal = dataclasses.make_dataclass("Check", ["v"], frozen=True)
        equal.__call__ = lambda self, v: None
        for a, b in (checks, (equal(1), equal(1))):
            out = ad._guard(x, (x,), a) * ad._guard(x, (x,), b)
            program = _program(out, x)
            assert [s.op for s in program.steps].count("guard") == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(512, 64), (7, 3), (1, 5), (33, 1),
                                       (1, 1)])
    def test_inner_dimension_one_matmul_equals_numpy(self, dtype, shape):
        rng = np.random.Generator(np.random.Philox(key=7))
        n, m = shape
        a = rng.standard_normal((n, 1)).astype(dtype)
        b = rng.standard_normal((1, m)).astype(dtype)
        a[::3], a[1::5], b[0, ::2] = 0.0, -0.0, -0.0
        a[2::7], b[0, 3::5], a[4::11] = np.inf, np.nan, 1e-30
        x, w = ad.variable(a), ad.variable(b)
        program = _recorded(
            [ad.matmul(x, w), ad.transpose(ad.matmul(x, w))], [x, w])
        assert [s.op for s in program.steps] == ["matmul", "transpose"]
        with np.errstate(all="ignore"):
            want = np.matmul(a, b)
            got = ad._replay(program, [a, b])[0]
        assert got.dtype == want.dtype and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_a_pointwise_step_writes_into_its_dying_argument(self):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(4, 3))

        def build(x):
            a = ad.sin(x)
            return ad.exp(a) * ad.tanh(x)
        program = _replays_graph(build(x), x, build)
        out = {s.op: s.out for s in program.steps}
        # sin reads the input (never written into); exp writes into sin's
        # block, and mul into exp's (its first dying argument)
        assert _written_into(program) == {"sin": None, "exp": out["sin"],
                                          "tanh": None, "mul": out["exp"]}
        assert program.rewrites["into"] == 2

    def test_an_argument_read_twice_is_not_written_into(self):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(4, 3))

        def build(x):
            a = ad.sin(x)
            return a * a
        program = _replays_graph(build(x), x, build)
        assert _written_into(program) == {"sin": None, "mul": None}

    @pytest.mark.parametrize("view, join", [
        (ad.transpose, ad.matmul),
        (lambda a: ad.column(a, 1), lambda v, b: v * ad.column(b, 0)),
        (lambda a: ad._guard(a, (a,), lambda v: None), ad.mul)])
    def test_a_block_a_live_view_shares_is_not_written_into(self, view, join):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(4, 3))

        def build(x):
            a = ad.sin(x)
            v = view(a)  # still read after exp, a's last reader
            return join(v, ad.exp(a))
        program = _replays_graph(build(x), x, build)
        assert _written_into(program)["exp"] is None

    def test_a_step_runs_after_the_other_readers_of_its_operand(self):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(4, 3))

        def build(x):
            a = ad.sin(x)
            # the sum reads a after the product and does not write into it:
            # the product runs after the sum and writes into a
            return a * x + ad.reduce_sum(a)
        program = _replays_graph(build(x), x, build)
        out = {s.op: s.out for s in program.steps}
        assert [s.op for s in program.steps] == ["sin", "sum", "mul", "add"]
        assert _written_into(program) == {"sin": None, "sum": None,
                                          "mul": out["sin"], "add": out["mul"]}
        assert program.rewrites["moved"] == 1
        _assert_runs_in_order(program)

    def test_a_step_whose_result_is_read_first_stays(self):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(4, 3))

        def build(x):
            a = ad.sin(x)
            p = a * x
            # p is read before a's last reader, so it cannot run after it
            return ad.reduce_sum(p) * a
        program = _replays_graph(build(x), x, build)
        assert [s.op for s in program.steps] == ["sin", "mul", "sum", "mul"]
        assert program.rewrites["moved"] == 0

    def test_an_f_ordered_block_is_not_written_into_for_a_c_result(self):
        x = ad.variable(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
        c = ad.variable(np.linspace(1.0, 3.0, 12).reshape(4, 3))
        w = ad.variable(np.linspace(-1.0, 1.0, 15).reshape(3, 5))
        # the product of two transposes is F-ordered; adding a C-ordered
        # input gives a C-ordered sum, which must not take the product's
        # block (the matmul would see another layout)
        p = ad.mul(ad.transpose(ad.sin(x)), ad.transpose(ad.cos(x)))
        s = ad.add(p, c)
        out = ad.matmul(s, w)
        assert p.value.flags.f_contiguous and s.value.flags.c_contiguous
        program = _recorded([out, s], [x, c, w])
        assert _written_into(program)["add"] is None
        assert program.rewrites["into"] == 0
        got = ad._replay(program, [x.value, c.value, w.value])
        assert got[1].strides == s.value.strides
        assert [g.tobytes() for g in got] == [out.value.tobytes(),
                                              s.value.tobytes()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtanh_into_a_block_equals_one_minus_the_square(self, dtype):
        tiny = np.finfo(dtype).tiny
        h = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                       tiny / 4, 1e-20, 0.5, -1.0, 1.0 - 1e-7]], dtype=dtype)
        with np.errstate(all="ignore"):
            want = 1.0 - h * h
            fresh = ad._KERNELS["dtanh"](h)
            block = np.full_like(h, 7.0)
            got = ad._KERNELS["dtanh"](h, block)
            into_h = h.copy()
            ad._KERNELS["dtanh"](into_h, into_h)
        assert got is block and want.dtype == dtype
        for result in (fresh, got, into_h):
            assert result.dtype == dtype
            assert result.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(program=instructions,
       seed=st.integers(0, 2 ** 16))
def test_replayed_program_equals_the_graph(program, seed):
    # with x*1, x-0 and x+0 on every output and a folded constant path, so
    # each rewrite meets signed zeros
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.uniform(-1.0, 1.0, size=(2, 2, 4, 1))
    values[:, :, 0] = -0.0
    values[:, :, 1] = 0.0
    folded = ad.exp(ad.constant([[0.5]])) * ad.constant([[0.0]])

    def graph(xv, yv):
        x, y = ad.variable(xv), ad.variable(yv)
        u = _build(program, x, y)
        gx, gy = ad.backward(ad.reduce_sum(u * u), [x, y])
        d2 = ad.diff(u, x, 2)
        # a has three readers, and the product that reads it first may run
        # after the other two and write into it
        a = ad.sin(u)
        outs = [u, gx, gy, d2, u * 1.0, 1.0 * u - 0.0, u + 0.0, u + folded,
                a * y + ad.reduce_sum(a) * ad.cos(a)]
        return outs, [x, y]
    outs, leaves = graph(*values[0])
    recorded = _recorded(outs, leaves)
    _assert_runs_in_order(recorded)
    kept = [v.tobytes() for v in recorded.slots if v is not None]
    for xv, yv in values:
        want = [o.value for o in graph(xv, yv)[0]]
        inputs = [xv.tobytes(), yv.tobytes()]
        # a replay writes into no input and no kept array, so a second one
        # gives the same bytes
        for _ in range(2):
            got = ad._replay(recorded, [xv, yv])
            assert [g.dtype for g in got] == [w.dtype for w in want]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert [xv.tobytes(), yv.tobytes()] == inputs
            assert [v.tobytes() for v in recorded.slots
                    if v is not None] == kept


class TestGeneratedReplay:
    """A program runs as one generated function, built when the program is
    made."""

    @staticmethod
    def _graph():
        x = ad.variable(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
        w = ad.variable(np.linspace(0.5, 2.0, 6).reshape(3, 2))
        row = ad.constant([[1.0, 2.0]])
        h = ad.tanh(ad.matmul(x, w)) * row
        loss = ad.reduce_sum(h * h)
        return [loss, *ad.backward(loss, [w])], [x, w]

    def test_recording_compiles_once_and_a_replay_nothing(self, monkeypatch):
        import builtins
        compiled = []
        real = builtins.compile

        def counting(*args, **kwargs):
            compiled.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(builtins, "compile", counting)
        outs, leaves = self._graph()
        program = _recorded(outs, leaves)
        assert len(compiled) == 1 and program.run is not None
        run = program.run
        values = [leaf.value for leaf in leaves]
        got = ad._replay(program, values)
        for _ in range(2):
            again = ad._replay(program, values)
            assert [a.tobytes() for a in again] == [g.tobytes() for g in got]
        assert len(compiled) == 1 and program.run is run
        assert [g.tobytes() for g in got] == [o.value.tobytes() for o in outs]

    def test_a_kernel_wrapped_before_recording_sees_every_step(
            self, monkeypatch):
        outs, leaves = self._graph()
        calls = []

        def wrapped(op, kernel):
            def traced(*args, **kwargs):
                calls.append(op)
                return kernel(*args, **kwargs)
            return traced
        for op, kernel in list(ad._KERNELS.items()):
            monkeypatch.setitem(ad._KERNELS, op, wrapped(op, kernel))
        program = _recorded(outs, leaves)
        # recording runs only its prologue: the folded step (the loss
        # adjoint broadcast to h's shape)
        assert calls == ["broadcast"] and program.rewrites["fold"] == 1
        for _ in range(2):
            del calls[:]
            got = ad._replay(program, [leaf.value for leaf in leaves])
            assert calls == [step.op for step in program.steps]
        assert [g.tobytes() for g in got] == [o.value.tobytes() for o in outs]

    def test_a_kernel_replaced_after_recording_is_not_called(self,
                                                             monkeypatch):
        outs, leaves = self._graph()
        program = _recorded(outs, leaves)
        monkeypatch.setitem(ad._KERNELS, "tanh", None)
        ad._replay(program, [leaf.value for leaf in leaves])

    def test_each_result_is_freed_at_its_last_read(self, monkeypatch):
        # 1-D pointwise steps: no view shares a block and no step writes
        # into another's, so each result is its own array
        x = ad.variable(np.linspace(0.1, 1.2, 6))
        h = ad.sin(x)
        a = h * x
        b = ad.exp(a) + h
        outs = [ad.tanh(b) * a + b, ad.cos(h)]
        refs = []
        program = None

        def checking(kernel):
            def run(*args, **kwargs):
                j = len(refs)
                for i, ref in enumerate(refs):
                    assert (ref() is not None) == (live[i] >= j), (i, j)
                out = kernel(*args, **kwargs)
                refs.append(weakref.ref(out))
                return out
            return run
        for op, kernel in list(ad._KERNELS.items()):
            monkeypatch.setitem(ad._KERNELS, op, checking(kernel))
        program = _recorded(outs, [x])
        steps = program.steps
        assert all(s.op in ad._POINTWISE for s in steps) and len(steps) > 4
        assert program.rewrites["into"] == 0
        # the index of each step's last reader (outputs: past the end)
        live = [max([len(steps)] * (s.out in program.outputs)
                    + [j for j, r in enumerate(steps) if s.out in r.args])
                for s in steps]
        got = ad._replay(program, [x.value * 2.0])
        kept = [i for i, ref in enumerate(refs) if ref() is not None]
        assert kept == [i for i, s in enumerate(steps)
                        if s.out in program.outputs]
        assert all(any(refs[i]() is g for g in got) for i in kept)

    def test_only_the_outputs_outlive_a_replay(self, monkeypatch):
        refs = []

        def keeping(kernel):
            def run(*args, **kwargs):
                out = kernel(*args, **kwargs)
                # a full reduction's numpy scalar is no block
                refs.append(weakref.ref(out) if isinstance(out, np.ndarray)
                            else lambda: None)
                return out
            return run
        outs, leaves = self._graph()
        for op, kernel in list(ad._KERNELS.items()):
            monkeypatch.setitem(ad._KERNELS, op, keeping(kernel))
        program = _recorded(outs, leaves)
        del refs[:]  # the recording's prologue: its folded step
        got = ad._replay(program, [leaf.value for leaf in leaves])
        alive = [r() for r in refs if r() is not None]
        assert alive and len(refs) == len(program.steps)
        # an output, or the block an output is a view of
        assert all(any(a is g or a is g.base for g in got) for a in alive)

    def test_a_program_and_its_function_are_freed_without_gc(self):
        import gc
        enabled = gc.isenabled()
        gc.disable()
        try:
            outs, leaves = self._graph()
            program = _recorded(outs, leaves)
            ad._replay(program, [leaf.value for leaf in leaves])
            kept = [v for v in program.slots if v is not None]
            assert kept and program.run is not None
            refs = [weakref.ref(v) for v in kept]
            refs.append(weakref.ref(program.run))
            del kept, program, outs, leaves
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("given", [1, 3])
    def test_the_wrong_number_of_inputs_raises(self, given):
        outs, leaves = self._graph()
        program = _recorded(outs, leaves)
        values = [leaf.value for leaf in leaves]
        values = (values + values)[:given]
        with pytest.raises(ValueError, match=(
                f"the program takes 2 input values, got {given}")):
            ad._replay(program, values)


# -- recording from probe graphs ---------------------------------------------

BATCH = np.linspace(-1.0, 1.0, 512).reshape(-1, 1)


def _probed(residual, rows=512):
    """The program of ``residual`` recorded from graphs on BATCH's first 2
    and 3 rows, at ``rows`` rows, and the rows ``build`` was called on."""
    calls = []

    def build(n):
        calls.append(n)
        t = ad.variable(BATCH[:n])
        out = residual(t)
        return [out, *ad.backward(ad.reduce_mean(out * out), [t])], [t]
    return ad._record(build, rows), calls


def _steps(program):
    return [(s.op, s.args, s.out, s.shape, s.dtype) for s in program.steps]


class TestProbes:
    """``_record`` builds the graph on 2 and 3 rows, never on all of
    them."""

    def replays_the_whole_graph(self, residual):
        program, calls = _probed(residual)
        assert calls == [2, 3]
        t = ad.variable(BATCH)
        out = residual(t)
        graph = [out, *ad.backward(ad.reduce_mean(out * out), [t])]
        got = ad._replay(program, [BATCH])
        assert [g.tobytes() for g in got] == [o.value.tobytes() for o in graph]
        # the program the whole graph records, step for step
        whole = _recorded(graph, [t])
        assert _steps(program) == _steps(whole)
        assert program.rewrites == whole.rewrites
        assert [None if v is None else (v.strides, v.tobytes())
                for v in program.slots] == [
                    None if v is None else (v.strides, v.tobytes())
                    for v in whole.slots]

    @pytest.mark.parametrize("residual, held", [
        (lambda t: t * ad.constant(t.value ** 2), "(512, 1) constant read "
                                                  "by 'mul'"),
        (lambda t: t + ad.constant(1.0 / t.value.shape[0]),
         "() constant read by 'add'"),
    ])
    def test_a_constant_of_data_or_one_over_the_rows_raises(self, residual,
                                                            held):
        with pytest.raises(ValueError, match=rf"^a {re.escape(held)} "):
            _probed(residual)

    def test_a_two_row_constant_is_not_the_batch(self):
        # on the 2-row probe it has the probe's rows; the 3-row one tells
        c = np.array([[1.0, -2.0], [0.5, 3.0]])
        self.replays_the_whole_graph(lambda t: ad.matmul(
            ad.concat_cols([t, ad.sin(t)]), ad.constant(c)))

    def test_dividing_by_the_row_count_records(self):
        # the kept row count is 2 and 3 on the probes, 512 in the program
        self.replays_the_whole_graph(
            lambda t: t * (ad.reduce_sum(t * t) / float(t.value.shape[0])))

    def test_batch_shaped_constants_are_repeated(self):
        # a column of ones and a one-hot (N, 3) block, as tangent seeds are
        def residual(t):
            ones = ad.constant(np.ones_like(t.value))
            seed = ad.constant(np.eye(1, 3, 1).repeat(len(t.value), 0))
            block = ad.concat_cols([t, t * t, ad.exp(t)])
            return ad.rowsum(block * seed) + ad.matmul(ones, ad.constant(
                [[0.5]]))
        self.replays_the_whole_graph(residual)

    def test_a_graph_that_depends_on_the_row_count_raises(self):
        with pytest.raises(ValueError, match=r"^a 'mul' step of shape \(3, "
                                             r"1\) differs between the 2- "):
            _probed(lambda t: t * t if len(t.value) > 2 else t + t)

    def test_two_rows_of_data_raise(self):
        # one probe: a constant of the chunk's 2 rows must be constant down
        # them, as one with the batch axis must be
        with pytest.raises(ValueError, match=r"^a \(2, 1\) constant read by "
                                             r"'mul' "):
            _probed(lambda t: t * ad.constant(t.value ** 2), rows=2)

    def test_fewer_than_three_rows_record_the_chunk_itself(self):
        def residual(t):
            return ad.sin(t) * t + 1.0
        program, calls = _probed(residual, rows=2)
        assert calls == [2]
        got = ad._replay(program, [BATCH[:2]])
        t = ad.variable(BATCH[:2])
        out = residual(t)
        assert got[0].tobytes() == out.value.tobytes()


# -- column adjoints --------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _entries(rng, shape, dtype):
    """Values of mixed magnitude, so the order of a sum shows in its bits,
    with a fifth of them signed zeros, infinities or NaN."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    special = rng.random(shape) < 0.2
    v[special] = rng.choice(SPECIALS, shape)[special]
    return v.astype(dtype)


def _bounds(read):
    """A read of ``pattern`` below as its column range: column j, a range
    (lo, hi), or None for all of a."""
    return (read, read + 1) if isinstance(read, int) else read


def _column_reads(a, pattern, weights):
    """sum_i sum(read_i * w_i): read_i is column j of a for an entry j of
    ``pattern``, columns lo..hi-1 for an entry (lo, hi), and all of a for
    None, so read i's adjoint is 1 * w_i."""
    terms = [ad.reduce_sum((a if r is None else ad.columns(a, *_bounds(r)))
                           * w) for r, w in zip(pattern, weights)]
    return functools.reduce(ad.add, terms)


def _padded_fold(shape, pattern, contributions):
    """The adjoint as a sum of full-width blocks in arrival order (the
    last read first), a column or range read padded with +0.0 to a's
    width."""
    acc = None
    for r, c in reversed(list(zip(pattern, contributions))):
        block = c
        if r is not None:
            lo, hi = _bounds(r)
            block = np.zeros(shape, c.dtype)
            block[:, lo:hi] = c
        with np.errstate(all="ignore"):
            acc = block if acc is None else acc + block
    return acc


def _same_up_to_nan_sign(got, want):
    """Equal dtype, NaN in the same places, and equal bytes elsewhere."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=200, deadline=None)
@given(pattern=st.lists(st.one_of(st.integers(0, 3), st.none()),
                        min_size=1, max_size=8),
       width=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_column_adjoints_equal_the_zero_padded_fold(pattern, width, seed,
                                                    dtype):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 16
    pattern = [None if j is None else j % width for j in pattern]
    a = ad.variable(rng.uniform(-1.0, 1.0, (n, width)).astype(dtype))
    weights = [ad.variable(_entries(rng, (n, width if j is None else 1),
                                    dtype)) for j in pattern]
    (grad,) = ad.backward(_column_reads(a, pattern, weights), [a])
    with np.errstate(all="ignore"):
        contributions = [np.ones_like(w.value) * w.value for w in weights]
    _same_up_to_nan_sign(grad.value, _padded_fold(a.value.shape, pattern,
                                                  contributions))
    # the gathered adjoint is itself differentiable: d sum(grad * v) / d w_i
    # is 1 * v's column j (all of v for a dense read)
    v = _entries(rng, (n, width), dtype)
    nested = ad.backward(ad.reduce_sum(grad * ad.constant(v)), weights)
    for j, w, g in zip(pattern, weights, nested):
        want = v if j is None else v[:, j:j + 1]
        with np.errstate(all="ignore"):
            _same_up_to_nan_sign(g.value, np.ones_like(want) * want)


@pytest.mark.parametrize("pattern, signbits", [
    # one column read twice: no padding is added, so -0.0 + -0.0 stays
    ([1, 1], [False, True, False]),
    # two columns: the padding's +0.0 reaches both
    ([1, 2], [False, False, False]),
    ([1, 2, 1], [False, False, False]),
    # a lone read
    ([0], [True, False, False]),
    # column 0 is read by both ranges, so no padding reaches it; column 1
    # is padded by the read of column 0 alone
    ([(0, 2), (0, 1)], [True, False, False]),
    # both reads cover every read column: no padding anywhere
    ([(1, 3), (1, 3)], [False, True, True]),
    ([(0, 2), (2, 3)], [False, False, False]),
])
def test_negative_zero_column_adjoints(pattern, signbits):
    a = ad.variable(np.ones((2, 3)))
    weights = [ad.variable(np.full((2, hi - lo), -0.0))
               for lo, hi in map(_bounds, pattern)]
    (grad,) = ad.backward(_column_reads(a, pattern, weights), [a])
    assert not grad.value.any()
    assert np.signbit(grad.value).tolist() == [signbits] * 2


def test_column_reads_build_one_concatenation(monkeypatch):
    a = ad.variable(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    pattern = [0, 2, 0, 2, 2]
    weights = [ad.variable(np.full((4, 1), float(i))) for i in range(5)]
    out = _column_reads(a, pattern, weights)
    built = []
    init = ad.Node.__init__

    def recording_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        built.append(node)
    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    (grad,) = ad.backward(out, [a])
    assert [n.op for n in built if n.op == "concat"] == ["concat"]
    # one add per repeated read and one for the padding's +0.0
    assert len([n for n in built if n.op == "add"]) == 3 + 1
    assert grad.value.tolist() == [[2.0, 0.0, 8.0]] * 4


# -- inner dimension 1 ----------------------------------------------------

@pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                    (np.float64, np.float64),
                                    (np.float32, np.float64),
                                    (np.float64, np.float32)])
@pytest.mark.parametrize("shape", [(512, 32), (7, 3), (1, 5), (33, 1)])
def test_a_ones_seeded_matmul_repeats_the_row(dtypes, shape):
    n, m = shape
    b = np.array([[-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1.5,
                   3.25] * 4])[:, :m].astype(dtypes[1])
    ones = ad.constant(np.ones((n, 1), dtypes[0]))
    x = ad.variable(b)
    program = _recorded([ad.matmul(ones, x)], [x])
    assert [s.op for s in program.steps] == ["matmul"]
    for v in (b, b[:, ::-1].copy()):
        with np.errstate(all="ignore"):
            want = np.matmul(ones.value, v)
        (got,) = ad._replay(program, [v])
        assert got.dtype == want.dtype and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("left", [np.full((4, 1), 2.0),
                                  np.array([[1.0], [1.0], [-1.0], [1.0]])])
def test_a_kept_column_that_is_not_ones_runs_outer(left):
    x = ad.variable(np.array([[-0.0, 1.5, np.nan]]))
    program = _recorded([ad.matmul(ad.constant(left), x)], [x])
    assert [s.op for s in program.steps] == ["matmul"]


_K1_ENTRIES = [0.0, -0.0, np.inf, -np.inf, 1e-310, -1e-310, 1e-40, -1e-40,
               1.5, -2.25]


def _k1_operand(data, shape, dtype, nan, strided):
    """A drawn operand of ``shape``: signed zeros, infinities, subnormals
    (in float32 too) and NaN if ``nan``; with ``strided``, every other
    entry of a block twice its size in each dimension."""
    pool = _K1_ENTRIES + ([np.nan, -np.nan] if nan else [])
    size = shape[0] * shape[1]
    v = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size,
                                    max_size=size))).reshape(shape)
    v = v.astype(dtype)
    if strided:
        v = np.repeat(np.repeat(v, 2, 0), 2, 1)[::2, ::2]
    return v


@settings(max_examples=80, deadline=None)
@given(dtypes=st.sampled_from([(np.float32, np.float32),
                               (np.float64, np.float64),
                               (np.float32, np.float64),
                               (np.float64, np.float32)]),
       n=st.integers(1, 40), m=st.integers(1, 40),
       nan_side=st.sampled_from([0, 1]), strided=st.booleans(),
       data=st.data())
def test_inner_dimension_one_matmul_is_numpys_in_graph_and_replay(
        dtypes, n, m, nan_side, strided, data):
    # NaN on one side only: where two NaNs meet, which one survives (its
    # sign) follows the operand order of numpy's loop
    a, b = (_k1_operand(data, shape, dtype, side == nan_side, strided)
            for side, (shape, dtype) in enumerate(zip(((n, 1), (1, m)),
                                                      dtypes)))
    with np.errstate(all="ignore"):
        want = np.matmul(a, b)
    x, w = ad.variable(a), ad.variable(b)
    node = ad.matmul(x, w)
    program = _recorded([node], [x, w])
    (got,) = ad._replay(program, [a, b])
    for v in (node.value, got):
        assert v.dtype == want.dtype and v.strides == want.strides
        assert v.tobytes() == want.tobytes()


# -- weight transposes ------------------------------------------------------

def test_a_view_transpose_of_a_transpose_is_its_input():
    x = ad.variable(np.arange(6.0).reshape(2, 3))
    assert ad.transpose(ad.transpose(x)) is x
    c = ad.transpose(x, "C")
    assert c.value.flags.c_contiguous and not np.shares_memory(c.value,
                                                               x.value)
    assert np.array_equal(c.value, x.value.T)
    assert ad.transpose(c) is x
    assert ad.transpose(c, "C") is not x


def test_each_weight_is_read_through_one_c_ordered_transpose():
    mlp = MLP.init(MLPSpec(1, (8, 8), 1, seed=0))
    x = ad.variable(np.linspace(-1.0, 1.0, 16).reshape(-1, 1))
    params = mlp.param_nodes()
    u = mlp.forward(x, params)
    loss = ad.reduce_mean(ad.diff(u, x) ** 2 + u ** 2)
    grads = ad.backward(loss, params)
    program = _recorded([loss, *grads], [x, *params])
    for k, w in enumerate(mlp.weights):
        slot = 1 + 2 * k  # x, then W0, b0, W1, ...
        (t, *rest) = [s for s in program.steps if slot in s.args]
        assert t.op == "transpose" and t.attrs == {"order": "C"}
        assert t.kernel(w).flags.c_contiguous
        # the primal and tangent products share it, as their right operand
        readers = [s for s in program.steps if t.out in s.args]
        assert [(s.op, s.args[1]) for s in readers] == [("matmul", t.out)] * 2
        # the backward pass's g @ W, one per stream, reads the weight itself
        # (no layer before the first has an adjoint)
        assert [(s.op, s.args[1]) for s in rest] == [("matmul", slot)] * (
            2 if k else 0)
    got = ad._replay(program, [x.value, *mlp.param_arrays()])
    for v, node in zip(got, [loss, *grads]):
        assert v.tobytes() == node.value.tobytes()


# -- row tiles above OpenBLAS's small-matrix bound --------------------------

# every product shape the four benchmark workloads record above the bound,
# as (M, K, N, whether a is read transposed): heat-d3's and sho-bundle's
# products through a hidden weight, and their weight gradients (TN, which
# run untiled)
WORKLOAD_PRODUCTS = [(1024, 32, 32, False), (512, 64, 64, False),
                     (32, 1024, 32, True), (64, 512, 64, True)]


def _product_operands(m, k, n, transposed, dtypes, seed=7):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((k, m) if transposed else (m, k))
    a = (a.T if transposed else a).astype(dtypes[0], order="K")
    return a, rng.standard_normal((k, n)).astype(dtypes[1])


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                    (np.float64, np.float64),
                                    (np.float32, np.float64)])
@pytest.mark.parametrize("m, k, n, transposed", WORKLOAD_PRODUCTS)
def test_a_tiled_product_is_numpys(m, k, n, transposed, dtypes,
                                   monkeypatch):
    a, b = _product_operands(m, k, n, transposed, dtypes)
    want = np.matmul(a, b)
    calls, matmul = [], np.matmul

    def spying(x, y, **kwargs):
        calls.append((x, y, kwargs.get("out")))
        return matmul(x, y, **kwargs)
    monkeypatch.setattr(np, "matmul", spying)
    got = ad._matmul(a, b)
    monkeypatch.undo()
    assert got.dtype == want.dtype and got.strides == want.strides
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    if transposed:  # a is F-ordered
        assert [(x is a, y is b, out) for x, y, out in calls] == [
            (True, True, None)]
        return
    # equal tiles of whole rows of a, each within the bound, against all
    # of b, each written into its rows of the result: K is never split
    rows = ad._tile_rows(a, b)
    assert rows % 8 == 0 and rows * k * n <= ad._SMALL_PRODUCT < m * k * n
    assert len(calls) == -(-m // rows) >= 2
    for i, (x, y, out) in enumerate(calls):
        lo, hi = i * rows, min(m, (i + 1) * rows)
        assert y is b and x.shape == (hi - lo, k)
        assert x.ctypes.data == a[lo:].ctypes.data
        assert out.shape == (hi - lo, n)
        assert out.ctypes.data == got[lo:].ctypes.data


@pytest.mark.parametrize("m, k, n", [(1024, 32, 32), (2048, 32, 100),
                                     (4096, 32, 9)])
def test_graph_and_replay_share_the_tiled_kernel(m, k, n):
    # a shape outside the workloads may differ from the untiled product in
    # its last bits; the graph and a replay run the same tiles
    a, b = _product_operands(m, k, n, False, (np.float64, np.float64))
    assert ad._tile_rows(a, b) is not None
    x, w = ad.variable(a), ad.variable(b)
    node = ad.matmul(x, w)
    (got,) = ad._replay(_recorded([node], [x, w]), [a, b])
    want = ad._matmul(a, b)
    for v in (node.value, got):
        assert v.strides == want.strides and v.tobytes() == want.tobytes()


def test_a_product_within_the_bound_or_too_wide_is_one_call():
    for m, k, n in [(768, 32, 32), (1024, 4, 32), (16, 400, 400)]:
        a, b = _product_operands(m, k, n, False, (np.float64, np.float64))
        assert ad._tile_rows(a, b) is None
    a, b = _product_operands(1024, 64, 32, False, (np.float64, np.float64))
    assert ad._tile_rows(a[:, :32], b[:32]) is None  # a is not C-ordered


# -- column against block, rowsum, column ranges ----------------------------

def _fold_columns(block):
    """Each row of a 2-D array added left to right, as ``total + term``."""
    acc = block[:, :1].copy()
    with np.errstate(all="ignore"):
        for j in range(1, block.shape[1]):
            acc = acc + block[:, j:j + 1]
    return acc


# op -> (forward, adjoint of a, adjoint of b) as numpy expressions of the
# operands, the output and the output's adjoint w, each as ``_jvp`` builds
# it; a column operand's adjoint is then folded over the columns
COLUMN_BLOCK_RULES = {
    "add": (np.add, lambda a, b, o, w: w, lambda a, b, o, w: w),
    "sub": (np.subtract, lambda a, b, o, w: w, lambda a, b, o, w: -w),
    "mul": (np.multiply, lambda a, b, o, w: w * b, lambda a, b, o, w: a * w),
    "div": (np.divide, lambda a, b, o, w: w / b,
            lambda a, b, o, w: -(o * w) / b),
}


@settings(max_examples=120, deadline=None)
@given(op=st.sampled_from(sorted(COLUMN_BLOCK_RULES)),
       column_first=st.booleans(), n=st.integers(2, 9),
       k=st.integers(2, 12), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_a_column_against_a_block_matches_numpy_and_a_column_loop(
        op, column_first, n, k, seed, dtype):
    rng = np.random.Generator(np.random.Philox(key=seed))
    col, block = _entries(rng, (n, 1), dtype), _entries(rng, (n, k), dtype)
    w = _entries(rng, (n, k), dtype)
    av, bv = (col, block) if column_first else (block, col)
    a, b = ad.variable(av), ad.variable(bv)
    out = getattr(ad, op)(a, b)
    forward, rule_a, rule_b = COLUMN_BLOCK_RULES[op]
    with np.errstate(all="ignore"):
        want = forward(av, bv)
        loop = np.concatenate(
            [forward(av if column_first else av[:, j:j + 1],
                     bv[:, j:j + 1] if column_first else bv)
             for j in range(k)], axis=1)
        adjoints = [rule(av, bv, want, w) for rule in (rule_a, rule_b)]
    _same_up_to_nan_sign(out.value, want)
    _same_up_to_nan_sign(out.value, loop)
    assert out.value.flags.f_contiguous
    # the output's adjoint is 1 * w = w, exactly
    grads = ad.backward(ad.reduce_sum(out * ad.constant(w)), [a, b])
    for g, operand, adjoint in zip(grads, (av, bv), adjoints):
        if operand.shape == (n, 1):
            adjoint = _fold_columns(adjoint)
        _same_up_to_nan_sign(g.value, adjoint)


@pytest.mark.parametrize("sa, sb", [((4, 1), (3, 2)), ((3, 2), (4, 1)),
                                    ((4, 2), (4, 3)), ((1, 3), (4, 1)),
                                    ((4, 1), (1, 3)), ((4, 1), (4, 1, 1))])
def test_other_shape_mixes_raise(sa, sb):
    a, b = ad.constant(np.ones(sa)), ad.constant(np.ones(sb))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with pytest.raises(ad.ShapeError):
            op(a, b)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 17),
       seed=st.integers(0, 2 ** 16), order=st.sampled_from("CF"),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_rowsum_is_the_left_to_right_fold(n, k, seed, order, dtype):
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = _entries(rng, (n, k), dtype)
    v[rng.random(n) < 0.2] = -0.0  # rows of -0.0 stay -0.0
    v = np.asarray(v, order=order)
    x = ad.variable(v)
    got = ad.rowsum(x).value
    _same_up_to_nan_sign(got, _fold_columns(v))
    if k > 1:  # a replay folds the same way
        (again,) = ad._replay(_recorded([ad.rowsum(x)], [x]), [v])
        assert again.tobytes() == got.tobytes()


@settings(max_examples=200, deadline=None)
@given(pattern=st.lists(st.one_of(st.tuples(st.integers(0, 5),
                                            st.integers(1, 6)), st.none()),
                        min_size=1, max_size=8),
       width=st.integers(2, 6), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_column_range_adjoints_equal_the_zero_padded_fold(pattern, width,
                                                          seed, dtype):
    # overlapping, nested and repeated ranges, single columns, the whole
    # width (which is a itself), and dense reads before and after them
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 8
    pattern = [None if r is None else
               (min(r[0] % width, (r[0] + r[1]) % width),
                max(r[0] % width, (r[0] + r[1]) % width) + 1)
               for r in pattern]
    a = ad.variable(rng.uniform(-1.0, 1.0, (n, width)).astype(dtype))
    weights = [ad.variable(_entries(rng, (n, width if r is None
                                          else r[1] - r[0]), dtype))
               for r in pattern]
    (grad,) = ad.backward(_column_reads(a, pattern, weights), [a])
    with np.errstate(all="ignore"):
        contributions = [np.ones_like(w.value) * w.value for w in weights]
    _same_up_to_nan_sign(grad.value, _padded_fold(a.value.shape, pattern,
                                                  contributions))
    assert grad.value.flags.c_contiguous  # it may reach a matmul
    # nested, d sum(grad * v) / d w_i is v's columns of read i; equal up to
    # the sign of a zero, since a read that other reads' bounds cut into
    # pieces is itself read by pieces, and its adjoint gets their padding
    v = _entries(rng, (n, width), dtype)
    nested = ad.backward(ad.reduce_sum(grad * ad.constant(v)), weights)
    for r, g in zip(pattern, nested):
        want = v if r is None else v[:, r[0]:r[1]]
        assert np.array_equal(g.value, want, equal_nan=True)


def _expansion(x, y):
    """A small expansion through every block op: a column against a block,
    a column range, an F-ordered join and a row fold."""
    block = ad.tanh(x * y)
    coeffs = ad.concat_cols([ad.sin(x), x * ad.columns(block, 1, 3)],
                            order="F")
    return ad.rowsum(coeffs * block)


def test_nested_backward_through_a_block_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=(12, 12)))
    xv = rng.uniform(-1.0, 1.0, (5, 1))
    y = ad.constant(rng.uniform(-1.0, 1.0, (5, 3)))

    def f(v):
        return _expansion(ad.constant(v), y).value

    x = ad.variable(xv)
    (g,) = ad.backward(ad.reduce_sum(_expansion(x, y) ** 2.0), [x])
    (gg,) = ad.backward(ad.reduce_sum(g), [x])
    h = 1e-5
    # rows are independent, so each derivative is per row
    first = (f(xv + h) ** 2 - f(xv - h) ** 2) / (2 * h)
    second = (f(xv + h) ** 2 - 2 * f(xv) ** 2 + f(xv - h) ** 2) / h ** 2
    np.testing.assert_allclose(g.value, first, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(gg.value, second, rtol=1e-4, atol=1e-6)
    # forward mode agrees with the reverse sweep
    np.testing.assert_allclose(
        ad.diff(_expansion(x, y) ** 2.0, x).value, g.value, rtol=1e-12)


# -- the forward Laplacian --------------------------------------------------

def _laplacian_problem(seed, widths, dims, dtype):
    """A random tanh MLP on ``dims`` coordinates with random biases, in
    ``dtype``, and 13 random points as one N x 1 array per coordinate."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    mlp = MLP.init(MLPSpec(dims, widths, 1, seed=seed))
    biases = [rng.uniform(-1.0, 1.0, b.shape) for b in mlp.biases]
    mlp = _cast(MLP(mlp.spec, mlp.weights, biases), dtype)
    return mlp, list(rng.uniform(-1.0, 1.0, (dims, 13, 1)).astype(dtype))


def _trial(mlp, xs, params=None):
    """x_0 * N(x), a trial solution that vanishes at x_0 = 0."""
    return xs[0] * mlp.forward(ad.concat_cols(xs), params)


def _second_derivative_sum(u, xs):
    total = ad.diff(u, xs[0], 2)
    for x in xs[1:]:
        total = total + ad.diff(u, x, 2)
    return total


def _laplacian_term_magnitudes(mlp, xvs):
    """The summed magnitudes of the terms that the Laplacian of ``_trial``
    adds up, in float64 on the problem's own (rounded) values: the forward
    sweep's recurrences with every term taken by its absolute value."""
    xs = [x.astype(np.float64) for x in xvs]
    weights = [np.abs(w.astype(np.float64)) for w in mlp.weights]
    h = np.hstack(xs)
    # the first layer's tangent along x_i is column i of W_0, on every row
    first = [np.broadcast_to(weights[0][:, i], (h.shape[0],
                                                  weights[0].shape[0]))
             for i in range(len(xs))]
    second = np.zeros_like(first[0])
    for k, (w, b) in enumerate(zip(mlp.weights[:-1], mlp.biases[:-1])):
        h = np.tanh(h @ w.astype(np.float64).T + b.astype(np.float64))
        factor = np.abs(1.0 - h * h)
        first_h = [factor * t for t in first]
        # tanh's curvature term T(z) * (T(h) * (-2h)) along each coordinate
        second = factor * second + sum(t * th * 2.0 * np.abs(h)
                                       for t, th in zip(first, first_h))
        first = [t @ weights[k + 1].T for t in first_h]
        second = second @ weights[k + 1].T
    # x_0 * N: |x_0| L(N) plus the product's two cross terms along x_0
    return np.abs(xs[0]) * second + 2.0 * first[0]


class TestLaplacian:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           widths=st.lists(st.integers(1, 16), min_size=1, max_size=3),
           dims=st.integers(1, 4),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_matches_the_sum_of_second_derivatives(self, seed, widths, dims,
                                                   dtype):
        mlp, xvs = _laplacian_problem(seed, tuple(widths), dims, dtype)
        xs = [ad.variable(v) for v in xvs]
        u = _trial(mlp, xs)
        got = ad.laplacian(u, xs)
        want = _second_derivative_sum(u, xs)
        assert got.value.dtype == want.value.dtype == dtype
        assert got.shape == u.shape
        # the directions are summed inside the sweep, node by node, so the
        # two differ by a few roundings of the terms they add, each bounded
        # by eps times the summed magnitudes of its terms
        scale = _laplacian_term_magnitudes(mlp, xvs)
        eps = np.finfo(dtype).eps
        diff = np.abs(got.value.astype(np.float64) - want.value)
        assert (diff <= 16 * eps * scale).all(), (diff.max(), scale.max())

    def test_matches_finite_differences(self):
        mlp, xvs = _laplacian_problem(5, (8, 8), 3, np.float64)
        xs = [ad.variable(v) for v in xvs]
        got = ad.laplacian(_trial(mlp, xs), xs).value

        def f(vs):
            return _trial(mlp, [ad.constant(v) for v in vs]).value

        h = 1e-4
        fd = sum((f([v + h * (j == i) for j, v in enumerate(xvs)])
                  - 2.0 * f(xvs)
                  + f([v - h * (j == i) for j, v in enumerate(xvs)])) / h ** 2
                 for i in range(len(xvs)))
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(program=instructions, seed=st.integers(0, 2 ** 16))
    def test_every_forward_rule_matches_the_sum(self, program, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        x, y = (ad.variable(v) for v in rng.uniform(-1.0, 1.0, (2, 4, 1)))
        u = _build(program, x, y)
        np.testing.assert_allclose(ad.laplacian(u, [x, y]).value,
                                   _second_derivative_sum(u, [x, y]).value,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_independent_u_gives_zeros_of_its_shape(self, dtype):
        x = ad.variable(np.ones((1, 1), dtype))
        y = ad.variable(np.linspace(-1.0, 1.0, 3, dtype=dtype).reshape(-1, 1))
        lap = ad.laplacian(ad.tanh(y) * 2.0, [x])
        assert lap.value.dtype == dtype
        np.testing.assert_array_equal(lap.value, np.zeros((3, 1), dtype))
        # linear in x: the second-order stream is zero too
        lap = ad.laplacian(3.0 * x + y, [x, y])
        np.testing.assert_array_equal(lap.value, np.zeros((3, 1), dtype))

    def test_a_constant_coordinate_is_a_coordinate(self):
        c = ad.constant(np.linspace(0.5, 1.5, 3).reshape(-1, 1))
        lap = ad.laplacian(ad.sin(c), [c])
        np.testing.assert_array_equal(lap.value, -np.sin(c.value))

    def test_backward_through_it_matches_the_per_coordinate_sum(self):
        mlp, xvs = _laplacian_problem(8, (6, 5), 3, np.float64)
        grads = []
        for build in (ad.laplacian, _second_derivative_sum):
            xs = [ad.variable(v) for v in xvs]
            params = mlp.param_nodes()
            u = _trial(mlp, xs, params)
            r = build(u, xs) - u
            grads.append([g.value for g in ad.backward(
                ad.reduce_mean(r * r), params + xs)])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("hidden", [1, 2, 3])
    def test_a_coordinate_adds_a_first_order_chain_only(self, monkeypatch,
                                                        hidden):
        # L hidden layers: L + 1 matmuls per tangent chain, the first one
        # the coordinate's one-hot seed times the first weight
        def matmuls(dims, build):
            mlp = MLP.init(MLPSpec(dims, (4,) * hidden, 1, seed=dims))
            xs = [ad.variable(np.full((5, 1), 0.1 * i)) for i in range(dims)]
            u = mlp.forward(ad.concat_cols(xs), mlp.param_nodes())
            built = _record_nodes(monkeypatch)
            build(u, xs)
            monkeypatch.undo()
            return len([m for m in built if m.op == "matmul"])

        for dims in (1, 2, 3):
            # one first-order chain per coordinate, one shared second-order
            # chain (the seeds have no second-order tangent)
            assert matmuls(dims, ad.laplacian) == (hidden + 1) * dims + hidden
            # the per-coordinate sum pays a second-order chain each
            assert matmuls(dims, _second_derivative_sum) == (
                (2 * hidden + 1) * dims)
