"""Taylor-mode (Jet) coordinate derivatives: the second-order rule of every
primitive against central differences, and the AD derivatives of the
evaluator against central differences and against nested reverse tapes."""

import inspect
import re

import numpy as np
import pytest
import scipy.sparse as sp

from jno import domain as dm
from jno import evaluator as ev
from jno import nn
from jno import tensor as T
from jno import trace as tr
from jno.errors import ArityMismatch, ShapeMismatch, UnknownNode


def _curve(s, seed):
    """A smooth function of `s` (values in about [0.5, 3.5]) whose first and
    second derivatives along a direction of ones are nonzero."""
    rng = np.random.default_rng(seed)
    c2, c1, c0 = (T.Tensor(rng.uniform(0.5, 1.0, s.shape)) for _ in range(3))
    return T.add(T.mul(T.mul(s, s), c2), T.add(T.mul(s, c1), c0))


def A(s):
    return _curve(s, 1)


def B(s):
    return _curve(s, 2)


_S = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0],
                             [0.5, 0.5, 0.5], [0.0, 0.0, 0.0],
                             [3.0, 0.0, -2.0]]))
_C = T.Tensor(np.linspace(-1.0, 1.0, 8).reshape(4, 2))


def _triplets(S):
    """The same matrix as a `T.SparseMatrix`, from scipy's `S`."""
    coo = S.tocoo()
    return T.SparseMatrix(coo.row, coo.col, coo.data, coo.shape)


# Each case builds its output from a watched s of shape (3, 4) through one
# primitive whose inputs vary with s (both inputs, for the binary ones, so
# that the cross term of the second coefficient is exercised).
CASES = {
    "add": lambda s: T.add(A(s), T.reduce_sum(B(s), axes=0)),
    "sub": lambda s: T.sub(T.reduce_sum(A(s), axes=1, keepdims=True), B(s)),
    "mul": lambda s: T.mul(A(s), T.reduce_sum(B(s), axes=0)),
    "div": lambda s: T.div(A(s), B(s)),
    "neg": lambda s: T.neg(A(s)),
    "power": lambda s: T.power(A(s), B(s)),
    "exp": lambda s: T.exp(A(s)),
    "log": lambda s: T.log(A(s)),
    "sin": lambda s: T.sin(A(s)),
    "cos": lambda s: T.cos(A(s)),
    "tanh": lambda s: T.tanh(T.sub(A(s), T.Tensor(2.0))),
    "relu": lambda s: T.relu(T.sub(A(s), B(s))),
    "maximum": lambda s: T.maximum(A(s), B(s)),
    "minimum": lambda s: T.minimum(A(s), B(s)),
    "reduce_sum": lambda s: T.reduce_sum(A(s), axes=1),
    "reshape": lambda s: T.reshape(A(s), (2, 6)),
    "transpose": lambda s: T.transpose(A(s)),
    "broadcast_to": lambda s: T.broadcast_to(
        T.reduce_sum(A(s), axes=0, keepdims=True), (2, 3, 4)),
    "matmul": lambda s: T.matmul(A(s), T.transpose(B(s))),
    "sparse_matmul": lambda s: T.sparse_matmul(_S, A(s)),
    "concat": lambda s: T.concat([A(s), T.ones((3, 1)), B(s)], axis=1),
    "take_slice": lambda s: T.take_slice(A(s), (slice(0, 2), 1)),
    "scatter_slice": lambda s: T.scatter_slice(A(s), (slice(1, 4),), (5, 4)),
}

# More inputs for the branches that the cases above leave out.
MORE = {
    "power_const_exponent": lambda s: T.power(A(s), T.Tensor(3.0)),
    # signed bases, each exponent that is computed by multiplication
    "power_integral_exponents": lambda s: T.concat(
        [T.power(T.sub(A(s), T.Tensor(2.0)), T.Tensor(float(n)))
         for n in range(1, 9)], axis=0),
    "power_const_base": lambda s: T.power(T.Tensor(1.7), A(s)),
    "mul_const": lambda s: T.mul(A(s), T.Tensor(-2.5)),
    "div_const_numerator": lambda s: T.div(T.Tensor(2.0), A(s)),
    "matmul_const_right": lambda s: T.matmul(A(s), _C),
    "sparse_matmul_triplets": lambda s: T.sparse_matmul(_triplets(_S), A(s)),
    "concat_one_varying": lambda s: T.concat([T.zeros((3, 4)), A(s)], axis=0),
    # a square records as the unary map x**2
    "mul_square": lambda s: (lambda a: T.mul(a, a))(A(s)),
    # an inner size of 1: an outer product, with broadcast batch axes
    "matmul_outer": lambda s: T.matmul(T.reshape(A(s), (3, 4, 1)),
                                       T.reshape(B(s), (1, 1, 12))),
}


# the calls through which a primitive records: _record itself, or a helper
# that derives both rules from one statement of the derivative
_RECORDING = re.compile(r"\b_(record|pointwise|unary|linear_map|extremum)\(")


def _primitives_that_record():
    return {name for name, fn in inspect.getmembers(T, inspect.isfunction)
            if fn.__module__ == T.__name__ and not name.startswith("_")
            and _RECORDING.search(inspect.getsource(fn))}


def test_every_recorded_primitive_has_a_taylor_rule():
    assert _primitives_that_record() == set(CASES)
    for f in CASES.values():
        s = T.Tensor(np.full((3, 4), 0.3))
        with T.Jet() as jet:
            jet.watch(s)
            out = f(s)
        assert jet.records[-1].out_uid == out.uid
        assert callable(jet.records[-1].taylor)


def _full(coeffs, out):
    """Each coefficient dict's entry for `out` in `out`'s full shape."""
    return [np.broadcast_to(c[out.uid].data, out.shape) if out.uid in c
            else np.zeros(out.shape) for c in coeffs]


def _coefficients(f, s0, order):
    s = T.Tensor(s0)
    with T.Jet() as jet:
        jet.watch(s)
        out = f(s)
    ((firsts, second),) = jet.push([(order, [(s, None)])])
    return _full(firsts + ([second] if order == 2 else []), out)


@pytest.mark.parametrize("name", sorted(CASES) + sorted(MORE))
def test_coefficients_match_central_differences(name):
    f = {**CASES, **MORE}[name]
    s0 = np.random.default_rng(0).uniform(0.2, 0.8, (3, 4))
    t1, t2 = _coefficients(f, s0, 2)
    (only_t1,) = _coefficients(f, s0, 1)
    assert only_t1.tobytes() == t1.tobytes()

    def at(shift):
        return f(T.Tensor(s0 + shift)).data

    h1, h2 = 1e-5, 1e-3
    fd1 = (at(h1) - at(-h1)) / (2 * h1)
    fd2 = (at(h2) - 2 * at(0.0) + at(-h2)) / h2 ** 2
    scale = 1.0 + np.abs(fd2).max()
    np.testing.assert_allclose(t1, fd1, atol=1e-7 * scale)
    np.testing.assert_allclose(t2, fd2, atol=1e-5 * scale)


def test_push_needs_a_watched_tensor_and_order_one_or_two():
    s = T.Tensor(np.ones(3))
    with T.Jet() as jet:
        jet.watch(s)
        T.sin(s)
    with pytest.raises(UnknownNode):
        jet.push([(2, [(T.Tensor(np.ones(3)), None)])])
    with pytest.raises(UnknownNode):
        jet.push([(2, [(s, None), (T.Tensor(np.ones(3)), None)])])
    with pytest.raises(ArityMismatch):
        jet.push([(3, [(s, None)])])
    with pytest.raises(ArityMismatch):
        jet.push([(1, [(s, None)]), (0, [(s, None)])])


def test_parameter_tape_records_the_push():
    # a Tape around the push differentiates the Laplacian w.r.t. w:
    # d/dw sum(-w**2 sin(w s)) against central differences
    s0 = np.linspace(0.1, 0.9, 5)

    def lap(w):
        s = T.Tensor(s0)
        with T.Jet() as jet:
            jet.watch(s)
            out = T.sin(T.mul(w, s))
        return T.reduce_sum(jet.push([(2, [(s, None)])])[0][1][out.uid])

    w = T.Tensor(1.3)
    with T.Tape() as tape:
        tape.watch(w)
        total = lap(w)
    g = tape.gradient(total, [w])[w.uid].item()
    h = 1e-6
    fd = (lap(T.Tensor(1.3 + h)).item()
          - lap(T.Tensor(1.3 - h)).item()) / (2 * h)
    exact = np.sum(-2 * 1.3 * np.sin(1.3 * s0)
                   - 1.3 ** 2 * s0 * np.cos(1.3 * s0))
    assert g == pytest.approx(fd, rel=1e-7)
    assert g == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# Evaluator AD derivatives
# ---------------------------------------------------------------------------

def _mlp_rect():
    d = dm.rect(mesh_size=0.25)
    x, y, _ = d.variable("interior")
    net = nn.mlp(2, [32, 32], 1).initialize(5)
    u = net(tr.concat_nodes([x, y], axis=-1))
    return d, x, y, net, u


def _forward(net, px, py):
    return net.forward([T.Tensor(np.concatenate([px, py], axis=-1))]).data


def _nested_tape_second_derivative(net, px, py, axis):
    """Reference: d2u/dc2 as the gradient of the gradient of sum(u), with
    two nested reverse tapes on a copy of the coordinate."""
    cs = [T.Tensor(px.copy()), T.Tensor(py.copy())]
    c = cs[axis]
    with T.Tape() as outer:
        outer.watch(c)
        with T.Tape() as inner:
            inner.watch(c)
            u = net.forward([T.concat(cs, axis=-1)])
            total = T.reduce_sum(u)
        g = inner.gradient(total, [c])[c.uid]
        g_total = T.reduce_sum(g)
    return outer.gradient(g_total, [c])[c.uid].data


def test_mlp_laplacian_against_differences_and_nested_tapes():
    d, x, y, net, u = _mlp_rect()
    lap = ev.evaluate(u.dd(x) + u.dd(y), ev.EvalContext(domain=d)).data
    pts = d.context["interior"]
    px, py = pts[..., :1], pts[..., 1:2]

    h = 1e-4
    u0 = _forward(net, px, py)
    fd = (_forward(net, px + h, py) + _forward(net, px - h, py)
          + _forward(net, px, py + h) + _forward(net, px, py - h)
          - 4 * u0) / h ** 2
    np.testing.assert_allclose(lap, fd, atol=1e-6)

    ref = _nested_tape_second_derivative(net, px, py, 0) \
        + _nested_tape_second_derivative(net, px, py, 1)
    np.testing.assert_allclose(lap, ref, rtol=1e-12, atol=1e-12)


def test_mlp_mixed_partial_against_differences():
    d, x, y, net, u = _mlp_rect()
    got = ev.evaluate(tr.d(tr.d(u, x), y), ev.EvalContext(domain=d)).data
    pts = d.context["interior"]
    px, py = pts[..., :1], pts[..., 1:2]
    h = 1e-4
    fd = (_forward(net, px + h, py + h) - _forward(net, px + h, py - h)
          - _forward(net, px - h, py + h) + _forward(net, px - h, py - h)) \
        / (4 * h ** 2)
    np.testing.assert_allclose(got, fd, atol=1e-6)


def test_derivative_of_a_derivative_sees_the_inner_path():
    d = dm.line(mesh_size=0.25)
    x, _ = d.variable("interior")
    val = ev.evaluate(tr.d(tr.d(x * x * x, x), x), ev.EvalContext(domain=d))
    pts = d.context["interior"][..., 0:1]
    np.testing.assert_allclose(val.data, 6 * pts, rtol=1e-14)


def test_reduce_over_no_axes_is_the_identity():
    # axes=() reduces nothing: the value, its traced shape, the Tape's
    # adjoint and the Jet's coefficients pass through unchanged
    a0 = np.arange(6.0).reshape(2, 3)
    for reduce in (T.reduce_sum, T.reduce_mean):
        np.testing.assert_array_equal(reduce(T.Tensor(a0), axes=()).data, a0)
    x = tr.variable("x", shape=(2, 3))
    root = x.reduce("sum", axes=())
    value = ev.evaluate(root, ev.EvalContext(bindings={x: a0}))
    np.testing.assert_array_equal(value.data, a0)
    assert tr.trace_shapes(root)[root] == value.shape

    s, w = T.Tensor(a0), T.Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    with T.Tape() as tape:
        tape.watch(s)
        total = T.reduce_sum(T.mul(T.reduce_sum(s, axes=()), w))
    np.testing.assert_array_equal(tape.gradient(total, [s])[s.uid].data,
                                  w.data)
    with T.Jet() as jet:
        jet.watch(s)
        out = T.reduce_sum(s, axes=())
    (([first], second),) = jet.push([(2, [(s, w)])])
    t1, t2 = _full([first, second], out)
    np.testing.assert_array_equal(t1, w.data)
    np.testing.assert_array_equal(t2, np.zeros((2, 3)))

    # and it does not mix points, so an AD derivative through it is defined
    d = dm.line(mesh_size=0.25)
    x, _ = d.variable("interior")
    val = ev.evaluate(tr.d(x.reduce("sum", axes=()) * x, x),
                      ev.EvalContext(domain=d))
    pts = d.context["interior"][..., 0:1]
    np.testing.assert_allclose(val.data, 2 * pts, rtol=1e-14)


def test_pointwise_map_with_several_output_columns():
    d = dm.line(mesh_size=0.25)
    x, _ = d.variable("interior")
    W = tr.constant(T.Tensor(np.array([[1.0, 2.0, 3.0]])))
    val = ev.evaluate(tr.d(tr.matmul_nodes(x, W), x), ev.EvalContext(domain=d))
    assert val.shape == (1, 1, 3, 3)
    np.testing.assert_array_equal(val.data[0, 0], np.tile([1.0, 2.0, 3.0],
                                                          (3, 1)))


def test_push_along_a_direction():
    s = T.Tensor(np.linspace(0.1, 0.9, 4))
    with T.Jet() as jet:
        jet.watch(s)
        out = T.sin(s)
    (([first], second),) = jet.push([(2, [(s, T.full((4,), 2.0))])])
    t1, t2 = first[out.uid].data, second[out.uid].data
    np.testing.assert_allclose(t1, 2 * np.cos(s.data), rtol=1e-15)
    np.testing.assert_allclose(t2, -4 * np.sin(s.data), rtol=1e-15)
    with pytest.raises(ShapeMismatch):
        jet.push([(1, [(s, T.ones((4, 1)))])])
    # a direction that broadcasts up to the tensor's shape is accepted
    for v in (T.Tensor(2.0), T.full((1,), 2.0)):
        (([first], second),) = jet.push([(2, [(s, v)])])
        np.testing.assert_array_equal(first[out.uid].data, t1)
        np.testing.assert_array_equal(second[out.uid].data, t2)


def test_variable_with_several_columns():
    # u.d(X) and u.dd(X) of an unsplit (x, y) variable hold one column per
    # coordinate: the first and the pure second partials
    d = dm.rect(mesh_size=0.25)
    X = d.variable("interior", split=False)
    x, y, _ = d.variable("interior")
    net = nn.mlp(2, [32, 32], 1).initialize(5)
    u = net(X)
    ctx = ev.EvalContext(domain=d)
    pts = d.context["interior"]
    assert ev.evaluate(u.d(X), ctx).shape == pts.shape
    grad = ev.evaluate(u.d(X), ctx).data.reshape(-1, 2).T
    second = ev.evaluate(u.dd(X), ctx).data.reshape(-1, 2).T

    def at(shift):
        return net.forward([T.Tensor(pts + shift)]).data.reshape(-1)

    for j, e in enumerate(np.eye(2)):
        h1, h2 = 1e-6, 1e-4
        np.testing.assert_allclose(
            grad[j], (at(h1 * e) - at(-h1 * e)) / (2 * h1), atol=1e-8)
        np.testing.assert_allclose(
            second[j], (at(h2 * e) - 2 * at(0.0) + at(-h2 * e)) / h2 ** 2,
            atol=1e-6)

    # the same numbers as the split coordinates, and d(d(u, X), X) = u.dd(X)
    split = net(tr.concat_nodes([x, y], axis=-1))
    for j, c in enumerate((x, y)):
        np.testing.assert_allclose(
            ev.evaluate(split.d(c), ctx).data.reshape(-1), grad[j],
            rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            ev.evaluate(split.dd(c), ctx).data.reshape(-1), second[j],
            rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(ev.evaluate(tr.d(u.d(X), X), ctx).data,
                               ev.evaluate(u.dd(X), ctx).data,
                               rtol=1e-12, atol=1e-14)


def test_columnwise_map_of_a_variable_with_several_columns():
    d = dm.rect(mesh_size=0.25)
    X = d.variable("interior", split=False)
    ctx = ev.EvalContext(domain=d)
    pts = d.context["interior"]
    np.testing.assert_allclose(ev.evaluate(tr.d(X * X * X, X), ctx).data,
                               3 * pts ** 2, rtol=1e-14)
    np.testing.assert_allclose(ev.evaluate(tr.dd(X * X * X, X), ctx).data,
                               6 * pts, rtol=1e-14)


def test_field_with_as_many_columns_as_the_variable():
    # column j of v.d(X) is dv_j/dx_j, so the columns sum to div v
    d = dm.rect(mesh_size=0.25)
    X = d.variable("interior", split=False)
    net = nn.mlp(2, [16], 2).initialize(3)
    div = ev.evaluate(net(X).d(X), ev.EvalContext(domain=d)).data
    pts = d.context["interior"]
    h = 1e-6
    for j, e in enumerate(np.eye(2)):
        fd = (net.forward([T.Tensor(pts + h * e)]).data
              - net.forward([T.Tensor(pts - h * e)]).data) / (2 * h)
        np.testing.assert_allclose(div[..., j], fd[..., j], atol=1e-8)


def _count_pushes(monkeypatch):
    """The pushes made, each as the list of its groups' (order, number of
    directions)."""
    pushes = []
    push = T.Jet.push
    monkeypatch.setattr(T.Jet, "push", lambda jet, groups: pushes.append(
        [(order, len(dirs)) for order, dirs in groups]) or push(jet, groups))
    return pushes


def test_requests_on_one_expression_share_one_push(monkeypatch):
    # u reads a 2-column X and a 1-column s; d(u, X), d(u, s) and dd(u, s)
    # come from one push of three directions, and each equals its own
    # single-request context and central differences
    d = dm.rect(mesh_size=0.25)
    X = d.variable("interior", split=False)
    s = tr.variable("s")
    pts = d.context["interior"]
    s0 = np.random.default_rng(4).uniform(-1.0, 1.0, pts[..., :1].shape)
    net = nn.mlp(3, [16, 16], 1).initialize(2)
    u = net(tr.concat_nodes([X, s * s], axis=-1))
    dX, ds, dds = u.d(X), u.d(s), u.dd(s)

    def context():
        return ev.EvalContext(bindings={s: s0}, domain=d)

    pushes = _count_pushes(monkeypatch)
    ctx = context()
    ev.evaluate(dX * dds + ds, ctx)
    # a group per column of X, and one for s up to order 2
    assert pushes == [[(1, 1), (1, 1), (2, 1)]]
    for node in (dX, ds, dds):
        np.testing.assert_allclose(ctx.cache[node].data,
                                   ev.evaluate(node, context()).data,
                                   rtol=1e-12, atol=1e-12)

    def at(dp, ds0):
        inputs = np.concatenate([pts + dp, (s0 + ds0) ** 2], axis=-1)
        return net.forward([T.Tensor(inputs)]).data

    h1, h2 = 1e-6, 1e-4
    for j, e in enumerate(np.eye(2)):
        np.testing.assert_allclose(
            ctx.cache[dX].data[..., j:j + 1],
            (at(h1 * e, 0.0) - at(-h1 * e, 0.0)) / (2 * h1), atol=1e-6)
    np.testing.assert_allclose(
        ctx.cache[ds].data, (at(0.0, h1) - at(0.0, -h1)) / (2 * h1),
        atol=1e-6)
    np.testing.assert_allclose(
        ctx.cache[dds].data,
        (at(0.0, h2) - 2 * at(0.0, 0.0) + at(0.0, -h2)) / h2 ** 2, atol=1e-6)


def test_laplacian_residual_pushes_once_per_expression(monkeypatch):
    d, x, y, net, u = _mlp_rect()
    xb, yb, _ = d.variable("boundary")
    residual = u.dd(x) + u.dd(y) + 2.0 * x
    loss = residual.mse + net(tr.concat_nodes([xb, yb], axis=-1)).mse
    pushes = _count_pushes(monkeypatch)
    ctx = ev.EvalContext(domain=d)
    params = net.trainable_params()
    with T.Tape() as tape:
        tape.watch(*params.values())
        ev.evaluate(loss, ctx)
    # one group of two directions with one summed second coefficient
    assert pushes == [[(2, 2)]]
    assert tr.DERIVATIVE not in ctx.stats["by_kind"]
    # the summed coefficient serves only the sum: other requests on u push
    # what is missing, once, and requests a push covers reuse it
    ev.evaluate(u.d(x) + u.dd(y), ctx)
    assert pushes == [[(2, 2)], [(1, 1), (2, 1)]]
    ev.evaluate(u.d(y), ctx)
    assert len(pushes) == 2
    # a mixed partial: one push for u inside d(u, x), one for d(u, x)
    pushes.clear()
    ev.evaluate(tr.d(tr.d(u, x), y), ev.EvalContext(domain=d))
    assert pushes == [[(1, 1)], [(1, 1)]]


# ---------------------------------------------------------------------------
# Collapsed Taylor mode: one second coefficient summed over a group
# ---------------------------------------------------------------------------

def _directions(s0):
    """Three directions at s0: two full-shape ones and a row."""
    rng = np.random.default_rng(3)
    return [T.Tensor(rng.uniform(-1.0, 1.0, s0.shape)),
            T.Tensor(rng.uniform(-1.0, 1.0, s0.shape)),
            T.Tensor(rng.uniform(-1.0, 1.0, (1, s0.shape[1])))]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(MORE))
def test_collapsed_push_is_the_sum_of_per_direction_pushes(name):
    f = {**CASES, **MORE}[name]
    s = T.Tensor(np.random.default_rng(0).uniform(0.2, 0.8, (3, 4)))
    with T.Jet() as jet:
        jet.watch(s)
        out = f(s)
    vs = _directions(s.data)
    ((firsts, second),) = jet.push([(2, [(s, v) for v in vs])])
    alone = [jet.push([(2, [(s, v)])])[0] for v in vs]
    want = sum(_full([c], out)[0] for _, c in alone)
    scale = 1.0 + np.abs(want).max()
    np.testing.assert_allclose(_full([second], out)[0], want,
                               rtol=1e-12, atol=1e-12 * scale)
    for first, ([first_alone], _) in zip(firsts, alone):
        np.testing.assert_allclose(_full([first], out)[0],
                                   _full([first_alone], out)[0],
                                   rtol=1e-12, atol=1e-12 * scale)


def test_three_term_laplacian_against_differences(monkeypatch):
    # u(x, y, s): however the additions nest, the sum of the three pure
    # second derivatives is one group of three directions in one push
    d = dm.rect(mesh_size=0.25)
    x, y, _ = d.variable("interior")
    s = tr.variable("s")
    pts = d.context["interior"]
    s0 = np.random.default_rng(6).uniform(-1.0, 1.0, pts[..., :1].shape)
    net = nn.mlp(3, [16, 16], 1).initialize(4)
    u = net(tr.concat_nodes([x, y, s], axis=-1))
    pushes = _count_pushes(monkeypatch)
    laplacians = []
    for lap in (u.dd(x) + u.dd(y) + u.dd(s), u.dd(x) + (u.dd(y) + u.dd(s))):
        ctx = ev.EvalContext(bindings={s: s0}, domain=d)
        laplacians.append(ev.evaluate(lap, ctx).data)
        assert tr.DERIVATIVE not in ctx.stats["by_kind"]
    assert pushes == [[(2, 3)], [(2, 3)]]

    def at(dx, dy, ds):
        inputs = np.concatenate([pts[..., :1] + dx, pts[..., 1:2] + dy,
                                 s0 + ds], axis=-1)
        return net.forward([T.Tensor(inputs)]).data

    h = 1e-4
    fd = (at(h, 0, 0) + at(-h, 0, 0) + at(0, h, 0) + at(0, -h, 0)
          + at(0, 0, h) + at(0, 0, -h) - 6 * at(0, 0, 0)) / h ** 2
    ctx = ev.EvalContext(bindings={s: s0}, domain=d)
    terms = sum(ev.evaluate(u.dd(c), ctx).data for c in (x, y, s))
    for got in laplacians:
        assert got.shape == fd.shape
        np.testing.assert_allclose(got, fd, atol=1e-6)
        np.testing.assert_allclose(got, terms, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("outputs", [1, 2])
def test_collapsed_sum_over_a_variable_with_several_columns(monkeypatch,
                                                            outputs):
    # column j of u.dd(X) + u.dd(s) sums along column j of X and along s:
    # one group per column of X, each with a direction of X and one of s
    d = dm.rect(mesh_size=0.25)
    X = d.variable("interior", split=False)
    s = tr.variable("s")
    pts = d.context["interior"]
    s0 = np.random.default_rng(4).uniform(-1.0, 1.0, pts[..., :1].shape)
    net = nn.mlp(3, [16], outputs).initialize(2)
    u = net(tr.concat_nodes([X, s * s], axis=-1))
    pushes = _count_pushes(monkeypatch)
    got = ev.evaluate(u.dd(X) + u.dd(s),
                      ev.EvalContext(bindings={s: s0}, domain=d)).data
    assert pushes == [[(2, 2), (2, 2)]]
    ctx = ev.EvalContext(bindings={s: s0}, domain=d)
    want = ev.evaluate(u.dd(X), ctx).data + ev.evaluate(u.dd(s), ctx).data
    assert got.shape == want.shape == pts.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_derivatives_of_a_collapsed_laplacian():
    # u = x sin(x) sin(y): d(lap u, x) reads the inner sum's pass through
    # an outer Jet, and the bilaplacian is a collapsed sum of collapsed sums
    d = dm.rect(mesh_size=0.25)
    x, y, _ = d.variable("interior")
    u = x * tr.build(tr.ARITH, "sin", (x,)) * tr.build(tr.ARITH, "sin", (y,))
    lap = u.dd(x) + u.dd(y)
    pts = d.context["interior"]
    px, py = pts[..., :1], pts[..., 1:2]
    got = ev.evaluate(tr.d(lap, x), ev.EvalContext(domain=d)).data
    np.testing.assert_allclose(
        got, -4 * np.sin(px) * np.sin(py) - 2 * px * np.cos(px) * np.sin(py),
        rtol=1e-13, atol=1e-13)
    got = ev.evaluate(lap.dd(x) + lap.dd(y), ev.EvalContext(domain=d)).data
    np.testing.assert_allclose(
        got, 4 * px * np.sin(px) * np.sin(py) - 8 * np.cos(px) * np.sin(py),
        rtol=1e-12, atol=1e-12)


def test_sum_with_other_terms_or_repeated_variables_is_not_collapsed(
        monkeypatch):
    d, x, y, net, u = _mlp_rect()
    pushes = _count_pushes(monkeypatch)
    for expr in (u.dd(x) + u.d(y), u.dd(x) + u.dd(x), x + u.dd(x),
                 u.dd(x) + net(tr.concat_nodes([y, x], axis=-1)).dd(y)):
        ctx = ev.EvalContext(domain=d)
        ev.evaluate(expr, ctx)
        assert ctx.stats["by_kind"][tr.DERIVATIVE] >= 1
    assert [(2, 2)] not in pushes


def test_laplacian_collapses_wherever_the_other_terms_sit(monkeypatch):
    # the other terms of a sum may come before, between or after the
    # Laplacian's; every order is one push of a summed coefficient, records
    # as many Tape records, and gives the same loss and parameter gradient
    d, x, y, net, u = _mlp_rect()
    v = net(tr.concat_nodes([y, x], axis=-1))
    f, g = 2.0 * x, x * y
    pushes = _count_pushes(monkeypatch)
    params = list(net.trainable_params().values())

    def run(expr):
        pushes.clear()
        ctx = ev.EvalContext(domain=d)
        with T.Tape() as tape:
            tape.watch(*params)
            loss = ev.evaluate(expr.mse, ctx)
        records = len(tape.records)
        grads = tape.gradient(loss, params)
        assert tr.DERIVATIVE not in ctx.stats["by_kind"]
        return loss.item(), records, [grads[p.uid].data for p in params]

    lap = u.dd(x) + u.dd(y)
    want, records, want_grads = run(lap + f + g)
    assert pushes == [[(2, 2)]]
    for expr in (f + u.dd(x) + u.dd(y) + g, (u.dd(x) + f) + u.dd(y) + g,
                 (u.dd(x) + f) + (g + u.dd(y)), f + (g + lap)):
        got, got_records, got_grads = run(expr)
        assert pushes == [[(2, 2)]]
        assert got_records == records
        assert abs(got - want) <= 1e-12 * abs(want)
        for a, b in zip(got_grads, want_grads):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    # two expressions: one group each; a repeated term counts as often as
    # it is written
    run(u.dd(x) + v.dd(x) + f + v.dd(y) + u.dd(y))
    assert pushes == [[(2, 2)], [(2, 2)]]
    ctx = ev.EvalContext(domain=d)
    got = ev.evaluate(u.dd(x) + lap + u.dd(x), ctx).data
    terms = ev.evaluate(lap, ctx).data + 2 * ev.evaluate(u.dd(x), ctx).data
    np.testing.assert_allclose(got, terms, rtol=1e-12, atol=1e-12)


_S5 = sp.csr_matrix(np.arange(20.0).reshape(4, 5) % 3 - 1.0)

# Consumers that read across elements, applied to a (2, 1, 5, 3) tensor
# whose coefficients are rows of shape (1, 1, 1, 3).
EXPANDING = {
    "reduce_over_batch": lambda t: T.reduce_sum(t, axes=0),
    "reduce_over_points": lambda t: T.reduce_sum(t, axes=(1, 2),
                                                 keepdims=True),
    "reshape": lambda t: T.reshape(t, (10, 3)),
    "take_slice_int": lambda t: T.take_slice(t, (1, 0, 2)),
    "take_slice_range": lambda t: T.take_slice(t, (slice(None), 0,
                                                   slice(1, 4))),
    "scatter_slice": lambda t: T.scatter_slice(
        t, (slice(None), slice(None), slice(1, 6)), (2, 1, 7, 3)),
    "concat_points": lambda t: T.concat([t, T.ones((2, 1, 2, 3))], axis=2),
    "concat_columns": lambda t: T.concat(
        [t, T.mul(t, T.Tensor(np.linspace(1.0, 2.0, 5).reshape(5, 1)))],
        axis=-1),
    "sparse_matmul": lambda t: T.sparse_matmul(_S5, t),
    "sparse_matmul_triplets": lambda t: T.sparse_matmul(_triplets(_S5), t),
    # a coefficient of shape (1, 1, 1, 1) on the contracted axis of 3
    "matmul_contracted": lambda t: T.matmul(
        T.add(T.reduce_sum(t, axes=-1, keepdims=True), T.zeros((2, 1, 5, 3))),
        T.Tensor(np.arange(6.0).reshape(3, 2))),
}


@pytest.mark.parametrize("name", sorted(EXPANDING))
def test_row_coefficient_through_an_expanding_consumer(name):
    # t1 of x * w and t2 of (x * w) * (x * v) are rows: the consumer's
    # coefficients, and a Tape's gradient of them w.r.t. w, equal those
    # of a push along a full-shape direction
    rng = np.random.default_rng(1)
    w = T.Tensor(np.array([[[[1.0, -2.0, 0.5]]]]))
    v = T.Tensor(np.array([[[[0.3, 1.0, -1.0]]]]))
    x = T.Tensor(rng.uniform(-1.0, 1.0, (2, 1, 5, 1)))
    with T.Tape() as tape:
        tape.watch(w)
        with T.Jet() as jet:
            jet.watch(x)
            lin = T.mul(x, w)
            quad = T.mul(lin, T.mul(x, v))
            outs = [EXPANDING[name](lin), EXPANDING[name](quad)]
        pushes = [jet.push([(2, [(x, d)])])[0] for d in (None, T.ones(x.shape))]
        weights = [T.Tensor(rng.uniform(-1.0, 1.0, out.shape)) for out in outs]
        totals = []
        for firsts, second in pushes:
            total = T.Tensor(0.0)
            for out, weight in zip(outs, weights):
                for c in (firsts[0], second):
                    if out.uid in c:
                        total = T.add(total, T.reduce_sum(T.mul(
                            T.broadcast_to(c[out.uid], out.shape), weight)))
            totals.append(total)
    (rows, row2), (full, full2) = pushes
    assert rows[0][lin.uid].shape == (1, 1, 1, 3)
    assert row2[quad.uid].shape == (1, 1, 1, 3)
    for out in outs:
        for got, want in zip(_full([rows[0], row2], out),
                             _full([full[0], full2], out)):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(
        *(tape.gradient(t, [w])[w.uid].data for t in totals),
        rtol=1e-13)


# Consumers of h = f(x * w) for a (1, 1, 1, 3) row w, and a (3, 2) weight B.
# Along a row direction, the first and second coefficients of h are
# factored, f'(x w) or f''(x w) times a row; a left matmul operand folds the
# row into B, and every other consumer reads the product.
FACTORED = {
    "matmul_left": lambda h, B: T.matmul(h, B),
    "matmul_right": lambda h, B: T.matmul(
        T.Tensor(np.linspace(-1.0, 1.0, 20).reshape(4, 5)), h),
    "add": lambda h, B: T.add(h, T.Tensor(np.linspace(0.0, 1.0, 5)[:, None])),
    "mul": lambda h, B: T.mul(h, T.Tensor(np.linspace(1.0, 2.0, 3))),
    "concat": lambda h, B: T.concat([h, T.ones((2, 1, 5, 2))], axis=-1),
    "reduce_over_points": lambda h, B: T.reduce_sum(h, axes=2, keepdims=True),
    "tanh": lambda h, B: T.tanh(h),
}


@pytest.mark.parametrize("consumer", sorted(FACTORED))
@pytest.mark.parametrize("name", ["exp", "sin", "tanh"])
def test_factored_coefficient_equals_the_full_directions(name, consumer):
    # the coefficients of h and of its consumer, and a Tape's gradient of
    # them w.r.t. w and B, equal those of a push along a full-shape
    # direction; bitwise but where a matmul folded the row, which sums in
    # another order
    rng = np.random.default_rng(6)
    w = T.Tensor(np.array([[[[1.0, -2.0, 0.5]]]]))
    B = T.Tensor(rng.uniform(-1.0, 1.0, (3, 2)))
    x = T.Tensor(rng.uniform(-1.0, 1.0, (2, 1, 5, 1)))
    with T.Tape() as tape:
        tape.watch(w, B)
        with T.Jet() as jet:
            jet.watch(x)
            h = getattr(T, name)(T.mul(x, w))
            out = FACTORED[consumer](h, B)
        pushes = [jet.push([(2, [(x, d)])])[0]
                  for d in (None, T.ones(x.shape))]
        (rows, row2), (full, full2) = pushes
        if consumer == "matmul_left":
            # only the matmul read h's coefficients: they stay factored
            assert all(type(dict.get(c, h.uid)) is T._Factored
                       for c in (rows[0], row2))
        weight = T.Tensor(rng.uniform(-1.0, 1.0, out.shape))
        totals = [T.add(*(T.reduce_sum(T.mul(T.broadcast_to(c[out.uid],
                                                             out.shape),
                                             weight)) for c in (c1[0], c2)))
                  for c1, c2 in pushes]
    for t in (h, out):
        got, want = _full([rows[0], row2], t), _full([full[0], full2], t)
        if t is out and consumer == "matmul_left":
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, want)
    got, want = (tape.gradient(t, [w, B]) for t in totals)
    for p in (w, B):
        np.testing.assert_allclose(got[p.uid].data, want[p.uid].data,
                                   rtol=1e-13, atol=1e-15)


def test_factored_terms_of_one_coefficient_add():
    # a = x**2 + c for a row x and a full c has row coefficients 2x and 2,
    # so both terms of t2 of tanh(a), f'(a) a2 and f''(a) a1**2, are
    # factored, and are multiplied out to be added
    x = T.Tensor(np.array([[[[0.3, -0.7, 1.1]]]]))
    c = np.random.default_rng(8).uniform(-1.0, 1.0, (2, 1, 5, 3))
    with T.Jet() as jet:
        jet.watch(x)
        h = T.tanh(T.add(T.mul(x, x), T.Tensor(c)))
    (([first], second),) = jet.push([(2, [(x, None)])])
    fp = 1.0 - h.data ** 2
    a1 = 2.0 * x.data
    np.testing.assert_allclose(first[h.uid].data, fp * a1, rtol=1e-14)
    np.testing.assert_allclose(second[h.uid].data,
                               fp * 2.0 - 2.0 * h.data * fp * a1 ** 2,
                               rtol=1e-14, atol=1e-15)


def test_space_time_mlp_derivatives_against_differences():
    # an MLP 3-16-16-1 of (x, y, t): the first layer's coefficients along
    # each coordinate are rows, factored at its activation
    d = dm.structured_rect(6, 6, time=(0.0, 1.0, 3))
    x, y, t = d.variable("interior")
    net = nn.mlp(3, [16, 16], 1).initialize(4)
    u = net(tr.concat_nodes([x, y, t], axis=-1))
    ctx = ev.EvalContext(domain=d)
    got = ev.evaluate(u.dd(x) + u.dd(y) - u.d(t), ctx).data
    dt = ev.evaluate(u.d(t), ctx).data
    b = d.bindings()
    p = [np.broadcast_to(b[v].data, b[x].shape) for v in (x, y, t)]

    def at(i, h):
        q = list(p)
        q[i] = q[i] + h
        return net.forward([T.Tensor(np.concatenate(q, axis=-1))]).data

    h1, h2 = 1e-6, 1e-4
    fd_dt = (at(2, h1) - at(2, -h1)) / (2 * h1)
    lap = sum(at(i, h2) + at(i, -h2) - 2 * at(i, 0.0)
              for i in (0, 1)) / h2 ** 2
    np.testing.assert_allclose(dt, fd_dt, atol=1e-6)
    np.testing.assert_allclose(got, lap - fd_dt, atol=1e-6)


def _laplacian_loss(n=200):
    """The AD-Laplacian loss of an MLP 2-32-32-1 (tanh) at `n` points, its
    bindings and the MLP."""
    x, y = tr.variable("x"), tr.variable("y")
    rng = np.random.default_rng(2)
    px, py = (rng.uniform(0.0, 1.0, (1, 1, n, 1)) for _ in range(2))
    net = nn.mlp(2, [32, 32], 1).initialize(1)
    u = net(tr.concat_nodes([x, y], axis=-1))
    return (u.dd(x) + u.dd(y) + x * y).mse, {x: px, y: py}, net


def _under_tape(loss, bindings, params):
    """The parameter Tape of `loss` and its value."""
    with T.Tape() as tape:
        tape.watch(*params)
        value = ev.evaluate(loss, ev.EvalContext(bindings=bindings))
    return tape, value


def test_laplacian_loss_allocates_few_full_size_arrays(monkeypatch):
    # owned (..., N, 32) arrays made by one AD-Laplacian loss of an MLP
    # 2-32-32-1 under a parameter Tape, and by its parameter gradient;
    # per-direction second coefficients took 36 and 66, recomputing f' of
    # tanh and taking a square as a product took 47 in the gradient, and
    # multiplying out the first activation's coefficients, which are rows
    # times f' or f'', took 28 and 39
    n = 200
    loss, bindings, net = _laplacian_loss(n)
    params = list(net.trainable_params().values())
    counts = []
    init = T.Tensor.__init__

    def counted(tensor, data):
        init(tensor, data)
        if tensor.data.shape[-2:] == (n, 32) and tensor.data.base is None:
            counts[-1] += 1

    monkeypatch.setattr(T.Tensor, "__init__", counted)
    counts.append(0)
    tape, value = _under_tape(loss, bindings, params)
    counts.append(0)
    tape.gradient(value, params)
    assert counts[0] <= 25
    assert counts[1] <= 33


def _tensors_made(f):
    """The number of Tensors that f() makes: the uids between two fresh
    ones."""
    first = T.Tensor(0.0).uid
    f()
    return T.Tensor(0.0).uid - first - 1


def test_laplacian_loss_gradient_makes_a_pinned_number_of_tensors():
    # the unrecorded gradient reuses the f' of each tanh that the push
    # computed, and takes one product per square; a change that computes
    # either again makes more Tensors and fails here.  The three scalings
    # of the second layer's weight by the first activation's factored
    # coefficients (t1 along x and y, and t2) add one adjoint each to the
    # 99 Tensors of multiplying those coefficients out
    loss, bindings, net = _laplacian_loss(8)
    params = list(net.trainable_params().values())
    tape, value = _under_tape(loss, bindings, params)
    assert _tensors_made(lambda: tape.gradient(value, params)) == 102


def test_unrecorded_replay_keeps_no_derivative_factor():
    # f' computed by a replay that nothing records is not kept: a second
    # gradient computes it again and makes as many Tensors as the first
    w, s = T.Tensor(0.7), T.Tensor(np.linspace(-1.0, 1.0, 5))
    with T.Tape() as tape:
        tape.watch(w)
        total = T.reduce_sum(T.tanh(T.sin(T.mul(w, s))))
    counts = [_tensors_made(lambda: tape.gradient(total, [w]))
              for _ in range(2)]
    assert counts[0] == counts[1] > 0


def test_kept_derivative_factor_cannot_hide_a_dependence():
    # the push under the parameter Tape keeps each tanh's f'; that Tape's
    # gradient inside an outer Tape computes f' again, so the outer Tape's
    # H v matches central differences of the gradient, and the gradient
    # taken again after the outer block, which reuses f', equals a fresh
    # Tape's
    loss, bindings, net = _laplacian_loss(6)
    live = net.params
    path = next(p for p in live if p.endswith("layers/1/weight"))
    w = live[path]
    v = np.random.default_rng(3).uniform(-1.0, 1.0, w.shape)

    def gradient_at(shift):
        moved = T.Tensor(w.data + shift * v)
        net.params = {**live, path: moved}
        tape, value = _under_tape(loss, bindings, [moved])
        return tape.gradient(value, [moved])[moved.uid].data

    with T.Tape() as outer:
        outer.watch(w)
        inner, value = _under_tape(loss, bindings, [w])
        g = inner.gradient(value, [w])[w.uid]
        gv = T.reduce_sum(T.mul(g, T.Tensor(v)))
    hv = outer.gradient(gv, [w])[w.uid].data
    again = inner.gradient(value, [w])[w.uid].data
    h = 1e-5
    try:
        fd = (gradient_at(h) - gradient_at(-h)) / (2 * h)
        fresh = gradient_at(0.0)
    finally:
        net.params = live
    np.testing.assert_allclose(hv, fd, atol=1e-6 * (1.0 + np.abs(fd).max()))
    assert again.shape == fresh.shape == g.shape
    assert again.tobytes() == fresh.tobytes() == g.data.tobytes()


def test_kept_derivative_factor_is_not_reused_under_a_recorder():
    # the outer Tape records the forward tanh but not the push, which keeps
    # f' on the inner Tape alone; the inner gradient, in the outer Tape's
    # block again, computes f' anew, so the outer Tape sees it depend on w:
    # d2/dw2 sum tanh(w s) = sum -2 s**2 tanh(w s) (1 - tanh(w s)**2)
    s0 = np.linspace(0.1, 1.0, 5)
    w, s = T.Tensor(0.7), T.Tensor(s0)
    outer, inner = T.Tape(), T.Tape()
    with outer:
        outer.watch(w)
        with inner:
            inner.watch(w)
            with T.Jet() as jet:
                jet.watch(s)
                total = T.reduce_sum(T.tanh(T.mul(w, s)))
    with inner:
        jet.push([(2, [(s, None)])])
    with outer:
        g = inner.gradient(total, [w])[w.uid]
    second = outer.gradient(g, [w])[w.uid].item()
    th = np.tanh(0.7 * s0)
    assert second == pytest.approx(np.sum(-2 * s0 ** 2 * th * (1 - th ** 2)),
                                   rel=1e-12)


def test_square_is_the_unary_map_of_its_operand():
    # mul(a, a) against mul(a, b) for a taped copy b of a: the same Jet
    # coefficients bitwise and the same gradient; d2(x*x)/dx2 is exactly 2
    s0 = np.random.default_rng(4).uniform(0.2, 0.8, (3, 4))
    square = _coefficients(lambda s: (lambda a: T.mul(a, a))(A(s)), s0, 2)
    product = _coefficients(
        lambda s: (lambda a: T.mul(a, T.reshape(a, a.shape)))(A(s)), s0, 2)
    for got, want in zip(square, product):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def gradient(f):
        return T.grad(lambda s: T.reduce_sum(T.sin(f(A(s)))),
                      T.Tensor(s0)).data

    got = gradient(lambda a: T.mul(a, a))
    want = gradient(lambda a: T.mul(a, T.reshape(a, a.shape)))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    x = T.Tensor(np.array([-1.5, 0.0, 0.3, 2.0]))
    with T.Tape() as outer:
        outer.watch(x)
        with T.Tape() as inner:
            inner.watch(x)
            total = T.reduce_sum(T.mul(x, x))
        g = inner.gradient(total, [x])[x.uid]
        g_total = T.reduce_sum(g)
    assert outer.gradient(g_total, [x])[x.uid].tolist() == [2.0] * 4
