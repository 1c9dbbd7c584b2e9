import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jno import evaluator as ev
from jno import nn
from jno import tensor as T
from jno import trace as tr
from jno.errors import (
    ArityMismatch,
    ExtraBinding,
    IndexOutOfRange,
    InvalidAxis,
    JnoError,
    MissingBinding,
    NonPositiveInterval,
    NotAVariable,
    ShapeInferenceFailure,
    ShapeMismatch,
)


class FakeModel:
    """Shape-rule stand-in for a real network."""

    def __init__(self, out_dim=1, name="net"):
        self.out_dim = out_dim
        self.name = name

    def output_shape(self, arg_shapes):
        return tuple(arg_shapes[-1][:-1]) + (self.out_dim,)


class TestIdentity:
    def test_set_semantics(self):
        x = tr.variable("x")
        s = {x, x}
        assert len(s) == 1
        y = tr.variable("x")  # same name, distinct node
        assert len({x, y}) == 2

    def test_eq_is_identity(self):
        x = tr.variable("x")
        y = tr.variable("x")
        assert x == x
        assert not (x == y)
        assert x != y

    def test_inequality_builds_compare(self):
        x, y = tr.variable("x"), tr.variable("y")
        node = x < y
        assert node.kind == tr.COMPARE
        assert node.payload == "lt"

    def test_elementwise_equality_builds_compare(self):
        x, y = tr.variable("x"), tr.variable("y")
        ctx = ev.EvalContext(bindings={x: np.array([1.0, 2.0, 3.0]),
                                       y: np.array([1.0, 0.0, 3.0])})
        for node, op, want in ((x.eq_elem(y), "eq", [1.0, 0.0, 1.0]),
                               (x.ne_elem(2.0), "ne", [1.0, 0.0, 1.0])):
            assert node.kind == tr.COMPARE and node.payload == op
            assert ev.evaluate(node, ctx).tolist() == want


class TestBuild:
    def test_deferred_add(self):
        x, y = tr.variable("x"), tr.variable("y")
        node = x + y
        assert node.kind == tr.ARITH
        assert node.payload == "add"
        assert node.children == (x, y)

    def test_literal_lift(self):
        x = tr.variable("x")
        node = x + 1.0
        assert node.children[1].kind == tr.LITERAL

    def test_arity_error(self):
        with pytest.raises(ArityMismatch):
            tr.build(tr.ARITH, "add", (tr.variable("x"),))

    def test_derivative_requires_variable(self):
        x = tr.variable("x")
        with pytest.raises(NotAVariable):
            tr.derivative(x, x + x)

    def test_dd_builds_order_2(self):
        x = tr.variable("x")
        u = tr.ExprNode(tr.MODEL_CALL, FakeModel(), (x,))
        node = u.dd(x)
        assert node.kind == tr.DERIVATIVE
        assert node.payload[0] == 2

    def test_unknown_reduction(self):
        with pytest.raises(ArityMismatch):
            tr.variable("x").reduce("bogus")

    def test_reduction_properties(self):
        x = tr.variable("x")
        assert (x.mse).payload == ("mse", None)
        assert (x.mean).payload == ("mean", None)

    def test_tracker_interval(self):
        x = tr.variable("x")
        node = tr.tracker(x, 10)
        assert node.kind == tr.TRACKER and node.payload == 10
        with pytest.raises(NonPositiveInterval):
            tr.tracker(x, 0)


class TestOperationDef:
    def test_shared_body(self):
        a, k = tr.variable("a"), tr.variable("k")
        scaled = k * 2.0
        op = tr.define_operation([a], a * scaled, name="scale")
        x = tr.variable("x")
        call = op(x)
        # the formal is replaced in a copy; the part of the body that does
        # not depend on it is shared, and the body is left as it was
        assert call.kind == tr.ARITH and call.payload == "mul"
        assert call.children == (x, scaled)
        assert op.body.children == (a, scaled)

    def test_formal_derivative_target_needs_a_variable(self):
        a, t = tr.variable("a"), tr.variable("t")
        op = tr.define_operation([a, t], a.d(t))
        x = tr.variable("x")
        sq = x * x
        call = op(sq, x)
        assert call.kind == tr.DERIVATIVE and call.children == (sq, x)
        with pytest.raises(NotAVariable):
            op(x, x + 1.0)

    def test_missing_binding(self):
        a, b = tr.variable("a"), tr.variable("b")
        op = tr.define_operation([a, b], a + b)
        with pytest.raises(MissingBinding):
            tr.call_operation(op, {a: tr.variable("x")})

    def test_extra_binding(self):
        a = tr.variable("a")
        op = tr.define_operation([a], a * a)
        with pytest.raises(ExtraBinding):
            tr.call_operation(op, {a: tr.variable("x"), tr.variable("z"): a})

    def test_rebinding_consistent_cse_keys(self):
        # Oracle: the keys of two rebindings to the same args match, so the
        # two calls are one node as built.
        a = tr.variable("a")
        square = tr.define_operation([a], a * a, name="square")
        x = tr.variable("x")
        c1, c2 = square(x), square(x)
        assert c1 is c2
        root = c1 + c2
        new_root, stats = tr.cse(root)
        # x, x*x and the add; the second call adds no node
        assert stats == {"nodes_before": 3, "nodes_after": 3}
        assert new_root is root
        assert new_root.children[0] is new_root.children[1]

    def test_identical_calls_merge_to_one_subgraph(self):
        a, b = tr.variable("a"), tr.variable("b")
        op = tr.define_operation([a, b], (a * b + 1.0).mean)
        x, y = tr.variable("x"), tr.variable("y")
        assert op(x, y) is op(x, y)
        root = op(x, y) + op(x, y)
        # x, y, the body's literal, and one mul, add and mean for both calls
        assert tr.count_nodes(root) == 7
        new_root, stats = tr.cse(root)
        assert stats == {"nodes_before": 7, "nodes_after": 7}
        assert new_root.children[0] is new_root.children[1]

    def test_call_expands_like_inline_body(self):
        # f(x) with f(a)=a*a keys identically to a hand-built x*x
        a = tr.variable("a")
        square = tr.define_operation([a], a * a)
        x = tr.variable("x")
        inline = x * x
        call = square(x)
        assert call is inline
        root = inline + call
        _, stats = tr.cse(root)
        # x, x*x and the add: the call is the inline body's node
        assert stats == {"nodes_before": 3, "nodes_after": 3}


class TestCse:
    def test_shared_add(self):
        x, y = tr.variable("x"), tr.variable("y")
        prod = (x + y) * (x + y)  # one add node, built twice
        assert prod.children[0] is prod.children[1]
        new_root, stats = tr.cse(prod)
        assert stats == {"nodes_before": 4, "nodes_after": 4}
        assert new_root is prod

    def test_no_duplicates_untouched(self):
        x, y = tr.variable("x"), tr.variable("y")
        root = (x * y) + x
        new_root, stats = tr.cse(root)
        assert stats["nodes_before"] == stats["nodes_after"]
        assert new_root is root

    def test_idempotent(self):
        x, y = tr.variable("x"), tr.variable("y")
        root = ((x + y) * (x + y)) + (x + y)
        once, s1 = tr.cse(root)
        twice, s2 = tr.cse(once)
        assert s2["nodes_before"] == s2["nodes_after"] == s1["nodes_after"]

    def test_distinct_variables_not_merged(self):
        x, y = tr.variable("v"), tr.variable("v")
        root = (x + 1.0) * (y + 1.0)
        # the literals are shared by value, but x+1 and y+1 hold different
        # Variables and must stay distinct
        left, right = root.children
        assert left.children[1] is right.children[1]
        assert left is not right
        new_root, stats = tr.cse(root)
        assert stats == {"nodes_before": 6, "nodes_after": 6}
        assert new_root.children[0] is not new_root.children[1]

    def test_literals_merge_by_value(self):
        x = tr.variable("x")
        assert tr.as_node(1.0) is tr.literal(1) is tr.as_node(1)
        root = (x + 1.0) * (x + 1.0)
        _, stats = tr.cse(root)
        # x, 1.0, add, mul
        assert stats == {"nodes_before": 4, "nodes_after": 4}

    def test_signed_zero_literals_stay_apart(self):
        # 0.0 == -0.0, but 1/(x*0.0) is +inf and 1/(x*-0.0) is -inf
        x = tr.variable("x")
        roots = [1.0 / (x * 0.0), 1.0 / (x * -0.0)]
        merged, _ = tr.cse(roots)
        ctx = ev.EvalContext(bindings={x: np.ones((1, 1, 2, 1))})
        assert [ev.evaluate(r, ctx).data.flat[0] for r in merged] \
            == [np.inf, -np.inf]

    def test_model_calls_share(self):
        net = FakeModel()
        x = tr.variable("x")
        u1 = tr.model_call(net, [x])
        u2 = tr.model_call(net, [x])
        c1 = (u1 * u1).mse
        c2 = (u2 + 1.0).mse
        (r1, r2), stats = tr.cse([c1, c2])
        calls = [n for n in tr.walk([r1, r2]) if n.kind == tr.MODEL_CALL]
        assert len(calls) == 1


class TestInterning:
    """`build` shares a node equal to a live one, and nothing else."""

    @pytest.mark.parametrize("make", [
        lambda: tr.variable("v"),
        lambda: tr.constant(np.ones(2)),
        lambda: tr.tensor_tag("t", np.ones(2)),
        lambda: tr.build(tr.TRIAL, None, (), "u"),
        lambda: tr.build(tr.TEST, None, (), "phi"),
    ], ids=["variable", "constant", "tensor_tag", "trial", "test"])
    def test_identity_leaves_stay_apart(self, make):
        a, b = make(), make()
        assert a is not b
        assert (a + 1.0) is not (b + 1.0)

    def test_trackers_stay_apart(self):
        x = tr.variable("x")
        assert tr.tracker(x.mean, 1) is not tr.tracker(x.mean, 1)
        assert tr.tracker(x.mean, 1).children[0] is x.mean

    def test_names_keep_nodes_apart(self):
        x, y = tr.variable("x"), tr.variable("y")
        named = [tr.build(tr.ARITH, "add", (x, y), name) for name in
                 (None, "a", "b", "a")]
        assert named[1] is named[3]
        assert len({id(n) for n in named}) == 3

    def test_signed_zeros_and_nans(self):
        assert tr.literal(0.0) is tr.literal(0.0)
        assert tr.literal(0.0) is not tr.literal(-0.0)
        nan = math.nan
        assert tr.literal(nan) is not tr.literal(nan)
        x = tr.variable("x")
        assert (x + nan) is not (x + nan)

    def test_models_keep_calls_apart(self):
        x = tr.variable("x")
        a, b = FakeModel(), FakeModel()
        assert tr.model_call(a, [x]) is tr.model_call(a, [x])
        assert tr.model_call(a, [x]) is not tr.model_call(b, [x])

    def test_unhashable_derivative_target_is_refused(self):
        with pytest.raises(NotAVariable):
            tr.derivative(tr.variable("x"), np.ones(2))

    def test_dropped_graph_leaves_the_table(self):
        gc.collect()
        before = len(tr._INTERNED)
        root = tr.variable("x")
        for _ in range(50):
            root = root + 1234.5
        root = root.mse
        # 1234.5, the 50 adds and the mse
        assert len(tr._INTERNED) == before + 52
        probe = weakref.ref(root)
        del root
        gc.collect()
        assert probe() is None
        assert len(tr._INTERNED) == before


class TestGraphUtils:
    def test_toposort_children_first(self):
        x, y = tr.variable("x"), tr.variable("y")
        root = (x + y) * x
        order = tr.toposort(root)
        pos = {n: i for i, n in enumerate(order)}
        for n in order:
            for c in n.children:
                assert pos[c] < pos[n]

    def test_acyclic_by_construction(self):
        # a random-ish composite graph always toposorts
        rng = np.random.default_rng(0)
        leaves = [tr.variable(f"v{i}") for i in range(4)]
        pool = list(leaves)
        for _ in range(30):
            a, b = rng.choice(len(pool), 2)
            pool.append(pool[int(a)] + pool[int(b)])
        assert len(tr.toposort(pool[-1])) == tr.count_nodes(pool[-1])


class TestShapes:
    def test_listing_path(self):
        B, N = 4, 10
        x = tr.variable("x", shape=(B, 1, N, 1))
        y = tr.variable("y", shape=(B, 1, N, 1))
        net = FakeModel(out_dim=1)
        inp = tr.concat_nodes([x, y], axis=-1)
        u = tr.model_call(net, [inp])
        loss = u.mse
        rep = tr.trace_shapes(loss)
        assert rep[inp] == (B, 1, N, 2)
        assert rep[u] == (B, 1, N, 1)
        assert rep[loss] == ()

    def test_mismatch_names_node(self):
        a = tr.variable("a", shape=(2, 1, 5, 1))
        b = tr.variable("b", shape=(2, 1, 4, 2))
        bad = a + b
        with pytest.raises(ShapeInferenceFailure) as exc:
            tr.trace_shapes(bad)
        assert exc.value.node is bad

    def test_feature_axis_broadcast_is_legal(self):
        # trailing 1-vs-2 broadcasts under the right-aligned rule
        a = tr.variable("a", shape=(2, 1, 5, 1))
        b = tr.variable("b", shape=(2, 1, 5, 2))
        root = a * b
        rep = tr.trace_shapes(root)
        assert rep[root] == (2, 1, 5, 2)

    def test_report_deterministic(self):
        x = tr.variable("x", shape=(3, 1, 7, 1))
        root = ((x * x) + x).mse
        rep = tr.trace_shapes(root)
        assert tr.print_shapes(rep) == tr.print_shapes(rep)

    def test_shape_matches_evaluation(self):
        from jno import evaluator as ev

        x = tr.variable("x", shape=(2, 3))
        root = (x * x + 1.0).reduce("sum", axes=1)
        rep = tr.trace_shapes(root)
        ctx = ev.EvalContext(bindings={x: np.ones((2, 3))})
        for node in rep.order:
            val = ev.evaluate(node, ctx)
            assert val.shape == rep[node]

    def test_numpy_integer_index(self):
        x = tr.variable("x")
        ctx = ev.EvalContext(bindings={x: np.arange(6.0).reshape(2, 3)})
        numpy_root, int_root = x[np.int64(1)], x[1]
        assert numpy_root is int_root
        assert tr.trace_shapes(numpy_root, {x: (2, 3)})[numpy_root] == (3,)
        np.testing.assert_array_equal(ev.evaluate(numpy_root, ctx).data,
                                      ev.evaluate(int_root, ctx).data)

    def test_non_integer_index(self):
        x = tr.variable("x")
        for index in (1.0, np.float64(1.0), np.True_):
            with pytest.raises(ArityMismatch, match="unsupported slice"):
                x[index]

    @pytest.mark.parametrize("make, error", [
        (lambda x: x.reduce("sum", axes=(5,)), InvalidAxis),
        (lambda x: x.reduce("sum", axes=(-7,)), InvalidAxis),
        (lambda x: x.reduce("sum").reduce("sum", axes=(0,)), InvalidAxis),
        (lambda x: tr.transpose_node(x, (0, 0, 1, 2)), InvalidAxis),
        (lambda x: tr.transpose_node(x, (0, 1, 2)), InvalidAxis),
        (lambda x: tr.concat_nodes([x, x], axis=9), InvalidAxis),
        (lambda x: x.reduce("sum", axes=(1, 1)), InvalidAxis),
        (lambda x: x[:, :, ::0], IndexOutOfRange),
        (lambda x: x[0, 0, 0, 0, 0], IndexOutOfRange),
        (lambda x: x[:, :, 3], IndexOutOfRange),
        (lambda x: x[True], IndexOutOfRange),
        (lambda x: tr.matmul_nodes(x, x), ShapeMismatch),
        (lambda x: tr.concat_nodes([x, x.reduce("sum", axes=0)], axis=0),
         ShapeMismatch),
    ], ids=["reduce-5", "reduce-minus-7", "reduce-scalar", "transpose-repeat",
            "transpose-3-of-4", "concat-9", "reduce-repeat", "slice-step-0",
            "slice-too-long", "slice-index", "slice-bool", "matmul-inner",
            "concat-rank"])
    def test_shapes_and_evaluation_refuse_a_bad_axis_alike(self, make, error):
        x = tr.variable("x")
        root = make(x)
        with pytest.raises(ShapeInferenceFailure) as exc:
            tr.trace_shapes(root, {x: (1, 1, 3, 2)})
        assert exc.value.node is root
        ctx = ev.EvalContext(bindings={x: np.ones((1, 1, 3, 2))})
        with pytest.raises(error):
            ev.evaluate(root, ctx)


_DIMS = st.lists(st.lists(st.integers(1, 3), max_size=4).map(tuple),
                 min_size=1, max_size=3)
_AXIS = st.integers(-5, 4)
_AXES = st.none() | st.lists(_AXIS, max_size=2).map(tuple)
_PERM = st.none() | st.lists(_AXIS, max_size=4)
_BOUND = st.none() | st.integers(-4, 4)
_SPEC = st.lists(
    st.builds(slice, _BOUND, _BOUND, st.sampled_from([0, None, -1, 2]))
    | st.integers(-4, 3), min_size=1, max_size=4).map(tuple)
_NEW_SHAPE = st.lists(st.integers(-1, 4), min_size=1, max_size=3)
_KINDS = st.sampled_from(["slice", "reduce", "transpose", "concat", "matmul",
                          "reshape", "neg", "tanh", "add", "mul"])


def _graph(draw, leaves, depth=3):
    """A random expression of depth at most `depth` over `leaves`, with
    axes, slices and shapes that are often invalid; below the root, a
    quarter of the operands are leaves, and a second operand is the first
    one half of the time."""
    if depth == 0 or depth < 3 and draw(st.integers(0, 3)) == 3:
        return leaves[draw(st.integers(0, len(leaves) - 1))]
    kind, a = draw(_KINDS), _graph(draw, leaves, depth - 1)

    def other():
        return a if draw(st.booleans()) else _graph(draw, leaves, depth - 1)

    if kind == "slice":
        return a[draw(_SPEC)]
    if kind == "reduce":
        return a.reduce(draw(st.sampled_from(["sum", "mean"])), draw(_AXES))
    if kind == "transpose":
        return tr.transpose_node(a, draw(_PERM))
    if kind == "concat":
        return tr.concat_nodes([a, other()], axis=draw(_AXIS))
    if kind == "matmul":
        return tr.matmul_nodes(a, other())
    if kind == "reshape":
        return tr.reshape_node(a, draw(_NEW_SHAPE))
    return tr.build(tr.ARITH, kind, (a,) if kind in T.UNARY else (a, other()))


class TestShapesAgainstEvaluation:
    @given(st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_random_graphs(self, data):
        # trace_shapes and evaluate walk a graph in one order: they agree
        # on the shape of every node up to the first one that they refuse
        leaves = [tr.variable(f"v{i}", s)
                  for i, s in enumerate(data.draw(_DIMS))]
        root = _graph(data.draw, leaves)
        ctx = ev.EvalContext(
            bindings={v: np.full(v.shape_hint, 0.5) for v in leaves})
        try:
            rep = tr.trace_shapes(root)
        except ShapeInferenceFailure as exc:
            with pytest.raises(JnoError):
                ev.evaluate(root, ctx)
            assert exc.node not in ctx.cache
            rep = tr.trace_shapes([n for n in tr.toposort(root)
                                   if n.serial < exc.node.serial])
        else:
            ev.evaluate(root, ctx)
        for node in rep.order:
            assert ctx.cache[node].shape == rep[node]


_POINTWISE = st.sampled_from(["tanh", "sin", "exp", "log", "square", "mul",
                              "matmul"])


def _arith(kind, *args):
    return tr.build(tr.ARITH, kind, args)


def _pointwise_graph(draw, leaves, depth=3):
    """A random pointwise expression of depth at most `depth` over the
    point columns `leaves`: tanh, sin, exp of a tanh, log of one plus a
    square, a square, a product, and a matmul by a constant row (inner size
    1) whose tanh a matmul by a constant column (inner size above 1) takes
    back to one column."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return leaves[draw(st.integers(0, len(leaves) - 1))]
    kind, a = draw(_POINTWISE), _pointwise_graph(draw, leaves, depth - 1)
    if kind in ("tanh", "sin"):
        return _arith(kind, a)
    if kind == "exp":
        return _arith("exp", _arith("tanh", a))
    if kind == "log":
        return _arith("log", 1.0 + a * a)
    if kind == "square":
        return a * a
    if kind == "mul":
        return a * _pointwise_graph(draw, leaves, depth - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(2, 3))
    row, column = (tr.constant(rng.uniform(-1.0, 1.0, shape))
                   for shape in ((1, k), (k, 1)))
    return tr.matmul_nodes(_arith("tanh", tr.matmul_nodes(a, row)), column)


class TestAdAgainstDifferences:
    """Random pointwise expressions through an MLP call: the Tape gradient
    in the parameters, the Jet Laplacian in the points and the Tape's
    gradient of that Laplacian against central differences, each of the
    gradients along a random direction of the parameters."""

    N = 4

    @given(st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_random_expressions(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x, y = tr.variable("x"), tr.variable("y")
        net = nn.mlp(2, [3], 1).initialize(int(rng.integers(100)))
        u = net(tr.concat_nodes([x, y], axis=-1))
        expr = _pointwise_graph(data.draw, [x, y, u, u])
        lap = expr.dd(x) + expr.dd(y)
        px, py = (rng.uniform(0.0, 1.0, (1, 1, self.N, 1)) for _ in "xy")
        live = net.params
        v = {path: rng.uniform(-1.0, 1.0, t.shape) for path, t in live.items()}

        def value(root, shift=0.0, dx=0.0, dy=0.0):
            net.params = {path: T.Tensor(t.data + shift * v[path])
                          for path, t in live.items()}
            ctx = ev.EvalContext(bindings={x: px + dx, y: py + dy})
            return ev.evaluate(root, ctx).data

        def along_v(root):
            """The Tape's gradient of sum(root) in the parameters along v,
            and its central difference."""
            net.params = live
            with T.Tape() as tape:
                tape.watch(*live.values())
                total = ev.evaluate(root.sum, ev.EvalContext(
                    bindings={x: px, y: py}))
            grads = tape.gradient(total, list(live.values()))
            ad = sum(float(np.sum(grads[t.uid].data * v[path]))
                     for path, t in live.items())
            h = 1e-6
            fd = (value(root.sum, h) - value(root.sum, -h)).item() / (2 * h)
            return ad, fd

        h = 1e-4
        fd = (value(expr, dx=h) + value(expr, dx=-h) + value(expr, dy=h)
              + value(expr, dy=-h) - 4.0 * value(expr)) / h ** 2
        np.testing.assert_allclose(np.broadcast_to(value(lap), fd.shape), fd,
                                   atol=1e-5 * (1.0 + np.abs(fd).max()))
        for root in (expr, lap):
            ad, cd = along_v(root)
            assert abs(ad - cd) <= 1e-6 * (1.0 + abs(cd))


_SHAPES = st.lists(st.integers(0, 3), max_size=4).map(tuple)


class TestBroadcast:
    @given(_SHAPES, _SHAPES)
    @settings(max_examples=300)
    def test_matches_numpy(self, a, b):
        try:
            want = np.broadcast_shapes(a, b)
        except ValueError:
            with pytest.raises(ShapeMismatch):
                T.broadcast_shape(a, b)
        else:
            assert T.broadcast_shape(a, b) == want


class TestDump:
    def test_single_variable(self):
        x = tr.variable("x")
        text = tr.dump_tree(x)
        assert len(text.strip().splitlines()) == 1

    def test_back_reference_after_cse(self):
        x, y = tr.variable("x"), tr.variable("y")
        root, _ = tr.cse((x + y) * (x + y))
        text = tr.dump_tree(root)
        assert "^" in text
        assert text.count("Arith[add]") == 1

    def test_stable(self):
        x, y = tr.variable("x"), tr.variable("y")
        root = (x + y) * (x - y)
        assert tr.dump_tree(root) == tr.dump_tree(root)



def chain(x, n):
    """The left-deep chain x + 1 + 1 + ... with `n` additions, each built
    with the Literal 1.0, which `build` shares."""
    node = x
    for _ in range(n):
        node = node + 1.0
    return node


class TestDeepGraphs:
    """Graph walks use explicit stacks, so they run at the default
    recursion limit on graphs far deeper than it."""

    def test_long_chain(self):
        from jno import evaluator as ev

        n = 10 ** 5
        x = tr.variable("x", shape=(2, 1))
        root = chain(x, n)
        order = tr.toposort(root)
        # x, the one Literal 1.0 and the n adds
        assert len(order) == n + 2 and order[-1] is root
        assert sum(node.kind == tr.LITERAL for node in order) == 1
        shared, stats = tr.cse(root)
        assert stats == {"nodes_before": n + 2, "nodes_after": n + 2}
        assert shared is root
        assert tr.trace_shapes(shared)[shared] == (2, 1)
        ctx = ev.EvalContext(bindings={x: np.zeros((2, 1))})
        assert ev.evaluate(shared, ctx).tolist() == [[n], [n]]
        assert ctx.stats["evaluations"] == n + 2

    def test_dumps_of_a_chain(self):
        n = 3000
        x = tr.variable("x", shape=(1,))
        root, _ = tr.cse(chain(x, n))
        # pre-order: the n adds down the chain, x, the one shared literal at
        # the deepest add, then a back-reference to it for every other add
        lines = tr.dump_tree(root).splitlines()
        assert len(lines) == 2 * n + 1
        assert lines[n] == "  " * n + f"{n}: Variable 'x' children=0"
        assert lines[n + 1] == "  " * n + f"{n + 1}: Literal[1.0] children=0"
        assert lines[-1] == f"  ^{n + 1}"
        lines = tr.print_shapes(tr.trace_shapes(root)).splitlines()
        assert len(lines) == 2 * n + 2 and lines[0] == "root 0:"
        assert lines[n + 1].endswith("Variable 'x' -> (1,)")
