"""Deferred expression graphs.

User-facing symbols build :class:`ExprNode` graphs instead of executing.
Nodes compare and hash by identity, never by structure.  Structural sharing
is made when a node is built: :func:`build` hash-conses, returning the live
node equal to the one asked for if there is one (Filliatre & Conchon,
"Type-safe modular hash-consing", 2006), so graphs are canonical as built
and :func:`cse` has nothing left to merge.  A node's children are created
before it, so creation order is a topological order: :func:`toposort`
sorts the reachable nodes by their creation serial.  Every graph walk here
is a loop over an explicit stack, so graph depth is bounded by memory, not
by the interpreter's recursion limit.  :func:`trace_shapes` applies the
shape rules of :mod:`jno.tensor` that evaluation applies, so the two agree
on every shape and refuse the same nodes.
"""

import io
import itertools
import math
import operator
import weakref

import numpy as np

from . import tensor as T
from .errors import (
    ArityMismatch,
    ExtraBinding,
    IndexOutOfRange,
    InvalidAxis,
    MissingBinding,
    NonPositiveInterval,
    NotAVariable,
    ShapeInferenceFailure,
    ShapeMismatch,
)

# Node kinds.  Plain strings keep dump output and debugging friction-free.
VARIABLE = "Variable"
LITERAL = "Literal"
CONSTANT = "Constant"
ARITH = "Arith"
COMPARE = "Compare"
REDUCE = "Reduce"
SLICE = "Slice"
CONCAT = "Concat"
RESHAPE = "Reshape"
TRANSPOSE = "Transpose"
MATMUL = "MatMul"
DERIVATIVE = "Derivative"
MODEL_CALL = "ModelCall"
TRACKER = "Tracker"
TRIAL = "TrialSymbol"
TEST = "TestSymbol"

ALL_KINDS = (
    VARIABLE, LITERAL, CONSTANT, ARITH, COMPARE, REDUCE, SLICE, CONCAT,
    RESHAPE, TRANSPOSE, MATMUL, DERIVATIVE, MODEL_CALL, TRACKER, TRIAL, TEST,
)

LEAF_KINDS = (VARIABLE, LITERAL, CONSTANT, TRIAL, TEST)

# Never shared by `build`: leaves that stand for distinct inputs, and
# trackers, which are monitoring sinks.
_IDENTITY_KINDS = frozenset((VARIABLE, CONSTANT, TRIAL, TEST, TRACKER))

_ARITY = {
    VARIABLE: 0,
    LITERAL: 0,
    CONSTANT: 0,
    TRIAL: 0,
    TEST: 0,
    COMPARE: 2,
    REDUCE: 1,
    SLICE: 1,
    RESHAPE: 1,
    TRANSPOSE: 1,
    MATMUL: 2,
    DERIVATIVE: 2,
    TRACKER: 1,
}

# Each node takes the next serial when it is created.  Its children exist
# before it does and are never reassigned, so serials order every graph
# children first.
_SERIALS = itertools.count()
_SERIAL = operator.attrgetter("serial")


class ExprNode:
    """One node of the deferred graph.

    Equality and hashing are identity-based (Python object identity), so
    nodes are safe keys in sets and dicts.  Build nodes with :func:`build`
    (or the operators and constructors below), which shares structurally
    equal nodes; calling ``ExprNode`` directly always makes a fresh node.
    """

    __slots__ = ("kind", "payload", "children", "name", "shape_hint",
                 "serial", "__weakref__")

    def __init__(self, kind, payload=None, children=(), name=None):
        self.kind = kind
        self.payload = payload
        self.children = tuple(children)
        self.name = name
        self.shape_hint = None
        self.serial = next(_SERIALS)
        _check_arity(self)

    # identity hashing/equality is object default; do not override __eq__

    def __repr__(self):
        label = f"{self.kind}"
        if self.payload is not None and self.kind not in (CONSTANT,):
            label += f"({self.payload})"
        if self.name:
            label += f" '{self.name}'"
        return f"<{label} @{id(self):#x}>"

    # -- arithmetic sugar --------------------------------------------------

    def __add__(self, other):
        return build(ARITH, "add", (self, as_node(other)))

    def __radd__(self, other):
        return build(ARITH, "add", (as_node(other), self))

    def __sub__(self, other):
        return build(ARITH, "sub", (self, as_node(other)))

    def __rsub__(self, other):
        return build(ARITH, "sub", (as_node(other), self))

    def __mul__(self, other):
        return build(ARITH, "mul", (self, as_node(other)))

    def __rmul__(self, other):
        return build(ARITH, "mul", (as_node(other), self))

    def __truediv__(self, other):
        return build(ARITH, "div", (self, as_node(other)))

    def __rtruediv__(self, other):
        return build(ARITH, "div", (as_node(other), self))

    def __pow__(self, other):
        return build(ARITH, "pow", (self, as_node(other)))

    def __neg__(self):
        return build(ARITH, "neg", (self,))

    # __eq__ stays identity; elementwise comparisons use the inequality
    # operators or the named forms below.
    def __lt__(self, other):
        return build(COMPARE, "lt", (self, as_node(other)))

    def __le__(self, other):
        return build(COMPARE, "le", (self, as_node(other)))

    def __gt__(self, other):
        return build(COMPARE, "gt", (self, as_node(other)))

    def __ge__(self, other):
        return build(COMPARE, "ge", (self, as_node(other)))

    def eq_elem(self, other):
        return build(COMPARE, "eq", (self, as_node(other)))

    def ne_elem(self, other):
        return build(COMPARE, "ne", (self, as_node(other)))

    def __getitem__(self, spec):
        if not isinstance(spec, tuple):
            spec = (spec,)
        return build(SLICE, _freeze_slice(spec), (self,))

    # -- reductions (properties, so `pde.mse` reads like the solver API) ---

    @property
    def mse(self):
        return build(REDUCE, ("mse", None), (self,))

    @property
    def mean(self):
        return build(REDUCE, ("mean", None), (self,))

    @property
    def sum(self):
        return build(REDUCE, ("sum", None), (self,))

    def reduce(self, op, axes=None):
        if op not in T.REDUCERS:
            raise ArityMismatch(f"unknown reduction {op!r}")
        if axes is not None and not isinstance(axes, tuple):
            axes = (axes,)
        return build(REDUCE, (op, axes), (self,))

    # -- derivatives --------------------------------------------------------

    def d(self, wrt):
        return derivative(self, wrt, order=1)

    def dd(self, wrt):
        return derivative(self, wrt, order=2)

    # -- fem hook (set up by the fem module) --------------------------------

    def assemble(self, target, **options):
        from . import fem

        return fem.assemble(self, target=target, **options)


def _check_arity(node):
    """Reject a node whose children do not fit its kind: a wrong count, or
    a derivative target that is not a Variable."""
    want = _ARITY.get(node.kind)
    if node.kind == ARITH:
        if node.payload not in T.ELEMENTWISE:
            raise ArityMismatch(f"unknown arithmetic op {node.payload!r}")
        want = 1 if node.payload in T.UNARY else 2
    elif node.kind == CONCAT:
        if len(node.children) < 1:
            raise ArityMismatch("Concat needs at least one child")
        return
    if want is not None and len(node.children) != want:
        raise ArityMismatch(
            f"{node.kind} expects {want} children, got {len(node.children)}"
        )
    if node.kind == DERIVATIVE:
        wrt = node.children[1]
        if not isinstance(wrt, ExprNode) or wrt.kind != VARIABLE:
            raise NotAVariable(
                f"derivative target must be a Variable, got {wrt!r}"
            )


def _freeze_slice(spec):
    frozen = []
    for s in spec:
        if isinstance(s, slice):
            frozen.append(("slice", s.start, s.stop, s.step))
        elif isinstance(s, int):  # a bool too, which slice_shape refuses
            frozen.append(("index", s))
        else:
            try:
                frozen.append(("index", operator.index(s)))
            except TypeError:
                raise ArityMismatch(
                    f"unsupported slice element {s!r}") from None
    return tuple(frozen)


def thaw_slice(payload):
    out = []
    for s in payload:
        if s[0] == "slice":
            out.append(slice(s[1], s[2], s[3]))
        else:
            out.append(s[1])
    return tuple(out)


class _Entry(weakref.ref):
    """The table's weak reference to an interned node; its callback,
    `_forget`, removes the entry when the node dies."""

    __slots__ = ("key",)


def _forget(entry):
    if _INTERNED.get(entry.key) is entry:
        _INTERNED.pop(entry.key, None)


# key -> _Entry of every live node that `build` made, identity kinds aside.
# No lock: two threads racing on a key can only leave two equal nodes, which
# evaluate alike, where one would do.
_INTERNED = {}


def build(kind, payload=None, children=(), name=None):
    """The node of `kind` with `payload`, `children` and `name`; no
    evaluation happens.

    Hash-consed: while a node with the same kind, payload, children and
    name is alive, that node is returned instead of a new one.  Children
    compare by identity, a model call by its model's identity and a Literal
    by value and sign (0.0 == -0.0, but 1/0.0 != 1/-0.0); a NaN Literal is
    never shared, and identity kinds (inputs and trackers) are always new.
    """
    if kind in _IDENTITY_KINDS:
        return ExprNode(kind, payload, children, name)
    children = tuple(children)
    if kind == MODEL_CALL:
        key = (kind, id(payload), children, name)
    elif kind == LITERAL:
        if payload != payload:
            return ExprNode(kind, payload, children, name)
        key = (kind, payload, math.copysign(1.0, payload), children, name)
    else:
        key = (kind, payload, children, name)
    try:
        entry = _INTERNED.get(key)
    except TypeError:  # an unhashable payload or child: never shared
        return ExprNode(kind, payload, children, name)
    node = None if entry is None else entry()
    if node is None:
        node = ExprNode(kind, payload, children, name)
        entry = _INTERNED[key] = _Entry(node, _forget)
        entry.key = key
    return node


def as_node(value):
    if isinstance(value, ExprNode):
        return value
    if isinstance(value, (int, float)):
        return build(LITERAL, float(value))
    if isinstance(value, (np.ndarray, T.Tensor, list)):
        return constant(value)
    raise TypeError(f"cannot lift {type(value).__name__} into the trace")


def variable(name, shape=None):
    node = ExprNode(VARIABLE, None, (), name)
    node.shape_hint = tuple(shape) if shape is not None else None
    return node


def literal(value):
    return build(LITERAL, float(value))


def constant(value, name=None):
    """A constant leaf; a sparse matrix (``T.SparseMatrix`` or
    ``scipy.sparse``) is kept as it is, and a matmul applies it as the left
    operand through ``T.sparse_matmul``."""
    t = value if isinstance(value, T.Tensor) or T.issparse(value) \
        else T.Tensor(value)
    return ExprNode(CONSTANT, t, (), name)


def tensor_tag(name, tensor):
    """A named constant leaf."""
    return constant(tensor, name)


def derivative(expr, wrt, order=1, mode="default"):
    """Deferred d/d(wrt) of `expr`; `wrt` must be a Variable node.  The
    mode "default" takes the context's derivative mode."""
    if order not in (1, 2):
        raise ArityMismatch("derivative order must be 1 or 2")
    if mode not in ("default", "auto", "finite-difference"):
        raise ArityMismatch(f"unknown derivative mode {mode!r}")
    return build(DERIVATIVE, (order, mode), (as_node(expr), wrt))


def d(expr, wrt):
    return derivative(expr, wrt, order=1)


def dd(expr, wrt):
    return derivative(expr, wrt, order=2)


def tracker(expr, interval):
    """Monitor `expr` every `interval` outer steps without touching the loss."""
    if int(interval) < 1:
        raise NonPositiveInterval(f"tracker interval must be >= 1, got {interval}")
    return build(TRACKER, int(interval), (as_node(expr),))


def model_call(model, args):
    return build(MODEL_CALL, model, tuple(as_node(a) for a in args))


def concat_nodes(parts, axis=-1):
    return build(CONCAT, int(axis), tuple(as_node(p) for p in parts))


def matmul_nodes(a, b):
    return build(MATMUL, None, (as_node(a), as_node(b)))


def reshape_node(a, shape):
    return build(RESHAPE, tuple(shape), (as_node(a),))


def transpose_node(a, axes=None):
    return build(TRANSPOSE, tuple(axes) if axes is not None else None, (as_node(a),))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class OperationDef:
    """A reusable equation fragment: formal placeholder params plus a body.

    A call inlines the body with the params replaced by the arguments, so
    the result is an ordinary graph that shape tracing, evaluation and FEM
    lowering see through, and two calls on the same arguments are one node.
    """

    def __init__(self, params, body, name=None):
        for p in params:
            if p.kind != VARIABLE:
                raise NotAVariable("operation parameters must be Variable nodes")
        self.params = tuple(params)
        self.body = body
        self.name = name or "op"

    def __call__(self, *args, **kwargs):
        bindings = dict(zip(self.params, args))
        if kwargs:
            by_name = {p.name: p for p in self.params}
            for k, v in kwargs.items():
                if k not in by_name:
                    raise ExtraBinding(f"no parameter named {k!r}")
                bindings[by_name[k]] = v
        return call_operation(self, bindings)


def define_operation(params, body, name=None):
    return OperationDef(params, body, name)


def call_operation(op_def, bindings):
    """The body of `op_def` with each formal replaced by its binding.  Body
    nodes that depend on no formal are shared with the body, the rest are
    built anew, so identical calls give the same node."""
    missing = [p for p in op_def.params if p not in bindings]
    if missing:
        raise MissingBinding(
            f"missing bindings for {[p.name for p in missing]}"
        )
    extra = [k for k in bindings if k not in op_def.params]
    if extra:
        raise ExtraBinding(f"unexpected bindings {[getattr(k, 'name', k) for k in extra]}")
    return substitute(op_def.body,
                      {p: as_node(bindings[p]) for p in op_def.params})


# ---------------------------------------------------------------------------
# Graph utilities
# ---------------------------------------------------------------------------

def walk(roots):
    """All reachable nodes in deterministic first-visit (DFS pre-) order."""
    if isinstance(roots, ExprNode):
        roots = [roots]
    seen = set()
    order = []
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        for child in reversed(node.children):
            if child not in seen:
                stack.append(child)
    return order


def toposort(roots):
    """Children-before-parents order: the reachable nodes in the order they
    were created (see `_SERIALS`)."""
    return sorted(walk(roots), key=_SERIAL)


def count_nodes(roots):
    return len(walk(roots))


def substitute(root, mapping):
    """`root` with the nodes in `mapping` (identity keys) replaced by their
    values.  Nodes with no replaced node below them are kept, the others
    rebuilt through `build`."""
    out = dict(mapping)
    for node in toposort(root):
        if node not in out:
            kids = tuple(out[c] for c in node.children)
            out[node] = node if kids == node.children \
                else build(node.kind, node.payload, kids, node.name)
    return out[root]


# ---------------------------------------------------------------------------
# Common sub-expression elimination
# ---------------------------------------------------------------------------

def cse(roots):
    """Structurally identical subgraphs as shared nodes.

    `build` already returns the live node equal to the one asked for, so a
    graph is canonical as built and this returns its roots unchanged, with
    stats carrying nodes_before == nodes_after, the number of reachable
    nodes.  Identity kinds (distinct inputs and trackers), different names,
    different models and signed zeros are never shared.
    """
    single = isinstance(roots, ExprNode)
    root_list = [roots] if single else list(roots)
    n = count_nodes(root_list)
    stats = {"nodes_before": n, "nodes_after": n}
    return (roots if single else root_list), stats


# ---------------------------------------------------------------------------
# Shape tracing
# ---------------------------------------------------------------------------

class ShapeReport:
    def __init__(self, shapes, order, roots):
        self.shapes = shapes  # node -> shape tuple
        self.order = order    # nodes, children before parents
        self.roots = tuple(roots)

    def __getitem__(self, node):
        return self.shapes[node]


def _infer_shape(node, shapes, context_shapes):
    """The shape of `node` from its children's `shapes`.  Structural kinds
    use tensor's shape rules, which raise tensor's own errors."""
    kind = node.kind
    if kind == ARITH:
        # most nodes: both sides share a shape, which is then the answer
        children = node.children
        a = shapes[children[0]]
        if len(children) == 1:
            return a
        b = shapes[children[1]]
        return a if a == b else T.broadcast_shape(a, b)
    if kind == VARIABLE:
        if node in context_shapes:
            return tuple(context_shapes[node])
        if node.shape_hint is not None:
            return tuple(node.shape_hint)
        raise ShapeInferenceFailure(node, f"no shape known for Variable {node.name!r}")
    if kind == LITERAL:
        return ()
    if kind == CONSTANT:
        return node.payload.shape
    if kind in (TRIAL, TEST):
        raise ShapeInferenceFailure(
            node, f"{kind} is only meaningful inside weak-form assembly"
        )
    if kind in (COMPARE, DERIVATIVE):
        return T.broadcast_shape(*[shapes[c] for c in node.children])
    if kind == MATMUL:
        return T.matmul_shape(*[shapes[c] for c in node.children])
    if kind == REDUCE:
        return T.reduce_shape(shapes[node.children[0]], node.payload[1])[1]
    if kind == SLICE:
        return T.slice_shape(shapes[node.children[0]],
                             thaw_slice(node.payload))
    if kind == CONCAT:
        return T.concat_shape([shapes[c] for c in node.children],
                              node.payload)[1]
    if kind == RESHAPE:
        s = shapes[node.children[0]]
        try:
            return np.empty(s).reshape(node.payload).shape
        except ValueError:
            raise ShapeInferenceFailure(
                node, f"cannot reshape {s} to {node.payload}"
            ) from None
    if kind == TRANSPOSE:
        return T.transpose_shape(shapes[node.children[0]], node.payload)[1]
    if kind == MODEL_CALL:
        model = node.payload
        return tuple(model.output_shape([shapes[c] for c in node.children]))
    if kind == TRACKER:
        return shapes[node.children[0]]
    raise ShapeInferenceFailure(node, f"unhandled kind {kind}")


def trace_shapes(roots, context_shapes=None):
    """Infer a shape for every reachable node.

    `context_shapes` maps leaf Variable nodes to shapes; Variables created
    through a domain already carry hints.  A node that evaluation would
    refuse raises ShapeInferenceFailure naming it.
    """
    single = isinstance(roots, ExprNode)
    root_list = [roots] if single else list(roots)
    context_shapes = context_shapes or {}
    shapes = {}
    order = toposort(root_list)
    for node in order:
        try:
            shapes[node] = _infer_shape(node, shapes, context_shapes)
        except (ShapeMismatch, InvalidAxis, IndexOutOfRange) as e:
            raise ShapeInferenceFailure(node, f"{node.kind}: {e}") from None
    return ShapeReport(shapes, order, root_list)


def _label(node):
    """Kind, payload summary and name of `node`, as the dumps print it."""
    kind, payload = node.kind, node.payload
    if kind in (ARITH, COMPARE, LITERAL):
        kind += f"[{payload}]"
    elif kind == REDUCE:
        kind += f"[{payload[0]}]"
    elif kind == DERIVATIVE:
        kind += f"[order={payload[0]}]"
    elif kind == TRACKER:
        kind += f"[every={payload}]"
    elif kind == MODEL_CALL:
        kind += f"[{payload.name}]"
    return kind + (f" {node.name!r}" if node.name else "")


def _preorder(roots):
    """(node, depth, first) in the pre-order of an indented listing of the
    graphs under `roots`: a node's children follow it only on its first
    visit, so a shared node is expanded once."""
    seen = set()
    for root in roots:
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            first = node not in seen
            yield node, depth, first
            if first:
                seen.add(node)
                stack.extend((c, depth + 1) for c in reversed(node.children))


def print_shapes(report, sink=None):
    """Deterministic rendering of a ShapeReport; returns the text."""
    out = io.StringIO()
    index = {n: i for i, n in enumerate(report.order)}
    root_number = iter(range(len(report.roots)))
    for node, depth, first in _preorder(report.roots):
        if depth == 0:
            out.write(f"root {next(root_number)}:\n")
        pad = "  " * (depth + 1)
        if first:
            out.write(
                f"{pad}#{index[node]} {_label(node)} -> {report[node]}\n")
        else:
            out.write(f"{pad}#{index[node]} ^\n")
    text = out.getvalue()
    if sink is not None:
        sink.write(text)
    return text


def dump_tree(root, sink=None):
    """Indented structural dump; shared nodes appear once, then by back-ref."""
    out = io.StringIO()
    index = {}
    for node, depth, first in _preorder([root]):
        pad = "  " * depth
        if first:
            index[node] = len(index)
            out.write(f"{pad}{index[node]}: {_label(node)} "
                      f"children={len(node.children)}\n")
        else:
            out.write(f"{pad}^{index[node]}\n")
    text = out.getvalue()
    if sink is not None:
        sink.write(text)
    return text
