"""Dense f64 tensors with broadcasting, reductions and tape-based reverse AD.

Every runtime value in the library is a :class:`Tensor`.  Gradients are
obtained by recording primitive operations on a :class:`Tape`; backward
rules are themselves written with the public primitives, so tapes nest and
higher-order derivatives fall out of repeated application.
"""

import itertools

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidAxis,
    NonScalarOutput,
    ShapeMismatch,
    UnknownNode,
)

_UIDS = itertools.count(1)

# Stack of active tapes.  Ops record on every tape that tracks one of their
# inputs, so an inner tape's backward pass is captured by the outer tapes.
_TAPES = []


class Tensor:
    """Immutable dense array of 64-bit reals.

    `precision` is a storage hint only ({"f32", "f64"}); arithmetic always
    accumulates in f64.
    """

    __slots__ = ("data", "precision", "uid")

    def __init__(self, data, precision="f64"):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.precision = precision
        self.uid = next(_UIDS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def tolist(self):
        return self.data.tolist()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    # Arithmetic operators delegate to the module-level primitives so that
    # backward rules written with operators are recorded on active tapes.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __pow__(self, other):
        return power(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def tensor(data, precision="f64"):
    return _as_tensor(data) if not isinstance(data, Tensor) else data


def zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape):
    return Tensor(np.ones(shape, dtype=np.float64))


def full(shape, value):
    return Tensor(np.full(shape, value, dtype=np.float64))


def has_nan(t):
    """NaN/Inf check utility; IEEE non-finite values are data, not errors."""
    return not bool(np.isfinite(t.data).all())


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class _Record:
    __slots__ = ("out_uid", "in_uids", "backward")

    def __init__(self, out_uid, in_uids, backward):
        self.out_uid = out_uid
        self.in_uids = in_uids
        self.backward = backward


class Tape:
    """Ordered record of primitive ops for one reverse-mode sweep.

    Single-writer: one thread records and replays.  Use as a context
    manager; call :meth:`gradient` after the ``with`` block so the replay
    itself is not re-recorded (outer tapes still see it, which is what
    makes nested/higher-order differentiation work).
    """

    def __init__(self):
        self.records = []
        self._live = set()

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.remove(self)
        return False

    def watch(self, *tensors):
        for t in tensors:
            self._live.add(t.uid)

    def tracks(self, t):
        return t.uid in self._live

    def gradient(self, output, inputs):
        """Reverse-replay adjoints of a scalar `output` w.r.t. `inputs`.

        Returns a dict uid -> Tensor; inputs the output never touched map
        to zero tensors of their shape.
        """
        if output.size != 1:
            raise NonScalarOutput(
                f"gradient target must be scalar, got shape {output.shape}"
            )
        wanted = {t.uid for t in inputs}
        for t in inputs:
            if t.uid not in self._live:
                raise UnknownNode(f"tensor uid {t.uid} was not recorded on this tape")
        adjoints = {output.uid: ones(output.shape)}
        for rec in reversed(self.records):
            adj = adjoints.pop(rec.out_uid, None)
            if adj is None:
                continue
            want = tuple(uid in self._live for uid in rec.in_uids)
            grads = rec.backward(adj, want)
            for uid, g in zip(rec.in_uids, grads):
                if g is None:
                    continue
                prev = adjoints.get(uid)
                adjoints[uid] = g if prev is None else add(prev, g)
        return {
            t.uid: adjoints.get(t.uid, zeros(t.shape)) for t in inputs
        }


def _record(out, inputs, backward):
    if not _TAPES:
        return
    for tape in _TAPES:
        if any(t.uid in tape._live for t in inputs):
            tape._live.add(out.uid)
            tape.records.append(
                _Record(out.uid, tuple(t.uid for t in inputs), backward)
            )


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    g = grad
    extra = g.ndim - len(shape)
    if extra > 0:
        g = reduce_sum(g, axes=tuple(range(extra)))
    axes = tuple(
        i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1
    )
    if axes:
        g = reduce_sum(g, axes=axes, keepdims=True)
    return g


def _broadcast_check(a, b, op):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "add")
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(adj, a.shape) if want[0] else None,
        _unbroadcast(adj, b.shape) if want[1] else None,
    ))
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "sub")
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(adj, a.shape) if want[0] else None,
        _unbroadcast(neg(adj), b.shape) if want[1] else None,
    ))
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data)
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, b), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, a), b.shape) if want[1] else None,
    ))
    return out


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data / b.data)

    def backward(adj, want):
        ga = _unbroadcast(div(adj, b), a.shape) if want[0] else None
        gb = None
        if want[1]:
            gb = _unbroadcast(neg(div(mul(adj, a), mul(b, b))), b.shape)
        return ga, gb

    _record(out, (a, b), backward)
    return out


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)
    _record(out, (a,), lambda adj, want: (neg(adj) if want[0] else None,))
    return out


def power(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "pow")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data ** b.data)

    def backward(adj, want):
        ga = gb = None
        if want[0]:
            with np.errstate(divide="ignore", invalid="ignore"):
                ga = _unbroadcast(
                    mul(adj, mul(b, power(a, sub(b, Tensor(1.0))))), a.shape
                )
        if want[1]:
            gb = _unbroadcast(mul(adj, mul(out, log(a))), b.shape)
        return ga, gb

    _record(out, (a, b), backward)
    return out


def exp(a):
    a = _as_tensor(a)
    out = Tensor(np.exp(a.data))
    _record(out, (a,), lambda adj, want: (mul(adj, out) if want[0] else None,))
    return out


def log(a):
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(np.log(a.data))
    _record(out, (a,), lambda adj, want: (div(adj, a) if want[0] else None,))
    return out


def sin(a):
    a = _as_tensor(a)
    out = Tensor(np.sin(a.data))
    _record(out, (a,), lambda adj, want: (mul(adj, cos(a)) if want[0] else None,))
    return out


def cos(a):
    a = _as_tensor(a)
    out = Tensor(np.cos(a.data))
    _record(out, (a,), lambda adj, want: (
        neg(mul(adj, sin(a))) if want[0] else None,
    ))
    return out


def tanh(a):
    a = _as_tensor(a)
    out = Tensor(np.tanh(a.data))

    def backward(adj, want):
        if not want[0]:
            return (None,)
        return (mul(adj, sub(Tensor(1.0), mul(out, out))),)

    _record(out, (a,), backward)
    return out


def relu(a):
    # Subgradient 0 at the kink.
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    gate = Tensor((a.data > 0.0).astype(np.float64))
    _record(out, (a,), lambda adj, want: (
        mul(adj, gate) if want[0] else None,
    ))
    return out


def maximum(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "maximum")
    out = Tensor(np.maximum(a.data, b.data))
    # Ties get subgradient 0 on both sides.
    ga = Tensor((a.data > b.data).astype(np.float64))
    gb = Tensor((b.data > a.data).astype(np.float64))
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, ga), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, gb), b.shape) if want[1] else None,
    ))
    return out


def minimum(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "minimum")
    out = Tensor(np.minimum(a.data, b.data))
    ga = Tensor((a.data < b.data).astype(np.float64))
    gb = Tensor((b.data < a.data).astype(np.float64))
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, ga), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, gb), b.shape) if want[1] else None,
    ))
    return out


_COMPARE_FNS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


def compare(op, a, b):
    """0/1-valued comparison; non-differentiable (no tape record)."""
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "compare")
    try:
        fn = _COMPARE_FNS[op]
    except KeyError:
        raise ValueError(f"unknown comparison {op!r}") from None
    return Tensor(fn(a.data, b.data).astype(np.float64))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _norm_axes(a, axes):
    if axes is None:
        return tuple(range(a.ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % a.ndim if -a.ndim <= ax < a.ndim else ax for ax in axes)
    for ax in axes:
        if not 0 <= ax < a.ndim:
            raise InvalidAxis(f"axis {ax} invalid for shape {a.shape}")
    return axes


def reduce_sum(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    axes = _norm_axes(a, axes)
    out = Tensor(np.sum(a.data, axis=axes or None, keepdims=keepdims))

    def backward(adj, want):
        if not want[0]:
            return (None,)
        g = adj
        if not keepdims and axes:
            g = reshape(g, _restore_shape(a.shape, axes))
        return (broadcast_to(g, a.shape),)

    _record(out, (a,), backward)
    return out


def _restore_shape(shape, axes):
    out = list(shape)
    for ax in axes:
        out[ax] = 1
    return tuple(out)


def reduce_mean(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    axes = _norm_axes(a, axes)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    s = reduce_sum(a, axes=axes, keepdims=keepdims)
    return div(s, Tensor(float(count)))


def reduce_mse(a, axes=None, keepdims=False):
    """mean of squares over the given axes (all axes by default)."""
    a = _as_tensor(a)
    return reduce_mean(mul(a, a), axes=axes, keepdims=keepdims)


REDUCERS = {"sum": reduce_sum, "mean": reduce_mean, "mse": reduce_mse}


# ---------------------------------------------------------------------------
# Shape / linalg primitives
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = _as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise ShapeMismatch(
            f"cannot reshape {a.shape} to {shape}"
        ) from None
    _record(out, (a,), lambda adj, want: (
        reshape(adj, a.shape) if want[0] else None,
    ))
    return out


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    out = Tensor(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))
    _record(out, (a,), lambda adj, want: (
        transpose(adj, inv) if want[0] else None,
    ))
    return out


def broadcast_to(a, shape):
    a = _as_tensor(a)
    try:
        out = Tensor(np.broadcast_to(a.data, shape).copy())
    except ValueError:
        raise ShapeMismatch(
            f"cannot broadcast {a.shape} to {shape}"
        ) from None
    _record(out, (a,), lambda adj, want: (
        _unbroadcast(adj, a.shape) if want[0] else None,
    ))
    return out


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
        )
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeMismatch(
            f"matmul batch dimensions do not broadcast: {a.shape} @ {b.shape}"
        ) from None

    def backward(adj, want):
        ga = gb = None
        if want[0]:
            ga = _unbroadcast(matmul(adj, _swap_last(b)), a.shape)
        if want[1]:
            gb = _unbroadcast(matmul(_swap_last(a), adj), b.shape)
        return ga, gb

    _record(out, (a, b), backward)
    return out


def sparse_matmul(S, x):
    """`S @ x` over the second-to-last axis of `x`, for a constant
    ``scipy.sparse`` matrix `S` of shape (M, V) and `x` of shape (..., V, k).

    `S` takes no gradient; the adjoint of `x` is ``sparse_matmul(S.T, adj)``,
    so outer tapes record the backward pass like any other primitive.
    """
    x = _as_tensor(x)
    if x.ndim < 2 or x.shape[-2] != S.shape[1]:
        raise ShapeMismatch(
            f"sparse_matmul: operator {S.shape} does not apply to {x.shape}"
        )
    # the operator axis leads; batch axes and the last axis fold into columns
    cols = np.moveaxis(x.data, -2, 0).reshape(S.shape[1], -1)
    moved = (S @ cols).reshape((S.shape[0],) + x.shape[:-2] + x.shape[-1:])
    out = Tensor(np.moveaxis(moved, 0, -2))
    _record(out, (x,), lambda adj, want: (
        sparse_matmul(S.T, adj) if want[0] else None,
    ))
    return out


def _swap_last(a):
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, tuple(axes))


def concat(parts, axis=-1):
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeMismatch("concat of zero tensors")
    nd = parts[0].ndim
    ax = axis % nd
    for p in parts:
        if p.ndim != nd:
            raise ShapeMismatch("concat operands must share rank")
        for i in range(nd):
            if i != ax and p.shape[i] != parts[0].shape[i]:
                raise ShapeMismatch(
                    f"concat non-axis dims differ: {p.shape} vs {parts[0].shape}"
                )
    out = Tensor(np.concatenate([p.data for p in parts], axis=ax))
    sizes = [p.shape[ax] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(adj, want):
        grads = []
        for i, p in enumerate(parts):
            if not want[i]:
                grads.append(None)
                continue
            spec = [slice(None)] * nd
            spec[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(take_slice(adj, tuple(spec)))
        return tuple(grads)

    _record(out, tuple(parts), backward)
    return out


def take_slice(a, spec):
    """Basic indexing with a tuple of ints and slices."""
    a = _as_tensor(a)
    if not isinstance(spec, tuple):
        spec = (spec,)
    if len(spec) > a.ndim:
        raise IndexOutOfRange(f"slice spec {spec} too long for shape {a.shape}")
    for i, s in enumerate(spec):
        if isinstance(s, int) and not -a.shape[i] <= s < a.shape[i]:
            raise IndexOutOfRange(f"index {s} out of range for axis {i} of {a.shape}")
    out = Tensor(a.data[spec])

    def backward(adj, want):
        if not want[0]:
            return (None,)
        return (scatter_slice(adj, spec, a.shape),)

    _record(out, (a,), backward)
    return out


def scatter_slice(adj, spec, shape):
    """Adjoint of take_slice: embed `adj` into zeros of `shape`."""
    adj = _as_tensor(adj)
    buf = np.zeros(shape, dtype=np.float64)
    buf[spec] = adj.data
    out = Tensor(buf)
    _record(out, (adj,), lambda a2, want: (
        take_slice(a2, spec) if want[0] else None,
    ))
    return out


ELEMENTWISE = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "neg": neg,
    "pow": power,
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "tanh": tanh,
    "relu": relu,
    "maximum": maximum,
    "minimum": minimum,
}


# ---------------------------------------------------------------------------
# Derivative drivers
# ---------------------------------------------------------------------------

def grad(f, *xs):
    """Gradient of a scalar-valued callable at the given tensors."""
    xs = [_as_tensor(x) for x in xs]
    with Tape() as t:
        t.watch(*xs)
        out = f(*xs)
    grads = t.gradient(out, xs)
    res = [grads[x.uid] for x in xs]
    return res[0] if len(res) == 1 else res


def jacobian(f, x):
    """Dense Jacobian of f at x via one reverse pass per output component."""
    x = _as_tensor(x)
    comps = []
    with Tape() as t:
        t.watch(x)
        out = f(x)
        flat = reshape(out, (out.size,))
        for i in range(out.size):
            comps.append(take_slice(flat, (i,)))
    rows = [t.gradient(c, [x])[x.uid].data.reshape(-1) for c in comps]
    return Tensor(np.stack(rows, axis=0))


def hessian(f, x):
    """Hessian of a scalar-valued f as the Jacobian of its gradient."""
    x = _as_tensor(x)

    def gradient_of_f(y):
        with Tape() as t:
            t.watch(y)
            out = f(y)
        return t.gradient(out, [y])[y.uid]

    return jacobian(gradient_of_f, x)
