"""Dense f64 tensors with broadcasting, reductions and recorded derivatives.

Every runtime value in the library is a :class:`Tensor`.  Primitive ops are
recorded on the active recorders that track one of their inputs: a
:class:`Tape` replays them backward for reverse-mode gradients, and a
:class:`Jet` replays them forward for second-order Taylor coefficients
along one direction (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
Backward and Taylor rules are themselves written with the public
primitives, so an active Tape or an outer Jet records what they compute and
higher-order derivatives fall out of repeated application.
"""

import itertools
import threading

import numpy as np

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    InvalidAxis,
    NonScalarOutput,
    ShapeMismatch,
    UnknownNode,
)

_UIDS = itertools.count(1)


class _Active(threading.local):
    """The Tapes and Jets inside their ``with`` block, outermost first, per
    thread: an op records on every one that tracks one of its inputs, so an
    inner recorder's replay is captured by the outer ones."""

    def __init__(self):
        self.recorders = []


_ACTIVE = _Active()


class Tensor:
    """Immutable dense array of 64-bit reals."""

    __slots__ = ("data", "uid")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
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


def tensor(data):
    return _as_tensor(data)


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
# Tape and Jet
# ---------------------------------------------------------------------------

class _Record:
    __slots__ = ("out_uid", "in_uids", "backward", "taylor")

    def __init__(self, out_uid, in_uids, backward, taylor):
        self.out_uid = out_uid
        self.in_uids = in_uids
        self.backward = backward
        self.taylor = taylor


class _Recorder:
    """Ordered record of the primitive ops that depend on watched tensors.

    Single-writer: the thread that opens the ``with`` block records and
    replays.  Replay after the ``with`` block, so the replay itself is not
    re-recorded (outer recorders still see it, which is what makes nested
    and higher-order differentiation work).
    """

    def __init__(self):
        self.records = []
        self._live = set()

    def __enter__(self):
        _ACTIVE.recorders.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.recorders.remove(self)
        return False

    def watch(self, *tensors):
        for t in tensors:
            self._live.add(t.uid)

    def tracks(self, t):
        return t.uid in self._live

    def _require(self, tensors):
        for t in tensors:
            if t.uid not in self._live:
                raise UnknownNode(f"tensor uid {t.uid} was not recorded here")


class Tape(_Recorder):
    """Reverse mode: replays the records backward from a scalar output."""

    def gradient(self, output, inputs):
        """Reverse-replay adjoints of a scalar `output` w.r.t. `inputs`.

        Returns a dict uid -> Tensor; inputs the output never touched map
        to zero tensors of their shape.
        """
        if output.size != 1:
            raise NonScalarOutput(
                f"gradient target must be scalar, got shape {output.shape}"
            )
        self._require(inputs)
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


class Jet(_Recorder):
    """Taylor mode: replays the records forward along one direction.

    A tensor's coefficients along a direction are its first and second
    derivatives t1, t2 along it.  Each record's Taylor rule maps the
    coefficients of the op's inputs to those of its output, for example
    ``t1 = f'(a) a1`` and ``t2 = f'(a) a2 + f''(a) a1**2`` for a unary map,
    so one forward replay gives every recorded tensor's derivatives, where
    reverse mode needs one sweep per output and nested sweeps for t2.
    """

    def push(self, x, order=2, direction=None):
        """Coefficients up to `order` (1 or 2) along `direction` (a tensor of
        `x`'s shape; ones by default) at the watched tensor `x`: a list with
        one dict uid -> Tensor per order.  A tensor missing from a dict has
        a zero coefficient.
        """
        if order not in (1, 2):
            raise ArityMismatch(f"Taylor order must be 1 or 2, got {order}")
        self._require([x])
        if direction is None:
            direction = ones(x.shape)
        elif direction.shape != x.shape:
            raise ShapeMismatch(
                f"direction {direction.shape} does not match {x.shape}")
        coeffs = [{x.uid: direction}] + [{} for _ in range(order - 1)]
        first = coeffs[0]
        for rec in self.records:
            ds = [tuple(first.get(uid) for uid in rec.in_uids)]
            if all(c is None for c in ds[0]):
                continue
            ds += [tuple(ck.get(uid) for uid in rec.in_uids)
                   for ck in coeffs[1:]]
            for ck, t in zip(coeffs, rec.taylor(ds)):
                if t is not None:
                    ck[rec.out_uid] = t
        return coeffs


def _record(out, inputs, backward, taylor):
    """Record `out` = op(`inputs`) on every active recorder that tracks an
    input.  `backward(adj, want)` returns the adjoints of the inputs;
    `taylor(ds)` maps ``ds[k]``, the order-(k+1) coefficients of the inputs
    (None for zero), to the output's coefficients up to that order.

    Rules that need only the output's shape bind the shape
    (``shape=out.shape``), so that a recorder does not keep the output
    itself alive."""
    if not _ACTIVE.recorders:
        return
    rec = None
    for r in _ACTIVE.recorders:
        if any(t.uid in r._live for t in inputs):
            if rec is None:
                rec = _Record(out.uid, tuple(t.uid for t in inputs),
                              backward, taylor)
            r._live.add(out.uid)
            r.records.append(rec)


# Helpers of the Taylor rules.  A coefficient of None stands for zero.

def _plus(a, b):
    if a is None:
        return b
    return a if b is None else add(a, b)


def _minus(a, b):
    if b is None:
        return a
    return neg(b) if a is None else sub(a, b)


def _on(f, a, b):
    """f(a, b), or zero if either is zero (f bilinear)."""
    return None if a is None or b is None else f(a, b)


def _fit(c, shape):
    """A coefficient in the full shape of its tensor, so that reductions,
    slices and reshapes of it see every element."""
    return c if c is None or c.shape == shape else broadcast_to(c, shape)


def _linear(ds, f, *args):
    """Rule of an op linear in its single input: t_k = f(a_k)."""
    return [None if c is None else f(c, *args) for (c,) in ds]


def _bilinear(ds, f, a, b, shape):
    """Rule of an op linear in each of its two inputs (mul, matmul):
    t1 = f(a1, b) + f(a, b1), t2 = f(a2, b) + 2 f(a1, b1) + f(a, b2)."""
    (a1, b1) = ds[0]
    out = [_plus(_on(f, a1, b), _on(f, a, b1))]
    if len(ds) > 1:
        (a2, b2) = ds[1]
        cross = _on(f, a1, b1)
        out.append(_plus(_plus(_on(f, a2, b), _on(f, a, b2)),
                         _plus(cross, cross)))
    return [_fit(c, shape) for c in out]


def _chain(ds, first, second):
    """Rule of a unary map f with f'(a) = first() and f''(a) = second(f'(a)):
    t1 = f'(a) a1, t2 = f'(a) a2 + f''(a) a1**2."""
    (a1,) = ds[0]
    fp = first()
    out = [mul(fp, a1)]
    if len(ds) > 1:
        (a2,) = ds[1]
        out.append(_plus(_on(mul, fp, a2), mul(second(fp), mul(a1, a1))))
    return out


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
    ), lambda ds, shape=out.shape: [_fit(_plus(da, db), shape)
                                    for da, db in ds])
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "sub")
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(adj, a.shape) if want[0] else None,
        _unbroadcast(neg(adj), b.shape) if want[1] else None,
    ), lambda ds, shape=out.shape: [_fit(_minus(da, db), shape)
                                    for da, db in ds])
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data)
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, b), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, a), b.shape) if want[1] else None,
    ), lambda ds, shape=out.shape: _bilinear(ds, mul, a, b, shape))
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

    def taylor(ds):
        # differentiate a = out * b: a_k = sum_j C(k, j) out_j b_(k-j)
        (a1, b1) = ds[0]
        q1 = _fit(_on(div, _minus(a1, _on(mul, out, b1)), b), out.shape)
        if len(ds) == 1:
            return [q1]
        (a2, b2) = ds[1]
        cross = _on(mul, q1, b1)
        rest = _minus(_minus(a2, _plus(cross, cross)), _on(mul, out, b2))
        return [q1, _fit(_on(div, rest, b), out.shape)]

    _record(out, (a, b), backward, taylor)
    return out


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)
    _record(out, (a,), lambda adj, want: (neg(adj) if want[0] else None,),
            lambda ds: _linear(ds, neg))
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

    def taylor(ds):
        # partials of a**b: f_a = b a**(b-1), f_b = out log a,
        # f_aa = b (b-1) a**(b-2), f_ab = a**(b-1) (1 + b log a),
        # f_bb = out (log a)**2; log a is only taken where b varies
        (a1, b1) = ds[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            b_1 = sub(b, Tensor(1.0))
            f_a = None if a1 is None else mul(b, power(a, b_1))
            log_a = None if b1 is None else log(a)
            f_b = None if b1 is None else mul(out, log_a)
            t1 = _fit(_plus(_on(mul, f_a, a1), _on(mul, f_b, b1)), out.shape)
            if len(ds) == 1:
                return [t1]
            (a2, b2) = ds[1]
            t2 = _plus(_on(mul, f_a, a2), _on(mul, f_b, b2))
            if a1 is not None:
                f_aa = mul(mul(b, b_1), power(a, sub(b, Tensor(2.0))))
                t2 = _plus(t2, mul(f_aa, mul(a1, a1)))
            if b1 is not None:
                t2 = _plus(t2, mul(mul(f_b, log_a), mul(b1, b1)))
            if a1 is not None and b1 is not None:
                f_ab = mul(power(a, b_1), add(Tensor(1.0), mul(b, log_a)))
                cross = mul(f_ab, mul(a1, b1))
                t2 = add(t2, add(cross, cross))
        return [t1, _fit(t2, out.shape)]

    _record(out, (a, b), backward, taylor)
    return out


def exp(a):
    a = _as_tensor(a)
    out = Tensor(np.exp(a.data))
    _record(out, (a,), lambda adj, want: (mul(adj, out) if want[0] else None,),
            lambda ds: _chain(ds, lambda: out, lambda fp: out))
    return out


def log(a):
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(np.log(a.data))
    _record(out, (a,), lambda adj, want: (div(adj, a) if want[0] else None,),
            lambda ds: _chain(ds, lambda: div(Tensor(1.0), a),
                              lambda fp: neg(mul(fp, fp))))
    return out


def sin(a):
    a = _as_tensor(a)
    out = Tensor(np.sin(a.data))
    _record(out, (a,), lambda adj, want: (
        mul(adj, cos(a)) if want[0] else None,
    ), lambda ds: _chain(ds, lambda: cos(a), lambda fp: neg(out)))
    return out


def cos(a):
    a = _as_tensor(a)
    out = Tensor(np.cos(a.data))
    _record(out, (a,), lambda adj, want: (
        neg(mul(adj, sin(a))) if want[0] else None,
    ), lambda ds: _chain(ds, lambda: neg(sin(a)),
                         lambda fp: neg(out)))
    return out


def tanh(a):
    a = _as_tensor(a)
    out = Tensor(np.tanh(a.data))

    def backward(adj, want):
        if not want[0]:
            return (None,)
        return (mul(adj, sub(Tensor(1.0), mul(out, out))),)

    # f' = 1 - out**2, f'' = -2 out f'
    _record(out, (a,), backward, lambda ds: _chain(
        ds, lambda: sub(Tensor(1.0), mul(out, out)),
        lambda fp: mul(Tensor(-2.0), mul(out, fp))))
    return out


def relu(a):
    # Subgradient 0 at the kink.
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    if not _ACTIVE.recorders:
        return out
    gate = Tensor((a.data > 0.0).astype(np.float64))
    _record(out, (a,), lambda adj, want: (
        mul(adj, gate) if want[0] else None,
    ), lambda ds: _linear(ds, mul, gate))
    return out


def _gated(ds, ga, gb, shape):
    """Rule of maximum/minimum: each side's coefficients where it wins."""
    return [_fit(_plus(_on(mul, da, ga), _on(mul, db, gb)), shape)
            for da, db in ds]


def maximum(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "maximum")
    out = Tensor(np.maximum(a.data, b.data))
    if not _ACTIVE.recorders:
        return out
    # Ties get subgradient 0 on both sides.
    ga = Tensor((a.data > b.data).astype(np.float64))
    gb = Tensor((b.data > a.data).astype(np.float64))
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, ga), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, gb), b.shape) if want[1] else None,
    ), lambda ds, shape=out.shape: _gated(ds, ga, gb, shape))
    return out


def minimum(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a, b, "minimum")
    out = Tensor(np.minimum(a.data, b.data))
    if not _ACTIVE.recorders:
        return out
    ga = Tensor((a.data < b.data).astype(np.float64))
    gb = Tensor((b.data < a.data).astype(np.float64))
    _record(out, (a, b), lambda adj, want: (
        _unbroadcast(mul(adj, ga), a.shape) if want[0] else None,
        _unbroadcast(mul(adj, gb), b.shape) if want[1] else None,
    ), lambda ds, shape=out.shape: _gated(ds, ga, gb, shape))
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
        raise ArityMismatch(f"unknown comparison {op!r}") from None
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

    _record(out, (a,), backward,
            lambda ds: _linear(ds, reduce_sum, axes, keepdims))
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
    ), lambda ds: _linear(ds, reshape, shape))
    return out


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    out = Tensor(np.transpose(a.data, axes))
    if not _ACTIVE.recorders:
        return out
    inv = tuple(np.argsort(axes))
    _record(out, (a,), lambda adj, want: (
        transpose(adj, inv) if want[0] else None,
    ), lambda ds: _linear(ds, transpose, axes))
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
    ), lambda ds: _linear(ds, broadcast_to, shape))
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

    _record(out, (a, b), backward,
            lambda ds, shape=out.shape: _bilinear(ds, matmul, a, b, shape))
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
    ), lambda ds: _linear(ds, lambda c: sparse_matmul(S, c)))
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
    if not _ACTIVE.recorders:
        return out
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

    def taylor(ds):
        return [None if all(c is None for c in d) else concat(
            [zeros(p.shape) if c is None else c for p, c in zip(parts, d)],
            axis=ax) for d in ds]

    _record(out, tuple(parts), backward, taylor)
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

    _record(out, (a,), backward, lambda ds: _linear(ds, take_slice, spec))
    return out


def scatter_slice(adj, spec, shape):
    """Adjoint of take_slice: embed `adj` into zeros of `shape`."""
    adj = _as_tensor(adj)
    buf = np.zeros(shape, dtype=np.float64)
    buf[spec] = adj.data
    out = Tensor(buf)
    _record(out, (adj,), lambda a2, want: (
        take_slice(a2, spec) if want[0] else None,
    ), lambda ds: _linear(ds, scatter_slice, spec, shape))
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
