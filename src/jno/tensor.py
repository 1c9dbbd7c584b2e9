"""Dense f64 tensors with broadcasting, reductions and recorded derivatives.

Every runtime value in the library is a :class:`Tensor`.  Primitive ops are
recorded on the active recorders that track one of their inputs: a
:class:`Tape` replays them backward for reverse-mode gradients, and a
:class:`Jet` replays them forward for second-order Taylor coefficients
along groups of directions, keeping one second coefficient summed over each
group, which is all a Laplacian reads (Griewank & Walther, *Evaluating
Derivatives*, ch. 13; Dangel et al., arXiv:2505.13644).
Each primitive states its derivative once and both rules derive from it:
an elementwise op gives its partials, diagonal maps that are their own
transposes, and its second-order term; a linear op gives the map and its
transpose (Frostig et al., arXiv:2105.09469).  The rules are themselves
written with the public primitives, so an active Tape or an outer Jet
records what they compute and higher-order derivatives fall out of
repeated application.  A smooth unary map's f'(a) is kept by a replay that
an active recorder records, such as a Jet push under a parameter Tape, and
reused by one that no recorder watches, such as that Tape's gradient; a
square ``mul(a, a)`` is the unary map x**2.
A Taylor coefficient keeps the broadcast shape it is born with, such as a
row for a direction that is the same at every point; only the ops that read
across elements (reductions, reshapes, slices, sparse products and matmul's
contracted axis) expand it, along the axes they read across.

Importing this module sets glibc's allocator policy for the process.  A
training step's tape holds every intermediate, each about 512 KiB at 2048
points, and frees them all at once; glibc's adaptive rule then trims the
top of its heap once the free space there passes about twice the largest
array freed, so each step returned its ~10-16 MB to the OS and the next
step page-faulted it back in, a quarter of the step's time.  The mmap
threshold is set to 32 MiB, glibc's own ceiling for it on 64-bit, and the
trim threshold to 64 MiB, twice that, the ratio glibc's adaptive rule
keeps.  Both are set because setting either one stops the adaptation,
which would leave every array above 128 KiB mmapped.  The process's RSS
then stays at its peak instead of going back to the OS between steps.
Other C libraries are left alone; no result changes.
"""

import ctypes
import functools
import itertools
import operator
import os
import sys
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

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt params
_MMAP_THRESHOLD = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit


def _keep_freed_heap():
    """Set glibc's mmap and trim thresholds (see the module docstring); a
    no-op for any other C library."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold only where the mmap one took: where glibc's ceiling
    # is lower (32-bit), either call alone would freeze the mmap threshold
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_keep_freed_heap()

_UIDS = itertools.count(1)
_F64 = np.dtype(np.float64)


class _Active(threading.local):
    """The Tapes and Jets inside their ``with`` block, outermost first, per
    thread: an op records on every one that tracks one of its inputs, so an
    inner recorder's replay is captured by the outer ones."""

    def __init__(self):
        self.recorders = []


_ACTIVE = _Active()


class Tensor:
    """Immutable dense array of 64-bit reals.

    The array may be a view of another tensor's, such as a transpose or a
    slice: no tensor is written in place, so views are shared, not copied.
    """

    __slots__ = ("data", "uid")

    def __init__(self, data):
        # a primitive's result is mostly a float64 array already, which
        # np.asarray would return as it is at twice the cost of this check
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
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
    """Taylor mode: replays the records forward along groups of directions.

    A tensor's coefficients along a direction are its first and second
    derivatives t1, t2 along it.  A group keeps the first coefficient of
    each of its directions but only the sum of their second ones, so a
    Laplacian costs one second coefficient per record, not one per
    direction.  Each record's Taylor rule maps the coefficients of the op's
    inputs to those of its output; the rules are linear in the second
    coefficients, so they map the sum and add their second-order term
    summed over the group, for example ``t1 = f'(a) a1`` per direction and
    ``t2 = f'(a) a2 + f''(a) sum_j a1_j**2`` for a unary map.  One forward
    replay gives every recorded tensor's derivatives, where reverse mode
    needs one sweep per output and nested sweeps for t2, and serves every
    group: a record's rule computes what the groups share, such as f'(a)
    and f''(a), once.
    """

    def push(self, groups):
        """Coefficients along each group ``(order, directions)``, where
        `directions` lists pairs ``(x, v)`` of a watched tensor `x` and a
        direction `v` that broadcasts to `x`'s shape (None for ones), up to
        `order` (1 or 2).  A direction of one variable is a group of one.

        Returns, per group, ``(firsts, second)``: one dict uid -> Tensor of
        first coefficients per direction and, for order 2, one dict of the
        second coefficients summed over the directions (None for order 1).
        A tensor missing from a dict has a zero coefficient; a coefficient
        has its tensor's rank and broadcasts to its shape.
        """
        state = []
        for order, directions in groups:
            if order not in (1, 2):
                raise ArityMismatch(
                    f"Taylor order must be 1 or 2, got {order}")
            firsts = []
            for x, v in directions:
                self._require([x])
                firsts.append({x.uid: _seed(x, v)})
            state.append((firsts, {} if order == 2 else None))
        for rec in self.records:
            moving = [(firsts, second) for firsts, second in state
                      if any(uid in d for d in firsts for uid in rec.in_uids)]
            if not moving:
                continue
            ins = [([tuple(d.get(uid) for uid in rec.in_uids) for d in firsts],
                    None if second is None
                    else tuple(second.get(uid) for uid in rec.in_uids))
                   for firsts, second in moving]
            for (firsts, second), (t1s, t2) in zip(moving, rec.taylor(ins)):
                for d, t in zip(firsts, t1s):
                    if t is not None:
                        d[rec.out_uid] = t
                if t2 is not None:
                    second[rec.out_uid] = t2
        return state


def _seed(x, v):
    """The direction `v` at `x`, in `x`'s rank; None is a row of ones."""
    if v is None:
        return ones((1,) * x.ndim)
    if v.ndim > x.ndim or any(m not in (1, n) for m, n in
                              zip(reversed(v.shape), reversed(x.shape))):
        raise ShapeMismatch(f"direction {v.shape} does not match {x.shape}")
    return _lift(v, x.ndim)


def _record(out, inputs, backward, taylor):
    """Record `out` = op(`inputs`) on every active recorder that tracks an
    input.  `backward(adj, want)` returns the adjoints of the inputs flagged
    in `want`.  `taylor(groups)` maps each Jet group's ``(d1s, d2)`` to the
    output's ``(t1s, t2)``: `d1s` holds, per direction, the inputs' first
    coefficients, and `d2` the inputs' second coefficients summed over the
    group, or None for order 1; a coefficient of None is zero.  Elementwise
    ops get both rules from `_pointwise`, linear ones from `_linear_map`;
    only matmul and concat write their own.

    The rules bind the values they read and, where they read no more than
    an input's shape, the shape, so that a recorder does not keep the
    input itself alive."""
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


# Helpers of the rules.  A coefficient of None stands for zero.

def _plus(a, b):
    if a is None:
        return b
    return a if b is None else add(a, b)


def _sum(terms):
    return functools.reduce(_plus, terms, None)


def _twice(c):
    return _plus(c, c)


def _on(f, *args):
    """f(*args), or zero if an argument is zero (f linear in each)."""
    return None if any(c is None for c in args) else f(*args)


def _lift(c, ndim):
    """The coefficient `c` with leading axes of one up to rank `ndim`."""
    if c is None or c.ndim == ndim:
        return c
    return reshape(c, (1,) * (ndim - c.ndim) + c.shape)


def _fit(c, shape, axes=None):
    """The coefficient `c` broadcast up to `shape` along `axes` (every axis
    by default), for an op that reads across the elements on those axes."""
    if axes is not None:
        axes = {ax % len(shape) for ax in axes}
        shape = tuple(n if i in axes else m
                      for i, (m, n) in enumerate(zip(c.shape, shape)))
    return c if c.shape == shape else broadcast_to(c, shape)


def _map_groups(f, groups):
    """The output's coefficients for a rule that maps the inputs'
    coefficients of each direction and order by `f`."""
    return [([f(d) for d in d1s], None if d2 is None else f(d2))
            for d1s, d2 in groups]


def _same(t):
    return t


# numpy's division and invalid-value warnings off, as a decorator
_QUIET = np.errstate(divide="ignore", invalid="ignore")


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


def _pointwise(out, inputs, rule):
    """Record the elementwise `out` = f(`inputs`) from one statement of its
    derivative.  `rule(live)` returns, for the inputs flagged in `live`,
    ``partials[i](t)`` = t df/dx_i and ``curvature(d1s, t1s)``, the term
    sum_j sum_ik f_ik a1_ij a1_kj of a group's first coefficients `d1s`
    (`t1s` are the output's), summed over its directions j, or None where
    that term is zero.

    A partial of an elementwise map is diagonal, hence its own transpose,
    so it serves both modes: the Tape's adjoint of input i is
    ``partials[i](adj)`` summed back to the input's shape, and the Jet's
    coefficients of a group are t1_j = sum_i partials[i](a1_ij) per
    direction and t2 = sum_i partials[i](a2_i) plus the curvature, each in
    the broadcast shape of its terms.  A replay calls `rule` once, for the
    inputs live in any of its groups.  Its callers return `out` without
    building `rule` when no recorder is active."""
    shapes = tuple(t.shape for t in inputs)
    ndim = out.ndim

    def backward(adj, want):
        partials, _ = rule(want)
        return tuple(_unbroadcast(p(adj), s) if w else None
                     for p, s, w in zip(partials, shapes, want))

    def taylor(groups):
        # an input whose first coefficients are zero has a zero second one
        partials, curvature = rule(tuple(
            any(d[i] is not None for d1s, _ in groups for d in d1s)
            for i in range(len(shapes))))

        def apply(d):
            return _sum(p(c) for p, c in zip(partials, d) if c is not None)

        out = []
        for d1s, d2 in groups:
            t1s = [apply(d) for d in d1s]
            t2 = None
            if d2 is not None:
                t2 = apply(d2)
                if curvature is not None:
                    t2 = _plus(t2, curvature(d1s, t1s))
            out.append(([_lift(t, ndim) for t in t1s], _lift(t2, ndim)))
        return out

    _record(out, inputs, backward, taylor)
    return out


def _unary(out, a, first, second):
    """Record the smooth map `out` = f(`a`), with f'(a) = first() and
    f''(a) = second(f'(a)): t1 = f'(a) a1 per direction and
    t2 = f'(a) a2 + f''(a) sum_j a1_j**2 over a group's directions j.
    f''(a) is computed once per replay, for the first group that needs
    it.

    A replay that an active recorder records, such as a Jet push under a
    parameter Tape, keeps the f'(a) it computes (that recorder holds it
    anyway), and one that no recorder watches, such as the Tape's gradient,
    reuses it.  Any other replay computes f'(a) anew, so that the recorders
    watching it see f'(a) depend on `a`."""
    kept = None

    def rule(live):
        nonlocal kept
        if kept is not None and not _ACTIVE.recorders:
            fp = kept
        else:
            fp = first()
            if any(fp.uid in r._live for r in _ACTIVE.recorders):
                kept = fp
        fpp = functools.cache(lambda: second(fp))

        def curvature(d1s, t1s):
            squares = _sum(_on(mul, a1, a1) for (a1,) in d1s)
            return None if squares is None else mul(fpp(), squares)

        return (lambda t: mul(t, fp),), curvature

    return _pointwise(out, (a,), rule)


def _linear_map(out, a, apply, transpose):
    """Record `out` = L(`a`) for a linear L: the Jet maps each coefficient
    of `a` by `apply` (L itself) and the Tape maps the adjoint by
    `transpose`, L's transpose."""
    _record(out, (a,), lambda adj, want: (transpose(adj),),
            lambda groups: _map_groups(lambda d: _on(apply, *d), groups))
    return out


def _bilinear(group, f, a, b):
    """Rule of matmul, linear in each of its two inputs: t1 = f(a1, b) +
    f(a, b1) per direction, t2 = f(a2, b) + f(a, b2) + 2 sum_j f(a1_j, b1_j)
    over the group's directions j."""
    d1s, d2 = group
    t1s = [_plus(_on(f, a1, b), _on(f, a, b1)) for a1, b1 in d1s]
    if d2 is None:
        return t1s, None
    (a2, b2) = d2
    return t1s, _plus(_plus(_on(f, a2, b), _on(f, a, b2)),
                      _twice(_sum(_on(f, *d) for d in d1s)))


def _binary(fn, a, b, name):
    """The tensors `a`, `b` and fn(a, b) for a broadcasting numpy function
    `fn`; ShapeMismatch, naming the op `name`, if the shapes do not
    broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        return a, b, Tensor(fn(a.data, b.data))
    except ValueError:
        raise ShapeMismatch(f"{name}: shapes {a.shape} and {b.shape} "
                            "do not broadcast") from None


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b, out = _binary(operator.add, a, b, "add")
    if not _ACTIVE.recorders:
        return out
    return _pointwise(out, (a, b), lambda live: ((_same, _same), None))


def sub(a, b):
    a, b, out = _binary(operator.sub, a, b, "sub")
    if not _ACTIVE.recorders:
        return out
    return _pointwise(out, (a, b), lambda live: ((_same, neg), None))


def mul(a, b):
    a, b, out = _binary(operator.mul, a, b, "mul")
    if not _ACTIVE.recorders:
        return out
    if a is b:
        # the unary map x**2: one product per adjoint instead of two and a
        # sum; doubling is exact, so the Jet's coefficients are the same
        return _unary(out, a, lambda: _twice(a), lambda fp: Tensor(2.0))
    return _pointwise(out, (a, b), lambda live: (
        (lambda t: mul(t, b), lambda t: mul(t, a)),
        lambda d1s, t1s: _twice(_sum(_on(mul, *d) for d in d1s))))


def div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, out = _binary(operator.truediv, a, b, "div")
    if not _ACTIVE.recorders:
        return out

    def rule(live):
        # f_a = 1/b, f_b = -a/b**2; the second-order term
        # 2 f_ab a1 b1 + f_bb b1**2 is -2 t1 b1 / b
        def curvature(d1s, t1s):
            s = _sum(_on(mul, t1, b1) for t1, (_, b1) in zip(t1s, d1s))
            return None if s is None else neg(div(_twice(s), b))

        return ((lambda t: div(t, b),
                 lambda t: neg(div(mul(t, a), mul(b, b)))), curvature)

    return _pointwise(out, (a, b), rule)


def neg(a):
    a = _as_tensor(a)
    return _linear_map(Tensor(-a.data), a, neg, neg)


def _small_integer(b):
    """n if `b` is a 0-d tensor that no active recorder watches, holding an
    integer 1 <= n <= 8; else 0."""
    if b.ndim or any(b.uid in r._live for r in _ACTIVE.recorders):
        return 0
    v = float(b.data)
    return int(v) if v.is_integer() and 1 <= v <= 8 else 0


def power(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    n = _small_integer(b)
    if n:
        # a * a * ... * a: numpy's pow is about 100 times slower on large
        # arrays, and the product is within n - 1 roundings of it
        data = a.data
        for _ in range(n - 1):
            data = data * a.data
        out = Tensor(data)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b, out = _binary(operator.pow, a, b, "power")
    if not _ACTIVE.recorders:
        return out

    @_QUIET
    def rule(live):
        # partials of a**b: f_a = b a**(b-1), f_b = out log a,
        # f_aa = b (b-1) a**(b-2), f_ab = a**(b-1) (1 + b log a),
        # f_bb = out (log a)**2; log a is only taken where b varies
        b_1 = sub(b, Tensor(1.0)) if live[0] else None
        f_a = mul(b, power(a, b_1)) if live[0] else None
        log_a = log(a) if live[1] else None
        f_b = mul(out, log_a) if live[1] else None

        @_QUIET
        def curvature(d1s, t1s):
            aa = _sum(_on(mul, a1, a1) for a1, _ in d1s)
            bb = _sum(_on(mul, b1, b1) for _, b1 in d1s)
            ab = _sum(_on(mul, a1, b1) for a1, b1 in d1s)
            t2 = None
            if aa is not None:
                f_aa = mul(mul(b, b_1), power(a, sub(b, Tensor(2.0))))
                t2 = mul(f_aa, aa)
            if bb is not None:
                t2 = _plus(t2, mul(mul(f_b, log_a), bb))
            if ab is not None:
                f_ab = mul(power(a, b_1), add(Tensor(1.0), mul(b, log_a)))
                t2 = _plus(t2, _twice(mul(f_ab, ab)))
            return t2

        return ((_QUIET(lambda t: mul(t, f_a)),
                 _QUIET(lambda t: mul(t, f_b))), curvature)

    return _pointwise(out, (a, b), rule)


def exp(a):
    a = _as_tensor(a)
    out = Tensor(np.exp(a.data))
    if not _ACTIVE.recorders:
        return out
    return _unary(out, a, lambda: out, lambda fp: out)


def log(a):
    a = _as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(np.log(a.data))
    if not _ACTIVE.recorders:
        return out
    return _unary(out, a, lambda: div(Tensor(1.0), a),
                  lambda fp: neg(mul(fp, fp)))


def sin(a):
    a = _as_tensor(a)
    out = Tensor(np.sin(a.data))
    if not _ACTIVE.recorders:
        return out
    return _unary(out, a, lambda: cos(a), lambda fp: neg(out))


def cos(a):
    a = _as_tensor(a)
    out = Tensor(np.cos(a.data))
    if not _ACTIVE.recorders:
        return out
    return _unary(out, a, lambda: neg(sin(a)), lambda fp: neg(out))


def tanh(a):
    a = _as_tensor(a)
    out = Tensor(np.tanh(a.data))
    if not _ACTIVE.recorders:
        return out
    # f' = 1 - out**2, f'' = -2 out f'
    return _unary(out, a, lambda: sub(Tensor(1.0), mul(out, out)),
                  lambda fp: mul(Tensor(-2.0), mul(out, fp)))


def _extremum(fn, wins, a, b, name):
    """maximum or minimum (`fn`) of `a` and `b`: each input's coefficients
    where it wins (``wins(x, y)``); ties get subgradient 0 on both sides."""
    a, b, out = _binary(fn, a, b, name)
    if not _ACTIVE.recorders:
        return out

    def gated(x, y):
        gate = Tensor(wins(x.data, y.data))
        return lambda t: mul(t, gate)

    return _pointwise(out, (a, b), lambda live: (
        (gated(a, b) if live[0] else None, gated(b, a) if live[1] else None),
        None))


def relu(a):
    # Subgradient 0 at the kink.
    return _extremum(np.maximum, np.greater, a, Tensor(0.0), "relu")


def maximum(a, b):
    return _extremum(np.maximum, np.greater, a, b, "maximum")


def minimum(a, b):
    return _extremum(np.minimum, np.less, a, b, "minimum")


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
    try:
        fn = _COMPARE_FNS[op]
    except KeyError:
        raise ArityMismatch(f"unknown comparison {op!r}") from None
    return _binary(fn, a, b, "compare")[2]


# ---------------------------------------------------------------------------
# Shape rules: one pure function of shapes per structural rule.  The
# primitive validates its inputs through it and `trace.trace_shapes` returns
# its result, so both give the same shapes and refuse the same inputs.
# Elementwise ops and reshape leave the rule to numpy on both sides.
# ---------------------------------------------------------------------------

def broadcast_shape(a, b):
    """The broadcast of shapes `a` and `b`; ShapeMismatch if they do not
    broadcast.  Two equal shapes, or a shape next to (), are the answer
    without asking numpy."""
    if a == b or not b:
        return a
    if not a:
        return b
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        raise ShapeMismatch(f"shapes {a} and {b} do not broadcast") from None


def _axes(shape, axes):
    """`axes` of `shape` taken modulo its rank; InvalidAxis if one lies
    outside [-rank, rank) or two name one axis."""
    rank = len(shape)
    for ax in axes:
        if not -rank <= ax < rank:
            raise InvalidAxis(f"axis {ax} invalid for shape {shape}")
    axes = tuple([ax % rank for ax in axes])
    if len(set(axes)) != len(axes):
        raise InvalidAxis(f"axes {axes} repeat an axis")
    return axes


def reduce_shape(shape, axes):
    """(axes, out): the axes of `shape` that a reduction over `axes` (an
    int, a tuple, or None for all) sums, and the shape it leaves."""
    if axes is None:
        return tuple(range(len(shape))), ()
    axes = _axes(shape, (axes,) if isinstance(axes, int) else axes)
    return axes, tuple([n for i, n in enumerate(shape) if i not in axes])


def transpose_shape(shape, axes):
    """(axes, out): the permutation `axes` of `shape`'s axes (reversed for
    None) taken modulo its rank, and the permuted shape; InvalidAxis if
    `axes` does not permute them."""
    axes = tuple(reversed(range(len(shape)))) if axes is None \
        else _axes(shape, axes)
    if len(axes) != len(shape):
        raise InvalidAxis(f"axes {axes} do not permute the axes of {shape}")
    return axes, tuple([shape[ax] for ax in axes])


def concat_shape(shapes, axis):
    """(axis, out): `axis` taken modulo the rank, and the shape of the
    concatenation of `shapes` along it; ShapeMismatch for no shapes, two
    ranks or sizes that differ off the axis."""
    if not shapes:
        raise ShapeMismatch("concat of zero tensors")
    first = shapes[0]
    ax, = _axes(first, (axis,))
    rest = first[:ax] + first[ax + 1:]
    for s in shapes:
        if len(s) != len(first) or s[:ax] + s[ax + 1:] != rest:
            raise ShapeMismatch(f"concat shapes differ off axis {ax}: "
                                f"{list(shapes)}")
    return ax, first[:ax] + (sum([s[ax] for s in shapes]),) + first[ax + 1:]


def matmul_shape(a, b):
    """The shape of the product of shapes `a` @ `b`, whose leading (batch)
    axes broadcast; ShapeMismatch for a rank below 2 or inner sizes that
    differ."""
    if len(a) < 2 or len(b) < 2:
        raise ShapeMismatch("matmul operands must have rank >= 2")
    if a[-1] != b[-2]:
        raise ShapeMismatch(f"matmul inner dimensions differ: {a} @ {b}")
    return broadcast_shape(a[:-2], b[:-2]) + (a[-2], b[-1])


def slice_shape(shape, spec):
    """The shape of `shape` indexed by `spec`, a tuple of ints and slices;
    IndexOutOfRange for a spec longer than the rank, an int outside its
    axis, a bool (which numpy reads as a mask) or a zero step."""
    if len(spec) > len(shape):
        raise IndexOutOfRange(f"slice spec {spec} too long for shape {shape}")
    out = []
    for i, (n, s) in enumerate(zip(shape, spec)):
        if isinstance(s, slice):
            if s.step == 0:
                raise IndexOutOfRange(f"slice {s} on axis {i} has step 0")
            out.append(len(range(*s.indices(n))))
        elif isinstance(s, bool) or not -n <= s < n:
            raise IndexOutOfRange(
                f"index {s} out of range for axis {i} of {shape}")
    return tuple(out) + shape[len(spec):]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

# numpy's reduction loop over a short contiguous axis is slow: summing the
# last axis of a (32768, 3) array takes 0.63 ms, a product with ones 0.03 ms
_SHORT_AXIS = 32


def _sum_data(data, axes, keepdims):
    if axes == (data.ndim - 1,) and data.shape[-1] <= _SHORT_AXIS:
        total = data @ np.ones(data.shape[-1])
        return total[..., None] if keepdims else total
    return np.sum(data, axis=axes, keepdims=keepdims)


def reduce_sum(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    axes, _ = reduce_shape(a.shape, axes)
    out = Tensor(_sum_data(a.data, axes, keepdims))
    shape = a.shape

    def spread(adj):
        if not keepdims and axes:
            adj = reshape(adj, _restore_shape(shape, axes))
        return broadcast_to(adj, shape)

    return _linear_map(
        out, a, lambda c: reduce_sum(_fit(c, shape, axes), axes, keepdims),
        spread)


def _restore_shape(shape, axes):
    out = list(shape)
    for ax in axes:
        out[ax] = 1
    return tuple(out)


def reduce_mean(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    s = reduce_sum(a, axes=axes, keepdims=keepdims)
    # each output element sums a.size / s.size inputs; an empty output
    # (an empty input) divides nothing
    return div(s, Tensor(float(a.size // max(s.size, 1))))


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
        raise ShapeMismatch(f"cannot reshape {a.shape} to {shape}") from None
    return _linear_map(out, a, lambda c, s=a.shape: reshape(_fit(c, s), shape),
                       lambda adj, s=a.shape: reshape(adj, s))


def transpose(a, axes=None):
    """`a` with its axes permuted (reversed by default), as a view."""
    a = _as_tensor(a)
    axes, _ = transpose_shape(a.shape, axes)
    return _linear_map(Tensor(a.data.transpose(axes)), a,
                       lambda c: transpose(c, axes),
                       lambda adj: transpose(adj, tuple(np.argsort(axes))))


def broadcast_to(a, shape):
    a = _as_tensor(a)
    try:
        out = Tensor(np.broadcast_to(a.data, shape).copy())
    except ValueError:
        raise ShapeMismatch(f"cannot broadcast {a.shape} to {shape}") from None
    return _linear_map(out, a, lambda c: _lift(c, len(shape)),
                       lambda adj, s=a.shape: _unbroadcast(adj, s))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    matmul_shape(a.shape, b.shape)
    out = Tensor(np.matmul(a.data, b.data))

    def backward(adj, want):
        # the transposes are views: matmul reads them in place
        ga = gb = None
        if want[0]:
            ga = _unbroadcast(matmul(adj, _swap_last(b)), a.shape)
        if want[1]:
            gb = _unbroadcast(matmul(_swap_last(a), adj), b.shape)
        return ga, gb

    def product(x, y):
        # a coefficient is expanded along the contracted axis only
        return matmul(_fit(x, a.shape, (-1,)), _fit(y, b.shape, (-2,)))

    _record(out, (a, b), backward,
            lambda groups: [_bilinear(g, product, a, b) for g in groups])
    return out


class SparseMatrix:
    """A constant sparse matrix of shape (M, V) held as `rows`, `cols` and
    `vals`, in row-major order with columns ascending within a row.

    ``S @ x`` is one bincount per column of x, which adds each output's
    products in entry order starting from 0.0, the order of scipy's CSR
    product; `T` swaps rows and cols without sorting again, so its entries
    stay in the order of scipy's CSC product of the transpose.  Both agree
    with scipy bitwise.
    """

    def __init__(self, rows, cols, vals, shape):
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        order = np.argsort(rows * shape[1] + cols)
        self.rows, self.cols = rows[order], cols[order]
        self.vals = np.asarray(vals, np.float64)[order]
        self.shape = tuple(shape)

    @property
    def nnz(self):
        return len(self.vals)

    @functools.cached_property
    def T(self):
        # the transpose's own T is a new matrix, not `self`: that cycle
        # would leave every per-step operator to the cyclic collector
        t = object.__new__(SparseMatrix)
        t.rows, t.cols, t.vals = self.cols, self.rows, self.vals
        t.shape = self.shape[::-1]
        return t

    def __matmul__(self, x):
        """`S @ x` for `x` of shape (V,) or (V, m): one bincount per column
        of `x`."""
        M = self.shape[0]
        if x.ndim == 1 or x.shape[1] == 1:
            out = np.bincount(self.rows, self.vals * x.ravel().take(self.cols),
                              M)
            # bincount over no entries gives int64 zeros
            return out.astype(np.float64, copy=False).reshape(
                (M,) + x.shape[1:])
        out = np.empty((M, x.shape[1]))
        for j, c in enumerate(x.T):
            out[:, j] = np.bincount(self.rows, self.vals * c.take(self.cols),
                                    M)
        return out

    def toarray(self):
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out


def issparse(value):
    """Whether `value` is a :class:`SparseMatrix` or a ``scipy.sparse``
    matrix.  Nothing can be the latter before something has imported
    scipy.sparse, so this imports nothing."""
    if isinstance(value, SparseMatrix):
        return True
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(value)


def sparse_matmul(S, x):
    """`S @ x` over the second-to-last axis of `x`, for a constant sparse
    matrix `S` of shape (M, V), a :class:`SparseMatrix` or a
    ``scipy.sparse`` one, and `x` of shape (..., V, k).

    `S` takes no gradient; the adjoint of `x` is ``sparse_matmul(S.T, adj)``,
    so outer tapes record the backward pass like any other primitive.
    """
    x = _as_tensor(x)
    shape = matmul_shape(S.shape, x.shape)
    if x.shape[:-2].count(1) == x.ndim - 2:
        # no batch axis to fold: x is (V, k) already
        out = Tensor((S @ x.data.reshape(x.shape[-2:])).reshape(shape))
    else:
        # the operator axis leads; batch axes and the last axis fold into
        # columns
        cols = np.moveaxis(x.data, -2, 0).reshape(S.shape[1], -1)
        moved = (S @ cols).reshape((S.shape[0],) + x.shape[:-2]
                                   + x.shape[-1:])
        out = Tensor(np.moveaxis(moved, 0, -2))
    return _linear_map(
        out, x, lambda c, s=x.shape: sparse_matmul(S, _fit(c, s, (-2,))),
        lambda adj: sparse_matmul(S.T, adj))


def _swap_last(a):
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, tuple(axes))


def concat(parts, axis=-1):
    parts = [_as_tensor(p) for p in parts]
    shapes = [p.shape for p in parts]
    ax, _ = concat_shape(shapes, axis)
    out = Tensor(np.concatenate([p.data for p in parts], axis=ax))
    if not _ACTIVE.recorders:
        return out
    nd = out.ndim
    offsets = np.cumsum([0] + [s[ax] for s in shapes])

    def backward(adj, want):
        spec, grads = [slice(None)] * nd, []
        for i, w in enumerate(want):
            spec[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(take_slice(adj, tuple(spec)) if w else None)
        return tuple(grads)

    def join(d):
        # the parts' coefficients in one broadcast shape off the axis
        live = [c.shape[:ax] + (1,) + c.shape[ax + 1:]
                for c in d if c is not None]
        if not live:
            return None
        common = list(np.broadcast_shapes(*live))
        parts = []
        for s, c in zip(shapes, d):
            common[ax] = s[ax]
            parts.append(zeros(common) if c is None
                         else _fit(c, tuple(common)))
        return concat(parts, axis=ax)

    _record(out, tuple(parts), backward,
            lambda groups: _map_groups(join, groups))
    return out


def take_slice(a, spec):
    """Basic indexing with a tuple of ints and slices."""
    a = _as_tensor(a)
    if not isinstance(spec, tuple):
        spec = (spec,)
    shape = a.shape
    slice_shape(shape, spec)

    def apply(c):
        # a coefficient is expanded along the axes that the spec indexes
        read = [i for i, s in enumerate(spec) if s != slice(None)]
        return take_slice(_fit(c, shape, read), spec)

    return _linear_map(Tensor(a.data[spec]), a, apply,
                       lambda adj: scatter_slice(adj, spec, shape))


def scatter_slice(adj, spec, shape):
    """Adjoint of take_slice: embed `adj` into zeros of `shape`."""
    adj = _as_tensor(adj)
    buf = np.zeros(shape, dtype=np.float64)
    buf[spec] = adj.data
    return _linear_map(Tensor(buf), adj,
                       lambda c, s=adj.shape: scatter_slice(_fit(c, s), spec,
                                                           shape),
                       lambda a: take_slice(a, spec))


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

# the ops of ELEMENTWISE that take one operand; the others take two
UNARY = frozenset(("neg", "exp", "log", "sin", "cos", "tanh", "relu"))


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
