"""In-memory span tracer for the traced benchmark run.

Spans come from the benchmark's own code: around the calls it makes into
jno, and around jno's public functions, which :meth:`Tracer.install` wraps
by swapping module attributes, class attributes and dispatch-table entries
for the duration of a traced op.  :meth:`Tracer.uninstall` puts the
originals back.  jno itself is not modified.

Each span records its name, start, end, parent span and the id of the op
(or set-up repetition) it belongs to.  Counters are recorded at the same
boundaries, per op.  Self time is a span's duration minus the time its
child spans cover; spans of one thread nest strictly, so that is the
duration minus the summed durations of its direct children.
"""

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

from jno import domain as dm
from jno import evaluator as ev
from jno import fem
from jno import mesh as meshmod
from jno import nn
from jno import tensor as T
from jno import trace as tr

# Public tensor functions that produce a Tensor: the L0 primitives.
PRIMITIVES = (
    "add", "sub", "mul", "div", "neg", "power", "exp", "log", "sin", "cos",
    "tanh", "relu", "maximum", "minimum", "compare", "reduce_sum",
    "reduce_mean", "reduce_mse", "reshape", "transpose", "broadcast_to",
    "matmul", "concat", "take_slice", "scatter_slice",
)
PRIMITIVE_SPANS = tuple(f"tensor.{p}" for p in PRIMITIVES)

MESH_CONSTRUCTORS = (
    "line_mesh", "rect_mesh", "disk_mesh", "lshape_mesh", "cube_mesh",
    "rect_with_hole_mesh",
)

_BYTES = 8  # every Tensor holds float64


class NullTracer:
    """Stand-in used by untraced ops: spans cost one no-op context."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.counter = None
        self._op_id = None
        self._stack = []
        self._saved = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id):
        """Attribute the spans and counts that follow to `op_id`."""
        self._op_id = op_id
        self.counter = self.counts.setdefault(op_id, Counter())

    def _begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _end(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        """Span around benchmark code; records only while installed."""
        if not self._saved:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, fn, name, before=None, after=None):
        """`fn` inside a span; `name` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counter, *args)
            idx = tracer._begin(name(*args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if after is not None:
                after(tracer.counter, out)
            return out

        return traced

    # -- instrumentation -----------------------------------------------------

    def _count_records(self, original):
        tracer = self

        @functools.wraps(original)
        def exit_counting_records(tape, *exc):
            tracer.counter["tensor.records"] += len(tape.records)
            return original(tape, *exc)

        return exit_counting_records

    def _patch(self, owner, key, wrapper):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def install(self):
        """Wrap jno's public entry points; idempotent until uninstall()."""
        if self._saved:
            return
        wrapped = {}
        for prim in PRIMITIVES:
            fn = getattr(T, prim)
            before = _PRIM_COUNTERS.get(prim, _count_prim)
            wrapped[fn] = self._wrap(fn, f"tensor.{prim}", before=before)
            self._patch(T, prim, wrapped[fn])
        # dispatch tables hold the original functions, not the module names
        for table in (T.ELEMENTWISE, T.REDUCERS, nn._ACTIVATIONS):
            for key, fn in list(table.items()):
                if fn in wrapped:
                    self._patch(table, key, wrapped[fn])
        self._patch(T.Tape, "gradient",
                    self._wrap(T.Tape.gradient, "tensor.replay"))
        self._patch(T.Tape, "__exit__", self._count_records(T.Tape.__exit__))

        self._patch(tr, "cse", self._wrap(tr.cse, "trace.cse",
                                          after=_count_cse))
        self._patch(tr, "trace_shapes",
                    self._wrap(tr.trace_shapes, "trace.shapes"))

        self._patch(ev, "evaluate", self._wrap(
            ev.evaluate, "evaluator.evaluate", before=_count_evaluate))
        for kind, handler in list(ev.HANDLERS.items()):
            if kind == tr.DERIVATIVE:
                wrapper = self._wrap(handler, _derivative_span,
                                     before=_count_node)
            elif kind == tr.MODEL_CALL:
                wrapper = self._wrap(handler, "evaluator.handler",
                                     before=_count_model_call)
            else:
                wrapper = self._wrap(handler, "evaluator.handler",
                                     before=_count_node)
            self._patch(ev.HANDLERS, kind, wrapper)
        self._patch(ev, "mls_gradient_operators", self._wrap(
            ev.mls_gradient_operators, "evaluator.mls_build"))

        for ctor in MESH_CONSTRUCTORS:
            self._patch(meshmod, ctor,
                        self._wrap(getattr(meshmod, ctor), "mesh.construct"))
        self._patch(meshmod.Connectivity, "__init__", self._wrap(
            meshmod.Connectivity.__init__, "mesh.connectivity"))
        self._patch(dm.Domain, "__init__", self._wrap(
            dm.Domain.__init__, "domain.init", before=_count_vertices))
        self._patch(dm.Domain, "normals",
                    self._wrap(dm.Domain.normals, "domain.normals"))
        for method in ("sample", "apply_resamplers"):
            self._patch(dm.Domain, method, self._wrap(
                getattr(dm.Domain, method), "domain.resample"))

        self._patch(fem, "init_fem", self._wrap(fem.init_fem, "fem.init"))

        self._patch(nn.MLP, "forward", self._wrap(
            nn.MLP.forward, "nn.forward", before=_count_forward))
        self._patch(nn, "optimizer_step",
                    self._wrap(nn.optimizer_step, "nn.optimizer"))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with self time (seconds) per span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "self": dur - covered,
        }

    def summarize(self, op_ids, inclusive=()):
        """Per-op means over `op_ids` of: self seconds by span name,
        inclusive seconds of the outermost spans named in `inclusive`
        (spans with no ancestor of the same name), and counters."""
        spans = self.arrays()
        ops = np.asarray(sorted(op_ids), dtype=np.int32)
        n = max(len(ops), 1)
        chosen = np.isin(spans["op"], ops)
        name_ids = spans["name_id"]
        self_s = np.bincount(name_ids[chosen], weights=spans["self"][chosen],
                             minlength=len(self.names)) / n

        incl_s = {}
        parent = spans["parent"]
        for name in inclusive:
            nid = self._name_ids.get(name)
            if nid is None:
                incl_s[name] = 0.0
                continue
            idx = np.nonzero(chosen & (name_ids == nid))[0]
            outer = np.ones(len(idx), dtype=bool)
            anc = parent[idx]
            while (anc >= 0).any():
                live = anc >= 0
                outer[live] &= name_ids[anc[live]] != nid
                anc[live] = parent[anc[live]]
            incl_s[name] = float(
                (spans["end"][idx[outer]] - spans["start"][idx[outer]]).sum()
            ) / n

        counts = Counter()
        for op_id in ops.tolist():
            counts.update(self.counts.get(op_id, {}))
        return (
            dict(zip(self.names, self_s.tolist())),
            incl_s,
            {k: v / n for k, v in counts.items()},
        )

    def save(self, path):
        """Write every span and the name table as one .npz file."""
        spans = self.arrays()
        np.savez(path, names=np.asarray(self.names), **spans)


# ---------------------------------------------------------------------------
# Counters, recorded where the work happens
# ---------------------------------------------------------------------------

def _count_prim(counter, *args):
    counter["tensor.prim_calls"] += 1


def _count_matmul(counter, a, b):
    counter["tensor.prim_calls"] += 1
    sa, sb = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
    if len(sa) < 2 or len(sb) < 2:
        return
    batch = int(np.prod(np.broadcast_shapes(sa[:-2], sb[:-2])))
    m, k, n = sa[-2], sa[-1], sb[-1]
    counter["tensor.matmul_flops"] += 2 * batch * m * k * n
    counter["tensor.matmul_bytes"] += _BYTES * (
        int(np.prod(sa)) + int(np.prod(sb)) + batch * m * n)


def _count_transpose(counter, a, *rest):
    counter["tensor.prim_calls"] += 1
    counter["tensor.transpose_bytes"] += _BYTES * int(
        np.prod(np.shape(getattr(a, "data", a))))


_PRIM_COUNTERS = {"matmul": _count_matmul, "transpose": _count_transpose}


def _count_cse(counter, out):
    stats = out[1]
    counter["trace.nodes_before"] += stats["nodes_before"]
    counter["trace.nodes_after"] += stats["nodes_after"]


def _count_evaluate(counter, root, ctx):
    counter["evaluator.evaluate_calls"] += 1
    if ctx.cache.get(root) is not None:
        counter["evaluator.cache_hits"] += 1


def _count_node(counter, node, ctx):
    counter["evaluator.node_evals"] += 1


def _count_model_call(counter, node, ctx):
    counter["evaluator.node_evals"] += 1
    counter["evaluator.model_calls"] += 1


def _count_forward(counter, model, args):
    counter["nn.forward_calls"] += 1


def _count_vertices(counter, domain, mesh, *rest):
    counter["mesh.vertices"] += mesh.num_vertices


def _derivative_span(node, ctx):
    _, hint = node.payload
    mode = ctx.derivative_mode if hint == "default" else hint
    if mode == "finite-difference":
        return "evaluator.derivative_fd"
    return "evaluator.derivative_ad"
