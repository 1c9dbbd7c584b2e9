"""The three benchmark workloads and the checks on their outputs.

A workload is built once per set-up repetition with :meth:`setup`, runs one
op per :meth:`op` call, and checks a finished op with :meth:`check`, which
returns the list of failed checks.  Every input -- model init, resampled
indices, sampled points and series coefficients -- comes from the seed, so
the same seed repeats every count and `rel_l2_err` exactly.

Each op times its stages with a :class:`StageClock`; the harness sums,
over the stages, each stage's fastest time in the run (`op_fast_ms`).

All calls into jno go through module attributes (``ev.evaluate``,
``nn.optimizer_step`` ...) so that the traced run's wrappers see them.
"""

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from jno import domain as dm
from jno import evaluator as ev
from jno import fem
from jno import nn
from jno import tensor as T
from jno import trace as tr

from spans import NullTracer

# Independent random streams drawn from one seed, so that checks never
# shift the inputs of the ops they check.
_INPUTS, _CHECKS = 0, 1


def _sin(node):
    return tr.build(tr.ARITH, "sin", (node,))


def _tree_sum(terms):
    """Balanced sum.  A left-deep chain of ~1000 terms raises RecursionError
    in jno's recursive `evaluate`, a known defect kept out of this
    benchmark."""
    while len(terms) > 1:
        pairs = [a + b for a, b in zip(terms[0::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


class StageClock:
    """Wall time of each named stage of the latest op.

    ``with clock("name"): ...`` times one stage; :meth:`start` clears the
    times at the start of an op.  Stages last at most about 150 ms, so
    that the fastest time of each stage over a run catches the moments
    when the shared host is not slowing the process down, which a whole op
    of up to 0.6 s rarely does.
    """

    def __init__(self):
        self.times = {}
        self._name = None
        self._t0 = 0.0

    def start(self):
        self.times = {}

    def __call__(self, name):
        self._name = name
        return self

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.times[self._name] = time.perf_counter() - self._t0


def _digest(array):
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# PINN training step (AD or FD derivatives)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinnSizes:
    grid: int           # structured_rect(grid, grid)
    points: int         # interior points resampled per step
    fixed_steps: int    # steps after which rel_l2_err is taken
    check_every: int    # ops between output checks


class Pinn:
    """One Adam step of the 2-D Poisson PINN

        loss = mse(u.dd(x) + u.dd(y) + f) + mse(u on boundary),
        f = 2 pi^2 sin(pi x) sin(pi y),  exact u = sin(pi x) sin(pi y),

    with an MLP 2-32-32-1 (tanh).  Each step resamples the interior, builds
    a fresh EvalContext, evaluates the loss under a parameter Tape and
    applies `optimizer_step`.
    """

    LEARNING_RATE = 1e-3

    def __init__(self, mode, sizes, seed, tracer=None):
        self.mode = mode
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer or NullTracer()
        self.points_per_op = sizes.points
        self.clock = StageClock()
        self.steps = 0
        self.rel_l2_err = None
        self.first_inputs = None

    def setup(self):
        s = self.sizes
        self.domain = d = dm.structured_rect(s.grid, s.grid)
        with self.tracer.span("trace.build"):
            x, y, _ = d.variable("interior")
            xb, yb, _ = d.variable("boundary")
            self.net = net = nn.mlp(2, [32, 32], 1).initialize(self.seed)
            u = net(tr.concat_nodes([x, y], axis=-1))
            source = 2.0 * np.pi ** 2 * _sin(np.pi * x) * _sin(np.pi * y)
            residual = u.dd(x) + u.dd(y) + source
            self.loss = residual.mse + net(tr.concat_nodes([xb, yb],
                                                           axis=-1)).mse
            if self.mode == "finite-difference":
                # MLS reconstruction is exact on affine fields: slope 3
                self.probe = tr.derivative(3.0 * x - 2.0 * y + 0.5, x, 1,
                                           "finite-difference")
            else:
                self.probe = (_sin(np.pi * x) * _sin(np.pi * y)).dd(x)
        d.register_resampler("interior", count=s.points)
        self.rng = np.random.default_rng([self.seed, _INPUTS])
        self.check_rng = np.random.default_rng([self.seed, _CHECKS])
        self.spec = nn.adam(self.LEARNING_RATE)
        self.state = nn.OptimizerState(net.trainable_params())

    def _context(self):
        return ev.EvalContext(domain=self.domain, derivative_mode=self.mode)

    def op(self):
        clock = self.clock
        clock.start()
        with clock("resample"):
            self.domain.apply_resamplers(self.rng)
        with clock("loss"):
            params = self.net.trainable_params()
            ctx = self._context()
            with T.Tape() as tape:
                tape.watch(*params.values())
                loss = ev.evaluate(self.loss, ctx)
        with clock("gradient"):
            grads = tape.gradient(loss, list(params.values()))
            grads = {p: grads[t.uid] for p, t in params.items()}
        with clock("optimizer"):
            new, self.state = nn.optimizer_step(self.spec, self.state,
                                                params, grads)
            self.net.apply_update(new)
        self.steps += 1
        return {"loss": loss.item(), "ctx": ctx, "params": params,
                "grads": grads}

    def observe(self, out):
        """Untimed bookkeeping after each step."""
        if self.first_inputs is None:
            self.first_inputs = _digest(self.domain.context["interior"])
        if self.steps == self.sizes.fixed_steps:
            self.rel_l2_err = self._rel_l2()

    def finish(self):
        """Train untimed up to the fixed step count if the run ended early."""
        while self.rel_l2_err is None:
            self.observe(self.op())

    def _rel_l2(self):
        verts = self.domain.mesh.vertices
        u = self.net.forward([T.Tensor(verts[None, None])]).data.reshape(-1)
        exact = np.sin(np.pi * verts[:, 0]) * np.sin(np.pi * verts[:, 1])
        return float(np.linalg.norm(u - exact) / np.linalg.norm(exact))

    def check(self, out):
        pts = self.domain.context["interior"]
        got = ev.evaluate(self.probe, out["ctx"]).data
        if self.mode == "finite-difference":
            want, tol = np.full(got.shape, 3.0), 1e-10
        else:
            want = -np.pi ** 2 * np.sin(np.pi * pts[..., :1]) \
                * np.sin(np.pi * pts[..., 1:2])
            tol = 1e-8
        err = float(np.abs(got - want).max())
        failures = []
        if not err <= tol:
            failures.append(f"derivative probe off by {err:.3e} > {tol}")
        if self.mode != "finite-difference":
            failures += self._check_gradient(out)
        return failures

    def _check_gradient(self, out, entries=3, h=1e-5, rtol=1e-6):
        """Parameter gradient against central differences of the loss at the
        step's inputs and pre-update parameters."""
        params, grads = out["params"], out["grads"]
        paths = sorted(params)
        live = self.net.params
        failures = []
        try:
            for _ in range(entries):
                path = paths[self.check_rng.integers(len(paths))]
                flat = self.check_rng.integers(params[path].size)
                base = params[path].data
                sides = []
                for sign in (1.0, -1.0):
                    bumped = base.copy()
                    bumped.flat[flat] += sign * h
                    self.net.params = {**params, path: T.Tensor(bumped)}
                    ctx = self._context()
                    sides.append(ev.evaluate(self.loss, ctx).item())
                fd = (sides[0] - sides[1]) / (2 * h)
                ad = float(grads[path].data.flat[flat])
                if not abs(fd - ad) <= rtol * (1.0 + abs(ad)):
                    failures.append(
                        f"d loss/d {path}[{flat}]: AD {ad:.9e} vs FD {fd:.9e}")
        finally:
            self.net.params = live
        return failures

    def report(self):
        return {"rel_l2_err": self.rel_l2_err, "steps": self.steps,
                "first_inputs_sha1": self.first_inputs}


# ---------------------------------------------------------------------------
# Cold start: nothing to the first loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColdSizes:
    grid: int           # structured_rect(grid, grid)
    h: float            # mesh size of disk, lshape and rect_with_hole
    terms: int          # terms of each sin source series
    points: int         # sampled interior points of the rect
    check_every: int    # ops between output checks


class ColdStart:
    """Build four domains, take boundary normals, run `init_fem` on the rect,
    trace an AD-Laplacian loss plus a tracker that both hold a copy of a
    `terms`-term sin series, run `cse` and `trace_shapes`, then evaluate
    once on sampled rect points.  No training happens; every op rebuilds
    everything from the same seeded inputs.  The FEM lowering is broken on
    this code base, so only its set-up (`init_fem`) runs.
    """

    def __init__(self, sizes, seed, tracer=None):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer or NullTracer()
        self.points_per_op = sizes.points
        self.clock = StageClock()
        self.first_inputs = None

    def setup(self):
        rng = np.random.default_rng([self.seed, _INPUTS])
        k = np.arange(1, self.sizes.terms + 1)
        self.coef = (rng.standard_normal(self.sizes.terms) / k ** 2).tolist()

    def _series(self, x, y):
        return _tree_sum([
            c * (_sin((j + 1) * np.pi * x) * _sin((j + 1) * np.pi * y))
            for j, c in enumerate(self.coef)
        ])

    def op(self):
        s = self.sizes
        clock = self.clock
        clock.start()
        domains, normals = [], []
        for name, make_domain in (
                ("rect", lambda: dm.structured_rect(s.grid, s.grid)),
                ("disk", lambda: dm.disk(s.h)),
                ("lshape", lambda: dm.lshape(s.h)),
                ("rect_with_hole", lambda: dm.rect_with_hole(s.h))):
            with clock(name):
                domains.append(make_domain())
                normals.append(domains[-1].normals("boundary"))
        rect = domains[0]
        with clock("init_fem"):
            fem.init_fem(rect)

        with clock("build"), self.tracer.span("trace.build"):
            x, y, _ = rect.variable("interior")
            net = nn.mlp(2, [32, 32], 1).initialize(self.seed)
            u = net(tr.concat_nodes([x, y], axis=-1))
            residual = u.dd(x) + u.dd(y) + self._series(x, y)
            roots = [residual.mse, tr.tracker(self._series(x, y).mean, 1)]
        with clock("cse"):
            shared, _ = tr.cse(roots)

        with clock("shapes"):
            rect.register_resampler("interior", count=s.points)
            rect.apply_resamplers(np.random.default_rng([self.seed, _INPUTS]))
            shapes = {var: t.shape for var, t in rect.bindings().items()}
            report = tr.trace_shapes(shared, shapes)
        with clock("evaluate"):
            ctx = ev.EvalContext(domain=rect)
            values = [ev.evaluate(r, ctx) for r in shared]
        return {"loss": values[0].item(), "domains": domains,
                "normals": normals, "roots": roots, "shared": shared,
                "values": values, "ctx": ctx, "report": report}

    def observe(self, out):
        if self.first_inputs is None:
            self.first_inputs = _digest(out["domains"][0].context["interior"])

    def finish(self):
        pass

    def check(self, out):
        failures = []
        rect, _, lshape, _ = out["domains"]
        for name, d, want in (("rect", rect, 1.0), ("lshape", lshape, 0.75)):
            got = d.total_measure()
            if not abs(got - want) <= 1e-12:
                failures.append(f"{name} total_measure {got!r} != {want}")
        for d, n in zip(out["domains"], out["normals"]):
            dev = float(np.abs(np.linalg.norm(n.data, axis=1) - 1.0).max())
            if not dev <= 1e-12:
                failures.append(f"boundary normal length off by {dev:.3e}")
        fresh = ev.EvalContext(domain=rect)
        for original, value in zip(out["roots"], out["values"]):
            again = ev.evaluate(original, fresh)
            if again.data.tobytes() != value.data.tobytes():
                failures.append("CSE'd root differs from the original root")
        report = out["report"]
        bad = [node for node, value in out["ctx"].cache.items()
               if tuple(report[node]) != tuple(value.shape)]
        if bad:
            failures.append(f"trace_shapes disagrees on {len(bad)} nodes")
        return failures

    def report(self):
        return {"first_inputs_sha1": self.first_inputs}


FULL = {
    "pinn_ad": PinnSizes(grid=78, points=2048, fixed_steps=100,
                         check_every=50),
    "pinn_fd": PinnSizes(grid=40, points=1024, fixed_steps=100,
                         check_every=10),
    "cold_start": ColdSizes(grid=64, h=0.03, terms=1000, points=256,
                            check_every=4),
}

TINY = {
    "pinn_ad": PinnSizes(grid=6, points=12, fixed_steps=4, check_every=1),
    "pinn_fd": PinnSizes(grid=6, points=12, fixed_steps=4, check_every=1),
    "cold_start": ColdSizes(grid=6, h=0.25, terms=8, points=12,
                            check_every=1),
}

NAMES = tuple(FULL)


def make(name, sizes, seed, tracer=None):
    if name == "pinn_ad":
        return Pinn("auto", sizes, seed, tracer)
    if name == "pinn_fd":
        return Pinn("finite-difference", sizes, seed, tracer)
    if name == "cold_start":
        return ColdStart(sizes, seed, tracer)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
