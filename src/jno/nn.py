"""Models as first-class trace nodes, plus parameter-level training controls.

A Model owns a flat parameter tree keyed by '/'-separated paths
(``layers/0/weight``), a trainable mask, optional LoRA adapters and an
attached optimizer spec.  Calling a model inside a traced program yields a
ModelCall node; the evaluator routes it back through :meth:`Model.forward`.
"""

import math

import numpy as np

from . import tensor as T
from . import trace as tr
from .errors import (
    ArityMismatch,
    BadDimension,
    InputRankMismatch,
    InvalidSeed,
    NotAMatrix,
    StateShapeMismatch,
    UnknownPath,
)


# ---------------------------------------------------------------------------
# Schedules and optimizer specs
# ---------------------------------------------------------------------------

class Schedule:
    def value(self, step):
        raise NotImplementedError


class Constant(Schedule):
    def __init__(self, lr):
        self.lr = float(lr)

    def value(self, step):
        return self.lr


class CosineDecay(Schedule):
    """lr(s) = init * (alpha + (1-alpha) * (1+cos(pi*min(s,D)/D)) / 2)."""

    def __init__(self, init_value, decay_steps, alpha=0.0):
        if not (decay_steps >= 1 and float(decay_steps).is_integer()):
            raise BadDimension(
                f"decay_steps must be a whole number >= 1, got {decay_steps}")
        self.init_value = float(init_value)
        self.decay_steps = int(decay_steps)
        self.alpha = float(alpha)

    def value(self, step):
        frac = min(step, self.decay_steps) / self.decay_steps
        cosine = (1.0 + math.cos(math.pi * frac)) / 2.0
        return self.init_value * (self.alpha + (1.0 - self.alpha) * cosine)


def constant_schedule(lr):
    return Constant(lr)


def cosine_decay_schedule(init_value, decay_steps, alpha=0.0):
    return CosineDecay(init_value, decay_steps, alpha)


def _as_schedule(lr):
    return lr if isinstance(lr, Schedule) else Constant(lr)


class OptimizerSpec:
    def __init__(self, kind, learning_rate, b1=0.9, b2=0.999, eps=1e-8,
                 weight_decay=0.0, group_overrides=None):
        if kind not in ("sgd", "adam", "adamw"):
            raise ArityMismatch(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.schedule = _as_schedule(learning_rate)
        self.b1 = float(b1)
        self.b2 = float(b2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        # path-prefix -> {field: value}; longest matching prefix wins
        self.group_overrides = dict(group_overrides or {})

    def hyper_for(self, path, step):
        hp = {
            "lr": self.schedule.value(step),
            "b1": self.b1, "b2": self.b2, "eps": self.eps,
            "weight_decay": self.weight_decay,
        }
        best = None
        for prefix in self.group_overrides:
            if path is not None and path.startswith(prefix):
                if best is None or len(prefix) > len(best):
                    best = prefix
        if best is not None:
            over = dict(self.group_overrides[best])
            if "learning_rate" in over:
                hp["lr"] = _as_schedule(over.pop("learning_rate")).value(step)
            hp.update(over)
        return hp


def sgd(learning_rate):
    return OptimizerSpec("sgd", learning_rate)


def adam(learning_rate, b1=0.9, b2=0.999, eps=1e-8, group_overrides=None):
    return OptimizerSpec("adam", learning_rate, b1, b2, eps,
                         group_overrides=group_overrides)


def adamw(learning_rate, b1=0.9, b2=0.999, eps=1e-8, weight_decay=1e-2,
          group_overrides=None):
    return OptimizerSpec("adamw", learning_rate, b1, b2, eps, weight_decay,
                         group_overrides=group_overrides)


class OptimizerState:
    """Per-parameter moments mirroring the trainable tree."""

    def __init__(self, params):
        self.m = {p: np.zeros(t.shape) for p, t in params.items()}
        self.v = {p: np.zeros(t.shape) for p, t in params.items()}
        self.step = 0


def optimizer_step(spec, state, params, grads, step=None):
    """One update; returns (new params dict, same state advanced)."""
    s = state.step if step is None else step
    new_params = {}
    for path, p in params.items():
        g = grads.get(path)
        if g is None:
            new_params[path] = p
            continue
        gd = g.data if isinstance(g, T.Tensor) else np.asarray(g, dtype=np.float64)
        pd = p.data if isinstance(p, T.Tensor) else np.asarray(p, dtype=np.float64)
        if gd.shape != pd.shape:
            raise StateShapeMismatch(
                f"gradient shape {gd.shape} != parameter shape {pd.shape} "
                f"at {path!r}"
            )
        hp = spec.hyper_for(path, s)
        lr = hp["lr"]
        if spec.kind == "sgd":
            new = pd - lr * gd
        else:
            if path not in state.m or state.m[path].shape != pd.shape:
                raise StateShapeMismatch(f"optimizer state missing for {path!r}")
            m = hp["b1"] * state.m[path] + (1 - hp["b1"]) * gd
            v = hp["b2"] * state.v[path] + (1 - hp["b2"]) * gd * gd
            state.m[path] = m
            state.v[path] = v
            mhat = m / (1 - hp["b1"] ** (s + 1))
            vhat = v / (1 - hp["b2"] ** (s + 1))
            new = pd
            if spec.kind == "adamw" and hp["weight_decay"]:
                new = new - lr * hp["weight_decay"] * new
            new = new - lr * mhat / (np.sqrt(vhat) + hp["eps"])
        new_params[path] = T.Tensor(new)
    state.step = s + 1
    return new_params, state


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

_MODEL_COUNT = {}


def _fresh_name(base):
    n = _MODEL_COUNT.get(base, 0)
    _MODEL_COUNT[base] = n + 1
    return base if n == 0 else f"{base}_{n}"


class Model:
    def __init__(self, name):
        self.name = _fresh_name(name)
        self.params = {}
        self.frozen = False
        self._mask = {}
        self.lora_cfg = None
        self.opt_spec = None
        self.opt_state = None
        self._initialized = False

    # -- tracing entry point -------------------------------------------------

    def __call__(self, *args):
        return tr.model_call(self, args)

    # -- controls (chainable) --------------------------------------------------

    def optimizer(self, spec):
        self.opt_spec = spec
        return self

    def initialize(self, seed=0):
        """Zero biases and weights uniform in ±sqrt(6 / fan_in), from `seed`."""
        if not isinstance(seed, (int, np.integer)):
            raise InvalidSeed(f"seed must be an integer, got {seed!r}")
        rng = np.random.default_rng(int(seed))
        self.params = {}
        for path, shape, fan_in in self._param_specs():
            if path.endswith("bias"):
                self.params[path] = T.Tensor(np.zeros(shape))
            else:
                limit = math.sqrt(6.0 / fan_in)
                self.params[path] = T.Tensor(
                    rng.uniform(-limit, limit, size=shape))
        self._initialized = True
        self.opt_state = None
        return self

    def freeze(self):
        self.frozen = True
        return self

    def unfreeze(self):
        self.frozen = False
        return self

    def mask(self, path_mask):
        for p in path_mask:
            if p not in self.params:
                raise UnknownPath(f"mask path {p!r} not in parameter tree")
        self._mask.update({p: bool(v) for p, v in path_mask.items()})
        return self

    def lora(self, rank, alpha, paths=None, seed=0):
        """Attach low-rank adapters; training restricts to them."""
        if rank < 1:
            raise BadDimension("lora rank must be >= 1")
        self._require_init()
        if paths is None:
            paths = [p for p, t in self.params.items()
                     if p.endswith("weight") and t.ndim == 2]
        rng = np.random.default_rng(seed)
        adapted = []
        for p in sorted(paths):
            if p not in self.params:
                raise UnknownPath(f"lora path {p!r} not in parameter tree")
            W = self.params[p]
            if W.ndim != 2:
                raise NotAMatrix(f"lora target {p!r} has shape {W.shape}")
            out_dim, in_dim = W.shape
            A = rng.uniform(-0.01, 0.01, size=(rank, in_dim))
            B = np.zeros((out_dim, rank))
            self.params[f"lora/{p}/A"] = T.Tensor(A)
            self.params[f"lora/{p}/B"] = T.Tensor(B)
            adapted.append(p)
        self.lora_cfg = {"rank": int(rank), "alpha": float(alpha),
                         "paths": adapted}
        return self

    # -- trainable set -----------------------------------------------------

    def trainable_paths(self):
        if self.frozen:
            return []
        if self.lora_cfg is not None:
            pool = [p for p in self.params if p.startswith("lora/")]
        else:
            pool = list(self.params)
        return sorted(p for p in pool if self._mask.get(p, True))

    def trainable_params(self):
        return {p: self.params[p] for p in self.trainable_paths()}

    def apply_update(self, new_values):
        for p, t in new_values.items():
            self.params[p] = t if isinstance(t, T.Tensor) else T.Tensor(t)

    # -- parameter initialization --------------------------------------------

    def _param_specs(self):
        """Ordered (path, shape, fan_in) triples defined by the architecture."""
        raise NotImplementedError

    def _require_init(self):
        if not self._initialized:
            self.initialize(0)

    def parameter_count(self):
        self._require_init()
        return sum(t.size for t in self.params.values())

    # -- forward -----------------------------------------------------------

    def _effective_weight(self, path):
        W = self.params[path]
        if self.lora_cfg and path in self.lora_cfg["paths"]:
            A = self.params[f"lora/{path}/A"]
            B = self.params[f"lora/{path}/B"]
            scale = self.lora_cfg["alpha"] / self.lora_cfg["rank"]
            W = T.add(W, T.mul(T.Tensor(scale), T.matmul(B, A)))
        return W

    def forward(self, args):
        raise NotImplementedError

    def output_shape(self, arg_shapes):
        raise NotImplementedError


_ACTIVATIONS = {"tanh": T.tanh, "relu": T.relu, "sin": T.sin}


def _check_activation(activation):
    if activation not in _ACTIVATIONS:
        raise BadDimension(f"unknown activation {activation!r}")


def _mlp_specs(prefix, dims):
    specs = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        specs.append((f"{prefix}layers/{i}/weight", (fan_out, fan_in), fan_in))
        specs.append((f"{prefix}layers/{i}/bias", (fan_out,), fan_in))
    return specs


def _mlp_forward(model, prefix, dims, activation, x):
    act = _ACTIVATIONS[activation]
    h = x
    n_layers = len(dims) - 1
    for i in range(n_layers):
        W = model._effective_weight(f"{prefix}layers/{i}/weight")
        b = model.params[f"{prefix}layers/{i}/bias"]
        h = T.add(T.matmul(h, T.transpose(W)), b)
        if i < n_layers - 1:
            h = act(h)
    return h


class MLP(Model):
    """Affine layers with an activation; the last layer stays linear."""

    def __init__(self, in_dim, hidden_dims, out_dim, activation="tanh",
                 name="mlp"):
        dims = [int(in_dim)] + [int(h) for h in hidden_dims] + [int(out_dim)]
        if any(d < 1 for d in dims):
            raise BadDimension(f"all dimensions must be positive, got {dims}")
        _check_activation(activation)
        super().__init__(name)
        self.dims = dims
        self.activation = activation

    def _param_specs(self):
        return _mlp_specs("", self.dims)

    def forward(self, args):
        self.output_shape([x.shape for x in args])
        self._require_init()
        return _mlp_forward(self, "", self.dims, self.activation, args[0])

    def output_shape(self, arg_shapes):
        """The output shape for one input shaped (..., in_dim) of rank at
        least 2, the check `forward` runs too; else InputRankMismatch."""
        if len(arg_shapes) != 1 or len(arg_shapes[0]) < 2 \
                or arg_shapes[0][-1] != self.dims[0]:
            raise InputRankMismatch(
                f"MLP expects one input (..., {self.dims[0]}) of rank at "
                f"least 2, got {arg_shapes}")
        return tuple(arg_shapes[0][:-1]) + (self.dims[-1],)


class DeepONet(Model):
    """Branch/trunk decomposition: out = sum_p branch_p * trunk_p + bias.

    The branch consumes per-sample sensor values (B, T, n_sensors) or
    (B, T, 1, n_sensors); the trunk consumes coordinates (B, T, N, coord_dim).
    The branch result broadcasts over the point axis.
    """

    def __init__(self, n_sensors, coord_dim, basis_functions, hidden_dim,
                 activation="tanh", name="deeponet"):
        for v in (n_sensors, coord_dim, basis_functions, hidden_dim):
            if int(v) < 1:
                raise BadDimension("all DeepONet dimensions must be positive")
        _check_activation(activation)
        super().__init__(name)
        p = int(basis_functions)
        h = int(hidden_dim)
        self.branch_dims = [int(n_sensors), h, h, p]
        self.trunk_dims = [int(coord_dim), h, h, p]
        self.activation = activation

    def _param_specs(self):
        return (
            _mlp_specs("branch/", self.branch_dims)
            + _mlp_specs("trunk/", self.trunk_dims)
            + [("bias", (), 1)]
        )

    def forward(self, args):
        if len(args) != 2:
            raise InputRankMismatch(
                f"DeepONet takes (sensors, coords), got {len(args)} args"
            )
        self._require_init()
        k, x = args
        ks, _ = self._shapes(k.shape, x.shape)
        if ks != k.shape:
            k = T.reshape(k, ks)
        b = _mlp_forward(self, "branch/", self.branch_dims, self.activation, k)
        t = _mlp_forward(self, "trunk/", self.trunk_dims, self.activation, x)
        out = T.reduce_sum(T.mul(b, t), axes=-1, keepdims=True)
        return T.add(out, self.params["bias"])

    def output_shape(self, arg_shapes):
        if len(arg_shapes) != 2:
            raise InputRankMismatch("DeepONet takes (sensors, coords)")
        return self._shapes(*arg_shapes)[1]

    def _shapes(self, ks, xs):
        """The branch input shape of sensors shaped `ks` against coordinates
        shaped `xs` (sensors one axis short gain a point axis) and the
        output shape; InputRankMismatch where `forward` cannot run."""
        ks, xs = tuple(ks), tuple(xs)
        if xs[-1:] != (self.trunk_dims[0],):
            raise InputRankMismatch(
                f"trunk expects (..., {self.trunk_dims[0]}), got {xs}")
        if len(ks) == len(xs) - 1:
            ks = ks[:-1] + (1,) + ks[-1:]
        if ks[-1:] != (self.branch_dims[0],):
            raise InputRankMismatch(
                f"branch expects (..., {self.branch_dims[0]}), got {ks}")
        try:
            lead = np.broadcast_shapes(ks[:-1], xs[:-1])
        except ValueError:
            raise InputRankMismatch(
                f"sensors {ks} and coords {xs} do not broadcast") from None
        return ks, lead + (1,)


def mlp(in_dim, hidden_dims, out_dim, activation="tanh", name="mlp"):
    return MLP(in_dim, hidden_dims, out_dim, activation, name)


def deeponet(n_sensors, coord_dim, basis_functions, hidden_dim,
             activation="tanh", name="deeponet"):
    return DeepONet(n_sensors, coord_dim, basis_functions, hidden_dim,
                    activation, name)
