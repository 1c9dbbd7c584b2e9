import numpy as np
import pytest

from jno import nn
from jno import tensor as T
from jno import trace as tr
from jno.errors import (
    ArityMismatch,
    BadDimension,
    InputRankMismatch,
    InvalidSeed,
    NotAMatrix,
    StateShapeMismatch,
    UnknownPath,
)


def forward_np(model, *arrays):
    out = model.forward([T.Tensor(a) for a in arrays])
    return out.data


class TestArchitectures:
    def test_mlp_parameter_count(self):
        net = nn.mlp(2, [16], 1)
        assert net.parameter_count() == 2 * 16 + 16 + 16 * 1 + 1  # 65

    def test_bad_dims(self):
        with pytest.raises(BadDimension):
            nn.mlp(0, [4], 1)
        with pytest.raises(BadDimension):
            nn.deeponet(1, 2, 0, 4)

    @pytest.mark.parametrize("make", [
        lambda: nn.MLP(2, [4], 1, activation="bogus"),
        lambda: nn.DeepONet(3, 2, 4, 8, activation="bogus"),
    ], ids=["mlp", "deeponet"])
    def test_unknown_activation(self, make):
        with pytest.raises(BadDimension, match="bogus"):
            make()

    @pytest.mark.parametrize("seed", ["ckpt.npz", 1.5, None])
    def test_initialize_needs_an_integer_seed(self, seed):
        net = nn.mlp(2, [4], 1)
        with pytest.raises(InvalidSeed):
            net.initialize(seed)
        assert not net.params
        assert net.initialize(np.int64(3)).parameter_count() == 17

    def test_deeponet_shape_contract(self):
        net = nn.deeponet(1, 2, 32, 128).initialize(0)
        out = forward_np(net, np.ones((5, 1, 1)), np.zeros((5, 1, 9, 2)))
        assert out.shape == (5, 1, 9, 1)

    @pytest.mark.parametrize("coords", [(3, 1, 5, 2), (2, 1, 5, 7)],
                             ids=["lead-mismatch", "trunk-width"])
    def test_deeponet_shapes_and_forward_refuse_alike(self, coords):
        net = nn.deeponet(3, 2, 4, 8).initialize(0)
        k, x = tr.variable("k"), tr.variable("x")
        out = net(k, x)
        sensors = (2, 1, 1, 3)
        with pytest.raises(InputRankMismatch):
            tr.trace_shapes(out, {k: sensors, x: coords})
        with pytest.raises(InputRankMismatch):
            forward_np(net, np.ones(sensors), np.ones(coords))
        good = (2, 1, 5, 2)
        assert tr.trace_shapes(out, {k: sensors, x: good})[out] == \
            forward_np(net, np.ones(sensors), np.ones(good)).shape

    @pytest.mark.parametrize("shape", [(2,), (5, 3)],
                             ids=["rank-1", "width"])
    def test_mlp_shapes_and_forward_refuse_alike(self, shape):
        net = nn.mlp(2, [4], 1).initialize(0)
        x = tr.variable("x")
        out = net(x)
        with pytest.raises(InputRankMismatch):
            tr.trace_shapes(out, {x: shape})
        with pytest.raises(InputRankMismatch):
            forward_np(net, np.ones(shape))
        assert tr.trace_shapes(out, {x: (5, 2)})[out] == \
            forward_np(net, np.ones((5, 2))).shape

    def test_deeponet_zero_branch_is_bias(self):
        net = nn.deeponet(1, 2, 8, 8).initialize(0)
        for p in list(net.params):
            if p.startswith("branch/"):
                net.params[p] = T.zeros(net.params[p].shape)
        net.params["bias"] = T.Tensor(3.25)
        out = forward_np(net, np.ones((2, 1, 1)), np.zeros((2, 1, 4, 2)))
        np.testing.assert_array_equal(out, 3.25)

    def test_same_seed_bitwise(self):
        a = nn.mlp(3, [8, 8], 2).initialize(42)
        b = nn.mlp(3, [8, 8], 2).initialize(42)
        for p in a.params:
            assert a.params[p].data.tobytes() == b.params[p].data.tobytes()

    def test_different_seed_differs(self):
        a = nn.mlp(3, [8], 2).initialize(0)
        b = nn.mlp(3, [8], 2).initialize(1)
        assert a.params["layers/0/weight"].data.tobytes() != \
            b.params["layers/0/weight"].data.tobytes()


class TestControls:
    def _train_step(self, net, x):
        spec = net.opt_spec or nn.adam(1e-2)
        with T.Tape() as tape:
            trainables = net.trainable_params()
            for t in trainables.values():
                tape.watch(t)
            out = net.forward([T.Tensor(x)])
            loss = T.reduce_mse(out)
        grads = tape.gradient(loss, list(trainables.values()))
        gmap = {p: grads[t.uid] for p, t in trainables.items()}
        if net.opt_state is None:
            net.opt_state = nn.OptimizerState(trainables)
        new_params, _ = nn.optimizer_step(spec, net.opt_state, trainables, gmap)
        net.apply_update(new_params)

    def test_freeze_keeps_tree(self):
        net = nn.mlp(2, [8], 1).initialize(0).freeze()
        before = {p: t.data.copy() for p, t in net.params.items()}
        self._train_step(net, np.ones((1, 1, 4, 2)))
        for p in before:
            assert net.params[p].data.tobytes() == before[p].tobytes()

    def test_mask_selects_single_tensor(self):
        net = nn.mlp(2, [8], 1).initialize(0)
        net.mask({p: False for p in net.params})
        net.mask({"layers/0/weight": True})
        before = {p: t.data.copy() for p, t in net.params.items()}
        self._train_step(net, np.ones((1, 1, 4, 2)))
        for p in before:
            same = net.params[p].data.tobytes() == before[p].tobytes()
            assert same == (p != "layers/0/weight")

    def test_unfreeze_restores_mask(self):
        net = nn.mlp(2, [8], 1).initialize(0)
        net.mask({"layers/0/bias": False})
        net.freeze()
        assert net.trainable_paths() == []
        net.unfreeze()
        assert "layers/0/bias" not in net.trainable_paths()
        assert "layers/0/weight" in net.trainable_paths()

    def test_mask_edits_while_frozen_are_kept(self):
        net = nn.mlp(2, [8], 1).initialize(0)
        net.freeze()
        net.mask({"layers/0/bias": False})
        net.unfreeze()
        assert "layers/0/bias" not in net.trainable_paths()
        assert "layers/0/weight" in net.trainable_paths()

    def test_unknown_mask_path(self):
        net = nn.mlp(2, [8], 1).initialize(0)
        with pytest.raises(UnknownPath):
            net.mask({"nope": True})


class TestLora:
    def test_transparency_bitwise(self):
        x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 5, 2))
        net = nn.mlp(2, [16], 1).initialize(7)
        before = forward_np(net, x)
        net.lora(rank=4, alpha=8)
        after = forward_np(net, x)
        assert before.tobytes() == after.tobytes()

    def test_restriction_to_adapters(self):
        net = nn.mlp(2, [16], 1).initialize(7).lora(rank=4, alpha=8)
        trainable = net.trainable_paths()
        assert trainable and all(p.startswith("lora/") for p in trainable)

    def test_base_untouched_after_training(self):
        net = nn.mlp(2, [16], 1).initialize(7).lora(rank=4, alpha=8)
        base_before = {
            p: t.data.copy() for p, t in net.params.items()
            if not p.startswith("lora/")
        }
        x = np.random.default_rng(1).uniform(-1, 1, (1, 1, 6, 2))
        TestControls()._train_step(net, x)
        for p, arr in base_before.items():
            assert net.params[p].data.tobytes() == arr.tobytes()
        # an adapter B did change
        changed = any(
            net.params[p].data.any() for p in net.params
            if p.startswith("lora/") and p.endswith("/B")
        )
        assert changed

    def test_adapter_count(self):
        net = nn.mlp(128, [], 128).initialize(0)  # single 128x128 weight
        n_before = net.parameter_count()
        net.lora(rank=4, alpha=8, paths=["layers/0/weight"])
        added = net.parameter_count() - n_before
        assert added == 2 * 4 * 128  # 1024

    def test_non_matrix_rejected(self):
        net = nn.mlp(2, [8], 1).initialize(0)
        with pytest.raises(NotAMatrix):
            net.lora(rank=2, alpha=4, paths=["layers/0/bias"])


class TestOptimizers:
    def test_adam_first_step(self):
        spec = nn.adam(0.1)
        params = {"w": T.Tensor(0.0)}
        state = nn.OptimizerState(params)
        new, _ = nn.optimizer_step(spec, state, params,
                                   {"w": T.Tensor(1.0)})
        assert new["w"].item() == pytest.approx(-0.1, abs=1e-7)

    def test_sgd(self):
        spec = nn.sgd(0.5)
        params = {"w": T.Tensor(2.0)}
        state = nn.OptimizerState(params)
        new, _ = nn.optimizer_step(spec, state, params, {"w": T.Tensor(2.0)})
        assert new["w"].item() == 1.0

    def test_adamw_decay(self):
        spec = nn.adamw(0.1, weight_decay=0.5)
        params = {"w": T.Tensor(1.0)}
        state = nn.OptimizerState(params)
        new, _ = nn.optimizer_step(spec, state, params, {"w": T.Tensor(0.0)})
        # zero grad: only the decoupled decay applies
        assert new["w"].item() == pytest.approx(1.0 - 0.1 * 0.5)

    def test_state_shape_mismatch(self):
        spec = nn.adam(0.1)
        params = {"w": T.Tensor([1.0, 2.0])}
        state = nn.OptimizerState(params)
        with pytest.raises(StateShapeMismatch):
            nn.optimizer_step(spec, state, params, {"w": T.Tensor([1.0])})

    def test_unknown_kind(self):
        with pytest.raises(ArityMismatch, match="bogus"):
            nn.OptimizerSpec("bogus", 1e-3)

    def test_determinism(self):
        def run():
            spec = nn.adam(1e-3)
            params = {"w": T.Tensor(np.linspace(-1, 1, 5))}
            state = nn.OptimizerState(params)
            for s in range(10):
                g = {"w": T.Tensor(np.sin(np.linspace(0, 1, 5) + s))}
                params, state = nn.optimizer_step(spec, state, params, g)
            return params["w"].data.tobytes()

        assert run() == run()

    def test_group_override_longest_prefix(self):
        spec = nn.adam(1e-3, group_overrides={
            "layers": {"learning_rate": 1e-2},
            "layers/0": {"learning_rate": 1e-1},
        })
        assert spec.hyper_for("layers/0/weight", 0)["lr"] == 1e-1
        assert spec.hyper_for("layers/1/weight", 0)["lr"] == 1e-2
        assert spec.hyper_for("bias", 0)["lr"] == 1e-3


class TestSchedules:
    def test_constant(self):
        sched = nn.constant_schedule(3e-4)
        assert [sched.value(s) for s in (0, 1, 10_000)] == [3e-4] * 3
        spec = nn.adam(sched)
        assert spec.hyper_for("w", 7)["lr"] == 3e-4

    def test_cosine_endpoints_listing_values(self):
        sched = nn.cosine_decay_schedule(init_value=1e-3, decay_steps=10_000,
                                         alpha=1e-5)
        assert sched.value(0) == pytest.approx(1e-3, rel=1e-12)
        assert sched.value(10_000) == pytest.approx(1e-8, rel=1e-12)

    def test_cosine_monotone(self):
        sched = nn.cosine_decay_schedule(1e-3, 100, alpha=0.0)
        values = [sched.value(s) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("steps", [0, -5, 2.5, float("inf")])
    def test_cosine_needs_a_decay_step(self, steps):
        with pytest.raises(BadDimension, match="decay_steps"):
            nn.cosine_decay_schedule(1e-3, steps)

    def test_clamps_after_decay(self):
        sched = nn.cosine_decay_schedule(1e-3, 100, alpha=0.1)
        assert sched.value(1000) == sched.value(100)
