import copy
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocons.errors import ContractError, StructuralError
from emocons.nn import (
    CHECKPOINT_VERSION,
    DenseLayer,
    Network,
    OptimConfig,
    adam_step,
    backward,
    clip_gradients,
    forward,
    init_network,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    zero_grads,
)
from emocons.rng import substream


def small_net(seed=0, dims=(3, 5, 2), acts=("tanh", "linear")):
    return init_network(dims, acts, substream(seed, "t"))


class TestInit:
    def test_shapes_and_bounds(self):
        net = small_net()
        assert [l.weights.shape for l in net.layers] == [(5, 3), (2, 5)]
        assert [l.bias.shape for l in net.layers] == [(5,), (2,)]
        for l in net.layers:
            fan_in, fan_out = l.weights.shape[1], l.weights.shape[0]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(l.weights) <= limit)
            assert np.all(l.bias == 0.0)
            assert l.trainable

    def test_layer_takes_parameters_only(self):
        assert list(inspect.signature(DenseLayer).parameters) == [
            "weights", "bias", "activation", "trainable"
        ]
        layer = DenseLayer([[1.0, 2.0]], [0.5], "linear")
        for name in ("grad_w", "m_w", "v_w"):
            np.testing.assert_array_equal(getattr(layer, name), np.zeros((1, 2)))
        for name in ("grad_b", "m_b", "v_b"):
            np.testing.assert_array_equal(getattr(layer, name), np.zeros(1))

    def test_deterministic_given_stream(self):
        a, b = small_net(7), small_net(7)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_different_streams_differ(self):
        a, b = small_net(7), small_net(8)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError):
            init_network((3,), (), substream(0, "t"))
        with pytest.raises(ContractError):
            init_network((3, 4), ("tanh", "tanh"), substream(0, "t"))
        with pytest.raises(ContractError):
            init_network((3, 4), ("sigmoid",), substream(0, "t"))

    def test_network_refuses_layers_that_do_not_chain(self):
        with pytest.raises(ContractError, match="at least one layer"):
            Network(layers=[])
        hidden = DenseLayer(np.zeros((3, 2)), np.zeros(3), "tanh")
        head = DenseLayer(np.zeros((1, 4)), np.zeros(1), "linear")
        with pytest.raises(ContractError, match="layer 1 takes 4 inputs, layer 0 gives 3"):
            Network(layers=[hidden, head])
        net = Network(layers=[hidden, DenseLayer(np.zeros((2, 3)), np.zeros(2), "linear")])
        assert (net.in_dim, net.out_dim) == (2, 2)


class TestForward:
    def test_linear_layer_is_affine(self):
        net = small_net(dims=(3, 2), acts=("linear",))
        net.layers[0].weights[:] = [[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]]
        net.layers[0].bias[:] = [0.1, -0.2]
        x = np.array([[1.0, 2.0, 3.0]])
        y = forward(net, x)
        np.testing.assert_allclose(y, [[1 - 3 + 0.1, 0.5 + 4 - 0.2]])

    def test_tanh_and_relu_match_numpy(self):
        for act, ref in (("tanh", np.tanh), ("relu", lambda z: np.maximum(z, 0.0))):
            net = small_net(dims=(4, 3), acts=(act,))
            x = np.linspace(-2, 2, 8).reshape(2, 4)
            z = x @ net.layers[0].weights.T + net.layers[0].bias
            np.testing.assert_allclose(forward(net, x), ref(z))

    def test_wrong_input_width_rejected(self):
        net = small_net()
        with pytest.raises(ContractError):
            forward(net, np.zeros((4, 7)))


def loss_and_grad(net, x):
    """Sum-of-squares loss on the output; returns (loss, dloss/dy)."""
    y = forward(net, x)
    return float(np.sum(y * y)), 2.0 * y


def numeric_param_grads(net, x, h=1e-6):
    """Central differences of the sum-of-squares loss wrt every parameter."""
    out = []
    for l in net.layers:
        gw = np.zeros_like(l.weights)
        for idx in np.ndindex(*l.weights.shape):
            orig = l.weights[idx]
            l.weights[idx] = orig + h
            up, _ = loss_and_grad(net, x)
            l.weights[idx] = orig - h
            dn, _ = loss_and_grad(net, x)
            l.weights[idx] = orig
            gw[idx] = (up - dn) / (2 * h)
        gb = np.zeros_like(l.bias)
        for idx in np.ndindex(*l.bias.shape):
            orig = l.bias[idx]
            l.bias[idx] = orig + h
            up, _ = loss_and_grad(net, x)
            l.bias[idx] = orig - h
            dn, _ = loss_and_grad(net, x)
            l.bias[idx] = orig
            gb[idx] = (up - dn) / (2 * h)
        out.append((gw, gb))
    return out


class TestBackward:
    def test_param_grads_match_central_differences(self):
        net = init_network((3, 5, 4, 2), ("tanh", "relu", "linear"), substream(3, "t"))
        x = substream(4, "x").normal(size=(6, 3))
        _, dy = loss_and_grad(net, x)
        zero_grads(net)
        backward(net, dy)
        numeric = numeric_param_grads(net, x)
        for l, (gw, gb) in zip(net.layers, numeric):
            np.testing.assert_allclose(l.grad_w, gw, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(l.grad_b, gb, rtol=1e-5, atol=1e-7)

    def test_input_grad_matches_central_differences(self):
        net = small_net(5)
        x = substream(6, "x").normal(size=(4, 3))
        _, dy = loss_and_grad(net, x)
        zero_grads(net)
        dx = backward(net, dy)
        h = 1e-6
        num = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            num[idx] = (loss_and_grad(net, xp)[0] - loss_and_grad(net, xm)[0]) / (2 * h)
        np.testing.assert_allclose(dx, num, rtol=1e-5, atol=1e-7)

    def test_grads_accumulate_across_calls(self):
        net = small_net(9)
        x1 = substream(10, "a").normal(size=(4, 3))
        x2 = substream(10, "b").normal(size=(4, 3))
        zero_grads(net)
        backward(net, loss_and_grad(net, x1)[1])
        g1 = [l.grad_w.copy() for l in net.layers]
        zero_grads(net)
        backward(net, loss_and_grad(net, x2)[1])
        g2 = [l.grad_w.copy() for l in net.layers]
        zero_grads(net)
        backward(net, loss_and_grad(net, x1)[1])
        # stale cache from x1 must not leak into the x2 backward pass
        forward(net, x2)
        backward(net, 2.0 * net.layers[-1].cache_a)
        for l, a, b in zip(net.layers, g1, g2):
            np.testing.assert_allclose(l.grad_w, a + b, rtol=1e-12)

    def test_frozen_layer_blocks_updates_not_gradient_flow(self):
        net = init_network((3, 5, 2), ("tanh", "linear"), substream(11, "t"))
        net.layers[0].trainable = False
        x = substream(12, "x").normal(size=(4, 3))
        zero_grads(net)
        backward(net, loss_and_grad(net, x)[1])
        assert np.all(net.layers[0].grad_w == 0.0)
        assert np.all(net.layers[0].grad_b == 0.0)
        assert not np.all(net.layers[1].grad_w == 0.0)
        w0 = net.layers[0].weights.copy()
        adam_step(net, lr=1e-2)
        np.testing.assert_array_equal(net.layers[0].weights, w0)

    def test_backward_before_forward_rejected(self):
        net = small_net()
        with pytest.raises(ContractError):
            backward(net, np.zeros((4, 2)))

    def test_skipping_the_input_gradient_keeps_parameter_grads(self):
        net = small_net(13)
        x = substream(14, "x").normal(size=(4, 3))
        _, dy = loss_and_grad(net, x)
        zero_grads(net)
        assert backward(net, dy) is not None
        full = [(l.grad_w.copy(), l.grad_b.copy()) for l in net.layers]
        zero_grads(net)
        assert backward(net, dy, input_grad=False) is None
        for l, (gw, gb) in zip(net.layers, full):
            np.testing.assert_array_equal(l.grad_w, gw)
            np.testing.assert_array_equal(l.grad_b, gb)


def naive_pass(net, x, dy):
    """Forward and backward written out as the textbook formulas, in the
    dtype of ``x`` with the parameters cast to it."""
    xs, acts = [x], []
    for l in net.layers:
        z = xs[-1] @ l.weights.astype(x.dtype).T + l.bias.astype(x.dtype)
        a = np.tanh(z) if l.activation == "tanh" else z
        acts.append(a)
        xs.append(a)
    grads = []
    for l, xin, a in reversed(list(zip(net.layers, xs, acts))):
        dz = dy * (1 - a * a) if l.activation == "tanh" else dy
        # the column sum as a product with ones, the order BLAS sums in
        grads.append((dz.T @ xin, np.ones(len(dz), dz.dtype) @ dz))
        dy = dz @ l.weights.astype(x.dtype)
    return acts[-1], grads[::-1], dy


def assert_matches_naive_pass(acts, dims=(4, 6, 5, 2), dtype=np.float64):
    net = init_network(dims, acts, substream(15, "t"))
    x = substream(16, "x").normal(size=(7, dims[0])).astype(dtype)
    dy = substream(16, "dy").normal(size=(7, dims[-1])).astype(dtype)
    y_ref, grads_ref, dx_ref = naive_pass(net, x, dy)
    zero_grads(net)
    np.testing.assert_array_equal(forward(net, x), y_ref)
    np.testing.assert_array_equal(backward(net, dy), dx_ref)
    for l, (gw, gb) in zip(net.layers, grads_ref):
        np.testing.assert_array_equal(l.grad_w, gw)
        np.testing.assert_array_equal(l.grad_b, gb)


class TestPrecision:
    def test_float64_pass_equals_the_naive_formulas_bitwise(self):
        assert_matches_naive_pass(("tanh", "tanh", "linear"))

    def test_hidden_linear_layer_equals_the_naive_formulas_bitwise(self):
        # its gradient is passed down through the buffer it was read from
        assert_matches_naive_pass(("tanh", "linear", "tanh"))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "dims, acts",
        [
            ((4, 6, 1), ("tanh", "tanh")),
            ((4, 6, 1), ("tanh", "linear")),
            ((4, 6, 1, 2), ("tanh", "tanh", "linear")),
            # the one-output layer's gradient is read from the buffer it writes
            ((4, 6, 1, 2), ("tanh", "linear", "tanh")),
            ((4, 1, 3), ("linear", "tanh")),
        ],
    )
    def test_one_output_layers_equal_the_naive_formulas_bitwise(self, dims, acts, dtype):
        # a one-output layer passes its gradient down as an outer product
        assert_matches_naive_pass(acts, dims, dtype)

    @pytest.mark.parametrize("acts", [("tanh", "linear"), ("relu", "tanh")])
    def test_float32_computes_in_float32_into_float64_grads(self, acts):
        net = init_network((3, 16, 2), acts, substream(17, "t"))
        x = substream(18, "x").normal(size=(64, 3))
        dy = substream(18, "dy").normal(size=(64, 2))
        zero_grads(net)
        y64 = forward(net, x)
        dx64 = backward(net, dy)
        ref = [(l.grad_w.copy(), l.grad_b.copy()) for l in net.layers]
        zero_grads(net)
        y32 = forward(net, x.astype(np.float32))
        assert [l.cache_a.dtype for l in net.layers] == [np.float32, np.float32]
        assert y32.dtype == np.float32
        dx32 = backward(net, dy)
        assert dx32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(dx32, dx64, rtol=1e-4, atol=1e-6)
        for l, (gw, gb) in zip(net.layers, ref):
            assert l.weights.dtype == l.grad_w.dtype == l.grad_b.dtype == np.float64
            # relative to the gradient's scale: a near-zero entry has no
            # relative accuracy of its own
            assert np.max(np.abs(l.grad_w - gw)) <= 1e-4 * np.max(np.abs(gw))
            assert np.max(np.abs(l.grad_b - gb)) <= 1e-4 * np.max(np.abs(gb))

    def test_other_dtypes_compute_in_float64(self):
        net = small_net(19)
        ints = np.arange(6).reshape(2, 3)
        assert forward(net, ints).dtype == np.float64
        np.testing.assert_array_equal(forward(net, ints), forward(net, ints.astype(np.float64)))
        assert forward(net, ints.astype(np.float16)).dtype == np.float64

    @pytest.mark.parametrize("acts", [("linear",), ("tanh", "linear"), ("relu",)])
    def test_forward_results_never_alias(self, acts):
        net = init_network((3,) * len(acts) + (3,), acts, substream(20, "t"))
        x = substream(21, "x").normal(size=(4, 3))
        first = forward(net, x)
        second = forward(net, x)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)
        np.testing.assert_array_equal(first, second)


def rebuilt(net):
    """A net with ``net``'s parameters and none of its caches or buffers."""
    return Network(
        layers=[DenseLayer(l.weights, l.bias, l.activation, l.trainable) for l in net.layers]
    )


def buffers(net):
    return list(net._work.values())


class TestWorkBuffers:
    def make(self):
        return init_network(
            (10, 64, 32, 16, 2), ("tanh", "relu", "linear", "tanh"), substream(30, "t")
        )

    def test_interleaved_shapes_and_dtypes_match_a_fresh_net_bitwise(self):
        net = self.make()
        rng = substream(31, "x")
        for rows in (4000, 750, 4000):
            x = rng.normal(size=(rows, 10)).astype(np.float32)
            dy = rng.normal(size=(rows, 2)).astype(np.float32)
            fresh = rebuilt(net)
            zero_grads(net)
            np.testing.assert_array_equal(forward(net, x), forward(fresh, x))
            np.testing.assert_array_equal(backward(net, dy), backward(fresh, dy))
            for l, l_ref in zip(net.layers, fresh.layers):
                np.testing.assert_array_equal(l.grad_w, l_ref.grad_w)
                np.testing.assert_array_equal(l.grad_b, l_ref.grad_b)
            optimizer_step(net, OptimConfig(learning_rate=1e-2))
            # a float64 pass between float32 steps, as validation runs between epochs
            val = rng.normal(size=(1500, 10))
            np.testing.assert_array_equal(forward(net, val), forward(rebuilt(net), val))
        # the bias gradients' ones vector is read, never written
        np.testing.assert_array_equal(net._work["ones", np.dtype(np.float32)], 1.0)

    def test_same_shape_forwards_share_hidden_caches(self):
        net = self.make()
        x = substream(32, "x").normal(size=(40, 10))
        forward(net, x)
        first = [l.cache_a for l in net.layers]
        forward(net, x[:25])
        for l, a in zip(net.layers[:-1], first):
            assert np.shares_memory(l.cache_a, a)
        assert not np.shares_memory(net.layers[-1].cache_a, first[-1])

    def test_returned_arrays_alias_nothing(self):
        net = self.make()
        rng = substream(33, "x")
        returned = []
        for rows in (40, 40, 25):
            returned.append(forward(net, rng.normal(size=(rows, 10))))
            returned.append(backward(net, rng.normal(size=(rows, 2))))
        for i, a in enumerate(returned):
            for b in returned[i + 1 :] + buffers(net):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bias_gradient_is_the_column_sum_to_summation_accuracy(self, dtype):
        # a linear layer's dz is dy itself; a large common offset makes the
        # rounding of a running sum show
        rows = 4000
        net = init_network((3, 64), ("linear",), substream(36, "t"))
        rng = substream(36, "x")
        dy = (1e4 + rng.normal(size=(rows, 64))).astype(dtype)
        forward(net, rng.normal(size=(rows, 3)).astype(dtype))
        backward(net, dy, input_grad=False)
        cols = dy.astype(np.float64).T
        exact = np.array([math.fsum(c) for c in cols])
        bound = rows * np.finfo(dtype).eps * np.abs(cols).sum(axis=1)
        assert np.all(np.abs(net.layers[0].grad_b - exact) <= bound)

    def test_checkpoint_bytes_ignore_the_buffers(self, tmp_path):
        net = self.make()
        rng = substream(34, "x")
        for rows in (64, 32):
            forward(net, rng.normal(size=(rows, 10)).astype(np.float32))
            backward(net, rng.normal(size=(rows, 2)))
            optimizer_step(net, OptimConfig())
        assert buffers(net)
        save_checkpoint(tmp_path / "trained.json", {"n": net}, {})
        save_checkpoint(tmp_path / "rebuilt.json", {"n": rebuilt(net)}, {})
        assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "rebuilt.json").read_bytes()


LAYER_STATE = ("weights", "bias", "grad_w", "grad_b", "m_w", "v_w", "m_b", "v_b")


def layer_state(net):
    """Copies of every layer's parameter state, layer by layer."""
    return [{name: getattr(l, name).copy() for name in LAYER_STATE} for l in net.layers]


def reference_optimizer_step(state, trainable, step, cfg):
    """The optimizer step written per layer and per array, on ``layer_state``
    copies; returns the new step count."""
    total = math.fsum(
        float(np.sum(s["grad_w"] * s["grad_w"])) + float(np.sum(s["grad_b"] * s["grad_b"]))
        for s in state
    )
    norm = math.sqrt(total)
    if norm > cfg.grad_clip_norm:
        for s in state:
            s["grad_w"] *= cfg.grad_clip_norm / norm
            s["grad_b"] *= cfg.grad_clip_norm / norm
    step += 1
    c1 = 1.0 - cfg.beta1**step
    c2 = 1.0 - cfg.beta2**step
    for s, train in zip(state, trainable):
        if not train:
            continue
        for p, g, m, v in (("weights", "grad_w", "m_w", "v_w"), ("bias", "grad_b", "m_b", "v_b")):
            s[m] = cfg.beta1 * s[m] + (1.0 - cfg.beta1) * s[g]
            s[v] = cfg.beta2 * s[v] + (1.0 - cfg.beta2) * s[g] * s[g]
            s[p] = s[p] - cfg.learning_rate * (s[m] / c1) / (np.sqrt(s[v] / c2) + cfg.eps)
    for s in state:
        s["grad_w"] = np.zeros_like(s["grad_w"])
        s["grad_b"] = np.zeros_like(s["grad_b"])
    return step


def assert_state_equal(net, state):
    for l, s in zip(net.layers, state):
        for name in LAYER_STATE:
            np.testing.assert_array_equal(getattr(l, name), s[name], err_msg=name)


def train_steps(net, seed, steps=3, rows=6, cfg=OptimConfig(learning_rate=1e-2)):
    rng = substream(seed, "steps")
    for _ in range(steps):
        y = forward(net, rng.normal(size=(rows, net.in_dim)))
        backward(net, y + rng.normal(size=y.shape))
        optimizer_step(net, cfg)


class TestFlatState:
    def test_layer_fields_are_views_of_the_network_vectors(self):
        net = init_network((3, 5, 4, 2), ("tanh", "relu", "linear"), substream(40, "t"))
        for vec, pair in (
            (net._param, ("weights", "bias")),
            (net._grad, ("grad_w", "grad_b")),
            (net._m, ("m_w", "m_b")),
            (net._v, ("v_w", "v_b")),
        ):
            assert vec.dtype == np.float64 and vec.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
            parts = [getattr(l, name) for l in net.layers for name in pair]
            assert all(np.shares_memory(p, vec) for p in parts)
            np.testing.assert_array_equal(np.concatenate([p.ravel() for p in parts]), vec)

    @given(
        seed=st.integers(0, 2**32 - 1),
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        frozen=st.lists(st.booleans(), min_size=4, max_size=4),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        clip=st.sampled_from([0.5, 5.0]),
        steps=st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_adam_equals_the_per_layer_reference_bitwise(
        self, seed, widths, frozen, scale, clip, steps
    ):
        acts = ("tanh",) * (len(widths) - 1)
        net = init_network(widths, acts, substream(seed, "t"))
        for l, f in zip(net.layers, frozen):
            l.trainable = not f
        trainable = [l.trainable for l in net.layers]
        cfg = OptimConfig(learning_rate=1e-2, grad_clip_norm=clip)
        state, step = layer_state(net), 0
        rng = substream(seed, "g")
        for _ in range(steps):
            for l, s in zip(net.layers, state):
                if l.trainable:  # backward accumulates into trainable layers only
                    for name in ("grad_w", "grad_b"):
                        g = rng.normal(scale=scale, size=s[name].shape)
                        getattr(l, name)[...] += g
                        s[name] += g
            optimizer_step(net, cfg)
            step = reference_optimizer_step(state, trainable, step, cfg)
            assert_state_equal(net, state)
        assert net.step == step

    def test_frozen_middle_layer_is_never_touched(self):
        net = init_network((3, 5, 4, 2), ("tanh", "tanh", "linear"), substream(41, "t"))
        train_steps(net, 41)
        net.layers[1].trainable = False
        before = layer_state(net)
        train_steps(net, 42)
        after = layer_state(net)
        for name in ("weights", "bias", "m_w", "v_w", "m_b", "v_b"):
            np.testing.assert_array_equal(after[1][name], before[1][name])
            for i in (0, 2):
                assert not np.array_equal(after[i][name], before[i][name])

    def test_frozen_net_with_moments_is_never_touched(self):
        net = init_network((3, 4, 1), ("tanh", "tanh"), substream(43, "t"))
        train_steps(net, 43)
        frozen = copy.deepcopy(net)
        for l in frozen.layers:
            l.trainable = False
        before = layer_state(frozen)
        assert all(np.any(s["m_w"] != 0.0) and np.any(s["v_w"] != 0.0) for s in before)
        train_steps(frozen, 44)
        assert_state_equal(frozen, before)

    def test_deep_copy_trains_on_its_own_vectors(self):
        net = init_network((3, 5, 2), ("tanh", "linear"), substream(45, "t"))
        train_steps(net, 45)
        original = layer_state(net)
        twin = copy.deepcopy(net)
        assert twin.step == net.step
        assert_state_equal(twin, original)
        train_steps(twin, 46)
        assert_state_equal(net, original)
        x = substream(47, "x").normal(size=(4, 3))
        # the twin's passes read the weights its optimizer moved
        for l, s in zip(twin.layers, original):
            assert not np.array_equal(l.weights, s["weights"])
            assert np.shares_memory(l.weights, twin._param)
        np.testing.assert_array_equal(forward(twin, x), forward(rebuilt(twin), x))
        assert not np.array_equal(forward(twin, x), forward(net, x))

    def test_shallow_copy_trains_on_its_own_vectors(self):
        net = init_network((3, 5, 2), ("tanh", "linear"), substream(48, "t"))
        train_steps(net, 48)
        original = layer_state(net)
        twin = copy.copy(net)
        train_steps(twin, 49)
        assert_state_equal(net, original)
        assert twin.step == net.step + 3
        assert not np.shares_memory(twin._param, net._param)


class TestOptimizer:
    def test_adam_matches_reference_on_scalar(self):
        # y = w*x + b with x=1, loss = y^2; both parameters share the gradient 2y
        net = init_network((1, 1), ("linear",), substream(13, "t"))
        net.layers[0].weights[:] = [[0.5]]
        net.layers[0].bias[:] = [0.1]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        ref = {"w": 0.5, "b": 0.1}
        m = {"w": 0.0, "b": 0.0}
        v = {"w": 0.0, "b": 0.0}
        for t in range(1, 5):
            x = np.array([[1.0]])
            y = forward(net, x)
            zero_grads(net)
            backward(net, 2.0 * y)
            g = 2.0 * (ref["w"] + ref["b"])
            adam_step(net, lr=lr, beta1=b1, beta2=b2, eps=eps)
            for k in ref:
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1**t)
                vhat = v[k] / (1 - b2**t)
                ref[k] -= lr * mhat / (math.sqrt(vhat) + eps)
        np.testing.assert_allclose(net.layers[0].weights[0, 0], ref["w"], rtol=1e-12)
        np.testing.assert_allclose(net.layers[0].bias[0], ref["b"], rtol=1e-12)

    def test_zero_grad_step_leaves_weights_bitwise_unchanged(self):
        net = small_net(14)
        before = [l.weights.copy() for l in net.layers]
        for _ in range(5):
            zero_grads(net)
            adam_step(net, lr=1e-3)
        for l, w in zip(net.layers, before):
            np.testing.assert_array_equal(l.weights, w)

    def test_clip_rescales_to_max_norm(self):
        net = small_net(15)
        zero_grads(net)
        for l in net.layers:
            l.grad_w[:] = 10.0
            l.grad_b[:] = -10.0
        raw = math.sqrt(sum(float(np.sum(l.grad_w**2) + np.sum(l.grad_b**2)) for l in net.layers))
        norm = clip_gradients(net, 5.0)
        assert norm == pytest.approx(raw)
        clipped = math.sqrt(
            sum(float(np.sum(l.grad_w**2) + np.sum(l.grad_b**2)) for l in net.layers)
        )
        assert clipped == pytest.approx(5.0)

    def test_clip_survives_squares_that_overflow(self):
        net = init_network((2, 1), ("linear",), substream(16, "t"))
        zero_grads(net)
        net.layers[0].grad_w[:] = 1e160
        with np.errstate(over="ignore"):
            norm = clip_gradients(net, 5.0)
        assert math.isfinite(norm)
        assert norm == pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-15)
        np.testing.assert_allclose(net.layers[0].grad_w, [[5.0 / math.sqrt(2.0)] * 2], rtol=1e-15)
        assert np.all(net.layers[0].grad_b == 0.0)

    def test_clip_below_threshold_is_identity(self):
        net = small_net(16)
        zero_grads(net)
        for l in net.layers:
            l.grad_w[:] = 1e-3
        g0 = [l.grad_w.copy() for l in net.layers]
        clip_gradients(net, 5.0)
        for l, g in zip(net.layers, g0):
            np.testing.assert_array_equal(l.grad_w, g)

    def test_optim_config_defaults_and_validation(self):
        cfg = OptimConfig()
        assert cfg.learning_rate == 5e-4
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.eps == 1e-8
        assert cfg.grad_clip_norm == 5.0
        with pytest.raises(ContractError):
            OptimConfig(learning_rate=0.0)
        with pytest.raises(ContractError):
            OptimConfig(beta1=1.0)
        with pytest.raises(ContractError):
            OptimConfig(grad_clip_norm=-1.0)

    def test_first_step_moves_by_learning_rate(self):
        # with a unit gradient, the bias-corrected first update is lr/(1+eps)
        net = init_network((1, 1), ("linear",), substream(18, "t"))
        net.layers[0].weights[:] = [[0.3]]
        zero_grads(net)
        net.layers[0].grad_w[:] = 1.0
        optimizer_step(net, OptimConfig(learning_rate=1e-3))
        assert net.layers[0].weights[0, 0] == pytest.approx(0.3 - 1e-3, abs=1e-9)

    def test_optimizer_step_zeroes_grads(self):
        net = small_net(19)
        zero_grads(net)
        for l in net.layers:
            l.grad_w[:] = 0.5
        optimizer_step(net, OptimConfig())
        for l in net.layers:
            assert np.all(l.grad_w == 0.0)
            assert np.all(l.grad_b == 0.0)

    def test_nonfinite_gradient_aborts_naming_layer(self):
        net = small_net(19)
        zero_grads(net)
        net.layers[1].grad_w[0, 0] = float("nan")
        with pytest.raises(ContractError, match="layer 1"):
            optimizer_step(net, OptimConfig())

    def test_clip_via_config_scales_update_input(self):
        # global norm 10 with clip 1 must scale the applied gradients by 0.1
        net = init_network((1, 1), ("linear",), substream(18, "t"))
        net.layers[0].weights[:] = [[0.0]]
        zero_grads(net)
        net.layers[0].grad_w[:] = 6.0
        net.layers[0].grad_b[:] = 8.0
        optimizer_step(net, OptimConfig(learning_rate=1e-3, grad_clip_norm=1.0))
        # after clipping, grad_w = 0.6 and grad_b = 0.8; first Adam step then
        # moves each parameter by lr regardless of magnitude, so check moments
        assert net.layers[0].m_w[0, 0] == pytest.approx(0.06)
        assert net.layers[0].m_b[0] == pytest.approx(0.08)

    def test_overfits_tiny_regression(self):
        rng = substream(17, "data")
        x = rng.normal(size=(32, 3))
        target = np.tanh(x @ np.array([[0.7], [-1.2], [0.3]]))
        net = init_network((3, 16, 1), ("tanh", "linear"), substream(17, "init"))
        first = None
        for _ in range(400):
            y = forward(net, x)
            loss = float(np.mean((y - target) ** 2))
            if first is None:
                first = loss
            zero_grads(net)
            backward(net, 2.0 * (y - target) / x.shape[0])
            clip_gradients(net, 5.0)
            adam_step(net, lr=1e-2)
        assert loss < first / 100.0


class TestCheckpoint:
    def make(self):
        net = init_network((3, 4, 1), ("relu", "linear"), substream(20, "t"))
        x = substream(21, "x").normal(size=(5, 3))
        for _ in range(3):
            y = forward(net, x)
            zero_grads(net)
            backward(net, 2.0 * y)
            adam_step(net, lr=1e-3)
        return net

    def test_roundtrip_is_lossless(self, tmp_path):
        net = self.make()
        other = init_network((2, 2), ("tanh",), substream(22, "t"))
        p = tmp_path / "ck.json"
        save_checkpoint(p, {"predictor": net, "acn": other}, meta={"seed": 5})
        loaded, meta = load_checkpoint(p)
        assert meta == {"seed": 5}
        assert set(loaded) == {"predictor", "acn"}
        got = loaded["predictor"]
        for la, lb in zip(got.layers, net.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
            assert la.trainable == lb.trainable

    def test_file_holds_weights_only(self, tmp_path):
        p = tmp_path / "ck.json"
        save_checkpoint(p, {"n": self.make()}, meta={})
        doc = json.loads(p.read_text())
        assert doc["version"] == CHECKPOINT_VERSION == 2
        (entry,) = doc["networks"].values()
        assert set(entry) == {"layers"}
        for layer in entry["layers"]:
            assert set(layer) == {"activation", "trainable", "weights", "bias"}

    def test_unknown_version_rejected(self, tmp_path):
        net = self.make()
        p = tmp_path / "ck.json"
        save_checkpoint(p, {"n": net}, meta={})
        current = f'"version": {CHECKPOINT_VERSION}'
        assert current in p.read_text()
        p.write_text(p.read_text().replace(current, '"version": 99'))
        with pytest.raises(StructuralError, match="unsupported version 99"):
            load_checkpoint(p)

    def test_v1_file_with_optimizer_state_rejected(self, tmp_path):
        layer = {
            "activation": "linear", "trainable": True,
            "weights": [[1.0, 2.0]], "bias": [0.0],
            "m_w": [[0.0, 0.0]], "v_w": [[0.0, 0.0]], "m_b": [0.0], "v_b": [0.0],
        }
        doc = {
            "format": "emocons-checkpoint", "version": 1, "meta": {},
            "networks": {"predictor": {"step": 3, "layers": [layer]}},
        }
        p = tmp_path / "ck.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(StructuralError, match="unsupported version 1"):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", [[1.0, 2.0], [3.0]]),
            ("weights", [["a", "b"]]),
            ("weights", None),
            ("bias", [0.0, 0.0]),
            ("bias", ...),  # key missing
            ("activation", "softmax"),
            ("trainable", "false"),
            ("trainable", 0),
            ("activation", 1),
            ("m_w", [[0.0, 0.0]]),  # optimizer state is not part of a layer
        ],
    )
    def test_malformed_layer_names_the_file(self, tmp_path, field, value):
        p = tmp_path / "ck.json"
        save_checkpoint(p, {"n": init_network((2, 1), ("linear",), substream(24, "t"))}, {})
        doc = json.loads(p.read_text())
        layer = doc["networks"]["n"]["layers"][0]
        if value is ...:
            del layer[field]
        else:
            layer[field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(StructuralError, match="ck.json: malformed checkpoint"):
            load_checkpoint(p)

    def test_missing_file_is_structural(self, tmp_path):
        with pytest.raises(StructuralError, match="ck.json: cannot read checkpoint"):
            load_checkpoint(tmp_path / "ck.json")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "ck.json"
        p.write_text('{"hello": "world"}')
        with pytest.raises(StructuralError):
            load_checkpoint(p)
