import math

import numpy as np
import pytest

from emocons.annotations import AnnotationMatrix
from emocons.ccc import ccc_loss
from emocons.consensus import (
    AGGREGATORS,
    Acn,
    AcnConfig,
    ConsensusTrace,
    aggregate,
    aggregate_baseline,
    backward_consensus,
    compute_reliability_weights,
    forward_consensus,
    init_acn,
    make_mean_acn,
    orient_acn,
)
from emocons.errors import ContractError
from emocons.nn import DenseLayer, Network, OptimConfig, optimizer_step, zero_grads
from emocons.rng import substream


def brute_mean(matrix):
    return np.array([math.fsum(row) / len(row) for row in matrix])


def brute_median(matrix):
    out = []
    for row in matrix:
        s = sorted(row)
        mid = len(s) // 2
        out.append(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0)
    return np.array(out)


def brute_weighted(matrix, w):
    total = math.fsum(w)
    return np.array([math.fsum(wi * xi for wi, xi in zip(w, row)) / total for row in matrix])


class TestAggregate:
    def test_hand_mean(self):
        m = np.array([[0.1, 0.3], [-0.2, 0.2]])
        np.testing.assert_allclose(aggregate(m, "mean"), [0.2, 0.0])

    def test_hand_median_odd_and_even(self):
        m = np.array([[0.1, 0.9, 0.2], [-1.0, 1.0, 0.0]])
        np.testing.assert_allclose(aggregate(m, "median"), [0.2, 0.0])
        m2 = np.array([[0.0, 1.0, 0.2, 0.4]])
        np.testing.assert_allclose(aggregate(m2, "median"), [0.3])

    def test_hand_weighted(self):
        m = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(aggregate(m, "weighted", weights=[0.25, 0.75]), [0.75])

    def test_matches_brute_force(self):
        rng = substream(40, "agg")
        for _ in range(50):
            frames = int(rng.integers(1, 30))
            ann = int(rng.integers(1, 9))
            m = rng.uniform(-1, 1, size=(frames, ann))
            w = rng.uniform(0.1, 2.0, size=ann)
            w = w / w.sum()
            assert np.max(np.abs(aggregate(m, "mean") - brute_mean(m))) < 1e-12
            assert np.max(np.abs(aggregate(m, "median") - brute_median(m))) < 1e-12
            assert np.max(np.abs(aggregate(m, "weighted", weights=w) - brute_weighted(m, w))) < 1e-12

    def test_known_methods(self):
        assert AGGREGATORS == ("mean", "median", "weighted")
        with pytest.raises(ContractError):
            aggregate(np.zeros((2, 2)), "mode")

    def test_weighted_needs_valid_weights(self):
        m = np.zeros((2, 3))
        with pytest.raises(ContractError):
            aggregate(m, "weighted")
        with pytest.raises(ContractError):
            aggregate(m, "weighted", weights=[0.5, 0.5])  # wrong length
        with pytest.raises(ContractError):
            aggregate(m, "weighted", weights=[0.0, 0.0, 0.0])
        with pytest.raises(ContractError):
            aggregate(m, "weighted", weights=[0.8, -0.3, 0.5])
        with pytest.raises(ContractError):
            aggregate(m, "weighted", weights=[0.5, 0.5, 0.5])  # sums to 1.5

    def test_weights_rejected_for_unweighted_methods(self):
        with pytest.raises(ContractError):
            aggregate(np.zeros((2, 2)), "mean", weights=[0.5, 0.5])

    def test_aggregate_baseline_returns_trace(self):
        ann = AnnotationMatrix(
            np.array([[0.1, 0.3], [-0.2, 0.2]]), ("a", "b"), "arousal", 25.0
        )
        trace = aggregate_baseline(ann, "mean")
        assert isinstance(trace, ConsensusTrace)
        assert trace.source == "mean"
        np.testing.assert_allclose(trace.values, [0.2, 0.0])


class TestReliabilityWeights:
    def test_faithful_annotator_takes_all_weight(self):
        t = np.sin(np.linspace(0, 6, 100))
        m = np.column_stack([t, -t])
        w = compute_reliability_weights(m, t)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-7)

    def test_identical_annotators_split_evenly(self):
        t = np.sin(np.linspace(0, 6, 100))
        m = np.column_stack([t, t])
        np.testing.assert_allclose(compute_reliability_weights(m, t), [0.5, 0.5], atol=1e-9)

    def test_all_inverted_falls_back_to_uniform(self):
        t = np.sin(np.linspace(0, 6, 100))
        m = np.column_stack([-t, -0.5 * t])
        np.testing.assert_allclose(compute_reliability_weights(m, t), [0.5, 0.5])

    def test_weights_feed_aggregator(self):
        t = np.sin(np.linspace(0, 6, 100))
        m = np.column_stack([t, -t])
        w = compute_reliability_weights(m, t)
        np.testing.assert_allclose(aggregate(m, "weighted", weights=w), t, atol=1e-6)


class TestAcn:
    def test_default_architecture(self):
        acn = init_acn(AcnConfig(annotators=6), substream(41, "a"))
        assert isinstance(acn, Acn)
        assert acn.annotators == 6
        assert [l.weights.shape for l in acn.net.layers] == [(16, 6), (16, 16), (1, 16)]
        assert [l.activation for l in acn.net.layers] == ["tanh", "tanh", "tanh"]
        m = substream(42, "m").uniform(-1, 1, size=(40, 6))
        out = forward_consensus(acn, m)
        assert out.shape == (40,)
        assert np.all(np.abs(out) < 1.0)  # tanh output stays inside the range

    def test_config_validation(self):
        with pytest.raises(ContractError):
            AcnConfig(annotators=1)
        with pytest.raises(ContractError):
            AcnConfig(annotators=4, hidden_dims=(0,))
        with pytest.raises(ContractError):
            AcnConfig(annotators=4, output_activation="relu")

    def test_wrong_width_rejected(self):
        acn = init_acn(AcnConfig(annotators=4), substream(43, "a"))
        with pytest.raises(ContractError):
            forward_consensus(acn, np.zeros((10, 5)))

    def test_frame_permutation_commutes(self):
        acn = init_acn(AcnConfig(annotators=3), substream(49, "a"))
        m = substream(49, "m").uniform(-1, 1, size=(20, 3))
        perm = substream(49, "p").permutation(20)
        np.testing.assert_allclose(
            forward_consensus(acn, m[perm]), forward_consensus(acn, m)[perm], atol=1e-15
        )

    def test_single_linear_layer_represents_mean(self):
        # constructive check: the mean is expressible in the config family
        cfg = AcnConfig(annotators=4, hidden_dims=(), output_activation="linear")
        acn = init_acn(cfg, substream(44, "a"))
        acn.net.layers[0].weights[:] = 0.25
        acn.net.layers[0].bias[:] = 0.0
        m = substream(44, "m").uniform(-1, 1, size=(64, 4))
        np.testing.assert_array_equal(forward_consensus(acn, m), aggregate(m, "mean"))

    def test_mean_acn_reproduces_mean_aggregate_bitwise(self):
        acn = make_mean_acn(5)
        m = substream(44, "m").uniform(-1, 1, size=(64, 5))
        np.testing.assert_array_equal(forward_consensus(acn, m), aggregate(m, "mean"))

    def test_consensus_trace_wraps_acn_output(self):
        ann = AnnotationMatrix(
            np.array([[0.1, 0.3], [-0.2, 0.2]]), ("a", "b"), "valence", 25.0
        )
        trace = ConsensusTrace(forward_consensus(make_mean_acn(2), ann.data), "acn")
        assert trace.source == "acn"
        np.testing.assert_allclose(trace.values, [0.2, 0.0])

    def test_gradient_through_acn_matches_central_differences(self):
        acn = init_acn(AcnConfig(annotators=4, hidden_dims=(8,)), substream(45, "a"))
        m = substream(46, "m").uniform(-1, 1, size=(30, 4))
        target = substream(47, "t").uniform(-1, 1, size=30)

        def loss_at(matrix):
            return ccc_loss(target, forward_consensus(acn, matrix)).loss

        res = ccc_loss(target, forward_consensus(acn, m), want_grad_y=True)
        zero_grads(acn.net)
        din = backward_consensus(acn, res.grad_y)
        h = 1e-6
        for idx in [(0, 0), (7, 2), (29, 3), (15, 1)]:
            mp, mn = m.copy(), m.copy()
            mp[idx] += h
            mn[idx] -= h
            num = (loss_at(mp) - loss_at(mn)) / (2 * h)
            assert abs(din[idx] - num) < 1e-6 * max(1.0, abs(num))
        layer = acn.net.layers[0]
        for idx in [(0, 0), (4, 3), (7, 1)]:
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up = loss_at(m)
            layer.weights[idx] = orig - h
            dn = loss_at(m)
            layer.weights[idx] = orig
            num = (up - dn) / (2 * h)
            assert abs(layer.grad_w[idx] - num) < 1e-6 * max(1.0, abs(num))

    def test_learns_mean_consensus_quickly(self):
        # scaled-down version of the dedicated convergence check: the network
        # should track the per-frame annotator mean after a few hundred steps
        rng = substream(48, "data")
        t = np.linspace(0, 40, 1200)
        truth = np.sin(0.5 * t) * 0.7
        m = np.clip(truth[:, None] + rng.normal(0, 0.15, size=(1200, 6)), -1, 1)
        acn = init_acn(AcnConfig(annotators=6), substream(48, "init"))
        windows = [m[i : i + 75] for i in range(0, 1125, 75)]
        optim = OptimConfig(learning_rate=1e-2)
        for step in range(300):
            w = windows[step % len(windows)]
            target = aggregate(w, "mean")
            res = ccc_loss(target, forward_consensus(acn, w), want_grad_y=True)
            backward_consensus(acn, res.grad_y)
            optimizer_step(acn.net, optim)
        hold = m[1125:]
        res = ccc_loss(aggregate(hold, "mean"), forward_consensus(acn, hold))
        assert res.ccc > 0.9


class TestOrientAcn:
    def _anti_correlated(self):
        rng = substream(60, "data")
        truth = np.sin(np.linspace(0.0, 30.0, 900)) * 0.6
        m = np.clip(truth[:, None] + rng.normal(0.0, 0.2, (900, 4)), -1.0, 1.0)
        for seed in range(64):
            acn = init_acn(AcnConfig(annotators=4), substream(seed, "orient"))
            res = ccc_loss(m.mean(axis=1), forward_consensus(acn, m))
            if res.ccc < -1e-3:
                return acn, m, res.ccc
        raise AssertionError("no anti-correlated init in 64 seeds")

    def test_flip_negates_output_exactly(self):
        acn, m, before = self._anti_correlated()
        old = forward_consensus(acn, m).copy()
        assert orient_acn(acn, m) is True
        new = forward_consensus(acn, m)
        np.testing.assert_allclose(new, -old, rtol=0, atol=1e-14)
        assert ccc_loss(m.mean(axis=1), new).ccc > 0.0

    def test_aligned_net_untouched(self):
        acn = make_mean_acn(4)
        m = substream(61, "data").uniform(-1.0, 1.0, (200, 4))
        w = acn.net.layers[-1].weights.copy()
        assert orient_acn(acn, m) is False
        np.testing.assert_array_equal(acn.net.layers[-1].weights, w)

    def test_non_odd_output_left_alone(self):
        # negation is not exact through relu, so such nets must be skipped
        layer = DenseLayer(
            weights=np.full((1, 4), -0.25), bias=np.zeros(1), activation="relu"
        )
        acn = Acn(net=Network(layers=[layer]), annotators=4)
        _, m, _ = self._anti_correlated()
        assert ccc_loss(m.mean(axis=1), forward_consensus(acn, m)).ccc < 0.0
        assert orient_acn(acn, m) is False
        np.testing.assert_array_equal(layer.weights, np.full((1, 4), -0.25))
