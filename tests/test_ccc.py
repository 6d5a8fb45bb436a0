import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emocons.ccc import ccc_batch_loss, ccc_loss
from emocons.errors import ContractError

EPS = 1e-8


def reference_ccc(x, y, grads=False):
    """Independent oracle in pure Python: ``math.fsum`` moments, the covariance
    form, and with ``grads`` the closed-form gradients of ``1 - ccc`` from
    ``ccc_loss``'s docstring, as ``(ccc, grad_x, grad_y)`` lists."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    vx = math.fsum((a - mx) ** 2 for a in x) / n
    vy = math.fsum((b - my) ** 2 for b in y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    denom = vx + vy + (mx - my) ** 2 + EPS
    ccc = 2.0 * cov / denom
    if not grads:
        return ccc
    scale = 2.0 / (n * denom)
    gx = [scale * (ccc * ((a - mx) + (mx - my)) - (b - my)) for a, b in zip(x, y)]
    gy = [scale * (ccc * ((b - my) - (mx - my)) - (a - mx)) for a, b in zip(x, y)]
    return ccc, gx, gy


def central_diff_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_grad_error(analytic, numeric):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return np.max(np.abs(analytic - numeric) / denom)


class TestLoss:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError, match="length mismatch"):
            ccc_loss([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ContractError, match="at least 2"):
            ccc_loss([1], [1])

    def test_non_1d_rejected(self):
        with pytest.raises(ContractError, match="one-dimensional"):
            ccc_loss([[1, 2], [3, 4]], [1, 2])
        with pytest.raises(ContractError, match="one-dimensional"):
            ccc_loss([1, 2], 3.0)

    def test_identity_pair(self):
        r = ccc_loss([0.1, -0.4, 0.7], [0.1, -0.4, 0.7])
        assert r.loss <= 1e-7
        assert r.ccc == pytest.approx(1.0, abs=1e-7)

    def test_perfect_anticorrelation(self):
        r = ccc_loss([1, 2, 3], [3, 2, 1])
        assert r.ccc == pytest.approx(-1.0, abs=1e-7)
        assert r.loss == pytest.approx(2.0, abs=1e-7)

    def test_hand_computed_loss(self):
        # derived from the moments above: ccc = 2*(4/3)/(2/3+8/3+4) = 4/11
        r = ccc_loss([1, 2, 3], [2, 4, 6])
        assert r.ccc == pytest.approx(4 / 11, abs=1e-9)
        assert r.loss == pytest.approx(7 / 11, abs=1e-9)

    def test_loss_is_one_minus_ccc_exactly(self):
        r = ccc_loss([0.3, -0.2, 0.9, 0.1], [0.1, 0.0, 0.5, -0.3])
        assert r.loss == 1.0 - r.ccc

    def test_grads_returned_on_request_only(self):
        r = ccc_loss([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
        assert r.grad_x is None and r.grad_y is None
        r = ccc_loss([1.0, 2.0, 3.0], [2.0, 1.0, 3.0], want_grad_x=True, want_grad_y=True)
        assert r.grad_x.shape == (3,)
        assert r.grad_y.shape == (3,)

    def test_both_constant_gives_zero_ccc(self):
        r = ccc_loss([0.2, 0.2, 0.2], [0.7, 0.7, 0.7])
        assert r.ccc == 0.0
        assert r.loss == 1.0

    def test_constant_sequences(self):
        r = ccc_loss([5, 5, 5, 5], [5, 5, 5, 5], want_grad_x=True, want_grad_y=True)
        assert r.ccc == 0.0
        assert not r.grad_x.any() and not r.grad_y.any()

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(10, 201))
            x = rng.uniform(-1, 1, n)
            y = rng.uniform(-1, 1, n)
            r = ccc_loss(x, y, want_grad_x=True, want_grad_y=True)
            gx = central_diff_grad(lambda v: ccc_loss(v, y).loss, x)
            gy = central_diff_grad(lambda v: ccc_loss(x, v).loss, y)
            assert rel_grad_error(r.grad_x, gx) < 1e-5
            assert rel_grad_error(r.grad_y, gy) < 1e-5


finite_series = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=4, max_size=64
)


@given(finite_series, finite_series)
@settings(max_examples=200, deadline=None)
def test_symmetry_property(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert ccc_loss(x, y).ccc == pytest.approx(ccc_loss(y, x).ccc, abs=1e-12)


@given(finite_series, finite_series)
@settings(max_examples=200, deadline=None)
def test_range_property(x, y):
    n = min(len(x), len(y))
    r = ccc_loss(x[:n], y[:n])
    assert -1 - 1e-9 <= r.ccc <= 1 + 1e-9
    assert -1e-9 <= r.loss <= 2 + 1e-9


@given(finite_series)
@settings(max_examples=200, deadline=None)
def test_identity_property(x):
    # the epsilon in the denominator only vanishes relative to real variance:
    # loss(x, x) = EPS/(2*var + EPS), so the 1e-7 bound needs var >= 0.05
    assume(np.var(x) >= 0.05)
    r = ccc_loss(x, x)
    assert r.loss <= 1e-7


def test_shift_penalty_strictly_decreasing():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, 80)
    prev = 1.0
    for c in [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]:
        ccc = ccc_loss(x, x + c).ccc
        assert ccc < 1.0
        assert ccc < prev
        prev = ccc


def batch_oracle(x, y, valid, pooling):
    """Masked batch loss and gradients built from the pure-Python ``reference_ccc``."""
    k, w = x.shape
    gx, gy = np.zeros_like(x), np.zeros_like(y)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return 0.0, gx, gy
    if pooling == "pooled":
        ccc, rx, ry = reference_ccc(x[idx].ravel().tolist(), y[idx].ravel().tolist(), True)
        gx[idx] = np.reshape(rx, (idx.size, w))
        gy[idx] = np.reshape(ry, (idx.size, w))
        return 1.0 - ccc, gx, gy
    losses = []
    for i in idx:
        ccc, rx, ry = reference_ccc(x[i].tolist(), y[i].tolist(), True)
        losses.append(1.0 - ccc)
        gx[i] = np.divide(rx, k)
        gy[i] = np.divide(ry, k)
    return math.fsum(losses) / k, gx, gy


def batch(xs, ys, pooling, valid=None, **grads):
    x = np.asarray(xs, dtype=float)
    valid = np.ones(x.shape[0], dtype=bool) if valid is None else valid
    return ccc_batch_loss(x, ys, valid, pooling, **grads)


class TestBatch:
    def test_singleton_matches_single_pair(self):
        x = [0.1, 0.5, -0.2, 0.4]
        y = [0.2, 0.4, -0.1, 0.6]
        single = ccc_loss(x, y, want_grad_x=True, want_grad_y=True)
        for pooling in ("pooled", "per_window_mean"):
            loss, gx, gy = batch([x], [y], pooling, want_grad_x=True, want_grad_y=True)
            assert loss == pytest.approx(single.loss, abs=1e-12)
            np.testing.assert_allclose(gx[0], single.grad_x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gy[0], single.grad_y, rtol=0, atol=1e-12)

    def test_duplicated_pair_pooled_invariance(self):
        x = [0.1, 0.5, -0.2, 0.4]
        y = [0.2, 0.4, -0.1, 0.6]
        single = ccc_loss(x, y)
        loss, _, _ = batch([x, x], [y, y], "pooled")
        assert 1.0 - loss == pytest.approx(single.ccc, abs=1e-12)

    def test_per_window_mean_hand_value(self):
        # pair 1 is an identity (loss ~ 0), pair 2 perfectly anti-correlated (loss ~ 2)
        loss, _, _ = batch([[1, 2], [1, 2]], [[1, 2], [2, 1]], "per_window_mean")
        assert loss == pytest.approx(1.0, abs=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            ccc_batch_loss(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, bool), "pooled")

    def test_shape_mismatch_rejected(self):
        x = np.zeros((3, 4))
        ok = np.ones(3, dtype=bool)
        for y, valid in [
            (np.zeros((3, 5)), ok),
            (np.zeros((2, 4)), ok),
            (np.zeros(12), ok),
            (x, np.ones(2, dtype=bool)),
        ]:
            with pytest.raises(ContractError):
                ccc_batch_loss(x, y, valid, "pooled")
        with pytest.raises(ContractError):
            ccc_batch_loss(x.ravel(), x.ravel(), ok, "pooled")
        with pytest.raises(ContractError):
            ccc_batch_loss(np.zeros((3, 1)), np.zeros((3, 1)), ok, "pooled")

    def test_all_masked_is_zero(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-1, 1, (2, 2, 9))
        for pooling in ("pooled", "per_window_mean"):
            loss, gx, gy = batch(
                x, y, pooling, np.zeros(2, bool), want_grad_x=True, want_grad_y=True
            )
            assert loss == 0.0
            assert not gx.any() and not gy.any()

    def test_batch_grads_match_reduction(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1, 1, (3, 12))
        ys = rng.uniform(-1, 1, (3, 12))
        valid = np.array([True, False, True])

        for pooling in ("pooled", "per_window_mean"):
            _, gx, gy = batch(xs, ys, pooling, valid, want_grad_x=True, want_grad_y=True)

            def loss_with(k, v, wrt_x, pooling=pooling):
                a, b = xs.copy(), ys.copy()
                (a if wrt_x else b)[k] = v
                return batch(a, b, pooling, valid)[0]

            for k in range(3):
                num_x = central_diff_grad(lambda v: loss_with(k, v, True), xs[k])
                num_y = central_diff_grad(lambda v: loss_with(k, v, False), ys[k])
                if valid[k]:
                    assert rel_grad_error(gx[k], num_x) < 1e-5
                    assert rel_grad_error(gy[k], num_y) < 1e-5
                else:
                    assert not gx[k].any() and not gy[k].any()
                    assert not num_x.any() and not num_y.any()

    def test_pooled_matches_concatenated_reference(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, (4, 20))
        ys = rng.uniform(-1, 1, (4, 20))
        loss, _, _ = batch(xs, ys, "pooled")
        ref = reference_ccc(xs.ravel().tolist(), ys.ravel().tolist())
        assert 1.0 - loss == pytest.approx(ref, abs=1e-12)


@given(
    k=st.integers(1, 6),
    w=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    mix=st.floats(-1.0, 1.0),
    shift=st.floats(-0.5, 0.5),
    pooling=st.sampled_from(["pooled", "per_window_mean"]),
)
@settings(max_examples=200, deadline=None)
# a short window whose variance is small next to its squared mean: one-pass
# moments cancel there and drift 1.1e-12 from the kernel
@example(k=1, w=2, seed=2, mix=0.9527029135732921, shift=0.0, pooling="pooled")
def test_batch_kernel_matches_fsum_oracle(k, w, seed, mix, shift, pooling):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (k, w))
    y = mix * x + (1 - abs(mix)) * rng.uniform(-1, 1, (k, w)) + shift
    valid = rng.random(k) < 0.7
    loss, gx, gy = ccc_batch_loss(x, y, valid, pooling, want_grad_x=True, want_grad_y=True)
    ref_loss, ref_gx, ref_gy = batch_oracle(x, y, valid, pooling)
    assert abs(loss - ref_loss) <= 1e-12
    np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gy, ref_gy, rtol=0, atol=1e-12)


@given(
    k=st.integers(1, 12),
    w=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    mix=st.floats(-1.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_all_valid_batch_equals_the_masked_path_bitwise(k, w, seed, mix):
    # pooled, where a masked extra row leaves the norm as it is
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (k, w))
    y = mix * x + (1 - abs(mix)) * rng.uniform(-1, 1, (k, w))
    loss, gx, gy = ccc_batch_loss(x, y, np.ones(k, bool), "pooled", True, True)
    masked = np.append(np.ones(k, bool), False)
    junk = rng.uniform(-1, 1, (2, w))
    m_loss, m_gx, m_gy = ccc_batch_loss(
        np.vstack([x, junk[:1]]), np.vstack([y, junk[1:]]), masked, "pooled", True, True
    )
    assert loss == m_loss
    np.testing.assert_array_equal(gx, m_gx[:k])
    np.testing.assert_array_equal(gy, m_gy[:k])
    assert not (m_gx[k].any() or m_gy[k].any())


@given(
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    mix=st.floats(-1.0, 1.0),
    shift=st.floats(-0.5, 0.5),
    strided=st.booleans(),
    pooling=st.sampled_from(["pooled", "per_window_mean"]),
)
@settings(max_examples=200, deadline=None)
def test_ccc_loss_is_the_batch_kernel(n, seed, mix, shift, strided, pooling):
    # ccc_loss scores, weights and orients; ccc_batch_loss trains: one arithmetic
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = mix * x + (1 - abs(mix)) * rng.uniform(-1, 1, n) + shift
    if strided:  # matrix columns, as compute_reliability_weights passes them
        m = np.column_stack([x, y])
        x, y = m[:, 0], m[:, 1]
    r = ccc_loss(x, y, want_grad_x=True, want_grad_y=True)
    loss, gx, gy = ccc_batch_loss(x[None], y[None], [True], pooling, True, True)
    assert r.loss == loss
    assert r.loss == 1.0 - r.ccc
    np.testing.assert_array_equal(r.grad_x, gx[0])
    np.testing.assert_array_equal(r.grad_y, gy[0])


@given(
    g=st.integers(1, 4),
    k=st.integers(1, 6),
    w=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    masks=st.sampled_from(["all valid", "all masked", "mixed"]),
    pooling=st.sampled_from(["pooled", "per_window_mean"]),
    grads=st.sampled_from([(True, True), (False, True), (True, False), (False, False)]),
)
@settings(max_examples=300, deadline=None)
def test_stacked_terms_equal_separate_calls_bitwise(g, k, w, seed, masks, pooling, grads):
    # a training step scores all its terms in one call; each term must get the
    # numbers a call on it alone gives, masked windows included
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (g, k, w)) * rng.uniform(0.01, 2, (g, 1, 1))
    y = 0.6 * x + 0.4 * rng.uniform(-1, 1, (g, k, w)) + rng.uniform(-0.5, 0.5, (g, 1, 1))
    if masks == "all valid":
        valid = np.ones((g, k), bool)
    elif masks == "all masked":
        valid = np.zeros((g, k), bool)
    else:
        valid = rng.random((g, k)) < 0.6
        valid.flat[0] = True
        valid.flat[-1] = valid.size == 1
    losses, gx, gy = ccc_batch_loss(x, y, valid, pooling, *grads)
    assert len(losses) == g
    for i in range(g):
        loss, gx_i, gy_i = ccc_batch_loss(x[i], y[i], valid[i], pooling, *grads)
        assert losses[i] == loss
        for stacked, alone in ((gx, gx_i), (gy, gy_i)):
            assert (stacked is None) == (alone is None)
            if alone is not None:
                assert stacked.shape == (g, k, w)
                assert np.array_equal(stacked[i], alone)


def test_stacked_terms_need_a_mask_per_term_and_window():
    x = np.zeros((2, 3, 4))
    with pytest.raises(ContractError, match=r"valid must have shape \(2, 3\)"):
        ccc_batch_loss(x, x, np.ones(3, bool))
    with pytest.raises(ContractError, match="equal"):
        ccc_batch_loss(x, x[:, :, :3], np.ones((2, 3), bool))
