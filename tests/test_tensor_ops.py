import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit import tensor_ops as T


def naive_depthwise(x, kernels):
    """Triple-loop reference: zero same-padding, stride 1."""
    c, t = x.shape
    _, k = kernels.shape
    half = k // 2
    out = np.zeros_like(x)
    for ci in range(c):
        for ti in range(t):
            for j in range(k):
                src = ti + j - half
                if 0 <= src < t:
                    out[ci, ti] += x[ci, src] * kernels[ci, j]
    return out


def naive_pointwise(x, w, b):
    cin, t = x.shape
    cout = w.shape[0]
    out = np.zeros((cout, t), dtype=x.dtype)
    for o in range(cout):
        for ti in range(t):
            out[o, ti] = b[o]
            for i in range(cin):
                out[o, ti] += w[o, i] * x[i, ti]
    return out


class TestDepthwiseConv:
    def test_k1_identity_kernel(self):
        x = np.arange(12, dtype=np.float64).reshape(2, 6)
        out = T.conv1d_depthwise(x, np.ones((2, 1)))
        assert np.array_equal(out, x)

    def test_centered_delta(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = T.conv1d_depthwise(x, np.array([[0.0, 1.0, 0.0]]))
        assert np.array_equal(out, x)

    def test_even_kernel_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv1d_depthwise(np.zeros((2, 5)), np.zeros((2, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv1d_depthwise(np.zeros((2, 5)), np.zeros((3, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for draw in range(100):
            c = int(rng.integers(1, 9))
            t = int(rng.integers(1, 33))
            k = int(rng.choice([1, 3, 5, 7]))
            x = rng.standard_normal((c, t))
            kernels = rng.standard_normal((c, k))
            assert np.max(np.abs(T.conv1d_depthwise(x, kernels) - naive_depthwise(x, kernels))) <= 1e-6


class TestPointwiseConv:
    def test_identity_weights(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        out = T.conv1d_pointwise(x, np.eye(3), np.zeros(3))
        assert np.allclose(out, x)

    def test_column_sums(self):
        out = T.conv1d_pointwise(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 1.0]]), np.zeros(1)
        )
        assert np.array_equal(out, np.array([[4.0, 6.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv1d_pointwise(np.zeros((3, 5)), np.zeros((2, 4)), np.zeros(2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for draw in range(100):
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            t = int(rng.integers(1, 33))
            x = rng.standard_normal((cin, t))
            w = rng.standard_normal((cout, cin))
            b = rng.standard_normal(cout)
            assert np.max(np.abs(T.conv1d_pointwise(x, w, b) - naive_pointwise(x, w, b))) <= 1e-6


def test_separable_composition_equals_full_conv():
    # depthwise then pointwise == full conv with kernel w[o,i] * k[i,j]
    rng = np.random.default_rng(3)
    for _ in range(20):
        cin, cout, t, k = 3, 4, 10, 5
        x = rng.standard_normal((cin, t))
        dw = rng.standard_normal((cin, k))
        pw = rng.standard_normal((cout, cin))
        b = rng.standard_normal(cout)
        got = T.conv1d_pointwise(T.conv1d_depthwise(x, dw), pw, b)

        half = k // 2
        expected = np.zeros((cout, t))
        for o in range(cout):
            for ti in range(t):
                acc = b[o]
                for i in range(cin):
                    for j in range(k):
                        src = ti + j - half
                        if 0 <= src < t:
                            acc += pw[o, i] * dw[i, j] * x[i, src]
                expected[o, ti] = acc
        assert np.max(np.abs(got - expected)) <= 1e-5 * max(1.0, np.max(np.abs(expected)))


def bn_args(channels: int):
    """gamma, beta, running_mean, running_var for a fresh float64 batch norm."""
    return np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3, 10)) * 5 + 2
        out, _ = T.batch_norm_1d(x, *bn_args(3), "train")
        assert np.max(np.abs(out.mean(axis=(0, 2)))) <= 1e-4
        assert np.max(np.abs(out.var(axis=(0, 2)) - 1.0)) <= 1e-4

    def test_constant_channel_gives_beta(self):
        x = np.full((2, 2, 5), 3.0)
        gamma, _, mean, var = bn_args(2)
        out, _ = T.batch_norm_1d(x, gamma, np.array([0.5, -0.5]), mean, var, "train")
        assert np.allclose(out[:, 0], 0.5, atol=1e-6)
        assert np.allclose(out[:, 1], -0.5, atol=1e-6)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 8)) + 10.0
        gamma, beta, running_mean, running_var = bn_args(2)
        T.batch_norm_1d(x, gamma, beta, running_mean, running_var, "train")
        assert np.all(running_mean > 0.5)  # moved toward batch mean 10

    def test_eval_uses_running_stats(self):
        x = np.ones((1, 2, 3))
        out, _ = T.batch_norm_1d(x, *bn_args(2), "eval")
        expected = 1.0 / np.sqrt(1.0 + T.BN_EPSILON)
        assert np.allclose(out, expected)

    def test_tiny_batch_rejected_in_train(self):
        with pytest.raises(T.ShapeError):
            T.batch_norm_1d(np.zeros((1, 2, 1)), *bn_args(2), "train")


class TestElementwise:
    def test_relu_values(self):
        assert T.relu(np.array(-2.0)) == 0.0
        assert T.relu(np.array(3.0)) == 3.0

    def test_softmax_uniform(self):
        assert np.allclose(T.softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = T.softmax(rng.standard_normal(7) * 10)
            assert abs(y.sum() - 1.0) <= 1e-6
            assert np.all(y >= 0)

    def test_softmax_extreme_logits_finite(self):
        y = T.softmax(np.array([1000.0, -1000.0, 0.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_softmax_shift_invariance(self, vals, shift):
        x = np.array(vals)
        assert np.max(np.abs(T.softmax(x) - T.softmax(x + shift))) <= 1e-6

    def test_dropout_p0_identity_both_modes(self):
        x = np.random.default_rng(7).standard_normal((3, 3))
        for mode in ("train", "eval"):
            out, mask = T.dropout(x, 0.0, np.random.default_rng(0), mode)
            assert np.array_equal(out, x)
            assert mask is None

    def test_dropout_eval_identity(self):
        x = np.ones((4, 4))
        out, _ = T.dropout(x, 0.7, np.random.default_rng(0), "eval")
        assert np.array_equal(out, x)

    def test_dropout_deterministic_given_seed(self):
        x = np.ones((10, 10))
        a, _ = T.dropout(x, 0.5, np.random.default_rng(42), "train")
        b, _ = T.dropout(x, 0.5, np.random.default_rng(42), "train")
        assert np.array_equal(a, b)

    def test_dropout_inverted_scaling(self):
        x = np.ones(10000)
        out, _ = T.dropout(x, 0.25, np.random.default_rng(8), "train")
        survivors = out[out > 0]
        assert np.allclose(survivors, 1.0 / 0.75)

    def test_dropout_p_one_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(np.ones(3), 1.0, np.random.default_rng(0), "train")

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_no_nan_on_finite_inputs(self, vals):
        x = np.array(vals)
        for out in (T.relu(x), T.softmax(x)):
            assert np.all(np.isfinite(out))
