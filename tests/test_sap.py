import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit.diagnostics import finite_diff_check
from lidkit.sap import (
    classify,
    classify_backward,
    cross_entropy,
    init_sap_params,
    sap_backward,
    sap_forward,
)
from lidkit.tensor_ops import ShapeError, softmax


def rand_params(c, d_att, n_classes, seed):
    return {k: v.astype(np.float64) for k, v in init_sap_params(c, d_att, n_classes, seed).items()}


class TestSapForward:
    def test_single_frame_identity(self):
        params = rand_params(3, 4, 2, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 3, 1))
        st_ = sap_forward(x, params, valid_len=[1])
        assert np.array_equal(st_.weights, np.array([[1.0]]))
        assert np.max(np.abs(st_.embedding - x[:, :, 0])) <= 1e-7

    def test_identical_frames_uniform_weights(self):
        params = rand_params(3, 4, 2, seed=1)
        frame = np.random.default_rng(1).standard_normal(3)
        x = np.tile(frame[None, :, None], (1, 1, 6))
        st_ = sap_forward(x, params, valid_len=[6])
        assert np.max(np.abs(st_.weights - 1 / 6)) <= 1e-6
        assert np.max(np.abs(st_.embedding - frame)) <= 1e-6

    def test_hand_computed_two_frame_case(self):
        # independent 64-bit evaluation of h_t = tanh(W x_t + b),
        # a_t = mu . h_t, w = softmax(a), e = sum_t w_t x_t
        params = {
            "sap.W": np.array([[0.5, -0.25], [0.1, 0.3]]),
            "sap.b": np.array([0.05, -0.1]),
            "sap.mu": np.array([1.0, -2.0]),
        }
        x = np.array([[1.0, -0.5], [0.2, 0.8]])
        a = []
        for t in range(2):
            h_t = [math.tanh(0.5 * x[0, t] - 0.25 * x[1, t] + 0.05),
                   math.tanh(0.1 * x[0, t] + 0.3 * x[1, t] - 0.1)]
            a.append(1.0 * h_t[0] - 2.0 * h_t[1])
        z = [math.exp(v - max(a)) for v in a]
        w = [v / sum(z) for v in z]
        e_expected = np.array([w[0] * x[0, 0] + w[1] * x[0, 1],
                               w[0] * x[1, 0] + w[1] * x[1, 1]])
        st_ = sap_forward(x[None], params, valid_len=[2])
        assert np.max(np.abs(st_.weights[0] - np.array(w))) <= 1e-6
        assert np.max(np.abs(st_.embedding[0] - e_expected)) <= 1e-6

    def test_weights_are_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c, t = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            params = rand_params(c, 3, 2, seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal((1, c, t))
            st_ = sap_forward(x, params, valid_len=[t])
            assert np.all(st_.weights >= 0)
            assert abs(st_.weights.sum() - 1.0) <= 1e-6

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c, t = 4, int(rng.integers(2, 10))
            params = rand_params(c, 3, 2, seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal((1, c, t))
            st_ = sap_forward(x, params, valid_len=[t])
            assert np.all(st_.embedding >= x.min(axis=2) - 1e-9)
            assert np.all(st_.embedding <= x.max(axis=2) + 1e-9)

    def test_score_shift_invariance(self):
        # adding a constant to every attention score leaves w and e unchanged
        params = rand_params(3, 4, 2, seed=4)
        x = np.random.default_rng(4).standard_normal((3, 5))
        scores = params["sap.mu"] @ np.tanh(params["sap.W"] @ x + params["sap.b"][:, None])
        st_ = sap_forward(x[None], params, valid_len=[5])
        w_shifted = softmax(scores + 123.0)
        e_shifted = x @ w_shifted
        assert np.max(np.abs(w_shifted - st_.weights[0])) <= 1e-5
        assert np.max(np.abs(e_shifted - st_.embedding[0])) <= 1e-5

    def test_padding_bit_neutrality(self):
        params = rand_params(3, 4, 2, seed=5)
        x = np.random.default_rng(5).standard_normal((1, 3, 4))
        padded = np.concatenate([x, np.random.default_rng(6).standard_normal((1, 3, 3))], axis=2)
        a = sap_forward(x, params, valid_len=[4])
        b = sap_forward(padded, params, valid_len=[4])
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(b.weights[0, 4:], np.zeros(3))

    def test_invalid_valid_len(self):
        params = rand_params(2, 3, 2, seed=6)
        with pytest.raises(ShapeError):
            sap_forward(np.zeros((1, 2, 4)), params, valid_len=[0])
        with pytest.raises(ShapeError):
            sap_forward(np.zeros((1, 2, 4)), params, valid_len=[5])
        with pytest.raises(ShapeError):  # one (C, T) utterance is no batch
            sap_forward(np.zeros((2, 4)), params, valid_len=[4])


class TestSapBackward:
    def test_zero_grad_e(self):
        params = rand_params(3, 4, 2, seed=7)
        x = np.random.default_rng(7).standard_normal((2, 3, 5))
        st_ = sap_forward(x, params, valid_len=[5, 3])
        gx, gp = sap_backward(st_, x, params, np.zeros((2, 3)))
        assert np.all(gx == 0)
        assert all(np.all(v == 0) for v in gp.values())

    def test_finite_difference_random(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            c, t, d_att = 3, 5, 4
            valid = [t - 1, 2]
            params = rand_params(c, d_att, 2, seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal((2, c, t))
            probe = rng.standard_normal((2, c))
            inputs = {"x": x, "sap.W": params["sap.W"], "sap.b": params["sap.b"], "sap.mu": params["sap.mu"]}

            def loss(d):
                return float(np.sum(probe * sap_forward(d["x"], d, valid_len=valid).embedding))

            def grads(d):
                st_ = sap_forward(d["x"], d, valid_len=valid)
                gx, gp = sap_backward(st_, d["x"], d, probe)
                return {"x": gx, **gp}

            assert finite_diff_check(loss, grads, inputs) <= 1e-3

    def test_single_frame_gradient(self):
        params = rand_params(2, 3, 2, seed=9)
        x = np.random.default_rng(9).standard_normal((1, 2, 1))
        probe = np.array([[1.0, -2.0]])

        def loss(d):
            return float(np.sum(probe * sap_forward(d["x"], params, valid_len=[1]).embedding))

        def grads(d):
            st_ = sap_forward(d["x"], params, valid_len=[1])
            gx, _ = sap_backward(st_, d["x"], params, probe)
            return {"x": gx}

        assert finite_diff_check(loss, grads, {"x": x}) <= 1e-3
        st_ = sap_forward(x, params, valid_len=[1])
        gx, _ = sap_backward(st_, x, params, probe)
        # the attention path contributes nothing when only one frame exists
        assert np.allclose(gx[:, :, 0], probe)

    def test_padded_positions_get_zero_gradient(self):
        params = rand_params(3, 4, 2, seed=10)
        x = np.random.default_rng(10).standard_normal((2, 3, 6))
        st_ = sap_forward(x, params, valid_len=[4, 2])
        gx, _ = sap_backward(st_, x, params, np.ones((2, 3)))
        assert np.all(gx[0, :, 4:] == 0) and np.all(gx[1, :, 2:] == 0)
        assert np.all(gx[0, :, :4] != 0) and np.all(gx[1, :, :2] != 0)


class TestClassify:
    def test_zero_head_uniform_posterior(self):
        params = {"head.W": np.zeros((4, 3)), "head.b": np.zeros(4)}
        logits = classify(np.array([1.0, -2.0, 0.5]), params)
        assert np.array_equal(logits, np.zeros(4))
        assert np.allclose(softmax(logits), 0.25)

    def test_identity_like_head(self):
        params = {"head.W": np.eye(3), "head.b": np.array([0.1, 0.2, 0.3])}
        e = np.array([1.0, 2.0, 3.0])
        assert np.allclose(classify(e, params), e + params["head.b"])

    def test_matches_naive_matvec(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        e = rng.standard_normal(6)
        naive = np.array([b[o] + sum(w[o, i] * e[i] for i in range(6)) for o in range(4)])
        assert np.max(np.abs(classify(e, {"head.W": w, "head.b": b}) - naive)) <= 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            classify(np.zeros(5), {"head.W": np.zeros((2, 3)), "head.b": np.zeros(2)})

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(12)
        inputs = {"e": rng.standard_normal((2, 4)), "head.W": rng.standard_normal((3, 4)),
                  "head.b": rng.standard_normal(3)}
        probe = rng.standard_normal((2, 3))

        def loss(d):
            return float(np.sum(probe * classify(d["e"], d)))

        def grads(d):
            ge, gp = classify_backward(d["e"], d, probe)
            return {"e": ge, **gp}

        assert finite_diff_check(loss, grads, inputs) <= 1e-5


class TestCrossEntropy:
    def test_uniform_logits_23_classes(self):
        loss, _ = cross_entropy(np.zeros((1, 23)), [0])
        assert loss[0] == pytest.approx(math.log(23), abs=1e-4)
        assert loss[0] == pytest.approx(3.1355, abs=1e-3)

    def test_confident_correct_near_zero(self):
        loss, _ = cross_entropy(np.array([[10.0, -10.0]]), [0])
        # log(1 + exp(-20)) evaluated at 64-bit
        assert loss[0] == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)
        assert loss[0] == pytest.approx(2.061e-9, rel=1e-2)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((50, 7)) * 5
        _, grad = cross_entropy(logits, rng.integers(0, 7, size=50))
        assert np.max(np.abs(grad.sum(axis=1))) <= 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros((2, 3)), [0, 3])
        with pytest.raises(IndexError):
            cross_entropy(np.zeros((2, 3)), [-1, 0])

    def test_extreme_logits_stay_finite(self):
        loss, grad = cross_entropy(np.array([[1e4, -1e4, 0.0]]), [1])
        assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_grad_is_softmax_minus_onehot(self, vals):
        logits = np.array(vals)
        _, grad = cross_entropy(logits[None], [0])
        expected = softmax(logits)
        expected[0] -= 1.0
        assert np.max(np.abs(grad[0] - expected)) <= 1e-9
