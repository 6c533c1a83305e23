"""The batched pooling, head and loss agree with per-utterance calls.

A padded batch of N=3 utterances with valid lengths (T, T-3, 1) goes
through each function once; every row must match the same function
called on that utterance alone.
"""

import numpy as np
import pytest

from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureMap
from lidkit.model import batch_from_features, build_model, model_backward, model_forward, predict
from lidkit.sap import classify, classify_backward, cross_entropy, init_sap_params, sap_backward, sap_forward

T = 7
VALID = np.array([T, T - 3, 1])
C, D_ATT, K = 4, 3, 5


@pytest.fixture
def batch():
    rng = np.random.default_rng(0)
    params = {k: v.astype(np.float64) for k, v in init_sap_params(C, D_ATT, K, seed=1).items()}
    params["head.W"] = rng.standard_normal((K, C))
    params["head.b"] = rng.standard_normal(K)
    x = rng.standard_normal((len(VALID), C, T))
    for i, v in enumerate(VALID):
        x[i, :, v:] = 1e3  # garbage beyond each valid length
    return params, x, rng


def test_sap_forward_rows_match_single_calls(batch):
    params, x, _ = batch
    st = sap_forward(x, params, VALID)
    assert st.weights.shape == (3, T) and st.embedding.shape == (3, C)
    for i, v in enumerate(VALID):
        single = sap_forward(x[i, :, :v], params)
        assert np.max(np.abs(st.embedding[i] - single.embedding)) <= 1e-12
        assert np.max(np.abs(st.weights[i, :v] - single.weights)) <= 1e-12
        assert np.all(st.weights[i, v:] == 0.0)


def test_cross_entropy_rows_match_single_calls(batch):
    _, _, rng = batch
    logits = rng.standard_normal((3, K)) * 3
    targets = np.array([4, 0, 2])
    losses, grad = cross_entropy(logits, targets)
    assert losses.shape == (3,) and grad.shape == (3, K)
    for i in range(3):
        loss_i, grad_i = cross_entropy(logits[i], int(targets[i]))
        assert losses[i] == pytest.approx(loss_i, abs=1e-12)
        assert np.max(np.abs(grad[i] - grad_i)) <= 1e-12
    with pytest.raises(IndexError):
        cross_entropy(logits, np.array([0, 5, 1]))


def test_backward_grads_are_sums_of_row_grads(batch):
    params, x, rng = batch
    st = sap_forward(x, params, VALID)
    grad_logits = rng.standard_normal((3, K))
    grad_e, head_grads = classify_backward(st.embedding, params, grad_logits)
    grad_x, sap_grads = sap_backward(st, x, params, grad_e)
    logits = classify(st.embedding, params)

    row_sums = {k: np.zeros_like(v) for k, v in {**head_grads, **sap_grads}.items()}
    for i, v in enumerate(VALID):
        single = sap_forward(x[i, :, :v], params)
        ge_i, hg_i = classify_backward(single.embedding, params, grad_logits[i])
        gx_i, sg_i = sap_backward(single, x[i, :, :v], params, ge_i)
        assert np.max(np.abs(logits[i] - classify(single.embedding, params))) <= 1e-12
        assert np.max(np.abs(grad_e[i] - ge_i)) <= 1e-12
        assert np.max(np.abs(grad_x[i, :, :v] - gx_i)) <= 1e-12
        assert np.all(grad_x[i, :, v:] == 0.0)
        for k, g in {**hg_i, **sg_i}.items():
            row_sums[k] += g
    for k, g in row_sums.items():
        assert np.max(np.abs({**head_grads, **sap_grads}[k] - g)) <= 1e-12, k


def _tiny_model():
    cfg = EncoderConfig(channels=(4, 4), kernel_sizes=(3, 5), sub_blocks=2, input_dim=6, out_channels=5)
    model = build_model(cfg, ["a", "b", "c"], seed=2, d_att=3)
    # a non-degenerate head, so the logits differ between utterances
    model.params["head.W"] = np.random.default_rng(3).standard_normal((3, 5)).astype(np.float32)
    return model


def test_eval_model_forward_matches_predict():
    model = _tiny_model()
    rng = np.random.default_rng(4)
    maps = [FeatureMap(data=rng.standard_normal((int(v), 6)).astype(np.float32), frame_hop=0.01, id=f"u{i}")
            for i, v in enumerate(VALID)]
    x, valid = batch_from_features(maps)
    logits, loss, cache = model_forward(model, x, valid, mode="eval")
    assert loss is None and logits.shape == (3, 3) and logits.dtype == np.float32
    for i, fm in enumerate(maps):
        label, posterior, attention = predict(model, fm)
        single_logits, _, _ = model_forward(model, *batch_from_features([fm]), mode="eval")
        assert np.max(np.abs(logits[i] - single_logits[0])) <= 1e-5
        z = np.exp(logits[i] - logits[i].max())
        assert np.max(np.abs(z / z.sum() - posterior)) <= 1e-5
        assert label == model.labels[int(np.argmax(logits[i]))]
        assert np.max(np.abs(cache[2].weights[i, : fm.n_frames] - attention)) <= 1e-5


def test_model_backward_returns_params_and_input_grads():
    model = _tiny_model()
    x = np.random.default_rng(5).standard_normal((3, 6, T)).astype(np.float32)
    _, _, cache = model_forward(model, x, VALID, targets=[0, 2, 1], mode="train", rng=np.random.default_rng(0))
    grads = model_backward(model, cache)
    assert set(grads) == set(model.params) | {"input"}
    assert grads["input"].shape == x.shape
    for k, p in model.params.items():
        assert grads[k].shape == p.shape, k
    for i, v in enumerate(VALID):
        assert np.all(grads["input"][i, :, v:] == 0.0)
