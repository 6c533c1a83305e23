"""The batched pooling, head, loss and ``predict`` agree with per-utterance calls.

A padded batch of N=3 utterances with valid lengths (T, T-3, 1) goes
through each function once; every row must match the same function
called on that utterance alone, as an N=1 batch trimmed to its valid
length.  ``predict`` over a list of maps must match ``predict`` on each
map, and run one eval forward per frame-budget batch.  ``model_forward``
runs a model of one dtype on a batch of that dtype and refuses any other.
"""

import tracemalloc

import numpy as np
import pytest

import lidkit.encoder
from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureConfig, FeatureMap, compute_mfsc
from lidkit.model import PREDICT_FRAME_BUDGET, batch_from_features, build_model, model_backward, model_forward, predict
from lidkit.sap import classify, classify_backward, cross_entropy, init_sap_params, sap_backward, sap_forward
from lidkit.synthetic import make_corpus
from lidkit.tensor_ops import ShapeError, conv1d_depthwise, relu, softmax
from lidkit.training import evaluate_top1
from tests.conftest import check_budget_batches, peak_bytes

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
        single = sap_forward(x[i : i + 1, :, :v], params, [v])
        assert np.max(np.abs(st.embedding[i] - single.embedding[0])) <= 1e-12
        assert np.max(np.abs(st.weights[i, :v] - single.weights[0])) <= 1e-12
        assert np.all(st.weights[i, v:] == 0.0)


def test_cross_entropy_rows_match_single_calls(batch):
    _, _, rng = batch
    logits = rng.standard_normal((3, K)) * 3
    targets = np.array([4, 0, 2])
    losses, grad = cross_entropy(logits, targets)
    assert losses.shape == (3,) and grad.shape == (3, K)
    for i in range(3):
        loss_i, grad_i = cross_entropy(logits[i : i + 1], targets[i : i + 1])
        assert losses[i] == pytest.approx(loss_i[0], abs=1e-12)
        assert np.max(np.abs(grad[i] - grad_i[0])) <= 1e-12
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
        x_i = x[i : i + 1, :, :v]
        single = sap_forward(x_i, params, [v])
        ge_i, hg_i = classify_backward(single.embedding, params, grad_logits[i : i + 1])
        gx_i, sg_i = sap_backward(single, x_i, params, ge_i)
        assert np.max(np.abs(logits[i] - classify(single.embedding, params)[0])) <= 1e-12
        assert np.max(np.abs(grad_e[i] - ge_i[0])) <= 1e-12
        assert np.max(np.abs(grad_x[i, :, :v] - gx_i[0])) <= 1e-12
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
    maps = [FeatureMap(data=rng.standard_normal((int(v), 6)).astype(np.float32), id=f"u{i}")
            for i, v in enumerate(VALID)]
    x, valid = batch_from_features(maps)
    logits, loss, cache = model_forward(model, x, valid, mode="eval")
    assert loss is None and logits.shape == (3, 3) and logits.dtype == np.float32
    tol = 1e-5

    def close(what, i, a, b):
        diff = np.max(np.abs(a - b))
        assert diff <= tol, f"row {i} {what}: max |diff| {diff:.3g} > tol {tol:g}; batched {a}, single {b}"

    for i, fm in enumerate(maps):
        label, posterior, attention = predict(model, fm)
        single_logits, _, _ = model_forward(model, *batch_from_features([fm]), mode="eval")
        close("logits", i, logits[i], single_logits[0])
        z = np.exp(logits[i] - logits[i].max())
        close("posterior", i, z / z.sum(), posterior)
        assert label == model.labels[int(np.argmax(logits[i]))], f"row {i}: {label} for logits {logits[i]}"
        close("attention", i, cache[2].weights[i, : fm.n_frames], attention)


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


def test_backward_after_eval_forward_refused():
    model = _tiny_model()
    x = np.random.default_rng(6).standard_normal((3, 6, T)).astype(np.float32)
    _, loss, cache = model_forward(model, x, VALID, targets=[0, 2, 1], mode="eval")
    assert loss is not None and cache[1] is None
    with pytest.raises(RuntimeError, match="train-mode forward"):
        model_backward(model, cache)


def _tiny_model_of(dtype):
    model = _tiny_model()
    for tensors in (model.params, model.state):
        for k, v in tensors.items():
            tensors[k] = v.astype(dtype)
    return model


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_dtype_model_runs(dtype):
    model = _tiny_model_of(dtype)
    x = np.random.default_rng(5).standard_normal((3, 6, T)).astype(dtype)
    logits, _, _ = model_forward(model, x, VALID, mode="eval")
    assert logits.dtype == dtype and np.all(np.isfinite(logits))
    _, loss, cache = model_forward(model, x, VALID, targets=[0, 2, 1], mode="train", rng=np.random.default_rng(0))
    grads = model_backward(model, cache)
    assert np.isfinite(loss) and all(grads[k].dtype == dtype for k in model.params)


@pytest.mark.parametrize("model_dtype, batch_dtype, odd", [
    (np.float32, np.float64, None),
    (np.float32, np.float32, ("state", "enc.block1.sub0.bn.var", np.float64)),
    (np.float64, np.float64, ("params", "enc.block0.res.pw_w", np.float32)),
], ids=["float64_batch", "float64_state", "float32_param"])
def test_second_dtype_refused_naming_the_tensor(model_dtype, batch_dtype, odd):
    model = _tiny_model_of(model_dtype)
    name, dtype = "the batch", batch_dtype
    if odd is not None:
        kind, name, dtype = odd
        tensors = getattr(model, kind)
        tensors[name] = tensors[name].astype(dtype)
    message = rf"{name} is {np.dtype(dtype)} but enc\.prologue\.dw is {np.dtype(model_dtype)}"
    x = np.random.default_rng(5).standard_normal((3, 6, T)).astype(batch_dtype)
    for mode in ("eval", "train"):
        with pytest.raises(ShapeError, match=message):
            model_forward(model, x, VALID, targets=[0, 2, 1], mode=mode, rng=np.random.default_rng(0))
    if odd is not None:  # predict's batch is float32, and the model's own tensors are checked first
        fm = FeatureMap(data=np.zeros((T, 6), np.float32), id="u")
        with pytest.raises(ShapeError, match=rf"{name} is {np.dtype(dtype)}"):
            predict(model, fm)
        with pytest.raises(ShapeError, match=rf"{name} is {np.dtype(dtype)}"):
            predict(model, [fm, fm])


def _dropout_model():
    cfg = EncoderConfig(channels=(16, 16), kernel_sizes=(3, 5), sub_blocks=2, input_dim=6, out_channels=4,
                        dropout_rate=0.1)
    model = build_model(cfg, ["a", "b", "c"], seed=8, d_att=3)
    rng = np.random.default_rng(9)
    for k, v in model.params.items():
        if k.endswith((".bn.gamma", ".bn.beta")):  # else the batch-norm output equals its xhat
            v[...] = rng.standard_normal(v.shape)
    return model


def _train_forward(model, t=300):
    x = np.random.default_rng(10).standard_normal((3, 6, t)).astype(np.float32)
    return model_forward(model, x, [t, t - t // 4, t // 2], targets=[0, 2, 1], mode="train",
                         rng=np.random.default_rng(11))


def test_backward_frees_the_encoder_cache():
    model = _dropout_model()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, _, cache = _train_forward(model)
        at_forward = tracemalloc.get_traced_memory()[0] - base
        grads = model_backward(model, cache)
        del grads
        after_backward = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # what is left is the encoder's output frames, the pooling state and the padding mask
    assert after_backward < 0.1 * at_forward, (at_forward, after_backward)


def test_second_backward_on_one_cache_refused():
    model = _dropout_model()
    _, _, cache = _train_forward(model, t=20)
    model_backward(model, cache)
    with pytest.raises(RuntimeError, match="already consumed"):
        model_backward(model, cache)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def test_train_cache_holds_no_pre_relu_sum(monkeypatch):
    model = _dropout_model()
    pres = []

    def recording_relu(x, out=None):
        pres.append(x.copy())
        return relu(x, out=out)

    monkeypatch.setattr(lidkit.encoder, "relu", recording_relu)
    _, _, cache = _train_forward(model, t=20)
    entries = [entry for layer_caches, _ in cache[1][0] for entry in layer_caches]
    assert len(entries) == len(pres) == 6  # prologue, 2 x 2 sub-blocks, epilogue
    for pre, entry in zip(pres, entries):
        arrays = list(_arrays(entry))
        assert len(arrays) >= 4
        assert not any(np.array_equal(a, pre) for a in arrays)


def _cache_arrays(model, cache):
    """The arrays that own the memory reachable from a model_forward cache, parameters and state left out."""
    skip = {id(a) for a in (*model.params.values(), *model.state.values())}
    owners, seen, stack = {}, set(), [cache]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                owners[id(obj)] = obj
        elif id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
    return list(owners.values())


def test_train_cache_holds_no_depthwise_output(monkeypatch):
    model = _dropout_model()
    outputs = []

    def recording_depthwise(x, kernels):
        y = conv1d_depthwise(x, kernels)
        outputs.append(y.copy())
        return y

    monkeypatch.setattr(lidkit.encoder, "conv1d_depthwise", recording_depthwise)
    _, _, cache = _train_forward(model, t=20)
    assert len(outputs) == 5  # prologue and 2 x 2 sub-blocks; skips and epilogue are pointwise only
    arrays = _cache_arrays(model, cache)
    assert len(arrays) > 20
    assert not any(np.array_equal(a, y) for a in arrays for y in outputs)


def _bench_width_model():
    cfg = EncoderConfig(channels=(512,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=1, input_dim=40,
                        out_channels=512, dropout_rate=0.1)
    return build_model(cfg, [f"lang{i}" for i in range(6)], seed=0)


def _bench_layout_model():
    model = _bench_width_model()
    rng = np.random.default_rng(12)
    x, valid = batch_from_features([FeatureMap(rng.standard_normal((t, 40)).astype(np.float32))
                                    for t in (148, 198)])
    return model, x, valid


def test_bench_layout_train_cache_bytes_per_frame():
    # each layer caches its input, batch norm's xhat and the dropout mask; a cached depthwise
    # output as well made 101,856 B/frame
    model, x, valid = _bench_layout_model()
    _, _, cache = model_forward(model, x, valid, targets=[0, 1], mode="train", rng=np.random.default_rng(13))
    per_frame = sum(a.nbytes for a in _cache_arrays(model, cache)) / (x.shape[0] * x.shape[2])
    assert per_frame < 90_000, per_frame


def test_bench_layout_train_step_peak_memory():
    # in float64 activations, (2, 512, 198): 29.8 measured, 34.8 with a cached depthwise output
    model, x, valid = _bench_layout_model()

    def step():
        _, _, cache = model_forward(model, x, valid, targets=[0, 1], mode="train", rng=np.random.default_rng(13))
        model_backward(model, cache)

    peak = peak_bytes(step) / (x.shape[0] * 512 * x.shape[2] * 8)
    assert peak < 32, peak


def _eval_forward_peak_bytes(blocks: int) -> int:
    cfg = EncoderConfig(channels=(16,) * blocks, kernel_sizes=(5,) * blocks, sub_blocks=2, input_dim=40,
                        out_channels=16)
    model = build_model(cfg, ["a", "b"], seed=0, d_att=8)
    x = np.random.default_rng(7).standard_normal((1, 40, 2000)).astype(np.float32)
    return peak_bytes(lambda: model_forward(model, x, [2000], mode="eval"))


def test_eval_forward_peak_memory_flat_in_depth():
    # a cache of every layer's arrays would add ~0.4 MB per conv layer here
    one, six = _eval_forward_peak_bytes(1), _eval_forward_peak_bytes(6)
    assert six <= 1.1 * one, (one, six)


def _paper_width_predict_peak(sub_blocks: int) -> float:
    """The peak of a 20 s prediction by one 512-channel block per paper kernel width, in activations."""
    cfg = EncoderConfig(channels=(512,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=sub_blocks,
                        input_dim=40, out_channels=512, dropout_rate=0.1)
    model = build_model(cfg, [f"lang{i}" for i in range(6)], seed=0, d_att=256)
    fm = FeatureMap(np.random.default_rng(8).standard_normal((1998, 40)).astype(np.float32))
    return peak_bytes(lambda: predict(model, fm)) / (512 * 1998 * 4)


def test_paper_width_predict_peak_memory():
    # the benchmark's layout, one sub-block per block: a skip output or a pre-activation held
    # through a depthwise conv costs one activation; so did the whole bank's spectra (4.09
    # activations) and a fresh eval batch-norm output (3.09 with the spectra in channel blocks)
    peak = _paper_width_predict_peak(1)
    assert peak < 3.4, peak


def test_paper_width_predict_peak_memory_five_sub_blocks():
    # the paper's five sub-blocks per block hold one more activation, the block input kept for
    # the skip: 5.09 activations with whole-bank spectra and a fresh batch-norm output
    peak = _paper_width_predict_peak(5)
    assert peak < 4.4, peak


def test_paper_width_list_predict_peak_memory():
    # 40 clips of 1 s run as two batches of 20 x 98 frames, each no more frames than one 20 s clip,
    # within test_paper_width_predict_peak_memory's bound: 3.06 activations; holding one batch's
    # frames and pooling state through the next forward made 4.55
    model = _bench_width_model()
    rng = np.random.default_rng(8)
    maps = [FeatureMap(rng.standard_normal((98, 40)).astype(np.float32)) for _ in range(40)]
    peak = peak_bytes(lambda: predict(model, maps)) / (512 * 1998 * 4)
    assert peak < 3.4, peak


# shuffled lengths: a one-frame clip, two equal ones, and one past the frame budget that runs alone
LIST_LENGTHS = {"tiny": [40, 1, 2100, 17, 999, 40, 330, 1000, 5, 260],
                "bench": [148, 60, 198, 98, 173, 61, 120, 98, 190, 75, 181, 133, 166, 59]}


def _list_case(width: str):
    model, input_dim = (_tiny_model(), 6) if width == "tiny" else (_bench_width_model(), 40)
    rng = np.random.default_rng(14)
    maps = [FeatureMap(rng.standard_normal((t, input_dim)).astype(np.float32), id=f"u{i}")
            for i, t in enumerate(LIST_LENGTHS[width])]
    return model, maps


@pytest.mark.parametrize("width", ["tiny", "bench"])
def test_list_predict_matches_single_calls(width, forward_batches):
    model, maps = _list_case(width)
    batched = predict(model, maps)
    check_budget_batches(forward_batches, [fm.n_frames for fm in maps])
    assert 1 < len(forward_batches) < len(maps)
    assert len(batched) == len(maps)
    tol = 1e-5  # test_eval_model_forward_matches_predict's

    for i, (fm, (label, posterior, attention)) in enumerate(zip(maps, batched)):
        single_label, single_posterior, single_attention = predict(model, fm)
        assert attention.shape == (fm.n_frames,), (i, attention.shape)
        assert label == single_label, f"row {i}: {label} against {single_label}"
        for what, a, b in (("posterior", posterior, single_posterior), ("attention", attention, single_attention)):
            diff = np.max(np.abs(a - b))
            assert diff <= tol, f"row {i} {what}: max |diff| {diff:.3g} > tol {tol:g}"


def test_list_predict_keeps_input_order():
    model, maps = _list_case("tiny")
    distinct = [fm for fm in maps if fm.id != "u5"]  # u0 and u5 share a length
    forward = predict(model, distinct)
    backward = predict(model, distinct[::-1])[::-1]  # the same batches, so the same bits
    for fm, (label, posterior, attention), (label_b, posterior_b, attention_b) in zip(distinct, forward, backward):
        assert len(attention) == fm.n_frames
        assert (label, posterior.tobytes(), attention.tobytes()) == (label_b, posterior_b.tobytes(),
                                                                     attention_b.tobytes())


def test_equal_lengths_keep_input_order_within_a_batch(monkeypatch):
    model = _tiny_model()
    rng = np.random.default_rng(15)
    maps = [FeatureMap(rng.standard_normal((t, 6)).astype(np.float32)) for t in (9, 4, 9, 9, 4)]
    inputs = []
    real = model_forward

    def spy(model, x, valid_lens, *args, **kwargs):
        inputs.append(x.copy())
        return real(model, x, valid_lens, *args, **kwargs)

    monkeypatch.setattr(lidkit.model, "model_forward", spy)
    predict(model, maps)
    (x,) = inputs
    for row, i in enumerate([1, 4, 0, 2, 3]):
        n = maps[i].n_frames
        assert np.array_equal(x[row, :, :n], maps[i].data.T), (row, i)


def test_list_predict_of_no_maps():
    assert predict(_tiny_model(), []) == []


@pytest.mark.parametrize("width", ["tiny", "bench"])
def test_single_map_is_the_one_row_forward(width):
    model, maps = _list_case(width)
    fm = maps[0]
    label, posterior, attention = predict(model, fm)
    logits, _, cache = model_forward(model, *batch_from_features([fm]), mode="eval")
    assert posterior.tobytes() == softmax(logits[0]).tobytes()
    assert attention.tobytes() == cache[2].weights[0].tobytes()
    assert label == model.labels[int(np.argmax(logits[0]))]


def test_evaluate_top1_runs_one_forward_per_budget_batch(forward_batches):
    cfg = EncoderConfig(channels=(4, 4), kernel_sizes=(3, 5), sub_blocks=1, input_dim=40, out_channels=5)
    model = build_model(cfg, ["band0", "band1", "band2"], seed=2, d_att=3)
    corpus = make_corpus(n_classes=3, clips_per_class=5, seed=1)[:13]
    data = [(compute_mfsc(clip, FeatureConfig()), int(label[-1])) for clip, label in corpus]
    assert {fm.n_frames for fm, _ in data} == {98} and 13 * 98 <= PREDICT_FRAME_BUDGET
    evaluate_top1(model, data)
    assert forward_batches == [[98] * 13]
