"""Full model: encoder + self-attentive pooling + classifier head.

Training, prediction and the composite gradient check share one batched
path: ``model_forward`` runs the encoder, pooling, head and loss once
over a padded (N, input_dim, T) batch, and ``model_backward`` returns the
gradient of every parameter and of the input batch.  ``predict`` labels
one utterance or a list of them; a list is sorted by length and cut into
eval batches of at most ``PREDICT_FRAME_BUDGET`` padded frames, which is
how validation, ``lidkit evaluate`` and ``lidkit predict --manifest`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from lidkit.audio import MAX_DURATION_S
from lidkit.encoder import (
    EncoderConfig,
    build_encoder,
    encoder_backward,
    encoder_forward,
    encoder_param_shapes,
    encoder_state_shapes,
)
from lidkit.features import FeatureConfig, FeatureMap, frame_count
from lidkit.sap import (
    classify,
    classify_backward,
    cross_entropy,
    init_sap_params,
    sap_backward,
    sap_forward,
    sap_param_shapes,
)
from lidkit.tensor_ops import ShapeError, softmax

D_ATT_DEFAULT = 256
# the frames of the longest clip decode_wav returns (1,998 at default features): a batch of
# predict never holds more activation than one 20 s prediction does
PREDICT_FRAME_BUDGET = frame_count(int(MAX_DURATION_S * FeatureConfig().sample_rate), FeatureConfig())


@dataclass
class Model:
    encoder_cfg: EncoderConfig
    d_att: int
    labels: list[str]
    params: dict[str, np.ndarray]
    state: dict[str, np.ndarray]
    step: int = 0

    @property
    def n_classes(self) -> int:
        return len(self.labels)


def build_model(encoder_cfg: EncoderConfig, labels: list[str], seed: int, d_att: int = D_ATT_DEFAULT) -> Model:
    """A float32 model holding exactly the tensors of ``tensor_table``, in its order."""
    params, state = build_encoder(encoder_cfg, seed)
    params.update(init_sap_params(encoder_cfg.out_channels, d_att, len(labels), seed + 1))
    return Model(encoder_cfg=encoder_cfg, d_att=d_att, labels=list(labels), params=params, state=state)


def tensor_table(encoder_cfg: EncoderConfig, d_att: int, n_classes: int) -> list[tuple[str, tuple[int, ...], str]]:
    """Every tensor of a model as (name, shape, kind), kind "param" or "state", in checkpoint order.

    The parameters come first, the encoder's then pooling's and the head's,
    followed by the encoder's batch-norm state.
    """
    params = {**encoder_param_shapes(encoder_cfg), **sap_param_shapes(encoder_cfg.out_channels, d_att, n_classes)}
    return ([(name, shape, "param") for name, shape in params.items()]
            + [(name, shape, "state") for name, shape in encoder_state_shapes(encoder_cfg).items()])


def batch_from_features(maps: list[FeatureMap]):
    """Zero-pad T x F maps to a common length; returns float32 (N, F, T_max) and valid lengths."""
    t_max = max(fm.n_frames for fm in maps)
    n = len(maps)
    f = maps[0].n_bins
    x = np.zeros((n, f, t_max), dtype=np.float32)
    valid = np.zeros(n, dtype=np.int64)
    for i, fm in enumerate(maps):
        x[i, :, : fm.n_frames] = fm.data.T
        valid[i] = fm.n_frames
    return x, valid


def model_forward(
    model: Model,
    x: np.ndarray,
    valid_lens,
    targets=None,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
):
    """Forward over a padded batch: x (N, input_dim, T) with N valid lengths.

    Train mode updates the arrays of ``model.state`` (batch-norm running
    statistics) in place; eval mode leaves them unchanged.  Returns
    (logits (N, n_classes), mean loss or None, cache).  The cache is
    (frames, encoder cache, SAP state, logit gradient or None).  Eval mode
    keeps no encoder cache (None there), only the encoder's output frames
    and the SAP state, whose ``weights`` are the attention; a backward
    needs a train-mode cache.

    A model has one dtype: every array of ``model.params`` and
    ``model.state``, and x, must have the first parameter's, or a
    ShapeError names the first that differs and both dtypes.
    """
    first, ref = next(iter(model.params.items()))
    for name, a in chain(model.params.items(), model.state.items(), [("the batch", x)]):
        if a.dtype != ref.dtype:
            raise ShapeError(f"{name} is {a.dtype} but {first} is {ref.dtype}: a model and its batch share one dtype")
    frames, enc_cache = encoder_forward(
        model.encoder_cfg, model.params, model.state, x, mode=mode, rng=rng, valid_lens=valid_lens,
    )

    sap_state = sap_forward(frames, model.params, valid_lens)
    logits = classify(sap_state.embedding, model.params)
    loss = grad_logits = None
    if targets is not None:
        losses, grad_logits = cross_entropy(logits, targets)
        loss = float(np.mean(losses, dtype=np.float64))
    return logits, loss, (frames, enc_cache, sap_state, grad_logits)


def model_backward(model: Model, cache) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy; call after a train-mode forward with targets.

    Returns one gradient per ``model.params`` key, plus the gradient with
    respect to the input batch x under ``"input"``.  Consumes the encoder
    cache, freeing each layer's arrays as its adjoint finishes; a second
    call on the same cache raises RuntimeError.
    """
    frames, enc_cache, sap_state, grad_logits = cache
    if grad_logits is None:
        raise RuntimeError("backward requires a forward pass with targets")
    if enc_cache is None:
        raise RuntimeError("backward requires a train-mode forward pass")
    grad_logits = grad_logits / len(grad_logits)  # mean reduction over the batch
    grad_e, grads = classify_backward(sap_state.embedding, model.params, grad_logits)
    grad_frames, sap_grads = sap_backward(sap_state, frames, model.params, grad_e)
    grads.update(sap_grads)
    grad_input, enc_grads = encoder_backward(model.params, enc_cache, grad_frames)
    grads.update(enc_grads)
    grads["input"] = grad_input
    return grads


def predict(model: Model, maps: FeatureMap | list[FeatureMap]):
    """Eval-mode prediction for one utterance, or for a list of them.

    For one ``FeatureMap`` returns (label, posterior over labels, attention
    profile of length ``n_frames``); for a list, a list of those triples in
    input order.  A list is sorted by ``n_frames`` (stably, so equal lengths
    keep input order) and cut into batches whose N x T_max stays within
    ``PREDICT_FRAME_BUDGET``; a map longer than the budget runs alone.
    Each batch is one eval ``model_forward``.  A single map is a batch of
    one, so its result is bit for bit the one-row forward's.  Rows of a
    larger batch match their one-row results to ~1e-6, not bit for bit:
    padding changes the pointwise GEMMs' shapes and SAP's sums, and the
    head GEMM has N rows (depthwise rows are batch-invariant).
    """
    single = isinstance(maps, FeatureMap)
    if single:
        maps = [maps]
    order = sorted(range(len(maps)), key=lambda i: maps[i].n_frames)
    results = [None] * len(maps)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and (end - start + 1) * maps[order[end]].n_frames <= PREDICT_FRAME_BUDGET:
            end += 1
        batch = order[start:end]
        x, valid = batch_from_features([maps[i] for i in batch])
        logits, _, cache = model_forward(model, x, valid, mode="eval")
        weights = cache[2].weights
        del x, cache  # the next batch's forward must not run beside this one's frames
        for r, i in enumerate(batch):
            posterior = softmax(logits[r])
            idx = int(np.argmax(posterior))  # argmax takes the lowest index on ties
            results[i] = (model.labels[idx], posterior, weights[r, : valid[r]])
        start = end
    return results[0] if single else results
