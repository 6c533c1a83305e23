"""Full model: encoder + self-attentive pooling + classifier head.

Training, prediction and the composite gradient check share one batched
path: ``model_forward`` runs the encoder, pooling, head and loss once
over a padded (N, input_dim, T) batch, and ``model_backward`` returns the
gradient of every parameter and of the input batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidkit.encoder import EncoderConfig, build_encoder, encoder_backward, encoder_forward
from lidkit.features import FeatureMap
from lidkit.sap import classify, classify_backward, cross_entropy, init_sap_params, sap_backward, sap_forward
from lidkit.tensor_ops import softmax

D_ATT_DEFAULT = 256


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


def build_model(
    encoder_cfg: EncoderConfig, labels: list[str], seed: int, d_att: int = D_ATT_DEFAULT, dtype=np.float32
) -> Model:
    enc_params, enc_state = build_encoder(encoder_cfg, seed, dtype=dtype)
    params = {f"enc.{k}": v for k, v in enc_params.items()}
    params.update(init_sap_params(encoder_cfg.out_channels, d_att, len(labels), seed + 1, dtype=dtype))
    state = {f"enc.{k}": v for k, v in enc_state.items()}
    return Model(encoder_cfg=encoder_cfg, d_att=d_att, labels=list(labels), params=params, state=state)


def _enc_view(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The encoder's entries without the ``enc.`` prefix; the arrays are shared, not copied."""
    return {k[4:]: v for k, v in tensors.items() if k.startswith("enc.")}


def batch_from_features(maps: list[FeatureMap], dtype=np.float32):
    """Zero-pad T x F maps to a common length; returns (N, F, T_max) and valid lengths."""
    t_max = max(fm.n_frames for fm in maps)
    n = len(maps)
    f = maps[0].n_bins
    x = np.zeros((n, f, t_max), dtype=dtype)
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
    (logits (N, n_classes), mean loss or None, cache for backward).
    """
    frames, enc_cache = encoder_forward(
        model.encoder_cfg, _enc_view(model.params), _enc_view(model.state), x,
        mode=mode, rng=rng, valid_lens=valid_lens,
    )

    sap_state = sap_forward(frames, model.params, valid_lens)
    logits = classify(sap_state.embedding, model.params)
    loss = grad_logits = None
    if targets is not None:
        losses, grad_logits = cross_entropy(logits, targets)
        loss = float(np.mean(losses, dtype=np.float64))
    return logits, loss, (frames, enc_cache, sap_state, grad_logits)


def model_backward(model: Model, cache) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy; call after a forward with targets.

    Returns one gradient per ``model.params`` key, plus the gradient with
    respect to the input batch x under ``"input"``.
    """
    frames, enc_cache, sap_state, grad_logits = cache
    if grad_logits is None:
        raise RuntimeError("backward requires a forward pass with targets")
    grad_logits = grad_logits / len(grad_logits)  # mean reduction over the batch
    grad_e, grads = classify_backward(sap_state.embedding, model.params, grad_logits)
    grad_frames, sap_grads = sap_backward(sap_state, frames, model.params, grad_e)
    grads.update(sap_grads)
    grad_input, enc_grads = encoder_backward(_enc_view(model.params), enc_cache, grad_frames)
    grads.update({f"enc.{k}": v for k, v in enc_grads.items()})
    grads["input"] = grad_input
    return grads


def predict(model: Model, fm: FeatureMap):
    """Eval-mode prediction for one utterance.

    Returns (label, posterior over labels, attention profile of length T).
    """
    x, valid = batch_from_features([fm])
    logits, _, cache = model_forward(model, x, valid, mode="eval")
    posterior = softmax(logits[0])
    idx = int(np.argmax(posterior))  # argmax takes the lowest index on ties
    attention = cache[2].weights[0]
    return model.labels[idx], posterior, attention
