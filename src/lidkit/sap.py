"""Self-attentive pooling, classifier head and cross-entropy loss.

Pooling scores each frame's hidden representation tanh(W x_t + b)
against a learnable context vector, softmax-normalizes the scores over
the valid frames, and returns the weighted sum of the raw frames as the
utterance embedding.

Every function takes a padded batch: (N, C, T) frames with N valid
lengths, (N, C) embeddings, (N, K) logits with N targets.  A single
utterance ((C, T) frames, a (C,) embedding, (K,) logits) is accepted
too and gives unbatched results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from lidkit.tensor_ops import ShapeError


@dataclass(frozen=True)
class SapForwardState:
    """Batched arrays; T_used is the longest valid length in the batch."""

    hidden: np.ndarray  # N x d_att x T_used
    scores: np.ndarray  # N x T_used
    weights: np.ndarray  # N x T, zero beyond each valid length
    embedding: np.ndarray  # N x C


def _map_state(state: SapForwardState, fn) -> SapForwardState:
    return SapForwardState(**{f.name: fn(getattr(state, f.name)) for f in fields(state)})


def init_sap_params(
    in_channels: int, d_att: int, n_classes: int, seed: int, dtype=np.float32
) -> dict[str, np.ndarray]:
    """Attention projection W/b, context vector, and the classifier head.

    The head is near-zero so an untrained model scores classes uniformly.
    """
    rng = np.random.default_rng(seed)
    return {
        "sap.W": (rng.standard_normal((d_att, in_channels)) * np.sqrt(2.0 / in_channels)).astype(dtype),
        "sap.b": np.zeros(d_att, dtype=dtype),
        "sap.mu": (rng.standard_normal(d_att) * np.sqrt(1.0 / d_att)).astype(dtype),
        "head.W": (rng.standard_normal((n_classes, in_channels)) * 0.01).astype(dtype),
        "head.b": np.zeros(n_classes, dtype=dtype),
    }


def sap_forward(x: np.ndarray, params: dict[str, np.ndarray], valid_len=None) -> SapForwardState:
    """x: (N, C, T) with N valid lengths, or (C, T) with one.

    Frames at t >= valid_len are excluded; None means every frame is valid.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.ndim != 3:
        raise ShapeError("sap_forward expects (N, C, T) or (C, T)")
    n, c, t = x.shape
    valid = np.full(n, t) if valid_len is None else np.asarray(valid_len, dtype=np.int64).reshape(-1)
    if valid.shape != (n,):
        raise ShapeError(f"expected {n} valid lengths, got {valid.size}")
    if np.any(valid < 1) or np.any(valid > t):
        raise ShapeError(f"valid_len {valid.tolist()} out of range for T={t}")
    w_att, b, mu = params["sap.W"], params["sap.b"], params["sap.mu"]
    if w_att.shape[1] != c:
        raise ShapeError(f"attention projection expects {w_att.shape[1]} channels, got {c}")

    t_used = int(valid.max())  # frames past every valid length are never read
    xv = x[:, :, :t_used]
    hidden = np.matmul(w_att, xv)  # N x d_att x T_used, then tanh(. + b) in place
    hidden += b[:, None]
    np.tanh(hidden, out=hidden)
    scores = np.matmul(mu, hidden)  # N x T_used
    masked = np.where(np.arange(t_used) < valid[:, None], scores, -np.inf)
    z = np.exp(masked - masked.max(axis=1, keepdims=True))  # exactly 0 on padding
    weights = np.zeros((n, t), dtype=x.dtype)
    weights[:, :t_used] = z / z.sum(axis=1, keepdims=True)
    embedding = np.matmul(xv, weights[:, :t_used, None])[:, :, 0]
    state = SapForwardState(hidden=hidden, scores=scores, weights=weights, embedding=embedding)
    return _map_state(state, lambda a: a[0]) if squeeze else state


def sap_backward(
    state: SapForwardState, x: np.ndarray, params: dict[str, np.ndarray], grad_e: np.ndarray
):
    """Adjoint of sap_forward; parameter grads are summed over the batch.

    Padded frames receive zero gradient.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x, grad_e, state = x[None], grad_e[None], _map_state(state, lambda a: a[None])
    h = state.hidden
    t_used = h.shape[2]
    xv = x[:, :, :t_used]
    wv = state.weights[:, :t_used]
    mu, w_att = params["sap.mu"], params["sap.W"]

    grad_w = np.matmul(grad_e[:, None, :], xv)[:, 0]  # per-frame weight grads, N x T_used
    grad_scores = wv * (grad_w - np.sum(grad_w * wv, axis=1, keepdims=True))  # softmax adjoint
    grad_mu = np.matmul(h, grad_scores[:, :, None]).sum(axis=0)[:, 0]
    # grad_pre = mu grad_scores^T * (1 - h^2), built in place
    grad_pre = h * h
    np.subtract(1.0, grad_pre, out=grad_pre)
    grad_pre *= mu[:, None]
    grad_pre *= grad_scores[:, None, :]
    grad_W = np.matmul(grad_pre, xv.transpose(0, 2, 1)).sum(axis=0)
    grad_b = grad_pre.sum(axis=(0, 2))

    grad_x = np.zeros_like(x)
    gxv = grad_x[:, :, :t_used]
    np.matmul(w_att.T, grad_pre, out=gxv)
    gxv += grad_e[:, :, None] * wv[:, None, :]  # e = sum_t w_t x_t
    return (grad_x[0] if squeeze else grad_x), {"sap.W": grad_W, "sap.b": grad_b, "sap.mu": grad_mu}


def classify(e: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Logits = e @ head.W^T + head.b, for (N, C) or (C,) embeddings."""
    w, b = params["head.W"], params["head.b"]
    if w.shape[1] != e.shape[-1]:
        raise ShapeError(f"head expects embedding of size {w.shape[1]}, got {e.shape[-1]}")
    return e @ w.T + b


def classify_backward(e: np.ndarray, params: dict[str, np.ndarray], grad_logits: np.ndarray):
    """Adjoint of classify; parameter grads are summed over the batch."""
    squeeze = e.ndim == 1
    if squeeze:
        e, grad_logits = e[None], grad_logits[None]
    grad_e = grad_logits @ params["head.W"]
    grads = {"head.W": grad_logits.T @ e, "head.b": grad_logits.sum(axis=0)}
    return (grad_e[0] if squeeze else grad_e), grads


def cross_entropy(logits: np.ndarray, target):
    """Returns (loss, grad_logits); loss = -log softmax(logits)[target].

    (N, K) logits with N targets give per-row losses; (K,) logits with
    one target give a float.  Computed in log space with max subtraction,
    so extreme logits stay finite.
    """
    squeeze = logits.ndim == 1
    if squeeze:
        logits = logits[None]
    n, k = logits.shape
    targets = np.asarray(target).reshape(-1)
    if targets.shape != (n,):
        raise ShapeError(f"expected {n} targets, got {targets.size}")
    if np.any((targets < 0) | (targets >= k)):
        raise IndexError(f"target {targets.tolist()} out of range for {k} classes")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = log_z - shifted[rows, targets]
    grad = np.exp(shifted - log_z[:, None])
    grad[rows, targets] -= 1.0
    return (float(loss[0]), grad[0]) if squeeze else (loss, grad)
