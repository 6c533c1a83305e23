"""Self-attentive pooling, classifier head and cross-entropy loss.

Pooling scores each frame's hidden representation tanh(W x_t + b)
against a learnable context vector, softmax-normalizes the scores over
the valid frames, and returns the weighted sum of the raw frames as the
utterance embedding.

Every function takes a padded batch: (N, C, T) frames with N valid
lengths, (N, C) embeddings, (N, K) logits with N targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidkit.tensor_ops import ShapeError


@dataclass(frozen=True)
class SapForwardState:
    """Batched arrays; T_used is the longest valid length in the batch."""

    hidden: np.ndarray  # N x d_att x T_used
    weights: np.ndarray  # N x T, zero beyond each valid length
    embedding: np.ndarray  # N x C


def sap_param_shapes(in_channels: int, d_att: int, n_classes: int) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor ``init_sap_params`` makes, in its order."""
    return {"sap.W": (d_att, in_channels), "sap.b": (d_att,), "sap.mu": (d_att,),
            "head.W": (n_classes, in_channels), "head.b": (n_classes,)}


def init_sap_params(in_channels: int, d_att: int, n_classes: int, seed: int) -> dict[str, np.ndarray]:
    """Float32 attention projection W/b, context vector, and the classifier head.

    The weights are drawn in the order W, mu, head.W; the biases start at
    zero.  The head is near-zero so an untrained model scores classes
    uniformly.
    """
    rng = np.random.default_rng(seed)
    scales = {"sap.W": np.sqrt(2.0 / in_channels), "sap.mu": np.sqrt(1.0 / d_att), "head.W": 0.01}
    params = {}
    for name, shape in sap_param_shapes(in_channels, d_att, n_classes).items():
        if name in scales:
            params[name] = (rng.standard_normal(shape) * scales[name]).astype(np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return params


def sap_forward(x: np.ndarray, params: dict[str, np.ndarray], valid_len) -> SapForwardState:
    """x: (N, C, T) with N valid lengths; frames at t >= valid_len are excluded."""
    if x.ndim != 3:
        raise ShapeError("sap_forward expects (N, C, T)")
    n, c, t = x.shape
    valid = np.asarray(valid_len, dtype=np.int64).reshape(-1)
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
    return SapForwardState(hidden, weights, embedding)


def sap_backward(
    state: SapForwardState, x: np.ndarray, params: dict[str, np.ndarray], grad_e: np.ndarray
):
    """Adjoint of the batched sap_forward: x (N, C, T), grad_e (N, C).

    Parameter grads are summed over the batch; padded frames receive zero
    gradient.
    """
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
    return grad_x, {"sap.W": grad_W, "sap.b": grad_b, "sap.mu": grad_mu}


def classify(e: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Logits = e @ head.W^T + head.b, (N, n_classes) for (N, C) embeddings."""
    w, b = params["head.W"], params["head.b"]
    if w.shape[1] != e.shape[-1]:
        raise ShapeError(f"head expects embedding of size {w.shape[1]}, got {e.shape[-1]}")
    return e @ w.T + b


def classify_backward(e: np.ndarray, params: dict[str, np.ndarray], grad_logits: np.ndarray):
    """Adjoint of classify on (N, C) embeddings; parameter grads are summed over the batch."""
    grad_e = grad_logits @ params["head.W"]
    grads = {"head.W": grad_logits.T @ e, "head.b": grad_logits.sum(axis=0)}
    return grad_e, grads


def cross_entropy(logits: np.ndarray, target):
    """Per-row losses (N,) and grad_logits (N, K) for (N, K) logits and N targets.

    loss = -log softmax(logits)[target], computed in log space with max
    subtraction, so extreme logits stay finite.
    """
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
    return loss, grad
