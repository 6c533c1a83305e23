"""Dense layer primitives: forward and analytic backward for everything the model composes.

Convolutions are stride 1, dilation 1, zero same-padding.  Arrays carry
whatever dtype the caller passes (float32 in training, float64 in
gradient checks); reductions accumulate at numpy's native precision.
Every function is pure except train-mode ``batch_norm_1d``, which updates
the running statistics the caller passes in place.
"""

from __future__ import annotations

import numpy as np


class ShapeError(Exception):
    pass


# ---------------------------------------------------------------------------
# depthwise 1D convolution over time, one kernel per channel


def conv1d_depthwise(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """x: (N, C, T) or (C, T); kernels: (C, K) with K odd.  Same zero padding."""
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    n, c, t = x.shape
    ck, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size {k} must be odd")
    if ck != c:
        raise ShapeError(f"channel mismatch: x has {c}, kernels have {ck}")
    half = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (half, half)))
    out = np.zeros_like(x)
    for j in range(k):
        out += kernels[None, :, j, None] * xp[:, :, j : j + t]
    return out[0] if squeeze else out


def conv1d_depthwise_backward(grad_out: np.ndarray, x: np.ndarray, kernels: np.ndarray):
    squeeze = x.ndim == 2
    if squeeze:
        x, grad_out = x[None], grad_out[None]
    n, c, t = x.shape
    k = kernels.shape[1]
    half = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (half, half)))
    gp = np.pad(grad_out, ((0, 0), (0, 0), (half, half)))

    grad_k = np.empty_like(kernels)
    grad_x = np.zeros_like(x)
    for j in range(k):
        grad_k[:, j] = np.sum(grad_out * xp[:, :, j : j + t], axis=(0, 2))
        # adjoint of the shift: correlate grad_out with the flipped kernel
        grad_x += kernels[None, :, k - 1 - j, None] * gp[:, :, j : j + t]
    return (grad_x[0] if squeeze else grad_x), grad_k


# ---------------------------------------------------------------------------
# pointwise (1x1) convolution mixing channels


def conv1d_pointwise(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x: (N, Cin, T) or (Cin, T); weights: (Cout, Cin); bias: (Cout,)."""
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.shape[1] != weights.shape[1] or weights.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"pointwise shape mismatch: x {x.shape}, weights {weights.shape}, bias {bias.shape}"
        )
    out = np.einsum("oi,nit->not", weights, x) + bias[None, :, None]
    return out[0] if squeeze else out


def conv1d_pointwise_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    squeeze = x.ndim == 2
    if squeeze:
        x, grad_out = x[None], grad_out[None]
    grad_w = np.einsum("not,nit->oi", grad_out, x)
    grad_b = grad_out.sum(axis=(0, 2))
    grad_x = np.einsum("oi,not->nit", weights, grad_out)
    return (grad_x[0] if squeeze else grad_x), grad_w, grad_b


# ---------------------------------------------------------------------------
# batch normalization over (N, T) per channel


BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


def batch_norm_1d(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    mask: np.ndarray | None = None,
):
    """x: (N, C, T).  Train mode uses batch stats and updates running stats.

    In train mode ``running_mean`` and ``running_var`` are updated in
    place, keeping their dtype; eval mode only reads them.  ``mask``
    (N, 1, T; 1 = valid) restricts the statistics to valid frames so zero
    padding cannot bias them.  Returns (out, cache); pass cache to
    batch_norm_1d_backward.
    """
    if x.ndim != 3:
        raise ShapeError("batch_norm_1d expects (N, C, T)")
    n, c, t = x.shape
    count = float(n * t) if mask is None else float(mask.sum())
    if mode == "train":
        if count < 2:
            raise ShapeError("train-mode batch norm needs at least 2 values per channel")
        if mask is None:
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
        else:
            mean = np.sum(x * mask, axis=(0, 2)) / count
            var = np.sum(mask * (x - mean[None, :, None]) ** 2, axis=(0, 2)) / count
        m = BN_MOMENTUM
        running_mean[...] = (1 - m) * running_mean + m * mean
        running_var[...] = (1 - m) * running_var + m * var
    elif mode == "eval":
        mean = running_mean
        var = running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    cache = (xhat, inv_std, gamma, mode, mask, count)
    return out, cache


def batch_norm_1d_backward(grad_out: np.ndarray, cache):
    """Adjoint; expects grad_out to be zero at masked-out positions."""
    xhat, inv_std, gamma, mode, mask, count = cache
    grad_gamma = np.sum(grad_out * xhat, axis=(0, 2))
    grad_beta = np.sum(grad_out, axis=(0, 2))
    if mode == "eval":
        grad_x = grad_out * (gamma * inv_std)[None, :, None]
    else:
        g = gamma[None, :, None] * inv_std[None, :, None]
        grad_x = g * (
            grad_out
            - grad_beta[None, :, None] / count
            - xhat * grad_gamma[None, :, None] / count
        )
        if mask is not None:
            grad_x = grad_x * mask
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# elementwise ops and softmax


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over a vector."""
    if x.ndim != 1 or x.size < 1:
        raise ShapeError("softmax expects a non-empty vector")
    z = np.exp(x - np.max(x))
    return z / z.sum()


def dropout(x: np.ndarray, p: float, rng: np.random.Generator, mode: str):
    """Inverted dropout: identity in eval mode; survivors scaled by 1/(1-p).

    Returns (out, mask); mask is None when no-op.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate {p} must be in [0, 1)")
    if mode == "eval" or p == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(grad_out: np.ndarray, mask) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask

