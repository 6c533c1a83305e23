"""Dense layer primitives: forward and analytic backward for everything the model composes.

Convolutions are stride 1, dilation 1, zero same-padding, and are matrix
products: pointwise convs one GEMM per call, depthwise convs one small
block-Toeplitz GEMM per channel, so every output is a direct sum and a
row of a batch has the bits of its single call.  A model has one dtype,
which its batch shares (float32 in training and prediction, float64 in
gradient checks; ``model_forward`` checks it).  Activations only widen
from it, through dropout's float64 multiplier, so the in-place steps
here never meet an operand wider than their buffer and check no result
type.  Reductions accumulate at numpy's native precision.
Every function is pure except train-mode ``batch_norm_1d``, which updates
the running statistics the caller passes in place, and ``relu`` and
eval-mode ``batch_norm_1d`` when handed an ``out`` buffer, which they
write.
"""

from __future__ import annotations

import numpy as np


class ShapeError(Exception):
    pass


# ---------------------------------------------------------------------------
# depthwise 1D convolution over time, one kernel per channel


# outputs per time block, one row of a block-Toeplitz GEMM; 32 ran a float32 K = 75 forward at
# T = 1998 ~10% faster, and float64 forwards and backwards at T = 198 1.3-1.8x slower
_BLOCK = 16
_BLOCK_BYTES = 1 << 20


def _half_width(x: np.ndarray, kernels: np.ndarray) -> int:
    c, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size {k} must be odd")
    if x.ndim != 3 or c != x.shape[1]:
        raise ShapeError(f"depthwise conv expects x of shape (N, {c}, T), got {x.shape}")
    return k // 2


def _time_blocks(n_utt: int, t: int) -> int:
    """nb = ceil(T / _BLOCK) blocks per utterance, and at least two GEMM rows per channel.

    numpy hands a one-row product to GEMV, which sums in another order, so
    a one-block single call would not have the bits of its row in a batch.
    """
    return max(-(-t // _BLOCK), 2 // n_utt)


def _channel_blocks(x: np.ndarray, k: int, dtype: np.dtype) -> list[slice]:
    """The fewest equal slices of x's channels whose transients fit ``_BLOCK_BYTES``; sizes differ by at most 1.

    A channel's transients, in ``dtype``: its zero-padded input, its
    windows, its product and its Toeplitz matrix (or, in backward, its
    padded gradient and lag products), the sizes ``_windows`` and the
    GEMMs give.  Every channel's GEMMs have the same shapes whatever the
    split, so any split gives the same bits.  A bank within the budget is
    one block.
    """
    n_utt, c, t = x.shape
    nb, width = _time_blocks(n_utt, t), _BLOCK + k - 1
    channel = dtype.itemsize * (n_utt * (nb * _BLOCK + k - 1) + n_utt * nb * (width + _BLOCK) + width * _BLOCK)
    count = max(1, min(c, -(-c * channel // _BLOCK_BYTES)))
    return [slice(c * i // count, c * (i + 1) // count) for i in range(count)]


def _windows(x: np.ndarray, k: int, dtype: np.dtype) -> np.ndarray:
    """(C, N * nb, _BLOCK + K - 1) of ``dtype``: row (n, j) of channel c is x[n, c] from frame j * _BLOCK - K//2.

    x is zero-padded by K//2 on the left and to nb = ``_time_blocks``
    whole blocks on the right; the overlapping windows are a strided view
    of that buffer, copied out: BLAS cannot read overlapping rows.  The
    view is an ``np.ndarray`` over the buffer: ``as_strided`` leaves a
    reference cycle per call, garbage that raised the traced memory peaks.
    """
    n_utt, c, t = x.shape
    nb = _time_blocks(n_utt, t)
    buf = np.zeros((c, n_utt, nb * _BLOCK + k - 1), dtype)
    buf[..., k // 2 : k // 2 + t] = x.transpose(1, 0, 2)
    s = buf.strides
    view = np.ndarray((c, n_utt, nb, _BLOCK + k - 1), dtype, buf, strides=(s[0], s[1], _BLOCK * s[2], s[2]))
    return np.ascontiguousarray(view).reshape(c, n_utt * nb, _BLOCK + k - 1)


def conv1d_depthwise(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """x: (N, C, T); kernels: (C, K) with K odd.  Same zero padding.

    Time is cut into blocks of ``_BLOCK`` outputs.  A block's outputs of
    channel c are its input window times a (_BLOCK + K - 1, _BLOCK)
    Toeplitz matrix M[l, i] = kernels[c, l - i], so each channel is one
    GEMM of all its windows (convolution unrolled into matrix products:
    Chellapilla et al. 2006).  Each output is a direct K-term sum,
    computed in the result type of x and the bank and stored in x's dtype.
    Channels are independent, so the bank runs in ``_channel_blocks``.
    """
    _half_width(x, kernels)
    n_utt, c, t = x.shape
    k = kernels.shape[1]
    dtype, nb = np.result_type(x, kernels), _time_blocks(n_utt, t)
    row = np.zeros((c, 2 * _BLOCK + k - 2), dtype)
    row[:, _BLOCK - 1 : _BLOCK - 1 + k] = kernels
    s = row.strides  # toeplitz[c, l, i] = row[c, l - i + _BLOCK - 1] = kernels[c, l - i]
    toeplitz = np.ndarray((c, _BLOCK + k - 1, _BLOCK), dtype, row, (_BLOCK - 1) * s[1], (s[0], s[1], -s[1]))
    y = np.empty(x.shape, x.dtype)
    for b in _channel_blocks(x, k, dtype):
        out = np.matmul(_windows(x[:, b], k, dtype), np.ascontiguousarray(toeplitz[b]))
        y[:, b] = out.reshape(-1, n_utt, nb * _BLOCK)[..., :t].transpose(1, 0, 2)
    return y


def conv1d_depthwise_backward(grad_out: np.ndarray, x: np.ndarray, kernels: np.ndarray):
    """Returns (grad_x, grad_k); grad_k has the bank's dtype.

    The adjoint of a same-padded correlation with odd K is the same
    correlation with the kernel flipped.  grad_k[c, j] = sum_i P[c, i + j, i]
    for P = windows^T @ grad_out's blocks: the sums of P's K diagonals.
    """
    _half_width(x, kernels)
    n_utt, c, t = x.shape
    k = kernels.shape[1]
    grad_x = conv1d_depthwise(grad_out, kernels[:, ::-1]).astype(x.dtype, copy=False)
    dtype, nb = np.result_type(x, grad_out), _time_blocks(n_utt, t)
    grad_k = np.empty(kernels.shape, kernels.dtype)
    for b in _channel_blocks(x, k, dtype):
        g = np.zeros((b.stop - b.start, n_utt, nb * _BLOCK), dtype)
        g[..., :t] = grad_out[:, b].transpose(1, 0, 2)
        lags = np.matmul(_windows(x[:, b], k, dtype).transpose(0, 2, 1), g.reshape(-1, n_utt * nb, _BLOCK))
        s = lags.strides
        diagonals = np.ndarray((lags.shape[0], k, _BLOCK), dtype, lags, strides=(s[0], s[1], s[1] + s[2]))
        grad_k[b] = np.ascontiguousarray(diagonals).sum(axis=2)  # contiguous: one summation order for every K
    return grad_x, grad_k


# ---------------------------------------------------------------------------
# pointwise (1x1) convolution mixing channels


def conv1d_pointwise(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x: (N, Cin, T); weights: (Cout, Cin); bias: (Cout,)."""
    if x.ndim != 3 or x.shape[1] != weights.shape[1] or weights.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"pointwise shape mismatch: x {x.shape}, weights {weights.shape}, bias {bias.shape}"
        )
    out = np.matmul(weights, x)
    out += bias[:, None]
    return out


def conv1d_pointwise_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    grad_w = sum(g @ xi.T for g, xi in zip(grad_out, x))  # one GEMM per utterance
    grad_b = grad_out.sum(axis=(0, 2))
    grad_x = np.matmul(weights.T, grad_out)
    return grad_x, grad_w, grad_b


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
    out: np.ndarray | None = None,
):
    """x: (N, C, T).  Train mode uses batch stats and updates running stats.

    In train mode ``running_mean`` and ``running_var`` are updated in
    place, keeping their dtype; eval mode only reads them.  ``mask``
    (N, 1, T; 1 = valid) restricts the statistics to valid frames so zero
    padding cannot bias them.  Returns (out, cache); pass a train-mode
    cache to batch_norm_1d_backward.  The mode only picks (mean, var):
    both then build gamma * ((x - mean) * inv_std) + beta one ufunc at a
    time, each step in place on a buffer at least as wide as its operands
    (a model has one dtype, and its activations only widen).  Eval mode is
    inference only and returns None as its cache; it builds every step in
    ``out`` when given (``out=x`` normalizes x in place), else in one
    fresh buffer.  Train mode ignores ``out`` and uses two buffers besides
    the cached xhat.
    """
    if x.ndim != 3:
        raise ShapeError("batch_norm_1d expects (N, C, T)")
    if mode == "eval":
        mean, var = running_mean, running_var
        d = y = np.subtract(x, mean[None, :, None], out=out)
    elif mode == "train":
        n, c, t = x.shape
        count = float(n * t) if mask is None else float(mask.sum())
        if count < 2:
            raise ShapeError("train-mode batch norm needs at least 2 values per channel")
        mean = x.mean(axis=(0, 2)) if mask is None else np.sum(x * mask, axis=(0, 2)) / count
        d = x - mean[None, :, None]
        y = np.square(d)
        if mask is not None:
            y *= mask
        var = np.sum(y, axis=(0, 2)) / count  # without a mask, x.var's value for counts below 2**24
        m = BN_MOMENTUM
        running_mean[...] = (1 - m) * running_mean + m * mean
        running_var[...] = (1 - m) * running_var + m * var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = np.multiply(d, inv_std[None, :, None], out=d)
    y = np.multiply(gamma[None, :, None], xhat, out=y)
    y += beta[None, :, None]
    return y, (None if mode == "eval" else (xhat, inv_std, gamma, mask, count))


def batch_norm_1d_backward(grad_out: np.ndarray, cache):
    """Adjoint of train mode; expects grad_out to be zero at masked-out positions.

    grad_x = g * (grad_out - grad_beta / count - xhat * grad_gamma / count),
    built in its own buffer plus one scratch buffer.
    """
    xhat, inv_std, gamma, mask, count = cache
    scratch = grad_out * xhat
    grad_gamma = np.sum(scratch, axis=(0, 2))
    grad_beta = np.sum(grad_out, axis=(0, 2))
    g = gamma[None, :, None] * inv_std[None, :, None]
    grad_x = grad_out - grad_beta[None, :, None] / count
    np.multiply(xhat, grad_gamma[None, :, None], out=scratch)
    scratch /= count
    grad_x -= scratch
    grad_x *= g
    if mask is not None:
        grad_x *= mask
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# elementwise ops and softmax


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` rectifies x in place)."""
    return np.maximum(x, 0, out=out)


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

    Returns (out, keep): keep is the bool mask of survivors, None when a no-op.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate {p} must be in [0, 1)")
    if mode == "eval" or p == 0.0:
        return x, None
    keep = rng.random(x.shape) >= p
    return x * (keep / (1.0 - p)), keep


def dropout_backward(grad_out: np.ndarray, keep, p: float) -> np.ndarray:
    return grad_out if keep is None else grad_out * (keep / (1.0 - p))
