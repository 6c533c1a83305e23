"""Dense layer primitives: forward and analytic backward for everything the model composes.

Convolutions are stride 1, dilation 1, zero same-padding.  Arrays carry
whatever dtype the caller passes (float32 in training, float64 in
gradient checks); reductions accumulate at numpy's native precision.
Every function is pure except train-mode ``batch_norm_1d``, which updates
the running statistics the caller passes in place, and ``relu`` and
eval-mode ``batch_norm_1d`` when handed an ``out`` buffer, which they
write.
"""

from __future__ import annotations

import numpy as np


class ShapeError(Exception):
    pass


def _into(buf: np.ndarray, *operands):
    """``buf`` as the out= of an op on ``operands`` when the op yields buf's dtype, else None.

    Written in place only then, each step rounds as it would out of place.
    """
    return buf if np.result_type(*operands) == buf.dtype else None


# ---------------------------------------------------------------------------
# depthwise 1D convolution over time, one kernel per channel


def _fft_length(n: int) -> int:
    """The smallest 2*3*5-smooth length >= n: pocketfft is fastest there."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _rfft(a: np.ndarray, n: int) -> np.ndarray:
    """``np.fft.rfft(a, n)``, computed in float32 when ``a`` is float32.

    ``a`` is first copied into a zeroed buffer of length n: handed a shorter
    input, numpy pads it on a slower path (a float32 (103, 1998) block at
    n = 2160 took over twice as long), and the spectrum is the same bit for
    bit.
    With the default norm numpy passes the int scale 1, which sends float32
    input through its float64 loop: a float64 copy, transformed in double
    precision and rounded back to complex64.  norm="forward" passes a float32
    1/n instead; the factor n is restored in place.  Other dtypes keep the
    default call, which a train step takes once its first dropout has made
    the activations float64.
    """
    buf = np.zeros(a.shape[:-1] + (n,), a.dtype)
    buf[..., : a.shape[-1]] = a
    if a.dtype != np.float32:
        return np.fft.rfft(buf)
    spec = np.fft.rfft(buf, norm="forward")
    spec *= n
    return spec


def _dft_table(kernels: np.ndarray, n: int) -> np.ndarray:
    """The table ``_kernel_spectrum`` multiplies a (C, K) bank by.

    rfft(eye(K), n), the DFT of each unit impulse, rounded to the bank's
    complex type (complex64 for float32, complex128 for float64) and viewed
    as a (K, 2*(n//2+1)) array of the bank's dtype.  eye(K, n) is eye(K)
    already zero-padded to n, as ``_rfft`` pads.
    """
    return np.fft.rfft(np.eye(kernels.shape[1], n)).astype(np.result_type(kernels, np.complex64)).view(kernels.dtype)


def _kernel_spectrum(kernels: np.ndarray, n: int, table: np.ndarray) -> np.ndarray:
    """``np.fft.rfft(kernels, n)`` of a (C, K) bank, as one GEMM.

    A K-tap row has n//2+1 frequencies, each a K-term sum: ``kernels @ D``
    with D = ``_dft_table(kernels, n)``, so the product, viewed as the
    bank's complex type, is the spectrum: one BLAS call instead of C
    transforms of length n.  The table is built once per conv call, in
    about the time of the product, and shared by its channel blocks; a
    cache of tables saved no measurable time, and one of spectra would have
    to follow every change of the weights.
    """
    return (kernels @ table).view(np.result_type(kernels, np.complex64))


_BLOCK_BYTES = 1 << 20


def _channel_blocks(x: np.ndarray, n: int) -> list[slice]:
    """The fewest equal slices of x's channels whose spectra fit ``_BLOCK_BYTES``; sizes differ by at most 1.

    A block's spectrum is N x rows x (n//2+1) complex values of 2 *
    x.itemsize bytes.  Equal blocks, not a fixed row count: OpenBLAS rounds a
    float32 kernel-spectrum GEMM of few rows differently from the
    whole-bank product, and no remainder block is left small.  Blocks of
    >= 128 rows at T = 198, and of >= 16 at T = 1998, give the whole-bank
    spectra bit for bit.  A bank within the budget is one block.
    """
    n_utt, c = x.shape[:2]
    count = max(1, min(c, -(-c * n_utt * (n // 2 + 1) * 2 * x.itemsize // _BLOCK_BYTES)))
    return [slice(c * i // count, c * (i + 1) // count) for i in range(count)]


def _half_width(x: np.ndarray, kernels: np.ndarray) -> int:
    c, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel size {k} must be odd")
    if x.ndim != 3 or c != x.shape[1]:
        raise ShapeError(f"depthwise conv expects x of shape (N, {c}, T), got {x.shape}")
    return k // 2


def conv1d_depthwise(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """x: (N, C, T); kernels: (C, K) with K odd.  Same zero padding.

    The correlation is the linear convolution with the reversed kernel, read
    from offset K//2 and computed by FFT (Mathieu et al. 2013, arXiv:1312.5851).
    Each operand is transformed at its own precision: the input by
    ``_rfft``, the kernel bank, of any width, by one GEMM against a DFT
    table (``_kernel_spectrum``).  Channels are independent, so the bank
    runs in ``_channel_blocks``: each block's spectra are multiplied (in
    place when that rounds as out of place would), inverted and written
    into the one output, so the transient is a block's spectra, not the
    bank's.
    """
    half = _half_width(x, kernels)
    t, k = x.shape[2], kernels.shape[1]
    n = _fft_length(t + k - 1)
    y = np.empty(x.shape, x.dtype)  # before the table: the other order cost a 20 s predict ~5k more page faults
    kernels = kernels[:, ::-1]
    table = _dft_table(kernels, n)
    for b in _channel_blocks(x, n):
        spec = _rfft(x[:, b], n)
        spec_k = _kernel_spectrum(kernels[b], n, table)
        spec = np.multiply(spec, spec_k, out=_into(spec, spec, spec_k))
        del spec_k
        y[:, b] = np.fft.irfft(spec, n)[..., half : half + t]
    return y


def conv1d_depthwise_backward(grad_out: np.ndarray, x: np.ndarray, kernels: np.ndarray):
    half = _half_width(x, kernels)
    t, k = x.shape[2], kernels.shape[1]
    # the adjoint of the correlation convolves grad_out with the kernel;
    # grad_k[j] = sum_{n,t} grad_out[t] * x[t + j - K//2], the lags -K//2..K//2
    n = _fft_length(t + k - 1)
    grad_x = np.empty(x.shape, x.dtype)
    grad_k = np.empty(kernels.shape, kernels.dtype)
    table = _dft_table(kernels, n)
    for b in _channel_blocks(x, n):
        spec_g = _rfft(grad_out[:, b], n)
        grad_x[:, b] = np.fft.irfft(spec_g * _kernel_spectrum(kernels[b], n, table), n)[..., half : half + t]
        lags = np.fft.irfft(np.sum(_rfft(x[:, b], n) * spec_g.conj(), axis=0), n)
        grad_k[b, :half] = lags[:, n - half :]
        grad_k[b, half:] = lags[:, : half + 1]
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
    cache to batch_norm_1d_backward.  Both modes build
    gamma * ((x - mean) * inv_std) + beta one ufunc at a time, in as few
    buffers as the dtypes allow: eval in one, train in two besides the
    cached xhat.  Eval mode is inference only and returns None as its cache;
    given ``out`` of x's shape, it writes there when every step yields x's
    dtype (``out=x`` normalizes x in place), else into a fresh buffer.
    Train mode ignores ``out``.
    """
    if x.ndim != 3:
        raise ShapeError("batch_norm_1d expects (N, C, T)")
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(running_var + BN_EPSILON)
        # into out only when every step yields x's dtype: then each rounds as out of place, and
        # out is never left half normalized
        fits = out is not None and out.dtype == np.result_type(x, running_mean, inv_std, gamma, beta) == x.dtype
        out = np.subtract(x, running_mean[None, :, None], out=out if fits else None)
        for op, v in ((np.multiply, inv_std), (np.multiply, gamma), (np.add, beta)):
            out = op(out, v[None, :, None], out=_into(out, out, v))
        return out, None
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    n, c, t = x.shape
    count = float(n * t) if mask is None else float(mask.sum())
    if count < 2:
        raise ShapeError("train-mode batch norm needs at least 2 values per channel")
    mean = x.mean(axis=(0, 2)) if mask is None else np.sum(x * mask, axis=(0, 2)) / count
    d = x - mean[None, :, None]
    scratch = np.square(d)
    if mask is not None:
        scratch = np.multiply(mask, scratch, out=_into(scratch, mask, scratch))
    var = np.sum(scratch, axis=(0, 2)) / count  # without a mask, x.var's value for counts below 2**24
    m = BN_MOMENTUM
    running_mean[...] = (1 - m) * running_mean + m * mean
    running_var[...] = (1 - m) * running_var + m * var
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = np.multiply(d, inv_std[None, :, None], out=_into(d, d, inv_std))
    out = np.multiply(gamma[None, :, None], xhat, out=_into(scratch, gamma, xhat))
    out = np.add(out, beta[None, :, None], out=_into(out, out, beta))
    return out, (xhat, inv_std, gamma, mask, count)


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
    scratch = np.multiply(xhat, grad_gamma[None, :, None], out=_into(scratch, xhat, grad_gamma))
    scratch /= count
    grad_x = np.subtract(grad_x, scratch, out=_into(grad_x, grad_x, scratch))
    grad_x = np.multiply(g, grad_x, out=_into(grad_x, g, grad_x))
    if mask is not None:
        grad_x = np.multiply(grad_x, mask, out=_into(grad_x, grad_x, mask))
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
