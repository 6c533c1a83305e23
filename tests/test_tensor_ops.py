import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit import tensor_ops as T
from tests.conftest import peak_bytes


def naive_depthwise(x, kernels):
    """Triple-loop reference for one (C, T) utterance: zero same-padding, stride 1."""
    c, t = x.shape
    _, k = kernels.shape
    half = k // 2
    out = np.zeros_like(x)
    for ci in range(c):
        for ti in range(t):
            for j in range(k):
                src = ti + j - half
                if 0 <= src < t:
                    out[ci, ti] += x[ci, src] * kernels[ci, j]
    return out


def naive_depthwise_backward(g, x, kernels):
    """Triple-loop adjoint of naive_depthwise, per utterance of an (N, C, T) batch."""
    n, c, t = x.shape
    k = kernels.shape[1]
    half = k // 2
    gx = np.zeros_like(x)
    gk = np.zeros_like(kernels)
    for ni in range(n):
        for ci in range(c):
            for ti in range(t):
                for j in range(k):
                    src = ti + j - half
                    if 0 <= src < t:
                        gx[ni, ci, src] += g[ni, ci, ti] * kernels[ci, j]
                        gk[ci, j] += g[ni, ci, ti] * x[ni, ci, src]
    return gx, gk


def naive_pointwise(x, w, b):
    """Triple-loop reference for one (Cin, T) utterance."""
    cin, t = x.shape
    cout = w.shape[0]
    out = np.zeros((cout, t), dtype=x.dtype)
    for o in range(cout):
        for ti in range(t):
            out[o, ti] = b[o]
            for i in range(cin):
                out[o, ti] += w[o, i] * x[i, ti]
    return out


class TestDepthwiseConv:
    def test_centered_delta(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        out = T.conv1d_depthwise(x, np.array([[0.0, 1.0, 0.0]]))
        assert np.array_equal(out, x)

    def test_even_kernel_rejected(self):
        with pytest.raises(T.ShapeError, match="must be odd"):
            T.conv1d_depthwise(np.zeros((1, 2, 5)), np.zeros((2, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv1d_depthwise(np.zeros((1, 2, 5)), np.zeros((3, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for draw in range(100):
            c = int(rng.integers(1, 9))
            t = int(rng.integers(1, 33))
            k = int(rng.choice([1, 3, 5, 7]))
            x = rng.standard_normal((2, c, t))
            kernels = rng.standard_normal((c, k))
            want = np.stack([naive_depthwise(xi, kernels) for xi in x])
            assert np.max(np.abs(T.conv1d_depthwise(x, kernels) - want)) <= 1e-6


def toeplitz_depthwise(x, g, kernels, block=16):
    """conv1d_depthwise and its backward written out as window @ Toeplitz GEMMs over the whole bank.

    Returns (y, grad_x, grad_k).  Time is cut into blocks of ``block``
    outputs; a window is a block's input, zero-padded, with K - 1 frames
    more; M[c, l, i] = kernels[c, l - i]; grad_k[c, j] sums the diagonal
    P[c, i + j, i] of P = windows^T @ grad blocks.  For N >= 2 (a one-block
    call of one utterance runs a second, empty block).
    """
    n, c, t = x.shape
    k = kernels.shape[1]
    dtype = np.result_type(x, kernels)
    nb, width = -(-t // block), block + k - 1

    def windows(a):
        padded = np.zeros((c, n, nb * block + k - 1), dtype)
        padded[..., k // 2 : k // 2 + t] = a.transpose(1, 0, 2)
        return np.stack([padded[..., j * block : j * block + width] for j in range(nb)], axis=2).reshape(c, -1, width)

    def correlate(a, bank):
        m = np.zeros((c, width, block), dtype)
        for i in range(block):
            m[:, i : i + k, i] = bank
        out = np.matmul(windows(a), m).reshape(c, n, nb * block)[..., :t]
        return out.transpose(1, 0, 2).astype(a.dtype)

    grad_blocks = np.zeros((c, n, nb * block), dtype)
    grad_blocks[..., :t] = g.transpose(1, 0, 2)
    p = np.matmul(windows(x).transpose(0, 2, 1), grad_blocks.reshape(c, -1, block))
    gk = np.ascontiguousarray(p[:, np.arange(k)[:, None] + np.arange(block), np.arange(block)]).sum(axis=2)
    return correlate(x, kernels), correlate(g, kernels[:, ::-1]), gk.astype(kernels.dtype)


class TestDepthwiseConvFFT:
    """Every kernel width, up to the paper's 33-75, against the oracles and the GEMM formula.

    The class keeps the name of the FFT path that the block-Toeplitz GEMMs replaced.
    """

    @pytest.mark.parametrize("k", [1, 3, 7, 15, 17, 33, 39, 51, 63, 75])
    @pytest.mark.parametrize("t", [1, 20, 200])
    def test_matches_naive_oracle_float64(self, k, t):
        rng = np.random.default_rng([k, t])
        x, g = rng.standard_normal((2, 2, 3, t))
        kernels = rng.standard_normal((3, k))
        out = T.conv1d_depthwise(x, kernels)
        want = np.stack([naive_depthwise(xi, kernels) for xi in x])
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        want_gx, want_gk = naive_depthwise_backward(g, x, kernels)
        for got, ref in ((out, want), (gx, want_gx), (gk, want_gk)):
            assert got.shape == ref.shape and got.dtype == np.float64
            assert np.max(np.abs(got - ref)) <= 1e-6

    def test_long_clip_float32(self):
        # a 20 s clip at the widest paper kernel, against per-channel float64
        # np.correlate / np.convolve; the bound is relative: 1e-5 of the largest reference value
        rng = np.random.default_rng(9)
        x, g = rng.standard_normal((2, 1, 512, 1998)).astype(np.float32)
        kernels = rng.standard_normal((512, 75)).astype(np.float32)
        xp = np.pad(x[0].astype(np.float64), ((0, 0), (37, 37)))
        g64, k64 = g[0].astype(np.float64), kernels.astype(np.float64)
        want = np.stack([np.correlate(xc, kc, "valid") for xc, kc in zip(xp, k64)])
        want_gx = np.stack([np.convolve(gc, kc, "same") for gc, kc in zip(g64, k64)])
        want_gk = np.stack([np.correlate(xc, gc, "valid") for xc, gc in zip(xp, g64)])
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        for got, ref in ((T.conv1d_depthwise(x, kernels)[0], want), (gx[0], want_gx), (gk, want_gk)):
            assert got.dtype == np.float32
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_output_owns_its_memory(self):
        # a view into a block's product would keep it alive in the activation cache
        rng = np.random.default_rng(4)
        x, g = rng.standard_normal((2, 2, 3, 40))
        for k in (1, 3, 33):
            kernels = rng.standard_normal((3, k))
            gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
            for out in (T.conv1d_depthwise(x, kernels), gx, gk):
                assert out.base is None

    def test_float32_transforms_make_no_float64_copies(self):
        # a float32 call must stay float32 throughout: one float64 copy of the windows alone would be
        # ~11x x.nbytes at K = 75
        rng = np.random.default_rng(13)
        x, g = rng.standard_normal((2, 1, 512, 1998)).astype(np.float32)
        kernels = rng.standard_normal((512, 75)).astype(np.float32)
        for run, bound in ((lambda: T.conv1d_depthwise(x, kernels), 4.0),
                           (lambda: T.conv1d_depthwise_backward(g, x, kernels), 2.6)):
            assert peak_bytes(run) < bound * x.nbytes

    def test_forward_frees_its_spectra(self):
        # the transients are one channel block's windows, Toeplitz matrices and product, freed
        # block by block: the whole bank's windows at K = 75 would be 5.6x x.nbytes
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 512, 1998)).astype(np.float32)
        kernels = rng.standard_normal((512, 75)).astype(np.float32)
        assert peak_bytes(lambda: T.conv1d_depthwise(x, kernels)) < 2.0 * x.nbytes

    @pytest.mark.parametrize("k", [1, 3, 9, 33, 75])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_toeplitz_formula(self, dtype, k):
        # three utterances of 150 frames: ten blocks, the last part-filled; 64 channels are one block
        rng = np.random.default_rng([k, 15])
        x, g = rng.standard_normal((2, 3, 64, 150)).astype(dtype)
        kernels = rng.standard_normal((64, k)).astype(dtype)
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        for got, want in zip((T.conv1d_depthwise(x, kernels), gx, gk), toeplitz_depthwise(x, g, kernels)):
            assert got.dtype == dtype and np.array_equal(got, want)

    def test_float64_input_with_float32_kernels(self):
        # a training step feeds float64 activations (after the first dropout) to float32 kernels
        rng = np.random.default_rng(21)
        x, g = rng.standard_normal((2, 2, 6, 120))
        kernels = rng.standard_normal((6, 33)).astype(np.float32)
        out = T.conv1d_depthwise(x, kernels)
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        want = np.stack([naive_depthwise(xi, kernels.astype(np.float64)) for xi in x])
        want_gx, want_gk = naive_depthwise_backward(g, x, kernels.astype(np.float64))
        for got, ref, dtype in ((out, want, np.float64), (gx, want_gx, np.float64), (gk, want_gk, np.float32)):
            assert got.dtype == dtype
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_float32_input_with_float64_kernels(self):
        # the GEMM runs in float64, the result type, and only the output is rounded to float32
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 64, 300)).astype(np.float32)
        kernels = rng.standard_normal((64, 33))
        want, _, _ = toeplitz_depthwise(x.astype(np.float64), np.zeros(x.shape), kernels)
        got = T.conv1d_depthwise(x, kernels)
        assert got.dtype == np.float32 and np.array_equal(got, want.astype(np.float32))

    def test_float32_input_gradient_stays_float32(self):
        # the prologue's backward: float32 features, a float64 gradient from the layers above
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 40, 98)).astype(np.float32)
        g = rng.standard_normal((2, 40, 98))
        kernels = rng.standard_normal((40, 33)).astype(np.float32)
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        want_gx = toeplitz_depthwise(g, g, kernels.astype(np.float64))[1]  # computed in float64, then rounded
        assert gx.dtype == gk.dtype == np.float32 and np.array_equal(gx, want_gx.astype(np.float32))

    @pytest.mark.parametrize("k", [3, 33, 75])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_padded_batch_row_equals_its_single_call(self, dtype, k):
        # a row's windows and GEMM rows do not depend on the batch's other rows or its T; the 16-frame
        # row is one block, which a single call still runs as a GEMM of two rows
        rng = np.random.default_rng([k, 16])
        lengths = [198, 150, 77, 16]
        x = rng.standard_normal((len(lengths), 64, max(lengths))).astype(dtype)
        for row, t in enumerate(lengths):
            x[row, :, t:] = 0
        kernels = rng.standard_normal((64, k)).astype(np.float32)
        batch = T.conv1d_depthwise(x, kernels)
        for row, t in enumerate(lengths):
            single = T.conv1d_depthwise(x[row : row + 1, :, :t].copy(), kernels)
            assert np.array_equal(batch[row : row + 1, :, :t], single), row


class TestPaddedTransform:
    """``_windows`` pads its input in a zeroed buffer of its own: numpy's padding path is slower."""

    @staticmethod
    def numpy_padded_windows(a, k, dtype):
        """The reference: ``_windows`` cut, block by block, from numpy padding a itself."""
        n_utt, c, t = a.shape
        nb, width = T._time_blocks(n_utt, t), T._BLOCK + k - 1
        right = nb * T._BLOCK + k - 1 - k // 2 - t
        padded = np.pad(a.transpose(1, 0, 2).astype(dtype), ((0, 0), (0, 0), (k // 2, right)))
        blocks = [padded[..., j * T._BLOCK : j * T._BLOCK + width] for j in range(nb)]
        return np.stack(blocks, axis=2).reshape(c, n_utt * nb, width)

    # a 20 s prediction's bank; a train step's channel blocks, strided slices of its 2 x 512 x 200
    # activations; the CLI encoder's 8 x 40 x 98 input.  n is the FFT length each case ran at before
    # the GEMMs, n = T + K - 1 rounded up; K is the widest kernel, up to the paper's 75, that fits it
    @pytest.mark.parametrize("shape, n, blocks", [
        ((1, 103, 1998), 2048, 1), ((1, 103, 1998), 2160, 1),
        ((2, 512, 200), 240, 3), ((2, 512, 200), 288, 3), ((8, 40, 98), 100, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_numpys_padding(self, shape, n, blocks, dtype):
        x = np.random.default_rng([shape[-1], n]).standard_normal(shape).astype(dtype)
        c, k = shape[1], min(n - shape[2] + 1, 75)
        for b in (slice(c * i // blocks, c * (i + 1) // blocks) for i in range(blocks)):
            got, want = T._windows(x[:, b], k, np.dtype(dtype)), self.numpy_padded_windows(x[:, b], k, dtype)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_depthwise_never_hands_numpy_a_short_input(self, monkeypatch):
        # a 20 s prediction's depthwise conv and its backward pad in their own zeroed buffers: numpy
        # is handed nothing to pad, and nothing to transform
        calls = []

        def spy(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return wrapped

        for module, name in ((np, "pad"), (np.fft, "rfft"), (np.fft, "irfft"), (np.fft, "fft"), (np.fft, "ifft")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        rng = np.random.default_rng(23)
        x, g = rng.standard_normal((2, 1, 512, 1998)).astype(np.float32)
        kernels = rng.standard_normal((512, 75)).astype(np.float32)
        y = T.conv1d_depthwise(x, kernels)
        gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
        assert calls == [], calls
        assert y.shape == gx.shape == x.shape and gk.shape == kernels.shape


def channel_bytes(x, k, dtype, block=16):
    """One channel's transients in a depthwise call: padded input, windows, product and Toeplitz matrix."""
    n, _, t = x.shape
    nb, width = -(-t // block), block + k - 1
    return np.dtype(dtype).itemsize * (n * (nb * block + k - 1) + n * nb * (width + block) + width * block)


class TestDepthwiseChannelBlocks:
    @pytest.mark.parametrize("shape, x_dtype, k, blocks", [
        ((1, 512, 1998), np.float32, 33, 5), ((1, 512, 1998), np.float32, 75, 5),
        ((2, 512, 198), np.float64, 33, 2), ((2, 512, 198), np.float64, 75, 3)])
    def test_bench_shapes_equal_the_whole_bank(self, monkeypatch, shape, x_dtype, k, blocks):
        # a 20 s prediction and a train step, in their own channel blocks and in `blocks` others: every
        # channel's GEMMs have the same shapes whatever the split, so no split may move a bit
        rng = np.random.default_rng([k, shape[2]])
        x, g = rng.standard_normal((2, *shape)).astype(x_dtype)
        kernels = rng.standard_normal((shape[1], k)).astype(np.float32)
        dtype = np.result_type(x, kernels)
        want = toeplitz_depthwise(x, g, kernels)
        assert len(T._channel_blocks(x, k, dtype)) > blocks
        for budget in (T._BLOCK_BYTES, -(-shape[1] * channel_bytes(x, k, dtype) // blocks)):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            gx, gk = T.conv1d_depthwise_backward(g, x, kernels)
            for got, ref in zip((T.conv1d_depthwise(x, kernels), gx, gk), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert len(T._channel_blocks(x, k, dtype)) == blocks

    @pytest.mark.parametrize("n, c, t, k, x_dtype", [
        (3, 8, 200, 5, np.float64), (8, 8, 100, 7, np.float32), (4, 40, 100, 3, np.float32), (2, 4, 5, 3, np.float64)])
    def test_bank_within_the_budget_is_one_block(self, n, c, t, k, x_dtype):
        # the tiny and CLI encoders' banks, their input layers and the gradient audit's
        x = np.zeros((n, c, t), x_dtype)
        assert T._channel_blocks(x, k, x.dtype) == [slice(0, c)]

    def test_blocks_are_the_fewest_equal_ones(self, monkeypatch):
        x = np.zeros((2, 7, 26))
        row = channel_bytes(x, 5, x.dtype)  # 8 B x (2 x 36 padded frames + 2 x 2 x (20 + 16) + 20 x 16)
        assert row == 8 * (2 * 36 + 2 * 2 * (20 + 16) + 20 * 16)
        for budget, sizes in ((7 * row, [7]), (7 * row - 1, [3, 4]), (3 * row, [2, 2, 3]), (1, [1] * 7)):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            assert [b.stop - b.start for b in T._channel_blocks(x, 5, x.dtype)] == sizes

    @pytest.mark.parametrize("shape, k", [((2, 7, 26), 5), ((2, 512, 198), 33)])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    def test_repeated_calls_are_bit_identical(self, monkeypatch, shape, k, x_dtype):
        # the encoder's backward recomputes each depthwise output instead of caching it
        rng = np.random.default_rng([k, 9])
        x = rng.standard_normal(shape).astype(x_dtype)
        kernels = rng.standard_normal((shape[1], k)).astype(np.float32)
        dtype = np.result_type(x, kernels)
        monkeypatch.setattr(T, "_BLOCK_BYTES", -(-shape[1] // 3) * channel_bytes(x, k, dtype))
        assert len({b.stop - b.start for b in T._channel_blocks(x, k, dtype)}) == 2
        first = T.conv1d_depthwise(x, kernels)
        assert first.dtype == x_dtype and np.array_equal(T.conv1d_depthwise(x, kernels), first)


class TestPointwiseConv:
    def test_identity_weights(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 5))
        out = T.conv1d_pointwise(x, np.eye(3), np.zeros(3))
        assert np.allclose(out, x)

    def test_column_sums(self):
        out = T.conv1d_pointwise(
            np.array([[[1.0, 2.0], [3.0, 4.0]]]), np.array([[1.0, 1.0]]), np.zeros(1)
        )
        assert np.array_equal(out, np.array([[[4.0, 6.0]]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv1d_pointwise(np.zeros((1, 3, 5)), np.zeros((2, 4)), np.zeros(2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for draw in range(100):
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            t = int(rng.integers(1, 33))
            x = rng.standard_normal((2, cin, t))
            w = rng.standard_normal((cout, cin))
            b = rng.standard_normal(cout)
            want = np.stack([naive_pointwise(xi, w, b) for xi in x])
            assert np.max(np.abs(T.conv1d_pointwise(x, w, b) - want)) <= 1e-6


def test_unbatched_input_rejected():
    # square (C, T) inputs whose channels match, so only the (N, C, T) check can refuse them
    x, kernels = np.zeros((3, 3)), np.zeros((3, 3))
    with pytest.raises(T.ShapeError, match=r"\(N, 3, T\)"):
        T.conv1d_depthwise(x, kernels)
    with pytest.raises(T.ShapeError, match=r"\(N, 3, T\)"):
        T.conv1d_depthwise_backward(x, x, kernels)
    with pytest.raises(T.ShapeError):
        T.conv1d_pointwise(x, np.zeros((2, 3)), np.zeros(2))


def test_separable_composition_equals_full_conv():
    # depthwise then pointwise == full conv with kernel w[o,i] * k[i,j]
    rng = np.random.default_rng(3)
    for _ in range(20):
        cin, cout, t, k = 3, 4, 10, 5
        x = rng.standard_normal((cin, t))
        dw = rng.standard_normal((cin, k))
        pw = rng.standard_normal((cout, cin))
        b = rng.standard_normal(cout)
        got = T.conv1d_pointwise(T.conv1d_depthwise(x[None], dw), pw, b)[0]

        half = k // 2
        expected = np.zeros((cout, t))
        for o in range(cout):
            for ti in range(t):
                acc = b[o]
                for i in range(cin):
                    for j in range(k):
                        src = ti + j - half
                        if 0 <= src < t:
                            acc += pw[o, i] * dw[i, j] * x[i, src]
                expected[o, ti] = acc
        assert np.max(np.abs(got - expected)) <= 1e-5 * max(1.0, np.max(np.abs(expected)))


def bn_args(channels: int):
    """gamma, beta, running_mean, running_var for a fresh float64 batch norm."""
    return np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 3, 10)) * 5 + 2
        out, _ = T.batch_norm_1d(x, *bn_args(3), "train")
        assert np.max(np.abs(out.mean(axis=(0, 2)))) <= 1e-4
        assert np.max(np.abs(out.var(axis=(0, 2)) - 1.0)) <= 1e-4

    def test_constant_channel_gives_beta(self):
        x = np.full((2, 2, 5), 3.0)
        gamma, _, mean, var = bn_args(2)
        out, _ = T.batch_norm_1d(x, gamma, np.array([0.5, -0.5]), mean, var, "train")
        assert np.allclose(out[:, 0], 0.5, atol=1e-6)
        assert np.allclose(out[:, 1], -0.5, atol=1e-6)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 8)) + 10.0
        gamma, beta, running_mean, running_var = bn_args(2)
        T.batch_norm_1d(x, gamma, beta, running_mean, running_var, "train")
        assert np.all(running_mean > 0.5)  # moved toward batch mean 10

    def test_eval_uses_running_stats(self):
        x = np.ones((1, 2, 3))
        out, _ = T.batch_norm_1d(x, *bn_args(2), "eval")
        expected = 1.0 / np.sqrt(1.0 + T.BN_EPSILON)
        assert np.allclose(out, expected)

    # a model has one dtype; x may be wider than its parameters (dropout's float64 multiplier)
    @pytest.mark.parametrize("x_dtype, stats_dtype, affine_dtype", [
        (np.float32, np.float32, np.float32), (np.float64, np.float64, np.float64),
        (np.float64, np.float32, np.float32)])
    def test_eval_bit_identical_to_formula(self, x_dtype, stats_dtype, affine_dtype):
        rng = np.random.default_rng(9)
        x = (rng.standard_normal((2, 5, 33)) * 3 + 1).astype(x_dtype)
        gamma, beta = rng.standard_normal((2, 5)).astype(affine_dtype)
        mean, var = rng.standard_normal(5).astype(stats_dtype), (0.1 + rng.random(5)).astype(stats_dtype)
        out, cache = T.batch_norm_1d(x, gamma, beta, mean, var, "eval")
        inv_std = 1.0 / np.sqrt(var + T.BN_EPSILON)
        want = gamma[None, :, None] * ((x - mean[None, :, None]) * inv_std[None, :, None]) + beta[None, :, None]
        assert cache is None
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert not np.shares_memory(out, x)
        out, _ = T.batch_norm_1d(x, gamma, beta, mean, var, "eval", out=x)
        assert out is x and np.array_equal(out, want)

    # the model path: x and grad_out may be float64 behind dropout, the rest has the model's dtype
    @pytest.mark.parametrize("x_dtype, affine_dtype, grad_dtype, mask_dtype", [
        (np.float32, np.float32, np.float32, None), (np.float64, np.float64, np.float64, None),
        (np.float32, np.float32, np.float64, None), (np.float64, np.float32, np.float64, np.float32),
        (np.float32, np.float32, np.float64, np.float32)])
    def test_train_bit_identical_to_formula(self, x_dtype, affine_dtype, grad_dtype, mask_dtype):
        rng = np.random.default_rng(10)
        x = (rng.standard_normal((3, 5, 33)) * 3 + 1).astype(x_dtype)
        gamma, beta = rng.standard_normal((2, 5)).astype(affine_dtype)
        grad_out = rng.standard_normal(x.shape).astype(grad_dtype)
        mask = None
        if mask_dtype is not None:
            mask = (np.arange(33) < np.array([33, 20, 7])[:, None, None]).astype(mask_dtype)
            grad_out = (grad_out * mask).astype(grad_dtype)
        stats = [np.zeros(5, x_dtype), np.ones(5, x_dtype)]
        out, cache = T.batch_norm_1d(x, gamma, beta, *stats, "train", mask=mask)
        grads = T.batch_norm_1d_backward(grad_out, cache)

        # the textbook formulas, one fresh array per step
        if mask is None:
            count, mean, var = float(x.size // 5), x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        else:
            count = float(mask.sum())
            mean = np.sum(x * mask, axis=(0, 2)) / count
            var = np.sum(mask * (x - mean[None, :, None]) ** 2, axis=(0, 2)) / count
        inv_std = 1.0 / np.sqrt(var + T.BN_EPSILON)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        want_out = gamma[None, :, None] * xhat + beta[None, :, None]
        grad_gamma = np.sum(grad_out * xhat, axis=(0, 2))
        grad_beta = np.sum(grad_out, axis=(0, 2))
        grad_x = (gamma[None, :, None] * inv_std[None, :, None]) * (
            grad_out - grad_beta[None, :, None] / count - xhat * grad_gamma[None, :, None] / count)
        if mask is not None:
            grad_x = grad_x * mask
        want_stats = [(0.9 * np.zeros(5, x_dtype) + 0.1 * mean).astype(x_dtype),
                      (0.9 * np.ones(5, x_dtype) + 0.1 * var).astype(x_dtype)]
        for got, want in zip((out, cache[0], *grads, *stats),
                             (want_out, xhat, grad_x, grad_gamma, grad_beta, *want_stats)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not np.shares_memory(out, x) and not np.shares_memory(grads[0], grad_out)

    def test_tiny_batch_rejected_in_train(self):
        with pytest.raises(T.ShapeError):
            T.batch_norm_1d(np.zeros((1, 2, 1)), *bn_args(2), "train")


class TestElementwise:
    def test_relu_values(self):
        assert T.relu(np.array(-2.0)) == 0.0
        assert T.relu(np.array(3.0)) == 3.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_in_place_returns_x_and_equals_the_copy(self, dtype):
        x = np.random.default_rng(8).standard_normal((2, 5, 7)).astype(dtype)
        expected = T.relu(x.copy())
        out = T.relu(x, out=x)
        assert out is x
        assert np.array_equal(out, expected)

    def test_softmax_uniform(self):
        assert np.allclose(T.softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = T.softmax(rng.standard_normal(7) * 10)
            assert abs(y.sum() - 1.0) <= 1e-6
            assert np.all(y >= 0)

    def test_softmax_extreme_logits_finite(self):
        y = T.softmax(np.array([1000.0, -1000.0, 0.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_softmax_shift_invariance(self, vals, shift):
        x = np.array(vals)
        assert np.max(np.abs(T.softmax(x) - T.softmax(x + shift))) <= 1e-6

    def test_dropout_p0_identity_both_modes(self):
        x = np.random.default_rng(7).standard_normal((3, 3))
        for mode in ("train", "eval"):
            out, mask = T.dropout(x, 0.0, np.random.default_rng(0), mode)
            assert np.array_equal(out, x)
            assert mask is None

    def test_dropout_eval_identity(self):
        x = np.ones((4, 4))
        out, _ = T.dropout(x, 0.7, np.random.default_rng(0), "eval")
        assert np.array_equal(out, x)

    def test_dropout_deterministic_given_seed(self):
        x = np.ones((10, 10))
        a, _ = T.dropout(x, 0.5, np.random.default_rng(42), "train")
        b, _ = T.dropout(x, 0.5, np.random.default_rng(42), "train")
        assert np.array_equal(a, b)

    def test_dropout_inverted_scaling(self):
        x = np.ones(10000)
        out, _ = T.dropout(x, 0.25, np.random.default_rng(8), "train")
        survivors = out[out > 0]
        assert np.allclose(survivors, 1.0 / 0.75)

    def test_dropout_bool_mask_bit_identical(self):
        # the mask is one byte per element; output and gradient equal the
        # float64 multiplier (rng.random(shape) >= p) / (1 - p) bit for bit
        rng = np.random.default_rng(11)
        x, g = rng.standard_normal((2, 3, 4, 50)).astype(np.float32)
        p = 0.3
        out, keep = T.dropout(x, p, np.random.default_rng(5), "train")
        multiplier = (np.random.default_rng(5).random(x.shape) >= p) / (1 - p)
        assert keep.dtype == bool
        for got, want in ((out, x * multiplier), (T.dropout_backward(g, keep, p), g * multiplier)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_dropout_p_one_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(np.ones(3), 1.0, np.random.default_rng(0), "train")

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_no_nan_on_finite_inputs(self, vals):
        x = np.array(vals)
        for out in (T.relu(x), T.softmax(x)):
            assert np.all(np.isfinite(out))
