"""Residual encoder of 1D time-channel separable convolutions.

B blocks of R sub-blocks; each sub-block is depthwise conv -> pointwise
conv -> batch norm -> ReLU -> dropout.  The block input joins via a 1x1
conv + batch norm skip projection, added before the block's final ReLU.
A prologue sub-block lifts the feature dimension into the first block and
a pointwise epilogue maps to the frame-feature width.  Stride 1 and
dilation 1 everywhere, so time length is preserved end to end.

Parameters live in a flat ordered dict (name -> array); batch-norm
running statistics live in a separate state dict with the same naming.
Train mode updates the arrays of that state dict in place and never
replaces them; eval mode leaves them bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidkit.tensor_ops import (
    ShapeError,
    batch_norm_1d,
    batch_norm_1d_backward,
    conv1d_depthwise,
    conv1d_depthwise_backward,
    conv1d_pointwise,
    conv1d_pointwise_backward,
    dropout,
    dropout_backward,
    relu,
    relu_backward,
)


@dataclass(frozen=True)
class EncoderConfig:
    channels: tuple[int, ...]
    kernel_sizes: tuple[int, ...]
    sub_blocks: int = 5
    input_dim: int = 40
    out_channels: int = 512
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))
        if len(self.channels) != len(self.kernel_sizes):
            raise ShapeError("channels and kernel_sizes must have the same length")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_sizes):
            raise ShapeError("all kernel sizes must be odd")
        if self.sub_blocks < 1 or self.input_dim < 1 or self.out_channels < 1:
            raise ShapeError("invalid encoder dimensions")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ShapeError("dropout_rate must be in [0, 1)")

    @property
    def num_blocks(self) -> int:
        return len(self.channels)

    @classmethod
    def full_size(cls) -> "EncoderConfig":
        # 15x5 layout: 5 kernel-size groups repeated 3 times, 512 channels.
        kernels = [33, 39, 51, 63, 75]
        return cls(
            channels=tuple([512] * 15),
            kernel_sizes=tuple(k for k in kernels for _ in range(3)),
            sub_blocks=5,
            out_channels=512,
        )

    @classmethod
    def tiny(cls) -> "EncoderConfig":
        # Small enough for finite-difference sweeps.
        return cls(channels=(8, 8, 8), kernel_sizes=(3, 5, 7), sub_blocks=2, out_channels=16)


def encoder_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable tensor's shape, derivable from the config alone."""
    shapes: dict[str, tuple[int, ...]] = {}

    def sep(prefix: str, c_in: int, c_out: int, k: int):
        shapes[f"{prefix}.dw"] = (c_in, k)
        shapes[f"{prefix}.pw_w"] = (c_out, c_in)
        shapes[f"{prefix}.pw_b"] = (c_out,)
        shapes[f"{prefix}.bn.gamma"] = (c_out,)
        shapes[f"{prefix}.bn.beta"] = (c_out,)

    sep("prologue", cfg.input_dim, cfg.channels[0], cfg.kernel_sizes[0])
    c_in = cfg.channels[0]
    for b in range(cfg.num_blocks):
        c_out = cfg.channels[b]
        k = cfg.kernel_sizes[b]
        c = c_in
        for r in range(cfg.sub_blocks):
            sep(f"block{b}.sub{r}", c, c_out, k)
            c = c_out
        shapes[f"block{b}.res.pw_w"] = (c_out, c_in)
        shapes[f"block{b}.res.pw_b"] = (c_out,)
        shapes[f"block{b}.res.bn.gamma"] = (c_out,)
        shapes[f"block{b}.res.bn.beta"] = (c_out,)
        c_in = c_out
    shapes["epilogue.pw_w"] = (cfg.out_channels, c_in)
    shapes["epilogue.pw_b"] = (cfg.out_channels,)
    shapes["epilogue.bn.gamma"] = (cfg.out_channels,)
    shapes["epilogue.bn.beta"] = (cfg.out_channels,)
    return shapes


def encoder_state_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    shapes = {}
    for name, shape in encoder_param_shapes(cfg).items():
        if name.endswith(".bn.gamma"):
            base = name[: -len(".gamma")]
            shapes[f"{base}.mean"] = shape
            shapes[f"{base}.var"] = shape
    return shapes


def build_encoder(cfg: EncoderConfig, seed: int, dtype=np.float32):
    """Initialize parameters (He-style, variance 2/fan_in) and batch-norm state.

    Deterministic: the same seed yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in encoder_param_shapes(cfg).items():
        if name.endswith((".dw", ".pw_w")):
            fan_in = shape[1]
            params[name] = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
        elif name.endswith(".gamma"):
            params[name] = np.ones(shape, dtype=dtype)
        else:  # biases and beta
            params[name] = np.zeros(shape, dtype=dtype)
    state: dict[str, np.ndarray] = {}
    for name, shape in encoder_state_shapes(cfg).items():
        state[name] = (np.zeros if name.endswith(".mean") else np.ones)(shape, dtype=dtype)
    return params, state


def _bn_apply(x, params, state, prefix, mode, mask=None):
    return batch_norm_1d(x, params[f"{prefix}.gamma"], params[f"{prefix}.beta"],
                         state[f"{prefix}.mean"], state[f"{prefix}.var"], mode, mask=mask)


def _valid_mask(n: int, t: int, valid_lens, dtype):
    if valid_lens is None:
        return None
    mask = np.zeros((n, 1, t), dtype=dtype)
    for i, v in enumerate(valid_lens):
        mask[i, 0, :v] = 1.0
    return mask


def _sep_forward(x, params, state, prefix, mode, rng, drop_p, mask, residual=None):
    """One separable sub-block; residual (if given) joins before the ReLU."""
    y_dw = conv1d_depthwise(x, params[f"{prefix}.dw"])
    y_pw = conv1d_pointwise(y_dw, params[f"{prefix}.pw_w"], params[f"{prefix}.pw_b"])
    y_bn, bn_cache = _bn_apply(y_pw, params, state, f"{prefix}.bn", mode, mask=mask)
    pre = y_bn if residual is None else y_bn + residual
    y = relu(pre)
    y, drop_mask = dropout(y, drop_p, rng, mode)
    if mask is not None:
        y = y * mask
    cache = (prefix, x, y_dw, pre, bn_cache, drop_mask, residual is not None)
    return y, cache


def _sep_backward(grad, cache, params, grads, mask):
    prefix, x, y_dw, pre, bn_cache, drop_mask, had_residual = cache
    if mask is not None:
        grad = grad * mask
    grad = dropout_backward(grad, drop_mask)
    grad = relu_backward(grad, pre)
    grad_res = grad if had_residual else None
    grad, g_gamma, g_beta = batch_norm_1d_backward(grad, bn_cache)
    grads[f"{prefix}.bn.gamma"] = g_gamma
    grads[f"{prefix}.bn.beta"] = g_beta
    grad, g_w, g_b = conv1d_pointwise_backward(grad, y_dw, params[f"{prefix}.pw_w"])
    grads[f"{prefix}.pw_w"] = g_w
    grads[f"{prefix}.pw_b"] = g_b
    grad, g_k = conv1d_depthwise_backward(grad, x, params[f"{prefix}.dw"])
    grads[f"{prefix}.dw"] = g_k
    return grad, grad_res


def encoder_forward(
    cfg: EncoderConfig,
    params: dict[str, np.ndarray],
    state: dict[str, np.ndarray],
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    valid_lens=None,
):
    """x: (N, input_dim, T) -> (N, out_channels, T), plus cache for backward.

    Frames at t >= valid_lens[i] are zeroed after every sub-block so that
    padding cannot leak into valid positions through the convolutions.
    """
    if x.ndim != 3 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"expected (N, {cfg.input_dim}, T) input, got {x.shape}")
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    n, _, t = x.shape
    mask = _valid_mask(n, t, valid_lens, x.dtype)
    if mask is not None:
        x = x * mask

    caches = []
    h, c = _sep_forward(x, params, state, "prologue", mode, rng, cfg.dropout_rate, mask)
    caches.append(("sep", c))

    for b in range(cfg.num_blocks):
        block_in = h
        # skip projection: 1x1 conv + batch norm on the block input
        res = conv1d_pointwise(block_in, params[f"block{b}.res.pw_w"], params[f"block{b}.res.pw_b"])
        res, res_bn_cache = _bn_apply(res, params, state, f"block{b}.res.bn", mode, mask=mask)
        for r in range(cfg.sub_blocks):
            last = r == cfg.sub_blocks - 1
            h, c = _sep_forward(
                h,
                params,
                state,
                f"block{b}.sub{r}",
                mode,
                rng,
                cfg.dropout_rate,
                mask,
                residual=res if last else None,
            )
            caches.append(("sep", c))
        caches.append(("res", (b, block_in, res_bn_cache)))

    y_pw = conv1d_pointwise(h, params["epilogue.pw_w"], params["epilogue.pw_b"])
    y_bn, epi_bn_cache = _bn_apply(y_pw, params, state, "epilogue.bn", mode, mask=mask)
    out = relu(y_bn)
    if mask is not None:
        out = out * mask
    caches.append(("epilogue", (h, y_bn, epi_bn_cache)))
    return out, (caches, mask, cfg)


def encoder_backward(params: dict[str, np.ndarray], cache, grad_out: np.ndarray):
    """Exact adjoint of encoder_forward; returns (grad_input, grads dict)."""
    caches, mask, cfg = cache
    grads: dict[str, np.ndarray] = {}

    kind, (h_in, y_bn, epi_bn_cache) = caches[-1]
    assert kind == "epilogue"
    grad = grad_out * mask if mask is not None else grad_out
    grad = relu_backward(grad, y_bn)
    grad, g_gamma, g_beta = batch_norm_1d_backward(grad, epi_bn_cache)
    grads["epilogue.bn.gamma"] = g_gamma
    grads["epilogue.bn.beta"] = g_beta
    grad, g_w, g_b = conv1d_pointwise_backward(grad, h_in, params["epilogue.pw_w"])
    grads["epilogue.pw_w"] = g_w
    grads["epilogue.pw_b"] = g_b

    idx = len(caches) - 2
    for b in reversed(range(cfg.num_blocks)):
        kind, (bb, block_in, res_bn_cache) = caches[idx]
        assert kind == "res" and bb == b
        idx -= 1
        grad_res_out = None
        for r in reversed(range(cfg.sub_blocks)):
            kind, c = caches[idx]
            idx -= 1
            grad, g_res = _sep_backward(grad, c, params, grads, mask)
            if g_res is not None:
                grad_res_out = g_res
        # skip-path adjoint: batch norm then 1x1 conv on the block input
        g_res, g_gamma, g_beta = batch_norm_1d_backward(grad_res_out, res_bn_cache)
        grads[f"block{b}.res.bn.gamma"] = g_gamma
        grads[f"block{b}.res.bn.beta"] = g_beta
        g_res, g_w, g_b = conv1d_pointwise_backward(g_res, block_in, params[f"block{b}.res.pw_w"])
        grads[f"block{b}.res.pw_w"] = g_w
        grads[f"block{b}.res.pw_b"] = g_b
        grad = grad + g_res

    kind, c = caches[idx]
    assert kind == "sep" and c[0] == "prologue"
    grad, _ = _sep_backward(grad, c, params, grads, mask)
    if mask is not None:
        grad = grad * mask
    return grad, grads
