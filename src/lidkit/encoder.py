"""Residual encoder of 1D time-channel separable convolutions.

B blocks of R sub-blocks; each sub-block is depthwise conv -> pointwise
conv -> batch norm -> ReLU -> dropout.  The block input joins via a 1x1
conv + batch norm skip projection, added before the block's final ReLU.
A prologue sub-block lifts the feature dimension into the first block and
a pointwise epilogue maps to the frame-feature width.  Stride 1 and
dilation 1 everywhere, so time length is preserved end to end.

``encoder_blocks(cfg)`` writes that layout down once, as a list of
(layers, skip, dropout?) entries in forward order; parameter shapes, the
forward pass and the backward pass are each one loop over it.

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


def encoder_blocks(cfg: EncoderConfig) -> list:
    """The encoder's layout in forward order: one (layers, skip, dropout?) entry per block.

    A layer is (name, c_in, c_out, k): depthwise conv of width k, then
    pointwise conv, then batch norm; k = 0 means pointwise only.  The skip
    is a pointwise-only layer on the block input (or None); its output
    joins the last layer's before that layer's ReLU.
    """
    blocks = [([("prologue", cfg.input_dim, cfg.channels[0], cfg.kernel_sizes[0])], None, True)]
    c_in = cfg.channels[0]
    for b, (c_out, k) in enumerate(zip(cfg.channels, cfg.kernel_sizes)):
        layers = [(f"block{b}.sub{r}", c_out if r else c_in, c_out, k) for r in range(cfg.sub_blocks)]
        blocks.append((layers, (f"block{b}.res", c_in, c_out, 0), True))
        c_in = c_out
    blocks.append(([("epilogue", c_in, cfg.out_channels, 0)], None, False))
    return blocks


def encoder_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable tensor's shape, derivable from the config alone."""
    shapes: dict[str, tuple[int, ...]] = {}
    for layers, skip, _ in encoder_blocks(cfg):
        for name, c_in, c_out, k in layers + ([skip] if skip else []):
            if k:
                shapes[f"{name}.dw"] = (c_in, k)
            shapes[f"{name}.pw_w"] = (c_out, c_in)
            shapes[f"{name}.pw_b"] = (c_out,)
            shapes[f"{name}.bn.gamma"] = (c_out,)
            shapes[f"{name}.bn.beta"] = (c_out,)
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


def _conv_bn(x, params, state, layer, mode, mask):
    """[depthwise k ->] pointwise -> batch norm; returns (out, cache)."""
    name, _, _, k = layer
    y_dw = conv1d_depthwise(x, params[f"{name}.dw"]) if k else x
    y_pw = conv1d_pointwise(y_dw, params[f"{name}.pw_w"], params[f"{name}.pw_b"])
    out, bn_cache = batch_norm_1d(y_pw, params[f"{name}.bn.gamma"], params[f"{name}.bn.beta"],
                                  state[f"{name}.bn.mean"], state[f"{name}.bn.var"], mode, mask=mask)
    return out, (layer, x, y_dw, bn_cache)


def _conv_bn_backward(grad, cache, params, grads):
    """Adjoint of _conv_bn: fills the layer's parameter gradients, returns grad wrt x."""
    (name, _, _, k), x, y_dw, bn_cache = cache
    grad, grads[f"{name}.bn.gamma"], grads[f"{name}.bn.beta"] = batch_norm_1d_backward(grad, bn_cache)
    grad, grads[f"{name}.pw_w"], grads[f"{name}.pw_b"] = conv1d_pointwise_backward(
        grad, y_dw, params[f"{name}.pw_w"])
    if k:
        grad, grads[f"{name}.dw"] = conv1d_depthwise_backward(grad, x, params[f"{name}.dw"])
    return grad


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

    Frames at t >= valid_lens[i] are zeroed after every layer so that
    padding cannot leak into valid positions through the convolutions.
    """
    if x.ndim != 3 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"expected (N, {cfg.input_dim}, T) input, got {x.shape}")
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    mask = None
    if valid_lens is not None:
        mask = (np.arange(x.shape[2]) < np.asarray(valid_lens)[:, None, None]).astype(x.dtype)
        x = x * mask

    h = x
    caches = []
    for layers, skip, drop in encoder_blocks(cfg):
        skip_out, skip_cache = _conv_bn(h, params, state, skip, mode, mask) if skip else (None, None)
        layer_caches = []
        for i, layer in enumerate(layers):
            pre, conv_cache = _conv_bn(h, params, state, layer, mode, mask)
            if skip_out is not None and i == len(layers) - 1:
                pre = pre + skip_out
            h, drop_mask = dropout(relu(pre), cfg.dropout_rate if drop else 0.0, rng, mode)
            if mask is not None:
                h = h * mask
            layer_caches.append((conv_cache, pre, drop_mask))
        caches.append((layer_caches, skip_cache))
    return h, (caches, mask)


def encoder_backward(params: dict[str, np.ndarray], cache, grad_out: np.ndarray):
    """Exact adjoint of encoder_forward; returns (grad_input, grads dict)."""
    caches, mask = cache
    grads: dict[str, np.ndarray] = {}
    grad = grad_out
    for layer_caches, skip_cache in reversed(caches):
        grad_skip = None
        for conv_cache, pre, drop_mask in reversed(layer_caches):
            if mask is not None:
                grad = grad * mask
            grad = relu_backward(dropout_backward(grad, drop_mask), pre)
            if grad_skip is None:  # the last layer comes first: its pre-ReLU grad feeds the skip
                grad_skip = grad
            grad = _conv_bn_backward(grad, conv_cache, params, grads)
        if skip_cache is not None:
            grad = grad + _conv_bn_backward(grad_skip, skip_cache, params, grads)
    if mask is not None:
        grad = grad * mask
    return grad, grads
