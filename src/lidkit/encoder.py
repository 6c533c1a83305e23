"""Residual encoder of 1D time-channel separable convolutions.

B blocks of R sub-blocks; each sub-block is depthwise conv -> pointwise
conv -> batch norm -> ReLU -> dropout.  The block input joins via a 1x1
conv + batch norm skip projection, added before the block's final ReLU;
the projection runs right there, after the block's last layer, so its
output is not held through the block's depthwise convs.
A prologue sub-block lifts the feature dimension into the first block and
a pointwise epilogue maps to the frame-feature width.  Stride 1 and
dilation 1 everywhere, so time length is preserved end to end.

``encoder_blocks(cfg)`` writes that layout down once, as a list of
(layers, skip, dropout?) entries in forward order; parameter shapes, the
forward pass and the backward pass are each one loop over it.

In train mode each layer caches what its adjoint reads and cannot cheaply
rebuild: its input, batch norm's xhat and the dropout mask.  The
depthwise output, which only the pointwise weight gradient reads, is not
cached: the backward recomputes it from the cached input, one depthwise
conv per layer, and gets the forward's bits.

Parameters live in a flat ordered dict (name -> array); batch-norm
running statistics live in a separate state dict with the same naming.
Every name carries the ``enc.`` prefix it has in a model and on disk.
Train mode updates the arrays of that state dict in place and never
replaces them; eval mode leaves them bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidkit.tensor_ops import (
    ShapeError,
    _into,
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
        if not self.channels or min(self.channels) < 1:
            raise ShapeError("need at least one block, and every channel count >= 1")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_sizes):
            raise ShapeError("all kernel sizes must be odd")
        if self.sub_blocks < 1 or self.input_dim < 1 or self.out_channels < 1:
            raise ShapeError("invalid encoder dimensions")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ShapeError("dropout_rate must be in [0, 1)")

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
    blocks = [([("enc.prologue", cfg.input_dim, cfg.channels[0], cfg.kernel_sizes[0])], None, True)]
    c_in = cfg.channels[0]
    for b, (c_out, k) in enumerate(zip(cfg.channels, cfg.kernel_sizes)):
        layers = [(f"enc.block{b}.sub{r}", c_out if r else c_in, c_out, k) for r in range(cfg.sub_blocks)]
        blocks.append((layers, (f"enc.block{b}.res", c_in, c_out, 0), True))
        c_in = c_out
    blocks.append(([("enc.epilogue", c_in, cfg.out_channels, 0)], None, False))
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
    """[depthwise k ->] pointwise -> batch norm; returns (out, cache), cache None in eval mode.

    The pointwise output is fresh and no cache holds it, so eval batch norm
    normalizes it in place.  The train cache keeps the input x, not the
    depthwise output: _conv_bn_backward rebuilds that from x.
    """
    name, _, _, k = layer
    y_dw = conv1d_depthwise(x, params[f"{name}.dw"]) if k else x
    y_pw = conv1d_pointwise(y_dw, params[f"{name}.pw_w"], params[f"{name}.pw_b"])
    out, bn_cache = batch_norm_1d(y_pw, params[f"{name}.bn.gamma"], params[f"{name}.bn.beta"],
                                  state[f"{name}.bn.mean"], state[f"{name}.bn.var"], mode, mask=mask, out=y_pw)
    return out, (None if bn_cache is None else (layer, x, bn_cache))


def _conv_bn_backward(grad, cache, params, grads):
    """Adjoint of _conv_bn: fills the layer's parameter gradients, returns grad wrt x.

    The depthwise output that the weight gradient reads is recomputed from
    the cached input; conv1d_depthwise is deterministic, so it is the
    forward's, bit for bit.
    """
    (name, _, _, k), x, bn_cache = cache
    grad, grads[f"{name}.bn.gamma"], grads[f"{name}.bn.beta"] = batch_norm_1d_backward(grad, bn_cache)
    y_dw = conv1d_depthwise(x, params[f"{name}.dw"]) if k else x
    grad, grads[f"{name}.pw_w"], grads[f"{name}.pw_b"] = conv1d_pointwise_backward(
        grad, y_dw, params[f"{name}.pw_w"])
    del y_dw
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

    When some valid_lens[i] < T, frames at t >= valid_lens[i] are zeroed
    after every layer so that padding cannot leak into valid positions
    through the convolutions.  Train mode's cache holds, per layer, the
    input, batch norm's xhat, the dropout mask and the output h, from
    whose sign the ReLU adjoint reads.  Each h is the next layer's input
    (the epilogue's is the returned frames), so it costs no bytes of its
    own.  The depthwise output is not cached; encoder_backward recomputes
    it.  encoder_backward consumes the cache.  Train mode with a dropout
    rate draws its masks from ``rng``, which it then needs.  Eval mode is
    inference only: it keeps no cache and returns None in its place, so
    each layer's arrays are freed once the next layer has read them.  A
    block's skip projection is computed from the kept block input after
    the block's last layer, where its output is added; it draws no random
    numbers and owns its batch-norm state, so the result is the same as
    computing it first.
    """
    if x.ndim != 3 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"expected (N, {cfg.input_dim}, T) input, got {x.shape}")
    train = mode == "train"
    mask = None
    if valid_lens is not None and np.any(np.asarray(valid_lens) < x.shape[2]):
        mask = (np.arange(x.shape[2]) < np.asarray(valid_lens)[:, None, None]).astype(x.dtype)
        x = x * mask

    h = x
    caches = []
    for layers, skip, drop in encoder_blocks(cfg):
        block_in, skip_cache = h, None
        layer_caches = []
        for i, layer in enumerate(layers):
            # pre is batch norm's fresh output, referenced by no cache: the skip is added and
            # the ReLU applied in place
            pre, conv_cache = _conv_bn(h, params, state, layer, mode, mask)
            if skip is not None and i == len(layers) - 1:
                skip_out, skip_cache = _conv_bn(block_in, params, state, skip, mode, mask)
                pre += skip_out
                del skip_out
            h, drop_mask = dropout(relu(pre, out=pre), cfg.dropout_rate if drop else 0.0, rng, mode)
            del pre  # unless h is pre, nothing reads it now: free it before the next layer's transforms
            if mask is not None:  # h is this layer's fresh dropout or ReLU output
                h = np.multiply(h, mask, out=_into(h, h, mask))
            if train:
                layer_caches.append((conv_cache, h, drop_mask))
        if train:
            caches.append((layer_caches, skip_cache))
    return h, ((caches, mask, cfg.dropout_rate) if train else None)


def encoder_backward(params: dict[str, np.ndarray], cache, grad_out: np.ndarray):
    """Exact adjoint of a train-mode encoder_forward; returns (grad_input, grads dict).

    Consumes the cache: each layer's entry is popped, and its arrays
    freed, once its adjoint has run, so the gradients grow as the cache
    shrinks.  Each layer's depthwise output is recomputed from its cached
    input just before the pointwise adjoint reads it and freed right
    after, so only the layer being differentiated holds one.  A second
    call on the same cache raises RuntimeError.

    Padding gets no gradient, and only the input gradient is masked.
    Inside the encoder the ReLU adjoint reads h, which the forward zeroes
    on padding, so each layer's gradient is zero there before it reaches
    batch norm, and batch norm's backward masks its own output.  The
    depthwise adjoint spreads gradient back into padding; the ReLU
    adjoint of the layer below clears it again, but at the input no ReLU
    follows, hence the final mask.
    """
    caches, mask, rate = cache
    if not caches:
        raise RuntimeError("the encoder cache was already consumed by a backward pass")
    grads: dict[str, np.ndarray] = {}
    grad = grad_out
    while caches:
        layer_caches, skip_cache = caches.pop()
        grad_skip = None
        while layer_caches:
            conv_cache, h, drop_mask = layer_caches.pop()
            # where the mask and keep are 1, h > 0 exactly where the pre-ReLU sum is;
            # elsewhere h is 0, and the gradient becomes +-0 (NaN stays NaN)
            grad = relu_backward(dropout_backward(grad, drop_mask, rate), h)
            if grad_skip is None:  # the last layer comes first: its pre-ReLU grad feeds the skip
                grad_skip = grad
            grad = _conv_bn_backward(grad, conv_cache, params, grads)
        if skip_cache is not None:
            grad = grad + _conv_bn_backward(grad_skip, skip_cache, params, grads)
    if mask is not None:
        grad = grad * mask
    return grad, grads
