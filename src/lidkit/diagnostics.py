"""Finite-difference verification of every layer and the full composite.

``finite_diff_check`` is the harness: it compares analytic gradients
against 64-bit central differences.  Every primitive check goes through
``_probe_check``, whose loss is a random probe's inner product with the
primitive's output, and whose gradient is the primitive's backward pass
applied to that probe.  The composite check runs the whole encoder +
pooling + cross-entropy stack, with dropout and padding, through the
model's own forward and backward.  Used by the test suite and the
``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lidkit import tensor_ops as T
from lidkit.encoder import EncoderConfig, build_encoder
from lidkit.model import Model, model_backward, model_forward
from lidkit.sap import cross_entropy, init_sap_params, sap_backward, sap_forward

ELEMENTWISE_TOL = 1e-5
COMPOSITE_TOL = 1e-3
DEFAULT_EPSILON = 1e-4


def finite_diff_check(
    loss_fn: Callable[[dict[str, np.ndarray]], float],
    grad_fn: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]],
    inputs: dict[str, np.ndarray],
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` maps the input dict to a scalar; ``grad_fn`` returns the
    analytic gradient for every key.  Inputs are cast to 64-bit first.
    The relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so near-zero
    gradients are compared absolutely; a NaN anywhere makes the result NaN,
    which fails every tolerance.
    """
    inputs = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    analytic = grad_fn(inputs)
    worst = 0.0
    for name, value in inputs.items():
        grad_a = np.asarray(analytic[name], dtype=np.float64)
        if grad_a.shape != value.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        flat = value.reshape(-1)
        ga = grad_a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss_fn(inputs)
            flat[i] = orig - epsilon
            down = loss_fn(inputs)
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(ga[i] - numeric) / max(1.0, abs(ga[i]), abs(numeric))
            worst = np.maximum(worst, err)  # max() would drop a NaN, np.maximum keeps it
    return worst


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _away_from_kinks(x: np.ndarray, eps: float = 1e-2) -> np.ndarray:
    # keep ReLU's nondifferentiable point outside the finite-difference step
    return np.where(np.abs(x) < eps, eps * np.sign(x) + (x == 0) * eps, x)


def _probe_check(name, rng, inputs, out_shape, forward, backward, tol) -> CheckResult:
    """Check ``backward(probe, d)`` against the loss ``sum(probe * forward(d))``, probe drawn after the inputs."""
    probe = rng.standard_normal(out_shape)

    def loss(d):
        return float(np.sum(probe * forward(d)))

    return CheckResult(name, finite_diff_check(loss, lambda d: backward(probe, d), inputs), tol)


def check_relu(rng: np.random.Generator) -> CheckResult:
    return _probe_check("relu", rng, {"x": _away_from_kinks(rng.standard_normal((3, 4)))}, (3, 4),
                        lambda d: T.relu(d["x"]), lambda g, d: {"x": T.relu_backward(g, d["x"])}, ELEMENTWISE_TOL)


def check_dropout(rng: np.random.Generator) -> CheckResult:
    x = rng.standard_normal((3, 4))
    seed = int(rng.integers(0, 2**32))  # every call draws the same mask: dropout is then linear

    def run(d):
        return T.dropout(d["x"], 0.4, np.random.default_rng(seed), "train")

    return _probe_check("dropout", rng, {"x": x}, (3, 4), lambda d: run(d)[0],
                        lambda g, d: {"x": T.dropout_backward(g, run(d)[1], 0.4)}, ELEMENTWISE_TOL)


def _depthwise_check(name: str, rng: np.random.Generator, t: int, k: int) -> CheckResult:
    inputs = {"x": rng.standard_normal((2, 3, t)), "k": rng.standard_normal((3, k))}
    return _probe_check(name, rng, inputs, (2, 3, t),
                        lambda d: T.conv1d_depthwise(d["x"], d["k"]),
                        lambda g, d: dict(zip(("x", "k"), T.conv1d_depthwise_backward(g, d["x"], d["k"]))),
                        ELEMENTWISE_TOL)


def check_conv_depthwise(rng: np.random.Generator) -> CheckResult:
    """T = 5 is one part-filled time block and K = 9 > T, so every window reaches the zero padding on both sides."""
    return _depthwise_check("conv1d_depthwise", rng, 5, 9)


def check_conv_depthwise_paper_width(rng: np.random.Generator) -> CheckResult:
    """The narrowest paper kernel, so the audit covers a width the paper model runs."""
    return _depthwise_check("conv1d_depthwise_k33", rng, 40, 33)


def check_conv_pointwise(rng: np.random.Generator) -> CheckResult:
    inputs = {"x": rng.standard_normal((2, 3, 5)), "w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    return _probe_check("conv1d_pointwise", rng, inputs, (2, 4, 5),
                        lambda d: T.conv1d_pointwise(d["x"], d["w"], d["b"]),
                        lambda g, d: dict(zip(("x", "w", "b"), T.conv1d_pointwise_backward(g, d["x"], d["w"]))),
                        ELEMENTWISE_TOL)


def check_batch_norm(rng: np.random.Generator) -> CheckResult:
    inputs = {"x": rng.standard_normal((2, 3, 4)), "gamma": 0.5 + rng.random(3), "beta": rng.standard_normal(3)}

    def run(d):
        return T.batch_norm_1d(d["x"], d["gamma"], d["beta"], np.zeros(3), np.ones(3), "train")

    return _probe_check("batch_norm_1d", rng, inputs, (2, 3, 4), lambda d: run(d)[0],
                        lambda g, d: dict(zip(("x", "gamma", "beta"), T.batch_norm_1d_backward(g, run(d)[1]))),
                        COMPOSITE_TOL)


def check_cross_entropy(rng: np.random.Generator) -> CheckResult:
    targets = np.array([2, 5])
    return _probe_check("cross_entropy", rng, {"logits": rng.standard_normal((2, 6))}, (2,),
                        lambda d: cross_entropy(d["logits"], targets)[0],
                        lambda g, d: {"logits": g[:, None] * cross_entropy(d["logits"], targets)[1]},
                        ELEMENTWISE_TOL)


def check_sap(rng: np.random.Generator) -> CheckResult:
    n, c, t, d_att = 2, 3, 5, 4
    valid = np.array([4, 2])
    inputs = {
        "x": rng.standard_normal((n, c, t)),
        "sap.W": rng.standard_normal((d_att, c)),
        "sap.b": rng.standard_normal(d_att),
        "sap.mu": rng.standard_normal(d_att),
    }

    def backward(g, d):
        gx, gp = sap_backward(sap_forward(d["x"], d, valid_len=valid), d["x"], d, g)
        return {"x": gx, **gp}

    return _probe_check("sap", rng, inputs, (n, c), lambda d: sap_forward(d["x"], d, valid_len=valid).embedding,
                        backward, COMPOSITE_TOL)


def check_composite(rng: np.random.Generator) -> CheckResult:
    """Tiny encoder + SAP + cross-entropy, end to end, through model_forward/model_backward on a float64 Model.

    The batch is padded (one row is a frame short) and runs with dropout:
    every evaluation draws its masks from a fresh generator of one seed,
    so all see the same units dropped.  The input batch is checked under
    ``"input"``, the key model_backward returns its gradient under.
    """
    cfg = EncoderConfig(channels=(4, 4, 4), kernel_sizes=(3, 3, 5), sub_blocks=2,
                        input_dim=5, out_channels=6, dropout_rate=0.3)
    d_att, n_classes, n, t = 3, 3, 2, 4
    labels = [str(i) for i in range(n_classes)]
    params, state = build_encoder(cfg, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
    params.update(
        {k: v.astype(np.float64) for k, v in
         init_sap_params(cfg.out_channels, d_att, n_classes, int(rng.integers(0, 2**31))).items()}
    )
    # non-degenerate head so the loss responds to every parameter
    params["head.W"] = rng.standard_normal(params["head.W"].shape) * 0.5
    x64 = rng.standard_normal((n, cfg.input_dim, t))
    valid = np.array([t, t - 1])
    targets = np.array([0, 2])
    seed = int(rng.integers(0, 2**32))

    def run(d):
        # train mode updates batch-norm state in place, so each evaluation starts from a fresh copy
        model = Model(encoder_cfg=cfg, d_att=d_att, labels=labels,
                      params={k: v for k, v in d.items() if k != "input"},
                      state={k: v.copy() for k, v in state.items()})
        _, loss, cache = model_forward(model, d["input"], valid, targets=targets, mode="train",
                                        rng=np.random.default_rng(seed))
        return model, loss, cache

    def loss(d):
        return run(d)[1]

    def grads(d):
        model, _, cache = run(d)
        return model_backward(model, cache)

    inputs = {"input": x64, **params}
    # a step of 1e-6 still crossed a ReLU kink on one draw in a hundred (error 7.9e-2, and 3.9e-9
    # at 1e-7); float64 central differences stay accurate down to ~1e-8
    err = finite_diff_check(loss, grads, inputs, epsilon=1e-7)
    return CheckResult("composite_encoder_sap_ce", err, COMPOSITE_TOL)


ALL_CHECKS = [
    check_relu,
    check_dropout,
    check_conv_depthwise,
    check_conv_depthwise_paper_width,
    check_conv_pointwise,
    check_batch_norm,
    check_cross_entropy,
    check_sap,
]


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = [check(rng) for check in ALL_CHECKS]
    results.append(check_composite(rng))
    return results
