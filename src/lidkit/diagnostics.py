"""Finite-difference verification of every layer and the full composite.

``finite_diff_check`` is the harness: it compares analytic gradients
against 64-bit central differences.  Each check builds a scalar loss from
one primitive (or the whole encoder + pooling + cross-entropy stack) and
computes analytic gradients via the layer's backward pass.  Used by the
test suite and the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lidkit import tensor_ops as T
from lidkit.encoder import EncoderConfig, build_encoder, encoder_state_shapes
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
    gradients are compared absolutely.
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
            worst = max(worst, err)
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


def check_relu(rng: np.random.Generator) -> CheckResult:
    x = _away_from_kinks(rng.standard_normal((3, 4)))
    probe = rng.standard_normal((3, 4))

    def loss(d):
        return float(np.sum(probe * T.relu(d["x"])))

    def grads(d):
        return {"x": T.relu_backward(probe, d["x"])}

    return CheckResult("relu", finite_diff_check(loss, grads, {"x": x}), ELEMENTWISE_TOL)


def check_dropout(rng: np.random.Generator) -> CheckResult:
    x = rng.standard_normal((3, 4))
    probe = rng.standard_normal((3, 4))
    mask_rng_seed = int(rng.integers(0, 2**32))
    _, mask = T.dropout(x, 0.4, np.random.default_rng(mask_rng_seed), "train")

    def loss(d):
        return float(np.sum(probe * d["x"] * mask))  # fixed mask: dropout is linear

    def grads(d):
        return {"x": T.dropout_backward(probe, mask)}

    return CheckResult("dropout", finite_diff_check(loss, grads, {"x": x}), ELEMENTWISE_TOL)


def check_conv_depthwise(rng: np.random.Generator) -> CheckResult:
    inputs = {"x": rng.standard_normal((2, 3, 6)), "k": rng.standard_normal((3, 5))}
    probe = rng.standard_normal((2, 3, 6))

    def loss(d):
        return float(np.sum(probe * T.conv1d_depthwise(d["x"], d["k"])))

    def grads(d):
        gx, gk = T.conv1d_depthwise_backward(probe, d["x"], d["k"])
        return {"x": gx, "k": gk}

    return CheckResult("conv1d_depthwise", finite_diff_check(loss, grads, inputs), ELEMENTWISE_TOL)


def check_conv_pointwise(rng: np.random.Generator) -> CheckResult:
    inputs = {
        "x": rng.standard_normal((2, 3, 5)),
        "w": rng.standard_normal((4, 3)),
        "b": rng.standard_normal(4),
    }
    probe = rng.standard_normal((2, 4, 5))

    def loss(d):
        return float(np.sum(probe * T.conv1d_pointwise(d["x"], d["w"], d["b"])))

    def grads(d):
        gx, gw, gb = T.conv1d_pointwise_backward(probe, d["x"], d["w"])
        return {"x": gx, "w": gw, "b": gb}

    return CheckResult("conv1d_pointwise", finite_diff_check(loss, grads, inputs), ELEMENTWISE_TOL)


def check_batch_norm(rng: np.random.Generator) -> CheckResult:
    inputs = {
        "x": rng.standard_normal((2, 3, 4)),
        "gamma": 0.5 + rng.random(3),
        "beta": rng.standard_normal(3),
    }
    probe = rng.standard_normal((2, 3, 4))

    def run(d):
        return T.batch_norm_1d(d["x"], d["gamma"], d["beta"], np.zeros(3), np.ones(3), "train")

    def loss(d):
        out, _ = run(d)
        return float(np.sum(probe * out))

    def grads(d):
        _, cache = run(d)
        gx, gg, gb = T.batch_norm_1d_backward(probe, cache)
        return {"x": gx, "gamma": gg, "beta": gb}

    return CheckResult("batch_norm_1d", finite_diff_check(loss, grads, inputs), COMPOSITE_TOL)


def check_cross_entropy(rng: np.random.Generator) -> CheckResult:
    x = rng.standard_normal(6)

    def loss(d):
        return cross_entropy(d["logits"], 2)[0]

    def grads(d):
        return {"logits": cross_entropy(d["logits"], 2)[1]}

    return CheckResult("cross_entropy", finite_diff_check(loss, grads, {"logits": x}), ELEMENTWISE_TOL)


def check_sap(rng: np.random.Generator) -> CheckResult:
    c, t, d_att = 3, 5, 4
    inputs = {
        "x": rng.standard_normal((c, t)),
        "sap.W": rng.standard_normal((d_att, c)),
        "sap.b": rng.standard_normal(d_att),
        "sap.mu": rng.standard_normal(d_att),
    }
    probe = rng.standard_normal(c)

    def loss(d):
        st = sap_forward(d["x"], d, valid_len=4)
        return float(np.dot(probe, st.embedding))

    def grads(d):
        st = sap_forward(d["x"], d, valid_len=4)
        gx, gp = sap_backward(st, d["x"], d, probe)
        return {"x": gx, **gp}

    return CheckResult("sap", finite_diff_check(loss, grads, inputs), COMPOSITE_TOL)


def _composite_loss_and_grads(cfg: EncoderConfig, d_att: int, n_classes: int, x64, valid, targets, params64):
    """Loss and analytic gradients of model_forward/model_backward on a float64 Model.

    The input batch is checked under ``"input"``, the key model_backward
    returns its gradient under.
    """
    labels = [str(i) for i in range(n_classes)]
    state_shapes = {f"enc.{k}": shape for k, shape in encoder_state_shapes(cfg).items()}

    def run(d):
        state = {k: (np.zeros if k.endswith(".mean") else np.ones)(shape) for k, shape in state_shapes.items()}
        params = {k: v for k, v in d.items() if k != "input"}
        model = Model(encoder_cfg=cfg, d_att=d_att, labels=labels, params=params, state=state)
        _, loss, cache = model_forward(model, d["input"], valid, targets=targets, mode="train")
        return model, loss, cache

    def loss(d):
        return run(d)[1]

    def grads(d):
        model, _, cache = run(d)
        return model_backward(model, cache)

    inputs = {"input": x64, **params64}
    return loss, grads, inputs


def check_composite(
    rng: np.random.Generator, corrupt: bool = False, cfg: EncoderConfig | None = None
) -> CheckResult:
    """Tiny encoder + SAP + cross-entropy, end to end."""
    if cfg is None:
        cfg = EncoderConfig(channels=(4, 4, 4), kernel_sizes=(3, 3, 5), sub_blocks=2,
                            input_dim=5, out_channels=6, dropout_rate=0.0)
    d_att, n_classes, n, t = 3, 3, 2, 4
    enc_params, _ = build_encoder(cfg, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
    params64 = {f"enc.{k}": v for k, v in enc_params.items()}
    params64.update(
        {k: v.astype(np.float64) for k, v in
         init_sap_params(cfg.out_channels, d_att, n_classes, int(rng.integers(0, 2**31))).items()}
    )
    # non-degenerate head so the loss responds to every parameter
    params64["head.W"] = rng.standard_normal(params64["head.W"].shape) * 0.5
    x64 = rng.standard_normal((n, cfg.input_dim, t))
    valid = np.array([t, t - 1])
    targets = np.array([0, 2])
    loss, grads, inputs = _composite_loss_and_grads(cfg, d_att, n_classes, x64, valid, targets, params64)
    if corrupt:
        real = grads

        def grads(d):  # noqa: F811 - deliberate corruption for harness sensitivity tests
            g = real(d)
            g["head.b"] = g["head.b"] + 1.0
            return g

    # a 1e-4 step occasionally crosses a ReLU kink in the deep composite;
    # float64 central differences stay accurate down to ~1e-7, so confirm
    # any failure at a finer step before reporting it
    err = finite_diff_check(loss, grads, inputs, epsilon=1e-5)
    if err > COMPOSITE_TOL:
        err = min(err, finite_diff_check(loss, grads, inputs, epsilon=1e-6))
    return CheckResult("composite_encoder_sap_ce", err, COMPOSITE_TOL)


ALL_CHECKS = [
    check_relu,
    check_dropout,
    check_conv_depthwise,
    check_conv_pointwise,
    check_batch_norm,
    check_cross_entropy,
    check_sap,
]


def run_all_checks(seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = [check(rng) for check in ALL_CHECKS]
    results.append(check_composite(rng, corrupt=corrupt))
    return results
