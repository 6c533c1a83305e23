"""The gradient audit's power: ``run_all_checks`` must fail on every planted adjoint bug.

Each row plants one bug (a mutant, in the sense of mutation testing:
DeMillo, Lipton & Sayward 1978) by replacing one snippet of a function's
source and binding the rewritten function wherever lidkit binds the
original.  A snippet that no longer occurs exactly once fails its row,
so the table follows the code it plants bugs in.
"""

import __future__
import inspect
import sys

import pytest

from lidkit import encoder, model, sap, tensor_ops
from lidkit.diagnostics import run_all_checks


def plant(monkeypatch, module, name, old, new):
    """Bind ``module.<name>``, with ``old`` in its source replaced by ``new``, in every lidkit module."""
    real = getattr(module, name)
    source = inspect.getsource(real)
    assert source.count(old) == 1, f"{name} does not hold {old!r} exactly once"
    scope = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(real), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, vars(module), scope)
    for mod in [m for n, m in sys.modules.items() if n == "lidkit" or n.startswith("lidkit.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, scope[name])


MUTANTS = [
    # the dropout path inside the encoder
    pytest.param(encoder, "encoder_backward", "dropout_backward(grad, drop_mask, rate)", "grad",
                 id="encoder_skips_dropout_backward"),
    pytest.param(encoder, "encoder_backward", "dropout_backward(grad, drop_mask, rate)",
                 "(grad if drop_mask is None else grad * drop_mask)", id="encoder_multiplies_by_bare_keep_mask"),
    # padding
    pytest.param(encoder, "encoder_backward", "grad = grad * mask", "grad = grad", id="no_final_input_mask"),
    pytest.param(tensor_ops, "batch_norm_1d_backward", "if mask is not None:", "if False:",
                 id="bn_backward_without_its_mask"),
    pytest.param(tensor_ops, "batch_norm_1d_backward", "mask, count = cache",
                 "mask, count = cache\n    count = xhat.shape[0] * xhat.shape[2]",
                 id="bn_backward_counting_padded_frames"),
    # the skip join
    pytest.param(encoder, "encoder_backward", "_conv_bn_backward(grad_skip, skip_cache",
                 "_conv_bn_backward(grad, skip_cache", id="skip_fed_from_block_input"),
    # one adjoint each
    pytest.param(tensor_ops, "conv1d_depthwise_backward", ".sum(axis=2)",
                 ".sum(axis=2)\n        grad_k[b] = np.roll(grad_k[b], 1, axis=1)",
                 id="depthwise_grad_k_lag_off_by_one"),
    pytest.param(tensor_ops, "conv1d_depthwise_backward", "conv1d_depthwise(grad_out, kernels[:, ::-1])",
                 "conv1d_depthwise(grad_out, kernels)", id="depthwise_grad_x_with_the_unflipped_kernel"),
    pytest.param(tensor_ops, "conv1d_depthwise", "_BLOCK - 1 + k] = kernels", "_BLOCK - 1 + k] = kernels[:, ::-1]",
                 id="depthwise_toeplitz_of_the_reversed_bank"),
    pytest.param(tensor_ops, "_windows", "buf[..., k // 2 : k // 2 + t]", "buf[..., k // 2 + 1 : k // 2 + 1 + t]",
                 id="depthwise_windows_shifted_by_one_frame"),
    pytest.param(sap, "sap_backward", "gxv += grad_e[:, :, None] * wv[:, None, :]", "pass",
                 id="sap_without_direct_term"),
    pytest.param(tensor_ops, "dropout_backward", "grad_out * (keep / (1.0 - p))", "grad_out / (1.0 - p)",
                 id="dropout_backward_ignoring_keep"),
    pytest.param(tensor_ops, "relu_backward", "(x > 0)", "(x >= 0)", id="relu_adjoint_using_ge"),
    pytest.param(tensor_ops, "conv1d_pointwise_backward", "grad_out.sum(axis=(0, 2))", "grad_out[0].sum(axis=1)",
                 id="pointwise_bias_grad_over_one_utterance"),
    pytest.param(sap, "classify_backward", "grad_logits.sum(axis=0)", "grad_logits[0]",
                 id="head_b_grad_from_row_0"),
    pytest.param(sap, "cross_entropy", "grad[rows, targets] -= 1.0", "pass",
                 id="cross_entropy_grad_without_one_hot"),
    pytest.param(model, "model_backward", "grad_logits / len(grad_logits)", "grad_logits",
                 id="loss_grad_not_divided_by_n"),
    pytest.param(model, "model_backward", 'grads["input"] = grad_input',
                 'grads["input"] = grad_input\n    grads["head.b"] = grads["head.b"] + 1.0',
                 id="head_b_grad_plus_one"),
]


@pytest.mark.parametrize("module, name, old, new", MUTANTS)
def test_audit_fails_on_planted_bug(monkeypatch, module, name, old, new):
    plant(monkeypatch, module, name, old, new)
    assert not all(r.passed for r in run_all_checks(0)), f"the audit passed with {name} mutated"


def test_audit_fails_on_planted_bug_in_a_later_channel_block(monkeypatch):
    # at 1 B every channel is its own block, so a block that reads the first block's kernels shows
    monkeypatch.setattr(tensor_ops, "_BLOCK_BYTES", 1)
    plant(monkeypatch, tensor_ops, "conv1d_depthwise", "np.ascontiguousarray(toeplitz[b])",
          "np.ascontiguousarray(toeplitz[: b.stop - b.start])")
    assert not all(r.passed for r in run_all_checks(0))
