import numpy as np

from lidkit import encoder, tensor_ops
from lidkit.diagnostics import ALL_CHECKS, CheckResult, check_composite, finite_diff_check, run_all_checks


def test_all_primitives_pass():
    for result in run_all_checks(seed=0):
        assert result.passed, f"{result.name}: {result.max_rel_err}"


def test_multiple_seeds():
    for seed in range(5):
        for result in run_all_checks(seed=seed):
            assert result.passed, f"seed {seed}, {result.name}: {result.max_rel_err}"


def test_one_result_per_primitive():
    results = run_all_checks(seed=1)
    assert len(results) == len(ALL_CHECKS) + 1  # plus the composite
    assert len({r.name for r in results}) == len(results)


def test_composite_passes_with_every_bank_split_unevenly(monkeypatch):
    # the composite's banks (5 and 4 channels, K 3 and 5, 3,136 or 3,456 float64 bytes of transients
    # a channel) in 3 blocks each
    monkeypatch.setattr(tensor_ops, "_BLOCK_BYTES", 6000)
    real, splits = tensor_ops._channel_blocks, []

    def recording(x, k, dtype):
        blocks = real(x, k, dtype)
        splits.append([b.stop - b.start for b in blocks])
        return blocks

    monkeypatch.setattr(tensor_ops, "_channel_blocks", recording)
    result = check_composite(np.random.default_rng(0))
    assert result.passed, result.max_rel_err
    assert splits and all(len(set(sizes)) > 1 for sizes in splits), splits


def test_composite_drops_units(monkeypatch):
    keeps = []

    def recording(x, p, rng, mode):
        out, keep = tensor_ops.dropout(x, p, rng, mode)
        keeps.append(keep)
        return out, keep

    monkeypatch.setattr(encoder, "dropout", recording)
    assert check_composite(np.random.default_rng(0)).passed
    masks = [k for k in keeps if k is not None]
    assert masks and not all(np.all(k) for k in masks)  # some unit is dropped


def test_nan_gradient_fails():
    # max() over the coordinate errors dropped a NaN: this gradient passed with error 0
    err = finite_diff_check(lambda d: float(d["x"].sum()), lambda d: {"x": np.full(3, np.nan)}, {"x": np.ones(3)})
    assert not CheckResult("nan", err, 1.0).passed
