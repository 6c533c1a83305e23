import numpy as np

from lidkit.diagnostics import ALL_CHECKS, check_composite, run_all_checks


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


def test_corrupted_backward_detected(corrupt_backward):
    result = check_composite(np.random.default_rng(0))
    assert not result.passed
