"""The gradient audit runs every line a float32 train step runs.

A line only training reaches is a line no finite-difference check
verifies, so a bug there passes ``run_all_checks``.  Lines are recorded
with ``sys.settrace`` in the modules a train step's forward and backward
pass through.
"""

import inspect
import sys

import numpy as np

from lidkit import encoder, model, sap, tensor_ops
from lidkit.diagnostics import run_all_checks
from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureMap

MODULES = (encoder, sap, tensor_ops, model)

def lines_run(fn) -> set[tuple[str, int]]:
    """(module name, line number) of every line of ``MODULES`` that fn() runs."""
    files = {inspect.getsourcefile(m): m.__name__ for m in MODULES}
    seen = set()

    def trace(frame, event, arg):
        name = files.get(frame.f_code.co_filename)
        if name is None:
            return None
        if event == "line":
            seen.add((name, frame.f_lineno))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return seen


def source_line(name: str, lineno: int) -> str:
    return inspect.getsourcelines(sys.modules[name])[0][lineno - 1].strip()


def train_step_lines() -> set[tuple[str, int]]:
    """One float32 train step of the bench layout at width 8 on two padded clips of 150 and 200 frames."""
    cfg = EncoderConfig(channels=(8,) * 5, kernel_sizes=(33, 39, 51, 63, 75), sub_blocks=1,
                        input_dim=40, out_channels=8, dropout_rate=0.1)
    net = model.build_model(cfg, [f"lang{i}" for i in range(6)], seed=0, d_att=8)
    rng = np.random.default_rng(0)
    maps = [FeatureMap(rng.standard_normal((t, 40)).astype(np.float32)) for t in (150, 200)]
    x, valid = model.batch_from_features(maps)

    def step():
        _, _, cache = model.model_forward(net, x, valid, targets=[1, 4], mode="train", rng=rng)
        model.model_backward(net, cache)

    return lines_run(step)


def test_audit_runs_every_line_a_train_step_runs():
    missed = sorted(train_step_lines() - lines_run(lambda: run_all_checks(0)))
    assert not missed, "lines a train step runs and the audit does not:\n" + "\n".join(
        f"{name}:{lineno}: {source_line(name, lineno)}" for name, lineno in missed)
