"""Smoke test of the benchmark's own code at toy sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics (or name prefixes) that must read above 0 on a workload.
FORWARD = ["tensor_ops.conv1d_depthwise.fwd_ms.", "tensor_ops.conv1d_pointwise.fwd_ms",
           "tensor_ops.conv1d_pointwise.gflop_per_s", "tensor_ops.batch_norm_1d.fwd_ms", "tensor_ops.relu.fwd_ms",
           "tensor_ops.dropout.fwd_ms", "encoder.encoder_forward.self_ms", "sap.sap_forward.ms",
           "model.model_forward.self_ms"]
POSITIVE = {
    "train_paper_width": ["tensor_ops.", "encoder.", "sap.", "model.model_", "model.batch_from_features.ms",
                          "model.activation_", "augment.apply_specaugment.ms_per_utt", "training.sgd_step.ms"],
    "predict_20s": FORWARD + ["audio.decode_wav.ms_per_audio_s", "features.compute_mfsc.ms_per_audio_s",
                              "model.predict.self_ms"],
    "cli_short_clips": ["audio.", "features.", "augment.", "sap.", "model.predict.self_ms", "training.",
                        "evaluation.", "cli.", "tensor_ops.conv1d_depthwise.fwd_ms.prologue"],
}


def test_workload_names_match_spec():
    assert WORKLOADS == list(workloads.WORKLOADS) == list(POSITIVE)


def test_tracer_refuses_a_missing_binding(monkeypatch):
    import lidkit.model

    monkeypatch.delattr(lidkit.model, "sap_forward")
    with pytest.raises(AttributeError):
        tracing.Tracer(8, workloads.FEATURE_DIM)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace, tmp_path):
    result, record, rows = run.run_workload(workload, 3, 0.0, trace, sizes=workloads.TOY, out_dir=tmp_path)

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert ("error_rate", 0.0, "frac") in rows
    assert record["src_lidkit_lines"] > 0 and record["nproc"] >= 1
    if workload == "train_paper_width":
        assert len(record["params_sha256"]) == 64 and len(record["loss_trace"]) == result["attempted"]
    if trace:
        assert (tmp_path / f"{workload}-seed3.spans.jsonl").stat().st_size > 0
        expected = [k for k in result["metrics"] if any(k.startswith(p) for p in POSITIVE[workload])]
        assert len(expected) >= len(POSITIVE[workload])
        assert [k for k in expected if not result["metrics"][k]["value"] > 0] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
