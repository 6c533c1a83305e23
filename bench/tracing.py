"""Span tracer for the benchmark's traced runs.

The tracer replaces public lidkit functions by wrappers under the names
the calling module binds them (``lidkit.encoder.conv1d_depthwise``,
``lidkit.model.sap_forward``, ...), so the package itself is never
edited.  A wrapper reads the clock around the call and, after the clock
has stopped, reads shapes or sizes from the arguments and result; it
never copies or alters an array.  Spans stay in memory and are written
once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import KERNEL_SIZES


def _clip_seconds(clip) -> float:
    return len(clip.samples) / clip.sample_rate


def _pointwise_flops(x, weights) -> int:
    # one multiply-add per (sample, out channel, in channel, frame) of x: (N, C_in, T)
    return 2 * x.shape[0] * weights.shape[0] * weights.shape[1] * x.shape[2]


def _activation_bytes(model, x, cache) -> dict:
    """Bytes held by the arrays reachable from a model_forward cache.

    Views count once, through the array that owns their memory, and the
    model's own parameters and running statistics are left out.
    """
    skip = {id(a) for a in model.params.values()} | {id(a) for a in model.state.values()}
    owners: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [cache]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                owners[id(obj)] = obj
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    total = sum(a.nbytes for a in owners.values())
    f64 = sum(a.nbytes for a in owners.values() if a.dtype == np.float64)
    return {"bytes": total, "f64_bytes": f64, "frames": x.shape[0] * x.shape[2]}


# (span name, bindings, reader of (args, kwargs, result) -> info dict)
_WRAPS = [
    ("audio.decode_wav", ["lidkit.audio", "lidkit.cli"],
     lambda a, k, r: {"audio_s": _clip_seconds(r)}),
    ("features.compute_mfsc", ["lidkit.features", "lidkit.cli"],
     lambda a, k, r: {"audio_s": _clip_seconds(a[0])}),
    ("augment.apply_specaugment", ["lidkit.augment", "lidkit.training"], None),
    ("tensor_ops.conv1d_depthwise", ["lidkit.encoder"], lambda a, k, r: {"c_k": a[1].shape}),
    ("tensor_ops.conv1d_depthwise_backward", ["lidkit.encoder"], lambda a, k, r: {"c_k": a[2].shape}),
    ("tensor_ops.conv1d_pointwise", ["lidkit.encoder"],
     lambda a, k, r: {"flops": _pointwise_flops(a[0], a[1])}),
    ("tensor_ops.conv1d_pointwise_backward", ["lidkit.encoder"],
     lambda a, k, r: {"flops": 2 * _pointwise_flops(a[1], a[2])}),
    ("tensor_ops.batch_norm_1d", ["lidkit.encoder"], None),
    ("tensor_ops.batch_norm_1d_backward", ["lidkit.encoder"], None),
    ("tensor_ops.relu", ["lidkit.encoder"], None),
    ("tensor_ops.relu_backward", ["lidkit.encoder"], None),
    ("tensor_ops.dropout", ["lidkit.encoder"], None),
    ("tensor_ops.dropout_backward", ["lidkit.encoder"], None),
    ("encoder.encoder_forward", ["lidkit.model"], None),
    ("encoder.encoder_backward", ["lidkit.model"], None),
    ("sap.sap_forward", ["lidkit.model"], None),
    ("sap.sap_backward", ["lidkit.model"], None),
    ("sap.cross_entropy", ["lidkit.model"], None),
    ("model.model_forward", ["lidkit.model", "lidkit.training"],
     lambda a, k, r: _activation_bytes(a[0], a[1], r[2])),
    ("model.model_backward", ["lidkit.model", "lidkit.training"], None),
    ("model.batch_from_features", ["lidkit.model", "lidkit.training"], None),
    ("model.predict", ["lidkit.model", "lidkit.training", "lidkit.cli"], None),
    ("training.sgd_step", ["lidkit.training"], None),
    ("training.evaluate_top1", ["lidkit.training"], None),
    ("training.save_checkpoint", ["lidkit.training", "lidkit.cli"], None),
    ("training.load_checkpoint", ["lidkit.training", "lidkit.cli"], None),
    ("training.train", ["lidkit.cli"], None),
    ("evaluation.confusion", ["lidkit.cli"], None),
    ("cli.featurize_records", ["lidkit.cli"], None),
    ("cli.load_manifest", ["lidkit.cli"], None),
]


class Tracer:
    """Spans are lists ``[name, start, end, end_with_reads, parent, op_id, info]``.

    ``end`` stops the clock for the call itself; ``end_with_reads`` also
    covers the wrapper's reads of shapes and cache sizes, so that this
    bookkeeping is charged to no layer's self time.  A binding that is
    gone, or a reader that no longer fits its function, raises: a layer
    must not silently read as 0.

    Depthwise spans are kept apart by channel count: the ``k<K>`` metrics
    count the calls at ``block_channels``, and the ``prologue`` metrics
    the calls at ``prologue_channels``, which lift the features into the
    first block.
    """

    def __init__(self, block_channels: int, prologue_channels: int):
        self.block_channels = block_channels
        self.prologue_channels = prologue_channels
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        for name, bindings, reader in _WRAPS:
            attr = name.rsplit(".", 1)[1]
            for mod_name in bindings:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._patches.append((mod, attr, original, self._wrap(name, original, reader)))

    def _wrap(self, name, fn, reader):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if reader is not None:
                span[6] = reader(args, kwargs, result)
            span[3] = time.perf_counter()
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def write(self, path: Path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, _, parent, op_id, _info in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, op_id]) + "\n")

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics (without trace_overhead_frac)."""
        total = defaultdict(float)  # name, and for depthwise also "name.c<C>" and "name.c<C>.k<K>" -> seconds
        self_s = defaultdict(float)
        calls = defaultdict(int)
        info = defaultdict(float)  # (name, key) -> sum over calls
        for name, start, end, end_reads, parent, _, span_info in self.spans:
            total[name] += end - start
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end_reads - start
            for key, value in (span_info or {}).items():
                if key == "c_k":
                    total[f"{name}.c{value[0]}"] += end - start
                    total[f"{name}.c{value[0]}.k{value[1]}"] += end - start
                else:
                    info[name, key] += value

        def ms_per_op(seconds: float) -> float:
            return 1000.0 * seconds / n_ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "audio.decode_wav.ms_per_audio_s": ratio(
                1000.0 * total["audio.decode_wav"], info["audio.decode_wav", "audio_s"]),
            "features.compute_mfsc.ms_per_audio_s": ratio(
                1000.0 * total["features.compute_mfsc"], info["features.compute_mfsc", "audio_s"]),
            "augment.apply_specaugment.ms_per_utt": ratio(
                1000.0 * total["augment.apply_specaugment"], calls["augment.apply_specaugment"]),
        }
        for d, span in (("fwd", "tensor_ops.conv1d_depthwise"), ("bwd", "tensor_ops.conv1d_depthwise_backward")):
            dw = f"tensor_ops.conv1d_depthwise.{d}_ms"
            for k in KERNEL_SIZES:
                m[f"{dw}.k{k}"] = ms_per_op(total[f"{span}.c{self.block_channels}.k{k}"])
            m[f"{dw}.prologue"] = ms_per_op(total[f"{span}.c{self.prologue_channels}"])
        pw, pw_b = "tensor_ops.conv1d_pointwise", "tensor_ops.conv1d_pointwise_backward"
        m[f"{pw}.fwd_ms"] = ms_per_op(total[pw])
        m[f"{pw}.bwd_ms"] = ms_per_op(total[pw_b])
        m[f"{pw}.gflop_per_s"] = ratio(
            (info[pw, "flops"] + info[pw_b, "flops"]) / 1e9, total[pw] + total[pw_b])
        for op in ("batch_norm_1d", "relu", "dropout"):
            m[f"tensor_ops.{op}.fwd_ms"] = ms_per_op(total[f"tensor_ops.{op}"])
            m[f"tensor_ops.{op}.bwd_ms"] = ms_per_op(total[f"tensor_ops.{op}_backward"])
        m["encoder.encoder_forward.self_ms"] = ms_per_op(self_s["encoder.encoder_forward"])
        m["encoder.encoder_backward.self_ms"] = ms_per_op(self_s["encoder.encoder_backward"])
        for op in ("sap_forward", "sap_backward", "cross_entropy"):
            m[f"sap.{op}.ms"] = ms_per_op(total[f"sap.{op}"])
        m["sap.calls_per_step"] = ratio(calls["sap.sap_forward"], calls["model.model_forward"])
        m["model.model_forward.self_ms"] = ms_per_op(self_s["model.model_forward"])
        m["model.model_backward.self_ms"] = ms_per_op(self_s["model.model_backward"])
        m["model.batch_from_features.ms"] = ms_per_op(total["model.batch_from_features"])
        m["model.predict.self_ms"] = ms_per_op(self_s["model.predict"])
        act_bytes = info["model.model_forward", "bytes"]
        m["model.activation_bytes_per_frame"] = ratio(act_bytes, info["model.model_forward", "frames"])
        m["model.activation_float64_frac"] = ratio(info["model.model_forward", "f64_bytes"], act_bytes)
        for op in ("sgd_step", "evaluate_top1", "save_checkpoint", "load_checkpoint"):
            m[f"training.{op}.ms"] = ms_per_op(total[f"training.{op}"])
        m["training.train.self_ms"] = ms_per_op(self_s["training.train"])
        m["evaluation.confusion.ms"] = ms_per_op(total["evaluation.confusion"])
        m["cli.featurize_records.self_ms"] = ms_per_op(self_s["cli.featurize_records"])
        m["cli.load_manifest.ms"] = ms_per_op(total["cli.load_manifest"])
        return m
