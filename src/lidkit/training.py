"""SGD training with cosine-annealed learning rate, plus binary checkpoints.

All randomness (batch order, SpecAugment, dropout) derives from
(seed, epoch, step) counters, so a run is reproducible from its seed and
a resumed run's parameters, running statistics and step continue
bit-identically to an uninterrupted run's.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from lidkit.augment import AugmentConfig, apply_specaugment
from lidkit.encoder import EncoderConfig
from lidkit.evaluation import top1_accuracy
from lidkit.features import FeatureMap
from lidkit.model import Model, batch_from_features, model_backward, model_forward, predict, tensor_table
from lidkit.tensor_ops import ShapeError, _into

CHECKPOINT_MAGIC = b"LIDK"
CHECKPOINT_VERSION = 1


class TrainError(Exception):
    pass


class NonFiniteGradientError(TrainError):
    """A gradient contained NaN/Inf; the update step was refused."""


class CheckpointError(Exception):
    pass


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what a config field accepts from JSON, by its annotation; a bool is no number, and a float
# field's number must be finite as a float (NaN fails the comparison, a huge integer exceeds it)
FIELD_RULES = {
    "int": ("an integer", is_int),
    "int | None": ("an integer or null", lambda v: v is None or is_int(v)),
    "float": ("a finite number", lambda v: (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v))),
}


def check_fields(cls, values, section: str) -> None:
    """Raise TypeError unless ``values`` is a dict whose fields of ``cls`` hold what their annotations accept.

    Run before ``cls(**values)``, so ``__post_init__`` only ever compares
    numbers; unknown keys are left to the constructor.
    """
    if not isinstance(values, dict):
        raise TypeError(f"{section} must be a JSON object, got {values!r}")
    for field in fields(cls):
        what, accepts = FIELD_RULES[field.type]
        if field.name in values and not accepts(values[field.name]):
            raise TypeError(f"{section}.{field.name} must be {what}, got {values[field.name]!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    lr_max: float = 0.005
    lr_min: float = 1e-4
    seed: int = 0
    patience: int = 10
    total_steps: int | None = None  # default: epochs * steps_per_epoch

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainError("epochs must be >= 1")
        if not (0 < self.lr_min < self.lr_max):
            raise TrainError("need 0 < lr_min < lr_max")
        if self.batch_size < 2:
            raise TrainError("batch_size must be >= 2 (batch-norm precondition)")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")
        if self.patience < 0:
            raise TrainError(f"patience must be >= 0, got {self.patience}")
        if self.total_steps is not None and self.total_steps < 1:
            raise TrainError(f"total_steps must be >= 1 or null, got {self.total_steps}")


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at total_steps."""
    if total_steps < 1:
        raise TrainError("total_steps must be >= 1")
    if not (0 <= step <= total_steps):
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> dict[str, np.ndarray]:
    """Plain SGD: p <- p - lr * g, rounded to p's dtype.  Refuses non-finite gradients.

    Every gradient is checked before any parameter changes.  The
    difference is built in the buffer of lr * g when that rounds as out
    of place would, so each tensor costs one temporary, not two.
    """
    if lr < 0:
        raise TrainError("lr must be nonnegative")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise TrainError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name!r}; step refused")
    for name, p in params.items():
        u = lr * grads[name]
        u = np.subtract(p, u, out=_into(u, p, u))
        params[name] = u.astype(p.dtype, copy=False)
    return params


# ---------------------------------------------------------------------------
# checkpoints: magic, u32 version, u64 header length, JSON header, f32 blobs


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write ``data`` beside ``path`` first, then rename it over ``path``."""
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _header_tensors(table) -> list[dict]:
    return [{"name": name, "shape": list(shape), "kind": kind} for name, shape, kind in table]


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Atomic write of the tensors of ``tensor_table``; save -> load -> save is byte-identical."""
    table = tensor_table(model.encoder_cfg, model.d_att, model.n_classes)
    header = {
        "encoder": asdict(model.encoder_cfg),
        "d_att": model.d_att,
        "labels": model.labels,
        "step": model.step,
        "tensors": _header_tensors(table),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    by_kind = {"param": model.params, "state": model.state}
    blobs = b"".join(np.ascontiguousarray(by_kind[kind][name], dtype="<f4").tobytes() for name, _, kind in table)
    payload = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes + blobs
    atomic_write(path, payload)


def load_checkpoint(path: str | Path) -> Model:
    """Read a checkpoint whose header lists exactly the tensors ``tensor_table`` gives for its config."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a LIDK checkpoint")
    version, header_len = struct.unpack_from("<IQ", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(data) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[16 : 16 + header_len].decode("utf-8"))
        check_fields(EncoderConfig, header["encoder"], "encoder")
        cfg = EncoderConfig(**header["encoder"])
        d_att, labels, step, entries = header["d_att"], header["labels"], header["step"], header["tensors"]
        if not (is_int(d_att) and d_att >= 1 and is_int(step) and isinstance(labels, list)
                and all(isinstance(lab, str) for lab in labels) and len(set(labels)) == len(labels)
                and isinstance(entries, list)):
            raise TypeError("d_att must be an integer >= 1, step an integer, labels a list of distinct "
                            "strings and tensors a list")
    except (KeyError, TypeError, ValueError, OverflowError, ShapeError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CheckpointError(f"{path}: corrupt header: {exc!r}") from exc
    table = tensor_table(cfg, d_att, len(labels))
    # compared as JSON text, so that 2.0 or true cannot stand in for an integer
    for i, (entry, want) in enumerate(zip_longest(entries, _header_tensors(table))):
        entry, want = json.dumps(entry, sort_keys=True), json.dumps(want, sort_keys=True)
        if entry != want:
            raise CheckpointError(f"{path}: tensor {i} is {entry}, the header's config needs {want}")

    blob = data[16 + header_len :]
    expected = sum(math.prod(shape) for _, shape, _ in table) * 4
    if len(blob) != expected:
        raise CheckpointError(f"{path}: blob section holds {len(blob)} bytes, header declares {expected}")

    model = Model(encoder_cfg=cfg, d_att=d_att, labels=labels, params={}, state={}, step=step)
    by_kind = {"param": model.params, "state": model.state}
    offset = 0
    for name, shape, kind in table:
        count = math.prod(shape)
        by_kind[kind][name] = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        offset += count * 4
    return model


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    history: list[dict]  # per-epoch: epoch, lr, train_loss, val_top1
    best_val: float
    best_params: dict[str, np.ndarray]
    best_state: dict[str, np.ndarray]


Dataset = list[tuple[FeatureMap, int]]


def _epoch_batches(data: Dataset, batch_size: int, rng: np.random.Generator) -> list[list[int]]:
    # length bucketing: sort by frame count, ties in an order drawn afresh each epoch, chunk,
    # then shuffle batch order; so clips of one length meet different clips every epoch
    perm = rng.permutation(len(data))
    order = sorted(range(len(data)), key=lambda i: (data[i][0].n_frames, perm[i]))
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(batches)
    return batches


def evaluate_top1(model: Model, data: Dataset) -> float:
    predictions = [label for label, _, _ in predict(model, [fm for fm, _ in data])]
    return top1_accuracy(predictions, [model.labels[label] for _, label in data])


def train(
    model: Model,
    train_data: Dataset,
    val_data: Dataset,
    cfg: TrainConfig,
    aug: AugmentConfig | None = None,
    start_epoch: int = 0,
    checkpoint_path: str | Path | None = None,
) -> TrainResult:
    """Train in place; returns history and the best-on-validation snapshot.

    ``start_epoch`` > 0 resumes a run whose model was restored from a
    checkpoint saved at that epoch boundary; the best score, its snapshot
    and the patience counter start afresh.
    """
    if not train_data or not val_data:
        raise TrainError("train and validation sets must be non-empty")
    n_classes = model.n_classes
    for fm, label in list(train_data) + list(val_data):
        if not (0 <= label < n_classes):
            raise TrainError(f"label index {label} outside the model's {n_classes} classes")

    steps_per_epoch = -(-len(train_data) // cfg.batch_size)  # in integers: a float quotient underflows to 0
    total_steps = cfg.total_steps if cfg.total_steps is not None else cfg.epochs * steps_per_epoch

    history: list[dict] = []
    best_val = -1.0
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_state = {k: v.copy() for k, v in model.state.items()}
    epochs_since_best = 0

    for epoch in range(start_epoch, cfg.epochs):
        order_rng = np.random.default_rng([cfg.seed, 1, epoch])
        batches = _epoch_batches(train_data, cfg.batch_size, order_rng)
        epoch_loss = 0.0
        for bi, batch_idx in enumerate(batches):
            lr = cosine_lr(min(model.step, total_steps), total_steps, cfg.lr_max, cfg.lr_min)
            step_rng = np.random.default_rng([cfg.seed, 2, epoch, bi])
            maps = []
            targets = []
            for i in batch_idx:
                fm, label = train_data[i]
                if aug is not None:
                    fm = apply_specaugment(fm, aug, step_rng)
                maps.append(fm)
                targets.append(label)
            x, valid = batch_from_features(maps)
            _, loss, cache = model_forward(model, x, valid, targets=targets, mode="train", rng=step_rng)
            grads = model_backward(model, cache)
            sgd_step(model.params, grads, lr)
            del grads, cache  # so the next forward runs without this step's gradients alive
            model.step += 1
            epoch_loss += loss

        val_top1 = evaluate_top1(model, val_data)
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": epoch_loss / max(1, len(batches)),
                "val_top1": val_top1,
            }
        )
        if val_top1 > best_val:
            best_val = val_top1
            best_params = {k: v.copy() for k, v in model.params.items()}
            best_state = {k: v.copy() for k, v in model.state.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if checkpoint_path is not None:
            save_checkpoint(model, checkpoint_path)
        if epochs_since_best > cfg.patience:
            break

    return TrainResult(history=history, best_val=best_val, best_params=best_params, best_state=best_state)
