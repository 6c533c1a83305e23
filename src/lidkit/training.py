"""SGD training with cosine-annealed learning rate, plus binary checkpoints.

All randomness (batch order, SpecAugment, dropout) derives from
(seed, epoch, step) counters, so a run is reproducible from its seed and
a resumed run continues bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from lidkit.augment import AugmentConfig, apply_specaugment
from lidkit.encoder import EncoderConfig
from lidkit.features import FeatureMap
from lidkit.model import Model, batch_from_features, model_backward, model_forward, predict

CHECKPOINT_MAGIC = b"LIDK"
CHECKPOINT_VERSION = 1


class TrainError(Exception):
    pass


class NonFiniteGradientError(TrainError):
    """A gradient contained NaN/Inf; the update step was refused."""


class CheckpointError(Exception):
    pass


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
        if not (0 < self.lr_min < self.lr_max):
            raise TrainError("need 0 < lr_min < lr_max")
        if self.batch_size < 2:
            raise TrainError("batch_size must be >= 2 (batch-norm precondition)")


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at total_steps."""
    if total_steps < 1:
        raise TrainError("total_steps must be >= 1")
    if not (0 <= step <= total_steps):
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> dict[str, np.ndarray]:
    """Plain SGD: p <- p - lr * g.  Refuses non-finite gradients."""
    if lr < 0:
        raise TrainError("lr must be nonnegative")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise TrainError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name!r}; step refused")
    for name, p in params.items():
        params[name] = (p - lr * grads[name]).astype(p.dtype)
    return params


# ---------------------------------------------------------------------------
# checkpoints: magic, u32 version, u64 header length, JSON header, f32 blobs


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Atomic write; save -> load -> save is byte-identical."""
    tensors = [{"name": k, "shape": list(v.shape), "kind": "param"} for k, v in model.params.items()]
    tensors += [{"name": k, "shape": list(v.shape), "kind": "state"} for k, v in model.state.items()]
    header = {
        "encoder": asdict(model.encoder_cfg),
        "d_att": model.d_att,
        "labels": model.labels,
        "step": model.step,
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = b"".join(
        np.ascontiguousarray(v, dtype="<f4").tobytes()
        for v in list(model.params.values()) + list(model.state.values())
    )
    payload = CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)) + header_bytes + blobs
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path, expect_encoder: EncoderConfig | None = None) -> Model:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc

    cfg = EncoderConfig(**header["encoder"])
    if expect_encoder is not None and cfg != expect_encoder:
        raise CheckpointError(f"{path}: checkpoint encoder config does not match the expected config")

    blob = data[16 + header_len :]
    expected = sum(int(np.prod(t["shape"])) for t in header["tensors"]) * 4
    if len(blob) != expected:
        raise CheckpointError(f"{path}: blob section holds {len(blob)} bytes, header declares {expected}")

    params: dict[str, np.ndarray] = {}
    state: dict[str, np.ndarray] = {}
    offset = 0
    for t in header["tensors"]:
        shape = tuple(t["shape"])
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        offset += count * 4
        (params if t["kind"] == "param" else state)[t["name"]] = arr
    return Model(
        encoder_cfg=cfg,
        d_att=header["d_att"],
        labels=list(header["labels"]),
        params=params,
        state=state,
        step=header["step"],
    )


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
    # length bucketing: sort by frame count, chunk, then shuffle batch order
    order = sorted(range(len(data)), key=lambda i: (data[i][0].n_frames, i))
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(batches)
    return batches


def evaluate_top1(model: Model, data: Dataset) -> float:
    correct = 0
    for fm, label in data:
        pred, _, _ = predict(model, fm)
        if model.labels.index(pred) == label:
            correct += 1
    return correct / len(data)


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
    checkpoint saved at that epoch boundary.
    """
    if not train_data or not val_data:
        raise TrainError("train and validation sets must be non-empty")
    n_classes = model.n_classes
    for fm, label in list(train_data) + list(val_data):
        if not (0 <= label < n_classes):
            raise TrainError(f"label index {label} outside the model's {n_classes} classes")

    steps_per_epoch = math.ceil(len(train_data) / cfg.batch_size)
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
