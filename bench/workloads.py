"""The benchmark's workloads, each a closed loop with one caller.

A workload's constructor is its set-up: it generates the inputs from the
seed with ``lidkit.synthetic`` and ``lidkit.audio.encode_wav`` and builds
the model.  ``op(i)`` is the i-th timed request and returns
``(frames, result)``; ``check(i, result)`` verifies one result outside
the timed region; ``verify()`` runs, after the timed window, the checks
that need a reference.  Checks return an error message or None.

Every call into lidkit goes through a module attribute
(``model_mod.model_forward``, not a name imported from it), so that a
traced run sees it through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lidkit.audio as audio
import lidkit.augment as augment
import lidkit.cli as cli
import lidkit.features as features
import lidkit.model as model_mod
import lidkit.synthetic as synthetic
import lidkit.training as training
from lidkit.encoder import EncoderConfig


SAMPLE_RATE = 16000
KERNEL_SIZES = (33, 39, 51, 63, 75)  # one block per paper kernel size
FEATURE_DIM = features.FeatureConfig().n_mels  # the encoder's input channels
N_CLASSES = 6
DROPOUT_RATE = 0.1
PREDICT_CLIPS = 2  # distinct 20 s clips, cycled


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; BENCH is the benchmark, TOY its smoke test."""

    channels: int = 512
    d_att: int = 256
    train_clip_s: tuple[float, ...] = (1.5, 2.0)  # one batch; every batch has these lengths
    train_batches: int = 8  # distinct batches, cycled
    predict_clip_s: float = 20.0
    cli_classes: int = 4
    cli_train_per_class: int = 16
    cli_eval_per_class: int = 8
    cli_epochs: int = 4
    cli_batch_size: int = 8


BENCH = Sizes()
TOY = Sizes(channels=8, d_att=8, train_clip_s=(0.5, 0.6), train_batches=2, predict_clip_s=1.0,
            cli_classes=2, cli_train_per_class=4, cli_eval_per_class=2, cli_epochs=1, cli_batch_size=2)


def paper_width_model(sizes: Sizes, seed: int) -> model_mod.Model:
    """Paper width at reduced depth: one single-sub-block block per kernel size."""
    cfg = EncoderConfig(
        channels=(sizes.channels,) * len(KERNEL_SIZES),
        kernel_sizes=KERNEL_SIZES,
        sub_blocks=1,
        input_dim=FEATURE_DIM,
        out_channels=sizes.channels,
        dropout_rate=DROPOUT_RATE,
    )
    labels = [f"lang{i}" for i in range(N_CLASSES)]
    return model_mod.build_model(cfg, labels, seed, d_att=sizes.d_att)


def params_sha256(params: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


class Workload:
    """Defaults for the hooks a workload does not need."""

    def verify(self) -> dict[int, str]:
        return {}

    def record(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class TrainPaperWidth(Workload):
    """SGD steps: apply_specaugment -> batch_from_features -> forward -> backward -> sgd_step.

    Every batch has the same clip lengths, so each step does the same
    work and the step-time percentiles do not depend on batch order.
    """

    REF_STEPS = 2  # params_sha256 is taken after this many steps

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        rng = np.random.default_rng([seed, 0])
        fcfg = features.FeatureConfig()
        self.batches = []
        for _ in range(sizes.train_batches):
            targets = [int(c) for c in rng.integers(0, N_CLASSES, size=len(sizes.train_clip_s))]
            maps = [
                features.compute_mfsc(synthetic.make_clip(c, rng, SAMPLE_RATE, d), fcfg)
                for c, d in zip(targets, sizes.train_clip_s)
            ]
            self.batches.append((maps, targets))
        self.model = paper_width_model(sizes, seed)
        self.seed = seed
        self.aug = augment.AugmentConfig()
        self.lr = training.TrainConfig().lr_max
        self.losses: list[float] = []
        self.sha256 = None

    def op(self, i: int):
        maps, targets = self.batches[i % len(self.batches)]
        rng = np.random.default_rng([self.seed, 2, i])
        maps = [augment.apply_specaugment(fm, self.aug, rng) for fm in maps]
        x, valid = model_mod.batch_from_features(maps)
        _, loss, cache = model_mod.model_forward(self.model, x, valid, targets=targets, mode="train", rng=rng)
        grads = model_mod.model_backward(self.model, cache)
        training.sgd_step(self.model.params, grads, self.lr)
        return int(valid.sum()), loss

    def check(self, i: int, loss: float):
        self.losses.append(loss)
        if i + 1 == self.REF_STEPS:
            self.sha256 = params_sha256(self.model.params)
        return None if math.isfinite(loss) else f"step {i}: loss {loss}"

    def record(self) -> dict:
        return {"loss_trace": self.losses, "params_sha256": self.sha256, "params_sha256_after_steps": self.REF_STEPS}

    def headline(self, stats: dict) -> dict:
        return {"train_frames_per_s": (stats["frames_per_s"], "frames/s")}


class Predict20s(Workload):
    """One 20 s WAV at a time: decode_wav -> compute_mfsc -> predict, eval mode."""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        rng = np.random.default_rng([seed, 0])
        self.wavs = [
            audio.encode_wav(synthetic.make_clip(c, rng, SAMPLE_RATE, sizes.predict_clip_s).samples, SAMPLE_RATE)
            for c in range(PREDICT_CLIPS)
        ]
        self.model = paper_width_model(sizes, seed)
        self.fcfg = features.FeatureConfig()
        self.predicted: dict[int, str] = {}

    def op(self, i: int):
        clip = audio.decode_wav(self.wavs[i % len(self.wavs)])
        fm = features.compute_mfsc(clip, self.fcfg)
        label, posterior, _ = model_mod.predict(self.model, fm)
        return fm.n_frames, (label, posterior)

    def check(self, i: int, result):
        label, posterior = result
        self.predicted[i] = label
        total = float(np.sum(posterior))
        return None if abs(total - 1.0) <= 1e-5 else f"predict {i}: posterior sums to {total}"

    def verify(self) -> dict[int, str]:
        """Each label must be the argmax of eval-mode model_forward logits for its clip."""
        expected = {}
        for k, wav in enumerate(self.wavs):
            fm = features.compute_mfsc(audio.decode_wav(wav), self.fcfg)
            x, valid = model_mod.batch_from_features([fm])
            logits, _, _ = model_mod.model_forward(self.model, x, valid, mode="eval")
            expected[k] = self.model.labels[int(np.argmax(logits[0]))]
        return {
            i: f"predict {i}: label {label}, model_forward argmax {expected[i % len(self.wavs)]}"
            for i, label in self.predicted.items()
            if label != expected[i % len(self.wavs)]
        }

    def headline(self, stats: dict) -> dict:
        return {"predict_p50_ms": (stats["op_p50_ms"], "ms"), "predict_p75_ms": (stats["op_p75_ms"], "ms")}


class CliShortClips(Workload):
    """One session is ``lidkit train`` then ``lidkit evaluate``, in process, on 1 s WAVs on disk."""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.dir = work_dir
        train_recs = synthetic.write_corpus_wavs(
            synthetic.make_corpus(sizes.cli_classes, sizes.cli_train_per_class, seed=[seed, 1]), self.dir / "train")
        eval_recs = synthetic.write_corpus_wavs(
            synthetic.make_corpus(sizes.cli_classes, sizes.cli_eval_per_class, seed=[seed, 2]), self.dir / "eval")
        for name, recs in (("train.jsonl", train_recs), ("eval.jsonl", eval_recs)):
            (self.dir / name).write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        (self.dir / "taxonomy.tsv").write_text(
            "".join(f"band{c}\tgenus{c % 2}\tfamily0\n" for c in range(sizes.cli_classes)), encoding="utf-8")
        config = {"train": {"epochs": sizes.cli_epochs, "batch_size": sizes.cli_batch_size}}
        (self.dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        self.clip_frames = features.frame_count(SAMPLE_RATE, features.FeatureConfig())
        self.n_train = len(train_recs)  # the training and the validation split
        self.n_eval = len(eval_recs)
        self.train_s: dict[int, float] = {}
        self.eval_s: dict[int, float] = {}

    def op(self, i: int):
        d = self.dir
        train_argv = ["train", "--config", str(d / "config.json"), "--manifest", str(d / "train.jsonl"),
                      "--split", "0.8", "--seed", str(i), "--out", str(d / "run")]
        eval_argv = ["evaluate", "--checkpoint", str(d / "run" / "checkpoint.lidk"), "--manifest",
                     str(d / "eval.jsonl"), "--taxonomy", str(d / "taxonomy.tsv"), "--config",
                     str(d / "config.json"), "--out", str(d / "report")]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            train_rc = cli.main(train_argv)
            t1 = time.perf_counter()
            eval_rc = cli.main(eval_argv)
            t2 = time.perf_counter()
        self.train_s[i] = t1 - t0
        self.eval_s[i] = t2 - t1
        # frames through the model: each epoch trains on the training split and
        # predicts the validation split; evaluate predicts every eval clip once
        history = d / "run" / "history.csv"
        epochs = len(history.read_text(encoding="utf-8").splitlines()) - 1 if train_rc == 0 else 0
        return self.clip_frames * (epochs * self.n_train + self.n_eval), (train_rc, eval_rc)

    def check(self, i: int, result):
        train_rc, eval_rc = result
        if train_rc != 0 or eval_rc != 0:
            return f"session {i}: train exit {train_rc}, evaluate exit {eval_rc}"
        top1 = json.loads((self.dir / "report" / "report.json").read_text(encoding="utf-8")).get("top1", {})
        if any(not isinstance(top1.get(level), float) for level in ("language", "genus", "family")):
            return f"session {i}: report.json top1 rows {top1}"
        return None

    def record(self) -> dict:
        return {"cli_train_s_each": list(self.train_s.values()), "cli_evaluate_s_each": list(self.eval_s.values())}

    def headline(self, stats: dict) -> dict:
        train_s = [s for i, s in self.train_s.items() if i > 0]  # op 0 is the warm-up
        eval_s = [s for i, s in self.eval_s.items() if i > 0]
        return {
            "cli_train_s": (statistics.median(train_s), "s"),
            "cli_evaluate_utts_per_s": (self.n_eval * len(eval_s) / sum(eval_s), "utt/s"),
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "train_paper_width": TrainPaperWidth,
    "predict_20s": Predict20s,
    "cli_short_clips": CliShortClips,
}
