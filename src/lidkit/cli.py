"""Command-line entry point: featurize / train / evaluate / predict / gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from lidkit.augment import AugmentConfig
from lidkit.audio import WavError, decode_wav
from lidkit.diagnostics import run_all_checks
from lidkit.encoder import EncoderConfig
from lidkit.evaluation import EvaluationError, Taxonomy, confusion, load_taxonomy, rollup, top1_accuracy
from lidkit.features import FeatureConfig, FeatureError, compute_mfsc
from lidkit.model import D_ATT_DEFAULT, build_model, predict
from lidkit.tensor_ops import ShapeError
from lidkit.training import (
    CheckpointError,
    TrainConfig,
    TrainError,
    atomic_write,
    check_fields,
    is_int,
    load_checkpoint,
    save_checkpoint,
    train,
)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# run configuration: one JSON document covering every stage


_SECTIONS = {"features": FeatureConfig, "encoder": EncoderConfig, "augment": AugmentConfig, "train": TrainConfig}


def load_run_config(path: str | Path | None) -> dict:
    """Read and validate a run config; an unreadable or invalid one raises CliError.

    Every key must be known, and every field must hold the JSON type its
    annotation accepts (``training.check_fields``) before its config is built.
    """
    doc = {}
    try:
        if path is not None:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise CliError(f"run config {path}: expected a JSON object")
        unknown = sorted(set(doc) - set(_SECTIONS) - {"d_att"})
        if unknown:
            raise CliError(f"run config {path}: unknown keys {unknown}")
        d_att = doc.get("d_att", D_ATT_DEFAULT)
        if not is_int(d_att) or d_att < 1:
            raise CliError(f"run config {path}: d_att must be an integer >= 1, got {d_att!r}")
        for name, cls in _SECTIONS.items():
            check_fields(cls, doc.get(name, {}), name)
        cfg = {name: cls(**doc.get(name, {})) for name, cls in _SECTIONS.items() if name != "encoder"}
        cfg["encoder"] = EncoderConfig(**doc["encoder"]) if "encoder" in doc else EncoderConfig.tiny()
    except (OSError, ValueError, TypeError, FeatureError, ShapeError, TrainError) as exc:
        # ValueError covers malformed JSON and AugmentConfig; TypeError, a bad field type or an
        # unknown or missing key
        raise CliError(f"run config {path}: {exc}") from exc
    return {**cfg, "d_att": d_att}


def check_feature_width(fcfg: FeatureConfig, input_dim: int, owner: str) -> None:
    """Refuse, before any clip is featurized, features of a width the model does not take."""
    if fcfg.n_mels != input_dim:
        raise CliError(f"features.n_mels is {fcfg.n_mels}, but {owner} takes input_dim {input_dim}")


# ---------------------------------------------------------------------------
# manifests: one JSON object per line


def load_manifest(path: str | Path) -> list[dict]:
    """Each record is an object with a string ``audio_filepath`` (no NUL) and a non-empty string ``label``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "audio_filepath" not in rec or "label" not in rec:
            raise CliError(f"{path}:{lineno}: record needs audio_filepath and label")
        if not isinstance(rec["audio_filepath"], str) or not isinstance(rec["label"], str):
            raise CliError(f"{path}:{lineno}: audio_filepath and label must be strings")
        if not rec["label"]:
            raise CliError(f"{path}:{lineno}: empty label")
        if "\x00" in rec["audio_filepath"]:
            raise CliError(f"{path}:{lineno}: audio_filepath holds a NUL character")
        records.append(rec)
    return records


def split_manifest(records: list[dict], fraction: float, seed: int):
    """Seed-stable split by hashing utterance ids; first ``fraction`` go to train."""
    def key(rec):
        uid = Path(rec["audio_filepath"]).stem
        return hashlib.sha256(f"{seed}:{uid}".encode()).hexdigest()

    ordered = sorted(records, key=key)
    n_train = int(round(len(records) * fraction))
    return ordered[:n_train], ordered[n_train:]


def featurize_records(records: list[dict], fcfg: FeatureConfig):
    """Skip-and-log policy: returns (list of (FeatureMap, label), failures)."""
    data = []
    failures = []
    for rec in records:
        path = Path(rec["audio_filepath"])
        try:
            clip = decode_wav(path.read_bytes(), clip_id=path.stem)
            fm = compute_mfsc(clip, fcfg)
        except (OSError, WavError, FeatureError) as exc:
            failures.append({"audio_filepath": str(path), "error": str(exc)})
            continue
        data.append((fm, rec["label"]))
    return data, failures


# ---------------------------------------------------------------------------
# commands


def cmd_featurize(args) -> int:
    """Decode and featurize every clip; prints a summary and writes no file."""
    cfg = load_run_config(args.config)
    records = load_manifest(args.manifest)
    if not records:
        raise CliError("empty manifest")
    data, failures = featurize_records(records, cfg["features"])
    total_frames = sum(fm.n_frames for fm, _ in data)
    print(json.dumps({"count": len(data), "failures": failures, "total_frames": total_frames}))
    if failures:
        return 0 if args.allow_partial else 3
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    tcfg = cfg["train"] if args.seed is None else dataclasses.replace(cfg["train"], seed=args.seed)
    check_feature_width(cfg["features"], cfg["encoder"].input_dim, "the run config's encoder")

    if args.split is not None:
        records = load_manifest(args.manifest)
        train_recs, val_recs = split_manifest(records, args.split, tcfg.seed)
    else:
        train_recs = load_manifest(args.train_manifest)
        val_recs = load_manifest(args.val_manifest)

    train_labels = sorted({r["label"] for r in train_recs})
    val_labels = {r["label"] for r in val_recs}
    if not val_labels <= set(train_labels):
        raise CliError(f"validation labels not in training set: {sorted(val_labels - set(train_labels))}")

    label_idx = {lab: i for i, lab in enumerate(train_labels)}
    train_data, train_fail = featurize_records(train_recs, cfg["features"])
    val_data, val_fail = featurize_records(val_recs, cfg["features"])
    if train_fail or val_fail:
        print(f"warning: skipped {len(train_fail) + len(val_fail)} unreadable clips", file=sys.stderr)
    if not train_data or not val_data:
        raise CliError("no usable utterances after featurization")
    train_set = [(fm, label_idx[lab]) for fm, lab in train_data]
    val_set = [(fm, label_idx[lab]) for fm, lab in val_data]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        model = build_model(cfg["encoder"], train_labels, tcfg.seed, d_att=cfg["d_att"])
    except (ValueError, OverflowError, MemoryError) as exc:  # a size numpy cannot allocate
        raise CliError(f"cannot build the model the run config describes: {exc}") from exc
    aug = cfg["augment"] if cfg["augment"].enabled else None
    result = train(model, train_set, val_set, tcfg, aug=aug)

    model.params = result.best_params
    model.state = result.best_state
    save_checkpoint(model, out / "checkpoint.lidk")
    lines = ["epoch,lr,train_loss,val_top1"]
    for row in result.history:
        lines.append(f"{row['epoch']},{row['lr']:.8g},{row['train_loss']:.6f},{row['val_top1']:.6f}")
    atomic_write(out / "history.csv", ("\n".join(lines) + "\n").encode())
    print(json.dumps({"best_val_top1": result.best_val, "epochs": len(result.history)}))
    return 0


def build_report(predictions: list[str], labels: list[str], taxonomy: Taxonomy, known_labels: list[str]) -> dict:
    """Three-level accuracy over the utterances whose true label is known, and each known label's recall.

    ``per_class`` maps every known label, in ``known_labels`` order, to
    its count of utterances n and its recall, None when n is 0.
    """
    known_set = set(known_labels)
    known_pairs = [(p, y) for p, y in zip(predictions, labels) if y in known_set]
    report = {"n_utterances": len(labels), "n_known": len(known_pairs)}
    if known_pairs:
        kp = [p for p, _ in known_pairs]
        ky = [y for _, y in known_pairs]
        report["top1"] = {
            "language": top1_accuracy(kp, ky),
            "genus": top1_accuracy(rollup(kp, taxonomy, "genus"), rollup(ky, taxonomy, "genus")),
            "family": top1_accuracy(rollup(kp, taxonomy, "family"), rollup(ky, taxonomy, "family")),
        }
    else:
        report["top1"] = {"language": None, "genus": None, "family": None}
    hits = {label: [p == y for p, y in known_pairs if y == label] for label in known_labels}
    report["per_class"] = {label: {"n": len(h), "recall": sum(h) / len(h) if h else None} for label, h in hits.items()}
    return report


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    taxonomy = load_taxonomy(args.taxonomy)
    cfg = load_run_config(args.config)
    check_feature_width(cfg["features"], model.encoder_cfg.input_dim, "the checkpoint's encoder")
    records = load_manifest(args.manifest)
    if not records:
        raise CliError("empty manifest")
    data, failures = featurize_records(records, cfg["features"])
    if not data:
        raise CliError("no usable utterances")
    labels = [lab for _, lab in data]
    predictions = [label for label, _, _ in predict(model, [fm for fm, _ in data])]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(predictions, labels, taxonomy, model.labels)
    report["failures"] = failures
    known_cm, unknown_cm = confusion(predictions, labels, model.labels)
    atomic_write(out / "report.json", (json.dumps(report, indent=2) + "\n").encode())
    atomic_write(out / "confusion_known.csv", known_cm.to_csv().encode())
    atomic_write(out / "confusion_unknown.csv", unknown_cm.to_csv().encode())
    print(json.dumps(report["top1"]))
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    cfg = load_run_config(args.config)
    check_feature_width(cfg["features"], model.encoder_cfg.input_dim, "the checkpoint's encoder")
    if args.wav:
        records = [{"audio_filepath": args.wav, "label": None}]
    else:
        records = load_manifest(args.manifest)
        if not records:
            raise CliError("empty manifest")
    data, failures = featurize_records(records, cfg["features"])
    if failures:  # fail fast: one bad clip and nothing is printed
        raise CliError(f"{failures[0]['audio_filepath']}: {failures[0]['error']}")

    for (fm, _), (label, posterior, attention) in zip(data, predict(model, [fm for fm, _ in data])):
        print(json.dumps({
            "id": fm.id,
            "label": label,
            "posterior": {lab: float(p) for lab, p in zip(model.labels, posterior)},
            "attention": [float(w) for w in attention],
        }))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all_checks(seed=args.seed)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:28s} max_rel_err={r.max_rel_err:.3e} tol={r.tolerance:.0e} {status}")
        ok = ok and r.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lidkit", description="Spoken language identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="decode and featurize every clip of a manifest; print a summary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--allow-partial", action="store_true", help="exit 0 even if some clips fail")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", help="single manifest, used with --split")
    p.add_argument("--train-manifest")
    p.add_argument("--val-manifest")
    p.add_argument("--split", type=float, default=None, help="train fraction, e.g. 0.8")
    p.add_argument("--seed", type=int, default=None, help="overrides train.seed of the run config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict labels for wav files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav")
    p.add_argument("--manifest")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; any typed input error ends here as one ``error:`` line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train" and args.split is None and not (args.train_manifest and args.val_manifest):
            raise CliError("provide --train-manifest/--val-manifest or --manifest with --split")
        if args.command == "train" and args.split is not None and not args.manifest:
            raise CliError("--split requires --manifest")
        if args.command == "train" and args.split is not None and not 0 < args.split < 1:
            raise CliError(f"--split must lie strictly between 0 and 1, got {args.split}")
        if args.command == "train" and args.manifest and (args.train_manifest or args.val_manifest):
            raise CliError("provide --manifest with --split or --train-manifest/--val-manifest, not both")
        if args.command == "predict" and bool(args.wav) == bool(args.manifest):
            raise CliError("provide either --wav or --manifest")
        if args.command == "gradcheck" and args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (CliError, OSError, WavError, FeatureError, ShapeError, TrainError, CheckpointError,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
