"""Top-1 accuracy, hierarchical roll-up and split confusion matrices."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class Taxonomy:
    """Strict tree: language -> genus -> family."""

    entries: dict  # language -> (genus, family)

    def __post_init__(self):
        genus_family: dict[str, str] = {}
        for lang, (genus, family) in self.entries.items():
            if genus in genus_family and genus_family[genus] != family:
                raise EvaluationError(f"genus {genus!r} maps to multiple families")
            genus_family[genus] = family

    @property
    def languages(self) -> list[str]:
        return sorted(self.entries)

    @property
    def genera(self) -> list[str]:
        return sorted({g for g, _ in self.entries.values()})

    @property
    def families(self) -> list[str]:
        return sorted({f for _, f in self.entries.values()})

    def genus_of(self, language: str) -> str:
        if language not in self.entries:
            raise EvaluationError(f"unknown language {language!r}")
        return self.entries[language][0]

    def family_of(self, language: str) -> str:
        if language not in self.entries:
            raise EvaluationError(f"unknown language {language!r}")
        return self.entries[language][1]


def load_taxonomy(path: str | Path) -> Taxonomy:
    """One line per language: ``language<TAB>genus<TAB>family``; # comments."""
    entries = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise EvaluationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        lang, genus, family = parts
        if lang in entries:
            raise EvaluationError(f"{path}:{lineno}: duplicate language {lang!r}")
        entries[lang] = (genus, family)
    if not entries:
        raise EvaluationError(f"{path}: empty taxonomy")
    return Taxonomy(entries=entries)


def top1_accuracy(predictions: list[str], labels: list[str]) -> float:
    if len(predictions) != len(labels):
        raise EvaluationError("predictions and labels differ in length")
    if not predictions:
        raise EvaluationError("empty prediction list")
    return sum(p == y for p, y in zip(predictions, labels)) / len(predictions)


def rollup(predictions: list[str], taxonomy: Taxonomy, level: str) -> list[str]:
    """Replace each language label by its genus or family."""
    if level == "genus":
        return [taxonomy.genus_of(p) for p in predictions]
    if level == "family":
        return [taxonomy.family_of(p) for p in predictions]
    raise EvaluationError(f"unknown level {level!r}")


@dataclass(frozen=True)
class ConfusionMatrix:
    true_labels: list[str]
    pred_labels: list[str]
    counts: np.ndarray  # len(true_labels) x len(pred_labels), int64

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        """Trace over total; only meaningful when true labels are predictable."""
        diag = sum(
            self.counts[i, self.pred_labels.index(lab)]
            for i, lab in enumerate(self.true_labels)
            if lab in self.pred_labels
        )
        return diag / self.total if self.total else 0.0

    def row_normalized(self) -> np.ndarray:
        sums = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(sums > 0, 100.0 * self.counts / sums, 0.0)
        return pct

    def to_csv(self, normalized: bool = False) -> str:
        lines = ["true\\pred," + ",".join(self.pred_labels)]
        if normalized:
            for lab, row in zip(self.true_labels, self.row_normalized()):
                lines.append(lab + "," + ",".join(f"{v:.2f}" for v in row))
        else:
            for lab, row in zip(self.true_labels, self.counts):
                lines.append(lab + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def confusion(
    predictions: list[str], labels: list[str], known_label_set: list[str]
) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    """Split by whether the true label was in the training label set.

    Both matrices share the predicted-label axis (training labels only).
    """
    if len(predictions) != len(labels):
        raise EvaluationError("predictions and labels differ in length")
    known = list(known_label_set)
    known_set = set(known)
    for p in predictions:
        if p not in known_set:
            raise EvaluationError(f"prediction {p!r} outside the known label set")

    unknown_true = sorted({y for y in labels if y not in known_set})
    k_counts = np.zeros((len(known), len(known)), dtype=np.int64)
    u_counts = np.zeros((len(unknown_true), len(known)), dtype=np.int64)
    for p, y in zip(predictions, labels):
        col = known.index(p)
        if y in known_set:
            k_counts[known.index(y), col] += 1
        else:
            u_counts[unknown_true.index(y), col] += 1
    return (
        ConfusionMatrix(true_labels=known, pred_labels=known, counts=k_counts),
        ConfusionMatrix(true_labels=unknown_true, pred_labels=known, counts=u_counts),
    )
