"""Confusion matrices and classification metrics.

Matrix orientation: rows = predicted class, columns = true class, so row
sums are TP+FP and column sums are TP+FN.  Metrics with a zero denominator
are reported as None ("undefined"), never 0 or NaN.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # C x C ints, [predicted][true]
    class_names: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        c = len(self.class_names)
        if self.counts.shape != (c, c):
            raise ValueError("counts must be C x C")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BinaryCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def accumulate(pairs: Sequence[Tuple[str, str]], class_names: Sequence[str]) -> ConfusionMatrix:
    names = tuple(class_names)
    index = {n: i for i, n in enumerate(names)}
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    for predicted, true in pairs:
        if predicted not in index:
            raise ValueError(f"unknown predicted label {predicted!r}")
        if true not in index:
            raise ValueError(f"unknown true label {true!r}")
        counts[index[predicted], index[true]] += 1
    return ConfusionMatrix(counts=counts, class_names=names)


def binary_counts(cm: ConfusionMatrix, class_name: str) -> BinaryCounts:
    if class_name not in cm.class_names:
        raise ValueError(f"unknown class {class_name!r}")
    c = cm.class_names.index(class_name)
    tp = int(cm.counts[c, c])
    fp = int(cm.counts[c].sum()) - tp
    fn = int(cm.counts[:, c].sum()) - tp
    tn = cm.total - tp - fp - fn
    return BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: int, den: int) -> Optional[float]:
    if den == 0:
        return None
    return num / den


def sensitivity(bc: BinaryCounts) -> Optional[float]:
    return _ratio(bc.tp, bc.tp + bc.fn)


def specificity(bc: BinaryCounts) -> Optional[float]:
    return _ratio(bc.tn, bc.tn + bc.fp)


def precision(bc: BinaryCounts) -> Optional[float]:
    return _ratio(bc.tp, bc.tp + bc.fp)


def accuracy(bc: BinaryCounts) -> Optional[float]:
    return _ratio(bc.tp + bc.tn, bc.total)


def fp_rate(bc: BinaryCounts) -> Optional[float]:
    """FP/TP as a percentage; undefined when TP = 0."""
    return _ratio(100.0 * bc.fp, bc.tp)


def fn_rate(bc: BinaryCounts) -> Optional[float]:
    """FN/TP as a percentage; undefined when TP = 0."""
    return _ratio(100.0 * bc.fn, bc.tp)


#: the per-class measures of `measures`, in its key order
MEASURES = ("sensitivity", "specificity", "precision", "accuracy")


def measures(bc: BinaryCounts) -> Dict[str, Optional[float]]:
    """The `MEASURES` of one class's counts, in that key order."""
    return dict(zip(MEASURES, (sensitivity(bc), specificity(bc), precision(bc), accuracy(bc))))


def metrics_report(cm: ConfusionMatrix) -> List[dict]:
    """One row per class, in class order; the keys are the metrics.csv header."""
    rows = []
    for name in cm.class_names:
        bc = binary_counts(cm, name)
        rows.append({"class": name, "support": bc.tp + bc.fn, **measures(bc),
                     "fp_rate_pct": fp_rate(bc), "fn_rate_pct": fn_rate(bc)})
    return rows


def topk_accuracy(rankings: Sequence[Sequence[str]], truths: Sequence[str], k: int) -> float:
    """Fraction of items whose true label appears in the first k of its ranking."""
    if len(rankings) != len(truths):
        raise ValueError("rankings and truths must align")
    if len(rankings) == 0:
        raise ValueError("empty input")
    hits = 0
    for ranking, truth in zip(rankings, truths):
        if len(ranking) < k:
            raise ValueError(f"ranking of length {len(ranking)} shorter than k={k}")
        hits += truth in ranking[:k]
    return hits / len(rankings)


# ---------------------------------------------------------------------------
# CSV output

def _csv_value(v):
    if v is None:
        return "undefined"
    if isinstance(v, float):
        return repr(float(v))
    return v


def write_rows_csv(path, rows: List[dict]) -> None:
    """Header from the first row's keys; None written as "undefined", floats
    by repr; no rows give an empty file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not rows:
            return
        fields = list(rows[0].keys())
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_value(row.get(f)) for f in fields])


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    """Figure-style layout: rows predicted (marginal TP+FP), columns true
    (marginal TP+FN)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predicted\\true"] + list(cm.class_names) + ["TP+FP"])
        for i, name in enumerate(cm.class_names):
            row = cm.counts[i]
            writer.writerow([name] + [int(v) for v in row] + [int(row.sum())])
        writer.writerow(["TP+FN"] + [int(v) for v in cm.counts.sum(axis=0)] + [cm.total])


def format_summary(rows: List[dict]) -> str:
    """The metrics_report rows as text, 4 decimals, undefined spelled out."""
    lines = [" ".join(("class", "support") + MEASURES)]
    for row in rows:
        cells = [row[k] for k in MEASURES]
        lines.append(" ".join([row["class"], str(row["support"])]
                              + [_csv_value(v if v is None else f"{v:.4f}") for v in cells]))
    return "\n".join(lines) + "\n"
