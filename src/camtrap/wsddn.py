"""Two-stream region scoring and weakly supervised training.

Region scores are the elementwise product of a recognition factor (softmax
across classes, per region) and a detection factor (softmax across regions,
per class).  Image-level scores come either from summing region scores or
from the modified rule: rank regions by their maximum class score, keep the
top K, average per class.  Training minimizes per-class binary cross-entropy
against the sum-aggregated scores with full-batch gradient descent; the
top-K rule is applied at inference only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .features import RegionFeatures

EPS = 1e-6
# rows per block of the head-gradient reduction (see _bce_loss_and_grad)
GRAD_ROW_BLOCK = 160


@dataclass
class TwoStreamHead:
    w_rec: np.ndarray  # D x C
    w_det: np.ndarray  # D x C
    class_names: Tuple[str, ...]
    loss_by_epoch: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.class_names = tuple(self.class_names)
        if self.w_rec.shape != self.w_det.shape:
            raise ValueError("recognition and detection matrices must share a shape")
        if self.w_rec.shape[1] != len(self.class_names):
            raise ValueError("column count must equal the number of classes")

    @property
    def dim(self) -> int:
        return self.w_rec.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w_rec.shape[1]


@dataclass(frozen=True)
class RegionScoreMatrix:
    scores: np.ndarray  # R x C
    recognition: np.ndarray  # R x C, rows sum to 1
    detection: np.ndarray  # R x C, columns sum to 1


def check_k(k: int, name: str = "K") -> None:
    """The one rule for top-K aggregation's K; `name` is the caller's name for it."""
    if k < 1:
        raise ValueError(f"{name} must be >= 1, got {k!r}")


@dataclass(frozen=True)
class AggregationConfig:
    k: int = 30

    def __post_init__(self):
        check_k(self.k)


@dataclass(frozen=True)
class ClassScores:
    values: np.ndarray
    class_names: Tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (len(self.class_names),):
            raise ValueError("one value per class required")


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def score_regions(rf: RegionFeatures, head: TwoStreamHead) -> RegionScoreMatrix:
    if rf.matrix.shape[1] != head.dim:
        raise ValueError(
            f"feature dim {rf.matrix.shape[1]} does not match head dim {head.dim}"
        )
    rec = _softmax(rf.matrix @ head.w_rec, -1)
    det = _softmax(rf.matrix @ head.w_det, -2)
    return RegionScoreMatrix(scores=rec * det, recognition=rec, detection=det)


def aggregate_sum(s: RegionScoreMatrix, class_names: Sequence[str]) -> ClassScores:
    values = np.clip(s.scores.sum(axis=0), EPS, 1.0 - EPS)
    return ClassScores(values=values, class_names=tuple(class_names))


def aggregate_topk(
    s: RegionScoreMatrix, class_names: Sequence[str], cfg: AggregationConfig = AggregationConfig()
) -> ClassScores:
    row_max = s.scores.max(axis=1)
    order = np.argsort(-row_max, kind="stable")  # ties -> lower region index
    k = min(cfg.k, s.scores.shape[0])
    values = s.scores[order[:k]].mean(axis=0)
    return ClassScores(values=values, class_names=tuple(class_names))


def predict_topk(cs: ClassScores, k: int) -> List[str]:
    c = len(cs.class_names)
    if not 1 <= k <= c:
        raise ValueError(f"k must lie in [1, {c}], got {k}")
    order = np.argsort(-cs.values, kind="stable")  # ties -> lower class index
    return [cs.class_names[i] for i in order[:k]]


def detect_region(s: RegionScoreMatrix, class_index: int) -> int:
    if not 0 <= class_index < s.scores.shape[1]:
        raise ValueError(f"class index {class_index} out of range")
    return int(np.argmax(s.scores[:, class_index]))


def check_train_values(epochs: int, learning_rate: float, l2: float, names=("epochs", "learning_rate", "l2")) -> None:
    """The one rule for head epochs, step size and L2; `names` are the caller's names for the three values."""
    if epochs < 1:
        raise ValueError(f"{names[0]} must be >= 1, got {epochs!r}")
    if learning_rate <= 0:
        raise ValueError(f"{names[1]} must be > 0, got {learning_rate!r}")
    if l2 < 0:
        raise ValueError(f"{names[2]} must be >= 0, got {l2!r}")


@dataclass(frozen=True)
class HeadTrainConfig:
    epochs: int = 500
    learning_rate: float = 0.5
    seed: int = 0
    l2: float = 1e-4

    def __post_init__(self):
        check_train_values(self.epochs, self.learning_rate, self.l2)


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a class-major array, bit for bit as numpy's
    pairwise sum adds a contiguous innermost float64 axis of C terms: in
    order below 8 (as numpy also sums an outer axis); up to 128, 8 running
    sums of every 8th term, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the last C % 8 terms in order; above 128, the sum of two halves,
    the first a multiple of 8 long."""
    c = a.shape[0]
    if c < 8:
        return a.sum(axis=0)
    if c > 128:
        half = c // 2 - (c // 2) % 8
        return _class_sum(a[:half]) + _class_sum(a[half:])
    tail = c - c % 8
    r = a[:tail].reshape(tail // 8, 8, *a.shape[1:]).sum(axis=0)
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[tail:]:
        s += row
    return s


def _bce_loss_and_grad(x: np.ndarray, targets: np.ndarray, a: np.ndarray, b: np.ndarray, l2: float):
    """Loss and gradients for stacked features x (N,R,D) and one-hot targets
    (N,C) through the sum-aggregated two-stream scores.

    Matrix form: with x viewed as (N·R, D) rows, one GEMM against [a | b]
    gives both streams' logits and one GEMM of the rows against [du | dv]
    gives both gradients.  That second GEMM reduces over the rows; it is
    summed over fixed blocks of GRAD_ROW_BLOCK rows, in order, because
    OpenBLAS splits one long reduction differently at different thread
    counts and the result would then depend on them in the last ulp.

    Between the GEMMs the step works class-major, on (2C, R, N) arrays, so
    every max and sum runs over an outer or middle axis: numpy does those
    as whole-slice passes, not as one short inner loop per (image, region)
    row, which made the class-last (N, R, 2C) step mostly loop overhead.
    Region sums add in order, as they did over the class-last middle axis.
    Class sums go through `_class_sum`, which pins numpy's order for an
    innermost axis; a plain outer-axis sum would round differently from
    C = 8 on.  So the loss and gradients are the class-last form's bytes
    for every N >= 2, which train_head always passes (at N = 1 numpy sums
    the region axis as its innermost).  du and dv are written through a
    transposed view of the (N, R, 2C) buffer that the gradient GEMM reads.
    """
    n, r, d = x.shape
    c = a.shape[1]
    x2 = x.reshape(n * r, d)
    uv = np.ascontiguousarray((x2 @ np.concatenate([a, b], axis=1)).reshape(n, r, 2 * c).T)
    u, v = uv[:c], uv[c:]
    p = np.exp(u - u.max(axis=0))
    p /= _class_sum(p)
    q = np.exp(v - v.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    s = p * q
    ysum = s.sum(axis=1)
    y = np.clip(ysum, EPS, 1.0 - EPS)
    t = targets.T
    loss = -(_class_sum(t * np.log(y) + (1.0 - t) * np.log(1.0 - y)).sum() / n)  # .mean()'s sum and division
    loss += 0.5 * l2 * (float((a * a).sum()) + float((b * b).sum()))

    g_y = (y - t) / (y * (1.0 - y))
    g_y = np.where((ysum < EPS) | (ysum > 1.0 - EPS), 0.0, g_y)  # clamp is flat
    ds = g_y[:, None, :]
    dp = ds * q
    dp -= _class_sum(dp * p)
    dq = ds * p
    dq -= (dq * q).sum(axis=1, keepdims=True)
    duv = np.empty((n, r, 2 * c))
    np.multiply(p, dp, out=duv.T[:c])
    np.multiply(q, dq, out=duv.T[c:])
    duv = duv.reshape(n * r, 2 * c)
    g = np.zeros((d, 2 * c))
    for i in range(0, n * r, GRAD_ROW_BLOCK):
        g += x2[i : i + GRAD_ROW_BLOCK].T @ duv[i : i + GRAD_ROW_BLOCK]
    ga = g[:, :c] / n + l2 * a
    gb = g[:, c:] / n + l2 * b
    return loss, ga, gb


def train_head(
    dataset: Sequence[Tuple[RegionFeatures, np.ndarray]],
    class_names: Sequence[str],
    cfg: HeadTrainConfig = HeadTrainConfig(),
) -> TwoStreamHead:
    """Full-batch gradient descent with seeded Glorot-uniform init.

    `dataset` pairs RegionFeatures with one-hot image labels over
    `class_names`.  All images must share a region count.
    """
    class_names = tuple(class_names)
    c = len(class_names)
    if c < 2:
        raise ValueError("need at least 2 classes")
    if not dataset:
        raise ValueError("dataset is empty")
    dims = {rf.matrix.shape[1] for rf, _ in dataset}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature dims {sorted(dims)}")
    d = dims.pop()
    counts = {rf.matrix.shape[0] for rf, _ in dataset}
    if len(counts) != 1:
        raise ValueError(f"all images must have the same region count, found {sorted(counts)}")
    targets = np.stack([t for _, t in dataset]).astype(float)
    if targets.shape[1] != c:
        raise ValueError("target width must equal the number of classes")
    present = (targets.sum(axis=0) > 0).sum()
    if present < 2:
        raise ValueError("need examples of at least 2 classes")
    x = np.stack([rf.matrix for rf, _ in dataset])

    rng = np.random.default_rng(np.uint64(cfg.seed))
    bound = np.sqrt(6.0 / (d + c))
    a = rng.uniform(-bound, bound, size=(d, c))
    b = rng.uniform(-bound, bound, size=(d, c))

    history = []
    for _ in range(cfg.epochs):
        loss, ga, gb = _bce_loss_and_grad(x, targets, a, b, cfg.l2)
        history.append(loss)
        a = a - cfg.learning_rate * ga
        b = b - cfg.learning_rate * gb
    final_loss, _, _ = _bce_loss_and_grad(x, targets, a, b, cfg.l2)
    history.append(final_loss)
    return TwoStreamHead(w_rec=a, w_det=b, class_names=class_names, loss_by_epoch=history)


def one_hot(name: str, class_names: Sequence[str]) -> np.ndarray:
    t = np.zeros(len(class_names))
    t[list(class_names).index(name)] = 1.0
    return t


# ---------------------------------------------------------------------------
# serialization

_HEAD_MAGIC = "camtrap-two-stream-head v1"


def save_head(head: TwoStreamHead, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEAD_MAGIC + "\n")
        # space-delimited CSV: names holding spaces are quoted, plain names are bare
        csv.writer(fh, delimiter=" ", lineterminator="\n").writerow(("classes",) + head.class_names)
        fh.write(f"shape {head.dim} {head.n_classes}\n")
        fh.write(" ".join(repr(float(v)) for v in head.w_rec.ravel()) + "\n")
        fh.write(" ".join(repr(float(v)) for v in head.w_det.ravel()) + "\n")


def load_head(path) -> TwoStreamHead:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _HEAD_MAGIC:
        raise ValueError(f"{path}: not a {_HEAD_MAGIC} file")
    if len(lines) < 5 or [line.split()[:1] for line in lines[1:3]] != [["classes"], ["shape"]]:
        raise ValueError(f"{path}: expected classes and shape lines, then two weight lines")
    try:
        class_names = tuple(next(csv.reader([lines[1]], delimiter=" "))[1:])
        d, c = (int(t) for t in lines[2].split()[1:])
        w_rec = np.array([float(t) for t in lines[3].split()]).reshape(d, c)
        w_det = np.array([float(t) for t in lines[4].split()]).reshape(d, c)
        return TwoStreamHead(w_rec=w_rec, w_det=w_det, class_names=class_names)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
