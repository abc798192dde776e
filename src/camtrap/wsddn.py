"""Two-stream region scoring and weakly supervised training.

Region scores are the elementwise product of a recognition factor (softmax
across classes, per region) and a detection factor (softmax across regions,
per class).  Image-level scores come either from summing region scores or
from the modified rule: rank regions by their maximum class score, keep the
top K, average per class.  Training minimizes per-class binary cross-entropy
against the sum-aggregated scores, full batch, by L-BFGS with a
backtracking Armijo line search that stops at convergence; the top-K rule
is applied at inference only.

Training runs in float32, as WSDDN's does: its step is bound by two GEMMs,
and sgemm does twice dgemm's work per SIMD lane.  Scoring stays float64.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .features import RegionFeatures
from .svm import curve_epochs

EPS = 1e-6
# rows per block of the head-gradient reduction (see _bce_step); with it the
# float32 sgemm steps give the same head bytes at 1, 2 and 3 BLAS threads,
# checked up to D 160, as the float64 ones did
GRAD_ROW_BLOCK = 160
# L-BFGS of the head fits (see _lbfgs): the curvature pairs each fit keeps,
# the relative loss decrease below which it stops, and the Armijo constant
LBFGS_MEMORY = 10
LBFGS_TOL = 1e-5
ARMIJO_C1 = 1e-4


@dataclass
class TwoStreamHead:
    """A two-stream head.  `loss_by_epoch` holds the training loss after e
    accepted iterations for each e in ``svm.curve_epochs(iterations run)``,
    so its last value is the loss at the returned weights; a loaded head
    has none."""

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


def rank_classes(rf: RegionFeatures, head: TwoStreamHead, k=None) -> List[str]:
    """The one ranking rule: the head's class names for one image, best
    first, from its region scores summed (`k` None) or top-K aggregated
    with K = k; its first n names are ``predict_topk(…, n)``."""
    s = score_regions(rf, head)
    cs = aggregate_sum(s, head.class_names) if k is None else aggregate_topk(s, head.class_names, AggregationConfig(k))
    return predict_topk(cs, head.n_classes)


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
    """A head fit's schedule: at most `epochs` + 1 loss-and-gradient
    evaluations, a first step of `learning_rate` along −g, L2 weight `l2`,
    and the seed of its Glorot-uniform init."""

    epochs: int = 500
    learning_rate: float = 0.5
    seed: int = 0
    l2: float = 1e-4

    def __post_init__(self):
        check_train_values(self.epochs, self.learning_rate, self.l2)


def _bce_step(x: np.ndarray, targets: np.ndarray, l2: float):
    """The loss-and-gradient function of K fits of one shape: stacked
    features x (K, N, R, D) and one-hot targets (K, N, C) are fixed, and
    ``loss_and_grad(w)`` maps weights w = [a | b] (K, D, 2C) to losses (K,)
    and gradients (K, D, 2C) through the sum-aggregated two-stream scores.
    The gradient is a buffer that the next call overwrites.  Every buffer
    and `l2` take the dtype of x, so the whole step runs in it: float32
    when train_heads trains, float64 in the gradient checks
    (`_bce_loss_and_grad`).

    Matrix form: with each fit's x viewed as (N·R, D) rows, one GEMM against
    its [a | b] gives both streams' logits and one GEMM of the rows against
    [du | dv] gives both gradients.  That second GEMM reduces over the rows;
    it is summed over fixed blocks of GRAD_ROW_BLOCK rows, in order, because
    OpenBLAS splits one long reduction differently at different thread
    counts and the result would then depend on them in the last ulp.
    `np.matmul` runs each GEMM once per fit, as the 2-D product would.

    Between the GEMMs the step works class-major, on (2C, R, K, N) arrays:
    the K fits' images sit side by side on the image axes, and every max
    and sum runs over an outer or middle axis, which numpy does as
    whole-slice passes, not as one short inner loop per (image, region)
    row.  Class and region sums add their terms in order, one slice after
    another, for every C and R and at every thread count.  The one
    exception is an axis that holds the array's only values, which numpy
    sums pairwise: one fit (K = 1) of one image (N = 1), which train_heads
    never passes, since a fit needs images of two classes.  No operation
    mixes two fits, so each fit gets the bytes it gets alone.

    The step lives in three buffers of 5 units (C·R·K·N values) in all,
    plus four (C, K, N) and two (K, D, 2C) ones, allocated here once and
    overwritten by every step.  `rows`, the (K, N·R, 2C) GEMM output, holds
    the logits until they are transposed into the class-major `uv`, then,
    as two (C, R, K, N) halves, the product scratch `s` and `dp`.  Each
    stream's softmax in `uv` is overwritten by its gradient (du = p·dp,
    dv = q·dq), and one transposing copy writes [du | dv] back into `rows`
    for the gradient GEMM; `dq` has an array of its own.  Allocated afresh, arrays this size went back to
    the OS between steps (glibc), and the page faults cost as much as
    lockstep saved on the default corpus.  The (C, K, N) buffers hold the
    summed scores `ysum`, their clamp `y`, y·(1−y) and the loss derivative
    `g_y`; the (K, D, 2C) ones the gradient `g`, re-zeroed each step, and
    `gw`, each row block's product, then l2·w.
    """
    k, n, r, d = x.shape
    c = targets.shape[2]
    x3 = x.reshape(k, n * r, d)
    t = targets.transpose(2, 0, 1)
    x_blocks = [(x3[:, i : i + GRAD_ROW_BLOCK].transpose(0, 2, 1), slice(i, i + GRAD_ROW_BLOCK))
                for i in range(0, n * r, GRAD_ROW_BLOCK)]
    l2 = x.dtype.type(l2)
    rows = np.empty((k, n * r, 2 * c), x.dtype)
    s, dp = rows.reshape(2, c, r, k, n)  # free once the logits are in uv
    uv = np.empty((2 * c, r, k, n), x.dtype)
    p, q = uv[:c], uv[c:]  # each stream's softmax, then its gradient
    dq = np.empty((c, r, k, n), x.dtype)
    ysum, y, y1y, g_y = np.empty((4, c, k, n), x.dtype)
    g, gw = np.empty((2, k, d, 2 * c), x.dtype)

    def loss_and_grad(w: np.ndarray):
        np.matmul(x3, w, out=rows)
        np.copyto(uv, rows.reshape(k, n, r, 2 * c).transpose(3, 2, 0, 1))
        np.subtract(p, p.max(axis=0), out=p)
        np.exp(p, out=p)
        np.divide(p, p.sum(axis=0), out=p)
        np.subtract(q, q.max(axis=1, keepdims=True), out=q)
        np.exp(q, out=q)
        np.divide(q, q.sum(axis=1, keepdims=True), out=q)
        np.multiply(p, q, out=s).sum(axis=1, out=ysum)
        np.clip(ysum, EPS, 1.0 - EPS, out=y)
        loss = -((t * np.log(y) + (1.0 - t) * np.log(1.0 - y)).sum(axis=0).sum(axis=1) / n)  # .mean()'s sums and division
        wa, wb = w[:, :, :c], w[:, :, c:]
        loss += 0.5 * l2 * ((wa * wa).reshape(k, -1).sum(axis=1) + (wb * wb).reshape(k, -1).sum(axis=1))

        np.multiply(y, np.subtract(1.0, y, out=y1y), out=y1y)
        np.divide(np.subtract(y, t, out=g_y), y1y, out=g_y)
        np.copyto(g_y, 0.0, where=(ysum < EPS) | (ysum > 1.0 - EPS))  # clamp is flat
        ds = g_y[:, None]
        np.multiply(ds, q, out=dp)
        np.subtract(dp, np.multiply(dp, p, out=s).sum(axis=0), out=dp)
        np.multiply(ds, p, out=dq)
        np.subtract(dq, np.multiply(dq, q, out=s).sum(axis=1, keepdims=True), out=dq)
        np.multiply(p, dp, out=p)
        np.multiply(q, dq, out=q)
        np.copyto(rows.reshape(k, n, r, 2 * c), uv.transpose(2, 3, 1, 0))
        g.fill(0.0)
        for xt, block in x_blocks:
            np.add(g, np.matmul(xt, rows[:, block], out=gw), out=g)
        np.divide(g, n, out=g)
        np.add(g, np.multiply(l2, w, out=gw), out=g)
        return loss, g

    return loss_and_grad


def _bce_loss_and_grad(x: np.ndarray, targets: np.ndarray, a: np.ndarray, b: np.ndarray, l2: float):
    """Loss and gradients (ga, gb) of one fit, features x (N, R, D) and
    targets (N, C) at weights a, b (D, C): `_bce_step` with K = 1, the form
    the gradient checks call."""
    c = a.shape[1]
    loss, g = _bce_step(x[None], targets[None], l2)(np.concatenate([a, b], axis=1)[None])
    return loss[0], g[0, :, :c], g[0, :, c:]


def _checked_fit(dataset, class_names) -> Tuple[Tuple[int, ...], np.ndarray]:
    """The (N, R, D, C) shape and stacked targets of one fit, after the
    checks that make it trainable."""
    c = len(class_names)
    if c < 2:
        raise ValueError("need at least 2 classes")
    if not dataset:
        raise ValueError("dataset is empty")
    dims = {rf.matrix.shape[1] for rf, _ in dataset}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature dims {sorted(dims)}")
    counts = {rf.matrix.shape[0] for rf, _ in dataset}
    if len(counts) != 1:
        raise ValueError(f"all images must have the same region count, found {sorted(counts)}")
    targets = np.stack([t for _, t in dataset]).astype(float)
    if targets.shape[1] != c:
        raise ValueError("target width must equal the number of classes")
    present = (targets.sum(axis=0) > 0).sum()
    if present < 2:
        raise ValueError("need examples of at least 2 classes")
    return (len(dataset), counts.pop(), dims.pop(), c), targets


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each fit's dot product of two (K, P) arrays, as a (K, 1) column: a
    numpy sum over its own row, never a BLAS dot, so its bytes depend
    neither on K nor on the BLAS thread count."""
    return np.add.reduce(a * b, axis=1, keepdims=True)


def _where(mask: np.ndarray):
    """A (K, 1) fit mask as a ufunc's `where`: True when it selects every
    fit, since numpy's masked loops cost about four times its plain ones."""
    return True if mask.all() else mask


def _lbfgs(loss_and_grad, w: np.ndarray, max_evals: int, learning_rate: float) -> List[List[float]]:
    """Minimize K fits' losses by L-BFGS in lockstep, from their weights w
    (K, D, 2C), which are updated in place; return each fit's loss after
    every accepted iteration, its initial loss first.

    Each fit keeps its own last LBFGS_MEMORY curvature pairs (s, y), step,
    evaluation count and stop.  Its direction is the two-loop recursion
    over its pairs, newest first, scaled by s·y / y·y of its newest pair,
    or by `learning_rate` before it has one: the first iteration steps
    `learning_rate` along −g.  Its line search tries step 1 and halves it
    until the Armijo condition f(w + t·d) <= f + ARMIJO_C1·t·g·d holds.  A
    pair is kept only when s·y > 0.  A fit stops when an accepted
    iteration lowers its loss by less than LBFGS_TOL of the loss before it,
    when its next trial's predicted decrease −t·g·d is that small, or when
    it has made `max_evals` evaluations.  One `loss_and_grad` call
    evaluates every fit; a stopped fit's weights stay frozen and its
    evaluations are not counted.  All arithmetic is in w's dtype and per
    fit: elementwise, or a sum over the fit's own row (`_row_dot`).  Each
    fit's scalars are a (K, 1) column and its masks select its rows.
    """
    k, shape = w.shape[0], w.shape
    dt = w.dtype.type
    w = w.reshape(k, -1)
    f, g = loss_and_grad(w.reshape(shape))
    f, g = f[:, None], g.reshape(k, -1).copy()
    s_hist, y_hist = np.zeros((2, LBFGS_MEMORY) + w.shape, dt)  # newest pair first
    rho = np.zeros((LBFGS_MEMORY, k, 1), dt)
    pairs = np.zeros((k, 1), int)
    gamma = np.full((k, 1), learning_rate, dt)

    def direction():
        full = pairs.min()
        valid = [True if i < full else i < pairs for i in range(pairs.max())]
        q, alphas = g.copy(), []
        for i in range(pairs.max()):
            alphas.append(rho[i] * _row_dot(s_hist[i], q))
            np.subtract(q, alphas[i] * y_hist[i], out=q, where=valid[i])
        r = gamma * q
        for i in reversed(range(pairs.max())):
            np.add(r, s_hist[i] * (alphas[i] - rho[i] * _row_dot(y_hist[i], r)), out=r, where=valid[i])
        return np.negative(r, out=r)

    d = direction()
    gd = _row_dot(g, d)
    t = np.ones((k, 1), dt)
    evals = np.ones((k, 1), int)
    running = np.ones((k, 1), bool)
    losses = [[v] for v in f[:, 0].tolist()]
    while True:
        running &= (evals < max_evals) & (-t * gd >= LBFGS_TOL * f)
        if not running.any():
            return losses
        trial = w + t * d
        f_t, g_t = loss_and_grad(trial.reshape(shape))
        f_t, g_t = f_t[:, None], g_t.reshape(k, -1)
        evals += running
        accepted = running & (f_t <= f + ARMIJO_C1 * t * gd)
        np.multiply(t, 0.5, out=t, where=running & ~accepted)
        if not accepted.any():
            continue
        s, y = trial - w, g_t - g
        sy = _row_dot(s, y)
        keep = accepted & (sy > 0)
        pairs += keep & (pairs < LBFGS_MEMORY)
        running &= ~accepted | (f - f_t >= LBFGS_TOL * f)
        on, keep = _where(accepted), _where(keep)
        for hist in (s_hist, y_hist, rho):
            np.copyto(hist[1:], hist[:-1], where=keep)
        np.copyto(s_hist[0], s, where=keep)
        np.copyto(y_hist[0], y, where=keep)
        np.divide(1, sy, out=rho[0], where=keep)
        np.divide(sy, _row_dot(y, y), out=gamma, where=keep)
        np.copyto(w, trial, where=on)
        np.copyto(g, g_t, where=on)
        np.copyto(f, f_t, where=on)
        np.copyto(t, 1, where=on)
        for j in np.flatnonzero(accepted):
            losses[j].append(float(f[j, 0]))
        d = direction()  # unchanged for a fit still in its line search
        gd = _row_dot(g, d)


def train_heads(fits, epochs: int, learning_rate: float, l2: float) -> List[TwoStreamHead]:
    """One head per fit `(dataset, class_names, seed)`, in order, each
    byte-identical to ``train_head(dataset, class_names,
    HeadTrainConfig(epochs, learning_rate, seed, l2))``.

    The schedule is checked once and every fit before any step.  Then the
    fits of one (N, R, D, C) shape run in lockstep, groups in order of first
    appearance: each evaluation of a group's K fits is one `_bce_step` call
    on their stacked features, and `_lbfgs` fits them from their seeded
    Glorot-uniform inits.  Each fit keeps its own seed, class names, step
    and stop, and makes at most `epochs` + 1 evaluations; `learning_rate`
    is the length of its first step along −g.  Its curve is its loss after
    e accepted iterations for each e in ``svm.curve_epochs(iterations
    run)``.

    Training runs in float32: features and targets are cast while they are
    stacked, the float64 Glorot draws are rounded, and every evaluation,
    step and L-BFGS update is float32.  Each head holds its float32 weights
    as float64 and its curve as Python floats, so scoring and head files
    stay float64.
    """
    check_train_values(epochs, learning_rate, l2)
    checked = [_checked_fit(ds, names) for ds, names, _ in fits]
    groups = {}
    for j, (shape, _) in enumerate(checked):
        groups.setdefault(shape, []).append(j)
    heads = [None] * len(fits)
    for (n, r, d, c), members in groups.items():
        x = np.stack([rf.matrix for j in members for rf, _ in fits[j][0]], dtype=np.float32)
        x = x.reshape(len(members), n, r, d)
        targets = np.stack([checked[j][1] for j in members], dtype=np.float32)
        w = np.empty((len(members), d, 2 * c), np.float32)
        bound = np.sqrt(6.0 / (d + c))
        for wk, j in zip(w, members):
            rng = np.random.default_rng(np.uint64(fits[j][2]))
            wk[:, :c] = rng.uniform(-bound, bound, size=(d, c))
            wk[:, c:] = rng.uniform(-bound, bound, size=(d, c))
        losses = _lbfgs(_bce_step(x, targets, l2), w, epochs + 1, learning_rate)
        for j, wk, lk in zip(members, w, losses):
            heads[j] = TwoStreamHead(w_rec=wk[:, :c].astype(np.float64), w_det=wk[:, c:].astype(np.float64),
                                     class_names=fits[j][1],
                                     loss_by_epoch=[lk[e] for e in curve_epochs(len(lk) - 1)])
    return heads


def train_head(
    dataset: Sequence[Tuple[RegionFeatures, np.ndarray]],
    class_names: Sequence[str],
    cfg: HeadTrainConfig = HeadTrainConfig(),
) -> TwoStreamHead:
    """Full-batch L-BFGS from a seeded Glorot-uniform init: `train_heads`
    with one fit, at `cfg`'s seed and schedule (at most `cfg.epochs` + 1
    loss-and-gradient evaluations, a first step of `cfg.learning_rate`).

    `dataset` pairs RegionFeatures with one-hot image labels over
    `class_names`.  All images must share a region count.
    """
    return train_heads([(dataset, class_names, cfg.seed)], cfg.epochs, cfg.learning_rate, cfg.l2)[0]


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
