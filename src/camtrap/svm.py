"""Binary linear SVM for animal detection.

Pegasos-style stochastic subgradient descent on
(lambda/2)*||w||^2 + mean hinge loss, step size 1/(lambda*t), one seeded
shuffled pass per epoch, final iterate returned.  The bias is an
unregularized extra coordinate.

`train_linear_svm` fits one model with a per-row loop.  `train_linear_svms`
fits many models on rows of one shared matrix in lockstep, one array step
per global step for every fit still running, with the same bytes per model.
Both record the objective only at the curve epochs (`curve_epochs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


def check_train_values(epochs: int, lam: float, names=("epochs", "lam")) -> None:
    """The one rule for Pegasos epochs and lambda; `names` are the caller's names for the two values."""
    if epochs < 1:
        raise ValueError(f"{names[0]} must be >= 1, got {epochs!r}")
    if lam <= 0:
        raise ValueError(f"{names[1]} must be > 0, got {lam!r}")


def curve_epochs(epochs: int) -> Tuple[int, ...]:
    """The epochs at which every fit, Pegasos or head, records its training
    curve, in order: 0, the powers of two below `epochs`, and `epochs`
    (just 0 when `epochs` is 0, a head fit that accepted no step)."""
    return (0, *(1 << i for i in range(epochs.bit_length()) if 1 << i < epochs), epochs)[: epochs + 1]


@dataclass(frozen=True)
class SvmTrainConfig:
    epochs: int = 30
    lam: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_train_values(self.epochs, self.lam)


@dataclass
class LinearModel:
    """A fitted detector.  `objective_by_epoch` holds the objective after
    each curve epoch from 1 on (`curve_epochs`), so its last value is the
    returned model's; a loaded model has none."""

    weights: np.ndarray
    bias: float
    lam: float
    objective_by_epoch: List[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def svm_objective(weights: np.ndarray, bias: float, lam: float, x: np.ndarray, y: np.ndarray) -> float:
    margins = y * (x @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    # sum / n is hinge.mean() bit for bit, without its per-call Python overhead
    return 0.5 * lam * float(weights @ weights) + float(hinge.sum()) / len(hinge)


def _checked_rows(features, labels):
    """Training rows as an N x D float array and their labels, or the ValueError naming what is wrong."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be N x D with one label per row")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature values")
    present = set(np.sign(y).tolist())
    if present != {1.0, -1.0}:
        raise ValueError("both classes (+1 and -1) must be present")
    return x, y


def train_linear_svm(features: np.ndarray, labels: np.ndarray, cfg: SvmTrainConfig = SvmTrainConfig()) -> LinearModel:
    x, y = _checked_rows(features, labels)
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(np.uint64(cfg.seed))
    t = 0
    objective = []
    logged = curve_epochs(cfg.epochs)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (cfg.lam * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * cfg.lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
        if epoch in logged:
            objective.append(svm_objective(w, b, cfg.lam, x, y))
    return LinearModel(weights=w, bias=float(b), lam=cfg.lam, objective_by_epoch=objective)


def _row_dots(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x[j] @ w[j]`` for every row j, rounded exactly like that 1-D product
    (``einsum("kd,kd->k")`` and ``(x * w).sum(1)`` round differently)."""
    return np.matmul(x[:, None, :], w[:, :, None])[:, 0, 0]


# global steps per block of the lockstep visit order (a few hundred KiB at
# K = 100 fits)
BLOCK_STEPS = 256


def train_linear_svms(features: np.ndarray, fits, epochs: int, lam: float) -> List[LinearModel]:
    """One model per fit `(row indices, labels, seed)` on rows of the shared
    `features`, each byte-identical to
    ``train_linear_svm(features[rows], labels, SvmTrainConfig(epochs, lam, seed))``.

    Every fit is checked before any step.  The fits then run in lockstep:
    global step t is step t of every fit still running.  Fits are sorted
    longest first, so those still running are a prefix.  Their visit order
    is laid out step-major, `BLOCK_STEPS` global steps at a time, each fit
    drawing its epochs' permutations from its own generator in order; a
    step reads one row of that block.  Its K current rows are gathered into
    one (K, D) buffer, all K margins come from one batched product that
    reduces like the single fit's ``x[i] @ w``, and the shrink applies to
    all K weight rows.  A row whose margin is not below 1 gets a zero step,
    so the update is one unmasked add of the scaled buffer.  A fit's
    objective is computed only where it ends a curve epoch (`curve_epochs`).
    """
    check_train_values(epochs, lam)
    f = np.asarray(features, dtype=float)
    checked = []
    for rows, labels, seed in fits:
        rows = np.asarray(rows, dtype=np.intp)
        checked.append((rows, _checked_rows(f[rows], labels)[1], seed))
    if not checked:
        return []
    order = sorted(range(len(checked)), key=lambda j: -len(checked[j][0]))
    rows_of, y_of, seeds = zip(*(checked[j] for j in order))
    rngs = [np.random.default_rng(np.uint64(seed)) for seed in seeds]
    n = [len(rows) for rows in rows_of]
    k_all = len(order)
    w = np.zeros((k_all, f.shape[1]))
    b = np.zeros(k_all)
    epoch_ends = {}  # global step -> the fits that end a curve epoch there
    for p in range(k_all):
        for e in curve_epochs(epochs)[1:]:
            epoch_ends.setdefault(e * n[p], []).append(p)
    undrawn = [np.zeros(0, dtype=np.intp)] * k_all  # each fit's drawn positions not yet laid out

    def lay(p, count):
        """The next `count` positions of fit p's visit order."""
        while len(undrawn[p]) < count:
            undrawn[p] = np.concatenate([undrawn[p], rngs[p].permutation(n[p])])
        pos, undrawn[p] = undrawn[p][:count], undrawn[p][count:]
        return pos

    # rows and labels visited at each step of the block, step-major; zeroed,
    # so rows past a fit's last step hold finite values, never uninitialized
    # memory that `eta_y` could overflow on
    idx = np.zeros((BLOCK_STEPS, k_all), dtype=np.intp)
    ys = np.zeros((BLOCK_STEPS, k_all))
    objectives = [[] for _ in order]
    k = k_all
    last = epochs * n[0]
    for t0 in range(1, last + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, last + 1 - t0)
        for p in range(k):
            pos = lay(p, min(steps, epochs * n[p] + 1 - t0))
            idx[: len(pos), p] = rows_of[p][pos]
            ys[: len(pos), p] = y_of[p][pos]
        eta = 1.0 / (lam * np.arange(t0, t0 + steps, dtype=float))
        shrink = 1.0 - eta * lam
        eta_y = eta[:, None] * ys[:steps, :k]
        for s in range(steps):
            t = t0 + s
            xr = f.take(idx[s, :k], axis=0)
            wk, bk = w[:k], b[:k]
            margin = _row_dots(xr, wk)
            margin += bk
            margin *= ys[s, :k]
            wk *= shrink[s]
            # a row with margin >= 1 gets a zero step, and adding it keeps the
            # bytes of skipping it: x + (+-0.0) changes only x = -0.0, and no weight
            # or bias is ever -0.0.  Both start at +0.0; the first shrink factor
            # 1 - (1/(lam t)) lam is 0.0 or tiny (1.1e-16 at lam 1e-5), never
            # negative, as x * RN(1/x) <= 1; under round-to-nearest an exact
            # cancellation gives +0.0.  (Later factors are about 0.5 or more, so
            # only a weight of -2^-1074 shrunk at t = 2 could round to -0.0.)
            step = (margin < 1.0) * eta_y[s, :k]
            xr *= step[:, None]
            wk += xr
            bk += step
            for p in epoch_ends.get(t, ()):
                objectives[p].append(svm_objective(w[p], b[p], lam, f[rows_of[p]], y_of[p]))
            while k and epochs * n[k - 1] == t:
                k -= 1
    models = [None] * k_all
    for p, j in enumerate(order):
        models[j] = LinearModel(weights=w[p].copy(), bias=float(b[p]), lam=lam, objective_by_epoch=objectives[p])
    return models


def predict_margin(model: LinearModel, feature: np.ndarray) -> float:
    feature = np.asarray(feature, dtype=float)
    if feature.shape != (model.dim,):
        raise ValueError(f"feature dim {feature.shape} does not match model dim {model.dim}")
    return float(model.weights @ feature + model.bias)


def predict_margins(model: LinearModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.dim:
        raise ValueError(f"features of shape {features.shape} are not N x model dim {model.dim}")
    return features @ model.weights + model.bias


def predict_labels(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """+1 or -1 per row by the sign of the margin; an exact zero classifies as +1."""
    return np.where(predict_margins(model, features) >= 0.0, 1.0, -1.0)


def check_scale(scale: float) -> None:
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale!r}")


def margin_to_probability(model: LinearModel, features: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Logistic of scale * margin, per row."""
    check_scale(scale)
    return 1.0 / (1.0 + np.exp(-scale * predict_margins(model, features)))


# ---------------------------------------------------------------------------
# serialization

_MODEL_MAGIC = "camtrap-linear-model v1"


def save_model(model: LinearModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MODEL_MAGIC + "\n")
        fh.write(f"lambda {float(model.lam)!r}\n")
        fh.write(f"bias {float(model.bias)!r}\n")
        fh.write(f"dim {model.dim}\n")
        fh.write(" ".join(repr(float(v)) for v in model.weights) + "\n")


def load_model(path) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a {_MODEL_MAGIC} file")
    if len(lines) < 5 or [line.split()[:1] for line in lines[1:4]] != [["lambda"], ["bias"], ["dim"]]:
        raise ValueError(f"{path}: expected lambda, bias and dim lines, then the weights")
    try:
        lam, bias = (float(line.partition(" ")[2]) for line in lines[1:3])
        dim = int(lines[3].partition(" ")[2])
        weights = np.array([float(t) for t in lines[4].split()])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if weights.shape[0] != dim:
        raise ValueError(f"{path}: weight count does not match dim")
    return LinearModel(weights=weights, bias=bias, lam=lam)
