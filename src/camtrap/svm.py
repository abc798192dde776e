"""Binary linear SVM for animal detection.

Pegasos-style stochastic subgradient descent on
(lambda/2)*||w||^2 + mean hinge loss, step size 1/(lambda*t), one seeded
shuffled pass per epoch, final iterate returned.  The bias is an
unregularized extra coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass(frozen=True)
class SvmTrainConfig:
    epochs: int = 30
    lam: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")


@dataclass
class LinearModel:
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
    return 0.5 * lam * float(weights @ weights) + float(hinge.mean())


def train_linear_svm(features: np.ndarray, labels: np.ndarray, cfg: SvmTrainConfig = SvmTrainConfig()) -> LinearModel:
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

    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(np.uint64(cfg.seed))
    t = 0
    objective = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (cfg.lam * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * cfg.lam
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
        objective.append(svm_objective(w, b, cfg.lam, x, y))
    return LinearModel(weights=w, bias=float(b), lam=cfg.lam, objective_by_epoch=objective)


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


def margin_to_probability(model: LinearModel, features: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Logistic of scale * margin, per row."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale!r}")
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
