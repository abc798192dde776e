"""Deterministic convolutional features with spatial-pyramid pooling over
rectangular regions, plus grid region proposals.

The network is a small fixed stack: per layer a 3x3 same-padding convolution,
ReLU, then 2x2 stride-2 max pooling.  Weights are seeded Glorot-uniform and
frozen by default; `backward` exists for gradient checks and optional
fine-tuning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Region:
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate region {self}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"negative region origin {self}")

    def as_tuple(self):
        return (self.x0, self.y0, self.x1, self.y1)


def check_net_values(channels: Optional[Sequence[int]] = None, levels: Optional[Sequence[int]] = None,
                     names=("channels", "levels")) -> None:
    """The one rule for the conv channel chain (two or more ints >= 1) and the
    pyramid grid sizes (one or more ints >= 1); `names` are the caller's names
    for the two values, and a value left None is not checked."""
    for values, least, name in ((channels, 2, names[0]), (levels, 1, names[1])):
        if values is not None and (len(values) < least or any(v < 1 for v in values)):
            raise ValueError(f"{name} must be {least} or more ints >= 1, got {tuple(values)!r}")


def receptive_field(channels: Sequence[int]) -> int:
    """The least image side a net with this channel chain reads: 2^layers px, as each layer halves it."""
    return 2 ** (len(channels) - 1)


@dataclass(frozen=True)
class PyramidConfig:
    levels: Tuple[int, ...] = (1, 2)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        check_net_values(levels=self.levels)

    @property
    def n_cells(self) -> int:
        return sum(g * g for g in self.levels)


@dataclass
class ConvNetParams:
    channels: Tuple[int, ...]  # e.g. (3, 8, 16)
    weights: List[np.ndarray]  # each (3, 3, c_in, c_out)
    biases: List[np.ndarray]  # each (c_out,)
    seed: int

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def downsample(self) -> int:
        return receptive_field(self.channels)

    @property
    def out_channels(self) -> int:
        return self.channels[-1]


@dataclass(frozen=True)
class RegionFeatures:
    regions: Tuple[Region, ...]
    matrix: np.ndarray  # R x D

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.regions):
            raise ValueError("row count must equal region count")


def init_convnet(channels: Sequence[int] = (3, 8, 16), seed: int = 0) -> ConvNetParams:
    """Glorot-uniform weights, |w| <= sqrt(6/(fan_in+fan_out)); zero biases."""
    channels = tuple(int(c) for c in channels)
    check_net_values(channels=channels)
    rng = np.random.default_rng(np.uint64(seed))
    weights, biases = [], []
    for c_in, c_out in zip(channels[:-1], channels[1:]):
        a = np.sqrt(6.0 / (9 * c_in + 9 * c_out))
        weights.append(rng.uniform(-a, a, size=(3, 3, c_in, c_out)))
        biases.append(np.zeros(c_out))
    return ConvNetParams(channels=channels, weights=weights, biases=biases, seed=seed)


# bytes of conv output computed per band of rows: a band's output, its tap
# buffer and its input rows stay in cache, and a thread's working set stays
# small (a 64 px image with 8 channels is one band)
BAND_BYTES = 256 * 1024


def _conv_pool_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray, pre: Optional[np.ndarray] = None) -> np.ndarray:
    """One layer: 3x3 same-padded conv, 2x2 stride-2 max pool, then ReLU (it
    commutes with the max), one band of an even number of rows at a time;
    an odd last row or column is dropped by the pool.  Each band's input
    rows, with one halo row above and below, are copied into one reused
    zero-padded buffer, so no padded copy of the whole input exists.  Each
    band runs one GEMM per tap, summed in tap order onto the first tap plus
    the bias (t0 + b is b + t0 bit for bit), so its rows have the bytes of
    the whole-image conv.  The conv output is written into `pre` when given."""
    h, wd, c_out = x.shape[0], x.shape[1], w.shape[3]
    rows = min(h, max(2, BAND_BYTES // (8 * wd * c_out) // 2 * 2))
    xp = np.zeros((rows + 2, wd + 2, x.shape[2]))  # padded band: row i holds input row r0 - 1 + i
    band, tap = np.empty((rows, wd, c_out)), np.empty((rows, wd, c_out))
    h2, w2 = h // 2, wd // 2
    out = np.empty((h2, w2, c_out))
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        lo, hi = max(r0 - 1, 0), min(r0 + n + 1, h)
        xp[lo - r0 + 1 : hi - r0 + 1, 1:-1] = x[lo:hi]
        if r0 + n == h:  # the last band: its halo row below is padding
            xp[n + 1] = 0.0
        acc = band[:n] if pre is None else pre[r0 : r0 + n]
        np.matmul(xp[:n, :wd], w[0, 0], out=acc)
        acc += b
        for t in range(1, 9):
            dy, dx = divmod(t, 3)
            acc += np.matmul(xp[dy : dy + n, dx : dx + wd], w[dy, dx], out=tap[:n])
        # 2x2 max of the band's row pairs, windows read in `_pool_windows` order
        pooled = out[r0 // 2 : (r0 + n) // 2]
        m = 2 * len(pooled)
        np.maximum(acc[0:m:2, 0 : 2 * w2 : 2], acc[0:m:2, 1 : 2 * w2 : 2], out=pooled)
        np.maximum(pooled, acc[1:m:2, 0 : 2 * w2 : 2], out=pooled)
        np.maximum(pooled, acc[1:m:2, 1 : 2 * w2 : 2], out=pooled)
        np.maximum(pooled, 0.0, out=pooled)
    return out


def _pool_windows(x: np.ndarray) -> np.ndarray:
    """The 2x2 windows of x as (H/2, W/2, 4, C); an odd last row or column is dropped."""
    h2, w2 = x.shape[0] // 2, x.shape[1] // 2
    win = x[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2, -1).transpose(0, 2, 1, 3, 4)
    return win.reshape(h2, w2, 4, -1)


def forward(image: np.ndarray, params: ConvNetParams, return_cache: bool = False):
    """Feature map of shape (H / 2^L, W / 2^L, C_out), floor division."""
    if image.ndim == 2:
        image = image[:, :, None]
    if image.shape[2] != params.channels[0]:
        raise ValueError(
            f"image has {image.shape[2]} channels, net expects {params.channels[0]}"
        )
    if min(image.shape[0], image.shape[1]) < params.downsample:
        raise ValueError("image smaller than the network's receptive field")
    x = np.asarray(image, dtype=float)
    cache = {"image": x, "layers": []} if return_cache else None
    for w, b in zip(params.weights, params.biases):
        pre = None
        if return_cache:
            pre = np.empty(x.shape[:2] + (w.shape[3],))
            cache["layers"].append({"input": x, "pre": pre})
        x = _conv_pool_relu(x, w, b, pre)
    if return_cache:
        return x, cache
    return x


def backward(grad_out: np.ndarray, cache: dict, params: ConvNetParams):
    """Gradients of a scalar loss wrt the input image and all layer params,
    given the loss gradient wrt the forward output."""
    g = grad_out.astype(float)
    grad_w = [None] * params.n_layers
    grad_b = [None] * params.n_layers
    for li in range(params.n_layers - 1, -1, -1):
        layer = cache["layers"][li]
        ah, aw, c = layer["pre"].shape
        h2, w2 = g.shape[:2]
        # unpool: route gradient to the argmax cell of each 2x2 window
        idx = _pool_windows(np.maximum(layer["pre"], 0.0)).argmax(axis=2)
        g_act = np.zeros((ah, aw, c))
        win = np.zeros((h2, w2, 4, c))
        np.put_along_axis(win, idx[:, :, None, :], g[:, :, None, :], axis=2)
        win = win.reshape(h2, w2, 2, 2, c).transpose(0, 2, 1, 3, 4)
        g_act[: 2 * h2, : 2 * w2] = win.reshape(2 * h2, 2 * w2, c)
        g_pre = g_act * (layer["pre"] > 0)
        x = layer["input"]
        hh, ww = x.shape[:2]
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        w = params.weights[li]
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for dy in range(3):
            for dx in range(3):
                gxp[dy : dy + hh, dx : dx + ww] += g_pre @ w[dy, dx].T
                gw[dy, dx] = np.tensordot(xp[dy : dy + hh, dx : dx + ww], g_pre, axes=([0, 1], [0, 1]))
        grad_w[li] = gw
        grad_b[li] = g_pre.sum(axis=(0, 1))
        g = gxp[1 : 1 + hh, 1 : 1 + ww]
    return g, grad_w, grad_b


def check_region_values(scales: Sequence[float], stride_fraction: float, names=("scales", "stride")) -> None:
    """The one rule for window scales and stride (fractions of the short side
    and of the window); `names` are the caller's names for the two values."""
    if any(s <= 0 for s in scales):
        raise ValueError(f"{names[0]} must be > 0, got {tuple(scales)!r}")
    if stride_fraction <= 0:
        raise ValueError(f"{names[1]} must be > 0, got {stride_fraction!r}")


def propose_regions(
    width: int,
    height: int,
    scales: Sequence[float] = (0.5, 0.75),
    stride_fraction: float = 0.5,
) -> List[Region]:
    """Square sliding windows at each scale plus the full image, appended last."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    check_region_values(scales, stride_fraction)
    short = min(width, height)
    seen = {}  # insertion-ordered set
    for s in scales:
        win = max(1, int(round(s * short)))
        stride = max(1, int(round(stride_fraction * win)))
        xs = list(range(0, max(width - win, 0) + 1, stride))
        ys = list(range(0, max(height - win, 0) + 1, stride))
        for y0 in ys:
            for x0 in xs:
                seen[(x0, y0, min(x0 + win, width), min(y0 + win, height))] = None
    full = (0, 0, width, height)
    seen.pop(full, None)
    seen[full] = None
    return [Region(*t) for t in seen]


def _cell_spans(lo: np.ndarray, hi: np.ndarray, g: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end of the g cells of each [lo, hi) span, (..., g) each.  Edge
    i is lo + round(i * (hi - lo) / g), rounding half to even (banker's), and
    an empty cell is widened to the one pixel at min(its start, hi - 1)."""
    edges = lo[..., None] + np.round(np.arange(g + 1) * (hi - lo)[..., None] / g).astype(np.int64)
    a, b = edges[..., :-1], edges[..., 1:]
    empty = b <= a
    a = np.where(empty, np.minimum(a, hi[..., None] - 1), a)
    return a, np.where(empty, a + 1, b)


# two plans, because a segmented run alternates between an image's windows
# and its windows plus patch grid; a 1920 x 1080 frame's plan at the default
# windows and levels holds 7.4 MB
@functools.lru_cache(maxsize=2)
def _spp_plan(fh: int, fw: int, boxes: Tuple[Tuple[int, int, int, int], ...], levels: Tuple[int, ...],
              downsample: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """`spp_pool`'s gather plan for an fh x fw map and regions `boxes`
    (x0, y0, x1, y1): per cell height and width, the flat indices of those
    cells in the (R * n_cells) output and the (cells, height * width) flat
    indices of the map pixels each reads; all read-only.  One plan serves
    every same-size image with the same windows, as in SPP-net."""
    size = np.array([fh, fw])
    box = np.array(boxes, dtype=np.int64).reshape(-1, 4)[:, [1, 0, 3, 2]]  # y0, x0, y1, x1
    lo = np.minimum(box[:, :2] // downsample, size - 1)  # (R, 2): y, x
    hi = np.maximum(np.minimum(-(-box[:, 2:] // downsample), size), lo + 1)
    shape, corner = [], []  # per cell: height and width as one key; top-left pixel
    for g in levels:  # cells level-major, then row-major
        a, b = _cell_spans(lo, hi, g)  # (R, 2, g): row spans, then column spans
        h, w = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
        shape.append((h[:, :, None] * (fw + 1) + w[:, None, :]).reshape(-1, g * g))
        corner.append((a[:, 0, :, None] * fw + a[:, 1, None, :]).reshape(-1, g * g))
    shape, corner = np.concatenate(shape, axis=1).ravel(), np.concatenate(corner, axis=1).ravel()
    plan = []
    for key in set(shape.tolist()):  # np.unique imports numpy.ma: ~1 MiB of RSS
        cells = np.flatnonzero(shape == key)
        hh, ww = divmod(key, fw + 1)
        gather = corner[cells][:, None] + (np.arange(hh)[:, None] * fw + np.arange(ww)).ravel()
        for a in (cells, gather):
            a.flags.writeable = False
        plan.append((cells, gather))
    return tuple(plan)


def spp_pool(
    fmap: np.ndarray, regions: Sequence[Region], pyramid: PyramidConfig, downsample: int = 1
) -> np.ndarray:
    """Max-pool each region over nested g x g grids, one (R, C * n_cells) row
    per region: level-major, cells row-major, channels fastest.  The cells of
    all regions are grouped by height and width (`_spp_plan`), and each
    group is one gather of its cells' pixels and one max."""
    fh, fw, c = fmap.shape
    plan = _spp_plan(fh, fw, tuple(r.as_tuple() for r in regions), pyramid.levels, downsample)
    pixels = fmap.reshape(fh * fw, c)
    out = np.empty((len(regions) * pyramid.n_cells, c))
    for cells, gather in plan:
        out[cells] = pixels[gather].max(axis=1)
    return out.reshape(len(regions), pyramid.n_cells * c)


def feature_dim(params: ConvNetParams, pyramid: PyramidConfig) -> int:
    return params.out_channels * pyramid.n_cells


def extract_region_features(
    image: np.ndarray,
    regions: Sequence[Region],
    params: ConvNetParams,
    pyramid: PyramidConfig = PyramidConfig(),
) -> RegionFeatures:
    """Pooled, L2-normalized feature row per region (zero rows left zero)."""
    fmap = forward(image, params)
    rows = spp_pool(fmap, regions, pyramid, downsample=params.downsample)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return RegionFeatures(regions=tuple(regions), matrix=rows / norms)
