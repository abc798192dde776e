"""Patch-level animal segmentation: detector probabilities per patch refined
by binary mean-field sweeps with a Potts coupling weighted by spatial and
color similarity between patches."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features as feat
from . import svm


def check_patch_size(patch_size: int) -> None:
    if patch_size < 4:
        raise ValueError(f"patch_size must be >= 4, got {patch_size}")


@dataclass(frozen=True)
class PatchGrid:
    patch_size: int
    width: int
    height: int

    def __post_init__(self):
        check_patch_size(self.patch_size)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dims must be positive")

    @property
    def nx(self) -> int:
        return -(-self.width // self.patch_size)

    @property
    def ny(self) -> int:
        return -(-self.height // self.patch_size)

    def regions(self):
        return [feat.Region(*b) for b in self.boxes().tolist()]

    def boxes(self) -> np.ndarray:
        """(ny * nx, 4) int array of (x0, y0, x1, y1) per patch, row-major,
        the last row and column clipped to the image."""
        p = self.patch_size
        rows, cols = np.divmod(np.arange(self.ny * self.nx), self.nx)
        x0, y0 = cols * p, rows * p
        return np.stack([x0, y0, np.minimum(x0 + p, self.width), np.minimum(y0 + p, self.height)], axis=1)


@dataclass(frozen=True)
class PairwiseParams:
    w: float = 2.0
    theta_pos: float = 2.0
    theta_color: float = 0.15
    iterations: int = 5

    def __post_init__(self):
        if self.w < 0:
            raise ValueError(f"w (coupling weight) must be >= 0, got {self.w!r}")
        for name in ("theta_pos", "theta_color"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} (bandwidth) must be > 0, got {getattr(self, name)!r}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations!r}")


def grid_for(image: np.ndarray, patch_size: int = 16) -> PatchGrid:
    return PatchGrid(patch_size=patch_size, width=image.shape[1], height=image.shape[0])


def _patch_runs(size: int, p: int):
    """(first patch, patch count, extent) of the full patches along one axis
    and of a clipped last patch, leaving out an empty run."""
    runs = ((0, size // p, p), (size // p, 1, size % p))
    return [r for r in runs if r[1] and r[2]]


def patch_mean_colors(image: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Mean color per patch; each run of equal-sized patches is one reshape
    and one mean, adding each patch's pixels in the order of its own slice."""
    p = grid.patch_size
    colors = np.empty((grid.ny, grid.nx, 3))
    for r0, nr, h in _patch_runs(grid.height, p):
        for c0, nc, w in _patch_runs(grid.width, p):
            block = image[r0 * p : r0 * p + nr * h, c0 * p : c0 * p + nc * w]
            colors[r0 : r0 + nr, c0 : c0 + nc] = block.reshape(nr, h, nc, w, 3).mean(axis=(1, 3))
    return colors


def compute_unary(rows: np.ndarray, grid: PatchGrid, detector: svm.LinearModel, scale: float = 1.0) -> np.ndarray:
    """Foreground probability per patch from the patch-trained detector, given
    the feature rows of `grid.regions()`."""
    return svm.margin_to_probability(detector, rows, scale).reshape(grid.ny, grid.nx)


@functools.lru_cache(maxsize=4)
def _neighbour_pairs(ny: int, nx: int, theta_pos: float):
    """Patch pairs of a row-major ny x nx grid with 0 < dpos^2 <= (3 theta_pos)^2:
    their rows i and columns j in the (n, n) kernel, and -dpos^2 / (2 theta_pos^2)
    of each; all read-only.  The pairs of each (dy, dx) offset within the
    radius come from one slice of the index grid clipped to the grid, so the
    memory taken is that of the pairs, not of an n x n array."""
    index = np.arange(ny * nx).reshape(ny, nx)
    reach_y, reach_x = (int(min(size - 1, 3 * theta_pos)) for size in (ny, nx))
    reach2 = (3 * theta_pos) ** 2
    i, j, dpos2 = ([np.zeros(0, dtype=index.dtype)] for _ in range(3))
    for dy in range(-reach_y, reach_y + 1):
        for dx in range(-reach_x, reach_x + 1):
            d2 = dy * dy + dx * dx
            if 0 < d2 <= reach2:
                rows = index[max(0, -dy) : ny - max(0, dy), max(0, -dx) : nx - max(0, dx)].ravel()
                i.append(rows)
                j.append(rows + (dy * nx + dx))
                dpos2.append(np.full(rows.size, d2))
    i, j, dpos2 = (np.concatenate(parts) for parts in (i, j, dpos2))
    pairs = (i, j, -dpos2 / (2 * theta_pos**2))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _pairwise_kernel(grid: PatchGrid, colors: np.ndarray, pp: PairwiseParams) -> np.ndarray:
    """Dense (n, n) kernel, zero beyond 3 theta_pos and on the diagonal.  exp is
    taken on the kept pairs only, each value by the dense form's operations."""
    n = grid.ny * grid.nx
    i, j, spatial = _neighbour_pairs(grid.ny, grid.nx, pp.theta_pos)
    channels = colors.reshape(n, 3).T.copy()
    # channel by channel: the addition order of .sum(axis=2)
    dcol2 = (channels[0][i] - channels[0][j]) ** 2
    for c in channels[1:]:
        dcol2 += (c[i] - c[j]) ** 2
    # exp(spatial - dcol2 / (2 theta_color^2)), in place: one pair array
    # besides the kernel is alive at the call's peak
    dcol2 /= 2 * pp.theta_color**2
    np.exp(np.subtract(spatial, dcol2, out=dcol2), out=dcol2)
    k = np.zeros((n, n))
    k[i, j] = dcol2
    return k


def refine_mean_field(unary: np.ndarray, image: Optional[np.ndarray], grid: PatchGrid,
                      pp: PairwiseParams = PairwiseParams(), colors: Optional[np.ndarray] = None) -> np.ndarray:
    """Synchronous sweeps of q_i <- sigmoid(logit(u_i) + w * sum_j k_ij (2 q_j - 1)),
    the kernel from `colors` (`patch_mean_colors` of the image) if given, else from `image`."""
    if unary.shape != (grid.ny, grid.nx):
        raise ValueError(f"unary shape {unary.shape} does not match grid {(grid.ny, grid.nx)}")
    if pp.w == 0.0:
        return unary.copy()
    if colors is None:
        colors = patch_mean_colors(image, grid)
    k = _pairwise_kernel(grid, colors, pp)
    u = np.clip(unary.reshape(-1), 1e-12, 1.0 - 1e-12)
    logit_u = np.log(u / (1.0 - u))
    q = u.copy()
    for _ in range(pp.iterations):
        msg = k @ (2.0 * q - 1.0)
        q = 1.0 / (1.0 + np.exp(-(logit_u + pp.w * msg)))
    return q.reshape(grid.ny, grid.nx)


def check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0,1), got {tau!r}")


def threshold_mask(pf: np.ndarray, tau: float = 0.5) -> np.ndarray:
    check_tau(tau)
    return (pf >= tau).astype(np.uint8)


def upsample_mask(mask: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Nearest-neighbor upsample of a patch mask to pixel resolution."""
    blocks = np.repeat(np.repeat(mask, grid.patch_size, axis=0), grid.patch_size, axis=1)
    return blocks[: grid.height, : grid.width].astype(np.uint8)


def apply_mask(image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gray out the background (mask == 0); foreground pixels unchanged.  The
    result has the image's dtype, and the image may be 2-D or (H, W, C)."""
    if mask.shape != image.shape[:2]:
        raise ValueError("mask must be at pixel resolution")
    keep = mask.astype(bool).reshape(mask.shape + (1,) * (image.ndim - 2))
    return np.where(keep, image, image.dtype.type(0.5))


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(bool)
    b = b.astype(bool)
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def patch_mask(rows: np.ndarray, colors: np.ndarray, grid: PatchGrid, detector: svm.LinearModel,
               pp: PairwiseParams = PairwiseParams(), tau: float = 0.5, scale: float = 1.0) -> np.ndarray:
    """(ny, nx) uint8 mask of an image's patches from the feature rows of
    `grid.regions()` and its patch mean colors: unary -> mean-field ->
    threshold, the one rows -> mask path."""
    return threshold_mask(refine_mean_field(compute_unary(rows, grid, detector, scale), None, grid, pp, colors), tau)


def segment_image(image: np.ndarray, detector: svm.LinearModel, params: feat.ConvNetParams,
                  pyramid: feat.PyramidConfig = feat.PyramidConfig(), patch_size: int = 16,
                  pp: PairwiseParams = PairwiseParams(), tau: float = 0.5, scale: float = 1.0) -> np.ndarray:
    """(H, W) uint8 mask of an image: its patch-grid rows, then `patch_mask`, upsampled."""
    grid = grid_for(image, patch_size)
    rows = feat.extract_region_features(image, grid.regions(), params, pyramid).matrix
    return upsample_mask(patch_mask(rows, patch_mean_colors(image, grid), grid, detector, pp, tau, scale), grid)


def write_pbm(path, mask: np.ndarray) -> None:
    """Binary P4 portable bitmap (1 = foreground)."""
    h, w = mask.shape
    padded_w = -(-w // 8) * 8
    bits = np.zeros((h, padded_w), dtype=np.uint8)
    bits[:, :w] = mask.astype(bool)
    packed = np.packbits(bits, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode())
        fh.write(packed.tobytes())
