"""The cell-by-cell spatial pyramid pooling that `features.spp_pool` is
tested against bit for bit: one region, one cell and one max at a time."""

import numpy as np

from camtrap import features as ft


def cell_edges(lo: int, hi: int, g: int):
    # even (banker's) rounding of the cell boundaries
    return [lo + round(i * (hi - lo) / g) for i in range(g + 1)]


def spp_pool_loop(fmap: np.ndarray, region: ft.Region, pyramid: ft.PyramidConfig, downsample: int = 1) -> np.ndarray:
    """One region's row of `spp_pool`, cell by cell."""
    fh, fw, c = fmap.shape
    x0 = min(region.x0 // downsample, fw - 1)
    y0 = min(region.y0 // downsample, fh - 1)
    x1 = max(min(-(-region.x1 // downsample), fw), x0 + 1)
    y1 = max(min(-(-region.y1 // downsample), fh), y0 + 1)
    out = np.empty(c * pyramid.n_cells)
    pos = 0
    for g in pyramid.levels:
        xe = cell_edges(x0, x1, g)
        ye = cell_edges(y0, y1, g)
        for gy in range(g):
            ya, yb = ye[gy], ye[gy + 1]
            if yb <= ya:
                ya = min(ya, y1 - 1)
                yb = ya + 1
            for gx in range(g):
                xa, xb = xe[gx], xe[gx + 1]
                if xb <= xa:
                    xa = min(xa, x1 - 1)
                    xb = xa + 1
                out[pos : pos + c] = fmap[ya:yb, xa:xb].max(axis=(0, 1))
                pos += c
    return out


def reference_pooler(fmap, regions, pyramid, downsample=1):
    """`spp_pool`'s signature and rows, from the loop."""
    return np.stack([spp_pool_loop(fmap, r, pyramid, downsample=downsample) for r in regions])
