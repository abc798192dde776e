"""Patch grids, unary fields, mean-field refinement (closed-form single-sweep
check), thresholding, masking and IoU."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from camtrap import features as ft
from camtrap import segmentation as seg
from camtrap import svm


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestPatchGrid:
    def test_dims_cover_image(self):
        grid = seg.PatchGrid(patch_size=16, width=100, height=50)
        assert grid.nx == 7 and grid.ny == 4
        last = grid.regions()[3 * grid.nx + 6]
        assert last.x1 == 100 and last.y1 == 50  # clipped

    def test_regions_row_major(self):
        grid = seg.PatchGrid(patch_size=8, width=16, height=16)
        regions = grid.regions()
        assert len(regions) == 4
        assert regions[0].as_tuple() == (0, 0, 8, 8)
        assert regions[1].as_tuple() == (8, 0, 16, 8)

    @settings(max_examples=60, deadline=None)
    @given(patch=st.integers(4, 12), width=st.integers(1, 60), height=st.integers(1, 60))
    def test_boxes_are_the_regions(self, patch, width, height):
        # each patch (r, c) is its p x p square clipped to the image
        grid = seg.PatchGrid(patch_size=patch, width=width, height=height)
        boxes = grid.boxes()
        assert boxes.shape == (grid.ny * grid.nx, 4)
        assert boxes.tolist() == [list(r.as_tuple()) for r in grid.regions()]
        assert boxes.tolist() == [[c * patch, r * patch, min(c * patch + patch, width), min(r * patch + patch, height)]
                                  for r in range(grid.ny) for c in range(grid.nx)]

    def test_patch_size_minimum(self):
        with pytest.raises(ValueError):
            seg.PatchGrid(patch_size=3, width=16, height=16)

    def test_patch_mean_colors(self):
        img = np.zeros((8, 16, 3))
        img[:, 8:] = 1.0
        grid = seg.PatchGrid(patch_size=8, width=16, height=8)
        colors = seg.patch_mean_colors(img, grid)
        assert np.allclose(colors[0, 0], 0.0)
        assert np.allclose(colors[0, 1], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        patch=st.integers(4, 12),
        width=st.integers(1, 60),
        height=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_patch_mean_colors_match_per_patch_loop(self, patch, width, height, seed):
        img = np.random.default_rng(seed).uniform(size=(height, width, 3))
        grid = seg.PatchGrid(patch_size=patch, width=width, height=height)
        ref = np.empty((grid.ny, grid.nx, 3))
        regions = grid.regions()
        for r in range(grid.ny):
            for c in range(grid.nx):
                reg = regions[r * grid.nx + c]
                ref[r, c] = img[reg.y0 : reg.y1, reg.x0 : reg.x1].mean(axis=(0, 1))
        assert seg.patch_mean_colors(img, grid).tobytes() == ref.tobytes()


class TestUnary:
    def test_zero_detector_uniform_half(self):
        rng = np.random.default_rng(0)
        params = ft.init_convnet((3, 4), seed=0)
        pyramid = ft.PyramidConfig((1, 2))
        detector = svm.LinearModel(weights=np.zeros(ft.feature_dim(params, pyramid)), bias=0.0, lam=1.0)
        img = rng.uniform(size=(32, 32, 3))
        grid = seg.grid_for(img, 8)
        rows = ft.extract_region_features(img, grid.regions(), params, pyramid).matrix
        unary = seg.compute_unary(rows, grid, detector)
        assert unary.shape == (4, 4)
        assert np.allclose(unary, 0.5)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(1)
        params = ft.init_convnet((3, 4), seed=0)
        pyramid = ft.PyramidConfig((1, 2))
        d = ft.feature_dim(params, pyramid)
        detector = svm.LinearModel(weights=rng.normal(size=d), bias=0.1, lam=1.0)
        img = rng.uniform(size=(32, 32, 3))
        grid = seg.grid_for(img, 8)
        rows = ft.extract_region_features(img, grid.regions(), params, pyramid).matrix
        unary = seg.compute_unary(rows, grid, detector)
        assert np.all(unary > 0.0) and np.all(unary < 1.0)


def dense_reference_kernel(grid, colors, pp):
    """The all-pairs kernel the neighbour-pair form replaced: exp on every
    pair, then zeroed beyond 3 theta_pos and on the diagonal."""
    n = grid.ny * grid.nx
    rows, cols = np.divmod(np.arange(n), grid.nx)
    dpos2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    flat = colors.reshape(n, 3)
    dcol2 = (flat[:, None, 0] - flat[None, :, 0]) ** 2
    for ch in (1, 2):
        dcol2 += (flat[:, None, ch] - flat[None, :, ch]) ** 2
    k = np.exp(-dpos2 / (2 * pp.theta_pos**2) - dcol2 / (2 * pp.theta_color**2))
    k[dpos2 > (3 * pp.theta_pos) ** 2] = 0.0
    np.fill_diagonal(k, 0.0)
    return k


class TestMeanField:
    def test_w_zero_is_bit_identical(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(32, 32, 3))
        grid = seg.grid_for(img, 8)
        unary = rng.uniform(size=(grid.ny, grid.nx))
        for iters in (0, 1, 5):
            pp = seg.PairwiseParams(w=0.0, iterations=iters)
            out = seg.refine_mean_field(unary, img, grid, pp)
            assert np.array_equal(out, unary)
            assert out is not unary

    def test_uniform_half_fixed_point(self):
        img = np.full((32, 32, 3), 0.3)
        grid = seg.grid_for(img, 8)
        unary = np.full((grid.ny, grid.nx), 0.5)
        out = seg.refine_mean_field(unary, img, grid, seg.PairwiseParams(w=2.0, iterations=5))
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_two_patch_closed_form(self):
        # 1x2 grid, identical colors, huge spatial bandwidth -> k = 1 exactly;
        # one synchronous sweep from u = (0.9, 0.5):
        #   q2 = sigmoid(logit(0.5) + w * k * (2*0.9 - 1)) = sigmoid(0.8)
        img = np.full((8, 16, 3), 0.5)
        grid = seg.PatchGrid(patch_size=8, width=16, height=8)
        unary = np.array([[0.9, 0.5]])
        pp = seg.PairwiseParams(w=1.0, theta_pos=1e9, theta_color=0.15, iterations=1)
        out = seg.refine_mean_field(unary, img, grid, pp)
        assert abs(out[0, 1] - sigmoid(0.8)) < 1e-9
        assert abs(out[0, 0] - sigmoid(np.log(0.9 / 0.1) + 0.0)) < 1e-9

    def test_truncation_beyond_3_theta(self):
        grid = seg.PatchGrid(patch_size=8, width=80, height=8)
        colors = np.zeros((1, 10, 3))
        k = seg._pairwise_kernel(grid, colors, seg.PairwiseParams(theta_pos=1.0))
        assert k[0, 3] > 0.0  # distance 3 = 3*theta is kept
        assert k[0, 4] == 0.0  # distance 4 > 3*theta truncated
        assert np.all(np.diag(k) == 0.0)

    def test_kernel_color_distance_matches_channel_sum(self):
        rng = np.random.default_rng(4)
        grid = seg.PatchGrid(patch_size=8, width=72, height=40)
        colors = rng.uniform(size=(grid.ny, grid.nx, 3))
        pp = seg.PairwiseParams(theta_pos=1e9)  # no truncation
        flat = colors.reshape(-1, 3)
        rows, cols = np.divmod(np.arange(len(flat)), grid.nx)
        dpos2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
        dcol2 = ((flat[:, None, :] - flat[None, :, :]) ** 2).sum(axis=2)
        ref = np.exp(-dpos2 / (2 * pp.theta_pos**2) - dcol2 / (2 * pp.theta_color**2))
        np.fill_diagonal(ref, 0.0)
        assert seg._pairwise_kernel(grid, colors, pp).tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        patch=st.integers(4, 9),
        width=st.integers(1, 90),
        height=st.integers(1, 90),
        theta_pos=st.one_of(st.sampled_from([0.2, 1 / 3 - 1e-9, 1 / 3, 1.0, 2.0, 1e9]), st.floats(0.05, 20.0)),
        theta_color=st.floats(0.01, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(patch=8, width=8, height=8, theta_pos=2.0, theta_color=0.15, seed=0)  # 1 x 1
    @example(patch=8, width=80, height=8, theta_pos=2.0, theta_color=0.15, seed=1)  # 1 x n
    @example(patch=8, width=5, height=80, theta_pos=1e9, theta_color=0.15, seed=2)  # n x 1, clipped
    @example(patch=8, width=80, height=80, theta_pos=0.2, theta_color=0.15, seed=3)  # no neighbour
    def test_kernel_matches_dense_reference_bytes(self, patch, width, height, theta_pos, theta_color, seed):
        # 1x1 and 1xn grids, clipped last patches, no neighbour at all
        # (theta_pos < 1/3), every pair kept (1e9)
        grid = seg.PatchGrid(patch_size=patch, width=width, height=height)
        colors = np.random.default_rng(seed).uniform(size=(grid.ny, grid.nx, 3))
        pp = seg.PairwiseParams(theta_pos=theta_pos, theta_color=theta_color)
        got = seg._pairwise_kernel(grid, colors, pp)
        ref = dense_reference_kernel(grid, colors, pp)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        if 3 * theta_pos < 1:
            assert not got.any()

    def test_neighbour_pairs_are_read_only(self):
        for a in seg._neighbour_pairs(5, 7, 2.0):
            with pytest.raises(ValueError):
                a[...] = 0

    def test_neighbour_pairs_memory_is_that_of_the_pairs(self):
        # 40 x 40 grid at theta_pos = 1: 41,956 pairs; an n x n int64
        # distance array alone would take 20 MiB
        seg._neighbour_pairs.cache_clear()
        tracemalloc.start()
        try:
            i, _, _ = seg._neighbour_pairs(40, 40, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            seg._neighbour_pairs.cache_clear()
        assert i.size > 40_000 and peak < 4 * 2**20, peak

    def test_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(40, 40, 3))
        grid = seg.grid_for(img, 8)
        unary = rng.uniform(size=(grid.ny, grid.nx))
        out = seg.refine_mean_field(unary, img, grid, seg.PairwiseParams(w=5.0, iterations=10))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(32, 32, 3))
        grid = seg.grid_for(img, 8)
        unary = rng.uniform(size=(grid.ny, grid.nx))
        a = seg.refine_mean_field(unary, img, grid)
        b = seg.refine_mean_field(unary, img, grid)
        assert np.array_equal(a, b)


class TestThresholdAndMask:
    def test_boundary_rule_inclusive(self):
        pf = np.full((2, 2), 0.5)
        assert seg.threshold_mask(pf, 0.5).all()

    def test_high_tau_empties(self):
        pf = np.full((2, 2), 0.9)
        assert not seg.threshold_mask(pf, 0.99).any()

    def test_area_non_increasing_in_tau(self):
        rng = np.random.default_rng(0)
        pf = rng.uniform(size=(5, 5))
        areas = [seg.threshold_mask(pf, t).sum() for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_tau_validated(self):
        with pytest.raises(ValueError, match=r"tau must be in \(0,1\), got 0.0"):
            seg.threshold_mask(np.zeros((2, 2)), 0.0)

    def test_segment_image_is_the_step_chain(self):
        # segment_image is unary -> mean field -> threshold -> upsample on
        # the rows of its own patch grid
        rng = np.random.default_rng(5)
        params = ft.init_convnet((3, 4), seed=0)
        pyramid = ft.PyramidConfig((1, 2))
        detector = svm.LinearModel(weights=rng.normal(size=ft.feature_dim(params, pyramid)), bias=0.1, lam=1.0)
        img = rng.uniform(size=(36, 28, 3))
        grid = seg.grid_for(img, 8)
        rows = ft.extract_region_features(img, grid.regions(), params, pyramid).matrix
        pp = seg.PairwiseParams(w=3.0, iterations=4)
        unary = seg.compute_unary(rows, grid, detector, 2.0)
        steps = seg.upsample_mask(seg.threshold_mask(seg.refine_mean_field(unary, img, grid, pp), 0.4), grid)
        mask = seg.segment_image(img, detector, params, pyramid, patch_size=8, pp=pp, tau=0.4, scale=2.0)
        assert mask.shape == (36, 28) and mask.dtype == np.uint8
        assert mask.tobytes() == steps.tobytes()

    def test_upsample_block(self):
        grid = seg.PatchGrid(patch_size=8, width=16, height=8)
        mask = np.array([[1, 0]], dtype=np.uint8)
        pixels = seg.upsample_mask(mask, grid)
        assert pixels.shape == (8, 16)
        assert pixels[:, :8].all() and not pixels[:, 8:].any()

    @settings(max_examples=60, deadline=None)
    @given(patch=st.integers(4, 12), width=st.integers(1, 50), height=st.integers(1, 50), seed=st.integers(0, 2**16))
    def test_upsample_matches_per_patch_reference(self, patch, width, height, seed):
        grid = seg.PatchGrid(patch_size=patch, width=width, height=height)
        mask = (np.random.default_rng(seed).uniform(size=(grid.ny, grid.nx)) > 0.5).astype(np.uint8)
        expected = np.zeros((height, width), dtype=np.uint8)
        regions = grid.regions()
        for r in range(grid.ny):
            for c in range(grid.nx):
                reg = regions[r * grid.nx + c]
                expected[reg.y0 : reg.y1, reg.x0 : reg.x1] = mask[r, c]
        pixels = seg.upsample_mask(mask, grid)
        assert pixels.dtype == np.uint8 and np.array_equal(pixels, expected)

    def test_apply_mask_full_and_empty(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(8, 8, 3))
        full = seg.apply_mask(img, np.ones((8, 8), dtype=np.uint8))
        assert np.array_equal(full, img)
        empty = seg.apply_mask(img, np.zeros((8, 8), dtype=np.uint8))
        assert np.all(empty == 0.5)

    def test_apply_mask_keeps_dtype_and_takes_2d(self):
        rng = np.random.default_rng(3)
        mask = (rng.uniform(size=(6, 9)) > 0.5).astype(np.uint8)
        for img in (rng.uniform(size=(6, 9, 3)), rng.uniform(size=(6, 9)),
                    rng.uniform(size=(6, 9, 3)).astype(np.float32),
                    rng.integers(1, 255, size=(6, 9, 3)).astype(np.uint8)):
            out = seg.apply_mask(img, mask)
            ref = np.full_like(img, 0.5)  # the per-pixel form: gray canvas, foreground copied
            ref[mask.astype(bool)] = img[mask.astype(bool)]
            assert out.dtype == img.dtype and out.shape == img.shape
            assert out.tobytes() == ref.tobytes()

    def test_apply_mask_shape_check(self):
        with pytest.raises(ValueError):
            seg.apply_mask(np.zeros((8, 8, 3)), np.zeros((4, 4)))

    def test_masked_features_change_only_via_background(self):
        rng = np.random.default_rng(2)
        params = ft.init_convnet((3, 4), seed=0)
        img = rng.uniform(size=(32, 32, 3))
        mask = np.ones((32, 32), dtype=np.uint8)
        full = [ft.Region(0, 0, 32, 32)]
        assert np.allclose(
            ft.extract_region_features(seg.apply_mask(img, mask), full, params).matrix,
            ft.extract_region_features(img, full, params).matrix,
        )


class TestIoU:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = (rng.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        assert seg.mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0] = 1
        b[3, 3] = 1
        assert seg.mask_iou(a, b) == 0.0

    def test_empty_vs_empty(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        assert seg.mask_iou(z, z) == 1.0

    def test_half_overlap(self):
        a = np.zeros((2, 4), dtype=np.uint8)
        b = np.zeros((2, 4), dtype=np.uint8)
        a[:, :2] = 1
        b[:, 1:3] = 1
        assert abs(seg.mask_iou(a, b) - 2 / 6) < 1e-12


class TestPbm:
    def test_write_and_unpack(self, tmp_path):
        mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        path = tmp_path / "m.pbm"
        seg.write_pbm(path, mask)
        data = path.read_bytes()
        assert data.startswith(b"P4\n3 2\n")
        bits = np.unpackbits(np.frombuffer(data[len(b"P4\n3 2\n"):], dtype=np.uint8))
        back = bits.reshape(2, 8)[:, :3]
        assert np.array_equal(back, mask)


BLAS_PROBE = """
import hashlib
import numpy as np
from camtrap import features as ft, segmentation as seg
rng = np.random.default_rng(5)
h = hashlib.sha256()
image = rng.uniform(size=(160, 160, 3))
for channels in ((3, 8, 16), (3, 32, 64)):
    h.update(ft.forward(image, ft.init_convnet(channels, seed=1)).tobytes())
grid = seg.grid_for(image, 8)
unary = rng.uniform(size=(grid.ny, grid.nx))
for pp in (seg.PairwiseParams(), seg.PairwiseParams(theta_pos=1e9)):
    h.update(seg._pairwise_kernel(grid, seg.patch_mean_colors(image, grid), pp).tobytes())
    h.update(seg.refine_mean_field(unary, image, grid, pp).tobytes())
print(h.hexdigest())
"""


def test_forward_and_kernel_bytes_independent_of_blas_threads():
    src = str(Path(seg.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1
