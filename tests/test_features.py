"""Convolutional features, SPP pooling, region proposals and gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camtrap import features as ft
from spp_reference import reference_pooler


def rand_image(rng, h=6, w=6, c=3):
    return rng.uniform(0, 1, size=(h, w, c))


class TestInit:
    def test_deterministic(self):
        a = ft.init_convnet((3, 8, 16), seed=4)
        b = ft.init_convnet((3, 8, 16), seed=4)
        assert a.channels == b.channels
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert x.tobytes() == y.tobytes()

    def test_seeds_differ(self):
        a, b = ft.init_convnet((3, 8), seed=0), ft.init_convnet((3, 8), seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_glorot_bound(self):
        params = ft.init_convnet((3, 8, 16), seed=0)
        for w, (cin, cout) in zip(params.weights, [(3, 8), (8, 16)]):
            bound = np.sqrt(6.0 / (9 * cin + 9 * cout))
            assert np.abs(w).max() <= bound

    def test_bad_arch(self):
        with pytest.raises(ValueError):
            ft.init_convnet((3,), seed=0)
        with pytest.raises(ValueError):
            ft.init_convnet((3, 0), seed=0)


class TestForward:
    def test_zero_image_zero_map(self):
        params = ft.init_convnet((3, 4, 4), seed=0)
        fmap = ft.forward(np.zeros((16, 16, 3)), params)
        assert fmap.shape == (4, 4, 4)
        assert np.all(fmap == 0.0)

    def test_identity_kernel_relu(self):
        # single layer, center-tap identity kernel: pooled output equals
        # 2x2 max of ReLU(input)
        params = ft.init_convnet((1, 1), seed=0)
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0
        params.weights[0] = w
        x = np.array([[1.0, -2.0], [-3.0, 4.0]])[:, :, None]
        out = ft.forward(x, params)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0

    def test_too_small_rejected(self):
        params = ft.init_convnet((3, 4, 4), seed=0)
        with pytest.raises(ValueError):
            ft.forward(np.zeros((3, 3, 3)), params)

    def test_channel_mismatch(self):
        params = ft.init_convnet((3, 4), seed=0)
        with pytest.raises(ValueError):
            ft.forward(np.zeros((8, 8, 1)), params)


def reference_conv3x3(x, w, b):
    """The bias-tiled conv the lean forward replaced: its bytes are the oracle."""
    h, wd = x.shape[:2]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.tile(b, (h, wd, 1)).astype(float)
    for dy in range(3):
        for dx in range(3):
            out += xp[dy : dy + h, dx : dx + wd] @ w[dy, dx]
    return out


def reference_pool_windows(x):
    h2, w2 = x.shape[0] // 2, x.shape[1] // 2
    win = x[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2, -1).transpose(0, 2, 1, 3, 4)
    return win.reshape(h2, w2, 4, -1)


def reference_forward(image, params):
    """Feature map and per-layer pre-activations: ReLU, then the max of each window."""
    x = np.asarray(image[:, :, None] if image.ndim == 2 else image, dtype=float)
    pres = []
    for w, b in zip(params.weights, params.biases):
        pres.append(reference_conv3x3(x, w, b))
        x = reference_pool_windows(np.maximum(pres[-1], 0.0)).max(axis=2)
    return x, pres


class TestForwardOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_forward_matches_reference_bytes(self, data):
        # odd sizes, 2-D images, nonzero biases, negative inputs, 1-3 layers.
        # A -0.0 bias is left out (v + 0.0 maps it to +0.0): with any other
        # bias a pre-activation is never -0.0, and only there could a ReLU
        # after the max give a zero of the other sign.
        n_layers = data.draw(st.integers(1, 3))
        two_d = data.draw(st.booleans())
        channels = [1 if two_d else data.draw(st.integers(1, 4))]
        channels += [data.draw(st.integers(1, 6)) for _ in range(n_layers)]
        params = ft.init_convnet(channels, seed=data.draw(st.integers(0, 2**16)))
        bias = st.floats(-1, 1, allow_nan=False).map(lambda v: v + 0.0)
        params.biases = [np.array([data.draw(bias) for _ in range(len(b))]) for b in params.biases]
        h = data.draw(st.integers(params.downsample, 37))
        w = data.draw(st.integers(params.downsample, 37))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        image = rng.uniform(-1, 1, size=(h, w) if two_d else (h, w, channels[0]))
        ref, ref_pres = reference_forward(image, params)
        got, cache = ft.forward(image, params, return_cache=True)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert ft.forward(image, params).tobytes() == ref.tobytes()
        for layer, pre in zip(cache["layers"], ref_pres):
            assert layer["pre"].tobytes() == pre.tobytes()

    @pytest.mark.parametrize("band_rows, h, w", [(2, 23, 17), (6, 28, 13), (6, 31, 20), (10, 45, 9)])
    def test_bands_match_reference_bytes(self, band_rows, h, w, monkeypatch):
        # a budget of `band_rows` first-layer rows: many bands, an uneven last
        # band, odd heights, and deeper layers banded by the same budget
        params = ft.init_convnet((3, 4, 5, 3), seed=2)
        params.biases = [np.linspace(-0.5, 0.5, len(b)) for b in params.biases]
        monkeypatch.setattr(ft, "BAND_BYTES", band_rows * 8 * w * 4)
        image = np.random.default_rng(h).uniform(-1, 1, size=(h, w, 3))
        ref, ref_pres = reference_forward(image, params)
        got, cache = ft.forward(image, params, return_cache=True)
        assert got.tobytes() == ref.tobytes()
        assert ft.forward(image, params).tobytes() == ref.tobytes()
        for layer, pre in zip(cache["layers"], ref_pres):
            assert layer["pre"].tobytes() == pre.tobytes()

    def test_forward_peak_memory_at_160px(self):
        # bands bound the conv's working set: the whole-image conv peaked at 3.9 MiB
        params = ft.init_convnet((3, 8, 16), seed=0)
        image = np.random.default_rng(3).uniform(size=(160, 160, 3))
        ft.forward(image, params)
        tracemalloc.start()
        try:
            ft.forward(image, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_forward_pads_one_band_at_a_time_at_512px(self):
        # a padded copy of the whole input peaked at 10.7 MiB here; padded
        # bands leave layer 2's 4 MiB input and 2 MiB output plus the band
        # buffers, under 1 MiB
        params = ft.init_convnet((3, 8, 16), seed=0)
        image = np.random.default_rng(5).uniform(size=(512, 512, 3))
        ft.forward(image, params)
        tracemalloc.start()
        try:
            got = ft.forward(image, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 + 2 + 1) * 2**20, peak
        assert got.tobytes() == reference_forward(image, params)[0].tobytes()

    def test_feature_bytes_match_reference_at_160px(self):
        params = ft.init_convnet((3, 8, 16), seed=0)
        image = np.random.default_rng(3).uniform(size=(160, 160, 3))
        assert ft.forward(image, params).tobytes() == reference_forward(image, params)[0].tobytes()


def fd_check_directional(fn, x0, grad, rng, n_dirs=4, eps=1e-6, tol=1e-4):
    """Compare analytic gradient projections against central differences."""
    for _ in range(n_dirs):
        d = rng.normal(size=x0.shape)
        d /= np.linalg.norm(d.ravel())
        num = (fn(x0 + eps * d) - fn(x0 - eps * d)) / (2 * eps)
        ana = float((grad * d).sum())
        denom = max(abs(num), abs(ana), 1e-8)
        assert abs(num - ana) / denom < tol, (num, ana)


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            params = ft.init_convnet((2, 3, 2), seed=trial)
            x = rand_image(rng, 6, 6, 2)
            proj = rng.normal(size=(1, 1, 2))

            def loss_img(img):
                return float((ft.forward(img, params) * proj).sum())

            out, cache = ft.forward(x, params, return_cache=True)
            gimg, gw, gb = ft.backward(np.broadcast_to(proj, out.shape), cache, params)
            fd_check_directional(loss_img, x, gimg, rng)

            def loss_w0(w):
                saved = params.weights[0]
                params.weights[0] = w
                try:
                    return float((ft.forward(x, params) * proj).sum())
                finally:
                    params.weights[0] = saved

            fd_check_directional(loss_w0, params.weights[0], gw[0], rng)

    def test_bias_gradient(self):
        rng = np.random.default_rng(1)
        params = ft.init_convnet((1, 2), seed=3)
        x = rand_image(rng, 4, 4, 1)
        out, cache = ft.forward(x, params, return_cache=True)
        g = rng.normal(size=out.shape)
        _, _, gb = ft.backward(g, cache, params)

        def loss_b(b):
            saved = params.biases[0]
            params.biases[0] = b
            try:
                return float((ft.forward(x, params) * g).sum())
            finally:
                params.biases[0] = saved

        fd_check_directional(loss_b, params.biases[0], gb[0], rng)


class TestProposeRegions:
    def test_full_scale_single_region(self):
        regions = ft.propose_regions(64, 64, scales=[1.0], stride_fraction=0.5)
        assert regions == [ft.Region(0, 0, 64, 64)]

    def test_96_half_scale_grid(self):
        regions = ft.propose_regions(96, 96, scales=[0.5], stride_fraction=0.5)
        assert len(regions) == 10
        origins = {(r.x0, r.y0) for r in regions[:-1]}
        assert origins == {(x, y) for x in (0, 24, 48) for y in (0, 24, 48)}
        assert all(r.x1 - r.x0 == 48 and r.y1 - r.y0 == 48 for r in regions[:-1])
        assert regions[-1] == ft.Region(0, 0, 96, 96)

    def test_regions_within_bounds(self):
        regions = ft.propose_regions(50, 30, scales=[0.3, 0.7], stride_fraction=0.4)
        for r in regions:
            assert 0 <= r.x0 < r.x1 <= 50
            assert 0 <= r.y0 < r.y1 <= 30
        assert len({r.as_tuple() for r in regions}) == len(regions)

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 80),
        height=st.integers(1, 80),
        scales=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
        stride=st.floats(0.05, 1.0),
    )
    def test_matches_list_dedup_reference(self, width, height, scales, stride):
        regions = [r.as_tuple() for r in ft.propose_regions(width, height, scales, stride)]
        # reference: every window in scan order, first occurrence kept, full image moved last
        ref, seen = [], set()
        for s in scales:
            win = max(1, int(round(s * min(width, height))))
            step = max(1, int(round(stride * win)))
            for y0 in range(0, max(height - win, 0) + 1, step):
                for x0 in range(0, max(width - win, 0) + 1, step):
                    t = (x0, y0, min(x0 + win, width), min(y0 + win, height))
                    if t not in seen:
                        seen.add(t)
                        ref.append(t)
        ref = [t for t in ref if t != (0, 0, width, height)] + [(0, 0, width, height)]
        assert regions == ref
        assert len(set(regions)) == len(regions)
        assert regions[-1] == (0, 0, width, height)
        assert all(0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height for x0, y0, x1, y1 in regions)

    def test_degenerate_region_type(self):
        with pytest.raises(ValueError):
            ft.Region(5, 0, 5, 4)
        with pytest.raises(ValueError):
            ft.Region(-1, 0, 4, 4)


class TestSppPool:
    def test_constant_map(self):
        fmap = np.full((4, 4, 2), 0.7)
        out = ft.spp_pool(fmap, [ft.Region(0, 0, 4, 4)], ft.PyramidConfig((1, 2)))[0]
        assert out.shape == (2 * 5,)
        assert np.allclose(out, 0.7)

    def test_level1_global_max(self):
        rng = np.random.default_rng(0)
        fmap = rng.uniform(size=(6, 6, 3))
        out = ft.spp_pool(fmap, [ft.Region(0, 0, 6, 6)], ft.PyramidConfig((1,)))[0]
        assert np.allclose(out, fmap.max(axis=(0, 1)))

    def test_hot_quadrant(self):
        fmap = np.zeros((4, 4, 1))
        fmap[3, 0, 0] = 5.0  # bottom-left quadrant
        out = ft.spp_pool(fmap, [ft.Region(0, 0, 4, 4)], ft.PyramidConfig((2,)))[0]
        # cells row-major: TL, TR, BL, BR
        assert list(out) == [0.0, 0.0, 5.0, 0.0]

    def test_degenerate_cell_expanded(self):
        fmap = np.arange(4.0).reshape(1, 4, 1)
        out = ft.spp_pool(fmap, [ft.Region(0, 0, 4, 1)], ft.PyramidConfig((2,)))[0]
        assert out.shape == (4,)
        assert np.isfinite(out).all()

    def test_monotone(self):
        rng = np.random.default_rng(5)
        fmap = rng.uniform(size=(8, 8, 2))
        pyramid = ft.PyramidConfig((1, 2))
        region = ft.Region(0, 0, 8, 8)
        base = ft.spp_pool(fmap, [region], pyramid)[0]
        bumped = fmap.copy()
        bumped[3, 5, 1] += 1.0
        after = ft.spp_pool(bumped, [region], pyramid)[0]
        assert np.all(after >= base - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_pooler_matches_reference(self, data):
        # maps of 1-12 px a side, regions that overhang the map and cells
        # that collapse to width 0 (more cells than map columns)
        fh, fw = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        c = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        fmap = np.random.default_rng(seed).uniform(-1, 1, size=(fh, fw, c))
        ds = data.draw(st.sampled_from((1, 2, 4, 8)))
        pyramid = ft.PyramidConfig(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        origin_x, origin_y = st.integers(0, fw * ds + 4), st.integers(0, fh * ds + 4)
        regions = []
        for _ in range(data.draw(st.integers(1, 6))):
            x0, y0 = data.draw(origin_x), data.draw(origin_y)
            regions.append(ft.Region(x0, y0, x0 + data.draw(st.integers(1, fw * ds + 8)),
                                     y0 + data.draw(st.integers(1, fh * ds + 8))))
        ref = reference_pooler(fmap, regions, pyramid, downsample=ds)
        got = ft.spp_pool(fmap, regions, pyramid, downsample=ds)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_plan_cache_cold_and_warm_give_reference_bytes(self):
        # one plan per map size and window set: the first call builds it, and
        # later maps of that size reuse it with the reference's bytes
        rng = np.random.default_rng(5)
        pyramid = ft.PyramidConfig((1, 2, 3))
        regions = ft.propose_regions(40, 24, (0.5, 0.75)) + [ft.Region(3, 1, 9, 30)]
        fmaps = [rng.uniform(-1, 1, size=(6, 10, 4)) for _ in range(3)]
        ft._spp_plan.cache_clear()
        cold = ft.spp_pool(fmaps[0], regions, pyramid, downsample=4)
        assert ft._spp_plan.cache_info()[:2] == (0, 1)  # hits, misses
        for fmap in fmaps:
            got = ft.spp_pool(fmap, regions, pyramid, downsample=4)
            assert got.tobytes() == reference_pooler(fmap, regions, pyramid, downsample=4).tobytes()
        assert ft._spp_plan.cache_info()[:2] == (3, 1)
        assert got is not cold and ft.spp_pool(fmaps[0], regions, pyramid, downsample=4).tobytes() == cold.tobytes()
        plan = ft._spp_plan(6, 10, tuple(r.as_tuple() for r in regions), pyramid.levels, 4)
        assert all(not a.flags.writeable for cells, gather in plan for a in (cells, gather))
        for shape in ((5, 10, 4), (6, 9, 4), (6, 10, 4)):  # the cache keeps at most two plans
            fmap = rng.uniform(-1, 1, size=shape)
            got = ft.spp_pool(fmap, regions, pyramid, downsample=4)
            assert got.tobytes() == reference_pooler(fmap, regions, pyramid, downsample=4).tobytes()
        assert ft._spp_plan.cache_info().currsize == 2


class TestExtract:
    def test_duplicate_regions_identical(self):
        rng = np.random.default_rng(0)
        params = ft.init_convnet((3, 4), seed=0)
        img = rand_image(rng, 16, 16)
        r = ft.Region(0, 0, 8, 8)
        rf = ft.extract_region_features(img, [r, r], params, ft.PyramidConfig((1, 2)))
        assert np.array_equal(rf.matrix[0], rf.matrix[1])

    def test_empty_region_list_gives_no_rows(self):
        params, pyramid = ft.init_convnet((3, 4), seed=0), ft.PyramidConfig((1, 2))
        rf = ft.extract_region_features(rand_image(np.random.default_rng(3), 16, 16), [], params, pyramid)
        assert rf.regions == () and rf.matrix.shape == (0, ft.feature_dim(params, pyramid))

    def test_row_norms(self):
        rng = np.random.default_rng(1)
        params = ft.init_convnet((3, 4, 4), seed=0)
        img = rand_image(rng, 32, 32)
        regions = ft.propose_regions(32, 32, scales=[0.5], stride_fraction=0.5)
        rf = ft.extract_region_features(img, regions, params, ft.PyramidConfig((1, 2)))
        norms = np.linalg.norm(rf.matrix, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_outside_content_does_not_leak(self):
        rng = np.random.default_rng(2)
        params = ft.init_convnet((3, 4, 4), seed=0)
        img = rand_image(rng, 32, 32)
        other = img.copy()
        other[:, 28:] = 0.0  # far beyond the receptive-field margin of x<16
        region = ft.Region(0, 0, 16, 32)
        a = ft.extract_region_features(img, [region], params)
        b = ft.extract_region_features(other, [region], params)
        assert np.allclose(a.matrix, b.matrix)

    def test_feature_dim(self):
        params = ft.init_convnet((3, 8, 16), seed=0)
        assert ft.feature_dim(params, ft.PyramidConfig((1, 2))) == 16 * 5
