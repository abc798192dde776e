"""Protocol runners: bookkeeping, schemas, determinism and parallel parity.
Trend assertions live in the acceptance suite; these tests use tiny corpora
and short training budgets."""

import filecmp
import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from camtrap import experiments as ex
from camtrap import features as ft
from camtrap import manifest as mf
from camtrap import metrics as mt
from camtrap import segmentation as seg
from camtrap import svm
from camtrap import synth
from spp_reference import reference_pooler

SMALL_SPECS = (
    synth.SpeciesSpec("tiger", "stripes", 2, 8),
    synth.SpeciesSpec("leopard", "spots", 2, 8),
)
SMALL_SYNTH = synth.SynthConfig(image_size=64, species_specs=SMALL_SPECS, n_negatives=16, seed=11)
FAST = dict(synth_config=SMALL_SYNTH, n_seeds=2, head_epochs=40, head_lr=4.0, svm_epochs=8)


def config(protocol, **overrides):
    kwargs = dict(FAST)
    kwargs.update(overrides)
    return ex.ExperimentConfig(protocol=protocol, **kwargs)


@pytest.fixture(scope="module")
def ctx():
    return ex.PipelineContext(config("volume"))


def same_tree(a, b):
    names = sorted(f.name for f in a.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return match == names and not mismatch and not errors


def run_counting_heads(monkeypatch, cfg, out, ctx=None):
    """Write `cfg`'s report to `out`; the number of heads it trained."""
    train_heads, fits = ex.wsddn.train_heads, []
    monkeypatch.setattr(ex.wsddn, "train_heads",
                        lambda group, *schedule: fits.extend(group) or train_heads(group, *schedule))
    ex.write_report(ex.run_protocol(cfg, ctx), out)
    monkeypatch.setattr(ex.wsddn, "train_heads", train_heads)
    return len(fits)


def fit_every_run(monkeypatch):
    """Build, fit and score every row's run on its own, repeated keys included."""
    runs = ex._individual_runs
    monkeypatch.setattr(ex, "_individual_runs", lambda ctx, cfg, keys: [runs(ctx, cfg, [key])[0] for key in keys])


class TestConfig:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            config("nope")

    def test_needs_corpus_source(self):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(protocol="volume")

    def test_one_corpus_source(self):
        with pytest.raises(ValueError, match="exactly one of synth_config and manifest_path"):
            config("volume", manifest_path="m.csv")
        with pytest.raises(ValueError, match="images_root /imgs needs manifest_path"):
            config("volume", images_root="/imgs")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            config("volume", fractions=(0.5, 1.2))

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            config("volume", n_seeds=0)

    def test_jobs_at_least_one(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                config("volume", jobs=jobs)

    def test_resolved_excludes_jobs(self):
        assert "jobs" not in config("volume", jobs=4).resolved()

    def test_runner_config_is_the_only_config(self, ctx, monkeypatch):
        # the shared context is built with svm_epochs 8 and svm_lambda 1e-3;
        # single fits and lockstep fits are both recorded
        train, train_many = svm.train_linear_svm, svm.train_linear_svms
        fits = []

        def recording_train(x, y, cfg):
            fits.append((cfg.epochs, cfg.lam))
            return train(x, y, cfg)

        def recording_train_many(x, plans, epochs, lam):
            fits.extend((epochs, lam) for _ in plans)
            return train_many(x, plans, epochs, lam)

        monkeypatch.setattr(svm, "train_linear_svm", recording_train)
        monkeypatch.setattr(svm, "train_linear_svms", recording_train_many)
        for protocol in ("volume", "proportion", "split", "illumination", "species"):
            fits.clear()
            ex.run_protocol(config(protocol, svm_epochs=3, svm_lambda=1e-2, n_seeds=1, head_epochs=5), ctx)
            assert fits and set(fits) == {(3, 1e-2)}, protocol
        with pytest.raises(ValueError, match="channels"):
            ex.run_protocol(config("volume", channels=(3, 4)), ctx)
        with pytest.raises(ValueError, match="patch_size"):
            ex.run_protocol(config("individual", segment=True, patch_size=16), ctx)
        other_corpus = synth.SynthConfig(image_size=64, species_specs=SMALL_SPECS, n_negatives=16, seed=99)
        with pytest.raises(ValueError, match="synth_config"):
            ex.run_protocol(config("volume", synth_config=other_corpus), ctx)


    @pytest.mark.parametrize("protocol", ["species", "volume"])
    def test_unsegmented_runners_pool_no_patch_grid(self, protocol, monkeypatch):
        # segment = true sets only the individual runs' masks: a runner that
        # reads no mask pools no image's patch grid (no pooling call holds
        # more regions than an image's windows), and a detector sweep pools
        # no windows either, only each full frame
        pooled, spp_pool = [], ft.spp_pool
        monkeypatch.setattr(ft, "spp_pool", lambda fmap, regions, *args, **kwargs: (
            pooled.append(len(regions)) or spp_pool(fmap, regions, *args, **kwargs)))
        ctx = ex.PipelineContext(config(protocol, segment=True))
        ex.run_protocol(config(protocol, segment=True, n_seeds=1, head_epochs=5, fractions=(1.0,)), ctx)
        size = SMALL_SYNTH.image_size
        n_windows = len(ft.propose_regions(size, size, ctx.cfg.region_scales, ctx.cfg.region_stride))
        if protocol == "volume":
            assert not ctx._region_feats and set(pooled) == {1}
        else:
            assert ctx._region_feats and pooled and max(pooled) == n_windows


def assert_image_feature_is_last_window_row(cfg):
    """On a fresh context, each image's full frame pooled alone has the bytes
    of the last row of its windows, pooled by another context."""
    fresh, windows = ex.PipelineContext(cfg), ex.PipelineContext(cfg)
    for rid in fresh.manifest.ids():
        assert fresh.image_feature(rid).tobytes() == windows.region_features(rid).matrix[-1].tobytes(), rid
    assert not fresh._region_feats


class TestImageFeature:
    def test_full_frame_alone_is_last_window_row(self):
        assert_image_feature_is_last_window_row(config("volume"))

    def test_full_frame_alone_on_mixed_size_ppms(self, tmp_path):
        rng = np.random.default_rng(3)
        records = []
        for n, (w, h) in enumerate(((64, 64), (96, 48)) * 3):
            synth.write_ppm(tmp_path / f"{n}.ppm", rng.random((h, w, 3)))
            records.append(mf.ImageRecord(f"i{n}", f"{n}.ppm", ("tiger", "unclassified")[n % 2], None, "day", w, h))
        mf.save_manifest(mf.Manifest(tuple(records)), tmp_path / "manifest.csv")
        assert_image_feature_is_last_window_row(
            ex.ExperimentConfig(protocol="volume", manifest_path=str(tmp_path / "manifest.csv")))

    def test_volume_pools_each_image_once_with_one_region(self, monkeypatch):
        pooled, spp_pool = [], ft.spp_pool
        monkeypatch.setattr(ft, "spp_pool", lambda fmap, regions, *args, **kwargs: (
            pooled.append(len(regions)) or spp_pool(fmap, regions, *args, **kwargs)))
        cfg = config("volume", fractions=(0.5, 1.0))
        ctx = ex.PipelineContext(cfg)
        ex.run_protocol(cfg, ctx)
        assert pooled == [1] * len(ctx.manifest)


class TestDetectorSweeps:
    def test_volume_row_count(self, ctx):
        cfg = config("volume", fractions=(0.5, 1.0))
        report = ex.run_volume_sweep(cfg, ctx)
        assert len(report.rows) == 2 * cfg.n_seeds
        assert len(report.aggregates) == 2
        assert {r["fraction"] for r in report.rows} == {0.5, 1.0}

    def test_degenerate_single_point_sweep(self, ctx):
        cfg = config("volume", fractions=(1.0,), n_seeds=1)
        report = ex.run_volume_sweep(cfg, ctx)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["n_images"] == len(ctx.manifest)
        assert row["accuracy"] is not None

    def test_proportion_rows(self, ctx):
        cfg = config("proportion", train_proportions=(0.5, 1.0))
        report = ex.run_detector_sweep(cfg, ctx)
        assert len(report.rows) == 2 * cfg.n_seeds
        assert all("n_train" in r for r in report.rows)

    def test_split_marks_best_ratio(self, ctx):
        cfg = config("split", split_ratios=(0.5, 0.7))
        report = ex.run_detector_sweep(cfg, ctx)
        assert sum(a["best"] for a in report.aggregates) == 1
        rerun = ex.run_detector_sweep(cfg, ctx)
        assert report.aggregates == rerun.aggregates

    def test_jobs_parity(self, ctx, monkeypatch):
        # jobs threads build image features; every SVM and head fit runs on the calling thread
        threads = {"fit": [], "forward": []}

        def recording(fn, kind):
            def record(*args, **kwargs):
                threads[kind].append(threading.get_ident())
                return fn(*args, **kwargs)
            return record

        for name in ("train_linear_svm", "train_linear_svms"):
            monkeypatch.setattr(svm, name, recording(getattr(svm, name), "fit"))
        monkeypatch.setattr(ex.wsddn, "train_heads", recording(ex.wsddn.train_heads, "fit"))
        monkeypatch.setattr(ft, "forward", recording(ft.forward, "forward"))
        sweeps = dict(fractions=(0.5, 1.0), train_proportions=(0.5, 1.0), split_ratios=(0.5, 0.7))
        runs = [(protocol, sweeps, ctx) for protocol in ("volume", "proportion", "split", "illumination")]
        # a fresh context each, so that its images are pooled on the threads too
        runs += [("individual", dict(n_seeds=1, head_epochs=10, segment=True), None),
                 ("species", dict(n_seeds=1, head_epochs=10), None)]
        for protocol, extra, shared in runs:
            a = ex.run_protocol(config(protocol, jobs=1, **extra), shared)
            for kind in threads:
                threads[kind].clear()
            b = ex.run_protocol(config(protocol, jobs=4, **extra), shared)
            assert threads["fit"] and set(threads["fit"]) == {threading.get_ident()}, protocol
            if shared is None:
                assert len(set(threads["forward"])) > 1, protocol
            assert a.rows == b.rows, protocol
            assert a.aggregates == b.aggregates, protocol


class TestMapImages:
    def test_each_item_once_in_order(self):
        # more threads than cores and a short switch interval, so a lost
        # update of the shared item order would show as a repeated item
        calls = []

        def square(n):
            calls.append(n)
            return n * n

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ex._map_images(config("volume", jobs=8), square, range(400))
        finally:
            sys.setswitchinterval(interval)
        assert got == [n * n for n in range(400)]
        assert sorted(calls) == list(range(400))

    def test_first_failing_item_raises(self):
        def fail(n):
            if n in (3, 5):
                raise ValueError(f"item {n}")
            return n

        for jobs in (1, 4):
            with pytest.raises(ValueError, match="item 3"):
                ex._map_images(config("volume", jobs=jobs), fail, range(20))


class TestIllumination:
    def test_schema_rows(self, ctx):
        report = ex.run_illumination_study(config("illumination"), ctx)
        assert [a["subset"] for a in report.aggregates] == ["daylight", "night", "mixed"]
        for key in ("training_accuracy_mean", "test_accuracy_mean", "skipped"):
            assert all(key in a for a in report.aggregates)

    def test_night_skipped_when_absent(self, ctx):
        # the shared corpus has night_fraction 0
        report = ex.run_illumination_study(config("illumination"), ctx)
        by_subset = {a["subset"]: a for a in report.aggregates}
        assert by_subset["night"]["skipped"] == 1
        assert by_subset["daylight"]["skipped"] == 0
        assert by_subset["night"]["test_accuracy_mean"] is None


@pytest.fixture(scope="module")
def report(ctx):
    return ex.run_species_comparison(config("species", n_seeds=1, head_epochs=60), ctx)


class TestSpecies:
    def test_one_conv_forward_per_image(self, monkeypatch):
        forward = ft.forward
        calls = []

        def counting_forward(image, params, return_cache=False):
            calls.append(image.shape)
            return forward(image, params, return_cache)

        monkeypatch.setattr(ft, "forward", counting_forward)
        cfg = config("species", n_seeds=1, head_epochs=5)
        ctx = ex.PipelineContext(cfg)
        ex.run_species_comparison(cfg, ctx)
        assert len(calls) == len(ctx.manifest)

    def test_four_variant_columns(self, report):
        for row in report.rows:
            for key in ("detector_gated", "direct", "wsddn_top1", "wsddn_top5"):
                assert key in row

    def test_top5_at_least_top1(self, report):
        for row in report.rows:
            if row["wsddn_top1"] is not None:
                assert row["wsddn_top5"] >= row["wsddn_top1"]

    def test_direct_confusion_emitted(self, report, tmp_path):
        assert "direct" in report.confusions
        files = ex.write_report(report, tmp_path)
        assert "species_confusion_direct.csv" in files
        text = (tmp_path / "species_confusion_direct.csv").read_text()
        assert "TP+FP" in text and "TP+FN" in text


class TestIndividual:
    def test_schema_and_balance(self, ctx):
        report = ex.run_individual_study(config("individual", n_seeds=1, head_epochs=40), ctx)
        assert {r["species"] for r in report.rows} == {"tiger", "leopard", "joint"}
        balanced = [r for r in report.rows if r["balanced"] == 1]
        assert balanced
        for species in ("tiger", "leopard", "joint"):
            counts = {r["train_images"] for r in balanced if r["species"] == species}
            assert len(counts) == 1  # every individual trained on the same count

    def test_segmented_variant_same_schema(self, ctx):
        cfg = config("individual", n_seeds=1, head_epochs=30, segment=True)
        report = ex.run_individual_study(cfg, ctx)
        seg_rows = [r for r in report.rows if r["segmented"] == 1]
        raw_rows = [r for r in report.rows if r["segmented"] == 0]
        assert seg_rows and raw_rows
        assert set(seg_rows[0]) == set(raw_rows[0])

    def test_segmented_forward_counts(self, monkeypatch):
        # one forward per raw image (its region set and its patch grid pooled
        # from one feature map), one per masked image, each image masked at
        # most once per segmented run, and one array-form pooling per forward,
        # none per region.  Images are keyed by record id: each pixel access
        # renders a fresh array, so the array a forward reads is traced back
        # to the record it was rendered from
        render, forward, apply_mask, pool = synth.render_image, ft.forward, seg.apply_mask, ft.spp_pool
        rendered = {}  # id of a rendered array -> its record id
        kept, forwards, masks, pools = [], [], [], []  # `kept` keeps every array alive, so ids stay unique

        def recording_render(cfg, record):
            px, box = render(cfg, record)
            kept.append(px)
            rendered[id(px)] = record.id
            return px, box

        def counting_forward(image, params, return_cache=False):
            forwards.append(image)
            return forward(image, params, return_cache)

        def recording_mask(image, mask):
            out = apply_mask(image, mask)
            kept.append(out)
            masks.append((rendered[id(image)], out))
            return out

        def counting_pool(fmap, regions, pyramid, downsample=1):
            pools.append(fmap)
            return pool(fmap, regions, pyramid, downsample)

        monkeypatch.setattr(synth, "render_image", recording_render)
        monkeypatch.setattr(ft, "forward", counting_forward)
        monkeypatch.setattr(seg, "apply_mask", recording_mask)
        monkeypatch.setattr(ft, "spp_pool", counting_pool)
        cfg = config("individual", n_seeds=1, head_epochs=5, segment=True)
        ctx = ex.PipelineContext(cfg)
        ex.run_individual_study(cfg, ctx)
        masked = Counter(id(img) for img in forwards if id(img) not in rendered)
        assert set(masked) == {id(out) for _, out in masks}
        raw = Counter(rendered[id(img)] for img in forwards if id(img) in rendered)
        assert raw and max(raw.values()) == 1
        assert all(n == 1 for n in masked.values())
        assert len(pools) == len(forwards)
        # each image is in 4 segmented runs: its species and joint, unbalanced and balanced
        per_source = Counter(rid for rid, _ in masks)
        assert masks and set(per_source) <= set(raw) and max(per_source.values()) <= 4
        # one masked forward per (image, mask), however many runs reach that mask
        assert len({(rid, out.tobytes()) for rid, out in masks}) == len(masks)

    def test_segmented_run_matches_reference_pooler(self, monkeypatch, tmp_path):
        cfg = config("individual", n_seeds=1, head_epochs=10, segment=True)
        ex.write_report(ex.run_individual_study(cfg), tmp_path / "array")
        monkeypatch.setattr(ft, "spp_pool", reference_pooler)
        ex.write_report(ex.run_individual_study(cfg), tmp_path / "reference")
        names = sorted(f.name for f in (tmp_path / "array").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "array", tmp_path / "reference", names, shallow=False)
        assert match == names and not mismatch and not errors


    def test_equal_counts_fit_each_run_once(self, monkeypatch, tmp_path):
        # every individual has 8 images, so balancing keeps every record and
        # each balanced run is its unbalanced run: same bytes, half the heads
        cfg = config("individual", n_seeds=1, head_epochs=10, segment=True)
        fits = run_counting_heads(monkeypatch, cfg, tmp_path / "rule")
        fit_every_run(monkeypatch)
        ref_fits = run_counting_heads(monkeypatch, cfg, tmp_path / "reference")
        assert same_tree(tmp_path / "rule", tmp_path / "reference")
        assert ref_fits == 12 and fits == ref_fits // 2

    def test_unequal_counts_fit_balanced_run(self, monkeypatch, tmp_path):
        # tiger_00 keeps 5 of its 8 images: every tiger and joint balanced run
        # differs from its unbalanced run and is fitted on its own; only the
        # leopard balanced run repeats
        man, _, _ = synth.generate_corpus(SMALL_SYNTH, tmp_path / "corpus")
        drop = {"tiger-00-001", "tiger-00-004", "tiger-00-006"}
        mf.save_manifest(mf.Manifest(tuple(r for r in man if r.id not in drop)), tmp_path / "corpus" / "manifest.csv")
        cfg = ex.ExperimentConfig(protocol="individual", manifest_path=str(tmp_path / "corpus" / "manifest.csv"),
                                  n_seeds=2, head_epochs=10, head_lr=4.0, svm_epochs=8)
        ctx = ex.PipelineContext(cfg)
        fits = run_counting_heads(monkeypatch, cfg, tmp_path / "rule", ctx)
        fit_every_run(monkeypatch)
        ref_fits = run_counting_heads(monkeypatch, cfg, tmp_path / "reference", ctx)
        assert same_tree(tmp_path / "rule", tmp_path / "reference")
        assert ref_fits == 12 and fits == 10
        rows = ex.run_individual_study(cfg, ctx).rows
        tiger = {r["balanced"]: r["train_images"] for r in rows if r["individual"] == "tiger_01" and r["trial"] == 0}
        assert tiger[1] < tiger[0]

    def test_sweep_full_n_costs_no_fit(self, monkeypatch, tmp_path):
        # tiger and leopard sweep n = 2 only, joint n = 2, 3, 4: five sweep
        # rows.  The three at full n repeat a balanced raw trial-0 run, and
        # joint n = 2 (the two leopards) repeats leopard's, so one more head
        cfg = config("individual", n_seeds=1, head_epochs=10)
        plain = run_counting_heads(monkeypatch, cfg, tmp_path / "plain")
        cfg = config("individual", n_seeds=1, head_epochs=10, sweep_individuals=True)
        fits = run_counting_heads(monkeypatch, cfg, tmp_path / "rule")
        fit_every_run(monkeypatch)
        ref_fits = run_counting_heads(monkeypatch, cfg, tmp_path / "reference")
        assert same_tree(tmp_path / "rule", tmp_path / "reference")
        assert fits == plain + 1 and ref_fits == 2 * plain + 5

    def test_patch_detector_matches_per_region_reference(self, ctx):
        # the per-Region selection the array form replaced, rng draws in the same order
        cfg = config("individual", patch_size=8)
        ids = [rid for rid in sorted(ctx.images) if rid in ctx.boxes][:12]

        def reference(seed):
            rng = np.random.default_rng(np.uint64(seed))
            rows, labs = [], []
            for i in ids:
                x0, y0, x1, y1 = ctx.boxes[i]
                patch = ctx.pool(i, grid=True)[1]
                pos, neg = [], []
                for idx, reg in enumerate(seg.grid_for(ctx.images[i], cfg.patch_size).regions()):
                    if reg.x0 >= x0 and reg.x1 <= x1 and reg.y0 >= y0 and reg.y1 <= y1:
                        pos.append(idx)
                    elif reg.x1 <= x0 or reg.x0 >= x1 or reg.y1 <= y0 or reg.y0 >= y1:
                        neg.append(idx)
                take = min(len(pos), len(neg), 8)
                if take == 0:
                    continue
                for idx in rng.choice(pos, take, replace=False):
                    rows.append(patch[idx])
                    labs.append(1.0)
                for idx in rng.choice(neg, take, replace=False):
                    rows.append(patch[idx])
                    labs.append(-1.0)
            return ex._fit_detector(cfg, np.stack(rows), np.array(labs), seed)

        for seed in (0, 7):
            got, ref = ex._train_patch_detector(ctx, cfg, ids, seed), reference(seed)
            assert got.weights.tobytes() == ref.weights.tobytes() and got.bias == ref.bias

    def test_patch_detector_same_with_pass_rows(self, monkeypatch):
        # the segmented pass hands its grid rows to each detector fit; a fit
        # given none pools them itself, on a fresh context, to the same bytes
        train, calls = ex._train_patch_detector, []

        def recording_train(ctx, cfg, train_ids, seed, grid_rows=None):
            model = train(ctx, cfg, train_ids, seed, grid_rows)
            calls.append((cfg, train_ids, seed, grid_rows, model))
            return model

        monkeypatch.setattr(ex, "_train_patch_detector", recording_train)
        cfg = config("individual", n_seeds=1, head_epochs=5, segment=True, jobs=2)
        ex.run_individual_study(cfg)
        fresh = ex.PipelineContext(cfg)
        assert calls and all(rows is not None for _, _, _, rows, _ in calls)
        for cfg, train_ids, seed, _, model in calls:
            alone = train(fresh, cfg, train_ids, seed)
            assert alone.weights.tobytes() == model.weights.tobytes() and alone.bias == model.bias


def arrays_in(obj, path="ctx", seen=None):
    """(path, array) of every numpy array reachable from `obj` through dicts,
    lists, tuples, object attributes and views' bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)) or obj is None:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):  # and the array a view keeps alive
        return [(path, obj)] + arrays_in(obj.base, f"{path}.base", seen)
    if isinstance(obj, dict):
        items = [(f"{path}[{k!r}]", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{n}]", v) for n, v in enumerate(obj)]
    else:
        items = [(f"{path}.{k}", v) for k, v in getattr(obj, "__dict__", {}).items()]
    return [found for sub, v in items for found in arrays_in(v, sub, seen)]


class TestTransientPixels:
    @pytest.mark.parametrize("protocol, extra", [("individual", dict(segment=True)), ("species", {})])
    def test_context_keeps_rows_not_pixels(self, protocol, extra):
        cfg = config(protocol, n_seeds=1, head_epochs=5, **extra)
        ctx = ex.PipelineContext(cfg)
        ex.run_protocol(cfg, ctx)
        size = SMALL_SYNTH.image_size
        held = arrays_in(ctx)
        assert any(a.ndim == 2 for _, a in held)  # the walk reaches the cached rows
        assert not [p for p, a in held if a.shape == (size, size, 3)]
        # nor patch-grid rows: the segmented pass held those only until its masks existed
        n_cells = len(seg.PatchGrid(cfg.patch_size, size, size).regions())
        assert not [p for p, a in held if a.ndim == 2 and a.shape[0] >= n_cells]
        # every access renders the record's pixels afresh, byte for byte
        for r in ctx.manifest:
            assert ctx.images[r.id].tobytes() == synth.render_image(SMALL_SYNTH, r)[0].tobytes(), r.id
        # nothing refers back to the context: it is freed by refcount alone
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_segmented_run_holds_no_pixels(self, jobs, monkeypatch):
        # each image is rendered for its pooling forward or its masked
        # forwards and dropped after them: at every render, at most one
        # earlier image per thread is still alive, and the masks hold none
        render, alive, renders = synth.render_image, [], Counter()

        def spy(cfg, record):
            held = sum(ref() is not None for ref in alive)
            assert held <= jobs, f"{held} earlier images are still held"
            px, box = render(cfg, record)
            alive.append(weakref.ref(px))
            renders[record.id] += 1
            return px, box

        monkeypatch.setattr(synth, "render_image", spy)
        ex.run_individual_study(config("individual", n_seeds=1, head_epochs=5, segment=True, jobs=jobs))
        # once for the pooling forward, once for the masked forwards
        assert renders and set(renders.values()) == {2}

    @pytest.mark.parametrize("size, patch, seed", [(64, 12, 0), (70, 16, 1), (48, 16, 2), (61, 9, 3)])
    def test_mean_field_from_pooled_colors_matches_image(self, size, patch, seed):
        # the colors taken at pooling give the mean field of the image,
        # byte for byte, clipped last patches included
        cfg = config("individual", synth_config=synth.SynthConfig(
            image_size=size, species_specs=SMALL_SPECS, n_negatives=2, seed=seed), patch_size=patch)
        ctx = ex.PipelineContext(cfg)
        rng = np.random.default_rng(seed)
        pp = seg.PairwiseParams(w=3.0, iterations=4)
        for rid in list(ctx.images)[::9]:
            colors, rows = ctx.pool(rid, grid=True)
            grid, image = ctx.grid(rid), ctx.images[rid]
            assert rows.shape[0] == grid.ny * grid.nx
            assert colors.tobytes() == seg.patch_mean_colors(image, grid).tobytes()
            unary = rng.uniform(0.05, 0.95, (grid.ny, grid.nx))
            got = seg.refine_mean_field(unary, None, grid, pp, colors)
            assert got.tobytes() == seg.refine_mean_field(unary, image, grid, pp).tobytes(), rid

    def test_manifest_context_reads_on_access(self, tmp_path):
        man, _, _ = synth.generate_corpus(SMALL_SYNTH, tmp_path)
        cfg = ex.ExperimentConfig(protocol="volume", manifest_path=str(tmp_path / "manifest.csv"),
                                  n_seeds=1, fractions=(1.0,), svm_epochs=2)
        ctx = ex.PipelineContext(cfg)
        ex.run_protocol(cfg, ctx)
        assert not [p for p, a in arrays_in(ctx) if a.ndim == 3 and a.shape[2] == 3]
        r = man.records[5]
        assert ctx.images[r.id].tobytes() == synth.read_record(tmp_path, r).tobytes()
        assert ctx.images[r.id] is not ctx.images[r.id]


class TestJoint:
    def test_rows_sorted_by_sensitivity(self, ctx):
        report = ex.run_joint_individuals(config("joint-individuals", n_seeds=1, head_epochs=40), ctx)
        assert len(report.rows) == 4  # 2 tiger + 2 leopard individuals
        sens = [r["sensitivity"] for r in report.rows]
        vals = [-1.0 if s is None else s for s in sens]
        assert vals == sorted(vals, reverse=True)

    def test_requires_two_species(self):
        specs = (synth.SpeciesSpec("tiger", "stripes", 2, 8),)
        cfg = ex.ExperimentConfig(
            protocol="joint-individuals",
            synth_config=synth.SynthConfig(image_size=64, species_specs=specs, n_negatives=4, seed=0),
            n_seeds=1,
        )
        with pytest.raises(ValueError):
            ex.run_joint_individuals(cfg)


class TestReports:
    def test_bytewise_reproducible(self, ctx, tmp_path):
        cfg = config("volume", fractions=(1.0,), n_seeds=1)
        for d in ("a", "b"):
            ex.write_report(ex.run_volume_sweep(cfg, ctx), tmp_path / d)
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            ["volume_trials.csv", "volume_aggregate.csv", "config.json", "run_manifest.txt"],
            shallow=False,
        )
        assert not mismatch and not errors

    def test_report_embeds_config_and_version(self, ctx, tmp_path):
        import json

        cfg = config("volume", fractions=(1.0,), n_seeds=1)
        ex.write_report(ex.run_volume_sweep(cfg, ctx), tmp_path)
        blob = json.loads((tmp_path / "config.json").read_text())
        assert blob["version"]
        assert blob["config"]["protocol"] == "volume"
        assert blob["config"]["base_seed"] == cfg.base_seed
        manifest = (tmp_path / "run_manifest.txt").read_text()
        assert "volume_trials.csv" in manifest

    @pytest.mark.parametrize("protocol, extra", [("individual", dict(segment=True, sweep_individuals=True)),
                                                 ("joint-individuals", {}), ("species", {})])
    def test_lockstep_heads_match_serial_fits(self, protocol, extra, ctx, monkeypatch, tmp_path):
        # the oracle fits one head per train_head-sized call, in plan order
        cfg = config(protocol, **extra)
        train_heads, sizes = ex.wsddn.train_heads, []
        monkeypatch.setattr(ex.wsddn, "train_heads",
                            lambda fits, *schedule: sizes.append(len(fits)) or train_heads(fits, *schedule))
        ex.write_report(ex.run_protocol(cfg, ctx), tmp_path / "lockstep")
        assert max(sizes) > 1  # some heads were fitted together
        monkeypatch.setattr(ex.wsddn, "train_heads",
                            lambda fits, *schedule: [train_heads([fit], *schedule)[0] for fit in fits])
        ex.write_report(ex.run_protocol(cfg, ctx), tmp_path / "serial")
        assert same_tree(tmp_path / "lockstep", tmp_path / "serial")

    def test_undefined_rendered_in_csv(self, tmp_path):
        mt.write_rows_csv(tmp_path / "x.csv", [{"a": None, "b": 0.5}])
        assert "undefined" in (tmp_path / "x.csv").read_text()
