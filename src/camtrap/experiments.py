"""Seeded, scripted replications of the experimental protocols, emitting
plot-ready CSV.

Every protocol is a pure function of (corpus, config): trial seeds are
base_seed + trial index, aggregation order is fixed by that index, and CSV
bytes are reproducible and do not depend on ``jobs``.

``jobs`` threads, the calling thread one of them, share per-image feature
work (`_map_images`): every runner first pools each image it will read into
the `PipelineContext`, and a segmented run computes its masked images'
region features on them.  The conv GEMMs are numpy work that releases the
GIL; keep jobs x BLAS threads <= cores.  Every SVM and head fit, the
segmented runs' patch masks, and all scoring run on the calling thread in
trial-index order.

Runners that train heads (species, individual, joint-individuals) plan every
trial's fits, build each distinct fit's dataset, fit the heads, then score
them.  Fits of one (N, R, D, C) shape are fitted in lockstep by one
`wsddn.train_heads` call, and each head is byte-identical to its fit alone.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import features as ft
from . import manifest as mf
from . import metrics as mt
from . import segmentation as seg
from . import svm
from . import synth
from . import wsddn

PROTOCOLS = (
    "volume",
    "proportion",
    "split",
    "illumination",
    "species",
    "individual",
    "joint-individuals",
)


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    synth_config: Optional[synth.SynthConfig] = None
    manifest_path: Optional[str] = None
    images_root: Optional[str] = None
    base_seed: int = 0
    n_seeds: int = 10
    split_fraction: float = 0.7
    fractions: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    train_proportions: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    split_ratios: Tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    k: int = 30
    balance: bool = True
    segment: bool = False
    sweep_individuals: bool = False
    channels: Tuple[int, ...] = (3, 8, 16)
    pyramid_levels: Tuple[int, ...] = (1, 2)
    region_scales: Tuple[float, ...] = (0.5,)
    region_stride: float = 0.5
    feature_seed: int = 0
    svm_epochs: int = 30
    svm_lambda: float = 1e-3
    head_epochs: int = 1200
    head_lr: float = 8.0
    head_l2: float = 1e-4
    patch_size: int = 8
    jobs: int = 1  # threads for per-image feature work; output bytes do not depend on it

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")
        if self.n_seeds < 1:
            raise ValueError("need at least one seed")
        if self.synth_config is None and self.manifest_path is None:
            raise ValueError("either synth_config or manifest_path is required")
        mf.check_train_fraction(self.split_fraction, "split_fraction")
        for name, rule in (("fractions", mf.check_fraction), ("train_proportions", mf.check_fraction),
                           ("split_ratios", mf.check_train_fraction)):
            for value in getattr(self, name):
                rule(value, name)
        wsddn.check_k(self.k, "k")
        seg.check_patch_size(self.patch_size)
        svm.check_train_values(self.svm_epochs, self.svm_lambda, ("svm_epochs", "svm_lambda"))
        wsddn.check_train_values(self.head_epochs, self.head_lr, self.head_l2, ("head_epochs", "head_lr", "head_l2"))
        ft.check_region_values(self.region_scales, self.region_stride, ("region_scales", "region_stride"))
        ft.check_net_values(self.channels, self.pyramid_levels, ("channels", "pyramid_levels"))
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def resolved(self) -> dict:
        d = asdict(self)
        d.pop("jobs")  # keeps config.json bytes independent of it, as the results are
        return d


@dataclass
class Report:
    cfg: ExperimentConfig  # the run's settings and the report's header
    rows: List[dict] = field(default_factory=list)
    aggregates: List[dict] = field(default_factory=list)
    confusions: Dict[str, mt.ConfusionMatrix] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class PipelineContext:
    """Corpus images plus shared, lazily built caches of each image's
    region features and patch-grid rows."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        if cfg.synth_config is not None:
            self.manifest, synth_images = synth.generate_corpus(cfg.synth_config)
            self.images = {rid: si.pixels for rid, si in synth_images.items()}
            self.boxes = {rid: si.ground_truth_box for rid, si in synth_images.items()}
        else:
            self.manifest = mf.load_manifest(cfg.manifest_path)
            root = cfg.images_root or str(Path(cfg.manifest_path).parent)
            self.images = synth.load_images(self.manifest, root)
            self.boxes = {}
        self.by_id = self.manifest.by_id()
        self.params = ft.init_convnet(cfg.channels, seed=cfg.feature_seed)
        self.pyramid = ft.PyramidConfig(cfg.pyramid_levels)
        self._region_feats: Dict[str, ft.RegionFeatures] = {}
        self._patch_rows: Dict[Tuple[str, int], np.ndarray] = {}

    def image_feature(self, rid: str) -> np.ndarray:
        # the full image is the last proposed region, so one conv pass serves both
        return self.region_features(rid).matrix[-1]

    def region_features(self, rid: str) -> ft.RegionFeatures:
        if rid not in self._region_feats:
            # a segmented run reads both of an image's row sets: pool them from one forward
            self._pool(rid, self.cfg.patch_size if self.cfg.segment else None)
        return self._region_feats[rid]

    def patch_rows(self, rid: str, patch_size: int) -> np.ndarray:
        """Feature rows of the image's patch grid, row-major.  Only runs that
        use a patch grid pay for this cache; feature maps are not cached,
        because one per image raised peak memory on every workload."""
        if (rid, patch_size) not in self._patch_rows:
            self._pool(rid, patch_size)
        return self._patch_rows[(rid, patch_size)]

    def _pool(self, rid: str, patch_size: Optional[int]) -> None:
        """Cache the image's proposal-region features unless cached, and its
        patch-grid rows when `patch_size` is given, from one conv forward:
        both region sets are pooled as one list, whose rows are split."""
        img = self.images[rid]
        proposals, patches = [], []
        if rid not in self._region_feats:
            proposals = ft.propose_regions(img.shape[1], img.shape[0], self.cfg.region_scales, self.cfg.region_stride)
        if patch_size is not None and (rid, patch_size) not in self._patch_rows:
            patches = seg.grid_for(img, patch_size).regions()
        rows = ft.extract_region_features(img, proposals + patches, self.params, self.pyramid).matrix
        if proposals:
            self._region_feats[rid] = ft.RegionFeatures(regions=tuple(proposals), matrix=rows[: len(proposals)])
        if patches:
            self._patch_rows[(rid, patch_size)] = rows[len(proposals) :]


# the config fields a PipelineContext is built from
_CONTEXT_FIELDS = ("synth_config", "manifest_path", "images_root", "channels",
                   "pyramid_levels", "region_scales", "region_stride", "feature_seed")


def _context(cfg: ExperimentConfig, ctx: Optional[PipelineContext]) -> PipelineContext:
    """A new context for `cfg`, or `ctx` once checked to match `cfg`'s corpus and feature fields."""
    if ctx is None:
        return PipelineContext(cfg)
    differ = [f for f in _CONTEXT_FIELDS if getattr(ctx.cfg, f) != getattr(cfg, f)]
    if differ:
        raise ValueError(f"context and config differ in {', '.join(differ)}")
    return ctx


def _map_images(cfg: ExperimentConfig, fn, items) -> list:
    """[fn(item) for item in items] on `cfg.jobs` threads, the calling thread
    one of them, each taking the next item in order; at jobs 1 the calling
    thread alone, a plain loop.  If items fail, the first failing item's
    exception is raised, as the loop would.  `fn` is per-image feature
    work: it reads shared state and writes only its own image's entries of
    the context's caches.

    The caller works rather than waits because each thread's allocations
    come from a glibc arena of its own, which can keep its peak size after
    the thread ends: one fewer worker is one fewer arena.  Plain threads,
    because importing `concurrent.futures` alone adds 0.6 MiB of resident
    memory at every `jobs`."""
    items = list(items)
    results, failed = [None] * len(items), {}
    order, lock = iter(range(len(items))), threading.Lock()

    def work():
        while True:
            with lock:
                n = next(order, None)
            if n is None:
                return
            try:
                results[n] = fn(items[n])
            except Exception as exc:  # raised on the calling thread below
                failed[n] = exc
                return

    threads = [threading.Thread(target=work) for _ in range(min(cfg.jobs, len(items)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        # items are taken in order, so every item before a failed one was run
        raise failed[min(failed)]
    return results


def _trials(cfg: ExperimentConfig):
    """(trial index, seed) of each trial: the seed is base_seed + index."""
    return [(t, cfg.base_seed + t) for t in range(cfg.n_seeds)]


def _presence_rows(ctx, ids):
    """Full-image feature rows and their +1 (animal) / -1 (no animal) labels."""
    x = np.stack([ctx.image_feature(i) for i in ids])
    y = np.array([1.0 if ctx.by_id[i].has_animal else -1.0 for i in ids])
    return x, y


def _fit_detector(cfg, x, y, seed) -> svm.LinearModel:
    return svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=cfg.svm_epochs, lam=cfg.svm_lambda, seed=seed))


def _fit_heads(cfg, fits) -> List[wsddn.TwoStreamHead]:
    """One head per fit `(dataset, class_names, seed)`, in order, trained with
    the runner's head settings.  The fits of one (N, R, D, C) shape are
    fitted in lockstep by one `wsddn.train_heads` call, shapes in order of
    first appearance."""
    groups = {}
    for j, (ds, classes, _) in enumerate(fits):
        shape = (len(ds), ds[0][0].matrix.shape if ds else None, len(classes))
        groups.setdefault(shape, []).append(j)
    heads = [None] * len(fits)
    for members in groups.values():
        group = [(fits[j][0], fits[j][1], wsddn.HeadTrainConfig(
            epochs=cfg.head_epochs, learning_rate=cfg.head_lr, seed=fits[j][2], l2=cfg.head_l2)) for j in members]
        for j, head in zip(members, wsddn.train_heads(group)):
            heads[j] = head
    return heads


def _detector_metrics(ctx, cfg, plans) -> List[dict]:
    """Train and test measures of one detector per (train ids, validation ids,
    seed) plan; the detectors are fitted in lockstep on one matrix of the
    plans' full-image rows."""
    if not plans:
        return []
    ids = list(dict.fromkeys(i for train, val, _ in plans for i in (*train, *val)))
    row_of = {rid: n for n, rid in enumerate(ids)}
    _map_images(cfg, ctx.region_features, ids)
    x, y = _presence_rows(ctx, ids)
    index = [([row_of[i] for i in train], [row_of[i] for i in val]) for train, val, _ in plans]
    fits = [(rows, y[rows], seed) for (rows, _), (_, _, seed) in zip(index, plans)]
    models = svm.train_linear_svms(x, fits, cfg.svm_epochs, cfg.svm_lambda)
    out = []
    for model, (train_rows, val_rows) in zip(models, index):
        m = {}
        for tag, rows in (("train", train_rows), ("test", val_rows)):
            pairs = [
                ("animal" if p > 0 else "unclassified", "animal" if t > 0 else "unclassified")
                for p, t in zip(svm.predict_labels(model, x[rows]), y[rows])
            ]
            cm = mt.accumulate(pairs, ["animal", "unclassified"])
            m[tag] = mt.measures(mt.binary_counts(cm, "animal"))
        out.append(m)
    return out


def _mean(values):
    vals = [v for v in values if v is not None]
    return None if not vals else float(np.mean(vals))


def _aggregate(rows: List[dict], group_keys: Sequence[str], value_keys: Sequence[str]) -> List[dict]:
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    out = []
    for key, rs in groups.items():
        agg = dict(zip(group_keys, key))
        agg["n_trials"] = len(rs)
        for vk in value_keys:
            vals = [r[vk] for r in rs if r.get(vk) is not None]
            agg[f"{vk}_mean"] = _mean(vals)
            agg[f"{vk}_min"] = None if not vals else float(min(vals))
            agg[f"{vk}_max"] = None if not vals else float(max(vals))
        out.append(agg)
    return out


# ---------------------------------------------------------------------------
# detector protocols


def _volume_split(ctx, cfg, fraction, seed):
    """Subsample the corpus, then split it."""
    sub = mf.subsample_fraction(ctx.manifest, fraction, seed, "presence")
    split = mf.stratified_split(sub, cfg.split_fraction, seed, "presence")
    return split.train, split.validation, {"n_images": len(sub)}


def _proportion_split(ctx, cfg, proportion, seed):
    """Fixed validation set; training subset varied."""
    split = mf.stratified_split(ctx.manifest, cfg.split_fraction, seed, "presence")
    pool = mf.select_records(ctx.manifest, split.train)
    sub = mf.subsample_fraction(pool, proportion, seed, "presence")
    return sub.ids(), split.validation, {"n_train": len(sub)}


def _ratio_split(ctx, cfg, ratio, seed):
    split = mf.stratified_split(ctx.manifest, ratio, seed, "presence")
    return split.train, split.validation, {}


# protocol -> (row key, config field of swept values, split function returning
# train ids, validation ids and extra row columns)
_SWEEPS = {
    "volume": ("fraction", "fractions", _volume_split),
    "proportion": ("proportion", "train_proportions", _proportion_split),
    "split": ("train_ratio", "split_ratios", _ratio_split),
}


def run_detector_sweep(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """Detector test metrics across one swept value, chosen by the protocol:
    corpus volume (subsample, then split), training proportion against a
    fixed validation set, or train:validation ratio (best ratio marked)."""
    key, values_field, split_fn = _SWEEPS[cfg.protocol]
    ctx = _context(cfg, ctx)
    cells = [(value, trial_idx, seed, split_fn(ctx, cfg, value, seed))
             for value in getattr(cfg, values_field) for trial_idx, seed in _trials(cfg)]
    metrics = _detector_metrics(ctx, cfg, [(train, val, seed) for _, _, seed, (train, val, _) in cells])
    rows = [{key: value, "trial": trial_idx, "seed": seed, **extra, **m["test"]}
            for (value, trial_idx, seed, (_, _, extra)), m in zip(cells, metrics)]
    metrics_keys = ["sensitivity", "specificity", "precision", "accuracy"]
    report = Report(cfg, rows, _aggregate(rows, [key], metrics_keys))
    if cfg.protocol == "split":
        best = max(report.aggregates, key=lambda a: (a["accuracy_mean"], -a["train_ratio"]))
        for a in report.aggregates:
            a["best"] = int(a["train_ratio"] == best["train_ratio"])
        report.notes.append(f"best_train_ratio {best['train_ratio']!r}")
    return report


run_volume_sweep = run_detector_sweep


def run_illumination_study(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """Day-only, night-only and mixed detector runs, balanced positives and
    negatives, training and test accuracy per sub-dataset."""
    ctx = _context(cfg, ctx)
    rows, plans, planned = [], [], []
    for name, illum in (("daylight", "day"), ("night", "night"), ("mixed", None)):
        man = ctx.manifest if illum is None else mf.filter_manifest(ctx.manifest, illumination=illum)
        n_pos = sum(r.has_animal for r in man)
        skip = n_pos < 2 or len(man) - n_pos < 2
        for trial_idx, seed in _trials(cfg):
            row = {"subset": name, "trial": trial_idx, "seed": seed, "n_images": len(man),
                   "training_accuracy": None, "test_accuracy": None, "skipped": int(skip)}
            if not skip:
                balanced = mf.balance_classes(man, "presence", seed)
                split = mf.stratified_split(balanced, cfg.split_fraction, seed, "presence")
                row["n_images"] = len(balanced)
                plans.append((split.train, split.validation, seed))
                planned.append(row)
            rows.append(row)
    for row, m in zip(planned, _detector_metrics(ctx, cfg, plans)):
        row.update(training_accuracy=m["train"]["accuracy"], test_accuracy=m["test"]["accuracy"])
    aggregates = _aggregate(rows, ["subset"], ["training_accuracy", "test_accuracy"])
    for agg in aggregates:
        agg["skipped"] = int(all(r["skipped"] for r in rows if r["subset"] == agg["subset"]))
    return Report(cfg, rows, aggregates)


# ---------------------------------------------------------------------------
# species identification


def _image_level(ctx, rid) -> ft.RegionFeatures:
    """The full-image row of an image's region features, as a one-region set."""
    rf = ctx.region_features(rid)
    return ft.RegionFeatures(regions=rf.regions[-1:], matrix=rf.matrix[-1:])


def run_species_comparison(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """Four classifier variants compared per class:
    detector_gated  - detector first; negatives become unclassified, else the
                      species-only head predicts (per-class binary accuracy)
    direct          - one head over species+unclassified on image-level
                      features (per-class binary accuracy; confusion emitted)
    wsddn_top1/5    - two-stream region head with top-K aggregation; per-class
                      top-k accuracy = fraction of that class's images whose
                      top-k ranking contains it
    Every trial's datasets are built first, then all heads are fitted
    (`_fit_heads`), then each trial is scored.
    """
    ctx = _context(cfg, ctx)
    by_id = ctx.by_id
    agg_cfg = wsddn.AggregationConfig(k=cfg.k)
    report = Report(cfg)
    _map_images(cfg, ctx.region_features, ctx.manifest.ids())  # every trial splits the whole corpus

    trials, fits = [], []
    for trial_idx, seed in _trials(cfg):
        split = mf.stratified_split(ctx.manifest, cfg.split_fraction, seed, "species")
        train_ids = list(split.train)
        species = sorted({by_id[i].species for i in train_ids} - {"unclassified"})
        all_classes = species + ["unclassified"]
        # (a) gate head: species only, image-level features, positives only
        fits.append(([(_image_level(ctx, i), wsddn.one_hot(by_id[i].species, species))
                      for i in train_ids if by_id[i].has_animal], species, seed))
        # (b) direct head: all classes, image-level features
        fits.append(([(_image_level(ctx, i), wsddn.one_hot(by_id[i].species, all_classes)) for i in train_ids],
                     all_classes, seed))
        # (c/d) WSDDN head: all classes, region features
        fits.append(([(ctx.region_features(i), wsddn.one_hot(by_id[i].species, all_classes)) for i in train_ids],
                     all_classes, seed))
        detector = _fit_detector(cfg, *_presence_rows(ctx, train_ids), seed)  # for the gate
        trials.append((trial_idx, seed, split.validation, species, all_classes, detector))
    heads = _fit_heads(cfg, fits)

    for (trial_idx, seed, val_ids, species, all_classes, detector), gate_head, direct_head, region_head in zip(
            trials, heads[0::3], heads[1::3], heads[2::3]):
        gated_pairs, direct_pairs = [], []
        rankings = {c: [] for c in all_classes}  # WSDDN rankings by true class
        k5 = min(5, len(all_classes))
        val_x = [ctx.image_feature(i) for i in val_ids]
        gate = svm.predict_labels(detector, np.stack(val_x)) if val_x else []
        for i, detected in zip(val_ids, gate):
            true = by_id[i].species
            rf1 = _image_level(ctx, i)
            # (a) detector gate
            if detected < 0:
                gated = "unclassified"
            else:
                s = wsddn.score_regions(rf1, gate_head)
                gated = wsddn.predict_topk(wsddn.aggregate_sum(s, species), 1)[0]
            gated_pairs.append((gated, true))
            # (b) direct
            s = wsddn.score_regions(rf1, direct_head)
            direct_pairs.append((wsddn.predict_topk(wsddn.aggregate_sum(s, all_classes), 1)[0], true))
            # (c, d) WSDDN top-k
            s = wsddn.score_regions(ctx.region_features(i), region_head)
            rankings[true].append(wsddn.predict_topk(wsddn.aggregate_topk(s, all_classes, agg_cfg), k5))
        gated_cm = mt.accumulate(gated_pairs, all_classes)
        direct_cm = mt.accumulate(direct_pairs, all_classes)

        def topk(c, k):
            return mt.topk_accuracy(rankings[c], [c] * len(rankings[c]), k) if rankings[c] else None

        for c in all_classes:
            row = {
                "trial": trial_idx,
                "seed": seed,
                "class": c,
                "detector_gated": mt.accuracy(mt.binary_counts(gated_cm, c)),
                "direct": mt.accuracy(mt.binary_counts(direct_cm, c)),
                "wsddn_top1": topk(c, 1),
                "wsddn_top5": topk(c, k5),
            }
            report.rows.append(row)
        if trial_idx == 0:
            report.confusions["direct"] = direct_cm
    report.aggregates = _aggregate(
        report.rows, ["class"], ["detector_gated", "direct", "wsddn_top1", "wsddn_top5"]
    )
    return report


# ---------------------------------------------------------------------------
# individual recognition


def _train_patch_detector(ctx, cfg, train_ids, seed):
    """Patch-level detector from planted ground-truth boxes."""
    rng = np.random.default_rng(np.uint64(seed))
    rows, labs = [], []
    for i in train_ids:
        box = ctx.boxes.get(i)
        if box is None:
            continue
        x0, y0, x1, y1 = box
        px0, py0, px1, py1 = seg.grid_for(ctx.images[i], cfg.patch_size).boxes().T
        inside = (px0 >= x0) & (px1 <= x1) & (py0 >= y0) & (py1 <= y1)
        apart = ~inside & ((px1 <= x0) | (px0 >= x1) | (py1 <= y0) | (py0 >= y1))
        pos, neg = np.flatnonzero(inside), np.flatnonzero(apart)
        take = min(len(pos), len(neg), 8)
        if take == 0:
            continue
        patch = ctx.patch_rows(i, cfg.patch_size)
        rows += [patch[rng.choice(pos, take, replace=False)], patch[rng.choice(neg, take, replace=False)]]
        labs += [np.ones(take), -np.ones(take)]
    if not rows:
        raise ValueError("segmented variant requires ground-truth boxes (synthetic corpus)")
    return _fit_detector(cfg, np.concatenate(rows), np.concatenate(labs), seed)


def _individual_features(ctx, cfg, runs):
    """Region features by image id of each run key: the raw image's, or, in a
    segmented run, those of the image with its background grayed out by a
    patch detector fitted on the run's training ids.  The detectors, then
    every (run, image) patch mask, are computed in run order on the calling
    thread; then, image by image on `cfg.jobs` threads, one masked forward
    serves each distinct (image, patch mask).  Nothing of the masked images
    is kept on `ctx`.

    The mean field stays on the calling thread because perfbench's tracer
    wraps each call in `tracemalloc.start()` / `stop()`, and on CPython 3.11
    a stop racing numpy's allocations in another thread crashed the traced
    process."""
    runs_of = {}  # image id -> (run, patch mask) of each segmented run that reads it
    for n, (train, val, _, seed, segmented) in enumerate(runs):
        if segmented:
            detector = _train_patch_detector(ctx, cfg, train, seed)
            for rid in (*train, *val):
                img = ctx.images[rid]
                grid = seg.grid_for(img, cfg.patch_size)
                runs_of.setdefault(rid, []).append(
                    (n, seg.patch_mask(ctx.patch_rows(rid, cfg.patch_size), img, grid, detector)))

    def masked_features(rid):
        """(run, region features) of each segmented run that reads the image."""
        img = ctx.images[rid]
        grid = seg.grid_for(img, cfg.patch_size)
        regions = ft.propose_regions(img.shape[1], img.shape[0], cfg.region_scales, cfg.region_stride)
        by_mask, out = {}, []
        for n, mask in runs_of[rid]:
            key = mask.tobytes()
            if key not in by_mask:
                masked = seg.apply_mask(img, seg.upsample_mask(mask, grid))
                by_mask[key] = ft.extract_region_features(masked, regions, ctx.params, ctx.pyramid)
            out.append((n, by_mask[key]))
        return out

    by_run = {}
    for rid, feats in zip(runs_of, _map_images(cfg, masked_features, list(runs_of))):
        for n, f in feats:
            by_run.setdefault(n, {})[rid] = f
    return [by_run[n].__getitem__ if n in by_run else ctx.region_features for n in range(len(runs))]


def _individual_key(ctx, cfg, man, classes, seed, balanced, segmented):
    """Split `man` and balance its training ids if asked.  The run's result
    is a function of the five values returned: train ids after balancing,
    validation ids, classes, seed and `segmented`."""
    split = mf.stratified_split(man, cfg.split_fraction, seed, "individual")
    train_man = mf.select_records(man, split.train)
    if balanced:
        train_man = mf.balance_classes(train_man, "individual", seed)
    return (tuple(train_man.ids()), split.validation, tuple(classes), seed, segmented)


def _individual_runs(ctx, cfg, keys):
    """(confusion matrix on the validation ids, training image count per
    individual) of each run key, in order.  Every image the runs read is
    pooled first; then each distinct key is built once: its features and
    dataset, then every head is fitted (`_fit_heads`), then each head is
    scored.  A key seen again reuses that result."""
    by_id = ctx.by_id
    runs = list(dict.fromkeys(keys))
    ids = list(dict.fromkeys(i for train, val, *_ in runs for i in (*train, *val)))
    if any(segmented for *_, segmented in runs):  # then region rows and patch rows, from one forward
        _map_images(cfg, lambda i: ctx.patch_rows(i, cfg.patch_size), ids)
    else:
        _map_images(cfg, ctx.region_features, ids)
    feats = _individual_features(ctx, cfg, runs)
    heads = _fit_heads(cfg, [([(f(i), wsddn.one_hot(by_id[i].individual, classes)) for i in train], classes, seed)
                             for f, (train, _, classes, seed, _) in zip(feats, runs)])
    agg_cfg = wsddn.AggregationConfig(k=cfg.k)
    results = {}
    for key, f, head in zip(runs, feats, heads):
        train, val, classes, _, _ = key
        pairs = [(wsddn.predict_topk(wsddn.aggregate_topk(wsddn.score_regions(f(i), head), classes, agg_cfg), 1)[0],
                  by_id[i].individual) for i in val]
        results[key] = (mt.accumulate(pairs, classes), Counter(by_id[i].individual for i in train))
    return [results[key] for key in keys]


def _individual_run(ctx, cfg, man, classes, seed, balanced, segmented):
    """One individual run, fitted and scored on its own (criterion 8's
    balanced-versus-unbalanced check calls this)."""
    return _individual_runs(ctx, cfg, [_individual_key(ctx, cfg, man, classes, seed, balanced, segmented)])[0]


def _individual_rows(cm, classes, train_counts) -> List[dict]:
    """Per-individual counts and measures, one row per class in class order."""
    rows = []
    for c in classes:
        bc = mt.binary_counts(cm, c)
        rows.append({"individual": c, "train_images": train_counts[c],
                     "tp": bc.tp, "tn": bc.tn, "fp": bc.fp, "fn": bc.fn, **mt.measures(bc)})
    return rows


def _trial_rows(prefix, classes, cm, train_counts) -> List[dict]:
    return [{**prefix, **r} for r in _individual_rows(cm, classes, train_counts)]


def _sweep_rows(sp_name, subset, seed, cm, _train_counts) -> List[dict]:
    ms = [mt.measures(mt.binary_counts(cm, c)) for c in subset]
    # specificity and precision are absent, so written as undefined
    return [{"species": sp_name, "balanced": 1, "segmented": 0, "trial": -1,
             "seed": seed, "individual": f"sweep_n={len(subset)}", "train_images": 0,
             "tp": 0, "tn": 0, "fp": 0, "fn": 0,
             "sensitivity": _mean(m["sensitivity"] for m in ms),
             "accuracy": _mean(m["accuracy"] for m in ms)}]


def run_individual_study(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """{balanced, unbalanced} x {raw, segmented} x {tiger, leopard, joint}
    individual-recognition grid, per-individual counts and measures.  Every
    row's run is planned first, then the distinct runs are fitted together
    (`_individual_runs`), then the rows are written in plan order."""
    ctx = _context(cfg, ctx)
    report = Report(cfg)
    species_opts = []
    for sp in ("tiger", "leopard"):
        if any(r.species == sp and r.individual for r in ctx.manifest):
            species_opts.append((sp, (sp,)))
    if len(species_opts) == 2:
        species_opts.append(("joint", ("tiger", "leopard")))

    # (run key, rows of the run's result); a balanced run that balancing left
    # whole, and the sweep's full-n run (trial 0's balanced raw run), share a key
    plan = []
    for sp_name, sp_set in species_opts:
        man = mf.filter_manifest(ctx.manifest, species=sp_set, min_images_per_individual=1)
        classes = sorted({r.individual for r in man})
        if len(classes) < 2:
            raise ValueError(f"{sp_name}: need at least 2 individuals")
        for balanced in (False, True):
            for segmented in (False, True) if cfg.segment else (False,):
                for trial_idx, seed in _trials(cfg):
                    prefix = {"species": sp_name, "balanced": int(balanced),
                              "segmented": int(segmented), "trial": trial_idx, "seed": seed}
                    plan.append((_individual_key(ctx, cfg, man, classes, seed, balanced, segmented),
                                 functools.partial(_trial_rows, prefix, classes)))
        if cfg.sweep_individuals:
            for n in range(2, len(classes) + 1):
                subset = classes[:n]
                sub_man = mf.Manifest(tuple(r for r in man if r.individual in set(subset)))
                seed = cfg.base_seed
                plan.append((_individual_key(ctx, cfg, sub_man, subset, seed, True, False),
                             functools.partial(_sweep_rows, sp_name, subset, seed)))
    for (_, rows_of), result in zip(plan, _individual_runs(ctx, cfg, [key for key, _ in plan])):
        report.rows.extend(rows_of(*result))
    report.aggregates = _aggregate(
        [r for r in report.rows if r["trial"] >= 0],
        ["species", "balanced", "segmented", "individual"],
        ["sensitivity", "specificity", "precision", "accuracy"],
    )
    return report


def run_joint_individuals(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """Single head over the union of tiger and leopard individuals;
    per-individual sensitivity and specificity, sorted by sensitivity."""
    ctx = _context(cfg, ctx)
    man = mf.filter_manifest(ctx.manifest, min_images_per_individual=1)
    n_species = len({r.species for r in man})
    if n_species < 2:
        raise ValueError("joint study needs individuals from 2 species")
    classes = sorted({r.individual for r in man})
    report = Report(cfg)
    keep = ("individual", "train_images", "sensitivity", "specificity", "accuracy")
    keys = [_individual_key(ctx, cfg, man, classes, seed, cfg.balance, cfg.segment) for _, seed in _trials(cfg)]
    for (trial_idx, seed), (cm, train_counts) in zip(_trials(cfg), _individual_runs(ctx, cfg, keys)):
        trial_rows = [
            {"trial": trial_idx, "seed": seed, **{k: r[k] for k in keep}}
            for r in _individual_rows(cm, classes, train_counts)
        ]
        trial_rows.sort(key=lambda r: (-(r["sensitivity"] if r["sensitivity"] is not None else -1.0), r["individual"]))
        report.rows.extend(trial_rows)
    report.aggregates = _aggregate(report.rows, ["individual"], ["sensitivity", "specificity", "accuracy"])
    return report


RUNNERS = {
    **dict.fromkeys(_SWEEPS, run_detector_sweep),
    "illumination": run_illumination_study,
    "species": run_species_comparison,
    "individual": run_individual_study,
    "joint-individuals": run_joint_individuals,
}


def run_protocol(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    return RUNNERS[cfg.protocol](cfg, ctx)


# ---------------------------------------------------------------------------
# report output


def write_report(report: Report, out_dir) -> List[str]:
    """Write trial CSV, aggregate CSV, confusion matrices, the resolved
    config and a run manifest; returns the file list."""
    protocol = report.cfg.protocol
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    trials_path = out / f"{protocol}_trials.csv"
    mt.write_rows_csv(trials_path, report.rows)
    files.append(trials_path.name)
    agg_path = out / f"{protocol}_aggregate.csv"
    mt.write_rows_csv(agg_path, report.aggregates)
    files.append(agg_path.name)
    for name, cm in report.confusions.items():
        p = out / f"{protocol}_confusion_{name}.csv"
        mt.write_confusion_csv(cm, p)
        files.append(p.name)
    cfg_path = out / "config.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, "config": report.cfg.resolved()}, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    files.append(cfg_path.name)
    man_path = out / "run_manifest.txt"
    with open(man_path, "w", encoding="utf-8") as fh:
        fh.write(f"camtrap-run v1\nprotocol {protocol}\nversion {__version__}\n")
        for note in report.notes:
            fh.write(f"note {note}\n")
        for f in files:
            fh.write(f"file {f}\n")
    files.append(man_path.name)
    return files
