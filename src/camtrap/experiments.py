"""Seeded, scripted replications of the experimental protocols, emitting
plot-ready CSV.

Every protocol is a pure function of (corpus, config): trial seeds are
base_seed + trial index, aggregation order is fixed by that index, and CSV
bytes are reproducible and do not depend on ``jobs``.

``jobs`` threads, the calling thread one of them, share per-image feature
work (`_map_images`): each renders or reads an image's pixels as it pools
it, and the `PipelineContext` keeps only the rows.  Every image-level
detector's rows and labels come from `presence_rows(ctx, cfg, ids)`, which
pools each image's full frame alone on those threads
(`PipelineContext.image_feature`, not cached) unless its windows are
pooled; the detector sweeps and `illumination` fit their detectors in
lockstep (`svm.train_linear_svms`).  The runners that train heads first
pool every proposal window of each image they will read into the
`PipelineContext`; a segmented run also pools the patch grid and takes the
patch mean colors (`PipelineContext.pool`), holds those only until its
masks exist, and renders or reads each masked image again for its masked
forwards on the threads.  The conv GEMMs are numpy work that releases
the GIL; keep jobs x BLAS threads <= cores.
Every SVM and head fit, the segmented runs' patch masks, and all scoring
run on the calling thread in trial-index order.

Runners that train heads (species, individual, joint-individuals) plan every
trial's fits, build each distinct fit's dataset, fit the heads in one
``wsddn.train_heads(fits, cfg.head_epochs, cfg.head_lr, cfg.head_l2)`` call,
one `(dataset, class_names, seed)` fit per head, then score them.
"""

from __future__ import annotations

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
        mf.check_seed(self.base_seed, "base_seed")
        mf.check_seed(self.base_seed + self.n_seeds - 1, "base_seed + n_seeds - 1")  # the last trial's seed
        mf.check_seed(self.feature_seed, "feature_seed")
        if (self.synth_config is None) == (self.manifest_path is None):
            raise ValueError("exactly one of synth_config and manifest_path is required")
        if self.images_root is not None and self.manifest_path is None:
            raise ValueError(f"images_root {self.images_root} needs manifest_path: a synthetic corpus has no image root")
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
        if self.synth_config is not None and self.synth_config.image_size < ft.receptive_field(self.channels):
            raise ValueError(f"image_size {self.synth_config.image_size} is smaller than the network's receptive "
                             f"field of {ft.receptive_field(self.channels)} px a side")
        if self.segment and self.protocol in ("individual", "joint-individuals"):
            if self.synth_config is None:
                raise ValueError(f"segment = true needs a synthetic corpus's planted boxes, and {self.manifest_path} has none")
            if self.patch_size > self.synth_config.image_size:
                raise ValueError(f"patch_size {self.patch_size} is larger than image_size "
                                 f"{self.synth_config.image_size}: segment = true needs patches within the image")
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
    """A corpus and a shared, lazily built cache of each image's window
    (region) features.  The context alone decides an image's windows and
    patch grid, and which rows it pools; `pool` is its one pooling method.

    It keeps window rows, never pixels or patch-grid rows: `images` and
    `boxes` are read-only maps (`synth.RecordMap`) that render or read a
    record's pixels on each access, so pixels live only while an image is
    pooled (or, in a segmented run, masked), and `pool` hands an image's
    patch mean colors and grid rows to its caller.  The planted box of a
    synthetic positive is kept once found, as a 4-tuple; pooling an image
    finds it."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.params = ft.init_convnet(cfg.channels, seed=cfg.feature_seed)
        if cfg.synth_config is not None:
            self.manifest, self.images, self.boxes = synth.generate_corpus(cfg.synth_config)
        else:
            self.manifest = mf.load_manifest(cfg.manifest_path)
            root = cfg.images_root or str(Path(cfg.manifest_path).parent)
            self.images = synth.manifest_pixels(root, self.manifest, self.params.downsample)
            self.boxes = {}
        self.by_id = self.manifest.by_id()
        self.pyramid = ft.PyramidConfig(cfg.pyramid_levels)
        self._region_feats: Dict[str, ft.RegionFeatures] = {}

    def grid(self, rid: str) -> seg.PatchGrid:
        """The image's patch grid at the config's patch size, from its manifest record."""
        r = self.by_id[rid]
        return seg.PatchGrid(self.cfg.patch_size, r.width, r.height)

    def windows(self, rid: str) -> List[ft.Region]:
        """The image's proposal windows, from its manifest record."""
        r = self.by_id[rid]
        return ft.propose_regions(r.width, r.height, self.cfg.region_scales, self.cfg.region_stride)

    def check_window_counts(self, rids) -> None:
        """Raise, naming the manifest and the first image of each count,
        unless the images share one window count, as one head's training
        images must.  It reads record sizes only, so it runs before any
        image is pooled (a synthetic corpus has one size)."""
        sizes = {}  # (width, height) -> the first image of that size
        for rid in rids:
            sizes.setdefault((self.by_id[rid].width, self.by_id[rid].height), rid)
        counts = {}  # window count -> the first image with it
        for rid in sizes.values():
            counts.setdefault(len(self.windows(rid)), rid)
        if len(counts) > 1:
            raise ValueError(f"{self.cfg.manifest_path}: a head needs one window count on every image, found "
                             + ", ".join(f"{n} on {rid!r}" for n, rid in sorted(counts.items())))

    def image_feature(self, rid: str) -> np.ndarray:
        """The image's full-frame row: the last of its windows' rows if those
        are pooled (the full frame is the last window), else the full frame
        pooled alone, with the same bytes and not cached."""
        if rid in self._region_feats:
            return self._region_feats[rid].matrix[-1]
        r = self.by_id[rid]
        full = [ft.Region(0, 0, r.width, r.height)]
        return ft.extract_region_features(self.images[rid], full, self.params, self.pyramid).matrix[0]

    def region_features(self, rid: str) -> ft.RegionFeatures:
        if rid not in self._region_feats:
            self.pool(rid)
        return self._region_feats[rid]

    def pool(self, rid: str, grid: bool = False) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """One conv forward of pixels rendered or read for the image, dropped
        on return; its window rows are cached unless they are.  If `grid`,
        its patch grid is pooled in the same region list and its (patch mean
        colors, grid rows) are returned, else None; neither, nor its feature
        map, is cached (a map per image raised peak memory on every workload)."""
        img = self.images[rid]
        windows = [] if rid in self._region_feats else self.windows(rid)
        cells = self.grid(rid).regions() if grid else []
        rows = ft.extract_region_features(img, windows + cells, self.params, self.pyramid).matrix
        if windows:  # a copy when split, so the cache does not keep the grid rows alive
            self._region_feats[rid] = ft.RegionFeatures(
                regions=tuple(windows), matrix=rows[: len(windows)].copy() if grid else rows)
        return (seg.patch_mean_colors(img, self.grid(rid)), rows[len(windows) :]) if grid else None


# the config fields a PipelineContext is built from
_CONTEXT_FIELDS = ("synth_config", "manifest_path", "images_root", "channels",
                   "pyramid_levels", "region_scales", "region_stride", "feature_seed", "patch_size")


def _context(cfg: ExperimentConfig, ctx: Optional[PipelineContext]) -> PipelineContext:
    """A new context for `cfg`, or `ctx` once checked to match `cfg`'s corpus, feature and patch fields."""
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


def presence_rows(ctx, cfg, ids):
    """The images' full-frame rows (`PipelineContext.image_feature`), pooled
    on `cfg.jobs` threads, and their presence labels, +1 (animal) / -1 (no
    animal): the rows of every image-level detector, to fit or to test."""
    x = np.stack(_map_images(cfg, ctx.image_feature, ids))
    return x, np.array([1.0 if ctx.by_id[i].has_animal else -1.0 for i in ids])


def _corpus_source(cfg, positives=False) -> str:
    """What a runner's corpus check names: the manifest, or the config keys
    that sized a synthetic corpus's negatives or, if `positives`, its images
    of each species (as `synth.default_species_specs` sizes them)."""
    if cfg.manifest_path:
        return cfg.manifest_path
    if not positives:
        return f"n_negatives = {cfg.synth_config.n_negatives}"
    tagged = cfg.synth_config.species_specs[0]
    per = f", images_per_individual = {tagged.n_images // tagged.n_individuals}" if tagged.n_individuals else ""
    return f"individuals = {tagged.n_individuals}{per}"


def _check_presence(ctx, cfg, records=None, where="") -> None:
    """The presence check of a runner that fits detectors, on the corpus or on
    `records` of it, before any image is pooled; it names the corpus, by what
    sized the class that is short, then `where`."""
    records = ctx.manifest if records is None else records
    mf.check_presence(records, _corpus_source(cfg, positives=not any(r.has_animal for r in records)) + where)


def _fit_detector(cfg, x, y, seed) -> svm.LinearModel:
    return svm.train_linear_svm(x, y, svm.SvmTrainConfig(epochs=cfg.svm_epochs, lam=cfg.svm_lambda, seed=seed))


def _detector_metrics(ctx, cfg, plans) -> List[dict]:
    """Train and test measures of one detector per (train ids, validation ids,
    seed) plan; the detectors are fitted in lockstep on one matrix of the
    plans' full-image rows (`presence_rows`)."""
    if not plans:
        return []
    ids = list(dict.fromkeys(i for train, val, _ in plans for i in (*train, *val)))
    row_of = {rid: n for n, rid in enumerate(ids)}
    x, y = presence_rows(ctx, cfg, ids)
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
    _check_presence(ctx, cfg)
    cells = [(value, trial_idx, seed, split_fn(ctx, cfg, value, seed))
             for value in getattr(cfg, values_field) for trial_idx, seed in _trials(cfg)]
    for value, trial_idx, _, (train, _, _) in cells:
        _check_presence(ctx, cfg, [ctx.by_id[i] for i in train],
                        f", {values_field} = {value!r}, the training set of trial {trial_idx}")
    metrics = _detector_metrics(ctx, cfg, [(train, val, seed) for _, _, seed, (train, val, _) in cells])
    rows = [{key: value, "trial": trial_idx, "seed": seed, **extra, **m["test"]}
            for (value, trial_idx, seed, (_, _, extra)), m in zip(cells, metrics)]
    report = Report(cfg, rows, _aggregate(rows, [key], mt.MEASURES))
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
    Plan, fit, rank: each trial's training split is checked (2 species, one
    window count) before any image is pooled, every trial's three heads are
    fitted together (one `wsddn.train_heads` call), then its validation
    images are ranked.
    """
    ctx = _context(cfg, ctx)
    _check_presence(ctx, cfg)  # for the gate
    by_id = ctx.by_id
    splits = [mf.stratified_split(ctx.manifest, cfg.split_fraction, seed, "species") for _, seed in _trials(cfg)]
    classes = []  # each trial's (species, species and "unclassified")
    for trial_idx, split in enumerate(splits):
        species = sorted({by_id[i].species for i in split.train} - {"unclassified"})
        if len(species) < 2:  # the gate head's classes
            raise ValueError(f"{_corpus_source(cfg, positives=True)}: need at least 2 species in each training split, "
                             f"found {species} in trial {trial_idx} at split_fraction = {cfg.split_fraction}")
        ctx.check_window_counts(split.train)  # the region head's images
        classes.append((species, species + ["unclassified"]))
    _map_images(cfg, ctx.region_features, ctx.manifest.ids())  # every trial splits the whole corpus

    detectors, fits = [], []
    for (_, seed), split, (species, all_classes) in zip(_trials(cfg), splits, classes):
        labeled = [(i, by_id[i].species) for i in split.train]
        # (a) gate head: positives, species only; (b) direct head: all classes; (c/d) WSDDN head: region rows
        fits += [([(_image_level(ctx, i), wsddn.one_hot(s, species)) for i, s in labeled if s in species],
                  species, seed),
                 ([(_image_level(ctx, i), wsddn.one_hot(s, all_classes)) for i, s in labeled], all_classes, seed),
                 ([(ctx.region_features(i), wsddn.one_hot(s, all_classes)) for i, s in labeled], all_classes, seed)]
        detectors.append(_fit_detector(cfg, *presence_rows(ctx, cfg, split.train), seed))  # for the gate
    heads = wsddn.train_heads(fits, cfg.head_epochs, cfg.head_lr, cfg.head_l2)

    report = Report(cfg)
    for (trial_idx, seed), split, (_, all_classes), detector, gate_head, direct_head, region_head in zip(
            _trials(cfg), splits, classes, detectors, heads[0::3], heads[1::3], heads[2::3]):
        val, truths = split.validation, [by_id[i].species for i in split.validation]
        detected = svm.predict_labels(detector, presence_rows(ctx, cfg, val)[0]) if val else []
        gated = ["unclassified" if d < 0 else wsddn.rank_classes(_image_level(ctx, i), gate_head)[0]
                 for i, d in zip(val, detected)]
        gated_cm = mt.accumulate(zip(gated, truths), all_classes)
        direct_cm = mt.accumulate([(wsddn.rank_classes(_image_level(ctx, i), direct_head)[0], t)
                                   for i, t in zip(val, truths)], all_classes)
        ranked = [wsddn.rank_classes(ctx.region_features(i), region_head, cfg.k) for i in val]
        for c in all_classes:
            mine = [r for r, t in zip(ranked, truths) if t == c]
            top = [mt.topk_accuracy(mine, [c] * len(mine), k) if mine else None for k in (1, min(5, len(all_classes)))]
            report.rows.append({"trial": trial_idx, "seed": seed, "class": c,
                                "detector_gated": mt.accuracy(mt.binary_counts(gated_cm, c)),
                                "direct": mt.accuracy(mt.binary_counts(direct_cm, c)),
                                "wsddn_top1": top[0], "wsddn_top5": top[1]})
        if trial_idx == 0:
            report.confusions["direct"] = direct_cm
    report.aggregates = _aggregate(report.rows, ["class"], ["detector_gated", "direct", "wsddn_top1", "wsddn_top5"])
    return report


# ---------------------------------------------------------------------------
# individual recognition


def _train_patch_detector(ctx, cfg, train_ids, seed, pooled=None):
    """Patch-level detector from planted ground-truth boxes, on the patch-grid
    rows of the training positives: those of `pooled[rid]`, the image's
    `ctx.pool(rid, grid=True)`, if given, else pooled here and not kept."""
    rng = np.random.default_rng(np.uint64(seed))
    rows, labs = [], []
    for i in train_ids:
        box = ctx.boxes.get(i)
        if box is None:
            continue
        x0, y0, x1, y1 = box
        px0, py0, px1, py1 = ctx.grid(i).boxes().T
        inside = (px0 >= x0) & (px1 <= x1) & (py0 >= y0) & (py1 <= y1)
        apart = ~inside & ((px1 <= x0) | (px0 >= x1) | (py1 <= y0) | (py0 >= y1))
        pos, neg = np.flatnonzero(inside), np.flatnonzero(apart)
        take = min(len(pos), len(neg), 8)
        if take == 0:
            continue
        patch = (ctx.pool(i, grid=True) if pooled is None else pooled[i])[1]
        rows += [patch[rng.choice(pos, take, replace=False)], patch[rng.choice(neg, take, replace=False)]]
        labs += [np.ones(take), -np.ones(take)]
    if not rows:
        raise ValueError(f"patch_size = {cfg.patch_size}: no training positive has both a patch wholly inside "
                         f"its planted box and one wholly outside it")
    return _fit_detector(cfg, np.concatenate(rows), np.concatenate(labs), seed)


def _individual_features(ctx, cfg, runs):
    """Region features by image id of each run key: the raw image's, or, in a
    segmented run, those of the image with its background grayed out by a
    patch detector fitted on the run's training ids.  Every image the runs
    read is pooled first, in one pass on `cfg.jobs` threads; an image that
    a segmented run reads has its patch grid pooled from the same forward
    (`ctx.pool`), its patch mean colors and grid rows held here, not on
    `ctx`, until its masks exist.  The detectors, then every (run, image) patch mask, are
    computed from those in run order on the calling thread; then, image by
    image on `cfg.jobs` threads, the image is rendered or read again and one
    masked forward serves each distinct (image, patch mask).  No pixels are
    held, and nothing of the masked images is kept on `ctx`.

    The mean field stays on the calling thread because perfbench's tracer
    wraps each call in `tracemalloc.start()` / `stop()`, and on CPython 3.11
    a stop racing numpy's allocations in another thread crashed the traced
    process."""
    masked = {i for train, val, *_, segmented in runs if segmented for i in (*train, *val)}
    ids = list(dict.fromkeys(i for train, val, *_ in runs for i in (*train, *val)))
    # each masked image's (patch mean colors, grid rows), held until the masks exist
    pooled = dict(zip(ids, _map_images(
        cfg, lambda i: ctx.pool(i, grid=True) if i in masked else ctx.region_features(i), ids)))
    runs_of = {}  # image id -> (run, patch mask) of each segmented run that reads it
    for n, (train, val, _, seed, segmented) in enumerate(runs):
        if segmented:
            detector = _train_patch_detector(ctx, cfg, train, seed, pooled)
            for rid in (*train, *val):
                colors, rows = pooled[rid]
                runs_of.setdefault(rid, []).append((n, seg.patch_mask(rows, colors, ctx.grid(rid), detector)))
    del pooled

    def masked_features(rid):
        """(run, region features) of each segmented run that reads the image."""
        img, regions = ctx.images[rid], ctx.region_features(rid).regions
        by_mask, out = {}, []
        for n, mask in runs_of[rid]:
            key = mask.tobytes()
            if key not in by_mask:
                masked = seg.apply_mask(img, seg.upsample_mask(mask, ctx.grid(rid)))
                by_mask[key] = ft.extract_region_features(masked, regions, ctx.params, ctx.pyramid)
            out.append((n, by_mask[key]))
        return out

    by_run = {}
    for rid, feats in zip(runs_of, _map_images(cfg, masked_features, list(runs_of))):
        for n, f in feats:
            by_run.setdefault(n, {})[rid] = f
    return [by_run[n].__getitem__ if n in by_run else ctx.region_features for n in range(len(runs))]


def _individual_key(cfg, man, classes, seed, balanced, segmented):
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
    individual) of each run key, in order.  Every run's training images are
    checked for one window count, then each distinct key is built once: its
    features (`_individual_features`, which pools every image the
    runs read first) and dataset, then every head is fitted (one
    `wsddn.train_heads` call), then each head is scored.  A key seen again
    reuses that result."""
    by_id = ctx.by_id
    runs = list(dict.fromkeys(keys))
    for train, *_ in runs:
        ctx.check_window_counts(train)
    feats = _individual_features(ctx, cfg, runs)
    fits = [([(f(i), wsddn.one_hot(by_id[i].individual, classes)) for i in train], classes, seed)
            for f, (train, _, classes, seed, _) in zip(feats, runs)]
    heads = wsddn.train_heads(fits, cfg.head_epochs, cfg.head_lr, cfg.head_l2)
    results = {}
    for key, f, head in zip(runs, feats, heads):
        train, val, classes, _, _ = key
        pairs = [(wsddn.rank_classes(f(i), head, cfg.k)[0], by_id[i].individual) for i in val]
        results[key] = (mt.accumulate(pairs, classes), Counter(by_id[i].individual for i in train))
    return [results[key] for key in keys]


def _individual_run(ctx, cfg, man, classes, seed, balanced, segmented):
    """One individual run, fitted and scored on its own (criterion 8's
    balanced-versus-unbalanced check calls this)."""
    return _individual_runs(ctx, cfg, [_individual_key(cfg, man, classes, seed, balanced, segmented)])[0]


def _individual_rows(cm, classes, train_counts) -> List[dict]:
    """Per-individual counts and measures, one row per class in class order."""
    rows = []
    for c in classes:
        bc = mt.binary_counts(cm, c)
        rows.append({"individual": c, "train_images": train_counts[c],
                     "tp": bc.tp, "tn": bc.tn, "fp": bc.fp, "fn": bc.fn, **mt.measures(bc)})
    return rows


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
    if not species_opts:
        raise ValueError(f"{_corpus_source(cfg, positives=True)}: individual study needs individuals of tiger or "
                         "leopard, found none")
    if len(species_opts) == 2:
        species_opts.append(("joint", ("tiger", "leopard")))

    # (run key, classes, row prefix); a balanced run that balancing left whole,
    # and the sweep's full-n run (trial 0's balanced raw run), share a key
    plan = []
    for sp_name, sp_set in species_opts:
        man = mf.filter_manifest(ctx.manifest, species=sp_set, has_individual=True)
        classes = sorted({r.individual for r in man})
        if len(classes) < 2:
            raise ValueError(f"{_corpus_source(cfg, positives=True)}: {sp_name}: need at least 2 individuals, "
                             f"found {classes}")
        for balanced in (False, True):
            for segmented in (False, True) if cfg.segment else (False,):
                for trial_idx, seed in _trials(cfg):
                    plan.append((_individual_key(cfg, man, classes, seed, balanced, segmented), classes,
                                 {"species": sp_name, "balanced": int(balanced), "segmented": int(segmented),
                                  "trial": trial_idx, "seed": seed}))
        if cfg.sweep_individuals:
            for n in range(2, len(classes) + 1):
                subset = classes[:n]
                sub_man = mf.Manifest(tuple(r for r in man if r.individual in set(subset)))
                plan.append((_individual_key(cfg, sub_man, subset, cfg.base_seed, True, False), subset,
                             {"species": sp_name, "balanced": 1, "segmented": 0, "trial": -1, "seed": cfg.base_seed}))
    for (_, classes, prefix), (cm, train_counts) in zip(plan, _individual_runs(ctx, cfg, [key for key, *_ in plan])):
        rows = _individual_rows(cm, classes, train_counts)
        if prefix["trial"] < 0:  # a sweep row: specificity and precision absent, so written as undefined
            rows = [{"individual": f"sweep_n={len(classes)}", "train_images": 0, "tp": 0, "tn": 0, "fp": 0, "fn": 0,
                     **{m: _mean(r[m] for r in rows) for m in ("sensitivity", "accuracy")}}]
        report.rows.extend({**prefix, **r} for r in rows)
    report.aggregates = _aggregate([r for r in report.rows if r["trial"] >= 0],
                                   ["species", "balanced", "segmented", "individual"], mt.MEASURES)
    return report


def run_joint_individuals(cfg: ExperimentConfig, ctx: Optional[PipelineContext] = None) -> Report:
    """Single head over the union of tiger and leopard individuals;
    per-individual sensitivity and specificity, sorted by sensitivity."""
    ctx = _context(cfg, ctx)
    man = mf.filter_manifest(ctx.manifest, has_individual=True)
    species = sorted({r.species for r in man})
    if len(species) < 2:
        raise ValueError(f"{_corpus_source(cfg, positives=True)}: joint study needs individuals from 2 species, "
                         f"found {species}")
    classes = sorted({r.individual for r in man})
    report = Report(cfg)
    keep = ("individual", "train_images", "sensitivity", "specificity", "accuracy")
    keys = [_individual_key(cfg, man, classes, seed, cfg.balance, cfg.segment) for _, seed in _trials(cfg)]
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
PROTOCOLS = tuple(RUNNERS)


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
