"""Which camtrap functions the traced run wraps, and how one repetition's
spans become the per-layer metrics named in BENCHMARK.json.

Layers are named after modules.  A `<layer>.self_s` is the summed self time
of that layer's spans; other `_s` values are inclusive times of the named
function.  GFLOP, kernel MiB and bytes written are computed from shapes and
file sizes, not measured by counters.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Dict, List

from tracer import Span, Tracer, covered_seconds, self_times

LAYERS = ("synth", "manifest", "features", "svm", "wsddn", "segmentation", "metrics", "experiments")


def conv_gflop(shape, channels) -> float:
    """Multiply-adds x 2 of the 3x3 conv stack on an image of `shape`."""
    h, w = shape[0], shape[1]
    flop = 0
    for c_in, c_out in zip(channels[:-1], channels[1:]):
        flop += 2 * 9 * c_in * c_out * h * w
        h, w = h // 2, w // 2
    return flop / 1e9


def _forward_info(a, result):
    return {"gflop": conv_gflop(a["image"].shape, a["params"].channels)}


def _head_info(a, result):
    rf0 = a["dataset"][0][0]
    n = len(a["dataset"])
    r, d = rf0.matrix.shape
    c = len(a["class_names"])
    steps = a["cfg"].epochs + 1  # the final loss evaluation also computes gradients
    return {"steps": steps, "gflop": 8.0 * n * r * d * c * steps / 1e9,
            "final_loss": result.loss_by_epoch[-1]}


def _svm_info(a, result):
    return {"rows_visited": len(a["features"]) * a["cfg"].epochs,
            "final_objective": result.objective_by_epoch[-1]}


def _meanfield_info(a, result):
    n = a["grid"].nx * a["grid"].ny
    return {"patches": n, "kernel_mb": n * n * 8 / 2**20}


def _report_info(a, result):
    out = Path(a["out_dir"])
    return {"bytes": sum((out / f).stat().st_size for f in result)}


def _bound(fn, info):
    """Adapt info(arguments, result) to the tracer's (args, kwargs, result)."""
    sig = inspect.signature(fn)

    def call(args, kwargs, result):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return info(ba.arguments, result)

    return call


def install(tracer: Tracer, camtrap_modules: dict) -> None:
    """Wrap the public functions of each layer on `tracer`."""
    m = camtrap_modules
    targets = [
        (m["synth"], "render_image", "synth.render", None),
        (m["synth"], "read_ppm", "synth.read", None),
        (m["features"], "forward", "features.forward", _forward_info),
        (m["features"], "spp_pool", "features.spp", None),
        (m["features"], "extract_region_features", "features.extract", None),
        (m["features"], "propose_regions", "features.propose", None),
        (m["svm"], "train_linear_svm", "svm.fit", _svm_info),
        (m["svm"], "predict_margins", "svm.predict", None),
        (m["svm"], "predict_margin", "svm.predict", None),
        (m["wsddn"], "train_head", "wsddn.fit", _head_info),
        (m["wsddn"], "score_regions", "wsddn.score", None),
        (m["wsddn"], "aggregate_sum", "wsddn.aggregate", None),
        (m["wsddn"], "aggregate_topk", "wsddn.aggregate", None),
        (m["wsddn"], "predict_topk", "wsddn.aggregate", None),
        (m["segmentation"], "compute_unary", "segmentation.unary", None),
        (m["segmentation"], "refine_mean_field", "segmentation.meanfield", _meanfield_info),
        (m["segmentation"], "upsample_mask", "segmentation.mask", None),
        (m["segmentation"], "apply_mask", "segmentation.mask", None),
        (m["experiments"], "write_report", "experiments.report_write", _report_info),
        (m["experiments"].PipelineContext, "image_feature", "experiments.lookup", None),
        (m["experiments"].PipelineContext, "region_features", "experiments.lookup", None),
    ]
    for fn in ("load_manifest", "stratified_split", "balance_classes",
               "subsample_fraction", "filter_manifest", "select_records"):
        targets.append((m["manifest"], fn, f"manifest.{fn}", None))
    for fn in ("accumulate", "binary_counts", "sensitivity", "specificity",
               "precision", "accuracy", "write_confusion_csv"):
        targets.append((m["metrics"], fn, f"metrics.{fn}", None))
    for owner, attr, name, info in targets:
        fn = getattr(owner, attr)
        tracer.wrap(owner, attr, name,
                    info=None if info is None else _bound(fn, info),
                    measure_alloc=name == "segmentation.meanfield")


def _sum(spans, name, key=None):
    return sum((s.duration if key is None else s.info[key]) for s in spans if s.name == name)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def rep_metrics(setup_spans: List[Span], run_spans: List[Span], run_s: float,
                n_images: int) -> Dict[str, float]:
    """Per-layer metrics of one repetition: set-up spans feed `synth.*`,
    run spans (run_protocol through write_report) feed the rest."""
    st = self_times(run_spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in run_spans:
        layer_self[s.layer] += st[s.sid]
    by = lambda name: [s for s in run_spans if s.name == name]
    extract_parents = {s.parent for s in run_spans if s.name == "features.extract"}
    lookups = by("experiments.lookup")
    heads = by("wsddn.fit")
    svms = by("svm.fit")
    mfs = by("segmentation.meanfield")
    fwd = by("features.forward")
    fwd_s = sum(s.duration for s in fwd)
    head_s = sum(s.duration for s in heads)
    steps = sum(s.info["steps"] for s in heads)
    head_gflop = sum(s.info["gflop"] for s in heads)
    out = {
        "synth.render_s": _sum(setup_spans, "synth.render"),
        "synth.images": _count(setup_spans, "synth.render") + _count(setup_spans, "synth.read"),
        "synth.read_s": _sum(setup_spans, "synth.read"),
        "manifest.s": layer_self["manifest"],
        "manifest.calls": sum(1 for s in run_spans if s.layer == "manifest"),
        "features.forward_s": fwd_s,
        "features.forward_calls": len(fwd),
        "features.forward_ms": 1e3 * fwd_s / len(fwd) if fwd else 0.0,
        "features.forward_gflop": sum(s.info["gflop"] for s in fwd),
        "features.forward_per_image": len(fwd) / n_images,
        "features.spp_s": _sum(run_spans, "features.spp"),
        "features.spp_calls": _count(run_spans, "features.spp"),
        "features.extract_self_s": sum(st[s.sid] for s in by("features.extract")),
        "features.cache_hit_frac": (
            sum(1 for s in lookups if s.sid not in extract_parents) / len(lookups) if lookups else 0.0
        ),
        "features.self_s": layer_self["features"],
        "svm.fit_s": sum(s.duration for s in svms),
        "svm.fits": len(svms),
        "svm.rows_visited": sum(s.info["rows_visited"] for s in svms),
        "svm.final_objective_mean": _mean([s.info["final_objective"] for s in svms]),
        "svm.self_s": layer_self["svm"],
        "wsddn.fit_s": head_s,
        "wsddn.fits": len(heads),
        "wsddn.grad_steps": steps,
        "wsddn.step_ms": 1e3 * head_s / steps if steps else 0.0,
        "wsddn.grad_gflop_s": head_gflop / head_s if head_s else 0.0,
        "wsddn.final_loss_mean": _mean([s.info["final_loss"] for s in heads]),
        "wsddn.score_s": _sum(run_spans, "wsddn.score"),
        "wsddn.self_s": layer_self["wsddn"],
        "segmentation.unary_s": _sum(run_spans, "segmentation.unary"),
        "segmentation.meanfield_s": sum(s.duration for s in mfs),
        "segmentation.meanfield_calls": len(mfs),
        "segmentation.patches": max((s.info["patches"] for s in mfs), default=0),
        "segmentation.kernel_mb": max((s.info["kernel_mb"] for s in mfs), default=0.0),
        "segmentation.peak_alloc_mb": max((s.info.get("peak_alloc_mb", 0.0) for s in mfs), default=0.0),
        "segmentation.self_s": layer_self["segmentation"],
        "metrics.s": layer_self["metrics"],
        "metrics.calls": sum(1 for s in run_spans if s.layer == "metrics"),
        "experiments.report_write_s": _sum(run_spans, "experiments.report_write"),
        "experiments.bytes_written": _sum(run_spans, "experiments.report_write", "bytes"),
        "experiments.busy_over_wall": sum(layer_self.values()) / run_s,
        "experiments.self_s": layer_self["experiments"],
        "trace.uncovered_s": run_s - covered_seconds(run_spans),
    }
    return {k: float(v) for k, v in out.items()}
