"""One workload process: prepare inputs, then repeat set-up -> run_protocol ->
write_report until the time budget is spent, and write the samples as JSON.

Started by run.py with BLAS thread variables already set, in a working
directory of its own.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_TIMED_REPS = 3
# set-up is short next to a run, so each repetition sets up at least this
# long (up to SETUP_MAX_REPEATS times) to give set-up a steady median
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 20
WARM_SETUPS = 5


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _blas_info(np) -> dict:
    info = {"name": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):  # numpy < 2 has no mode= argument
        pass
    info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return info


def _import_camtrap(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import camtrap
    from camtrap import experiments, features, manifest, metrics, segmentation, svm, synth, wsddn

    if Path(camtrap.__file__).resolve().parent != (src / "camtrap").resolve():
        raise SystemExit(f"camtrap imported from {camtrap.__file__}, expected {src}")
    return dict(experiments=experiments, features=features, manifest=manifest, metrics=metrics,
                segmentation=segmentation, svm=svm, synth=synth, wsddn=wsddn)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from speed import SpeedSampler
    from workloads import WORKLOADS, read_aggregate

    m = _import_camtrap(Path(args.src))
    import numpy as np

    wl = WORKLOADS[args.workload]
    cfg = wl.build(m, args.seed, bool(args.smoke))
    ex = m["experiments"]
    n_images = None
    if wl.prepare is not None:
        wl.prepare(m, args.seed, bool(args.smoke))

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, m)

    reps = []
    run_spans = []
    first_ctx = None
    out = Path("out")
    t_begin = time.perf_counter()
    sampler = SpeedSampler()
    sampler.start()
    try:
        while True:
            rep = {"warmup": wl.warm and first_ctx is None}
            reps.append(rep)
            try:
                # set up several times (each a sample); the last context is
                # used.  A warm workload sets up only in its first repetition.
                setups = []  # (start, end) of each set-up
                min_setups = WARM_SETUPS if wl.warm else 1
                while first_ctx is None and (len(setups) < min_setups or (
                        sum(t1 - t0 for t0, t1 in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS)):
                    ctx = None
                    if tracer:
                        tracer.take()
                    t0 = time.perf_counter()
                    ctx = ex.PipelineContext(cfg)
                    setups.append((t0, time.perf_counter()))
                    setup_spans = tracer.take() if tracer else []
                if wl.warm:
                    first_ctx = ctx = first_ctx or ctx
                n_images = len(ctx.manifest)
                shutil.rmtree(out, ignore_errors=True)
                t1 = time.perf_counter()
                report = ex.run_protocol(cfg, ctx)
                ex.write_report(report, out)
                t2 = time.perf_counter()
                rep["setup_wall_s"] = [b - a for a, b in setups]
                rep["run_wall_s"] = t2 - t1
                if tracer:
                    run_spans = tracer.take()
                    rep["layers"] = layers.rep_metrics(setup_spans, run_spans, rep["run_wall_s"], n_images)
                rows = read_aggregate(out, cfg.protocol)
                rep["sha256"] = tree_sha256(out)
                rep["quality"] = wl.quality(rows)
                rep["errors"] = [] if args.smoke else wl.floor_errors(rows)
                # scaled to the reference speed (speed.py); the output
                # check above gives the window after the run its samples
                rep["setup_s"] = [sampler.scaled(a, b) for a, b in setups]
                rep["run_s"] = sampler.scaled(t1, t2)
                rep["kernel_s"] = sampler.kernel_mean(t1, t2)
            except Exception:
                rep["errors"] = [traceback.format_exc()]
                break
            timed = [r for r in reps if not r["warmup"]]
            if len(timed) >= MIN_TIMED_REPS:
                est = statistics.median(sum(r["setup_wall_s"]) + r["run_wall_s"] for r in timed)
                if time.perf_counter() - t_begin + est > args.seconds:
                    break
    finally:
        sampler.stop()
        if tracer:
            tracer.restore()
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree("corpus", ignore_errors=True)

    if tracer and run_spans:
        # spans of the last repetition's run phase, written once at the end
        with open("spans.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start,end,id,parent,thread\n")
            for s in run_spans:
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.sid},{s.parent},{s.thread}\n")

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "reps": reps,
        "n_images": n_images,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_info(np),
            "jobs": cfg.jobs,
            "seed": args.seed,
            "smoke": args.smoke,
        },
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
