"""camtrap protocol benchmark.

    python3 perfbench/run.py --workload species --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) in a fresh process for --seconds,
repeating set-up (corpus render or PPM read plus PipelineContext) and the
protocol run (run_protocol through write_report), and checks every output.
Timings are wall times scaled to a reference host speed, measured while
the workload runs (speed.py).
--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once with the outside-in tracer and reports per-layer metrics.
The last stdout line is the JSON result; a readable summary goes to stderr
and the full samples to .perfbench_work/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spread(values) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "max": max(values), "n": len(values)}


def run_child(workload, seed, seconds, trace, smoke, work: Path, blas_threads: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    # Keep freed heap memory in the process (glibc), so repetitions after the
    # first do not page-fault their arrays in again: on a VM the cost of a
    # minor fault drifts with host load, and it was half of detect's set-up.
    env["MALLOC_TRIM_THRESHOLD_"] = str(2**32 - 1)
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 2**20)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--smoke", str(int(smoke)),
           "--src", str(ROOT / "src"), "--result", str(result)]
    proc = subprocess.run(cmd, cwd=work, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test; floors off")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "camtrap" / "__init__.py").is_file():
        print(f"error: no camtrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    # one BLAS thread per job (jobs x BLAS threads <= nproc): a second BLAS
    # thread would run on a vCPU whose speed the sampler does not see
    blas_threads = 1
    base = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    runs = {"untraced": run_child(args.workload, args.seed, args.seconds, 0, args.smoke,
                                  base / "untraced", blas_threads)}
    if args.trace:
        runs["traced"] = run_child(args.workload, args.seed, args.seconds, 1, args.smoke,
                                   base / "traced", blas_threads)

    reference = runs["untraced"]["reps"][0].get("sha256")
    attempted = failed = 0
    problems = []
    for tag, res in runs.items():
        for i, rep in enumerate(res["reps"]):
            attempted += 1
            errs = list(rep.get("errors", []))
            if rep.get("sha256") != reference:
                errs.append(f"output tree {rep.get('sha256')} differs from {reference}")
            if errs:
                failed += 1
                problems += [f"{tag} rep {i}: {e}" for e in errs]
    ok_reps = {tag: [r for r in res["reps"] if not r["warmup"] and "run_s" in r]
               for tag, res in runs.items()}

    untraced = ok_reps["untraced"]
    summary = {
        "env": runs["untraced"]["env"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "output_sha256": reference,
        # a warm workload sets up only in its untimed first repetition
        "setup_s": spread([t for r in runs["untraced"]["reps"] for t in r.get("setup_s", [])]) if untraced else None,
        "run_s": spread([r["run_s"] for r in untraced]) if untraced else None,
        "run_wall_s": spread([r["run_wall_s"] for r in untraced]) if untraced else None,
        "kernel_s": spread([r["kernel_s"] for r in untraced]) if untraced else None,
    }
    metrics = {}
    if untraced:
        metrics = {
            "setup_s": summary["setup_s"]["median"],
            "run_s": summary["run_s"]["median"],
            "peak_rss_mb": runs["untraced"]["peak_rss_mb"],
            "quality": untraced[0]["quality"],
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    if args.trace:
        traced = ok_reps["traced"]
        units = metric_units("per_layer")
        layer = {}
        if traced and untraced:
            layer = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
            layer["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                         - summary["run_s"]["median"])
        summary["layers"] = layer
        # a warm workload's untimed first repetition is its only one with
        # feature extraction; keep its layer figures for reference
        warmup = [r for r in runs["traced"]["reps"] if r["warmup"] and "layers" in r]
        if warmup:
            summary["warmup_layers"] = warmup[0]["layers"]
        summary["end_to_end"] = metrics
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items() if k in layer}
        if set(metrics) != set(units):
            problems.append(f"per-layer metrics missing: {sorted(set(units) - set(metrics))}")

    with open(base / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print_summary(args.workload, summary, file=sys.stderr)
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    for tag in runs:
        shutil.rmtree(base / tag / "out", ignore_errors=True)
    return 0


def print_summary(workload, s, file):
    env = s["env"]
    print(f"[perfbench] {workload}: nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']} x{env['blas']['threads']} threads, "
          f"jobs {env['jobs']}, seed {env['seed']}", file=file)
    for key in ("setup_s", "run_s", "run_wall_s", "kernel_s"):
        if s[key]:
            v = s[key]
            print(f"[perfbench]   {key}: median {v['median']:.6g} s (q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, "
                  f"max {v['max']:.6g}, n={v['n']})", file=file)
    print(f"[perfbench]   failed_frac: {s['failed']}/{s['attempted']}", file=file)
    for p in s["problems"]:
        print(f"[perfbench]   problem: {p}", file=file)
    layers = s.get("layers")
    if layers:
        ranked = sorted(((k.split(".")[0], v) for k, v in layers.items()
                         if k.endswith(".self_s") or k in ("manifest.s", "metrics.s")), key=lambda kv: -kv[1])
        run_s = s["run_wall_s"]["median"]
        share = ", ".join(f"{k} {v:.3f} s" for k, v in ranked)
        print(f"[perfbench]   layer self time (traced, of untraced wall run_s {run_s:.3f} s): {share}; "
              f"uncovered {layers['trace.uncovered_s']:.3f} s, "
              f"trace overhead {layers['trace.overhead_s']:.3f} s", file=file)
    cold = s.get("warmup_layers")
    if cold:
        print(f"[perfbench]   untimed first repetition: {cold['features.forward_calls']:.0f} conv forwards, "
              f"{cold['features.forward_ms']:.3f} ms each", file=file)


if __name__ == "__main__":
    sys.exit(main())
