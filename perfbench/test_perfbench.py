"""Self-test of the benchmark at smoke size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from speed import KERNEL_REF_S, SpeedSampler  # noqa: E402
from tracer import Span, Tracer, covered_seconds, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(_run(workload, 1, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["segment", "detect"])
def test_non_default_seed_runs_cleanly(workload):
    res = _result(_run(workload, 987654, 0))
    assert res["correct"] and res["failed"] == 0


def test_tracer_restores_module_attributes():
    from camtrap import experiments, features, manifest, metrics, segmentation, svm, synth, wsddn

    mods = dict(experiments=experiments, features=features, manifest=manifest, metrics=metrics,
                segmentation=segmentation, svm=svm, synth=synth, wsddn=wsddn)
    owners = list(mods.values()) + [experiments.PipelineContext]
    before = {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}
    with Tracer() as tracer:
        layers.install(tracer, mods)
        assert features.forward is not before[(id(features), "forward")]
        params = features.init_convnet((3, 4), seed=0)
        features.extract_region_features(np.zeros((16, 16, 3)), [features.Region(0, 0, 16, 16)], params)
        names = sorted(s.name for s in tracer.take())
    assert names == ["features.extract", "features.forward", "features.spp"]
    after = {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_and_coverage():
    spans = [
        Span("a.x", 0.0, 10.0, 0, -1, 1),
        Span("b.y", 1.0, 4.0, 1, 0, 1),
        Span("b.z", 5.0, 6.0, 2, 0, 1),
        Span("c.w", 8.0, 12.0, 3, -1, 2),  # overlapping top-level span of another thread
        Span("c.v", 20.0, 21.0, 4, -1, 2),
    ]
    st = self_times(spans)
    assert st == {0: 6.0, 1: 3.0, 2: 1.0, 3: 4.0, 4: 1.0}
    assert covered_seconds(spans) == 13.0


def test_speed_sampler_scales_by_the_kernel_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval_s=0.005) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.kernel_s) >= 5 and all(k > 0 for k in sampler.kernel_s)
    k = sampler.kernel_mean(t0, t1)
    assert sampler.scaled(t0, t1) == pytest.approx((t1 - t0) * KERNEL_REF_S / k)
    # an interval without samples takes one
    idle = SpeedSampler()
    assert idle.scaled(0.0, 1.0) > 0 and len(idle.kernel_s) == 1


def test_conv_gflop_counts_each_layer_on_its_input():
    # 3->16 on 96x96, then 16->32 on 48x48
    assert layers.conv_gflop((96, 96, 3), (3, 16, 32)) == pytest.approx(
        2 * 9 * (3 * 16 * 96 * 96 + 16 * 32 * 48 * 48) / 1e9)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("species", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
