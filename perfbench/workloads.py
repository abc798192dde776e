"""The four benchmark workloads: seeded camtrap protocol runs.

Each workload turns the benchmark seed into a corpus seed and a trial base
seed; camtrap only sees the resulting ExperimentConfig.  `quality` reads the
headline accuracy from the protocol's aggregate CSV and `floor_errors`
applies that workload's acceptance-style floor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    # reuse the first repetition's PipelineContext, so later repetitions
    # time the protocol on cached features
    warm: bool
    build: Callable  # (camtrap modules, seed, smoke) -> ExperimentConfig
    quality: Callable  # aggregate rows -> float
    floor_errors: Callable  # aggregate rows -> list of failure messages
    prepare: Optional[Callable] = None  # (camtrap modules, seed, smoke) -> None; writes inputs


def read_aggregate(out_dir: Path, protocol: str) -> List[dict]:
    with open(out_dir / f"{protocol}_aggregate.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(row, key) -> float:
    v = row[key]
    return float("nan") if v == "undefined" else float(v)


def _mean(values) -> float:
    return sum(values) / len(values)


# --- species: criterion 7's species corpus --------------------------------

def _species_cfg(m, seed, smoke):
    synth, ex = m["synth"], m["experiments"]
    per = 3 if smoke else 10
    scfg = synth.SynthConfig(
        image_size=96, species_specs=synth.default_species_specs(4, per),
        n_negatives=12 if smoke else 40, seed=seed,
    )
    return ex.ExperimentConfig(
        protocol="species", synth_config=scfg, n_seeds=1, base_seed=seed,
        head_epochs=20 if smoke else 1200, head_lr=8.0, jobs=1,
    )


# Criterion 7 asks WSDDN top-1 >= 0.90 for every class, on its recorded
# corpus seed.  On other corpus seeds one class can fall to 0.5 (seeds 17
# and 20 of the benchmark), so the floor applies to the class mean.
SPECIES_TOP1_FLOOR = 0.6


def _species_quality(rows):
    return _mean([_num(r, "wsddn_top1_mean") for r in rows])


def _species_floor(rows):
    q = _species_quality(rows)
    return [] if q >= SPECIES_TOP1_FLOOR else [f"mean wsddn_top1 {q} < {SPECIES_TOP1_FLOOR}"]


# --- joint24: criterion 7's 24-individual corpus ---------------------------

JOINT24_EPOCHS = 100


def _joint24_cfg(m, seed, smoke):
    synth, ex = m["synth"], m["experiments"]
    per = 4 if smoke else 30
    specs = (
        synth.SpeciesSpec("tiger", "stripes", 3, 3 * per),
        synth.SpeciesSpec("leopard", "spots", 21, 21 * per),
    )
    scfg = synth.SynthConfig(image_size=96, species_specs=specs, n_negatives=0, seed=seed)
    return ex.ExperimentConfig(
        protocol="joint-individuals", synth_config=scfg, n_seeds=1, base_seed=seed,
        channels=(3, 16, 32), head_epochs=5 if smoke else JOINT24_EPOCHS, head_lr=15.0, jobs=1,
    )


def _joint24_quality(rows):
    # balanced accuracy, (sensitivity + specificity) / 2 per individual:
    # sensitivity alone spread by 11-24% between corpus seeds
    return _mean([(_num(r, "sensitivity_mean") + _num(r, "specificity_mean")) / 2 for r in rows])


JOINT24_SENSITIVITY_FLOOR = 0.4
JOINT24_SPECIFICITY_FLOOR = 0.8


def _joint24_floor(rows):
    errs = []
    sens = _mean([_num(r, "sensitivity_mean") for r in rows])
    if not sens >= JOINT24_SENSITIVITY_FLOOR:
        errs.append(f"mean sensitivity {sens} < {JOINT24_SENSITIVITY_FLOOR}")
    errs += [f"{r['individual']} specificity {r['specificity_mean']} < {JOINT24_SPECIFICITY_FLOOR}"
             for r in rows if not _num(r, "specificity_mean") >= JOINT24_SPECIFICITY_FLOOR]
    return errs


# --- segment: individual study with mean-field segmentation ----------------

def _segment_cfg(m, seed, smoke):
    synth, ex = m["synth"], m["experiments"]
    per = 4
    specs = (
        synth.SpeciesSpec("tiger", "stripes", 2, 2 * per),
        synth.SpeciesSpec("leopard", "spots", 2, 2 * per),
    )
    scfg = synth.SynthConfig(image_size=64 if smoke else 160, species_specs=specs,
                             n_negatives=0, seed=seed)
    return ex.ExperimentConfig(
        protocol="individual", synth_config=scfg, n_seeds=1, base_seed=seed, segment=True,
        head_epochs=5 if smoke else 200, head_lr=8.0, svm_epochs=5 if smoke else 30, jobs=2,
    )


SEGMENT_ACCURACY_FLOOR = 0.6


def _segment_quality(rows):
    return _mean([_num(r, "accuracy_mean") for r in rows])


def _segment_floor(rows):
    acc = _segment_quality(rows)
    return [] if acc >= SEGMENT_ACCURACY_FLOOR else [f"mean accuracy {acc} < {SEGMENT_ACCURACY_FLOOR}"]


# --- detect: volume sweep on a disk-backed corpus ---------------------------

def _detect_corpus(m, seed, smoke):
    synth = m["synth"]
    per = 4 if smoke else 20
    return synth.SynthConfig(
        image_size=64, species_specs=synth.default_species_specs(4, per),
        n_negatives=4 * per, seed=seed,
    )


def _detect_cfg(m, seed, smoke):
    # manifest_path is relative to the workload's working directory, so the
    # config.json bytes do not depend on where the checkout lives
    return m["experiments"].ExperimentConfig(
        protocol="volume", manifest_path="corpus/manifest.csv",
        n_seeds=2 if smoke else 20, base_seed=seed, svm_epochs=5 if smoke else 30, jobs=1,
    )


def _detect_prepare(m, seed, smoke):
    m["synth"].generate_corpus(_detect_corpus(m, seed, smoke), out_dir="corpus")


DETECT_ACCURACY_FLOOR = 0.9


def _detect_full(rows):
    return next(r for r in rows if float(r["fraction"]) == 1.0)


def _detect_floor(rows):
    acc = _num(_detect_full(rows), "accuracy_mean")
    return [] if acc >= DETECT_ACCURACY_FLOOR else [f"accuracy at fraction 1.0 {acc} < {DETECT_ACCURACY_FLOOR}"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="species",
            why="mixed: two conv forwards per image plus three small heads and one SVM",
            jobs=1, warm=False, build=_species_cfg,
            quality=_species_quality,
            floor_errors=_species_floor,
        ),
        Workload(
            name="joint24",
            why="one 24-class WSDDN head fit on warm features; head gradient dominates",
            jobs=1, warm=True, build=_joint24_cfg,
            quality=_joint24_quality,
            floor_errors=_joint24_floor,
        ),
        Workload(
            name="segment",
            why="patch-grid SPP features and mean-field refinement on 160 px frames dominate",
            jobs=2, warm=False, build=_segment_cfg,
            quality=_segment_quality,
            floor_errors=_segment_floor,
        ),
        Workload(
            name="detect",
            why="PPM read set-up, then many Pegasos fits on features built once; no head work",
            jobs=1, warm=False, build=_detect_cfg,
            quality=lambda rows: _num(_detect_full(rows), "accuracy_mean"),
            floor_errors=_detect_floor, prepare=_detect_prepare,
        ),
    )
}
