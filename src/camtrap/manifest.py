"""Labeled image manifests: loading, filtering, splitting, balancing and
subsampling.

All sampling operations are pure functions of (input, seed).  The RNG is
numpy's PCG64 (``numpy.random.default_rng``) with a 64-bit seed; outputs are
stable across platforms for a given numpy major version.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

SPECIES_LABELS = (
    "bear",
    "chital",
    "dhole",
    "elephant",
    "gaur",
    "leopard",
    "muntjac",
    "sambar",
    "tiger",
    "wild_pig",
    "unclassified",
)

#: species for which individual identities exist
INDIVIDUAL_SPECIES = ("tiger", "leopard")

MANIFEST_HEADER = ["id", "path", "species", "individual", "illumination", "width", "height"]


class ManifestError(ValueError):
    """Malformed manifest data (bad row, duplicate id, unknown label)."""


class StratumError(ValueError):
    """Records that cannot be split by their strata: a stratum too small to
    split, or a record without the stratum's label; the message names no file."""


@dataclass(frozen=True)
class ImageRecord:
    id: str
    path: str
    species: str
    individual: Optional[str]
    illumination: str  # "day" or "night"
    width: int
    height: int

    def __post_init__(self):
        if self.species not in SPECIES_LABELS:
            raise ManifestError(f"unknown species label {self.species!r} for id {self.id!r}")
        if self.individual is not None and self.species not in INDIVIDUAL_SPECIES:
            raise ManifestError(
                f"record {self.id!r}: individual set but species is {self.species!r}"
            )
        if self.illumination not in ("day", "night"):
            raise ManifestError(
                f"record {self.id!r}: illumination must be day or night, got {self.illumination!r}"
            )
        if self.width <= 0 or self.height <= 0:
            raise ManifestError(f"record {self.id!r}: non-positive image dimensions")

    @property
    def has_animal(self) -> bool:
        return self.species != "unclassified"


@dataclass(frozen=True)
class Manifest:
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise ManifestError(f"duplicate id {r.id!r}")
            seen.add(r.id)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ids(self) -> list:
        return [r.id for r in self.records]

    def by_id(self) -> dict:
        return {r.id: r for r in self.records}

    def species_counts(self) -> Counter:
        return Counter(r.species for r in self.records)


@dataclass(frozen=True)
class SplitAssignment:
    train: tuple
    validation: tuple

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "validation", tuple(self.validation))
        if set(self.train) & set(self.validation):
            raise ValueError("train and validation overlap")


def _stratum_key(record: ImageRecord, stratify_by: str):
    if stratify_by == "species":
        return record.species
    if stratify_by == "individual":
        if record.individual is None:
            raise StratumError(f"record {record.id!r} has no individual label")
        return (record.species, record.individual)
    return "animal" if record.has_animal else "unclassified"  # presence


def _group_by_stratum(records: Iterable[ImageRecord], stratify_by: str) -> "OrderedDict":
    if stratify_by not in ("species", "individual", "presence"):
        raise ValueError(f"unknown stratify_by {stratify_by!r}")
    groups = OrderedDict()
    for r in records:
        groups.setdefault(_stratum_key(r, stratify_by), []).append(r)
    return groups


def load_manifest(path) -> Manifest:
    """Parse a manifest CSV.  Raises ManifestError naming the offending line."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty file, expected header")
        if header != MANIFEST_HEADER:
            raise ManifestError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MANIFEST_HEADER):
                raise ManifestError(f"{path}:{lineno}: expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
            rid, rpath, species, individual, illum, width, height = row
            try:
                rec = ImageRecord(
                    id=rid,
                    path=rpath,
                    species=species,
                    individual=individual or None,
                    illumination=illum,
                    width=int(width),
                    height=int(height),
                )
            except (ManifestError, ValueError) as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from None
            records.append(rec)
    return Manifest(records=tuple(records))


def save_manifest(manifest: Manifest, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in manifest:
            writer.writerow(
                [r.id, r.path, r.species, r.individual or "", r.illumination, r.width, r.height]
            )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_train_fraction(value: float, name: str = "train_fraction") -> None:
    """The one rule for a split's train fraction; `name` is the caller's name for it."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0,1), got {value}")


def check_fraction(value: float, name: str = "fraction") -> None:
    """The one rule for a subsample fraction; `name` is the caller's name for it."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0,1], got {value}")


def check_seed(value: int, name: str = "seed") -> None:
    """The one rule for a seed: every RNG is seeded with ``np.uint64(seed)``;
    `name` is the caller's name for it."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def check_presence(m: Manifest, source) -> None:
    """The one rule for a presence detector's corpus: images with and without
    an animal, checked from the records; `source` names the corpus."""
    n_pos = sum(r.has_animal for r in m)
    if n_pos in (0, len(m)):
        raise ValueError(f"{source}: a presence detector needs images with and without an animal, "
                         f"found {n_pos} with and {len(m) - n_pos} without")


def stratified_split(
    m: Manifest, train_fraction: float, seed: int, stratify_by: str = "presence"
) -> SplitAssignment:
    """Split ids into train/validation, stratified and reproducible.

    Within each stratum round_half_up(train_fraction * count) records go to
    train; remainder to validation.
    """
    check_train_fraction(train_fraction)
    groups = _group_by_stratum(m.records, stratify_by)
    for key, recs in groups.items():
        if len(recs) < 2:
            raise StratumError(f"stratum {key!r} has fewer than 2 records")
    rng = np.random.default_rng(np.uint64(seed))
    train, validation = [], []
    for key, recs in groups.items():
        ids = [r.id for r in recs]
        perm = rng.permutation(len(ids))
        n_train = _round_half_up(train_fraction * len(ids))
        picked = [ids[i] for i in perm]
        train.extend(picked[:n_train])
        validation.extend(picked[n_train:])
    return SplitAssignment(train=tuple(train), validation=tuple(validation))


def _sample_per_stratum(m: Manifest, stratify_by: str, seed: int, count: Callable[[int], int]) -> Manifest:
    """Seeded draw of count(stratum size) records from every stratum, in
    stratum order, keeping the survivors in manifest order."""
    rng = np.random.default_rng(np.uint64(seed))
    keep = set()
    for recs in _group_by_stratum(m.records, stratify_by).values():
        chosen = rng.choice(len(recs), size=count(len(recs)), replace=False)
        keep.update(recs[i].id for i in chosen)
    return Manifest(records=tuple(r for r in m.records if r.id in keep))


def balance_classes(m: Manifest, class_key: str, seed: int) -> Manifest:
    """Downsample every class to the minimum class count, seeded, keeping the
    relative order of surviving records."""
    if len(m) == 0:
        return m
    min_count = min(len(v) for v in _group_by_stratum(m.records, class_key).values())
    return _sample_per_stratum(m, class_key, seed, lambda n: min_count)


def subsample_fraction(m: Manifest, fraction: float, seed: int, stratify_by: str = "presence") -> Manifest:
    """Per-stratum uniform sample of round_half_up(fraction * count) records."""
    check_fraction(fraction)
    if fraction == 1.0:
        return m
    return _sample_per_stratum(m, stratify_by, seed, lambda n: _round_half_up(fraction * n))


def filter_manifest(
    m: Manifest,
    species: Optional[Sequence[str]] = None,
    illumination: Optional[str] = None,
    has_individual: bool = False,
) -> Manifest:
    """Keep records satisfying every given predicate, order preserved;
    `has_individual` keeps only records with an individual label."""
    records = list(m.records)
    if species is not None:
        wanted = set(species)
        unknown = wanted - set(SPECIES_LABELS)
        if unknown:
            raise ValueError(f"unknown species in filter: {sorted(unknown)}")
        records = [r for r in records if r.species in wanted]
    if illumination is not None:
        if illumination not in ("day", "night"):
            raise ValueError(f"illumination must be day or night, got {illumination!r}")
        records = [r for r in records if r.illumination == illumination]
    if has_individual:
        records = [r for r in records if r.individual is not None]
    return Manifest(records=tuple(records))


def select_records(m: Manifest, ids: Iterable[str]) -> Manifest:
    """Restrict a manifest to the given ids, manifest order preserved."""
    wanted = set(ids)
    missing = wanted - set(m.ids())
    if missing:
        raise ValueError(f"ids not in manifest: {sorted(missing)[:5]}")
    return Manifest(records=tuple(r for r in m.records if r.id in wanted))
