"""Deterministic synthetic camera-trap corpus.

Positives carry one planted texture patch (stripes for tiger, spots for
leopard, checker for other species); pattern parameters are a fixed function
of (species, individual, seed) so individuals are identifiable.  Negatives
contain background clutter only.  Every pixel depends only on (config,
manifest record), so generation order never matters, and a corpus's pixels
need never be held at once: `generate_corpus` and `manifest_pixels` return
maps that render or read one record's pixels on each access and keep none.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np

from .manifest import ImageRecord, Manifest, INDIVIDUAL_SPECIES, save_manifest

_FAMILIES = ("stripes", "spots", "checker")


@dataclass(frozen=True)
class SpeciesSpec:
    name: str
    family: str
    n_individuals: int  # 0 = no individual tags, per-image pattern params
    n_images: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown texture family {self.family!r}")
        if self.n_individuals < 0 or self.n_images < 0:
            raise ValueError("counts must be >= 0")
        if self.n_individuals > 0 and self.n_images % self.n_individuals != 0:
            raise ValueError(
                f"{self.name}: n_images={self.n_images} not divisible by "
                f"n_individuals={self.n_individuals}"
            )
        if self.n_individuals > 0 and self.name not in INDIVIDUAL_SPECIES:
            raise ValueError(f"{self.name}: individuals allowed only for {INDIVIDUAL_SPECIES}")


def default_species_specs(
    individuals_per_species: int = 4, images_per_individual: int = 10
) -> Tuple[SpeciesSpec, ...]:
    n = individuals_per_species * images_per_individual
    return (
        SpeciesSpec("tiger", "stripes", individuals_per_species, n),
        SpeciesSpec("leopard", "spots", individuals_per_species, n),
        SpeciesSpec("chital", "checker", 0, n),
    )


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 96
    species_specs: Tuple[SpeciesSpec, ...] = field(default_factory=default_species_specs)
    n_negatives: int = 40
    night_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:  # _plant_patch would clip the animal to nothing
            raise ValueError(f"image_size must be >= 8 px, the least side of a planted animal, "
                             f"got {self.image_size}")
        if not 0.0 <= self.night_fraction <= 1.0:
            raise ValueError("night_fraction must lie in [0,1]")
        if self.n_negatives < 0:
            raise ValueError("n_negatives must be >= 0")


def _rng_for(*parts) -> np.random.Generator:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy=list(words)))


@functools.lru_cache(maxsize=4)
def _interpolation(size: int, cells: int):
    """Linear-interpolation grid of `size` points over `cells` knots: left
    knot, right knot and the weights 1 - t and t; read-only."""
    xs = np.linspace(0, cells - 1, size)
    i0 = np.clip(xs.astype(int), 0, cells - 2)
    t = xs - i0
    grid = (i0, i0 + 1, 1 - t, t)
    for a in grid:
        a.flags.writeable = False
    return grid


def _smooth_field(rng, size, cells=6):
    coarse = rng.normal(size=(cells, cells))
    i0, i1, s, t = _interpolation(size, cells)
    rows = coarse[i0] * s[:, None] + coarse[i1] * t[:, None]
    return rows[:, i0] * s[None, :] + rows[:, i1] * t[None, :]


def _background(rng, size):
    base = np.array([0.42, 0.45, 0.38]) + rng.uniform(-0.04, 0.04, size=3)
    img = np.empty((size, size, 3))
    for c in range(3):
        img[:, :, c] = base[c] + 0.05 * _smooth_field(rng, size)
    return img


def _add_clutter(rng, img, n_shapes):
    size = img.shape[0]
    for _ in range(n_shapes):
        w = int(rng.integers(size // 8, size // 3))
        h = int(rng.integers(size // 8, size // 3))
        x0 = int(rng.integers(0, max(1, size - w)))
        y0 = int(rng.integers(0, max(1, size - h)))
        tint = rng.uniform(-0.12, 0.12, size=3)
        img[y0 : y0 + h, x0 : x0 + w] += tint
    return img


def _vdc(n: int, base: int) -> float:
    v, denom = 0.0, 1.0
    while n:
        n, rem = divmod(n, base)
        denom *= base
        v += rem / denom
    return v


#: each species owns a disjoint red-channel band so species stay color
#: separable; individual tints spread over green/blue inside the band
_SPECIES_RED_BAND = {
    name: (0.06 + 0.09 * i, 0.14 + 0.09 * i)
    for i, name in enumerate(
        ("muntjac", "chital", "sambar", "elephant", "gaur", "dhole", "bear", "wild_pig", "tiger", "leopard")
    )
}


def _individual_tint(index: int, offset: np.ndarray, band) -> np.ndarray:
    # low-discrepancy points keep individuals of one species well separated
    lo, hi = band
    r = lo + (hi - lo) * ((_vdc(index + 1, 5) + offset[0]) % 1.0)
    g = 0.1 + 0.8 * ((_vdc(index + 1, 2) + offset[1]) % 1.0)
    b = 0.1 + 0.8 * ((_vdc(index + 1, 3) + offset[2]) % 1.0)
    return np.array([r, g, b])


def _render_stripes(sig, xs, ys):
    theta, freq, phase, duty = sig["theta"], sig["freq"], sig["phase"], sig["duty"]
    coord = xs * math.cos(theta) + ys * math.sin(theta)
    s = np.sin(2 * math.pi * (freq * coord / 64.0 + phase))
    return s < math.sin(math.pi * (duty - 0.5))  # True = dark stripe


def _render_spots(sig, xs, ys):
    spacing, radius, jx, jy = sig["spacing"], sig["radius"], sig["jx"], sig["jy"]
    gx = xs / spacing
    gy = ys / spacing
    # nearest lattice point with per-individual jitter (same for all cells)
    dx = (gx - np.floor(gx + 0.5) - jx) * spacing
    dy = (gy - np.floor(gy + 0.5) - jy) * spacing
    return dx * dx + dy * dy < radius * radius


def _render_checker(sig, xs, ys):
    cell, theta = sig["cell"], sig["theta"]
    u = (xs * math.cos(theta) + ys * math.sin(theta)) / cell
    v = (-xs * math.sin(theta) + ys * math.cos(theta)) / cell
    return (np.floor(u).astype(int) + np.floor(v).astype(int)) % 2 == 0


_RENDERERS = {"stripes": _render_stripes, "spots": _render_spots, "checker": _render_checker}


def _pattern_signature(family: str, rng_sig, tint: np.ndarray) -> dict:
    """Fixed per-individual pattern parameters."""
    sig = {"tint": tint}
    if family == "stripes":
        sig.update(
            theta=rng_sig.uniform(0, math.pi),
            freq=rng_sig.uniform(3.0, 9.0),
            phase=rng_sig.uniform(0, 1),
            duty=rng_sig.uniform(0.4, 0.55),
        )
    elif family == "spots":
        spacing = rng_sig.uniform(7.0, 16.0)
        sig.update(
            spacing=spacing,
            radius=spacing * rng_sig.uniform(0.2, 0.32),
            jx=rng_sig.uniform(-0.25, 0.25),
            jy=rng_sig.uniform(-0.25, 0.25),
        )
    else:
        sig.update(cell=rng_sig.uniform(5.0, 13.0), theta=rng_sig.uniform(0, math.pi / 2))
    return sig


def _snap8(v: int) -> int:
    return max(8, (v // 8) * 8)


def _plant_patch(rng, img, family, sig):
    size = img.shape[0]
    side = _snap8(int(rng.uniform(0.55, 0.8) * size))
    side = min(side, (size // 8) * 8)
    max_off = size - side
    x0 = (int(rng.integers(0, max_off + 1)) // 8) * 8
    y0 = (int(rng.integers(0, max_off + 1)) // 8) * 8
    ys, xs = np.mgrid[0:side, 0:side].astype(float)
    dark = _RENDERERS[family](sig, xs, ys)
    patch = np.where(dark[:, :, None], 0.3 * sig["tint"], sig["tint"])
    img[y0 : y0 + side, x0 : x0 + side] = patch
    return (x0, y0, x0 + side, y0 + side)


def _night_indices(n: int, fraction: float):
    return {i for i in range(n) if math.floor((i + 1) * fraction) > math.floor(i * fraction)}


def render_image(cfg: SynthConfig, record: ImageRecord):
    """(H x W x 3 pixels in [0,1], planted box x0,y0,x1,y1 half-open or None)
    of one record; a pure function of (cfg, record)."""
    rid, species, individual = record.id, record.species, record.individual
    rng = _rng_for(cfg.seed, "img", rid)
    img = _background(rng, cfg.image_size)
    box = None
    if species == "unclassified":
        img = _add_clutter(rng, img, int(rng.integers(3, 7)))
    else:
        img = _add_clutter(rng, img, int(rng.integers(0, 2)))
        spec = next(s for s in cfg.species_specs if s.name == species)
        sig_key = individual if individual is not None else rid
        rng_sig = _rng_for(cfg.seed, "sig", species, sig_key)
        offset = _rng_for(cfg.seed, "colors", species).uniform(0, 1, size=3)
        band = _SPECIES_RED_BAND[species]
        if individual is not None:
            tint = _individual_tint(int(individual.rsplit("_", 1)[1]), offset, band)
        else:
            u = rng_sig.uniform(0, 1, size=3)
            tint = np.array(
                [band[0] + (band[1] - band[0]) * u[0], 0.1 + 0.8 * u[1], 0.1 + 0.8 * u[2]]
            )
        sig = _pattern_signature(spec.family, rng_sig, tint)
        box = _plant_patch(rng, img, spec.family, sig)
    if record.illumination == "night":
        img *= 0.35
        img += rng.normal(0.0, 0.05, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img), box


class RecordMap(Mapping):
    """Read-only {record id: value} over manifest records: each access returns
    `fetch(record)`, made then, and the map keeps nothing of it."""

    def __init__(self, records, fetch):
        self._by_id = {r.id: r for r in records}
        self._fetch = fetch

    def __getitem__(self, rid):
        return self._fetch(self._by_id[rid])

    def __contains__(self, rid):
        return rid in self._by_id

    def __iter__(self):
        return iter(self._by_id)

    def __len__(self):
        return len(self._by_id)


def generate_corpus(cfg: SynthConfig, out_dir=None):
    """Build the corpus.  Returns (manifest, {id: pixels}, {id: planted box} of
    the positives), two `RecordMap`s: a pixel access renders the record, and a
    box access returns the box found when the record was last rendered, else
    renders it once and keeps the 4-tuple only.  When out_dir is given, also
    writes each record's PPM as it is rendered, then manifest.csv, there."""
    groups = []  # (species, individual number or None, images), in manifest order; negatives last
    for spec in cfg.species_specs:
        if spec.n_individuals > 0:
            groups += [(spec.name, f"{ind:02d}", spec.n_images // spec.n_individuals) for ind in range(spec.n_individuals)]
        else:
            groups.append((spec.name, None, spec.n_images))
    groups.append(("unclassified", None, cfg.n_negatives))
    records = []
    for species, ind, count in groups:
        nights = _night_indices(count, cfg.night_fraction)
        for i in range(count):
            record_id = f"{species}-{ind or 'xx'}-{i:03d}"
            records.append(ImageRecord(id=record_id, path=f"{record_id}.ppm", species=species,
                                       individual=f"{species}_{ind}" if ind else None,
                                       illumination="night" if i in nights else "day",
                                       width=cfg.image_size, height=cfg.image_size))

    manifest = Manifest(records=tuple(records))
    boxes = {}  # planted box of each positive rendered so far

    def pixels_of(record):
        px, box = render_image(cfg, record)
        if box is not None:
            boxes[record.id] = box
        return px

    def box_of(record):
        if record.id not in boxes:
            pixels_of(record)
        return boxes[record.id]

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in manifest:
            write_ppm(out_dir / r.path, pixels_of(r))
        save_manifest(manifest, out_dir / "manifest.csv")
    return manifest, RecordMap(manifest, pixels_of), RecordMap([r for r in manifest if r.has_animal], box_of)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Binary P6 portable pixel map, 8 bits per channel."""
    h, w = pixels.shape[:2]
    scaled = pixels * 255.0
    data = np.clip(np.round(scaled, out=scaled), 0, 255, out=scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


# Netpbm header separator: whitespace, or a `#` comment up to the end of its line
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def check_side(path, width: int, height: int, min_side: int) -> None:
    """The one rule for an image's least side: `min_side`, a conv net's receptive field, 2^layers."""
    if min(width, height) < min_side:
        raise ValueError(f"{path}: image is {width}x{height}, smaller than the network's receptive field of "
                         f"{min_side} px a side")


def read_ppm(path, min_side: int = 1) -> np.ndarray:
    """Binary P6 portable pixel map scaled to [0, 1]: maxval 1..65535, with
    2-byte big-endian samples above 255.  `min_side` is the least width and
    height accepted: a conv net's receptive field, 2^layers."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a P6 ppm" if data[:2] != b"P6" else f"{path}: malformed P6 header")
    w, h, maxval = (int(g) for g in header.groups())
    if w < 1 or h < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: bad width {w}, height {h} or maxval {maxval}")
    check_side(path, w, h, min_side)
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    need, have = w * h * 3 * dtype.itemsize, len(data) - header.end()
    if have < need:
        raise ValueError(f"{path}: raster has {have} bytes, expected {need}")
    pixels = np.frombuffer(data, dtype=dtype, count=w * h * 3, offset=header.end())
    return pixels.reshape(h, w, 3).astype(np.float64) / float(maxval)


def read_record(root, record: ImageRecord, min_side: int = 1) -> np.ndarray:
    """Read one record's PPM under a root directory; it must have the width
    and height the record gives, and no side below `min_side`."""
    path = Path(root) / record.path
    pixels = read_ppm(path, min_side)
    h, w = pixels.shape[:2]
    if (w, h) != (record.width, record.height):
        raise ValueError(f"{path}: image is {w}x{h}, manifest says {record.width}x{record.height}")
    return pixels


def manifest_pixels(root, manifest: Manifest, min_side: int) -> RecordMap:
    """{id: pixels} of a manifest's records, each read from under `root` on
    access (`read_record`).  Every record's width and height is checked
    against `min_side` first, so an image the manifest shows too small fails
    before any read; a raster the manifest cannot show wrong (truncated, or
    not the size it gives) fails when it is read."""
    for r in manifest:
        check_side(Path(root) / r.path, r.width, r.height, min_side)
    return RecordMap(manifest, lambda record: read_record(root, record, min_side))
