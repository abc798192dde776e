"""Digest camtrap's outputs, one SHA-256 per output tree, to compare two
checkouts byte for byte.

    python3 tools/output_digest.py SRC OUT [--jobs N] [--write]

SRC is the `src` directory of the checkout to run; OUT is a scratch
directory, emptied first, that receives every output tree.  The script runs
the CLI in child processes with PYTHONPATH=SRC:

- all seven protocols on one fixed 64 px config (segmentation, the
  individual sweep, two-value sweeps, a 0.4 night fraction, three seeds);
- `joint-individuals` on a 64 px config with 5 individuals per species, so
  that one head has C = 10 classes: more than 8 and not a multiple of 8,
  where numpy's pairwise sum of an innermost axis (8 running sums, then a
  tail) and an in-order class sum differ, so a change in the order the
  head step adds its classes can show;
- `train-detect`, `train-species`, `train-individual` (all individuals, and
  `--species tiger` alone) and `segment` on a synthesized 64 px corpus, and
  `train-individual` on one with 5 individuals per species, a C = 10 head,
  all into the `train` tree, so that the digests see model and head bytes;
- `volume` and `species` on the small config, reading the first corpus's
  PPMs through `--manifest` and `--images`, run from OUT with relative
  paths so that `config.json` does not record OUT;
- `species`, `individual` and `joint-individuals` on the default corpus.

Every `experiment` call gets `--jobs N`.  Environment variables such as
OPENBLAS_NUM_THREADS pass through to the children.  Run it on two checkouts
(or at two thread counts) and diff the printed lines.

`--write` also writes the golden digests, FIXTURE: one SHA-256 per file of
every tree but the default-corpus ones (`fixture_trees`), under a header
naming the numpy and BLAS versions.  The tier-1 test
`tests/test_output_digests.py` reruns those trees in process and compares.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

PROTOCOLS = ("volume", "proportion", "split", "illumination", "species", "individual", "joint-individuals")
HEAD_PROTOCOLS = ("species", "individual", "joint-individuals")
MANIFEST_PROTOCOLS = ("volume", "species")

SMALL_CONFIG = """\
image_size = 64
individuals = 2
images_per_individual = 6
n_negatives = 16
night_fraction = 0.4
n_seeds = 3
segment = true
sweep_individuals = true
fractions = 0.5, 1.0
train_proportions = 0.5, 1.0
split_ratios = 0.6, 0.8
head_epochs = 40
svm_epochs = 8
"""

JOINT10_CONFIG = """\
image_size = 64
individuals = 5
images_per_individual = 4
n_negatives = 8
n_seeds = 2
head_epochs = 30
"""

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "output_digests.txt"

SYNTH_ARGS = ["--seed", "11", "--individuals", "2", "--images-per-individual", "6",
              "--negatives", "8", "--image-size", "64"]
# 5 individuals per species: the C = 10 `train-individual` head
SYNTH10_ARGS = ["--seed", "12", "--individuals", "5", "--images-per-individual", "2",
                "--negatives", "0", "--image-size", "64"]


def file_digests(root: Path) -> dict:
    """Each file's SHA-256 by its path relative to `root`, in path order."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in root.rglob("*") if p.is_file())}


def tree_sha256(root: Path) -> str:
    """SHA-256 over each file's relative path and contents, in path order."""
    h = hashlib.sha256()
    for name, digest in file_digests(root).items():
        h.update(name.encode() + b"\0")
        h.update(bytes.fromhex(digest))
    return h.hexdigest()


def versions() -> str:
    """The numpy and BLAS that computed a tree: the golden digests' header."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; blas {blas['name']} {blas['version']}"


def fixture_trees(out: Path, jobs, camtrap) -> list:
    """Run the seven protocols on SMALL_CONFIG, `joint-individuals` on
    JOINT10_CONFIG, the `train` tree and the two manifest trees into OUT
    through `camtrap(*argv, cwd=None)`; their tree paths."""
    trees = []
    config = out / "small.cfg"
    config.write_text(SMALL_CONFIG)
    for protocol in PROTOCOLS:
        tree = out / "small" / protocol
        camtrap("experiment", protocol, "--config", config, "--jobs", jobs, "--out", tree)
        trees.append(tree)
    joint10 = out / "joint10.cfg"
    joint10.write_text(JOINT10_CONFIG)
    tree = out / "joint10" / "joint-individuals"
    camtrap("experiment", "joint-individuals", "--config", joint10, "--jobs", jobs, "--out", tree)
    trees.append(tree)

    corpus, corpus10, train = out / "corpus", out / "corpus10", out / "train"
    camtrap("synth", *SYNTH_ARGS, "--out", corpus)
    camtrap("synth", *SYNTH10_ARGS, "--out", corpus10)
    train.mkdir()
    data = ["--manifest", corpus / "manifest.csv", "--images", corpus]
    camtrap("train-detect", *data, "--out", train / "det.model", "--epochs", 20)
    camtrap("train-species", *data, "--out", train / "species.head", "--epochs", 60)
    camtrap("train-individual", *data, "--out", train / "individual.head", "--epochs", 60)
    camtrap("train-individual", *data, "--species", "tiger", "--out", train / "tiger.head", "--epochs", 60)
    camtrap("train-individual", "--manifest", corpus10 / "manifest.csv", "--images", corpus10,
            "--out", train / "individual10.head", "--epochs", 60)
    image = sorted(corpus.glob("tiger-*.ppm"))[0]
    camtrap("segment", "--image", image, "--detector", train / "det.model", "--out", train / "mask.pbm",
            "--patch-size", 8)
    trees.append(train)
    for protocol in MANIFEST_PROTOCOLS:
        tree = Path("manifest", protocol)
        camtrap("experiment", protocol, "--config", "small.cfg", "--manifest", "corpus/manifest.csv",
                "--images", "corpus", "--jobs", jobs, "--out", tree, cwd=out)
        trees.append(out / tree)
    return trees


def write_fixture(out: Path, trees) -> None:
    lines = [f"# {versions()}"]
    for tree in trees:
        name = tree.relative_to(out).as_posix()
        lines += [f"{digest}  {name}/{path}" for path, digest in file_digests(tree).items()]
    FIXTURE.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the checkout to run")
    parser.add_argument("out", help="scratch directory for the output trees (emptied first)")
    parser.add_argument("--jobs", type=int, default=1, help="passed to every experiment call")
    parser.add_argument("--write", action="store_true", help=f"also write the golden digests to {FIXTURE}")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}

    def camtrap(*argv, cwd=None):
        done = subprocess.run([sys.executable, "-m", "camtrap.cli", *map(str, argv)], env=env, cwd=cwd,
                              capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"camtrap {' '.join(map(str, argv))} exited {done.returncode}:\n{done.stderr}")

    trees = fixture_trees(out, args.jobs, camtrap)
    if args.write:
        write_fixture(out, trees)
    for protocol in HEAD_PROTOCOLS:
        tree = out / "default" / protocol
        camtrap("experiment", protocol, "--jobs", args.jobs, "--out", tree)
        trees.append(tree)

    for tree in trees:
        print(f"{tree_sha256(tree)}  {tree.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
