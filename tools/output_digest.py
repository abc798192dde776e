"""Digest camtrap's outputs, one SHA-256 per output tree, to compare two
checkouts byte for byte.

    python3 tools/output_digest.py SRC OUT [--jobs N]

SRC is the `src` directory of the checkout to run; OUT is a scratch
directory, emptied first, that receives every output tree.  The script runs
the CLI in child processes with PYTHONPATH=SRC:

- all seven protocols on one fixed 64 px config (segmentation, the
  individual sweep, two-value sweeps, a 0.4 night fraction, three seeds);
- `species`, `individual` and `joint-individuals` on the default corpus;
- `joint-individuals` on a 64 px config with 5 individuals per species, so
  that one head has C = 10 classes: more than 8 and not a multiple of 8,
  the case where `wsddn._class_sum` adds a tail after its 8 running sums;
- `train-detect`, `train-species`, `train-individual` (all individuals, and
  `--species tiger` alone) and `segment` on a synthesized 64 px corpus;
- `volume` and `species` on the same config, reading that corpus's PPMs
  through `--manifest` and `--images`, run from OUT with relative paths so
  that `config.json` does not record OUT.

Every `experiment` call gets `--jobs N`.  Environment variables such as
OPENBLAS_NUM_THREADS pass through to the children.  Run it on two checkouts
(or at two thread counts) and diff the printed lines.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

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

SYNTH_ARGS = ["--seed", "11", "--individuals", "2", "--images-per-individual", "6",
              "--negatives", "8", "--image-size", "64"]


def tree_sha256(root: Path) -> str:
    """SHA-256 over each file's relative path and contents, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the checkout to run")
    parser.add_argument("out", help="scratch directory for the output trees (emptied first)")
    parser.add_argument("--jobs", type=int, default=1, help="passed to every experiment call")
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

    trees = []
    config = out / "small.cfg"
    config.write_text(SMALL_CONFIG)
    for protocol in PROTOCOLS:
        tree = out / "small" / protocol
        camtrap("experiment", protocol, "--config", config, "--jobs", args.jobs, "--out", tree)
        trees.append(tree)
    for protocol in HEAD_PROTOCOLS:
        tree = out / "default" / protocol
        camtrap("experiment", protocol, "--jobs", args.jobs, "--out", tree)
        trees.append(tree)
    joint10 = out / "joint10.cfg"
    joint10.write_text(JOINT10_CONFIG)
    tree = out / "joint10" / "joint-individuals"
    camtrap("experiment", "joint-individuals", "--config", joint10, "--jobs", args.jobs, "--out", tree)
    trees.append(tree)

    corpus, train = out / "corpus", out / "train"
    camtrap("synth", *SYNTH_ARGS, "--out", corpus)
    train.mkdir()
    data = ["--manifest", corpus / "manifest.csv", "--images", corpus]
    camtrap("train-detect", *data, "--out", train / "det.model", "--epochs", 20)
    camtrap("train-species", *data, "--out", train / "species.head", "--epochs", 60)
    camtrap("train-individual", *data, "--out", train / "individual.head", "--epochs", 60)
    camtrap("train-individual", *data, "--species", "tiger", "--out", train / "tiger.head", "--epochs", 60)
    image = sorted(corpus.glob("tiger-*.ppm"))[0]
    camtrap("segment", "--image", image, "--detector", train / "det.model", "--out", train / "mask.pbm",
            "--patch-size", 8)
    trees.append(train)
    for protocol in MANIFEST_PROTOCOLS:
        tree = Path("manifest", protocol)
        camtrap("experiment", protocol, "--config", config.name, "--manifest", "corpus/manifest.csv",
                "--images", "corpus", "--jobs", args.jobs, "--out", tree, cwd=out)
        trees.append(out / tree)

    for tree in trees:
        print(f"{tree_sha256(tree)}  {tree.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
