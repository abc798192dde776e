"""Check camtrap's 14 output trees byte for byte against the golden digests.

    python3 tools/output_digest.py SRC OUT [--jobs N] [--write]

Runs SRC's CLI in process into OUT, emptied first: the `fixture_trees` (the
seven protocols on SMALL_CONFIG; `joint-individuals` on JOINT10_CONFIG, whose
C = 10 heads pass numpy's 8-term pairwise blocks, so that a change in the
order the head step adds its classes shows; the `train` tree of models, heads
(one with C = 10) and a mask; `volume` and `species` through `--manifest`),
then `species`, `individual` and `joint-individuals` on the default corpus.
Every `experiment` call gets `--jobs N`; OPENBLAS_NUM_THREADS and the like apply.

Exits 0 silently when every file's SHA-256 matches FIXTURE, else 1, naming
each moved tree and its files, FIXTURE's files that no run made, and both
numpy/BLAS versions when FIXTURE's header differs.  `--write` writes FIXTURE
instead.  The tier-1 test `tests/test_output_digests.py` reruns the
`fixture_trees` alone.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shutil
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


def versions() -> str:
    """The numpy and BLAS that computed a tree: the golden digests' header."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; blas {blas['name']} {blas['version']}"


def camtrap(*argv, cwd=None) -> None:
    """Run `camtrap ARGV` through `cli.main` in `cwd`, its stdout dropped,
    then return to the working directory it was called from."""
    from camtrap import cli  # imported here: `main` puts SRC first on sys.path

    here = os.getcwd()
    os.chdir(cwd or here)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    finally:
        os.chdir(here)
    if code:
        sys.exit(f"camtrap {' '.join(map(str, argv))} exited {code}")


def fixture_trees(out: Path, jobs) -> list:
    """Run the seven protocols on SMALL_CONFIG, `joint-individuals` on
    JOINT10_CONFIG, the `train` tree and the two manifest trees into OUT;
    their tree paths.  All but the default-corpus trees."""
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
    for protocol in MANIFEST_PROTOCOLS:  # relative paths from OUT: config.json does not record OUT
        tree = Path("manifest", protocol)
        camtrap("experiment", protocol, "--config", "small.cfg", "--manifest", "corpus/manifest.csv",
                "--images", "corpus", "--jobs", jobs, "--out", tree, cwd=out)
        trees.append(out / tree)
    return trees


def moved_files(got: dict, want: dict) -> list:
    """Files whose digest differs, or that only one side has, in path order."""
    return sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))


def check(out: Path, trees, fixture: Path = FIXTURE, left_out=()) -> list:
    """How the trees under OUT differ from `fixture`: both versions if its
    header is not this run's, each moved tree's moved files, and the files of
    fixture trees neither run nor named in `left_out`.  Empty when all match."""
    header, *lines = fixture.read_text(encoding="utf-8").splitlines()
    golden = dict(line.split("  ", 1)[::-1] for line in lines)  # {tree/file: SHA-256}
    problems = []
    if header != f"# {versions()}":
        problems.append(f"golden digests were computed with {header.removeprefix('# ')}, this run has {versions()}")
    names = [tree.relative_to(out).as_posix() for tree in trees]
    for name, tree in zip(names, trees):
        want = {path.removeprefix(name + "/"): sha for path, sha in golden.items() if path.startswith(name + "/")}
        moved = moved_files(file_digests(tree), want)
        if moved:
            problems.append(f"{name}: {', '.join(moved)}")
    unrun = [path for path in golden if not path.startswith(tuple(f"{name}/" for name in [*names, *left_out]))]
    if unrun:
        problems.append(f"not run: {', '.join(unrun)}")
    return problems


def write_fixture(out: Path, trees, fixture: Path = FIXTURE) -> None:
    lines = [f"# {versions()}"]
    for tree in trees:
        name = tree.relative_to(out).as_posix()
        lines += [f"{digest}  {name}/{path}" for path, digest in file_digests(tree).items()]
    fixture.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the checkout to run")
    parser.add_argument("out", help="scratch directory for the output trees (emptied first)")
    parser.add_argument("--jobs", type=int, default=1, help="passed to every experiment call")
    parser.add_argument("--write", action="store_true", help=f"write the golden digests to {FIXTURE}, not check them")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    trees = fixture_trees(out, args.jobs)
    for protocol in HEAD_PROTOCOLS:
        tree = out / "default" / protocol
        camtrap("experiment", protocol, "--jobs", args.jobs, "--out", tree)
        trees.append(tree)
    if args.write:
        write_fixture(out, trees)
        return 0
    problems = check(out, trees)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
