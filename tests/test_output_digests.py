"""Golden output bytes: `tools/output_digest.py`'s `fixture_trees`, rerun at
`--jobs` 1 and 2, pass its `check` against tests/fixtures/output_digests.txt,
which an intended output change regenerates with the tool's `--write`."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixture_trees_have_golden_bytes(jobs, tmp_path):
    trees = digest.fixture_trees(tmp_path, jobs)
    problems = digest.check(tmp_path, trees, left_out=[f"default/{p}" for p in digest.HEAD_PROTOCOLS])
    assert not problems, f"at --jobs {jobs}: " + "; ".join(problems)


def test_moved_files_names_changed_added_and_missing():
    assert digest.moved_files({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]


def test_check_names_a_one_ulp_change_a_tree_not_run_and_another_numpy(tmp_path):
    out, fixture = tmp_path / "out", tmp_path / "digests.txt"
    trees = [out / "small" / "volume", out / "train"]
    for tree in trees:
        tree.mkdir(parents=True)
        for name in ("trials.csv", "aggregate.csv"):
            (tree / name).write_text(f"seed,ap\n0,{0.1!r}\n")
    digest.write_fixture(out, trees, fixture)
    assert digest.check(out, trees, fixture) == []
    (trees[0] / "trials.csv").write_text(f"seed,ap\n0,{float(np.nextafter(0.1, 1.0))!r}\n")
    assert digest.check(out, trees, fixture) == ["small/volume: trials.csv"]
    assert digest.check(out, trees[:1], fixture) == ["small/volume: trials.csv",
                                                     "not run: train/aggregate.csv, train/trials.csv"]
    assert digest.check(out, trees[:1], fixture, left_out=["train"]) == ["small/volume: trials.csv"]
    fixture.write_text(fixture.read_text().replace(f"numpy {np.__version__};", "numpy 1.0.0;"))
    versions, moved = digest.check(out, trees, fixture)
    assert "numpy 1.0.0;" in versions and f"numpy {np.__version__};" in versions
    assert moved == "small/volume: trials.csv"
