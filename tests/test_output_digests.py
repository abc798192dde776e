"""Golden output bytes: the seven 64 px protocol trees, the `joint10` tree,
the `train` tree of models, heads and a mask, and the two manifest trees of
`tools/output_digest.py` (`fixture_trees`), run in process through
`cli.main` at `--jobs` 1 and 2, hash to the per-file SHA-256s in
tests/fixtures/output_digests.txt.

An intended output change regenerates that file in the same commit
(`python3 tools/output_digest.py src OUT --write`) and names the trees that
moved."""

import importlib.util
from pathlib import Path

import pytest

from camtrap import cli

_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def golden():
    """The fixture's versions header, and each tree's {file: SHA-256}."""
    header, *lines = digest.FIXTURE.read_text(encoding="utf-8").splitlines()
    trees = {}
    for line in lines:
        sha, name = line.split("  ", 1)
        *tree, path = name.split("/", 2)
        trees.setdefault("/".join(tree), {})[path] = sha
    return header.removeprefix("# "), trees


def moved_files(got, want):
    """Files whose digest differs, or that only one side has, in path order."""
    return sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))


@pytest.mark.parametrize("jobs", [1, 2])
def test_fixture_trees_have_golden_bytes(jobs, tmp_path, monkeypatch):
    versions, want = golden()
    assert versions == digest.versions(), (
        f"golden digests were computed with {versions}, this run has {digest.versions()}")

    def camtrap(*argv, cwd=tmp_path):
        monkeypatch.chdir(cwd)
        assert cli.main([str(a) for a in argv]) == 0, argv

    trees = digest.fixture_trees(tmp_path, jobs, camtrap)
    got = {tree.relative_to(tmp_path).as_posix(): digest.file_digests(tree) for tree in trees}
    assert sorted(got) == sorted(want)
    moved = {tree: moved_files(got[tree], want[tree]) for tree in want}
    assert not any(moved.values()), f"moved files at --jobs {jobs}: " + "; ".join(
        f"{tree}: {', '.join(files)}" for tree, files in moved.items() if files)


def test_moved_files_names_changed_added_and_missing():
    assert moved_files({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
