"""Source hygiene, stdlib only: no module-level import of the package or
of its tests goes unused, and no module-level function or class of the
package is named only by its own definition."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "camtrap").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# every file that may name a package definition
READERS = sorted(p for d in ("src", "tests", "perfbench", "tools") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: f"tests/{p.name}")
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_and_used_names():
    src = "import os\nimport numpy as np\nfrom typing import List, Dict\nx: List = np.zeros(1)\n"
    assert unused_imports(src) == [(1, "os"), (3, "Dict")]


def definitions(source: str):
    """(line, name) of each module-level function and class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.lineno, node.name) for node in ast.parse(source).body if isinstance(node, defs)]


def names_read(source: str):
    """Every name the source reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_no_dead_module_definitions():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    # console scripts, `name = "module:function"`, name their functions too
    read |= set(re.findall(r'=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    dead = [f"{path.name}:{line} {name}" for path in SOURCES
            for line, name in definitions(path.read_text(encoding="utf-8")) if name not in read]
    assert dead == []


def test_dead_definition_detector_sees_reads():
    src = "import m\nclass A: pass\ndef f(): return m.g\ndef h(): return A\n"
    assert definitions(src) == [(2, "A"), (3, "f"), (4, "h")]
    assert {"A", "g", "m"} <= names_read(src) and not {"f", "h"} & names_read(src)
