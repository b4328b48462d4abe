"""Every imported name is used by the module that imports it, and every
public name of the package and every field of its stage results has a
reader.

No linter ships with the package, so these scans are the guard.
``__init__.py`` is skipped: it imports names only to re-export them.
"""

import ast
import dataclasses
import pathlib
import types

import pytest

import tmadfrc
from tmadfrc.coarse import DescrambleResult
from tmadfrc.refine import CombinationFit

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "tmadfrc", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)
# The package's own modules and the benchmark: the readers a name or a field
# needs besides the tests.
READERS = [
    *(path for path in MODULES if path.parent.name == "tmadfrc"),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def unused_imports(source: str) -> list:
    """Names bound by an import statement in ``source`` that no other
    expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(source: str) -> set:
    """Every name that ``source`` loads and every attribute it names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_scan_finds_names_read():
    assert names_read("x = a.b(c)\ndef d(e): return f\n") == {"a", "b", "c", "f"}


def test_every_public_name_has_a_reader():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in READERS))
    public = {
        name
        for name in tmadfrc.__all__
        if not isinstance(getattr(tmadfrc, name), types.ModuleType)
    }
    assert sorted(public - read) == []


def attributes_read(source: str) -> set:
    """Every attribute that ``source`` loads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_scan_finds_attributes_read():
    assert attributes_read("a.b = c.d\ne = f.g.h\n") == {"d", "g", "h"}


RESULTS = (
    CombinationFit,
    tmadfrc.BinPipeline,
    tmadfrc.CoarseResult,
    DescrambleResult,
    tmadfrc.Frame,
)


def test_every_result_field_has_a_reader():
    read = set().union(*(attributes_read(path.read_text(encoding="utf-8")) for path in READERS))
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in RESULTS
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []
