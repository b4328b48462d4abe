"""Every imported name is used by the module that imports it, and every
public name of the package, every field of its stage results and every
module-level function and class of its modules has a reader.

No linter ships with the package, so these scans are the guard.
``__init__.py`` is skipped: it imports names only to re-export them.
A last check holds the package's import to a budget of modules.
"""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
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


def unread_definitions(sources: dict, perfbench: list) -> list:
    """``module.name`` for every module-level function and class of the
    package ``sources`` (module name -> source) that nothing reads outside
    its own definition.  A name is read when its module loads it, when
    another package module imports it from that module or names it as
    ``module.name``, or when a ``perfbench`` source names it as
    ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attribute_reads = {
        (node.value.id, node.attr)
        for tree in [*trees.values(), *(ast.parse(source) for source in perfbench)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    imported = {
        (node.module.rpartition(".")[2], alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    unread = []
    for module, tree in trees.items():
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for definition in (node for node in tree.body if isinstance(node, kinds)):
            own = {id(node) for node in ast.walk(definition)}
            loaded = any(
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id == definition.name
                and id(node) not in own
                for node in ast.walk(tree)
            )
            key = (module, definition.name)
            if not (loaded or key in imported or key in attribute_reads):
                unread.append(f"{module}.{definition.name}")
    return unread


def test_scan_finds_an_unread_definition():
    sources = {
        "a": "def f(): return f()\ndef g(): pass\ndef h(): pass\nclass C: pass\ng()\n",
        "b": "from .a import h\n",
    }
    assert unread_definitions(sources, []) == ["a.f", "a.C"]
    assert unread_definitions(sources, ["x = a.f"]) == ["a.C"]


def test_every_package_definition_has_a_reader():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in (ROOT / "src" / "tmadfrc").glob("*.py")
        if path.name != "__init__.py"
    }
    perfbench = [path.read_text(encoding="utf-8") for path in READERS if path.parent.name == "perfbench"]
    assert unread_definitions(sources, perfbench) == []


# Modules, besides NumPy's, the package's and private ``_*`` ones, that
# importing ``tmadfrc`` loads into an interpreter that has imported NumPy.
# Every program of the package pays for them at start-up (the benchmark's
# ``setup_s``), so a new one, such as ``concurrent.futures`` or ``queue`` for
# a thread pool, has to be added here on purpose.
IMPORT_BUDGET = {
    "base64",
    "copy",
    "cython_runtime",
    "dataclasses",
    "hashlib",
    "hmac",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
    "secrets",
}


def test_package_import_stays_within_its_module_budget():
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import tmadfrc\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    outside = {
        name
        for name in loaded
        if not name.startswith(("numpy.", "_")) and name.partition(".")[0] != "tmadfrc"
    }
    assert sorted(outside - IMPORT_BUDGET) == []
