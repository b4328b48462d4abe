"""The benchmark's traced-function table still names real functions.

``perfbench/worker.py`` wraps every entry of its ``TRACED`` table by
``module.name``; a rename or move in the package would make every benchmark
op fail.  The table is read with ``ast`` rather than by importing the worker,
which pins BLAS threads and edits ``sys.path`` on import.
"""

import ast
import importlib
import pathlib

import pytest

WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def traced_names() -> list:
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"no TRACED table in {WORKER}")


def test_traced_table_is_not_empty():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("dotted", traced_names())
def test_traced_name_resolves(dotted):
    module, _, name = dotted.partition(".")
    assert callable(getattr(importlib.import_module(f"tmadfrc.{module}"), name))
