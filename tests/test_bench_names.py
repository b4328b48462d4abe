"""The benchmark's traced-function table still names real functions, and
the estimator reaches every estimation stage in it.

``perfbench/worker.py`` wraps every entry of its ``TRACED`` table by
``module.name``; a rename or move in the package would make every benchmark
op fail, and a stage the estimator reaches only through a private twin would
read 0 in every traced run.  The table is read with ``ast`` rather than by
importing the worker, which pins BLAS threads and edits ``sys.path`` on import.
"""

import ast
import collections
import importlib
import pathlib
import sys
import warnings

import pytest

from tmadfrc import refine

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


def test_estimate_targets_calls_every_traced_stage(monkeypatch, ref_cfg, ref_pattern, ref_frame):
    """One estimate of the reference frame calls each traced ``coarse.*`` and
    ``refine.*`` name, with each wrapped in every tmadfrc module namespace,
    as the benchmark's tracer rebinds it."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "tmadfrc"]
    stages = [name for name in traced_names() if name.split(".")[0] in ("coarse", "refine")]
    calls = collections.Counter()
    for dotted in stages:
        module, _, name = dotted.partition(".")
        function = getattr(importlib.import_module(f"tmadfrc.{module}"), name)

        def counting(*args, _dotted=dotted, _function=function, **kwargs):
            calls[_dotted] += 1
            return _function(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is function:
                    monkeypatch.setattr(mod, attr, counting)
    data, received = ref_frame
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the window-edge note
        refine.estimate_targets(received, data, ref_pattern, ref_cfg)
    assert [name for name in stages if not calls[name]] == []
