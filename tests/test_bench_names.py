"""The benchmark's traced-function table still names real functions, every
other package name and keyword the benchmark uses still exists, and the
estimator reaches every estimation stage in the table.

``perfbench/worker.py`` wraps every entry of its ``TRACED`` table by
``module.name``; a rename or move in the package would make every benchmark
op fail, and a stage the estimator reaches only through a private twin would
read 0 in every traced run.  The same holds for any ``module.name`` the worker
reads and any keyword it passes to one.  The worker is read with ``ast``
rather than imported, because it pins BLAS threads and edits ``sys.path`` on
import.
"""

import ast
import collections
import importlib
import inspect
import pathlib
import sys
import warnings

import pytest

from tmadfrc import refine

WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def worker_tree() -> ast.Module:
    return ast.parse(WORKER.read_text(encoding="utf-8"))


def traced_names() -> list:
    for node in worker_tree().body:
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


def package_modules(tree) -> dict:
    """Local name -> tmadfrc module of each ``import tmadfrc`` and
    ``from tmadfrc import module`` in the worker."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tmadfrc":
            modules.update({a.asname or a.name: f"tmadfrc.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name == "tmadfrc"})
    return modules


def package_reads() -> dict:
    """``module.name`` -> the keywords the worker passes when it calls it, for
    every attribute the worker reads from a tmadfrc module."""
    tree = worker_tree()
    modules = package_modules(tree)

    def dotted(node):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            return f"{modules[node.value.id]}:{node.attr}"
        return None

    reads = {}
    for node in ast.walk(tree):
        if dotted(node):
            reads.setdefault(dotted(node), set())
        if isinstance(node, ast.Call) and dotted(node.func):
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            reads.setdefault(dotted(node.func), set()).update(keywords)
    return reads


def test_worker_reads_package_modules():
    assert {"tmadfrc.refine:estimate_targets", "tmadfrc.refine:RefineOptions"} <= set(
        package_reads()
    )


@pytest.mark.parametrize("read", sorted(package_reads().items()), ids=lambda r: r[0])
def test_worker_package_read_resolves(read):
    """Each ``module.name`` the worker reads exists, and a callable accepts
    every keyword the worker passes it."""
    dotted, keywords = read
    module, _, name = dotted.partition(":")
    value = getattr(importlib.import_module(module), name)
    if keywords:
        parameters = inspect.signature(value).parameters
        assert keywords <= set(parameters), f"{dotted} takes no {keywords - set(parameters)}"


def test_worker_refine_options_have_velocity_points():
    # the frame workload sizes its velocity acceptance band from this field
    assert refine.RefineOptions(fit_gains=True).velocity_points >= 1


def test_estimate_targets_calls_every_traced_stage(monkeypatch, ref_cfg, ref_pattern, ref_frame):
    """One estimate of the reference frame calls each traced ``coarse.*``,
    ``refine.*``, ``transforms.*`` and ``tma.*`` name, with each wrapped in
    every tmadfrc module namespace, as the benchmark's tracer rebinds it.  A
    stage that calls ``np.fft`` or a scrambler directly fails here instead of
    reading 0 in every traced run."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "tmadfrc"]
    families = ("coarse", "refine", "transforms", "tma")
    stages = [name for name in traced_names() if name.split(".")[0] in families]
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
        warnings.filterwarnings("ignore", r"refined \w+ hit the edge", RuntimeWarning)
        refine.estimate_targets(received, data, ref_pattern, ref_cfg)
    assert [name for name in stages if not calls[name]] == []
