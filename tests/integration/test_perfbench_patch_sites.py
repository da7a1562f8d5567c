"""The traced benchmark's patch sites exist in the program.

A traced benchmark run (``perfbench/run.py --trace 1``) times each layer by
swapping attributes for wrappers: ``perfbench/fig1.py`` wraps the CLI, the
serial backend, and the instance builders, drivers, baselines and
certificates that :mod:`repro.experiments.figure1` imports; and
``perfbench/spans.py`` (``patch_solver_layers``, the set the ``mpc``
workload installs) wraps the kernels at each driver module that imports
them, ``CoverageCounter`` and the ``MPCContext`` round methods.  All of it
is by attribute name, so a rename under ``src/`` would make a traced run
fail with ``AttributeError``.  This test installs every patch the traced
``fig1`` run installs, restores them, and checks that the program is left
as it was.  ``perfbench/svc_launcher.py`` wraps the service's layers in
the server subprocess of a traced ``svc`` run; its patch sites are read
from its source.  The benchmark files are only read.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import repro.cli
import repro.experiments.figure1 as figure1

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/fig1.py`` and ``perfbench/spans.py``, imported as the benchmark does."""
    names = ("fig1", "spans", "common")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fig1 = importlib.import_module("fig1")
    spans = importlib.import_module("spans")
    yield fig1, spans
    for name in names:
        sys.modules.pop(name, None)


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_fig1_patches_install_and_restore(perfbench):
    fig1, spans = perfbench
    namespace = dict(vars(figure1))
    tracer = spans.Tracer()
    fig1._install(tracer, repro.cli, {"rounds": 0.0, "words": 0.0})
    try:
        saved = list(tracer._saved)
        for owner, attr, original in saved:
            assert _current(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.restore()

    patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in saved}
    kernel_sites = {
        (module, fn) for module, fns in spans.KERNEL_SITES.items() for fn in fns
    }
    assert kernel_sites <= patched
    assert {("MPCContext", m) for m in spans.ROUND_METHODS} <= patched
    assert {("CoverageCounter", m) for m in spans.COVERAGE_METHODS} <= patched
    for name in fig1._INSTANCE + fig1._DRIVERS + fig1._CERTIFICATES + list(fig1._BASELINES):
        assert ("repro.experiments.figure1", name) in patched

    for owner, attr, original in saved:
        assert _current(owner, attr) is original, f"{attr} was not restored"
    assert vars(figure1).keys() == namespace.keys()
    assert all(vars(figure1)[name] is value for name, value in namespace.items())


def _launcher_patch_sites() -> list[tuple[object, str]]:
    """``(owner, attribute)`` of every ``tracer.patch`` in the svc launcher.

    Owners are resolved through the imports in the launcher's ``main``.
    """
    tree = ast.parse((PERFBENCH / "svc_launcher.py").read_text(encoding="utf-8"))
    [main] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    owners: dict[str, object] = {}
    sites = []
    for node in ast.walk(main):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    owners[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(module, alias.name)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
        ):
            owner, attr = node.args[:2]
            sites.append((owners[owner.id], attr.value))
    return sites


def test_traced_svc_patch_sites_exist():
    sites = _launcher_patch_sites()
    named = {(getattr(owner, "__name__", owner), attr) for owner, attr in sites}
    assert named >= {
        ("repro.service.server", "parse_solve_request"),
        ("repro.service.server", "render_response"),
        ("repro.service.batcher", "run_sweep"),
        ("repro.backends.batch", "execute_point"),
        ("ResultCache", "load"),
        ("ResultCache", "store"),
    }
    for owner, attr in sites:
        assert callable(getattr(owner, attr, None)), f"{attr} is gone from {owner}"
