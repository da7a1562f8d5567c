"""The MPC substrate is the bottom layer: it imports nothing above it.

``repro.mapreduce`` is what every driver charges its rounds to, and the
sweep, service and distributed layers sit on top of it.  An import from
one of them back into the substrate would make the bottom of the layer
map depend on its top.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.mapreduce

PACKAGE = Path(repro.mapreduce.__file__).parent
ABOVE = (
    "repro.backends",
    "repro.distributed",
    "repro.experiments",
    "repro.registry",
    "repro.service",
)


def imported_names(path: Path) -> set[str]:
    """Every module (or module attribute) ``path`` imports, function bodies included."""
    package = ["repro", "mapreduce"]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_mapreduce_imports_no_layer_above_it():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    upward = {
        path.name: sorted(
            name
            for name in imported_names(path)
            if any(name == layer or name.startswith(layer + ".") for layer in ABOVE)
        )
        for path in modules
    }
    assert {name: found for name, found in upward.items() if found} == {}
