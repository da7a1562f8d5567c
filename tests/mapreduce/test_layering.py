"""The MPC substrate's place in the layer map, checked from the imports.

``repro.mapreduce`` is what every driver charges its rounds to, and the
sweep, service and distributed layers sit on top of it.  An import from
one of them back into the substrate would make the bottom of the layer
map depend on its top.

Below it sit ``kernels/``, ``graphs/``, ``setcover/`` and ``datasets/``.
They import one name from the substrate, in the two exceptions
docs/ARCHITECTURE.md names: the set cover instance and the dataset
ingester raise ``InfeasibleInstanceError``.  Any other import into the
substrate from below fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent
ABOVE = (
    "repro.backends",
    "repro.distributed",
    "repro.experiments",
    "repro.registry",
    "repro.service",
)
BELOW = ("kernels", "graphs", "setcover", "datasets")

#: The upward imports into ``repro.mapreduce`` from the layers below it.
UPWARD_EXCEPTIONS = {
    "setcover/instance.py": ["repro.mapreduce.exceptions.InfeasibleInstanceError"],
    "datasets/ingest.py": ["repro.mapreduce.exceptions.InfeasibleInstanceError"],
}


def imports_into(path: Path, layers: tuple[str, ...]) -> list[str]:
    """What ``path`` imports from ``layers`` (function bodies included): a
    module as ``a.b``, a name from one as ``a.b.name``."""
    package = ["repro", *path.parent.relative_to(SOURCE).parts]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return sorted(
        name
        for name in names
        if any(name == layer or name.startswith(layer + ".") for layer in layers)
    )


def test_mapreduce_imports_no_layer_above_it():
    modules = sorted((SOURCE / "mapreduce").rglob("*.py"))
    assert modules
    upward = {path.name: imports_into(path, ABOVE) for path in modules}
    assert {name: found for name, found in upward.items() if found} == {}


def test_lower_layers_import_only_the_named_exceptions_from_mapreduce():
    modules = sorted(path for layer in BELOW for path in (SOURCE / layer).rglob("*.py"))
    assert modules
    upward = {
        path.relative_to(SOURCE).as_posix(): imports_into(path, ("repro.mapreduce",))
        for path in modules
    }
    assert {name: found for name, found in upward.items() if found} == UPWARD_EXCEPTIONS
