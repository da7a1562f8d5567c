"""Golden cross-surface identity: library == CLI == live service.

For a sample of algorithms, the canonical response for one
``(scenario, algorithm, params, seed)`` must be byte-identical across all
three public surfaces:

* the library facade ``repro.solve(...).canonical_json()``,
* the ``repro solve`` CLI subcommand's stdout,
* a live ``repro serve`` HTTP response body, computed, replayed from the
  result cache on disk, and replayed from the service's reply cache.

This is the acceptance criterion of the registry redesign: one dispatch
path, one rendering path, zero drift.  The CLI/HTTP helpers are imported
from ``scripts/cross_surface_identity.py`` — the same code the
``cross-surface-identity`` CI job runs against an out-of-process server —
so the in-repo test and the CI check can never drift apart.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import repro
from repro.service import ServiceConfig, start_in_background

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "cross_surface_identity", REPO_ROOT / "scripts" / "cross_surface_identity.py"
)
_script = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(_script)

#: (algorithm, params, seed) — small enough to afford solving three times.
SAMPLES = [
    ("mis", {"n": 36, "c": 0.35}, 5),
    ("matching", {"n": 40, "c": 0.4}, 1),
    ("set-cover-greedy", {"num_sets": 40, "num_elements": 20}, 2),
]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("cross-surface-cache"))
    with start_in_background(
        ServiceConfig(max_batch=8, batch_wait_ms=2.0, cache_dir=cache_dir)
    ) as handle:
        yield handle


def _served(server, body):
    """The body of each of the script's sends, checking its cache header."""
    url = f"http://127.0.0.1:{server.port}"
    payloads = []
    for send, expected in _script.SENDS:
        payload, cache = _script.http_solve(url, body)
        assert expected is None or cache == expected, f"{send} read {cache}"
        payloads.append(payload)
    return payloads


@pytest.mark.parametrize("algorithm,params,seed", SAMPLES)
def test_library_cli_and_service_are_byte_identical(server, algorithm, params, seed):
    result = repro.solve(algorithm, params=params, seed=seed)
    assert result.valid, "samples must certificate-check (identity still compared)"
    library = result.canonical_json()
    cli = _script.cli_solve(algorithm, None, params, seed)
    served = _served(server, {"algorithm": algorithm, "params": params, "seed": seed})
    assert cli == library, "CLI response differs from the library facade"
    assert served == [library] * 3, "service response differs from the library facade"


def test_cross_surface_identity_with_scenario(server):
    library = repro.solve("mis", "powerlaw-dense", seed=3).canonical_json()
    cli = _script.cli_solve("mis", "powerlaw-dense", None, 3)
    served = _served(server, {"algorithm": "mis", "scenario": "powerlaw-dense", "seed": 3})
    assert [cli] * 3 == served == [library] * 3
    assert json.loads(library)["scenario"] == "powerlaw-dense"
