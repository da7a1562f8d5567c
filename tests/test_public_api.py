"""Tests for the top-level public API surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


def _run_python(code: str) -> bytes:
    """Stdout of ``code`` run by a fresh interpreter that imports this checkout's repro."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout


class TestApiSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_import_leaves_networkx_and_scipy_unloaded(self):
        # The LP baselines import scipy on first use and nothing imports
        # networkx; the package, CLI and service must not pay for either at
        # import time.
        code = (
            "import sys, repro, repro.cli, repro.service; "
            "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))"
        )
        assert _run_python(code).decode().strip() == "[]"

    def test_exact_matching_needs_no_networkx(self):
        # networkx is a test oracle only: with it unimportable, the exact
        # matching column comes out byte for byte the same.
        code = (
            "import sys\n"
            "class BlockNetworkx:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'networkx':\n"
            "            raise ImportError('networkx is blocked')\n"
            "sys.meta_path.insert(0, BlockNetworkx())\n"
            "import repro\n"
            "result = repro.solve('fig1-matching', params={'n': 60}, seed=3)\n"
            "assert 'optimal_weight' in result.records[0].metrics\n"
            "sys.stdout.buffer.write(result.canonical_json())\n"
        )
        unblocked = repro.solve("fig1-matching", params={"n": 60}, seed=3).canonical_json()
        assert _run_python(code) == unblocked

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.experiments
        import repro.graphs
        import repro.mapreduce
        import repro.setcover

        assert repro.core.local_ratio is not None
        assert repro.core.hungry_greedy is not None
        assert repro.core.colouring is not None

    def test_docstring_quickstart_executes(self):
        rng = np.random.default_rng(0)
        graph = repro.densified_graph(100, 0.4, rng, weights="uniform")
        result, metrics = repro.mpc_weighted_matching(graph, mu=0.25, rng=rng)
        assert repro.is_matching(graph, result.edge_ids)
        assert metrics.num_rounds > 0 and result.weight > 0

    def test_results_are_exposed(self):
        assert repro.MatchingResult([], 0.0).weight == 0.0
        assert repro.SetCoverResult([], 0.0).num_iterations == 0
        assert repro.IterationStats(1, 2, 3, 4).alive == 2

    def test_exception_types_exposed_via_mapreduce(self):
        from repro.mapreduce import AlgorithmFailureError, MemoryExceededError, ReproError

        assert issubclass(MemoryExceededError, ReproError)
        assert issubclass(AlgorithmFailureError, ReproError)


class TestColouringResultHelpers:
    def test_num_colours_and_array(self):
        result = repro.ColouringResult({0: (0, 1), 1: (0, 0), 2: (1, 0)}, num_groups=2)
        assert result.num_colours == 3
        arr = result.as_array(3)
        assert sorted(arr.tolist()) == [0, 1, 2]

    def test_independent_set_result_size(self):
        assert repro.IndependentSetResult([1, 2, 3]).size == 3
