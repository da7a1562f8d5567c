"""Tests for the solve-request protocol: parsing, validation, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import execute_point
from repro.datasets import save_dataset
from repro.graphs import Graph
from repro.registry import experiment_names, iter_algorithms
from repro.service import (
    ServiceError,
    parse_solve_request,
    render_response,
    request_point,
    request_signature,
    resolve_algorithm,
    solve_direct,
)

#: A fast request every test can afford to actually solve.
FAST = {"algorithm": "mis", "params": {"n": 40, "c": 0.35}, "seed": 5}


class TestResolveAlgorithm:
    def test_every_alias_resolves_to_a_figure1_row(self):
        for spec in iter_algorithms():
            for alias in (spec.name, *spec.aliases):
                assert resolve_algorithm(alias) == spec.experiment
            assert spec.experiment in experiment_names()

    def test_raw_fig1_names_accepted(self):
        assert resolve_algorithm("fig1-matching") == "fig1-matching"

    def test_unknown_algorithm_is_a_400(self):
        with pytest.raises(ServiceError) as err:
            resolve_algorithm("simplex")
        assert err.value.status == 400

    def test_unknown_algorithm_error_lists_each_name_once(self):
        # Regression: the old message concatenated the two dispatch
        # surfaces' name lists; the registry lists every accepted name
        # (canonical or alias) exactly once, sorted.
        with pytest.raises(ServiceError) as err:
            resolve_algorithm("simplex")
        message = str(err.value)
        assert message.count("'fig1-matching'") == 1
        assert message.count("'fig1-mis'") == 1


class TestParseSolveRequest:
    def test_accepts_bytes_str_and_mapping(self):
        for payload in (FAST, json.dumps(FAST), json.dumps(FAST).encode()):
            request = parse_solve_request(payload)
            assert request.experiment == "fig1-mis"
            assert request.seed == 5
            assert request.params == {"n": 40, "c": 0.35}

    def test_defaults(self):
        request = parse_solve_request({"algorithm": "matching"})
        assert (request.seed, request.trials, request.scenario) == (0, 1, None)
        assert request.params == {}

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b"[1, 2]",
            {},  # missing algorithm
            {"algorithm": 7},
            {"algorithm": "mis", "seed": "seven"},
            {"algorithm": "mis", "seed": True},
            {"algorithm": "mis", "seed": -1},
            {"algorithm": "mis", "trials": 0},
            {"algorithm": "mis", "trials": 1.5},
            {"algorithm": "mis", "params": [1]},
            {"algorithm": "mis", "params": []},
            {"algorithm": "mis", "params": False},
            {"algorithm": "mis", "params": {"not_a_param": 1}},
            {"algorithm": "mis", "bogus_field": 1},
            {"algorithm": "mis", "scenario": ""},
            {"algorithm": "mis", "scenario": "no-such-scenario"},
            {"algorithm": "mis", "scenario": "file:/does/not/exist"},
        ],
    )
    def test_invalid_requests_are_400s(self, payload):
        with pytest.raises(ServiceError) as err:
            parse_solve_request(payload)
        assert err.value.status == 400

    def test_scenario_kind_mismatch_is_a_400(self):
        # coverage-planning is a set-cover workload; mis needs a graph.
        with pytest.raises(ServiceError, match="mis.*needs graph"):
            parse_solve_request({"algorithm": "mis", "scenario": "coverage-planning"})

    def test_scenario_params_rejected_in_params(self):
        # The scenario travels in its own field, never through params.
        with pytest.raises(ServiceError):
            parse_solve_request({"algorithm": "mis", "params": {"scenario": "powerlaw-dense"}})

    def test_stored_dataset_with_a_bad_weight_is_a_400(self, tmp_path):
        graph = Graph.from_arrays(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, np.inf, 1.0]))
        path = tmp_path / "inf.npz"
        save_dataset(path, graph)
        with pytest.raises(ServiceError, match="'edge_w' holds inf at index 1") as err:
            parse_solve_request({"algorithm": "matching", "scenario": f"file:{path}"})
        assert err.value.status == 400

    def test_file_scenario_is_pinned_to_content(self):
        source = Path(__file__).resolve().parents[1] / "data" / "social-small.txt"
        request = parse_solve_request({"algorithm": "mis", "scenario": f"file:{source}"})
        assert request.scenario is not None
        assert "#sha256=" in request.scenario


class TestDeterminism:
    def test_same_request_same_bytes(self):
        a = solve_direct(parse_solve_request(FAST))
        b = solve_direct(parse_solve_request(dict(FAST)))
        assert a == b

    def test_different_seed_different_bytes(self):
        a = solve_direct(parse_solve_request(FAST))
        b = solve_direct(parse_solve_request({**FAST, "seed": 6}))
        assert a != b

    def test_signature_matches_point_identity(self):
        request = parse_solve_request(FAST)
        assert request_signature(request) == request_signature(parse_solve_request(FAST))
        assert request_signature(request) != request_signature(
            parse_solve_request({**FAST, "seed": 6})
        )

    def test_response_is_canonical_json(self):
        payload = solve_direct(parse_solve_request(FAST))
        decoded = json.loads(payload)
        recanonical = json.dumps(decoded, sort_keys=True, separators=(",", ":")).encode()
        assert payload == recanonical

    def test_cached_flag_never_reaches_the_body(self):
        request = parse_solve_request(FAST)
        result = execute_point(request_point(request))
        fresh = render_response(request, result)
        result.cached = True
        assert render_response(request, result) == fresh

    def test_trials_change_the_point(self):
        one = request_point(parse_solve_request(FAST))
        three = request_point(parse_solve_request({**FAST, "trials": 3}))
        assert one.trials == 1 and three.trials == 3

    def test_named_scenario_request_solves(self):
        request = parse_solve_request(
            {"algorithm": "mis", "scenario": "powerlaw-dense", "seed": 3}
        )
        payload = json.loads(solve_direct(request))
        assert payload["scenario"] == "powerlaw-dense"
        assert all(record["valid"] for record in payload["records"])
