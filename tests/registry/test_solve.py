"""Tests for the :func:`repro.solve` facade and its typed result."""

from __future__ import annotations

import json

import pytest

import repro
from repro.registry import (
    RegistryError,
    SolveResult,
    build_request,
    request_point,
    request_signature,
)
from repro.service import parse_solve_request, solve_direct

FAST = {"algorithm": "mis", "params": {"n": 40, "c": 0.35}, "seed": 5}


def _solve_fast(**overrides) -> SolveResult:
    kwargs = {"params": FAST["params"], "seed": FAST["seed"], **overrides}
    return repro.solve("mis", **kwargs)


class TestFacade:
    def test_returns_typed_result(self):
        result = _solve_fast()
        assert isinstance(result, SolveResult)
        assert result.algorithm == "mis"
        assert result.experiment == "fig1-mis"
        assert result.scenario is None
        assert (result.seed, result.trials) == (5, 1)
        assert result.valid
        assert result.metrics["mis_size"] > 0
        assert result.bounds["rounds"] > 0

    def test_byte_identical_to_service_golden_path(self):
        golden = solve_direct(parse_solve_request(FAST))
        assert _solve_fast().canonical_json() == golden

    def test_alias_requests_echo_the_requested_name(self):
        result = repro.solve("fig1-mis", params=FAST["params"], seed=5)
        assert json.loads(result.canonical_json())["algorithm"] == "fig1-mis"
        # ...but resolve to the same experiment and the same records.
        assert result.experiment == "fig1-mis"

    def test_backend_invariance(self):
        serial = _solve_fast(backend="serial").canonical_json()
        batch = _solve_fast(backend="batch").canonical_json()
        assert serial == batch

    def test_cache_replay_is_byte_identical_and_flagged(self, tmp_path):
        first = _solve_fast(cache=str(tmp_path))
        second = _solve_fast(cache=str(tmp_path))
        assert not first.cached and second.cached
        assert first.canonical_json() == second.canonical_json()

    def test_seed_changes_the_response(self):
        assert _solve_fast().canonical_json() != _solve_fast(seed=6).canonical_json()

    def test_trials_produce_one_record_each(self):
        result = _solve_fast(trials=3)
        assert len(result.records) == 3
        assert result.record is result.records[0]

    def test_named_scenario_solve(self):
        result = repro.solve("mis", "powerlaw-dense", seed=3)
        assert result.scenario == "powerlaw-dense"
        assert result.valid

    def test_canonical_json_round_trips_payload(self):
        result = _solve_fast()
        assert json.loads(result.canonical_json()) == json.loads(
            json.dumps(result.payload())
        )


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(RegistryError, match="unknown algorithm"):
            repro.solve("simplex")

    def test_scenario_kind_mismatch(self):
        with pytest.raises(RegistryError, match="needs graph"):
            repro.solve("mis", "coverage-planning")

    @pytest.mark.parametrize("seed", ["seven", 1.5, True])
    def test_bad_seed(self, seed):
        with pytest.raises(RegistryError, match="seed"):
            build_request("mis", seed=seed)

    def test_negative_seed_is_rejected_before_the_solve(self):
        with pytest.raises(RegistryError, match="'seed' must be a non-negative integer"):
            build_request("mis", seed=-1)

    @pytest.mark.parametrize("trials", [0, -1, 1.5, "three"])
    def test_bad_trials(self, trials):
        with pytest.raises(RegistryError, match="trials"):
            build_request("mis", trials=trials)

    def test_scenario_must_be_nonempty_string(self):
        with pytest.raises(RegistryError, match="scenario"):
            build_request("mis", scenario="")

    def test_algorithm_must_be_a_string(self):
        with pytest.raises(RegistryError, match="string"):
            build_request(7)  # type: ignore[arg-type]


class TestRequestIdentity:
    def test_request_signature_matches_service(self):
        from repro.service import request_signature as service_signature

        request = build_request("mis", params=FAST["params"], seed=5)
        assert request_signature(request) == service_signature(
            parse_solve_request(FAST)
        )

    def test_point_identity_across_surfaces(self):
        lib = request_point(build_request("mis", params=FAST["params"], seed=5))
        srv = request_point(parse_solve_request(FAST))
        assert lib == srv
