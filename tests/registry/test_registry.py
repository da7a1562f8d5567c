"""Registry conformance suite.

Every registered algorithm must (i) solve a tiny scenario end to end with
its certificate check passing, (ii) reject unknown parameters with an error
naming the algorithm and the accepted keys, and (iii) resolve through every
one of its aliases.  These tests are parametrized over the registry itself,
so a newly registered algorithm is covered automatically.
"""

from __future__ import annotations

import pytest

import repro
from repro.registry import (
    AlgorithmSpec,
    UnknownAlgorithmError,
    UnknownParameterError,
    algorithm_names,
    experiment_names,
    get_algorithm,
    iter_algorithms,
    known_algorithm_names,
)

SPECS = list(iter_algorithms())
NAMES = [spec.name for spec in SPECS]


def tiny_params(spec: AlgorithmSpec) -> dict[str, object]:
    """Small-but-valid overrides so every conformance solve stays fast."""
    overrides: dict[str, object] = {}
    if "n" in spec.params:
        overrides["n"] = 36
    if "c" in spec.params:
        overrides["c"] = 0.4
    if "num_sets" in spec.params:
        overrides["num_sets"] = 30
    if "num_elements" in spec.params:
        # Two regimes: frequency-bounded (m >> n) vs coverage (m << n).
        overrides["num_elements"] = 150 if "max_frequency" in spec.params else 20
    if "max_frequency" in spec.params:
        overrides["max_frequency"] = 3
    return overrides


class TestRegistryShape:
    def test_all_ten_rows_registered(self):
        assert len(SPECS) == 10
        assert set(experiment_names()) == {
            "fig1-vertex-cover",
            "fig1-set-cover-f",
            "fig1-set-cover-greedy",
            "fig1-mis",
            "fig1-maximal-clique",
            "fig1-matching",
            "fig1-matching-mu0",
            "fig1-b-matching",
            "fig1-vertex-colouring",
            "fig1-edge-colouring",
        }

    @pytest.mark.parametrize("name", NAMES)
    def test_spec_is_complete(self, name):
        spec = get_algorithm(name)
        assert spec.kind in ("graph", "setcover")
        assert spec.experiment.startswith("fig1-")
        assert spec.guarantee
        assert spec.theorem
        assert spec.bounds is not None
        assert spec.description
        assert spec.params, "params must be derived from the solver signature"
        assert "scenario" not in spec.params

    @pytest.mark.parametrize("name", NAMES)
    def test_aliases_resolve_to_the_same_spec(self, name):
        spec = get_algorithm(name)
        for alias in spec.all_names:
            assert get_algorithm(alias) is spec

    def test_known_names_are_deduplicated(self):
        known = known_algorithm_names()
        assert len(known) == len(set(known))
        assert set(algorithm_names()) <= set(known)

    def test_unknown_algorithm_error_lists_each_name_once(self):
        with pytest.raises(UnknownAlgorithmError) as err:
            get_algorithm("simplex")
        assert err.value.known == sorted(set(err.value.known))
        assert str(err.value).count("'fig1-matching'") == 1


class TestConformance:
    @pytest.mark.parametrize("name", NAMES)
    def test_solves_a_tiny_instance_and_certificate_checks(self, name):
        spec = get_algorithm(name)
        result = repro.solve(name, params=tiny_params(spec), seed=0)
        assert result.records, "a solve must produce at least one record"
        assert result.valid, f"{name} failed its independent certificate check"
        assert result.experiment == spec.experiment
        assert "rounds" in result.metrics or "iterations" in result.metrics
        assert result.bounds, "the theorem's bounds must be attached"

    @pytest.mark.parametrize("name", NAMES)
    def test_unknown_param_error_names_algorithm_and_accepted_keys(self, name):
        spec = get_algorithm(name)
        with pytest.raises(UnknownParameterError) as err:
            repro.solve(name, params={"definitely_not_a_param": 1})
        message = str(err.value)
        assert name in message
        for accepted in spec.params:
            assert accepted in message

    @pytest.mark.parametrize("name", NAMES)
    def test_params_validation_round_trips_accepted_keys(self, name):
        spec = get_algorithm(name)
        subset = tiny_params(spec) or dict(list(spec.params.items())[:1])
        assert spec.validate_params(subset) == {str(k): v for k, v in subset.items()}

    def test_params_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            get_algorithm("mis").validate_params([1, 2])  # type: ignore[arg-type]


class TestNameResolution:
    def test_experiment_names_resolve_to_their_solvers(self):
        specs = list(iter_algorithms())
        assert len({spec.experiment for spec in specs}) == len(specs)
        for spec in specs:
            assert get_algorithm(spec.experiment).solver is spec.solver

    def test_canonical_names_resolve_to_their_experiments(self):
        for spec in iter_algorithms():
            assert get_algorithm(spec.name).experiment == spec.experiment


def _bound():
    return 2.0


def _solver(rng, *, n=10):
    return n


class TestMalformedRegistration:
    """A registration the spec cannot trust raises when its module is
    imported; nothing is registered."""

    def _register(self, name="malformed-demo", solver=_solver, **options):
        from repro.registry import register_algorithm

        options.setdefault("kind", "graph")
        options.setdefault("bounds", _bound)
        register_algorithm(name, experiment="fig1-malformed-demo", **options)(solver)

    def test_name_must_be_a_str(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="name must be a str, not int"):
            self._register(name=7)

    def test_kind_must_be_graph_or_setcover(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="kind must be 'graph' or 'setcover'"):
            self._register(kind="matrix")

    def test_bounds_is_required(self):
        from repro.registry import register_algorithm

        with pytest.raises(TypeError, match="bounds"):
            register_algorithm("malformed-demo", kind="graph")

    def test_bounds_must_not_be_none(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="no bounds hook"):
            self._register(bounds=None)

    @pytest.mark.parametrize(
        "solver, message",
        [
            (lambda rng, n=10: n, "takes 2 positional parameters"),
            (lambda *, n=10: n, "takes 0 positional parameters"),
            (lambda rng, *rest: rest, r"takes \*rest"),
            (lambda rng, **params: params, r"takes \*\*params"),
        ],
        ids=["positional-tunable", "no-rng", "var-positional", "var-keyword"],
    )
    def test_solver_signature_must_derive_params(self, solver, message):
        from repro.registry import RegistryError, algorithm_names

        with pytest.raises(RegistryError, match=message):
            self._register(solver=solver)
        assert "malformed-demo" not in algorithm_names()


class TestRegressions:
    def test_solve_works_without_experiment_alias(self):
        # Registering without listing the experiment name as an alias must
        # still solve: request_point resolves via the requested name, never
        # via the experiment name.
        from repro.analysis.bounds import mis_bound
        from repro.experiments.figure1 import mis_experiment
        from repro.registry import build_request, register_algorithm, request_point
        from repro.registry import spec as spec_module

        register_algorithm(
            "no-alias-demo", experiment="fig1-no-alias-demo", kind="graph", bounds=mis_bound
        )(mis_experiment)
        try:
            point = request_point(build_request("no-alias-demo", params={"n": 30}))
            assert point.experiment == "fig1-no-alias-demo"
            assert point.fn is mis_experiment
        finally:
            spec_module._REGISTRY.pop("no-alias-demo")
            spec_module._NAMES.pop("no-alias-demo")

    def test_duplicate_experiment_name_is_rejected(self):
        # The experiment name is the cache-key identity and the Figure-1
        # row key; two specs must never share one.
        from repro.analysis.bounds import mis_bound
        from repro.experiments.figure1 import mis_experiment
        from repro.registry import RegistryError, register_algorithm

        with pytest.raises(RegistryError, match="fig1-mis.*already registered"):
            register_algorithm(
                "rogue", experiment="fig1-mis", kind="graph", bounds=mis_bound
            )(mis_experiment)

    def test_figure1_overrides_accept_per_row_scenario(self):
        # Pre-registry behaviour: a per-row {"scenario": ...} override wins
        # over (or substitutes for) the sweep-wide scenario argument.
        from repro.experiments.figure1 import figure1_points

        [point] = figure1_points(0, experiments=["fig1-mis"],
                                 overrides={"fig1-mis": {"scenario": "powerlaw-dense", "n": 40}})
        assert point.kwargs["scenario"] == "powerlaw-dense"
        assert point.kwargs["n"] == 40

    def test_cli_algorithms_json_params_match_server_listing_shape(self, capsys):
        # The CLI listing and GET /algorithms must render params identically
        # (typed JSON values, not reprs).
        import json as json_module

        from repro.cli import main

        assert main(["algorithms", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["matching"]["params"]["n"] == 130
        assert payload["matching"]["params"]["weight_range"] == [1.0, 100.0]
        for spec in iter_algorithms():
            assert payload[spec.name] == spec.listing_payload()
