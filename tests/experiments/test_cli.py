"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentRecord

#: A graph dataset fixture (Matrix Market), for the ``file:`` scenario cases.
TOY_MTX = Path(__file__).resolve().parents[1] / "data" / "toy.mtx"

class TestCliParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure1_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.command == "figure1"
        assert args.seed == 2018 and args.trials == 1

    def test_experiment_requires_valid_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "not-a-real-experiment"])

    @pytest.mark.parametrize(
        "argv",
        [["figure1", "--trials", "0"], ["experiment", "fig1-mis", "--trials", "-2"]],
    )
    def test_nonpositive_trials_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--trials: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "mis", "--seed", "-1"],
            ["figure1", "--only", "fig1-mis", "--seed", "-1"],
            ["experiment", "fig1-mis", "--seed", "-3"],
        ],
    )
    def test_negative_seed_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--seed: must be a non-negative integer" in capsys.readouterr().err

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "mu", "--algorithm", "mis"])
        assert args.sweep == "mu" and args.algorithm == "mis"

    @pytest.mark.parametrize("command", ["figure1", "experiment fig1-mis", "ablation mu", "scaling n"])
    def test_experiment_subcommands_share_seed_and_json(self, command):
        args = build_parser().parse_args(command.split() + ["--json"])
        assert args.seed == 2018 and args.json

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["ablation", "mu", "--algorithm", "bogus"],
                "valid pairs: mu --algorithm matching|vertex-cover|mis;",
                id="unknown-algorithm",
            ),
            pytest.param(
                ["ablation", "mu", "--scenario", "coverage-planning"],
                "'fig1-matching' needs graph",
                id="wrong-scenario-kind",
            ),
            pytest.param(
                ["scaling", "n", "--scenario", f"file:{TOY_MTX}"],
                "--scenario is not meaningful there",
                id="scenario-on-size-sweep",
            ),
            pytest.param(
                ["figure1", "--only", "fig1-mis", "fig1-set-cover-f", "--scenario", "social-sparse"],
                "'fig1-set-cover-f' needs setcover",
                id="wrong-scenario-kind-for-one-row",
            ),
            pytest.param(
                ["scaling", "c", "--algorithm", "mis"],
                "c --algorithm matching;",
                id="no-grid-for-c",
            ),
            pytest.param(
                ["ablation", "epsilon", "--algorithm", "mis"],
                "epsilon --algorithm set-cover-greedy|b-matching",
                id="no-grid-for-epsilon",
            ),
        ],
    )
    def test_bad_experiment_input_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_problem_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "eta", "--problem", "set-cover"])

    def test_grids_take_no_trials(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "space", "--trials", "2"])


class TestCliExecution:
    def test_single_experiment_table_output(self, capsys):
        exit_code = main(["experiment", "fig1-vertex-colouring", "--seed", "5"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "fig1-vertex-colouring" in captured
        assert "colours_used" in captured

    def test_single_experiment_json_output(self, capsys):
        exit_code = main(["experiment", "fig1-mis", "--seed", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["experiment"] == "fig1-mis"
        assert payload["valid"] is True
        assert "rounds" in payload["metrics"]

    def test_figure1_subset(self, capsys):
        exit_code = main(
            ["figure1", "--only", "fig1-vertex-colouring", "fig1-edge-colouring", "--seed", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "fig1-edge-colouring" in captured

    def test_ablation_eta_json(self, capsys):
        exit_code = main(["ablation", "eta", "--seed", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert [item["parameters"]["mu"] for item in payload] == [0.05, 0.15, 0.3]
        assert all("sampling_iterations" in item["metrics"] for item in payload)
        assert all(item["valid"] and item["bounds"]["rounds"] > 0 for item in payload)

    def test_ablation_epsilon_defaults_to_greedy_set_cover(self, capsys):
        assert main(["ablation", "epsilon", "--seed", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {item["experiment"] for item in payload} == {"fig1-set-cover-greedy"}
        assert [item["parameters"]["epsilon"] for item in payload] == [0.1, 0.25, 0.5, 1.0]

    def test_grid_with_an_invalid_cell_exits_1(self, capsys, monkeypatch):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "run_figure1", lambda *a, **k: [ExperimentRecord("x", valid=False)]
        )
        assert main(["scaling", "space"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401  (import must not execute main)


class TestCliBackends:
    def test_backend_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.backend == "serial" and args.jobs is None and args.cache_dir is None

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--backend", "dask"])

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--jobs", "0"])

    def test_jobs_without_mp_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure1", "--only", "fig1-mis", "--jobs", "4"])

    def test_cache_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--cache-dir", str(target)])

    def test_scaling_subcommand_parses(self):
        args = build_parser().parse_args(["scaling", "n", "--algorithm", "mis"])
        assert args.command == "scaling" and args.sweep == "n" and args.algorithm == "mis"

    def test_figure1_mp_jobs_smoke(self, capsys):
        exit_code = main(
            ["figure1", "--only", "fig1-vertex-colouring", "--seed", "3",
             "--backend", "mp", "--jobs", "2", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload[0]["experiment"] == "fig1-vertex-colouring"

    def test_figure1_mp_matches_serial(self, capsys):
        argv = ["figure1", "--only", "fig1-vertex-colouring", "fig1-mis", "--seed", "3", "--json"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "mp", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_cache_dir_flag_skips_recomputation(self, capsys, tmp_path):
        argv = ["scaling", "c", "--seed", "4", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_ablation_backend_batch(self, capsys):
        argv = ["ablation", "eta", "--seed", "4", "--json"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "batch"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_scaling_space_json(self, capsys):
        exit_code = main(["scaling", "space", "--seed", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert all("max_space_per_machine" in item["metrics"] for item in payload)
        assert all("space_per_machine" in item["bounds"] for item in payload)


class TestCliRegistryCommands:
    def test_algorithms_table(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "matching" in out and "2-approximation" in out
        assert "setcover" in out and "fig1-set-cover-f" in out

    def test_algorithms_json_matches_registry(self, capsys):
        from repro.registry import iter_algorithms

        assert main(["algorithms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {spec.name for spec in iter_algorithms()}
        assert payload["matching"]["experiment"] == "fig1-matching"

    def test_solve_outputs_canonical_response(self, capsys):
        import repro

        golden = repro.solve("mis", params={"n": 36, "c": 0.35}, seed=5)
        assert main(["solve", "mis", "-p", "n=36", "-p", "c=0.35", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == golden.canonical_json() + b"\n"

    def test_solve_pretty_round_trips(self, capsys):
        assert main(["solve", "mis", "-p", "n=36", "-p", "c=0.35", "--pretty"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig1-mis"
        assert payload["records"][0]["valid"] is True

    def test_solve_params_json_object(self, capsys):
        argv = ["solve", "mis", "--params-json", '{"n": 36, "c": 0.35}', "--seed", "5"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"] == {"n": 36, "c": 0.35}

    def test_solve_rejects_unknown_algorithm(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "simplex"])
        assert "unknown algorithm" in capsys.readouterr().err

    def test_solve_rejects_unknown_param(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "mis", "-p", "bogus=1"])
        assert "accepted" in capsys.readouterr().err

    def test_solve_rejects_malformed_param(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "mis", "-p", "not-a-pair"])

    @pytest.mark.parametrize(
        "row",
        [
            "fig1-vertex-cover",
            "fig1-set-cover-f",
            "fig1-matching",
            "fig1-mis",
            "fig1-maximal-clique",
            "fig1-set-cover-greedy",
            "fig1-b-matching",
        ],
    )
    def test_solve_rejects_zero_mu(self, row):
        # Every c/µ bound is undefined at µ = 0 and meaningless below it:
        # the driver refuses both before any bound divides by µ.
        for mu in ("0", "-0.1"):
            with pytest.raises(ValueError, match="mu must be positive"):
                main(["solve", row, "-p", f"mu={mu}"])

    @pytest.mark.parametrize(
        "params",
        [
            ["fig1-vertex-cover"],
            ["fig1-set-cover-f"],
            ["fig1-set-cover-greedy"],
            ["fig1-mis"],
            ["fig1-mis", "-p", "simple=true"],
            ["fig1-maximal-clique"],
            ["fig1-matching"],
            ["fig1-b-matching"],
            ["fig1-vertex-colouring"],
            ["fig1-edge-colouring"],
        ],
        ids=lambda params: "-".join(p for p in params if p != "-p"),
    )
    @pytest.mark.parametrize("mu", ["NaN", "Infinity", "-0.5"])
    def test_solve_rejects_malformed_mu(self, params, mu):
        # A malformed µ is refused up front, never reported as a broken
        # space or sampling claim (MemoryExceededError, AlgorithmFailureError)
        # or as a failed integer conversion.
        with pytest.raises(ValueError, match="mu must be (positive|non-negative) and finite"):
            main(["solve", *params, "-p", f"mu={mu}"])

    @pytest.mark.parametrize("row", ["fig1-vertex-colouring", "fig1-edge-colouring"])
    def test_colouring_rows_accept_zero_mu(self, row, capsys):
        assert main(["solve", row, "-p", "mu=0"]) == 0
        assert json.loads(capsys.readouterr().out)["records"][0]["valid"] is True

    def test_solve_rejects_zero_epsilon_for_b_matching(self):
        # The ε-adjusted reduction's space budget takes log(1/δ), δ = ε/(1+ε).
        with pytest.raises(ValueError, match="epsilon must be positive"):
            main(["solve", "fig1-b-matching", "-p", "epsilon=0"])
