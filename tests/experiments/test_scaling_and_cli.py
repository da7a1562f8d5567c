"""Tests for the scaling sweeps and the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import rounds_vs_c, rounds_vs_n, space_vs_mu


class TestScalingSweeps:
    def test_rounds_vs_n_matching_stays_flat(self):
        records = rounds_vs_n(
            np.random.default_rng(0), sizes=(60, 180), c=0.45, mu=0.3, algorithm="matching"
        )
        assert len(records) == 2
        # O(c/µ) iterations: independent of n up to small noise.
        assert abs(records[0].metrics["iterations"] - records[1].metrics["iterations"]) <= 2

    def test_rounds_vs_n_matching_constant_round_shape(self):
        records = rounds_vs_n(
            np.random.default_rng(21), sizes=(80, 160, 320), c=0.45, mu=0.3, algorithm="matching"
        )
        iterations = [r.metrics["iterations"] for r in records]
        # Quadrupling n must not even double the iteration count.
        assert max(iterations) <= 2 * max(1.0, min(iterations)) + 1

    @pytest.mark.parametrize(
        "seed,sizes,c,mu", [(1, (60, 120), 0.4, 0.3), (22, (80, 240), 0.45, 0.35)]
    )
    def test_rounds_vs_n_mis_records_luby(self, seed, sizes, c, mu):
        records = rounds_vs_n(
            np.random.default_rng(seed), sizes=sizes, c=c, mu=mu, algorithm="mis"
        )
        for record in records:
            # Hungry-greedy sweeps stay within a small factor of (and typically
            # below) Luby's log n rounds on densified graphs.
            assert record.metrics["iterations"] <= record.metrics["luby_rounds"] + 3

    def test_rounds_vs_n_vertex_cover(self):
        records = rounds_vs_n(
            np.random.default_rng(2), sizes=(50, 100), algorithm="vertex-cover"
        )
        assert all(r.metrics["iterations"] >= 1 for r in records)

    def test_rounds_vs_n_invalid_algorithm(self):
        with pytest.raises(ValueError):
            rounds_vs_n(np.random.default_rng(0), algorithm="bogus")

    @pytest.mark.parametrize(
        "seed,n,cs", [(3, 120, (0.3, 0.6)), (23, 150, (0.3, 0.5, 0.7))]
    )
    def test_rounds_vs_c_monotone_shape(self, seed, n, cs):
        records = rounds_vs_c(np.random.default_rng(seed), n=n, cs=cs, mu=0.2)
        assert records[0].metrics["iterations"] <= records[-1].metrics["iterations"] + 1

    @pytest.mark.parametrize(
        "seed,n,mus", [(4, 120, (0.15, 0.5)), (24, 150, (0.15, 0.3, 0.5))]
    )
    def test_space_vs_mu_grows(self, seed, n, mus):
        records = space_vs_mu(np.random.default_rng(seed), n=n, mus=mus)
        assert records[0].metrics["peak_sample_words"] <= records[-1].metrics["peak_sample_words"]
        for record in records:
            assert record.metrics["peak_sample_words"] <= record.bounds["peak_sample_words"]


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

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "mu", "--algorithm", "mis"])
        assert args.sweep == "mu" and args.algorithm == "mis"


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
        assert all("iterations" in item["metrics"] for item in payload)

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
        exit_code = main(["ablation", "eta", "--seed", "4", "--backend", "batch", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert all("iterations" in item["metrics"] for item in payload)

    def test_scaling_space_json(self, capsys):
        exit_code = main(["scaling", "space", "--seed", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert all("peak_sample_words" in item["metrics"] for item in payload)


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
