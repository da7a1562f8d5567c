"""CLI tests for ``repro data`` / ``--scenario`` / ``--version``.

Includes the golden acceptance path: ``repro data convert`` on the bundled
SNAP-style fixture, then ``repro figure1 --scenario file:<converted>`` end
to end, with the stored instance loading byte-identical to the parsed
original.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.datasets import load_dataset, load_edgelist, read_header, save_dataset
from repro.graphs import Graph
from repro.setcover import SetCoverInstance

DATA = Path(__file__).resolve().parents[1] / "data"
FIXTURE = DATA / "social-small.txt"


class TestGoldenConvertAndRun:
    """The acceptance-criteria path, as one golden test."""

    def test_convert_then_figure1_scenario_end_to_end(self, tmp_path, capsys):
        converted = tmp_path / "social-small.npz"
        assert main(["data", "convert", str(FIXTURE), str(converted)]) == 0
        out = capsys.readouterr().out
        assert "converted" in out and str(converted) in out

        # The stored instance must be byte-identical to the parsed original.
        parsed, _ = load_edgelist(FIXTURE)
        stored = load_dataset(converted)
        assert stored.num_vertices == parsed.num_vertices
        assert stored.edge_u.tobytes() == parsed.edge_u.tobytes()
        assert stored.edge_v.tobytes() == parsed.edge_v.tobytes()
        assert stored.weights.tobytes() == parsed.weights.tobytes()

        # And the converted dataset drives a Figure-1 run end to end.
        exit_code = main(
            [
                "figure1",
                "--scenario",
                f"file:{converted}",
                "--only",
                "fig1-mis",
                "fig1-matching",
                "--seed",
                "2018",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert [item["experiment"] for item in payload] == ["fig1-mis", "fig1-matching"]
        assert all(item["valid"] for item in payload)
        # The recorded spec is pinned to the dataset's content fingerprint.
        assert all(
            item["parameters"]["scenario"].startswith(f"file:{converted}#sha256=")
            for item in payload
        )
        assert payload[0]["parameters"]["n"] == parsed.num_vertices

    def test_convert_records_provenance(self, tmp_path, capsys):
        converted = tmp_path / "social.npz"
        assert main(["data", "convert", str(FIXTURE), str(converted), "--name", "soc"]) == 0
        capsys.readouterr()
        header = read_header(converted)
        assert header["name"] == "soc"
        assert header["source"] == str(FIXTURE)
        assert header["extra"]["format"] == "edgelist"


class TestDataSubcommands:
    def test_list_table_and_json(self, capsys):
        assert main(["data", "list"]) == 0
        table = capsys.readouterr().out
        assert "social-sparse" in table and "file:<path>" in table
        assert main(["data", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {item["name"] for item in payload} >= {"social-sparse", "coverage-planning"}

    def test_info_on_raw_fixture(self, capsys):
        assert main(["data", "info", str(DATA / "petersen.col"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "graph"
        assert payload["num_vertices"] == 10 and payload["num_edges"] == 15

    def test_info_on_setcover_fixture(self, capsys):
        assert main(["data", "info", str(DATA / "coverage-small.sc")]) == 0
        out = capsys.readouterr().out
        assert "setcover" in out and "frequency" in out

    def test_info_on_store(self, tmp_path, capsys):
        converted = tmp_path / "toy.npz"
        assert main(["data", "convert", str(DATA / "toy.mtx"), str(converted)]) == 0
        capsys.readouterr()
        assert main(["data", "info", str(converted)]) == 0
        out = capsys.readouterr().out
        assert "store:schema_version" in out

    def test_convert_rejects_missing_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["data", "convert", str(tmp_path / "nope.txt"), str(tmp_path / "out.npz")])

    def test_convert_rejects_stored_input(self, tmp_path, capsys):
        converted = tmp_path / "g.npz"
        assert main(["data", "convert", str(FIXTURE), str(converted)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["data", "convert", str(converted), str(tmp_path / "again.npz")])


class TestScenarioFlag:
    def test_named_scenario_defaults_to_compatible_rows(self, capsys):
        exit_code = main(["figure1", "--scenario", "coverage-planning", "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert {item["experiment"] for item in payload} == {
            "fig1-set-cover-f",
            "fig1-set-cover-greedy",
        }

    def test_experiment_subcommand_accepts_scenario(self, capsys):
        exit_code = main(
            ["experiment", "fig1-vertex-colouring", "--scenario", "social-sparse", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0 and "fig1-vertex-colouring" in out

    def test_unknown_scenario_is_a_parser_error(self):
        with pytest.raises(SystemExit):
            main(["figure1", "--scenario", "not-a-scenario"])

    def test_scaling_c_rejects_scenario(self):
        with pytest.raises(SystemExit):
            main(["scaling", "c", "--scenario", "social-sparse"])

    def test_scenario_mp_matches_serial(self, capsys):
        argv = [
            "figure1",
            "--scenario",
            "social-sparse",
            "--only",
            "fig1-mis",
            "--seed",
            "3",
            "--json",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "mp", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_file_scenario_cache_is_not_stale(self, capsys, tmp_path):
        """Re-converting a dataset at the same path must not replay old results."""
        dataset = tmp_path / "d.txt"
        dataset.write_text("0 1\n1 2\n")
        argv = [
            "experiment",
            "fig1-mis",
            "--scenario",
            f"file:{dataset}",
            "--seed",
            "3",
            "--json",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["parameters"]["n"] == 3
        dataset.write_text("0 1\n1 2\n2 3\n3 4\n")  # a different graph, same path
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["parameters"]["n"] == 5  # recomputed, not served stale

    def test_pinned_spec_rejects_changed_file(self, tmp_path):
        from repro.datasets import canonical_scenario_spec, resolve_scenario

        dataset = tmp_path / "d.txt"
        dataset.write_text("0 1\n1 2\n")
        pinned = canonical_scenario_spec(f"file:{dataset}")
        assert "#sha256=" in pinned
        resolve_scenario(pinned)  # matches while the file is unchanged
        dataset.write_text("0 1\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="no longer matches"):
            resolve_scenario(pinned)

    def test_scenario_cache_round_trip(self, capsys, tmp_path):
        argv = [
            "ablation",
            "mu",
            "--scenario",
            "powerlaw-dense",
            "--seed",
            "4",
            "--json",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "set-cover-greedy", "--scenario", "file:{path}", "--seed", "1"],
            ["figure1", "--scenario", "file:{path}", "--seed", "1"],
            ["data", "info", "{path}"],
        ],
        ids=["solve", "figure1", "data-info"],
    )
    def test_stored_zero_set_weight_exits_2_with_the_column(self, tmp_path, capsys, argv):
        # A zero set weight divides by zero in Algorithm 3 and stalls the
        # greedy baseline, so the load must refuse it before any row runs.
        instance = SetCoverInstance.from_csr(
            np.array([0, 2, 4, 6]), np.array([0, 1, 1, 2, 0, 2]), np.array([0.0, 1.0, 1.0]),
            num_elements=3,
        )
        path = tmp_path / "zero.npz"
        save_dataset(path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(path=path) for arg in argv])
        assert excinfo.value.code == 2
        assert "'set_weights' holds 0.0 at index 0" in capsys.readouterr().err

    def test_stored_nan_edge_weight_exits_2(self, tmp_path, capsys):
        # A NaN weight would reach the response as NaN, which is not JSON.
        graph = Graph.from_arrays(3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, np.nan, 1.0]))
        path = tmp_path / "nan.npz"
        save_dataset(path, graph)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "matching", "--scenario", f"file:{path}", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "'edge_w' holds nan at index 1" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

    def test_version_is_exported(self):
        import re

        assert "__version__" in repro.__all__
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_parser_has_data_subcommand():
    args = build_parser().parse_args(["data", "list"])
    assert args.command == "data" and args.data_command == "list"
