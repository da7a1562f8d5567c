"""SARIF rendering and baseline hygiene of ``repro lint``."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.lint import (
    lint_paths,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.analysis.lint.findings import Finding, FindingStatus
from repro.cli import main

#: The full rule catalogue SARIF uploads carry: (id, name, description).
RULES = [
    (
        "CONC001",
        "unlocked-shared-state",
        "lock-guarded mutable state mutated without holding the lock",
    ),
    (
        "CONC101",
        "interprocedural-lock-discipline",
        "Mutations of lock-guarded shared state (instance attributes of "
        "lock-bearing classes, lock-bearing modules' mutable globals) "
        "reachable from a thread/executor entry point along a cross-"
        "module call path with no path-dominating lock acquisition.",
    ),
    (
        "DET001",
        "unseeded-global-rng",
        "global RNG state reachable from solver/kernel/backend code",
    ),
    (
        "DET002",
        "non-canonical-json",
        "non-canonical json.dumps/json.dump or stringified write on a wire path",
    ),
    (
        "DET003",
        "set-iteration-order",
        "set iteration whose order can escape into outputs",
    ),
    (
        "DET004",
        "wall-clock-in-solver",
        "wall-clock call inside a deterministic module",
    ),
    (
        "DET101",
        "interprocedural-determinism",
        "Unseeded RNG, wall-clock reads, and order-sensitive set "
        "iteration in any function transitively reachable from solver, "
        "kernel, or MPC-round entry points — even when the function's "
        "own module is outside the deterministic path scopes.",
    ),
    (
        "MPC001",
        "round-callable-importability",
        "Callables passed to MPCContext.map_round or SweepRoundExecutor."
        "run_round must be module-level functions: the distributed "
        "protocol ships them by import path, which cannot name lambdas, "
        "closures, or bound methods.",
    ),
    (
        "REG001",
        "registry-conformance",
        "@register_algorithm spec missing kind/bounds or non-derivable params",
    ),
    (
        "WIRE001",
        "interprocedural-canonical-wire",
        "Payloads written to HTTP responses, protocol records, or saved "
        "traces must come from a canonical serializer (json.dumps with "
        "sort_keys= and separators=, or backends._jsonable), even when "
        "the serialization happens in a helper several calls away.",
    ),
]


class TestSarif:
    def _tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return [i for i in set(xs)]  # repro-lint: disable=DET003
                """
            )
        )
        return pkg

    def test_sarif_structure_and_determinism(self, tmp_path):
        self._tree(tmp_path)
        a = lint_paths(["pkg"], root=tmp_path)
        b = lint_paths(["pkg"], root=tmp_path)
        assert render_sarif(a) == render_sarif(b)
        doc = json.loads(render_sarif(a))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = [
            (rule["id"], rule["name"], rule["fullDescription"]["text"])
            for rule in run["tool"]["driver"]["rules"]
        ]
        assert rules == RULES
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["shortDescription"] == {"text": rule["name"]}
            assert rule["defaultConfiguration"] == {"level": "error"}
        assert len(run["results"]) == len(a.findings)
        for result in run["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith("pkg/")
            assert result["partialFingerprints"]["reproLint/baselineKey"]

    def test_sarif_marks_suppressions(self, tmp_path):
        pkg = self._tree(tmp_path)
        (pkg / "clean.py").write_text("X = 1\n")
        report = lint_paths(["pkg"], root=tmp_path)
        doc = json.loads(render_sarif(report))
        by_status = {}
        for finding, result in zip(report.findings, doc["runs"][0]["results"]):
            kinds = [s["kind"] for s in result.get("suppressions", [])]
            by_status.setdefault(finding.status, set()).update(kinds)
        assert by_status.get(FindingStatus.NEW, set()) == set()
        assert by_status.get(FindingStatus.SUPPRESSED) == {"inSource"}

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        self._tree(tmp_path)
        out = tmp_path / "lint.sarif"
        assert (
            main(
                ["lint", "pkg", "--root", str(tmp_path), "--sarif", str(out)]
            )
            == 1
        )
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"]
        capsys.readouterr()


class TestBaselineHygiene:
    def test_missing_file_warns_but_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("X = 1\n")
        ghost = Finding("DET001", "msg", "pkg/deleted.py", 3, 1, snippet="bad()")
        baseline_file = tmp_path / "lint-baseline.json"
        write_baseline([ghost], baseline_file)
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pkg/deleted.py" in out
        assert "baseline references deleted file" in out

    def test_update_baseline_prunes_stale_entries(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return xs
                """
            )
        )
        ghost = Finding("DET001", "msg", "pkg/deleted.py", 3, 1, snippet="bad()")
        baseline_file = tmp_path / "lint-baseline.json"
        write_baseline([ghost], baseline_file)
        assert (
            main(["lint", "pkg", "--root", str(tmp_path), "--update-baseline"]) == 0
        )
        out = capsys.readouterr().out
        assert "1 stale entry pruned" in out
        rewritten = load_baseline(baseline_file)
        assert len(rewritten.entries) == 1
        assert all("deleted.py" not in key for key in rewritten.entries)
