"""Framework-level tests: the rule catalogue, scopes, suppressions, runner, reporters."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.lint import (
    all_program_checkers,
    lint_paths,
    lint_source,
    lint_sources,
    render_json,
    render_text,
)
from repro.analysis.lint.findings import FindingStatus
from repro.analysis.lint.scopes import classify, module_tail, scope_override
from repro.analysis.lint.suppressions import parse_suppressions

RACY = textwrap.dedent(
    """
    # repro-lint: scope=threaded
    _CACHE = {}

    def put(key, value):
        _CACHE[key] = value
    """
)


class TestScopes:
    def test_module_tail_strips_package_prefix(self):
        assert module_tail("src/repro/service/metrics.py") == "service/metrics.py"
        assert module_tail("repro/core/results.py") == "core/results.py"
        assert module_tail("core/snippet.py") == "core/snippet.py"

    def test_real_tree_classification(self):
        assert "deterministic" in classify("src/repro/core/local_ratio/matching.py")
        assert "clockfree" in classify("src/repro/kernels/mis.py")
        assert "canonical" in classify("src/repro/cli.py")
        assert "canonical" in classify("src/repro/distributed/protocol.py")
        assert "threaded" in classify("src/repro/service/batcher.py")
        # The harness/bench layer measures wall-clock on purpose.
        assert "clockfree" not in classify("src/repro/experiments/harness.py")
        assert classify("src/repro/analysis/lint/runner.py") == frozenset()

    def test_scope_override_comment(self):
        assert scope_override("# repro-lint: scope=canonical,threaded\nx = 1\n") == {
            "canonical",
            "threaded",
        }
        assert scope_override("x = 1\n") is None
        with pytest.raises(ValueError, match="unknown lint scope"):
            scope_override("# repro-lint: scope=wibble\n")

    def test_one_rule_per_hazard(self):
        checkers = all_program_checkers()
        assert [c.code for c in checkers] == ["CONC001", "DET001", "MPC001", "WIRE001"]
        assert all(checker.description for checker in checkers)


class TestSuppressions:
    def test_line_and_file_directives(self):
        source = textwrap.dedent(
            """
            # repro-lint: disable-file=DET001
            import json

            def f(p):
                return json.dumps(p)  # repro-lint: disable=WIRE001, DET001
            """
        )
        sup = parse_suppressions(source)
        assert sup.whole_file == {"DET001"}
        assert sup.by_line[6] == {"WIRE001", "DET001"}
        assert sup.codes == {"WIRE001", "DET001"}

    def test_marker_inside_string_is_inert(self):
        sup = parse_suppressions('text = "# repro-lint: disable=DET001"\n')
        assert not sup.by_line and not sup.whole_file

    def test_disable_all(self):
        findings = lint_source(
            "# repro-lint: scope=threaded\n# repro-lint: disable-file=all\n" + RACY.split("\n", 2)[2],
            "service/mod.py",
        )
        assert all(f.status is FindingStatus.SUPPRESSED for f in findings)
        assert findings, "fixture should still produce (suppressed) findings"


class TestRunnerAndReporters:
    def test_parse_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad], root=tmp_path)
        assert report.parse_errors and not report.clean and report.exit_code == 1

    def test_report_renderings_are_deterministic(self, tmp_path):
        target = tmp_path / "service" / "mod.py"
        target.parent.mkdir()
        target.write_text(RACY)
        a = lint_paths([target], root=tmp_path)
        b = lint_paths([target], root=tmp_path)
        assert render_json(a) == render_json(b)
        assert render_text(a, verbose=True) == render_text(b, verbose=True)
        payload = json.loads(render_json(a))
        assert payload["counts"] == {"CONC001": 1}
        assert payload["findings"][0]["path"] == "service/mod.py"

    def test_lint_source_is_a_one_file_program(self):
        findings = lint_source(RACY, "service/mod.py")
        assert [f.to_dict() for f in findings] == [
            f.to_dict() for f in lint_sources({"service/mod.py": RACY}).findings
        ]
        assert [f.code for f in findings] == ["CONC001"]

    def test_report_does_not_depend_on_input_order(self):
        tree = {
            "service/a.py": RACY,
            "core/b.py": "# repro-lint: scope=deterministic\nimport random\nX = random.random()\n",
            "core/c.py": "def broken(:\n",
        }
        forward = lint_sources(tree)
        backward = lint_sources(dict(reversed(list(tree.items()))))
        assert render_json(forward) == render_json(backward)
        assert [f.code for f in forward.findings] == ["DET001", "CONC001"]
        assert forward.parse_errors[0].startswith("core/c.py: ")
