"""`repro lint` CLI behaviour: exit codes, JSON, baseline workflow, self-check."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = """
def solve(xs):
    return sorted(set(xs))
"""

RACY = """
# repro-lint: scope=threaded
_CACHE = {}

def put(key, value):
    _CACHE[key] = value
"""


def _tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "pkg"
    (pkg / "service").mkdir(parents=True)
    (pkg / "core").mkdir()
    (pkg / "core" / "clean.py").write_text(textwrap.dedent(CLEAN))
    (pkg / "service" / "racy.py").write_text(textwrap.dedent(RACY))
    return pkg


class TestLintCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text(textwrap.dedent(CLEAN))
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "pkg/service/racy.py:6:5: CONC001" in out
        assert "FAIL" in out

    def test_json_report_is_canonical(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["lint", "pkg", "--root", str(tmp_path), "--json"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["clean"] is False
        assert payload["counts"] == {"CONC001": 1}
        # Canonical: re-encoding the parsed payload reproduces the bytes.
        assert out.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        _tree(tmp_path)
        root = str(tmp_path)
        assert main(["lint", "pkg", "--root", root, "--update-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").exists()
        assert main(["lint", "pkg", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # --no-baseline sees the debt again.
        assert main(["lint", "pkg", "--root", root, "--no-baseline"]) == 1

    def test_no_files_exit_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["lint", "empty", "--root", str(tmp_path)]) == 2

    def test_unparsable_only_tree_exits_one_not_two(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("def broken(:\n")
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "error: pkg/bad.py:" in captured.out
        assert "FAIL 1 files scanned" in captured.out
        assert "no python files found" not in captured.err

    def test_unknown_scope_comment_is_a_per_file_error(self, tmp_path, capsys):
        pkg = _tree(tmp_path)
        (pkg / "typo.py").write_text("# repro-lint: scope=determinstic\nX = 1\n")
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "error: pkg/typo.py: unknown lint scope(s) ['determinstic']" in out
        # The other files are still linted and reported.
        assert "pkg/service/racy.py:6:5: CONC001" in out
        assert "FAIL 3 files scanned" in out

    def test_explicit_baseline_path(self, tmp_path, capsys):
        _tree(tmp_path)
        root = str(tmp_path)
        baseline = str(tmp_path / "custom-baseline.json")
        assert main(["lint", "pkg", "--root", root, "--baseline", baseline, "--update-baseline"]) == 0
        assert main(["lint", "pkg", "--root", root, "--baseline", baseline]) == 0


class TestSelfCheck:
    """The gate CI enforces: the shipped tree is clean against its baseline."""

    def test_repro_lint_src_is_clean(self, capsys):
        assert (REPO_ROOT / "src" / "repro").is_dir()
        exit_code = main(["lint", "src", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert exit_code == 0, f"repro lint src is not clean:\n{out}"

    def test_committed_baseline_parses_and_is_current_format(self):
        baseline = REPO_ROOT / "lint-baseline.json"
        assert baseline.exists(), "lint-baseline.json must be committed at the repo root"
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        assert all(
            isinstance(k, str) and isinstance(v, int) for k, v in payload["entries"].items()
        )

    def test_deliberate_suppressions_are_visible_in_verbose_output(self, capsys):
        # The three reviewed DET002 exemptions (cache insertion-order render,
        # store ingestion boundary, protocol validation round-trip) must
        # surface as suppressed — not silently out of scope.
        assert main(["lint", "src", "--root", str(REPO_ROOT), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "backends/cache.py" in out and "[suppressed]" in out
