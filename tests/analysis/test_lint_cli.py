"""`repro lint` CLI behaviour: exit codes, JSON, per-file errors, self-check."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

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

    def test_missing_path_is_a_per_file_error(self, tmp_path, capsys):
        _tree(tmp_path)
        assert main(["lint", "pkg", "pkgx", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "error: pkgx: no such file or directory" in out
        # The files under the path that exists are still linted and reported.
        assert "pkg/service/racy.py:6:5: CONC001" in out
        assert "FAIL 2 files scanned" in out

    @pytest.mark.parametrize("code", ["DET002", "DET003", "DET004", "DET101", "CONC101", "REG001"])
    def test_unknown_disable_code_is_a_per_file_error(self, tmp_path, capsys, code):
        pkg = _tree(tmp_path)
        (pkg / "core" / "clean.py").write_text(f"X = sorted({{1, 2}})  # repro-lint: disable={code}\n")
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"error: pkg/core/clean.py: unknown lint code(s) ['{code}'] in a disable comment" in out
        assert "pkg/service/racy.py:6:5: CONC001" in out

    def test_help_lists_three_options(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # keep the usage on one line
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: repro lint [-h] [--json] [--root DIR] [--verbose] [PATH ...]"


class TestSelfCheck:
    """The gate CI enforces: the shipped tree has no unsuppressed finding."""

    def test_repro_lint_src_is_clean(self, capsys):
        assert (REPO_ROOT / "src" / "repro").is_dir()
        exit_code = main(["lint", "src", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert exit_code == 0, f"repro lint src is not clean:\n{out}"

    def test_deliberate_suppressions_are_visible_in_verbose_output(self, capsys):
        # The three reviewed WIRE001 exemptions (cache insertion-order render,
        # store ingestion boundary, protocol validation round-trip) must
        # surface as suppressed — not silently out of scope.
        assert main(["lint", "src", "--root", str(REPO_ROOT), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "backends/cache.py" in out and "[suppressed]" in out
