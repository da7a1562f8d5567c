"""The exit path of ``repro loadtest``: its three absolute checks.

Each test replays a tiny Poisson trace against an in-process service and
reads the exit code: 0 for a clean verified run, 1 when p99 exceeds
``--gate-p99-ms``, and 1 on any golden mismatch whatever flags are set.
"""

from __future__ import annotations

import pytest

import repro.service.api as service_api
from repro.cli import main

TINY = [
    "loadtest",
    "--trace", "poisson",
    "--rate", "40",
    "--duration", "0.25",
    "--n", "24",
    "--distinct", "2",
    "--connections", "2",
    "--backend", "serial",
]


def test_clean_verified_run_exits_zero(capsys):
    assert main(TINY + ["--verify", "--fail-on-5xx"]) == 0
    out = capsys.readouterr().out
    assert "golden mismatches: 0" in out
    assert "FAIL:" not in out


def test_p99_bound_below_measured_fails(capsys):
    assert main(TINY + ["--gate-p99-ms", "0"]) == 1
    assert "FAIL: p99 " in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags", [[], ["--fail-on-5xx"], ["--gate-p99-ms", "1e9"]], ids=["bare", "5xx", "p99"]
)
def test_golden_mismatch_fails_whatever_the_flags(monkeypatch, capsys, flags):
    # Corrupt the goldens only: the in-process server renders its own bytes.
    monkeypatch.setattr(service_api, "solve_direct", lambda request: b"not the served bytes")
    assert main(TINY + ["--verify"] + flags) == 1
    assert "responses differ from direct library calls" in capsys.readouterr().out
