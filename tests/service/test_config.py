"""One definition per service option: ``ServiceConfig`` and ``ReplayConfig``.

``repro serve``, ``repro worker`` and ``repro loadtest`` take their
service flags' defaults from :class:`~repro.service.ServiceConfig` and
loadtest's client flags' defaults from
:class:`~repro.loadgen.ReplayConfig`; both dataclasses check their ranges,
and the CLI turns a rejected value into a usage error (exit 2) before
any port is bound or any request is sent.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.service.server as server_module
from repro import cli
from repro.loadgen import ReplayConfig
from repro.service import ServiceConfig, SolverService


FAST = {"algorithm": "mis", "params": {"n": 40, "c": 0.35}, "seed": 5}


def _parse(*argv):
    parser = cli.build_parser()
    return parser.parse_args(argv), parser


class TestDefaults:
    def test_serve_flags_default_to_service_config(self):
        args, parser = _parse("serve")
        assert cli._service_config(args, parser) == ServiceConfig()

    def test_worker_flags_differ_only_by_the_serial_backend(self):
        args, parser = _parse("worker")
        assert cli._service_config(args, parser) == ServiceConfig(backend="serial")

    def test_loadtest_flags_default_to_both_configs(self):
        args, parser = _parse("loadtest")
        assert cli._service_config(args, parser) == ServiceConfig()
        assert cli._replay_config(args, parser) == ReplayConfig()

    def test_flags_reach_the_config(self):
        args, parser = _parse(
            "serve", "--backend", "serial", "--max-batch", "4", "--batch-wait-ms", "0",
            "--no-adaptive", "--max-queue", "0", "--deadline-ms", "250",
        )
        assert cli._service_config(args, parser) == ServiceConfig(
            backend="serial",
            max_batch=4,
            batch_wait_ms=0.0,
            adaptive=False,
            max_queue=0,
            deadline_ms=250.0,
        )


class TestServiceConfigRanges:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend", "dask"),
            ("jobs", 0),
            ("max_batch", 0),
            ("batch_wait_ms", -1.0),
            ("target_p99_ms", 0.0),
            ("target_p99_ms", -5.0),
            ("max_queue", -3),
            ("deadline_ms", -5.0),
        ],
    )
    def test_out_of_range_value_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("deadline_ms", [None, 0.0])
    def test_none_and_zero_mean_no_deadline(self, deadline_ms):
        service = SolverService(ServiceConfig(deadline_ms=deadline_ms))
        assert service.deadline is None

    def test_zero_max_queue_disables_shedding(self):
        async def solve():
            service = SolverService(ServiceConfig(backend="serial", max_queue=0))
            service._admitted = 10**6  # a backlog any bound would shed
            try:
                status, _, _ = await service.handle("POST", "/solve", json.dumps(FAST).encode())
            finally:
                await service.aclose()
            return status

        assert asyncio.run(solve()) == 200

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().max_batch = 1


class TestReplayConfigRanges:
    @pytest.mark.parametrize(
        "field,value",
        [("rate_scale", 0.0), ("rate_scale", -2.0), ("deadline_ms", 0.0), ("deadline_ms", -3.0)],
    )
    def test_out_of_range_value_is_rejected(self, field, value):
        with pytest.raises(ValueError):
            ReplayConfig(**{field: value})


@pytest.fixture
def no_service(monkeypatch):
    """Refuse to build a service: a flag the CLI let through would bind a port."""

    def refuse(*args, **kwargs):
        raise AssertionError("a service was built from out-of-range options")

    monkeypatch.setattr(server_module, "SolverService", refuse)


#: A short trace, so a flag the CLI let through fails fast instead of replaying.
SHORT = ["--trace", "poisson", "--rate", "50", "--duration", "0.5"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["serve", "--deadline-ms", "-5"], "deadline_ms must not be negative"),
        (["serve", "--batch-wait-ms", "-1"], "batch_wait_ms must not be negative"),
        (["serve", "--target-p99-ms", "0"], "target_p99_ms must be positive"),
        (["serve", "--max-queue", "-3"], "max_queue must not be negative"),
        (["serve", "--port", "70000"], "must be in [0, 65535]"),
        (["worker", "--deadline-ms", "-5"], "deadline_ms must not be negative"),
        (["worker", "--port", "-1"], "must be in [0, 65535]"),
        (["loadtest", *SHORT, "--client-deadline-ms", "-3"], "client deadline must be positive"),
        (["loadtest", *SHORT, "--rate-scale", "0"], "rate_scale must be positive"),
        (["loadtest", *SHORT, "--deadline-ms", "-5"], "deadline_ms must not be negative"),
        (["loadtest", *SHORT, "--max-queue", "-1"], "max_queue must not be negative"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_out_of_range_flag_is_a_usage_error(no_service, capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
