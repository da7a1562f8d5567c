"""Command-line interface for running the reproduction experiments.

Installed as ``python -m repro``.  Subcommands:

``solve``
    Solve one problem instance through the unified algorithm registry and
    print the canonical JSON response — byte-identical to
    :func:`repro.solve` and to a ``repro serve`` response body for the
    same ``(algorithm, scenario, params, seed, trials)``.

``algorithms``
    Print the algorithm registry (name, kind, parameters, guarantee) — the
    same source of truth behind ``repro solve``, the experiment drivers,
    and the service's ``/algorithms`` route.

``figure1``
    Run every (or selected) Figure-1 experiment and print the measured table
    (the same data as ``examples/reproduce_figure1.py``).

``experiment``
    Run a single named experiment with a chosen seed / trial count and print
    its full record (parameters, metrics, theoretical bounds).

``ablation`` / ``scaling``
    Run a named grid — one Figure-1 row swept over µ, η (as µ) or ε, or
    over the workload's ``n`` or ``c`` — and print its records, which carry
    the row's theorem bounds and certificate check like ``figure1``'s.
    ``--algorithm`` picks the row by registry name.

``data``
    Dataset tools (see ``docs/DATASETS.md``): ``convert`` parses a raw
    dataset file (SNAP edge list, Matrix Market, DIMACS, set-cover text;
    gzip transparent) into the fast ``.npz`` instance store, ``info``
    inspects any dataset file, ``list`` prints the scenario registry.

``serve``
    Run the batched solver service (see ``docs/SERVICE.md``): an asyncio
    HTTP server that micro-batches concurrent JSON solve requests through
    the sweep backends and answers byte-identically to a direct library
    call with the same (scenario, algorithm, params, seed).  Batching is
    latency-aware by default (``--target-p99-ms``), overload is shed with
    429s (``--max-queue``), and per-request deadlines return 504s
    (``--deadline-ms``).

``worker``
    Run a distributed sweep worker (see ``docs/DISTRIBUTED.md``): the
    solver service plus the ``/register``/``/pull``/``/result`` endpoints
    a coordinator drives.  Start several (on one or many hosts), then run
    any sweep with ``--backend distributed --workers host:port,...``.

``loadtest``
    Replay a seeded request trace (Poisson / bursty on-off / ramp / a
    recorded JSONL file) against a live or in-process service over
    keep-alive connections and report p50/p99/p999 latency, throughput,
    shed (429) and error counts, and server batch occupancy.  Exits
    non-zero when p99 exceeds ``--gate-p99-ms``, on any 5xx with
    ``--fail-on-5xx``, and on any ``--verify`` golden mismatch.

``serve``, ``worker`` and loadtest's in-process server take one flag per
:class:`~repro.service.ServiceConfig` field (the worker defaults to
``--backend serial``); an out-of-range value is a usage error (exit 2).

The experiment subcommands accept ``--seed`` (default 2018), ``--json``
and ``--scenario NAME`` / ``--scenario file:PATH`` to run on a named
workload or an ingested dataset instead of the built-in generators
(``scaling n`` and ``scaling c`` excepted — their sweep variable shapes the
generated workload).  A scenario of the wrong kind for a row, or an
``--algorithm`` with no grid for the sweep, is a usage error (exit 2).

Every experiment subcommand accepts the execution-backend flags:

``--backend {serial,mp,batch,distributed}``
    How to execute the sweep's independent points (default ``serial``);
    ``mp`` fans points out across worker processes, ``distributed``
    across ``repro worker`` processes/hosts — identical results either way.
``--jobs N``
    Worker count for ``--backend mp`` (default: all CPUs).
``--workers HOST:PORT,...``
    Worker addresses for ``--backend distributed`` (default: the
    ``REPRO_WORKERS`` environment variable).
``--cache-dir PATH``
    Disk cache for completed points; re-runs skip work already done.

Examples
--------
::

    python -m repro solve matching --seed 7 --param n=80 --param mu=0.25
    python -m repro algorithms
    python -m repro figure1 --seed 7 --trials 3
    python -m repro figure1 --backend mp --jobs 4 --cache-dir .sweep-cache
    python -m repro figure1 --scenario social-sparse
    python -m repro experiment fig1-matching --seed 1
    python -m repro ablation mu --algorithm matching --backend mp
    python -m repro scaling n --algorithm mis
    python -m repro data convert as-caida.txt.gz caida.npz
    python -m repro figure1 --scenario file:caida.npz
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from . import loadgen
from ._version import __version__
from .analysis import format_table
from .backends import BACKENDS
from .datasets import (
    FORMATS,
    SCENARIOS,
    DatasetError,
    detect_format,
    load_file,
    resolve_scenario,
    save_dataset,
)
from .experiments import GRIDS, find_grid, run_figure1
from .experiments.grids import grid_pairs
from .experiments.harness import ExperimentRecord
from .registry import RegistryError, experiment_names, iter_algorithms
from .registry import solve as registry_solve
from .service import ServiceConfig, serve

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return jobs


def _non_negative_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if number < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return number


def _port(value: str) -> int:
    try:
        port = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError("must be in [0, 65535]")
    return port


def _cache_dir(value: str) -> str:
    import os

    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def _workers_list(value: str) -> list[str]:
    addresses = [part.strip() for part in value.split(",") if part.strip()]
    if not addresses:
        raise argparse.ArgumentTypeError("expected host:port[,host:port...]")
    for address in addresses:
        host, sep, port = address.rpartition(":")
        if "//" not in address and (not sep or not host or not port.isdigit()):
            raise argparse.ArgumentTypeError(f"{address!r} is not host:port")
    return addresses


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution-backend flags to a subcommand parser."""
    group = parser.add_argument_group("execution backend")
    group.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="serial",
        help="how to execute the sweep's independent points (default: serial)",
    )
    group.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes for --backend mp (default: all CPUs)",
    )
    group.add_argument(
        "--workers",
        type=_workers_list,
        default=None,
        metavar="HOST:PORT,...",
        help="worker addresses for --backend distributed (default: the "
        "REPRO_WORKERS environment variable; see docs/DISTRIBUTED.md)",
    )
    group.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=None,
        metavar="PATH",
        help="cache completed points here; re-runs skip finished work",
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Attach the experiment subcommands' ``--seed`` and ``--json`` flags."""
    parser.add_argument("--seed", type=_non_negative_int, default=2018)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _add_scenario_option(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--scenario`` flag to a subcommand parser."""
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME|file:PATH",
        help="run on a named workload scenario or an ingested dataset file "
        "(see 'repro data list' and docs/DATASETS.md)",
    )


def _param_value(raw: str) -> object:
    """Parse a ``--param`` value: JSON when possible, a bare string otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _param_pair(value: str) -> tuple[str, object]:
    key, sep, raw = value.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"{value!r} is not of the form key=value")
    return key, _param_value(raw)


def _add_service_options(parser: argparse._ActionsContainer, defaults: ServiceConfig) -> None:
    """Attach one flag per :class:`ServiceConfig` field, defaulting to ``defaults``."""
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=defaults.backend,
        help="how each micro-batch (in a worker, each pulled point) executes; "
        "batch memoises duplicate concurrent requests (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=defaults.jobs,
        metavar="N",
        help="worker processes for --backend mp (default: all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=defaults.cache_dir,
        metavar="PATH",
        help="ResultCache directory; repeated requests replay instead of recomputing",
    )
    parser.add_argument(
        "--max-batch",
        type=_positive_int,
        default=defaults.max_batch,
        metavar="N",
        help="largest micro-batch a single sweep call executes (default: %(default)s)",
    )
    parser.add_argument(
        "--batch-wait-ms",
        type=float,
        default=defaults.batch_wait_ms,
        metavar="MS",
        help="how long a batch waits for more concurrent requests (default: %(default)g)",
    )
    parser.add_argument(
        "--no-adaptive",
        dest="adaptive",
        action="store_false",
        default=defaults.adaptive,
        help="disable latency-aware adaptive batching (fixed max-batch/wait)",
    )
    parser.add_argument(
        "--target-p99-ms",
        type=float,
        default=defaults.target_p99_ms,
        metavar="MS",
        help="latency SLO the adaptive batcher steers under (default: %(default)g)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=defaults.max_queue,
        metavar="N",
        help="shed requests with 429 beyond this queue depth; 0 disables "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=defaults.deadline_ms,
        metavar="MS",
        help="default per-request deadline -> 504 (default: none; clients "
        "may tighten via X-Repro-Deadline-Ms)",
    )


def _service_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ServiceConfig:
    """The :class:`ServiceConfig` that :func:`_add_service_options`' flags describe."""
    try:
        return ServiceConfig(**{f.name: getattr(args, f.name) for f in fields(ServiceConfig)})
    except ValueError as exc:
        parser.error(str(exc))


def _add_listener(
    sub: argparse._SubParsersAction, name: str, port: int, defaults: ServiceConfig, **about: str
) -> None:
    """Add ``serve`` or ``worker``: the listener flags around the service flags."""
    listener = sub.add_parser(name, **about)
    listener.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    listener.add_argument(
        "--port",
        type=_port,
        default=port,
        help="TCP port (default: %(default)s; 0 picks a free port and prints it)",
    )
    _add_service_options(listener, defaults)
    listener.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a SIGTERM shutdown waits for in-flight and queued "
        "work to finish (default: %(default)g)",
    )
    listener.set_defaults(handler=_run_serve)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Greedy and Local Ratio Algorithms in the MapReduce Model' (SPAA 2018)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_lines = [
        f"  {spec.name:<18} {spec.guarantee}" for spec in iter_algorithms()
    ]
    slv = sub.add_parser(
        "solve",
        help="solve one instance via the algorithm registry (canonical JSON output)",
        description=(
            "Solve one problem instance through the unified algorithm registry "
            "and print the canonical JSON response — byte-identical to "
            "repro.solve() and to a `repro serve` response for the same "
            "(algorithm, scenario, params, seed, trials)."
        ),
        epilog="registered algorithms (see `repro algorithms`):\n" + "\n".join(solve_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    slv.add_argument(
        "algorithm",
        metavar="ALGORITHM",
        help="registry name or alias (see `repro algorithms`)",
    )
    slv.add_argument("--seed", type=_non_negative_int, default=0)
    slv.add_argument("--trials", type=_positive_int, default=1)
    slv.add_argument(
        "--param",
        "-p",
        dest="params",
        type=_param_pair,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="solver parameter override (repeatable; values parsed as JSON "
        "when possible, e.g. -p n=80 -p mu=0.25)",
    )
    slv.add_argument(
        "--params-json",
        default=None,
        metavar="JSON",
        help="solver parameter overrides as one JSON object",
    )
    slv.add_argument(
        "--pretty", action="store_true", help="indent the JSON instead of canonical bytes"
    )
    _add_scenario_option(slv)
    _add_backend_options(slv)
    slv.set_defaults(handler=_run_solve)

    algs = sub.add_parser(
        "algorithms",
        help="list the algorithm registry (name, kind, params, guarantee)",
    )
    algs.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    algs.set_defaults(handler=_run_algorithms)

    lint = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (see docs/ANALYSIS.md)",
        description=(
            "Run the repro static-analysis pass: one rule per hazard, each "
            "reporting a hazard in the module it sits in and in every helper "
            "that module's code reaches — DET001 determinism (unseeded RNG, "
            "order-leaking set iteration, wall-clock reads in solvers), "
            "WIRE001 wire canonicality (non-canonical JSON on wire paths) "
            "and CONC001 lock discipline (unlocked shared state).  A finding "
            "is accepted only by a 'repro-lint: disable=CODE' comment on its "
            "line.  Exits 1 on any unsuppressed finding or per-file error, 2 "
            "when no Python files are found."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to scan (default: src)",
    )
    lint.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    lint.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="directory finding paths are relative to (default: cwd)",
    )
    lint.add_argument(
        "--verbose", "-v", action="store_true", help="also list suppressed findings"
    )
    lint.set_defaults(handler=_run_lint)

    fig1 = sub.add_parser("figure1", help="run the Figure-1 experiments")
    fig1.add_argument("--trials", type=_positive_int, default=1)
    fig1.add_argument(
        "--only",
        nargs="*",
        choices=sorted(experiment_names()),
        help="restrict to these experiments",
    )
    _add_run_options(fig1)
    _add_scenario_option(fig1)
    _add_backend_options(fig1)
    fig1.set_defaults(handler=_run_figure1)

    single = sub.add_parser("experiment", help="run one experiment and print its record")
    single.add_argument("name", choices=sorted(experiment_names()))
    single.add_argument("--trials", type=_positive_int, default=1)
    _add_run_options(single)
    _add_scenario_option(single)
    _add_backend_options(single)
    single.set_defaults(handler=_run_single)

    for command, about in (
        ("ablation", "sweep one Figure-1 row over µ, η (as µ = exponent − 1) or ε"),
        ("scaling", "sweep one Figure-1 row over the workload's n or c, or over µ for space"),
    ):
        grids = sub.add_parser(command, help=about, description=about)
        grids.add_argument("sweep", choices=[sweep for name, sweep in GRIDS if name == command])
        grids.add_argument(
            "--algorithm",
            default=None,
            metavar="NAME",
            help="registry name of the row to sweep, the first listed by default "
            f"({grid_pairs(command)})",
        )
        _add_run_options(grids)
        _add_scenario_option(grids)
        _add_backend_options(grids)
        grids.set_defaults(handler=_run_grid)

    _add_listener(
        sub, "serve", 8080, ServiceConfig(),
        help="run the batched solver service (see docs/SERVICE.md)",
    )
    _add_listener(
        sub, "worker", 8081, ServiceConfig(backend="serial"),
        help="run a distributed sweep worker (see docs/DISTRIBUTED.md)",
        description=(
            "Run the solver service in worker mode: everything `repro serve` "
            "does, plus the /register, /pull, and /result endpoints a "
            "distributed-sweep coordinator drives.  Start one per "
            "core/host, then run any sweep with --backend distributed "
            "--workers host:port,host:port,..."
        ),
    )

    load = sub.add_parser(
        "loadtest",
        help="replay a request trace against the service and report SLO percentiles",
        description=(
            "Replay a seeded, deterministic request trace against a live "
            "(--url) or in-process repro service over keep-alive connections; "
            "report p50/p99/p999 latency, throughput, 429/5xx counts, and "
            "server batch occupancy (see docs/SERVICE.md)."
        ),
    )
    load.add_argument(
        "--url",
        default=None,
        help="target an already-running service instead of an in-process one",
    )
    trace_group = load.add_argument_group("trace")
    trace_group.add_argument(
        "--trace",
        choices=["poisson", "bursty", "ramp"],
        default="bursty",
        help="synthetic arrival process (default: bursty on/off)",
    )
    trace_group.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="replay a recorded JSONL trace instead of a synthetic one",
    )
    trace_group.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="save the generated trace as JSONL before replaying",
    )
    trace_group.add_argument(
        "--rate", type=float, default=80.0, help="arrival rate req/s; bursty: ON-window rate (default: 80)"
    )
    trace_group.add_argument(
        "--end-rate", type=float, default=None, help="ramp: final rate (default: 4x --rate)"
    )
    trace_group.add_argument(
        "--duration", type=float, default=10.0, help="trace length in seconds (default: 10)"
    )
    trace_group.add_argument(
        "--on-seconds", type=float, default=0.5, help="bursty: ON window length (default: 0.5)"
    )
    trace_group.add_argument(
        "--off-seconds", type=float, default=0.5, help="bursty: OFF window length (default: 0.5)"
    )
    trace_group.add_argument("--seed", type=int, default=2018)
    replay = loadgen.ReplayConfig()
    trace_group.add_argument(
        "--rate-scale",
        type=float,
        default=replay.rate_scale,
        help="replay speed multiplier (2.0 = twice as fast; default: %(default)s)",
    )
    trace_group.add_argument(
        "--max-requests", type=_positive_int, default=replay.max_requests, help="truncate the trace"
    )
    workload = load.add_argument_group("request mix")
    workload.add_argument("--algorithm", default="mis")
    workload.add_argument("--n", type=int, default=60, help="generator workload size (default: 60)")
    workload.add_argument(
        "--distinct", type=_positive_int, default=8, help="distinct seeds in the mix (default: 8)"
    )
    _add_scenario_option(load)
    client = load.add_argument_group("client")
    client.add_argument(
        "--connections",
        type=_positive_int,
        default=replay.connections,
        help="keep-alive connection pool (default: %(default)s)",
    )
    client.add_argument(
        "--client-deadline-ms",
        type=float,
        default=replay.deadline_ms,
        metavar="MS",
        help="send X-Repro-Deadline-Ms on every request",
    )
    client.add_argument(
        "--verify",
        action="store_true",
        default=replay.verify,
        help="check every 200 body byte-for-byte against the direct library call",
    )
    _add_service_options(
        load.add_argument_group("in-process server (ignored with --url)"), ServiceConfig()
    )
    gates = load.add_argument_group("report & gates")
    gates.add_argument("--json", action="store_true", help="emit the full JSON report")
    gates.add_argument(
        "--gate-p99-ms", type=float, default=None, metavar="MS",
        help="exit non-zero when p99 exceeds this bound",
    )
    gates.add_argument(
        "--fail-on-5xx", action="store_true", help="exit non-zero on any 5xx/transport error"
    )
    load.set_defaults(handler=_run_loadtest)

    data = sub.add_parser("data", help="dataset tools: convert, inspect, list scenarios")
    data.set_defaults(handler=_run_data)
    data_sub = data.add_subparsers(dest="data_command", required=True)
    convert = data_sub.add_parser(
        "convert", help="parse a raw dataset file into the fast .npz instance store"
    )
    convert.add_argument("input", help="raw dataset file (gzip transparent)")
    convert.add_argument("output", help="output .npz path")
    convert.add_argument(
        "--format",
        dest="fmt",
        choices=sorted(FORMATS),
        default=None,
        help="input format (default: detect from extension/content)",
    )
    convert.add_argument("--name", default=None, help="dataset name recorded in the header")
    info = data_sub.add_parser("info", help="inspect a dataset file (raw or stored)")
    info.add_argument("path")
    info.add_argument("--json", action="store_true")
    lst = data_sub.add_parser("list", help="list the registered workload scenarios")
    lst.add_argument("--json", action="store_true")
    return parser


def _record_to_json(record: ExperimentRecord) -> dict[str, object]:
    # Values are normalised through the same _jsonable mapping the
    # library/service canonical path uses — a lossy ``default=str`` here
    # would stringify e.g. np.int64 metrics and silently drift from the
    # bytes the other surfaces emit for the same record.
    from .backends.base import _jsonable

    return {
        "experiment": record.experiment,
        "valid": record.valid,
        "parameters": _jsonable(record.parameters),
        "metrics": _jsonable(record.metrics),
        "bounds": _jsonable(record.bounds),
        "notes": _jsonable(record.notes),
    }


def _print_records(records: Sequence[ExperimentRecord], as_json: bool) -> None:
    if as_json:
        print(json.dumps([_record_to_json(r) for r in records], indent=2, sort_keys=True))
        return
    rows = []
    metric_keys: list[str] = []
    for record in records:
        for key in record.metrics:
            if key not in metric_keys:
                metric_keys.append(key)
    headers = ["experiment", "valid"] + [f"param:{k}" for k in records[0].parameters] + metric_keys
    for record in records:
        row: list[object] = [record.experiment, "OK" if record.valid else "INVALID"]
        row.extend(record.parameters.get(k, "") for k in records[0].parameters)
        row.extend(record.metrics.get(k, "") for k in metric_keys)
        rows.append(row)
    print(format_table(headers, rows))


def _backend_kwargs(args: argparse.Namespace) -> dict[str, object]:
    backend: object = args.backend
    if args.backend == "distributed":
        # Construct the backend here (instead of forwarding a `workers`
        # kwarg) so every sweep driver keeps its existing signature —
        # run_sweep accepts Backend instances everywhere.
        from .backends.distributed import DistributedBackend

        backend = DistributedBackend(getattr(args, "workers", None))
    return {
        "backend": backend,
        "jobs": args.jobs,
        "cache": args.cache_dir,
    }


def _run_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params: dict[str, object] = {}
    if args.params_json is not None:
        try:
            decoded = json.loads(args.params_json)
        except json.JSONDecodeError as exc:
            parser.error(f"--params-json is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            parser.error("--params-json must be a JSON object")
        params.update(decoded)
    params.update(dict(args.params))
    result = registry_solve(
        args.algorithm,
        scenario=args.scenario,
        params=params,
        seed=args.seed,
        trials=args.trials,
        **_backend_kwargs(args),
    )
    if args.pretty:
        print(json.dumps(result.payload(), indent=2, sort_keys=True))
    else:
        sys.stdout.buffer.write(result.canonical_json() + b"\n")
        sys.stdout.buffer.flush()
    return 0 if result.valid else 1


def _run_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    from .analysis.lint import lint_paths, render_json, render_text

    report = lint_paths(args.paths, root=Path(args.root).resolve())
    print(render_json(report) if args.json else render_text(report, verbose=args.verbose))
    if report.files_scanned == 0:
        print("error: no python files found under the given paths", file=sys.stderr)
        return 2
    return report.exit_code


def _run_algorithms(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    specs = list(iter_algorithms())
    if args.json:
        # Same rendering as the service's GET /algorithms — one source of truth.
        payload = {spec.name: spec.listing_payload() for spec in specs}
        # sort_keys keeps this byte-aligned (modulo whitespace) with the
        # service's GET /algorithms, which renders canonically.
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            spec.name,
            spec.kind,
            ", ".join(f"{k}={v!r}" for k, v in spec.params.items()),
            spec.guarantee,
            spec.theorem,
        ]
        for spec in specs
    ]
    print(format_table(["algorithm", "kind", "params (defaults)", "guarantee", "theorem"], rows))
    print(
        "\naliases: "
        + "; ".join(f"{spec.name} ← {', '.join(spec.aliases)}" for spec in specs if spec.aliases)
    )
    return 0


def _run_points(args: argparse.Namespace, **selection: object) -> int:
    """Run Figure-1 points, print their records; exit 1 if any is invalid."""
    records = run_figure1(
        args.seed, scenario=args.scenario, **selection, **_backend_kwargs(args)
    )
    _print_records(records, args.json)
    return 0 if all(r.valid for r in records) else 1


def _run_figure1(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    return _run_points(args, experiments=args.only or None, trials=args.trials)


def _run_grid(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        grid = find_grid(args.command, args.sweep, args.algorithm)
    except ValueError as exc:
        parser.error(str(exc))
    if grid.sweeps_workload and args.scenario is not None:
        parser.error(
            f"{args.command} {args.sweep} sweeps the generated workload's "
            f"{grid.param}; --scenario is not meaningful there"
        )
    return _run_points(args, cells=grid.cells())


def _run_single(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    [record] = run_figure1(
        args.seed,
        experiments=[args.name],
        trials=args.trials,
        scenario=args.scenario,
        **_backend_kwargs(args),
    )
    if args.json:
        print(json.dumps(_record_to_json(record), indent=2, sort_keys=True))
    else:
        print(f"experiment: {record.experiment}  (valid: {record.valid})")
        print(f"parameters: {record.parameters}")
        rows = [[k, v, record.bounds.get(k, "")] for k, v in sorted(record.metrics.items())]
        print(format_table(["metric", "measured", "theoretical bound"], rows))
    return 0 if record.valid else 1


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _dataset_summary(obj) -> dict[str, object]:
    """JSON-friendly stats for a loaded graph or set cover instance."""
    from .graphs import Graph

    if isinstance(obj, Graph):
        return {
            "kind": "graph",
            "num_vertices": obj.num_vertices,
            "num_edges": obj.num_edges,
            "densification_exponent": round(obj.densification_exponent(), 4),
            "max_degree": obj.max_degree(),
            "weighted": bool(obj.num_edges and not bool(np.all(obj.weights == 1.0))),
            "total_weight": obj.total_weight(),
        }
    return {
        "kind": "setcover",
        "num_sets": obj.num_sets,
        "num_elements": obj.num_elements,
        "frequency": obj.frequency,
        "max_set_size": obj.max_set_size,
        "weight_ratio": round(obj.weight_ratio, 6),
        "total_size": obj.total_size,
    }


def _run_data(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import os

    if args.data_command == "list":
        rows = [
            [s.name, s.kind, s.description]
            for s in (SCENARIOS[name] for name in sorted(SCENARIOS))
        ]
        if args.json:
            payload = [{"name": r[0], "kind": r[1], "description": r[2]} for r in rows]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(format_table(["scenario", "kind", "description"], rows))
            print("\nplus 'file:<path>' for any dataset file (raw or converted .npz).")
        return 0

    if args.data_command == "info":
        obj, info = load_file(args.path)
        summary = _dataset_summary(obj)
        if args.json:
            from .backends.base import _jsonable

            payload = _jsonable({"path": args.path, "info": info, **summary})
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            rows = [[k, v] for k, v in summary.items()]
            rows += [[f"ingest:{k}", v] for k, v in info.items() if k != "header"]
            if "header" in info:
                header = info["header"]
                rows += [
                    ["store:schema_version", header.get("schema_version")],
                    ["store:name", header.get("name", "")],
                    ["store:source", header.get("source", "")],
                ]
            print(format_table(["property", "value"], rows))
        return 0

    # convert
    fmt = args.fmt or detect_format(args.input)
    if fmt == "store":
        raise DatasetError(f"{args.input!r} is already a stored dataset")
    obj, info = load_file(args.input, fmt)
    name = args.name or os.path.basename(args.input)
    header = save_dataset(args.output, obj, name=name, source=args.input, extra=info)
    size = os.path.getsize(args.output)
    summary = _dataset_summary(obj)
    shape = ", ".join(f"{k}={v}" for k, v in summary.items() if k != "kind")
    print(f"converted {args.input} ({info['format']}) -> {args.output}")
    print(f"  {header['kind']}: {shape}")
    print(f"  {_format_bytes(size)} on disk; load it with --scenario file:{args.output}")
    return 0


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    return serve(
        _service_config(args, parser),
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        worker=args.command == "worker",
    )


def _build_loadtest_trace(args: argparse.Namespace) -> loadgen.RequestTrace:
    if args.trace_file:
        return loadgen.load_trace(args.trace_file)
    bodies = loadgen.default_bodies(
        algorithm=args.algorithm,
        n=args.n,
        distinct=args.distinct,
        scenario=args.scenario,
    )
    if args.trace == "poisson":
        return loadgen.poisson_trace(
            rate=args.rate, duration=args.duration, bodies=bodies, seed=args.seed
        )
    if args.trace == "ramp":
        end_rate = args.end_rate if args.end_rate is not None else args.rate * 4.0
        return loadgen.ramp_trace(
            start_rate=args.rate,
            end_rate=end_rate,
            duration=args.duration,
            bodies=bodies,
            seed=args.seed,
        )
    return loadgen.onoff_trace(
        on_rate=args.rate,
        duration=args.duration,
        bodies=bodies,
        on_seconds=args.on_seconds,
        off_seconds=args.off_seconds,
        seed=args.seed,
    )


def _replay_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> loadgen.ReplayConfig:
    """The :class:`~repro.loadgen.ReplayConfig` that loadtest's client flags describe."""
    try:
        return loadgen.ReplayConfig(
            rate_scale=args.rate_scale,
            max_requests=args.max_requests,
            connections=args.connections,
            verify=args.verify,
            deadline_ms=args.client_deadline_ms,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _run_loadtest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _replay_config(args, parser)
    service = None if args.url else _service_config(args, parser)
    try:
        trace = _build_loadtest_trace(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if not len(trace):
        parser.error("the trace is empty; raise --rate or --duration")
    if args.record:
        loadgen.save_trace(trace, args.record)
        print(f"recorded {len(trace)} requests to {args.record}")

    report = loadgen.run_replay(trace, url=args.url, config=config, service=service)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())

    failures = []
    p99 = report.percentile_ms(99.0)
    if args.gate_p99_ms is not None and p99 > args.gate_p99_ms:
        failures.append(f"p99 {p99:.1f} ms exceeds the {args.gate_p99_ms:.1f} ms bound")
    if args.fail_on_5xx and (report.server_errors or report.transport_errors):
        failures.append(
            f"{report.server_errors} server 5xx and "
            f"{report.transport_errors} transport errors (0 allowed)"
        )
    if report.golden_mismatches:
        failures.append(
            f"{report.golden_mismatches} responses differ from direct library calls"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None and args.backend != "mp":
        parser.error("--jobs is only meaningful with --backend mp")
    if getattr(args, "workers", None) is not None and args.backend != "distributed":
        parser.error("--workers is only meaningful with --backend distributed")
    if getattr(args, "scenario", None) is not None:
        try:
            resolve_scenario(args.scenario)
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
    try:
        return args.handler(args, parser)
    except (DatasetError, RegistryError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
