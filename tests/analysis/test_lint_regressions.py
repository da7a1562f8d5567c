"""Regression tests for the genuine defects the lint pass surfaced
(ISSUE 9 per-module tier; ISSUE 10 interprocedural tier).

Each test pins the *behaviour* the fix restored; the corresponding
pattern is simultaneously rejected by a checker (tests/analysis/
test_lint_checkers.py), so the defect class cannot come back silently.

1. WIRE001 (then DET002) @ cli.py — ``repro algorithms --json`` rendered the registry
   without ``sort_keys``, drifting from the service's canonical
   ``GET /algorithms`` bytes despite both claiming one source of truth.
2. WIRE001 (then DET002) @ cli.py — record JSON used ``default=str``: an ``np.int64``
   metric would serialize as a *string* on the CLI surface while the
   library/service canonical path emits a number.
3. CONC001 @ distributed/worker.py — ``WorkerState.start`` wrote the
   lock-guarded stop flag without holding the lock (racy against an
   executor observing a close() → start() restart).  An executor now
   stops once it is no longer the published thread, and start() starts
   the thread under the lock.
"""

from __future__ import annotations

import json

import numpy as np

from repro.cli import main
from repro.distributed.worker import WorkerState
from repro.experiments.harness import ExperimentRecord


class TestAlgorithmsListingIdentity:
    def test_cli_json_is_byte_aligned_with_service_rendering(self, capsys):
        from repro.registry import iter_algorithms
        from repro.service.server import _dumps

        assert main(["algorithms", "--json"]) == 0
        cli_text = capsys.readouterr().out
        service_bytes = _dumps(
            {spec.name: spec.listing_payload() for spec in iter_algorithms()}
        )
        # Same payload, same key order: re-encoding the CLI output
        # canonically must reproduce the service bytes exactly.
        assert (
            json.dumps(
                json.loads(cli_text), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            == service_bytes
        )
        # And the CLI's own rendering is key-sorted (the fixed defect).
        names = list(json.loads(cli_text))
        assert names == sorted(names)


class TestRecordJSONIsLossless:
    def test_numpy_metrics_stay_numbers(self):
        from repro.cli import _record_to_json

        record = ExperimentRecord(
            "reg-test",
            parameters={"n": np.int64(80)},
            metrics={"weight": np.float64(2.5), "rounds": np.int64(3)},
            bounds={"ratio": np.float64(2.0)},
        )
        payload = json.loads(json.dumps(_record_to_json(record)))
        # Under the old ``default=str`` encoder these came back as strings.
        assert payload["metrics"]["rounds"] == 3
        assert isinstance(payload["metrics"]["rounds"], int)
        assert isinstance(payload["metrics"]["weight"], float)
        assert isinstance(payload["parameters"]["n"], int)
        assert isinstance(payload["bounds"]["ratio"], float)


class TestWorkerRestartDiscipline:
    def test_close_then_start_still_executes(self):
        from repro.distributed.protocol import encode_point
        from tests.distributed.test_worker import _point

        state = WorkerState(backend="serial", jobs=None, cache=None)
        state.start()
        try:
            state.register("s")
            state.pull("s", [encode_point(_point(11))])
            assert state.drain(timeout=30)
            state.close()
            # Restart: the new executor is the published thread and runs.
            state.start()
            state.register("s2")
            state.pull("s2", [encode_point(_point(12))])
            assert state.drain(timeout=30)
            assert state.collect("s2")["completed"]
        finally:
            state.close()


class TestWorkerThreadHandleDiscipline:
    """CONC001's cross-module pass (then CONC101) @ distributed/worker.py:
    ``start``/``close`` mutated ``_thread`` without the lock.  The old exemption
    claimed a single lifecycle thread; the cross-module analysis showed
    ``SolverService.aclose`` runs ``close()`` on an executor thread while
    ``start()`` runs on the event loop.  Both now hold the lock, so
    concurrent restarts cannot spawn a second executor."""

    def test_concurrent_start_close_yields_single_executor(self):
        import threading

        state = WorkerState(backend="serial", jobs=None, cache=None)
        stop = threading.Event()

        def churn() -> None:
            while not stop.is_set():
                state.close()

        closer = threading.Thread(target=churn)
        closer.start()
        try:
            for _ in range(50):
                state.start()
        finally:
            stop.set()
            closer.join(timeout=30)
            state.close()
        executors = [
            t
            for t in threading.enumerate()
            if t.name == "repro-worker-executor" and t.is_alive()
        ]
        # close() joined whatever start() spawned; nothing leaks.
        state.close()
        assert state._thread is None
        assert len(executors) <= 1

    def test_restart_during_close_cannot_revive_the_old_executor(self):
        """close() stops the executor; start() runs before that executor
        notices.  A shared stop flag reset by start() left the old executor
        waiting for work and close() blocked for its 30 s join."""
        import threading

        from repro.distributed.protocol import encode_point
        from tests.distributed.test_worker import _point

        state = WorkerState(backend="serial", jobs=None, cache=None)
        release = threading.Event()
        # Hold the executor on its point until the restart has happened.
        state._execute = lambda point: release.wait() and {"digest": "held", "error": "held"}
        state.start()
        old = state._thread
        joining = threading.Event()
        original_join = old.join

        def join(timeout=None):
            joining.set()
            original_join(timeout)

        old.join = join
        state.register("s")
        state.pull("s", [encode_point(_point(11))])
        closer = threading.Thread(target=state.close)
        closer.start()
        try:
            # close() has dropped the old executor, which is still busy on
            # its point; now restart before it can notice.
            assert joining.wait(timeout=30)
            state.start()
            release.set()
            closer.join(timeout=5)
            assert not closer.is_alive(), "close() is stuck joining the old executor"
            assert not old.is_alive()
        finally:
            release.set()
            state.close()

    def test_close_never_joins_an_unstarted_executor(self, monkeypatch):
        """start() used to publish the thread under the lock but start it
        after releasing it; a close() in that gap joined an unstarted
        thread and raised RuntimeError in the closer."""
        import threading

        state = WorkerState(backend="serial", jobs=None, cache=None)
        errors: list[BaseException] = []
        publishing = threading.Event()
        closed = threading.Event()

        def closer() -> None:
            publishing.wait(timeout=30)
            try:
                state.close()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
            closed.set()

        closing = threading.Thread(target=closer)
        closing.start()

        class GatedThread(threading.Thread):
            def start(self) -> None:
                # Let the closer run before the executor starts.  Once
                # start() holds the lock across the spawn, the closer
                # blocks and this wait runs out instead.
                publishing.set()
                closed.wait(timeout=0.5)
                super().start()

        monkeypatch.setattr(threading, "Thread", GatedThread)
        state.start()
        monkeypatch.undo()
        closing.join(timeout=30)
        state.close()
        assert not closing.is_alive()
        assert errors == []
