"""Fixture-based true-positive / true-negative tests per lint checker.

Every checker gets at least: a snippet that must flag (true positive), a
snippet that must not (true negative), and a suppressed variant.  The
snippets force their scopes with the ``# repro-lint: scope=...`` magic
comment so they classify identically wherever the test runs.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.findings import FindingStatus


def run(snippet: str, relpath: str = "core/snippet.py"):
    return lint_source(textwrap.dedent(snippet), relpath)


def codes(findings, status=None):
    return [f.code for f in findings if status is None or f.status is status]


# --------------------------------------------------------------------------- #
# DET001 — unseeded global RNG
# --------------------------------------------------------------------------- #
class TestDET001:
    def test_true_positive_stdlib_and_numpy_global(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            import random
            import numpy as np

            def solve(items):
                random.shuffle(items)
                return np.random.rand(3)
            """
        )
        assert codes(findings) == ["DET001", "DET001"]

    def test_true_positive_through_aliases(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            from random import shuffle
            from numpy import random as npr

            def solve(items):
                shuffle(items)
                return npr.integers(10)
            """
        )
        assert codes(findings) == ["DET001", "DET001"]

    def test_true_negative_seeded_generators(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            import random
            import numpy as np

            def solve(items, seed):
                rng = np.random.default_rng(seed)
                rng.shuffle(items)
                local = random.Random(seed)
                return local.random(), np.random.SeedSequence(seed)
            """
        )
        assert codes(findings) == []

    def test_out_of_scope_module_not_flagged(self):
        findings = run(
            """
            import random

            def jitter():
                return random.random()
            """,
            relpath="service/backoff.py",
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            import random

            def solve():
                return random.random()  # repro-lint: disable=DET001
            """
        )
        assert codes(findings, FindingStatus.SUPPRESSED) == ["DET001"]
        assert codes(findings, FindingStatus.NEW) == []


# --------------------------------------------------------------------------- #
# DET002 — non-canonical JSON on wire paths
# --------------------------------------------------------------------------- #
class TestDET002:
    def test_true_positive_missing_sort_keys(self):
        findings = run(
            """
            # repro-lint: scope=canonical
            import json

            def render(payload):
                return json.dumps(payload)
            """
        )
        assert codes(findings) == ["DET002"]

    def test_true_positive_lossy_default(self):
        findings = run(
            """
            # repro-lint: scope=canonical
            import json

            def render(payload):
                return json.dumps(payload, sort_keys=True, default=str)
            """
        )
        assert codes(findings) == ["DET002"]
        assert "default=" in findings[0].message

    def test_true_positive_odd_separators(self):
        findings = run(
            """
            # repro-lint: scope=canonical
            import json

            def render(payload):
                return json.dumps(payload, sort_keys=True, separators=(";", "="))
            """
        )
        assert codes(findings) == ["DET002"]

    def test_true_negative_canonical(self):
        findings = run(
            """
            # repro-lint: scope=canonical
            import json

            def render(payload):
                compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                pretty = json.dumps(payload, indent=2, sort_keys=True)
                return compact, pretty
            """
        )
        assert codes(findings) == []

    def test_out_of_scope_not_flagged(self):
        findings = run(
            """
            import json

            def debug(payload):
                return json.dumps(payload)
            """,
            relpath="experiments/notes.py",
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            # repro-lint: scope=canonical
            import json

            def render(payload):
                return json.dumps(payload)  # repro-lint: disable=DET002
            """
        )
        assert codes(findings, FindingStatus.NEW) == []
        assert codes(findings, FindingStatus.SUPPRESSED) == ["DET002"]


# --------------------------------------------------------------------------- #
# DET003 — set iteration order
# --------------------------------------------------------------------------- #
class TestDET003:
    @pytest.mark.parametrize(
        "body",
        [
            "for x in {1, 2, 3}: out.append(x)",
            "for x in set(xs): out.append(x)",
            "out = [v for v in set(xs)]",
            "out = list(set(xs))",
            "out = ', '.join(set(names))",
        ],
    )
    def test_true_positives(self, body):
        findings = run(
            f"""
            # repro-lint: scope=deterministic
            def solve(xs, names, out):
                {body}
            """
        )
        assert codes(findings) == ["DET003"]

    def test_true_positive_tracked_name(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            def solve(xs, out):
                pending = set(xs)
                for item in pending:
                    out.append(item)
            """
        )
        assert codes(findings) == ["DET003"]

    @pytest.mark.parametrize(
        "body",
        [
            "out = sorted(set(xs))",
            "total = sum(set(xs))",
            "best = max(set(xs))",
            "dedup = {x for x in set(xs)}",
            "n = len(set(xs))",
            "ok = any(x > 2 for x in set(xs))",
        ],
    )
    def test_true_negatives_order_insensitive(self, body):
        findings = run(
            f"""
            # repro-lint: scope=deterministic
            def solve(xs):
                {body}
            """
        )
        assert codes(findings) == []

    def test_true_negative_reassigned_name_not_tracked(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            def solve(xs, out):
                pending = set(xs)
                pending = sorted(pending)
                for item in pending:
                    out.append(item)
            """
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            # repro-lint: scope=deterministic
            def solve(xs, out):
                for x in set(xs):  # repro-lint: disable=DET003
                    out.append(x)
            """
        )
        assert codes(findings, FindingStatus.NEW) == []
        assert codes(findings, FindingStatus.SUPPRESSED) == ["DET003"]


# --------------------------------------------------------------------------- #
# DET004 — wall-clock reads in solver modules
# --------------------------------------------------------------------------- #
class TestDET004:
    def test_true_positive_time_and_datetime(self):
        findings = run(
            """
            # repro-lint: scope=clockfree
            import time
            from datetime import datetime

            def solve():
                started = time.time()
                stamp = datetime.now()
                return started, stamp
            """
        )
        assert codes(findings) == ["DET004", "DET004"]

    def test_true_negative_monotonic_measurement(self):
        findings = run(
            """
            # repro-lint: scope=clockfree
            import time

            def solve():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
            """
        )
        assert codes(findings) == []

    def test_service_uptime_out_of_scope(self):
        findings = run(
            """
            import time

            def uptime(started):
                return time.time() - started
            """,
            relpath="service/metrics.py",
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            # repro-lint: scope=clockfree
            import time

            def solve():
                return time.time()  # repro-lint: disable=DET004
            """
        )
        assert codes(findings, FindingStatus.NEW) == []
        assert codes(findings, FindingStatus.SUPPRESSED) == ["DET004"]


# --------------------------------------------------------------------------- #
# CONC001 — unlocked shared state
# --------------------------------------------------------------------------- #
class TestCONC001:
    def test_true_positive_unlocked_instance_mutation(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def locked_bump(self):
                    with self._lock:
                        self.count += 1

                def racy_bump(self):
                    self.count += 1
            """
        )
        assert codes(findings) == ["CONC001"]
        assert "racy_bump" in findings[0].message

    def test_true_negative_init_and_helper_under_lock(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self.count += 1
            """
        )
        assert codes(findings) == []

    def test_true_positive_condition_guard(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._work = threading.Condition(self._lock)
                    self.items = []

                def put(self, item):
                    with self._work:
                        self.items.append(item)

                def drop_all(self):
                    self.items.clear()
            """
        )
        assert codes(findings) == ["CONC001"]

    def test_true_negative_module_lock_does_not_guard_attributes(self):
        # Only the class's own locks make an attribute lock-guarded; a
        # mutation under a module-level lock guards nothing.
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            _LOCK = threading.Lock()

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.other = []

                def add(self, x):
                    with _LOCK:
                        self.other.append(x)

                def reset(self):
                    self.other.clear()
            """
        )
        assert codes(findings) == []

    def test_true_positive_class_nested_in_function(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            def make_box():
                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def put(self, x):
                        with self._lock:
                            self.items.append(x)

                    def reset(self):
                        self.items.clear()

                return Box()
            """
        )
        assert codes(findings) == ["CONC001"]
        assert "'Box.items'" in findings[0].message and "'reset'" in findings[0].message

    def test_true_positive_class_in_module_level_try_block(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            try:
                from fast import Store
            except ImportError:
                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def put(self, x):
                        with self._lock:
                            self.items.append(x)

                    def reset(self):
                        self.items.clear()
            """
        )
        assert codes(findings) == ["CONC001"]
        assert (findings[0].line, findings[0].column) == (18, 13)
        assert "'Store.items'" in findings[0].message and "'reset'" in findings[0].message

    def test_each_definition_of_a_class_is_judged_on_its_own(self):
        # Only the first ``Store`` holds a lock; the fallback's unlocked
        # ``reset`` mutates a different class's ``items``.
        findings = run(
            """
            # repro-lint: scope=threaded
            import os
            import threading

            if os.environ.get("THREADED"):
                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def put(self, x):
                        with self._lock:
                            self.items.append(x)

                    def drop(self):
                        self.items.clear()
            else:
                class Store:
                    def __init__(self):
                        self.items = []

                    def reset(self):
                        self.items.clear()
            """
        )
        assert codes(findings) == ["CONC001"]
        assert findings[0].line == 17 and "'drop'" in findings[0].message

    def test_true_positive_property_setter(self):
        # The setter redefines ``value``; the getter's locked mutation
        # must still mark ``_value`` as guarded.
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                @property
                def value(self):
                    with self._lock:
                        self._value += 0
                        return self._value

                @value.setter
                def value(self, v):
                    self._value = v
            """
        )
        assert codes(findings) == ["CONC001"]
        assert findings[0].line == 18
        assert "'Box._value'" in findings[0].message

    def test_true_positive_annotated_subscript_store(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            _CACHE = {}

            def put(key, value):
                _CACHE[key]: int = value
            """
        )
        assert codes(findings) == ["CONC001"]
        assert findings[0].line == 6

    def test_true_positive_function_defined_under_module_lock(self):
        # The lock is held while ``put`` is defined, not when it runs.
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            with _LOCK:
                def put(key, value):
                    _CACHE[key] = value
            """
        )
        assert codes(findings) == ["CONC001"]
        assert findings[0].line == 10

    def test_true_positive_module_global(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
            """
        )
        assert codes(findings) == ["CONC001"]

    def test_true_negative_module_global_with_lock(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value
            """
        )
        assert codes(findings) == []

    def test_out_of_scope_not_flagged(self):
        findings = run(
            """
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
            """,
            relpath="experiments/cache.py",
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            # repro-lint: scope=threaded
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value  # repro-lint: disable=CONC001
            """
        )
        assert codes(findings, FindingStatus.NEW) == []
        assert codes(findings, FindingStatus.SUPPRESSED) == ["CONC001"]


# --------------------------------------------------------------------------- #
# REG001 — registry conformance
# --------------------------------------------------------------------------- #
class TestREG001:
    def test_true_positive_missing_kind_and_bounds(self):
        findings = run(
            """
            from repro.registry import register_algorithm

            @register_algorithm("thing", experiment="fig1-thing")
            def thing_experiment(rng, *, n=10):
                return n
            """
        )
        assert codes(findings) == ["REG001", "REG001"]

    def test_true_positive_positional_tunable(self):
        findings = run(
            """
            from repro.registry import register_algorithm

            def bound():
                return 2.0

            @register_algorithm("thing", kind="graph", bounds=bound)
            def thing_experiment(rng, n=10):
                return n
            """
        )
        assert codes(findings) == ["REG001"]
        assert "positional" in findings[0].message

    def test_true_positive_unknown_kind_and_kwargs(self):
        findings = run(
            """
            from repro.registry import register_algorithm

            def bound():
                return 2.0

            @register_algorithm("thing", kind="matrix", bounds=bound)
            def thing_experiment(rng, **params):
                return params
            """
        )
        assert sorted(codes(findings)) == ["REG001", "REG001"]

    def test_true_negative_conformant(self):
        findings = run(
            """
            from repro.registry import register_algorithm

            def bound():
                return 2.0

            @register_algorithm(
                "thing",
                experiment="fig1-thing",
                kind="graph",
                bounds=bound,
            )
            def thing_experiment(rng, *, n=10, scenario=None):
                return n
            """
        )
        assert codes(findings) == []

    def test_suppressed(self):
        findings = run(
            """
            from repro.registry import register_algorithm

            @register_algorithm("thing", experiment="fig1-thing")  # repro-lint: disable=REG001
            def thing_experiment(rng, *, n=10):
                return n
            """
        )
        assert codes(findings, FindingStatus.NEW) == []
        assert codes(findings, FindingStatus.SUPPRESSED) == ["REG001", "REG001"]
