"""TP/TN fixture suites for the rules' inherited findings (WIRE001,
DET001, CONC001, MPC001).

Mirrors ``test_lint_checkers.py``'s idiom, but each fixture is a
*multi-module* tree fed through :func:`lint_sources` so the defect (or
its absence) only manifests across a module boundary — the cases a
rule's zero-hop pass cannot see.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_sources
from repro.analysis.lint.findings import FindingStatus


def run(tree: dict[str, str]):
    return lint_sources(
        {relpath: textwrap.dedent(src) for relpath, src in tree.items()}
    ).findings


def codes(findings, status=FindingStatus.NEW):
    return sorted(f.code for f in findings if status is None or f.status is status)


# --------------------------------------------------------------------------- #
# WIRE001 — canonical serialization reaching wire sinks through helpers
# --------------------------------------------------------------------------- #
class TestWIRE001:
    def test_true_positive_noncanonical_encode_in_inherited_helper(self):
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                from pkg.util.io import write_report

                def respond(payload, fh):
                    write_report(payload, fh)
                """,
                "pkg/util/io.py": """
                import json

                def write_report(payload, fh):
                    fh.write(json.dumps(payload))
                """,
            }
        )
        wire = [f for f in findings if f.code == "WIRE001"]
        assert len(wire) == 1
        assert wire[0].path == "pkg/util/io.py"
        assert "pkg.wire" in wire[0].message  # entry→sink chain is cited

    def test_true_positive_taint_two_calls_away(self):
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                from pkg.util.render import render

                def respond(fh, obj):
                    fh.write(render(obj))
                """,
                "pkg/util/render.py": """
                from pkg.util.enc import enc

                def render(obj):
                    return enc(obj)
                """,
                "pkg/util/enc.py": """
                import json

                def enc(obj):
                    return json.dumps(obj)
                """,
            }
        )
        wire = [f for f in findings if f.code == "WIRE001"]
        assert len(wire) == 1
        assert wire[0].path == "pkg/wire.py"
        assert "noncanonical" in wire[0].message

    def test_true_negative_canonical_helper(self):
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                from pkg.util.enc import enc

                def respond(fh, obj):
                    fh.write(enc(obj))
                """,
                "pkg/util/enc.py": """
                import json

                def enc(obj):
                    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
                """,
            }
        )
        assert "WIRE001" not in codes(findings)

    def test_true_negative_local_canonical_module_is_det002s_case(self):
        # A direct non-canonical encode *in* a canonical-scoped module is
        # reported once, at the encoder, not again at the sink.
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                import json

                def respond(fh, obj):
                    fh.write(json.dumps(obj))
                """,
            }
        )
        assert [(f.code, f.line, f.column) for f in findings] == [("WIRE001", 6, 14)]

    def test_true_positive_taint_forty_returns_away(self):
        # The serialization fixpoint runs to completion: each sweep
        # carries the verdict one return further up a chain whose names
        # sort callers first.
        hops = 40
        helpers = ["import json\n"]
        for i in range(hops):
            helpers.append(f"def h{i:02d}(obj):\n    return h{i + 1:02d}(obj)\n")
        helpers.append(f"def h{hops:02d}(obj):\n    return json.dumps(obj)\n")
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                from pkg.util.chain import h00

                def respond(fh, obj):
                    fh.write(h00(obj))
                """,
                "pkg/util/chain.py": "\n".join(helpers),
            }
        )
        wire = [f for f in findings if f.code == "WIRE001"]
        assert [(f.path, f.line) for f in wire] == [("pkg/wire.py", 6)]
        assert "pkg.util.chain:h00()" in wire[0].message

    def test_true_negative_helper_not_on_wire_path(self):
        findings = run(
            {
                "pkg/plain.py": """
                from pkg.util.io import write_report

                def local_dump(payload, fh):
                    write_report(payload, fh)
                """,
                "pkg/util/io.py": """
                import json

                def write_report(payload, fh):
                    fh.write(json.dumps(payload))
                """,
            }
        )
        assert "WIRE001" not in codes(findings)

    def test_suppression_comment_downgrades(self):
        findings = run(
            {
                "pkg/wire.py": """
                # repro-lint: scope=canonical
                from pkg.util.io import write_report

                def respond(payload, fh):
                    write_report(payload, fh)
                """,
                "pkg/util/io.py": """
                import json

                def write_report(payload, fh):
                    fh.write(json.dumps(payload))  # repro-lint: disable=WIRE001
                """,
            }
        )
        assert "WIRE001" not in codes(findings)
        assert "WIRE001" in codes(findings, FindingStatus.SUPPRESSED)


# --------------------------------------------------------------------------- #
# DET001 — determinism hazards in transitively-reached helpers
# --------------------------------------------------------------------------- #
class TestDET001Inherited:
    def test_true_positive_unseeded_rng_in_reached_helper(self):
        findings = run(
            {
                "pkg/solver.py": """
                # repro-lint: scope=deterministic
                from pkg.util.noise import jitter

                def solve(xs):
                    return jitter(xs)
                """,
                "pkg/util/noise.py": """
                import random

                def jitter(xs):
                    random.shuffle(xs)
                    return xs
                """,
            }
        )
        det = [f for f in findings if f.code == "DET001"]
        assert len(det) == 1
        assert det[0].path == "pkg/util/noise.py"
        assert "reachable from deterministic code" in det[0].message

    def test_true_positive_wall_clock_reached_from_clockfree(self):
        findings = run(
            {
                "pkg/solver.py": """
                # repro-lint: scope=clockfree
                from pkg.util.stamp import stamp

                def solve(xs):
                    return stamp(xs)
                """,
                "pkg/util/stamp.py": """
                import time

                def stamp(xs):
                    return (time.time(), xs)
                """,
            }
        )
        det = [f for f in findings if f.code == "DET001"]
        assert len(det) == 1
        assert det[0].path == "pkg/util/stamp.py"

    def test_true_negative_seeded_generator(self):
        findings = run(
            {
                "pkg/solver.py": """
                # repro-lint: scope=deterministic
                from pkg.util.noise import jitter

                def solve(xs, seed):
                    return jitter(xs, seed)
                """,
                "pkg/util/noise.py": """
                import random

                def jitter(xs, seed):
                    rng = random.Random(seed)
                    rng.shuffle(xs)
                    return xs
                """,
            }
        )
        assert "DET001" not in codes(findings)

    def test_true_negative_unreachable_helper(self):
        findings = run(
            {
                "pkg/solver.py": """
                # repro-lint: scope=deterministic
                def solve(xs):
                    return sorted(xs)
                """,
                "pkg/util/noise.py": """
                import random

                def jitter(xs):
                    random.shuffle(xs)
                    return xs
                """,
            }
        )
        assert "DET001" not in codes(findings)

    def test_locally_scoped_hazard_stays_det001(self):
        # The zero-hop case is reported once, without a call chain.
        findings = run(
            {
                "pkg/solver.py": """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return xs
                """,
            }
        )
        assert [(f.code, f.line) for f in findings] == [("DET001", 6)]
        assert "reachable from" not in findings[0].message


# --------------------------------------------------------------------------- #
# CONC001 — cross-module lock discipline
# --------------------------------------------------------------------------- #
class TestCONC001CrossModule:
    STATE = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._thread = None

        def close(self):
            self._thread = None
    """

    LOCKED_STATE = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._thread = None

        def close(self):
            with self._lock:
                self._thread = None
    """

    def test_true_positive_unlocked_mutation_across_modules(self):
        findings = run(
            {
                "pkg/svc.py": """
                # repro-lint: scope=threaded
                from pkg.state import Store

                def handle():
                    store = Store()
                    store.close()
                """,
                "pkg/state.py": self.STATE,
            }
        )
        conc = [f for f in findings if f.code == "CONC001"]
        assert len(conc) == 1
        assert conc[0].path == "pkg/state.py"
        assert "_thread" in conc[0].message
        assert "unlocked thread path" in conc[0].message

    def test_true_negative_mutation_under_own_lock(self):
        findings = run(
            {
                "pkg/svc.py": """
                # repro-lint: scope=threaded
                from pkg.state import Store

                def handle():
                    store = Store()
                    store.close()
                """,
                "pkg/state.py": self.LOCKED_STATE,
            }
        )
        assert "CONC001" not in codes(findings)

    def test_true_negative_path_dominating_lock_at_call_site(self):
        findings = run(
            {
                "pkg/svc.py": """
                # repro-lint: scope=threaded
                import threading
                from pkg.state import Store

                _GUARD = threading.Lock()

                def handle():
                    store = Store()
                    with _GUARD:
                        store.close()
                """,
                "pkg/state.py": self.STATE,
            }
        )
        assert "CONC001" not in codes(findings)

    def test_true_negative_intra_module_is_conc001s_case(self):
        findings = run(
            {
                "pkg/svc.py": """
                # repro-lint: scope=threaded
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._thread = None

                    def close(self):
                        self._thread = None

                def handle():
                    store = Store()
                    store.close()
                """,
            }
        )
        assert "CONC001" not in codes(findings)

    def test_cross_module_path_to_a_local_finding_reports_it_once(self):
        findings = run(
            {
                "pkg/app.py": """
                # repro-lint: scope=threaded
                from pkg.store import Store

                def handle():
                    store = Store()
                    store.reset()
                """,
                "pkg/store.py": """
                # repro-lint: scope=threaded
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []

                    def put(self, x):
                        with self._lock:
                            self.items.append(x)

                    def reset(self):
                        self.items.clear()
                """,
            }
        )
        assert [(f.code, f.path, f.line) for f in findings] == [("CONC001", "pkg/store.py", 15)]

    def test_true_positive_thread_registration_entry(self):
        # The registering module carries no scope at all; the Thread
        # registration itself makes the target (and what it reaches)
        # thread-entered.
        findings = run(
            {
                "pkg/boot.py": """
                import threading
                from pkg.work import loop

                def main():
                    threading.Thread(target=loop).start()
                """,
                "pkg/work.py": """
                from pkg.state import Store

                def loop():
                    store = Store()
                    store.close()
                """,
                "pkg/state.py": self.STATE,
            }
        )
        conc = [f for f in findings if f.code == "CONC001"]
        assert len(conc) == 1
        assert conc[0].path == "pkg/state.py"

    def test_true_positive_module_global_without_module_lock(self):
        findings = run(
            {
                "pkg/svc.py": """
                # repro-lint: scope=threaded
                from pkg.registry import put

                def handle(k, v):
                    put(k, v)
                """,
                "pkg/registry.py": """
                import threading

                _LOCK = threading.Lock()
                _CACHE = {}

                def put(k, v):
                    _CACHE[k] = v
                """,
            }
        )
        conc = [f for f in findings if f.code == "CONC001"]
        assert len(conc) == 1
        assert "_CACHE" in conc[0].message


# --------------------------------------------------------------------------- #
# MPC001 — importability of round callables
# --------------------------------------------------------------------------- #
class TestMPC001:
    def test_true_positive_lambda(self):
        findings = run(
            {
                "pkg/driver.py": """
                def run(ctx, records):
                    return ctx.map_round(lambda kv: [kv], records)
                """,
            }
        )
        mpc = [f for f in findings if f.code == "MPC001"]
        assert len(mpc) == 1
        assert "lambda" in mpc[0].message

    def test_true_positive_nested_function(self):
        findings = run(
            {
                "pkg/driver.py": """
                def run(ctx, records):
                    def mapper(kv):
                        return [kv]
                    return ctx.map_round(mapper, records)
                """,
            }
        )
        mpc = [f for f in findings if f.code == "MPC001"]
        assert len(mpc) == 1
        assert "nested" in mpc[0].message

    def test_true_positive_bound_method(self):
        findings = run(
            {
                "pkg/driver.py": """
                class Driver:
                    def mapper(self, kv):
                        return [kv]

                    def run(self, ctx, records):
                        return ctx.map_round(self.mapper, records)
                """,
            }
        )
        mpc = [f for f in findings if f.code == "MPC001"]
        assert len(mpc) == 1
        assert "bound method" in mpc[0].message

    def test_true_positive_cross_module_method_reference(self):
        findings = run(
            {
                "pkg/driver.py": """
                from pkg.mappers import Mapper

                def run(ctx, records):
                    return ctx.map_round(Mapper.emit, records)
                """,
                "pkg/mappers.py": """
                class Mapper:
                    def emit(self, kv):
                        return [kv]
                """,
            }
        )
        mpc = [f for f in findings if f.code == "MPC001"]
        assert len(mpc) == 1
        assert "Mapper.emit" in mpc[0].message

    def test_true_negative_module_level_function(self):
        findings = run(
            {
                "pkg/driver.py": """
                from pkg.mappers import emit

                def run(ctx, records):
                    return ctx.map_round(emit, records)
                """,
                "pkg/mappers.py": """
                def emit(kv):
                    return [kv]
                """,
            }
        )
        assert "MPC001" not in codes(findings)

    def test_true_negative_unrelated_map_call(self):
        findings = run(
            {
                "pkg/driver.py": """
                def run(xs):
                    return list(map(lambda x: x + 1, xs))
                """,
            }
        )
        assert "MPC001" not in codes(findings)
