"""Whole-program graph engine: import/call-graph construction and scope
propagation over synthetic packages.

These tests feed :func:`summarize_module` + :func:`build_program`
hand-built multi-module trees exercising the resolution features the
real tree depends on — aliased imports, re-export chains,
``from x import *``, import cycles, function-level (lazy) imports,
thread registrations — then assert structural properties of the result
rather than golden outputs.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.graph import build_program, summarize_module
from repro.analysis.graph.callgraph import function_id
from repro.analysis.graph.modules import module_name, resolve_relative_import


def build(tree: dict[str, str]):
    """Summarize a relpath→source mapping and assemble the program graph."""
    summaries = {
        relpath: summarize_module(relpath, textwrap.dedent(source))
        for relpath, source in tree.items()
    }
    return build_program(summaries)


def edge_pairs(graph):
    return {(e.caller, e.callee) for e in graph.edges}


# --------------------------------------------------------------------------- #
# Module naming and relative-import resolution
# --------------------------------------------------------------------------- #
class TestModuleNaming:
    def test_repro_anchored_paths(self):
        assert module_name("src/repro/core/greedy.py") == "repro.core.greedy"
        assert module_name("src/repro/mapreduce/__init__.py") == "repro.mapreduce"

    def test_fixture_paths_pass_through(self):
        assert module_name("pkg/util/helpers.py") == "pkg.util.helpers"
        assert module_name("pkg/__init__.py") == "pkg"

    def test_relative_import_resolution(self):
        assert (
            resolve_relative_import("pkg/sub/mod.py", "sibling", 1) == "pkg.sub.sibling"
        )
        assert resolve_relative_import("pkg/sub/mod.py", "util", 2) == "pkg.util"
        # Walking past the package root is unresolvable, not an error.
        assert resolve_relative_import("pkg/mod.py", "other", 3) is None


# --------------------------------------------------------------------------- #
# Call-graph construction
# --------------------------------------------------------------------------- #
class TestCallGraph:
    def test_aliased_imports_resolve(self):
        graph = build(
            {
                "pkg/util/helpers.py": """
                def stamp(x):
                    return x
                """,
                "pkg/core/solver.py": """
                from pkg.util import helpers as h

                def solve(xs):
                    return h.stamp(xs)
                """,
            }
        )
        assert (
            "pkg.core.solver:solve",
            "pkg.util.helpers:stamp",
        ) in edge_pairs(graph)

    def test_from_import_alias(self):
        graph = build(
            {
                "pkg/util/helpers.py": """
                def stamp(x):
                    return x
                """,
                "pkg/core/solver.py": """
                from pkg.util.helpers import stamp as mark

                def solve(xs):
                    return mark(xs)
                """,
            }
        )
        assert (
            "pkg.core.solver:solve",
            "pkg.util.helpers:stamp",
        ) in edge_pairs(graph)

    def test_reexport_chain_resolves(self):
        graph = build(
            {
                "pkg/util/impl.py": """
                def stamp(x):
                    return x
                """,
                "pkg/util/__init__.py": """
                from .impl import stamp
                """,
                "pkg/core/solver.py": """
                from pkg.util import stamp

                def solve(xs):
                    return stamp(xs)
                """,
            }
        )
        assert (
            "pkg.core.solver:solve",
            "pkg.util.impl:stamp",
        ) in edge_pairs(graph)

    def test_star_import_respects_all(self):
        graph = build(
            {
                "pkg/util/impl.py": """
                __all__ = ["public"]

                def public(x):
                    return x

                def _private(x):
                    return x
                """,
                "pkg/core/a.py": """
                from pkg.util.impl import *

                def use(xs):
                    return public(xs)
                """,
                "pkg/core/b.py": """
                from pkg.util.impl import *

                def leak(xs):
                    return _private(xs)
                """,
            }
        )
        pairs = edge_pairs(graph)
        assert ("pkg.core.a:use", "pkg.util.impl:public") in pairs
        # ``_private`` is not exported by the star import; no edge.
        assert ("pkg.core.b:leak", "pkg.util.impl:_private") not in pairs

    def test_function_level_import_creates_edge(self):
        graph = build(
            {
                "pkg/util/helpers.py": """
                def stamp(x):
                    return x
                """,
                "pkg/core/solver.py": """
                def solve(xs):
                    from pkg.util.helpers import stamp
                    return stamp(xs)
                """,
            }
        )
        pairs = edge_pairs(graph)
        assert ("pkg.core.solver:solve", "pkg.util.helpers:stamp") in pairs
        # Importing inside the function also executes the module body.
        assert ("pkg.core.solver:solve", "pkg.util.helpers:<module>") in pairs

    def test_method_resolution_through_local_type(self):
        graph = build(
            {
                "pkg/util/state.py": """
                class Store:
                    def put(self, k, v):
                        return (k, v)
                """,
                "pkg/core/solver.py": """
                from pkg.util.state import Store

                def solve(xs):
                    store = Store()
                    return store.put("k", xs)
                """,
            }
        )
        assert (
            "pkg.core.solver:solve",
            "pkg.util.state:Store.put",
        ) in edge_pairs(graph)

    def test_import_cycle_terminates(self):
        graph = build(
            {
                "pkg/a.py": """
                import pkg.b

                def fa(x):
                    return pkg.b.fb(x)
                """,
                "pkg/b.py": """
                import pkg.a

                def fb(x):
                    return pkg.a.fa(x)
                """,
            }
        )
        pairs = edge_pairs(graph)
        assert ("pkg.a:fa", "pkg.b:fb") in pairs
        assert ("pkg.b:fb", "pkg.a:fa") in pairs


# --------------------------------------------------------------------------- #
# Scope propagation
# --------------------------------------------------------------------------- #
class TestScopePropagation:
    TREE = {
        "pkg/core/solver.py": """
        # repro-lint: scope=deterministic
        from pkg.util.helpers import stamp

        def solve(xs):
            return stamp(xs)
        """,
        "pkg/util/helpers.py": """
        from pkg.util.deeper import leaf

        def stamp(x):
            return leaf(x)

        def unrelated(x):
            return x
        """,
        "pkg/util/deeper.py": """
        def leaf(x):
            return x
        """,
    }

    def test_helper_inherits_scope_transitively(self):
        graph = build(self.TREE)
        assert "deterministic" in graph.effective_scopes("pkg.util.helpers:stamp")
        assert "deterministic" in graph.effective_scopes("pkg.util.deeper:leaf")

    def test_uncalled_sibling_does_not_inherit(self):
        graph = build(self.TREE)
        assert "deterministic" not in graph.effective_scopes(
            "pkg.util.helpers:unrelated"
        )

    def test_chain_traces_back_to_entry(self):
        graph = build(self.TREE)
        chain = graph.chain("deterministic", "pkg.util.deeper:leaf")
        assert chain[0].startswith("pkg.core.solver:")
        assert chain[-1] == "pkg.util.deeper:leaf"
        described = graph.describe_chain("deterministic", "pkg.util.deeper:leaf")
        assert " -> " in described

    def test_local_scope_has_no_chain(self):
        graph = build(self.TREE)
        assert graph.chain("deterministic", "pkg.core.solver:solve") == [
            "pkg.core.solver:solve"
        ]
        assert graph.describe_chain("deterministic", "pkg.core.solver:solve") == ""

    def test_cycle_propagation_terminates_and_covers(self):
        graph = build(
            {
                "pkg/core/a.py": """
                # repro-lint: scope=deterministic
                from pkg.other.b import fb

                def fa(x):
                    return fb(x)
                """,
                "pkg/other/b.py": """
                from pkg.core.a import fa

                def fb(x):
                    return fa(x)
                """,
            }
        )
        assert "deterministic" in graph.effective_scopes("pkg.other.b:fb")

    def test_thread_registration_seeds_threaded(self):
        graph = build(
            {
                "pkg/app/main.py": """
                import threading
                from pkg.app.work import loop

                def run():
                    t = threading.Thread(target=loop)
                    t.start()
                """,
                "pkg/app/work.py": """
                from pkg.app.sink import record

                def loop():
                    record(1)
                """,
                "pkg/app/sink.py": """
                def record(x):
                    return x
                """,
            }
        )
        assert "threaded" in graph.effective_scopes("pkg.app.work:loop")
        # ...and the scope flows onward from the registered target.
        assert "threaded" in graph.effective_scopes("pkg.app.sink:record")
        # The registering function itself is not threaded by registration.
        assert "threaded" not in graph.effective_scopes("pkg.app.main:run")

    # -- property-style invariants -------------------------------------- #
    @pytest.mark.parametrize("scope", ["deterministic", "canonical", "threaded"])
    def test_inherited_implies_chain_to_seed(self, scope):
        tree = {
            "pkg/core/entry.py": f"""
            # repro-lint: scope={scope}
            from pkg.util.h1 import f1

            def entry(x):
                return f1(x)
            """,
            "pkg/util/h1.py": """
            from pkg.util.h2 import f2

            def f1(x):
                return f2(x)
            """,
            "pkg/util/h2.py": """
            def f2(x):
                return x
            """,
        }
        graph = build(tree)
        for fid, _, _ in graph.functions():
            if scope not in graph.inherited.get(fid, set()):
                continue
            chain = graph.chain(scope, fid)
            assert chain[-1] == fid
            head = chain[0]
            # The chain's head must carry the scope locally or be a
            # thread-registration seed.
            assert scope in graph.effective_scopes(head)

    def test_adding_unreachable_module_changes_nothing(self):
        graph_a = build(self.TREE)
        extended = dict(self.TREE)
        extended["pkg/island/alone.py"] = """
        def isolated(x):
            return x
        """
        graph_b = build(extended)
        for fid, _, _ in graph_a.functions():
            assert graph_a.effective_scopes(fid) == graph_b.effective_scopes(fid)

    def test_propagation_is_idempotent(self):
        a = build(self.TREE)
        b = build(self.TREE)
        assert {f: sorted(a.inherited.get(f, set())) for f, _, _ in a.functions()} == {
            f: sorted(b.inherited.get(f, set())) for f, _, _ in b.functions()
        }
        assert [
            (e.caller, e.callee, e.under_lock, e.via_thread) for e in a.edges
        ] == [(e.caller, e.callee, e.under_lock, e.via_thread) for e in b.edges]


# --------------------------------------------------------------------------- #
# Module summaries: the facts every rule reads
# --------------------------------------------------------------------------- #
class TestModuleSummary:
    SOURCE = textwrap.dedent(
        """
        import json
        import random
        import threading

        from repro.registry import register_algorithm

        _LOCK = threading.Lock()
        _STATE = {}
        SEED = random.random()


        class Holder:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self.other = []

            def add(self, x):
                with self._lock:
                    self._items.append(x)
                    _STATE[x] = 1

            def note(self, x):
                with _LOCK:
                    self.other.append(x)

            def run(self, xs):
                def pick():
                    return random.choice(xs)
                return pick()


        def emit(fh, payload):
            fh.write(json.dumps(payload))


        @register_algorithm("thing", experiment="fig1-thing")
        def thing_experiment(rng, *, n=10):
            return n
        """
    )

    def summary(self):
        return summarize_module("pkg/service/mod.py", self.SOURCE)

    def test_records_module_name_locks_and_globals(self):
        summary = self.summary()
        assert summary.module == "pkg.service.mod"
        assert summary.module_locks == ["_LOCK"]
        assert summary.mutable_globals == ["_STATE"]
        holder = summary.classes["Holder"]
        assert holder.lock_attrs == ["_lock"]
        assert holder.methods == ["__init__", "add", "note", "run"]

    def test_lock_views_split_class_and_module_locks(self):
        # An attribute is guarded only by its class's own locks and a
        # module global only by a module lock.
        summary = self.summary()

        def views(qualname):
            return [(m.attr, m.class_locked) for m in summary.functions[qualname].mutations]

        assert views("Holder.add") == [("_items", True)]
        assert views("Holder.note") == [("other", False)]
        assert [
            (g.name, g.line, g.module_locked) for g in summary.global_mutations
        ] == [("_STATE", 22, False)]

    def test_det_facts_bucket_into_the_outermost_frame(self):
        summary = self.summary()
        assert [(f.kind, f.line) for f in summary.functions["<module>"].det_facts] == [
            ("rng", 10)
        ]
        # The nested ``pick`` folds into the method that defines it.
        assert [(f.kind, f.line) for f in summary.functions["Holder.run"].det_facts] == [
            ("rng", 30)
        ]
        assert summary.functions["emit"].det_facts == []

    def test_module_facts_hold_encodings(self):
        # The registration defect at line 38 is register_algorithm's to
        # raise at import, not a lint fact.
        facts = [(f.kind, f.line) for f in self.summary().facts]
        assert facts == [("encoding", 35)]

    def test_class_in_module_level_block_is_a_module_class(self):
        summary = summarize_module(
            "pkg/service/store.py",
            textwrap.dedent(
                """
                import threading

                try:
                    from fast import Store
                except ImportError:
                    class Store:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def put(self, x):
                            with self._lock:
                                self.items = x
                """
            ),
        )
        store = summary.classes["Store"]
        assert store.lock_attrs == ["_lock"] and store.methods == ["__init__", "put"]
        assert [
            (m.attr, m.class_locked) for m in summary.functions["Store.put"].mutations
        ] == [("items", True)]
        assert summary.local_classes == []
