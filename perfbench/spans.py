"""Span recording from outside the program.

A :class:`Tracer` swaps module or class attributes for wrappers that record
one span per call: name, layer, start, end, parent span and the operation
(row or call id) it belongs to.  Spans stay in memory until the run ends.
The program itself is not modified: the wrappers are installed by the
benchmark, only for a traced run, and removed again with :meth:`restore`.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so nested layers (a kernel inside a driver inside a row)
are never counted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """Wraps callables and keeps the spans they record."""

    def __init__(self) -> None:
        # Each span is [name, layer, start, end, parent span or None, op].
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapped(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        *,
        op_of: Callable[..., str] | None = None,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper of ``fn`` that records a span per call.

        ``op_of(*args)`` names the operation a call starts (a Figure-1 row
        or an MPC driver call); other calls inherit their parent's.
        ``on_return(result)`` sees each call's result.
        """
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            if op_of is not None:
                op = op_of(*args)
            else:
                op = parent[5] if parent is not None else ""
            span = [name, layer, _clock(), 0.0, parent, op]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, layer: str, **options: Any) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(original, name, layer, **options))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def self_times(self) -> list[tuple[list[Any], float]]:
        """Every finished span with its self time in seconds."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None and span[3]:
                children[id(span[4])] += span[3] - span[2]
        return [
            (span, (span[3] - span[2]) - children[id(span)])
            for span in self.spans
            if span[3]
        ]

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds per layer and per span name."""
        by_layer: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        for span, own in self.self_times():
            by_layer[span[1]] += own
            by_name[span[0]] += own
        return by_layer, by_name

    def inclusive(self, name: str) -> dict[str, float]:
        """Total inclusive seconds of the spans called ``name``, per operation."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name and span[3]:
                out[span[5]] += span[3] - span[2]
        return out

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from outside it (nested calls within it excluded)."""
        return sum(
            1
            for span in self.spans
            if span[1] == layer and (span[4] is None or span[4][1] != layer)
        )

    def dump(self, path: Any) -> None:
        """Write the spans as JSON lines: name, layer, start, end, parent, op."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span[4])) if span[4] is not None else None
                record = {
                    "id": i,
                    "name": span[0],
                    "layer": span[1],
                    "start": span[2],
                    "end": span[3],
                    "parent": parent,
                    "op": span[5],
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# The attributes through which the program reaches each layer
# --------------------------------------------------------------------------- #
#: Kernels, by the driver module that imports them (one metric per call site).
KERNEL_SITES = {
    "repro.core.hungry_greedy.mis": ["greedy_mis_pass"],
    "repro.core.hungry_greedy.state": ["blocked_degree_decrements"],
    "repro.core.local_ratio.matching": ["central_matching_pass"],
    "repro.core.local_ratio.b_matching": ["capacity_array"],
    "repro.core.local_ratio.set_cover": ["set_cover_reduction"],
    "repro.core.local_ratio.sequential": ["unwind_b_matching", "unwind_matching"],
}
#: CoverageCounter methods heavy enough to time (the accessors are not).
COVERAGE_METHODS = ["__init__", "cover_elements"]
#: The MPCContext round primitives.
ROUND_METHODS = ["parallel_round", "map_round", "gather_to_central", "broadcast", "aggregate"]


def kernel_site_name(module: str, fn: str) -> str:
    """``kernels.<package>.<module>.<fn>``, e.g. kernels.local_ratio.matching.central_matching_pass."""
    package, name = module.rsplit(".", 2)[-2:]
    return f"kernels.{package}.{name}.{fn}"


def patch_solver_layers(tracer: Tracer) -> None:
    """Wrap the kernels and MPCContext round methods the drivers call."""
    import importlib

    from repro.kernels.coverage import CoverageCounter
    from repro.mapreduce.engine import MPCContext

    for module_name, fns in KERNEL_SITES.items():
        module = importlib.import_module(module_name)
        for fn in fns:
            tracer.patch(module, fn, kernel_site_name(module_name, fn), "kernels")
    for method in COVERAGE_METHODS:
        tracer.patch(CoverageCounter, method, "kernels.coverage.CoverageCounter", "kernels")
    for method in ROUND_METHODS:
        tracer.patch(MPCContext, method, "mapreduce." + method, "mapreduce")
