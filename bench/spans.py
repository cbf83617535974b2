"""Span tracing of dlcss from outside the package.

``Tracer.install`` replaces every public function of each dlcss module, and
every public method of the classes they define, with a wrapper that records
a span around the call. A function is wrapped where it is looked up: the
name ``dlcss.matching.compute_dlcss`` gets its own wrapper, apart from
``dlcss.core.compute_dlcss``. A span's name is the defining layer and the
function (``core.compute_dlcss``), its site the module whose name the call
went through (``matching``), and its parent the enclosing span, which tells
which layer made the call. ``uninstall`` puts every original back.

Spans are aggregated per phase as they close (calls, total and self time,
keyed by name, site and parent name), and the first ``KEEP_SPANS`` of them
are kept whole for the trace file. A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so
children never overlap. Before-call hooks run on every call while the
wrappers are installed, so the tracer sees each graph's memo fill even when
it is not recording; counts are kept only while recording.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import types
import weakref

LAYERS = ("geo", "core", "matching", "routing", "pools", "meeting_points", "evaluation", "cli")

#: Span names that differ from ``layer.function``.
RENAMES = {"routing.build": "routing.graph_build"}
#: Not wrapped: a node lookup runs four times per snap, and its span would
#: cost more than the lookup.
SKIP = {"routing.node"}
#: Spans kept whole for the trace file; later spans are only aggregated.
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.recording = False
        self.phase = "setup"
        self.op = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, dict[tuple[str, str, str | None], list]] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._sources_seen: dict[int, set[int]] = {}
        self._hooks = {
            "geo.pairwise_distances_m": self._count_cells,
            "core.compute_dlcss": self._count_no_overlap,
            "matching.filter_pool": self._count_accepted,
            "routing.source_distances": self._count_source_miss,
            "meeting_points.evaluate_meeting_points": self._count_meeting,
        }
        self._meeting_sig = inspect.signature(package.meeting_points.evaluate_meeting_points)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("dlcss."):
                    name = self._span_name(obj.__module__, obj.__name__)
                    self._patch(module, attr, self._wrap(obj, name, layer))
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._patch_class(obj, layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch_class(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = self._span_name(cls.__module__, attr)
            if name in SKIP:
                continue
            if isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(raw, name, layer))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    @staticmethod
    def _span_name(module_name: str, attr: str) -> str:
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        return RENAMES.get(name, name)

    def _wrap(self, fn, name: str, site: str):
        tracer = self
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                if hook is not None:
                    hook(args, kwargs, None, before=True)
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [0.0, span_id, name]
            tracer._stack.append(frame)
            if hook is not None:
                hook(args, kwargs, None, before=True)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer._close(name, site, span_id, parent, t0, t1, frame[0])
            if hook is not None:
                hook(args, kwargs, result, before=False)
            return result

        return wrapper

    def _close(self, name, site, span_id, parent, t0, t1, child_s) -> None:
        dur = t1 - t0
        if parent is not None:
            parent[0] += dur
        caller = parent[2] if parent is not None else None
        row = self.stats.setdefault(self.phase, {}).setdefault((name, site, caller), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (span_id, parent[1] if parent is not None else None, name, site, self.op, t0, t1)
            )
        else:
            self.dropped += 1

    # -- work counters -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if not self.recording:
            return
        bucket = self.counts.setdefault(self.phase, {})
        bucket[key] = bucket.get(key, 0) + n

    def _count_cells(self, args, kwargs, result, before):
        if before:
            self.count("geo.cells", len(args[0].points) * len(args[1].points))

    def _count_no_overlap(self, args, kwargs, result, before):
        if not before and math.isinf(result.sm):
            self.count("core.no_overlap")

    def _count_accepted(self, args, kwargs, result, before):
        if not before:
            self.count("matching.accepted", sum(1 for d in result if d.accepted))

    def _count_source_miss(self, args, kwargs, result, before):
        if not before:
            return
        graph, source = args[0], args[1]
        seen = self._sources_seen.get(id(graph))
        if seen is None:
            seen = self._sources_seen[id(graph)] = set()
            weakref.finalize(graph, self._sources_seen.pop, id(graph), None)
        if source not in seen:
            seen.add(source)
            self.count("routing.source_distances.misses")

    def _count_meeting(self, args, kwargs, result, before):
        if before:
            bound = self._meeting_sig.bind(*args, **kwargs)
            self.count("meeting_points.trials", len(bound.arguments["candidates"]))
        elif result is not None:
            self.count("meeting_points.rescued")

    # -- reading -------------------------------------------------------------

    def total(self, phase: str, name: str, field: str, caller: str | None = None) -> float:
        """Sum of ``calls``, ``ms`` or ``self_ms`` over spans named ``name``.

        A ``name`` ending in "." is a prefix: "cli." sums every span of the
        layer. ``caller``, a prefix too, keeps only spans whose parent span
        matches it.
        """
        index = {"calls": 0, "ms": 1, "self_ms": 2}[field]
        scale = 1.0 if field == "calls" else 1e3
        return sum(
            row[index] * scale
            for (n, _, parent), row in self.stats.get(phase, {}).items()
            if (n == name or (name.endswith(".") and n.startswith(name)))
            and (caller is None or (parent or "").startswith(caller))
        )

    def counter(self, phase: str, key: str) -> int:
        return self.counts.get(phase, {}).get(key, 0)
