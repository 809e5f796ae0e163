"""Spans around the calls into each dmincut layer, recorded from outside.

A :class:`Tracer` replaces public functions with timing wrappers at the
names the consumer modules call them by (``dmincut.solver.verify``,
``dmincut.verify.max_flow``, ...), records one span per call with name,
start, end and parent, and puts every original back on ``uninstall``.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.

Counts are taken at the same boundaries from arguments and return values:
verdicts from ``verify``, ``OperationCounters`` from ``find_all_dmcs``,
stream lengths from ``enumerate_candidates`` and the inclusion-exclusion
term count of each ``reliability_from_dmcs`` call.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, kind).  A generator function gets one span
# per item it produces, so its self time excludes the consumer's work.
TARGETS = (
    ("dmincut.cli", "main", "cli.main", "call"),
    ("dmincut.cli", "parse_network", "network.parse_network", "call"),
    ("dmincut.cli", "parse_edge_distribution", "network.parse_edge_distribution", "call"),
    ("dmincut.cli", "enumerate_min_cuts", "cuts.enumerate_min_cuts", "call"),
    ("dmincut.cli", "parse_cuts", "cuts.parse_cuts", "call"),
    ("dmincut.cuts", "is_min_cut", "cuts.is_min_cut", "call"),
    ("dmincut.solver", "is_min_cut", "cuts.is_min_cut", "call"),
    ("dmincut.cli", "find_all_dmcs", "solver.find_all_dmcs", "call"),
    ("dmincut.cli", "audit_complexity", "solver.audit_complexity", "call"),
    ("dmincut.solver", "enumerate_candidates", "candidates.enumerate_candidates", "generator"),
    ("dmincut.solver", "count_candidates", "candidates.count_candidates", "call"),
    ("dmincut.solver", "verify", "verify.verify", "call"),
    ("dmincut.solver", "max_flow", "maxflow.max_flow", "call"),
    ("dmincut.verify", "max_flow", "maxflow.max_flow", "call"),
    ("dmincut.verify", "residual_reachable", "maxflow.residual_reachable", "call"),
    ("dmincut.cli", "reliability_from_dmcs", "oracle.reliability_from_dmcs", "call"),
)

# Demand levels that get their own rejection-reason breakdown: the levels the
# grid workloads solve.  Every level is included in the totals.
BREAKDOWN_LEVELS = (1, 2, 3)

# Counts kept per demand level, reported in total and for each breakdown level.
LEVEL_COUNTS = (
    "candidates.generated",
    "verify.calls",
    "verify.accepted",
    "verify.rejected_below_demand",
    "verify.rejected_failing_arc",
    "solver.duplicates_removed",
    "solver.dmcs",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.by_level: defaultdict[int, Counter] = defaultdict(Counter)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end

    def wrap_call(self, name: str, fn, observe=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, observe=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            produced = 0
            iterator = None
            while True:
                index = self._open(name_id)
                start = perf_counter()
                try:
                    if iterator is None:
                        iterator = fn(*args, **kwargs)
                    item = next(iterator)
                except StopIteration:
                    break
                finally:
                    self._close(index, start, perf_counter())
                produced += 1
                yield item
            if observe is not None:
                observe(self, args, kwargs, produced)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise if one is missing, so a renamed API is noticed."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrap = self.wrap_generator if kind == "generator" else self.wrap_call
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(span, original, OBSERVERS.get(span)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, span count)."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        inclusive: defaultdict[int, float] = defaultdict(float)
        own: defaultdict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        names = self.span_name
        for i in range(n):
            duration = ends[i] - starts[i]
            inclusive[names[i]] += duration
            own[names[i]] += duration - child[i]
            calls[names[i]] += 1
        return {
            self.names[k]: (inclusive[k], own[k], calls[k]) for k in inclusive
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        t = self.totals()

        def inc(name):
            return t.get(name, (0.0, 0.0, 0))[0]

        def own(name):
            return t.get(name, (0.0, 0.0, 0))[1]

        def calls(name):
            return t.get(name, (0.0, 0.0, 0))[2]

        c = self.counts
        m: dict[str, float] = {
            "cli.self_s": own("cli.main"),
            "network.parse_s": inc("network.parse_network") + inc("network.parse_edge_distribution"),
            "cuts.enumerate_s": inc("cuts.enumerate_min_cuts"),
            "cuts.found": c["cuts.found"],
            "cuts.subsets_scanned": c["cuts.subsets_scanned"],
            "cuts.validate_s": inc("cuts.is_min_cut"),
            "cuts.validate_calls": calls("cuts.is_min_cut"),
            "candidates.stream_s": own("candidates.enumerate_candidates") + own("candidates.count_candidates"),
            "verify.self_s": own("verify.verify"),
            "maxflow.max_flow_s": inc("maxflow.max_flow"),
            "maxflow.max_flow_calls": calls("maxflow.max_flow"),
            "maxflow.residual_s": inc("maxflow.residual_reachable"),
            "maxflow.residual_calls": calls("maxflow.residual_reachable"),
            "solver.self_s": own("solver.find_all_dmcs") + own("solver.audit_complexity"),
            "oracle.union_s": inc("oracle.reliability_from_dmcs"),
            "oracle.union_calls": calls("oracle.reliability_from_dmcs"),
            "oracle.union_terms": c["oracle.union_terms"],
        }
        breakdowns = [("", sum(self.by_level.values(), Counter()))]
        breakdowns += [(f".d{d}", self.by_level.get(d, Counter())) for d in BREAKDOWN_LEVELS]
        for suffix, lc in breakdowns:
            for key in LEVEL_COUNTS:
                m[key + suffix] = lc[key]
            m["verify.accept_ratio" + suffix] = (
                lc["verify.accepted"] / lc["verify.calls"] if lc["verify.calls"] else 0.0
            )
            m["solver.useful_ratio" + suffix] = (
                lc["solver.dmcs"] / lc["candidates.generated"] if lc["candidates.generated"] else 0.0
            )
        return m

    def write_spans(self, path) -> None:
        """Write every span as an ``index name start end parent`` line."""
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}"
                    f"\t{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )


# -- observers: counts taken from arguments and return values ---------------


def _level(args, kwargs) -> int:
    return args[2] if len(args) > 2 else kwargs["demand"]


def _observe_verify(tracer, args, kwargs, verdict):
    lc = tracer.by_level[_level(args, kwargs)]
    lc["verify.calls"] += 1
    if verdict.is_dmc:
        lc["verify.accepted"] += 1
    elif verdict.failing_arc is None:
        lc["verify.rejected_below_demand"] += 1
    else:
        lc["verify.rejected_failing_arc"] += 1


def _observe_solver(tracer, args, kwargs, report):
    lc = tracer.by_level[report.demand]
    lc["solver.duplicates_removed"] += report.counters.duplicates_removed
    lc["solver.dmcs"] += len(report.dmcs)


def _observe_candidates(tracer, args, kwargs, produced):
    tracer.by_level[_level(args, kwargs)]["candidates.generated"] += produced


def _observe_enumerate(tracer, args, kwargs, cuts):
    net = args[0] if args else kwargs["net"]
    tracer.counts["cuts.found"] += len(cuts)
    # The subset scan visits every node set holding the source but not the sink.
    tracer.counts["cuts.subsets_scanned"] += 1 << (net.node_count - 2)


def _observe_union(tracer, args, kwargs, result):
    dmcs = args[1] if len(args) > 1 else kwargs["dmcs"]
    tracer.counts["oracle.union_terms"] += (1 << len(set(map(tuple, dmcs)))) - 1


OBSERVERS = {
    "verify.verify": _observe_verify,
    "solver.find_all_dmcs": _observe_solver,
    "candidates.enumerate_candidates": _observe_candidates,
    "cuts.enumerate_min_cuts": _observe_enumerate,
    "oracle.reliability_from_dmcs": _observe_union,
}
