"""In-process tracing of one solve, layer by layer.

``install`` wraps the public functions a solve goes through at the names
the calling modules look them up by, so the program itself is unchanged.
Every wrapped call records a span (name, start, end, parent, solve id) in
memory; ``layer_totals`` turns the spans of one solve into the per-layer
numbers the benchmark reports.  Only ``time.perf_counter`` is used.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

# Layer a span's self time is charged to.
LAYER_OF = {
    "solve": "harness",
    "instance_io.parse": "instance_io",
    "instance_io.desugar": "instance_io",
    "cli.solve_instance": "cli",
    "cli.report": "cli",
    "prune.prune": "prune",
    "heuristics.build": "heuristics",
    "heuristics.call": "heuristics",
    "ratlp.lp": "ratlp",
    "ratlp.ilp": "ratlp",
    "search.search": "search",
    "net.successors": "net",
}


class Tracer:
    """Spans of the current solve plus event counters.

    A span is a list ``[name, start, end, parent, solve_id]``; ``parent`` is
    the index of the enclosing span in ``spans`` or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = None
        self._stack: list[int] = []

    def begin(self, solve_id) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.solve_id = solve_id
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.solve_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, counts) -> dict[str, float]:
    """Per-layer seconds and call counts for the spans of one solve.

    Keys ``self.<layer>`` hold self time per layer (they add up to the root
    span), ``incl.<span>`` inclusive time per span name, ``n.<span>`` call
    counts and ``n.ilp_node`` the LPs solved directly inside ``ilp_min``,
    plus the raw event ``counts``.
    """
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, _ = span
        out["self." + LAYER_OF[name]] += own
        out["incl." + name] += end - start
        out["n." + name] += 1
        if name == "ratlp.lp" and parent >= 0 and spans[parent][0] == "ratlp.ilp":
            out["n.ilp_node"] += 1
    for key, value in counts.items():
        out[key] += value
    return out


#: (counter in the report's ``stats``, layer_totals key): pairs that must
#: agree on every solve.
REPORT_COUNTERS = (("heuristic_calls", "n.heuristics.call"), ("expanded", "expanded"))


def untimed_work(report: dict, totals: dict) -> str | None:
    """What the solve's own report counts but its spans missed, or None.

    A heuristic evaluated, or a search run, through a path no wrapper times
    would otherwise show up as a zero in its layer, with its time charged
    to the caller."""
    for counter, key in REPORT_COUNTERS:
        reported, traced = report.get("stats", {}).get(counter), totals.get(key, 0)
        if reported != traced:
            return f"report counts {counter}={reported}, the trace {traced}"
    return None


def _kind_is(outcome, kind: str) -> bool:
    return getattr(getattr(outcome, "kind", None), "name", None) == kind


class HeuristicProxy:
    """Times every evaluation of a heuristic object; other attributes pass
    through unchanged."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __call__(self, m):
        t = self._tracer
        index = t.open("heuristics.call")
        try:
            value = self._inner(m)
        finally:
            t.close(index)
        if isinstance(value, float) and math.isinf(value):
            t.counts["heuristic_inf"] += 1
        return value

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Rebind every ``ffreach`` module global that refers to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ffreach" or mod_name.startswith("ffreach.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(tracer: Tracer):
    """Wrap the solve path of the imported ``ffreach`` package; returns a
    function that removes every wrapper again.

    Raises LookupError when a function the trace needs is missing, so a
    renamed layer shows up as an error rather than as a zero.
    """
    from ffreach import heuristics, instance_io, net, prune, ratlp, search

    undo: list = []

    def count_prune(result):
        if getattr(getattr(result, "verdict", None), "name", None) == "IMMEDIATELY_UNREACHABLE":
            tracer.counts["prune_settled"] += 1

    def count_lp(outcome):
        tracer.counts["lp_infeasible"] += _kind_is(outcome, "INFEASIBLE")

    def count_ilp(outcome):
        tracer.counts["ilp_budget_exhausted"] += _kind_is(outcome, "BUDGET_EXHAUSTED")

    def count_search(result):
        stats = getattr(result, "stats", None)
        tracer.counts["expanded"] += getattr(stats, "expanded", 0)
        tracer.counts["discovered"] += getattr(stats, "discovered", 0)

    def count_successors(out):
        tracer.counts["successors"] += len(out)

    targets = [
        (instance_io, "desugar_init", "instance_io.desugar", None),
        (prune, "prune_instance", "prune.prune", count_prune),
        (ratlp, "simplex_min", "ratlp.lp", count_lp),
        (ratlp, "ilp_min", "ratlp.ilp", count_ilp),
        (search, "directed_search", "search.search", count_search),
    ]
    for module, attr, span, hook in targets:
        original = getattr(module, attr, None)
        if original is None:
            raise LookupError(f"trace target {module.__name__}.{attr} not found")
        _replace_everywhere(original, tracer.wrap(span, original, hook), undo)

    build = getattr(heuristics, "make_heuristic", None)
    if build is None:
        raise LookupError("trace target ffreach.heuristics.make_heuristic not found")
    timed_build = tracer.wrap("heuristics.build", build)
    _replace_everywhere(build, lambda *a, **k: HeuristicProxy(tracer, timed_build(*a, **k)), undo)

    successors = net.PetriNet.successors
    net.PetriNet.successors = tracer.wrap("net.successors", successors, count_successors)
    undo.append((net.PetriNet, "successors", successors))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
