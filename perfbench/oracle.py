"""Reference answers and report checking, written without ffreach.

The reference distance comes from a plain Dijkstra over the explicit state
graph of the benchmark's own net description, with weights scaled to
integers.  Upward-closed initial markings are modelled the way the ``.fnet``
format defines them: one generator transition per flagged place, with the
net's minimum weight.  Whether such an instance can reach its (upward-
closed) target at all is decided first by the classic backward coverability
fixpoint, because a forward search over its infinite state space would not
end when the answer is no.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm

from corpus import Inst, Trans


class StateCapExceeded(RuntimeError):
    """The reference search met more states than the corpus allows."""


def with_generators(inst: Inst) -> list[Trans]:
    """The instance's transitions plus ``gen_<place>`` for flagged places."""
    net = inst.net
    n = len(net.places)
    gens = [
        Trans(f"gen_{net.places[p]}", (0,) * n, tuple(int(q == p) for q in range(n)), net.min_weight())
        for p in sorted(inst.upward)
    ]
    return list(net.transitions) + gens


def satisfied(inst: Inst, m) -> bool:
    return all(
        (v == bound) if rel == "=" else (v >= bound)
        for v, (rel, bound) in zip(m, inst.target)
    )


def shortest_distance(inst: Inst, below=None, pop_limit=None, state_cap: int = 200_000):
    """(distance, markings settled) by Dijkstra; distance is None when no
    target marking lies closer than ``below`` or among the first
    ``pop_limit`` settled markings (default: anywhere in the reachable set,
    which is then drained)."""
    ts = with_generators(inst)
    scale = lcm(*(t.weight.denominator for t in ts)) if ts else 1
    moves = [
        (
            [(p, c) for p, c in enumerate(t.consume) if c],
            tuple(p - c for c, p in zip(t.consume, t.produce)),
            int(t.weight * scale),
        )
        for t in ts
    ]
    limit = None if below is None else below * scale
    start = tuple(inst.init)
    dist = {start: 0}
    heap = [(0, start)]
    popped = 0
    while heap:
        d, m = heapq.heappop(heap)
        if d > dist[m]:
            continue
        popped += 1
        if satisfied(inst, m):
            return Fraction(d, scale), popped
        if popped == pop_limit:
            return None, popped
        for guard, effect, w in moves:
            if all(m[p] >= c for p, c in guard):
                succ = tuple(a + e for a, e in zip(m, effect))
                nd = d + w
                if limit is not None and nd >= limit:
                    continue
                old = dist.get(succ)
                if old is None or nd < old:
                    if old is None and len(dist) >= state_cap:
                        raise StateCapExceeded(f"{inst.id}: more than {state_cap} states")
                    dist[succ] = nd
                    heapq.heappush(heap, (nd, succ))
    return None, popped


def coverable(inst: Inst) -> bool:
    """Backward coverability from the upward-closed initial set.

    Needs an all-``>=`` target.  Works on minimal bases of upward-closed
    sets; terminates because markings are well-quasi-ordered.
    """
    if any(rel != ">=" for rel, _ in inst.target):
        raise ValueError("coverability needs an upward-closed target")
    n = len(inst.net.places)

    def pre(u, t: Trans):
        return tuple(max(t.consume[p], u[p] - (t.produce[p] - t.consume[p])) for p in range(n))

    def dominated(u, basis) -> bool:
        return any(all(a >= b for a, b in zip(u, v)) for v in basis)

    basis = {tuple(bound for _, bound in inst.target)}
    while True:
        new = {pre(u, t) for u in basis for t in inst.net.transitions}
        new = {u for u in new if not dominated(u, basis)}
        if not new:
            break
        merged = basis | new
        basis = {
            u for u in merged
            if not any(v != u and all(a >= b for a, b in zip(u, v)) for v in merged)
        }
    return any(
        all(p in inst.upward or inst.init[p] >= u[p] for p in range(n)) for u in basis
    )


def reference(inst: Inst):
    """Exact distance as a Fraction, or None when unreachable."""
    if inst.walk_weight is None:
        if inst.upward and not coverable(inst):
            return None
        if not inst.bounded and not inst.upward:
            raise ValueError(f"{inst.id}: no way to decide an unbounded instance")
    return shortest_distance(inst)[0]


def check_report(inst: Inst, expected, report: dict, exact: bool) -> str | None:
    """Compare one JSON report with the reference; returns the first
    mismatch found, or None when the report is right.

    ``expected`` is the reference distance (None: unreachable).  An exact
    configuration must report exactly that distance; an inexact one
    (greedy search) any witness at least that long.  Every witness is
    replayed on the original instance.
    """
    verdict = report.get("verdict")
    if expected is None:
        return None if verdict == "unreachable" else f"verdict {verdict!r}, expected 'unreachable'"
    if verdict != "reachable":
        return f"verdict {verdict!r}, expected 'reachable'"
    distance = Fraction(report["distance"]["fraction"])
    if exact and distance != expected:
        return f"distance {distance}, expected {expected}"
    if distance < expected:
        return f"distance {distance} below the optimum {expected}"
    if inst.walk_weight is not None and exact and distance > inst.walk_weight:
        return f"distance {distance} above the walk weight {inst.walk_weight}"

    by_name = {t.name: t for t in with_generators(inst)}
    original = {t.name for t in inst.net.transitions}
    m = tuple(inst.init)
    weight = Fraction(0)
    generators = 0
    for step, name in enumerate(report["witness"]):
        t = by_name.get(name)
        if t is None:
            return f"witness step {step}: unknown transition {name!r}"
        if any(a < b for a, b in zip(m, t.consume)):
            return f"witness step {step}: {name!r} not enabled at {m}"
        m = tuple(a - c + p for a, c, p in zip(m, t.consume, t.produce))
        weight += t.weight
        generators += name not in original
    if not satisfied(inst, m):
        return f"witness ends at {m}, outside the target"
    if weight != distance:
        return f"witness weighs {weight}, report says {distance}"
    if generators != report["generator_firings"]:
        return f"witness has {generators} generator firings, report says {report['generator_firings']}"
    return None
