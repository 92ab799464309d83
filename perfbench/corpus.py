"""Seeded instance corpora for the solve benchmark.

Nets are built here as plain data, independent of ffreach, and serialised
to ``.fnet`` text; the solver only ever sees that text.  Every random choice
comes from one SplitMix64 stream keyed by the workload seed, so the same
seed gives byte-identical corpora on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small deterministic PRNG with identical streams everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def fork(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())


@dataclass(frozen=True)
class Trans:
    name: str
    consume: tuple[int, ...]
    produce: tuple[int, ...]
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class Net:
    name: str
    places: tuple[str, ...]
    transitions: tuple[Trans, ...]

    def min_weight(self) -> Fraction:
        return min((t.weight for t in self.transitions), default=Fraction(1))


@dataclass(frozen=True)
class Inst:
    """One benchmark instance.

    ``target`` holds one (relation, bound) pair per place, relation ``=`` or
    ``>=``.  ``bounded`` means every run from the initial set stays in a
    finite state space, so unreachability can be decided by enumeration.
    ``walk_weight`` is the weight of the generating walk (an upper bound on
    the distance) for walk instances, else None.
    """

    id: str
    net: Net
    init: tuple[int, ...]
    upward: frozenset[int]
    target: tuple[tuple[str, int], ...]
    bounded: bool
    walk_weight: Fraction | None = None


def _trans(places, name, consume=None, produce=None, weight=1) -> Trans:
    index = {p: i for i, p in enumerate(places)}
    guard = [0] * len(places)
    prod = [0] * len(places)
    for p, k in (consume or {}).items():
        guard[index[p]] += k
    for p, k in (produce or {}).items():
        prod[index[p]] += k
    return Trans(name, tuple(guard), tuple(prod), Fraction(weight))


# ---------------------------------------------------------------------------
# net families


def prodcons_net(capacity: int | None, weights: tuple) -> Net:
    """Producers fill a buffer that consumers drain.  With a capacity the
    buffer is guarded by free-slot tokens and the net is bounded; without
    one the buffer can grow without limit."""
    places = ["pidle", "pready", "buf", "cidle", "cbusy"]
    if capacity is not None:
        places.append("slot")
    slot = {"slot": 1} if capacity is not None else {}
    w_make, w_put, w_take, w_done = weights
    ts = [
        _trans(places, "make", {"pidle": 1}, {"pready": 1}, w_make),
        _trans(places, "put", {"pready": 1, **slot}, {"pidle": 1, "buf": 1}, w_put),
        _trans(places, "take", {"cidle": 1, "buf": 1}, {"cbusy": 1}, w_take),
        _trans(places, "done", {"cbusy": 1}, {"cidle": 1, **slot}, w_done),
    ]
    name = "prodcons" if capacity is None else f"prodcons-cap{capacity}"
    return Net(name, tuple(places), tuple(ts))


def mutex_net(procs: int) -> Net:
    """``procs`` process classes competing for one lock; bounded."""
    places = ["lock"]
    for i in range(procs):
        places += [f"idle{i}", f"wait{i}", f"crit{i}"]
    ts = []
    for i in range(procs):
        ts.append(_trans(places, f"req{i}", {f"idle{i}": 1}, {f"wait{i}": 1}))
        ts.append(_trans(places, f"enter{i}", {f"wait{i}": 1, "lock": 1}, {f"crit{i}": 1}, 2))
        ts.append(_trans(places, f"exit{i}", {f"crit{i}": 1}, {f"idle{i}": 1, "lock": 1}))
    return Net(f"mutex{procs}", tuple(places), tuple(ts))


def pipeline_net(stages: int) -> Net:
    """Tokens move stage by stage between a source and a sink; a fork at
    the last stage feeds the first again.  Unbounded."""
    places = [f"s{i}" for i in range(stages)]
    ts = [
        _trans(places, f"step{i}", {f"s{i}": 1}, {f"s{i + 1}": 1}, Fraction(i % 3 + 1, 2))
        for i in range(stages - 1)
    ]
    last = f"s{stages - 1}"
    ts.append(_trans(places, "src", None, {"s0": 1}, 2))
    ts.append(_trans(places, "sink", {last: 1}, None))
    ts.append(_trans(places, "fork", {last: 1}, {last: 1, "s0": 1}, 3))
    return Net(f"pipeline{stages}", tuple(places), tuple(ts))


def ring_net(size: int) -> Net:
    """The generator ring: tokens circulate a -> b -> ... -> a."""
    places = [chr(ord("a") + i) for i in range(size)]
    ts = [
        _trans(places, f"t{places[i]}{places[(i + 1) % size]}", {places[i]: 1}, {places[(i + 1) % size]: 1})
        for i in range(size)
    ]
    return Net(f"ring{size}", tuple(places), tuple(ts))


def coins_net() -> Net:
    """Coins are minted two or three at a time and traded for goods, which
    are packed in pairs.  Batched minting makes the state equation's
    rational optimum fractional for most targets, so the integer heuristic
    has to branch.  Unbounded."""
    places = ["coin", "good", "pack"]
    ts = [
        _trans(places, "mint2", None, {"coin": 2}, 1),
        _trans(places, "mint3", None, {"coin": 3}, 2),
        _trans(places, "buy", {"coin": 3}, {"good": 1}, 1),
        _trans(places, "sell", {"good": 1}, {"coin": 2}, 1),
        _trans(places, "wrap", {"good": 2}, {"pack": 1}, 1),
        _trans(places, "unwrap", {"pack": 1}, {"good": 1, "coin": 1}, 1),
    ]
    return Net("coins", tuple(places), tuple(ts))


# ---------------------------------------------------------------------------
# instances


def random_walk(net: Net, start: tuple[int, ...], length: int, rng: SplitMix64):
    """Fire up to ``length`` uniformly chosen enabled transitions."""
    m = start
    weight = Fraction(0)
    for _ in range(length):
        enabled = [t for t in net.transitions if all(a >= b for a, b in zip(m, t.consume))]
        if not enabled:
            break
        t = enabled[rng.below(len(enabled))]
        m = tuple(v - c + p for v, c, p in zip(m, t.consume, t.produce))
        weight += t.weight
    return m, weight


def walk_instance(iid, net, init, upward, length, rng, bounded, lift=0) -> Inst:
    """Exact target at the end of a random walk, reachable by construction.

    ``lift`` extra tokens are put on each upward-flagged place before the
    walk, like ``gen-walk --init-tokens``; their generator cost is part of
    the walk weight."""
    start = tuple(v + lift if p in upward else v for p, v in enumerate(init))
    end, weight = random_walk(net, start, length, rng)
    weight += lift * len(upward) * net.min_weight()
    return Inst(iid, net, init, frozenset(upward), tuple(("=", v) for v in end), bounded, weight)


def cover_instance(iid, net, init, demands: dict) -> Inst:
    target = tuple((">=", demands.get(p, 0)) for p in net.places)
    return Inst(iid, net, init, frozenset(), target, True)


def marking(net: Net, tokens: dict) -> tuple[int, ...]:
    return tuple(tokens.get(p, 0) for p in net.places)


@dataclass(frozen=True)
class Shape:
    """The size and kind of a random bounded instance."""

    num_places: int
    num_trans: int
    rational: bool  # weights p/q with p in 1..4, q in 1..3; else all 1
    upward_init: bool  # some initially marked places flagged ``>=``
    walk_target: bool  # target near the end of a short walk; else arbitrary


def random_bounded_instance(rng: SplitMix64, iid: str, shape: Shape) -> Inst:
    """A small random instance on a net where every transition consumes at
    least as many tokens as it produces, so the reachable set is finite
    unless the initial marking is upward-closed.  Shaped like the random
    instances of the test suite: ``=``/``>=`` targets, rational weights,
    upward-closed initial markings.  Arbitrary targets are mostly
    unreachable."""
    num_places, num_trans = shape.num_places, shape.num_trans
    places = tuple(f"p{i}" for i in range(num_places))
    rational, upward_init = shape.rational, shape.upward_init

    ts = []
    for t in range(num_trans):
        guard_total = rng.between(1, 2)
        guard = [0] * num_places
        for _ in range(guard_total):
            guard[rng.below(num_places)] += 1
        produce_total = guard_total if rng.chance(1, 2) else rng.between(0, guard_total)
        produce = [0] * num_places
        for _ in range(produce_total):
            produce[rng.below(num_places)] += 1
        weight = Fraction(rng.between(1, 4), rng.between(1, 3)) if rational else Fraction(1)
        ts.append(Trans(f"t{t}", tuple(guard), tuple(produce), weight))
    net = Net("random", places, tuple(ts))

    init = [rng.between(0, 3) for _ in range(num_places)]
    while sum(init) < 2:
        init[rng.below(num_places)] += 1
    init = tuple(init)
    upward: frozenset[int] = frozenset()
    if upward_init:
        marked = [p for p in range(num_places) if init[p] >= 1]
        upward = frozenset(p for p in marked if rng.chance(1, 2)) or frozenset(marked[:1])

    if shape.walk_target:
        end, _ = random_walk(net, init, rng.between(1, 8), rng)
        target = []
        for p in range(num_places):
            if upward_init:
                target.append((">=", rng.between(0, end[p])))
            elif rng.chance(7, 10):
                target.append(("=", end[p]))
            else:
                target.append((">=", rng.between(0, end[p])))
    else:
        target = [
            (">=" if upward_init or rng.chance(1, 2) else "=", rng.between(0, 2))
            for _ in range(num_places)
        ]
    return Inst(iid, net, init, upward, tuple(target), bounded=not upward_init)


# ---------------------------------------------------------------------------
# serialisation


def to_fnet(inst: Inst) -> str:
    """``.fnet`` text for an instance, in the format ``ffreach solve`` reads."""
    net = inst.net
    lines = [f"# benchmark instance {inst.id}", f"net {net.name}", "places: " + " ".join(net.places)]
    init = []
    for p, v in enumerate(inst.init):
        if p in inst.upward:
            init.append(f"{net.places[p]}>={v}")
        elif v:
            init.append(f"{net.places[p]}={v}")
    lines.append(("init: " + " ".join(init)).rstrip())
    for t in net.transitions:
        lines.append(f"transition {t.name}" + (f" weight {t.weight}" if t.weight != 1 else ""))
        consume = [f"{net.places[p]}:{k}" for p, k in enumerate(t.consume) if k]
        produce = [f"{net.places[p]}:{k}" for p, k in enumerate(t.produce) if k]
        if consume:
            lines.append("  consume " + " ".join(consume))
        if produce:
            lines.append("  produce " + " ".join(produce))
    target = [
        f"{net.places[p]}{rel}{bound}"
        for p, (rel, bound) in enumerate(inst.target)
        if rel == "=" or bound
    ]
    lines.append(("target: " + " ".join(target)).rstrip())
    return "\n".join(lines) + "\n"
