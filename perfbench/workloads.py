"""The benchmark's workloads: which instances, solved with which configs.

Every workload is stratified so that each seed gets the same mix of work:
walk instances by a window on the reference search (exact distance in
``lp-astar``, settled markings in ``blind-search``), small random instances
by shape.  Search effort grows steeply with distance, so without this the
cost of a corpus, and its median solve, would swing with the seed far more
than with the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import corpus as C
import oracle


DEFAULT_ILP_NODE_BUDGET = 10_000  # ffreach solve's default


@dataclass(frozen=True)
class Config:
    strategy: str
    heuristic: str
    ilp_node_budget: int = DEFAULT_ILP_NODE_BUDGET

    @property
    def exact(self) -> bool:
        """Dijkstra and A* with these heuristics return shortest distances."""
        return self.strategy != "gbfs"

    @property
    def label(self) -> str:
        return f"{self.strategy}+{self.heuristic}"

    def as_list(self) -> list:
        return [self.strategy, self.heuristic, self.ilp_node_budget]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]
    build: Callable[[int], list]


def _prodcons(_r):
    net = C.prodcons_net(None, (1, 2, 1, Fraction(1, 2)))
    return net, C.marking(net, {"pidle": 2, "cidle": 2}), (), False, 0


def _prodcons_cap(capacity, procs):
    def make(_r):
        net = C.prodcons_net(capacity, (1, 2, 1, 1))
        return net, C.marking(net, {"pidle": procs, "cidle": procs, "slot": capacity}), (), True, 0
    return make


def _mutex(procs):
    def make(_r):
        net = C.mutex_net(procs)
        return net, C.marking(net, {"lock": 1, **{f"idle{i}": 2 for i in range(procs)}}), (), True, 0
    return make


def _pipeline(_r):
    net = C.pipeline_net(5)
    return net, C.marking(net, {"s0": 1}), (), False, 0


def _ring(r):
    net = C.ring_net(6)
    return net, C.marking(net, {"a": 1}), (0,), False, r.between(1, 3)


def _coins(_r):
    net = C.coins_net()
    return net, C.marking(net, {}), (), False, 0


def stratified_walks(rng: C.SplitMix64, prefix: str, plan: list[tuple[Callable, list[int]]]) -> list:
    """One walk instance per (family, window) in ``plan`` order, each with
    its reference distance D in [lo, lo + 1)."""
    out = []
    slots = [(make, lo) for make, los in plan for lo in los]
    for k, (make, lo) in enumerate(slots):
        r = rng.fork()
        for _ in range(2000):
            net, init, upward, bounded, lift = make(r)
            inst = C.walk_instance(
                f"{prefix}{k:03d}", net, init, upward, r.between(lo, 2 * lo + 4), r, bounded, lift
            )
            distance = oracle.shortest_distance(inst, below=lo + 1)[0]
            if distance is not None and distance >= lo:
                assert distance <= inst.walk_weight
                out.append((inst, distance))
                break
        else:
            raise RuntimeError(f"no walk on {net.name} lands in [{lo}, {lo + 1})")
    return out


def lp_astar(seed: int) -> list:
    rng = C.SplitMix64(seed)
    return stratified_walks(rng, "lp", [
        (_prodcons, list(range(2, 10)) * 4),
        (_prodcons_cap(3, 2), list(range(2, 10)) * 4),
        (_mutex(3), list(range(2, 6)) * 4),
        (_pipeline, list(range(2, 10)) * 3),
        (_ring, list(range(2, 8)) * 4),
        # The only family whose ILPs branch: ratlp.ilp_nodes > ilp_calls.
        # Its solves scatter widely within a window, so they are kept at
        # distance 3, where q lies below the p50 and z between the p50 and
        # the p90: a seed's draw of them moves neither percentile.
        (_coins, [3] * 24),
    ])


def effort_walks(rng: C.SplitMix64, prefix: str, plan: list[tuple[Callable, list[int]]]) -> list:
    """One walk instance per (family, window) in ``plan`` order.  A window
    ``lo`` accepts walks whose target the reference Dijkstra reaches after
    settling between ``lo`` and ``1.25 * lo`` markings: that count is the
    work of a blind search, so every seed gets the same spread of effort."""
    out = []
    slots = [(make, lo) for make, los in plan for lo in los]
    for k, (make, lo) in enumerate(slots):
        r = rng.fork()
        hi = lo * 5 // 4
        for _ in range(5000):
            net, init, upward, bounded, lift = make(r)
            inst = C.walk_instance(f"{prefix}{k:03d}", net, init, upward, r.between(5, 45), r, bounded, lift)
            distance, settled = oracle.shortest_distance(inst, pop_limit=hi)
            if distance is not None and settled >= lo:
                out.append((inst, distance))
                break
        else:
            raise RuntimeError(f"no walk on {net.name} settles {lo}..{hi} markings")
    return out


def blind_search(seed: int) -> list:
    rng = C.SplitMix64(seed ^ 0xB11D)
    # Windows on a 1.25x grid from 40 to 242 settled markings, each family
    # over the part of the grid its walks reach without many redraws.
    grid = [40, 50, 63, 79, 99, 124, 155, 194, 242] * 3
    out = effort_walks(rng, "bs", [
        (_prodcons, ([40, 50, 63] * 7)[:20]),
        (_prodcons_cap(6, 3), [40, 50, 63, 79] * 5),
        (_mutex(4), [99, 155, 194, 242] * 5),
        (_pipeline, grid[:20]),
        (_ring, grid[:20]),
    ])
    # Fourteen unreachable mutual-exclusion violations, each draining all
    # 1,053 states: they are the 28 slowest solves, and the p90 (the 23rd
    # slowest of 228) lies inside this cluster of equal work, off its edges.
    net = C.mutex_net(5)
    init = C.marking(net, {"lock": 1, **{f"idle{i}": 2 for i in range(5)}})
    drained = {}  # the same net and start: one reference per target
    for k in range(14):
        a = rng.below(5)
        b = (a + 1 + rng.below(4)) % 5
        inst = C.cover_instance(f"mx{k:02d}", net, init, {f"crit{a}": 1, f"crit{b}": 1})
        if inst.target not in drained:
            drained[inst.target] = oracle.reference(inst)
        out.append((inst, drained[inst.target]))
    return out


#: Two passes of 8,000 solves take about 15 s on the reference host; a
#: traced run makes two more, slower ones, and all must fit in the worker's
#: timeout when the host runs at half speed.
SMALL_INSTANCES = 2000


def small_shape(k: int) -> C.Shape:
    """Slot k's shape.  The factors cycle at strides 1, 3, 15, 30 and 120,
    so every seed gets the same mix: 2-4 places, 1-5 transitions, half with
    rational weights, about a quarter with upward-closed initial markings,
    a quarter with walk targets."""
    return C.Shape(
        num_places=2 + k % 3,
        num_trans=1 + (k // 3) % 5,
        rational=(k // 15) % 2 == 1,
        upward_init=(k // 30) % 4 == 0,
        walk_target=(k // 120) % 4 == 0,
    )


def small_batch(seed: int) -> list:
    rng = C.SplitMix64(seed ^ 0x5B)
    out = []
    for k in range(SMALL_INSTANCES):
        while True:
            inst = C.random_bounded_instance(rng.fork(), f"sb{k:04d}", small_shape(k))
            expected = oracle.reference(inst)
            # An upward-closed instance that cannot cover its target has an
            # infinite state space: blind search would never end on it.
            if not (inst.upward and expected is None):
                break
        out.append((inst, expected))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp-astar", (Config("astar", "q"), Config("astar", "z")), lp_astar),
        Workload("blind-search", (Config("dijkstra", "zero"), Config("astar", "struct")), blind_search),
        # Depth-first branch-and-bound can run away when the relaxation is
        # unbounded, and its node LPs grow costlier down the tree: A*+z on
        # a distance-1 instance of seed 11 (sb0884) ran for over 5 minutes
        # with the default 10,000-node budget and 7 s with 50.  A run must
        # end, so z gets --ilp-node-budget 10 here; every exhausted budget
        # shows in ratlp.ilp_budget_exhausted.
        Workload(
            "small-batch",
            (Config("astar", "q"), Config("astar", "z", 10), Config("dijkstra", "zero"), Config("gbfs", "struct")),
            small_batch,
        ),
    )
}
