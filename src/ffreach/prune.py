"""Pruning by sign analysis: a cheap, sound pre-pass that shrinks instances.

Starting from the initially marked places, a fixpoint marks every place some
transition can ever feed: whenever all of a transition's input places are
marked, its output places become marked too.  Places outside the fixpoint
can never carry a token in any reachable marking, so they are removed along
with every transition that needs a token from them.  The answer (verdict and
distance) of the instance is unchanged; if the target demands tokens in a
removed place, the instance is settled on the spot.

The fixpoint, ``sign_analysis``, and the filter of the transitions kept,
``PetriNet.guarded_within``, live in ``net`` beside the firing records they
read; ``sign_analysis`` is re-exported here under its name.  This module
projects the instance onto what they keep.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .instance_io import Instance, TargetSpec
from .net import PetriNet, Transition, sign_analysis


class PruneVerdict(Enum):
    PRUNED = "pruned"
    IMMEDIATELY_UNREACHABLE = "immediately-unreachable"


class PruneResult(NamedTuple):
    """``pruned_instance`` is equivalent to the input only under the PRUNED
    verdict; an IMMEDIATELY_UNREACHABLE verdict settles the query by itself.
    The pruned net keeps the names of the places and transitions it keeps.
    """

    pruned_instance: Instance
    verdict: PruneVerdict


def prune_instance(inst: Instance) -> PruneResult:
    """Drop unmarkable places and the transitions that require them.

    Meant to run after init desugaring so generator transitions participate
    in the fixpoint; upward-flagged places count as initially marked either
    way.  Target constraints on removed places are dropped when they are
    vacuously true (= 0 or >= 0) and settle the instance as immediately
    unreachable when they demand tokens.  When every place is markable, or
    the instance is settled, the input instance itself is returned.  Else
    the net, marking and target are projected onto the kept places and not
    checked again, a projection of a valid one being valid.  A target
    without one constraint per place raises NetDefinitionError.
    """
    net = inst.net
    inst._check_target()
    initially_marked = {p for p in range(net.num_places) if inst.init[p] > 0}
    initially_marked |= inst.init_upward
    if len(initially_marked) == net.num_places:
        return PruneResult(inst, PruneVerdict.PRUNED)  # the fixpoint cannot drop a marked place
    markable = sign_analysis(net, initially_marked)

    if len(markable) == net.num_places:
        return PruneResult(inst, PruneVerdict.PRUNED)

    # No token can reach a removed place: a target that demands one there is unreachable.
    if any(inst.target.constraints[p][1] > 0 for p in range(net.num_places) if p not in markable):
        return PruneResult(inst, PruneVerdict.IMMEDIATELY_UNREACHABLE)
    kept_places = [p for p in range(net.num_places) if p in markable]
    transitions = tuple([
        Transition(name, tuple(map(guard.__getitem__, kept_places)), tuple(map(made.__getitem__, kept_places)), weight)
        for name, guard, made, weight in map(net.transitions.__getitem__, net.guarded_within(markable))
    ])
    pruned = Instance(
        PetriNet._trusted(tuple(map(net.places.__getitem__, kept_places)), transitions, net.name),
        tuple(map(inst.init.__getitem__, kept_places)),
        frozenset(new for new, p in enumerate(kept_places) if p in inst.init_upward),
        TargetSpec._trusted(tuple(map(inst.target.constraints.__getitem__, kept_places))),
    )
    return PruneResult(pruned, PruneVerdict.PRUNED)
