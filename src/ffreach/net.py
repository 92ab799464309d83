"""Weighted Petri nets: the token-game semantics explored by the search.

A net is a fixed, ordered list of places plus a list of transitions.  Each
transition carries a guard vector (tokens required per place), a produce
vector (tokens added per place) and a positive rational weight.  Markings
are plain tuples of token counts, which makes them canonical, hashable and
directly usable as graph nodes.

The token game reads one firing record per transition,
``(t, guard, deltas, raises)``: the guard's ``(place, need)`` entries, the
``(place, delta)`` effect entries, and the places with a positive delta, the
only ones that can pass ``MAX_TOKENS``.  ``PetriNet.successors``, which
given a target's bounds fires only the enabled members of a weak stubborn
set, reads them too.  The bitmasks those sets are built from are read off
the records once per net, on first use.  This module is the only one that
reads the records and the masks: the other modules ask the net.
``PetriNet.dead_end`` answers the state-equation heuristic's empty-seed
test, ``PetriNet.predecessors`` lists the markings its memo probe reads,
built from the sparse deltas, ``PetriNet.realize`` fires its optimal firing
counts for the search's lookahead, and ``sign_analysis`` and
``PetriNet.guarded_within`` serve ``prune_instance``.

``PetriNet(...)`` checks each transition once and stores what it checked:
``int`` tuples for guard and produce, a positive ``Fraction`` weight.  Nets
valid by construction (the parser's output after its own line-numbered
checks, and the projections ``prune_instance`` makes of a valid one) are
built through ``PetriNet._trusted``, without the check.  Both read the
firing records off the dense vectors in ``_firings``, one loop per
transition.  ``_extended``, the net ``desugar_init`` makes, keeps its
parent's records and reads only those of the transitions it appends.  Every
net computes ``L``, the lcm of its weight denominators, and the
``L``-scaled weights the search and ``witness`` read, in ``_set_tables``.
"""

from __future__ import annotations

import math
import operator
import time
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

#: Markings are dense tuples of token counts, one entry per place.
Marking = tuple[int, ...]

#: Token counts are 64-bit naturals; firing beyond this raises TokenOverflowError.
MAX_TOKENS = 2**64 - 1


class NetDefinitionError(ValueError):
    """A net violates a structural invariant (duplicate ids, bad vector, ...)."""


class NotFirableError(ValueError):
    """A transition was fired from a marking that does not satisfy its guard."""

    def __init__(self, message: str, transition: int, step: int | None = None):
        super().__init__(message)
        self.transition = transition
        #: Position within the replayed sequence, when raised by replay().
        self.step = step


class TokenOverflowError(OverflowError):
    """Firing would push a token count beyond the 64-bit range."""

    def __init__(self, message: str, transition: int):
        super().__init__(message)
        self.transition = transition


def _as_weight(value) -> Fraction:
    try:
        weight = Fraction(value)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinite
        raise NetDefinitionError(f"transition weight must be a positive rational, got {value!r}") from None
    if weight <= 0:
        raise NetDefinitionError(f"transition weight must be > 0, got {value}")
    return weight


def _nat_vector(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``s, each checked to be a natural."""
    try:
        vec = tuple(map(operator.index, values))
    except TypeError:
        vec = None
    if vec is None or min(vec, default=0) < 0:
        raise NetDefinitionError(f"{what} must be a vector of naturals, got {values}")
    return vec


class Transition(NamedTuple):
    """One transition: guard and produce vectors indexed like the net's places."""

    name: str
    guard: tuple[int, ...]
    produce: tuple[int, ...]
    weight: Fraction = Fraction(1)

    @classmethod
    def from_maps(
        cls,
        name: str,
        places: Sequence[str],
        consume: Mapping[str, int] | None = None,
        produce: Mapping[str, int] | None = None,
        weight=1,
    ) -> "Transition":
        """Build a transition from sparse place-name maps."""
        places = tuple(places)  # read once: ``places`` may be a one-shot iterable
        consume = dict(consume or {})
        produce = dict(produce or {})
        for key in (*consume, *produce):
            if key not in places:
                raise NetDefinitionError(f"transition {name!r} references unknown place {key!r}")
        guard = tuple(consume.get(p, 0) for p in places)
        prod = tuple(produce.get(p, 0) for p in places)
        return cls(name, _nat_vector(guard, "guard"), _nat_vector(prod, "produce"), _as_weight(weight))


class Witness(NamedTuple):
    """A fired transition sequence with its total weight and occurrence counts."""

    sequence: tuple[int, ...]
    total_weight: Fraction
    parikh: tuple[int, ...]


def _firings(transitions: Sequence[Transition], first: int) -> tuple:
    """The firing records of ``transitions``, numbered from ``first``, read off their dense vectors."""
    firings = []
    for t, trans in enumerate(transitions, first):
        guard, deltas, raises = [], [], []
        p = 0
        for need, made in zip(trans.guard, trans.produce):
            if need:
                guard.append((p, need))
            if made != need:
                deltas.append((p, made - need))
                if made > need:
                    raises.append(p)
            p += 1
        firings.append((t, tuple(guard), tuple(deltas), tuple(raises)))
    return tuple(firings)


class PetriNet:
    """Immutable weighted Petri net.

    All operations are pure: firing returns fresh markings and never mutates
    the net, and the stubborn-set masks are never changed once built, so one
    net can back any number of concurrent searches.
    """

    def __init__(self, places: Sequence[str], transitions: Sequence[Transition] = (), name: str = "net"):
        places = tuple(str(p) for p in places)
        if any(not p for p in places):
            raise NetDefinitionError("place ids must be non-empty")
        if len(set(places)) != len(places):
            raise NetDefinitionError("place ids must be unique")
        n = len(places)
        names: set[str] = set()
        checked = []
        for t in transitions:
            if not t.name:
                raise NetDefinitionError("transition ids must be non-empty")
            if t.name in names:
                raise NetDefinitionError("transition ids must be unique")
            names.add(t.name)
            if len(t.guard) != n or len(t.produce) != n:
                raise NetDefinitionError(
                    f"transition {t.name!r} has vectors of length "
                    f"{len(t.guard)}/{len(t.produce)}, expected {n}"
                )
            guard = _nat_vector(t.guard, f"guard of {t.name!r}")
            produce = _nat_vector(t.produce, f"produce of {t.name!r}")
            checked.append(Transition(t.name, guard, produce, _as_weight(t.weight)))
        self.name, self.places, self.transitions = str(name), places, tuple(checked)
        self._set_tables(_firings(self.transitions, 0))

    @classmethod
    def _trusted(cls, places: tuple[str, ...], transitions: tuple[Transition, ...], name: str) -> "PetriNet":
        """A net whose parts are already known to be valid, built without
        the checks of ``__init__``: the parser's output after its own checks,
        or a projection of a valid net.  The caller passes tuples of ``str``
        ids, ``int`` vectors and ``Fraction`` weights."""
        net = cls.__new__(cls)
        net.name, net.places, net.transitions = name, places, transitions
        net._set_tables(_firings(transitions, 0))
        return net

    def _extended(self, extra: tuple[Transition, ...]) -> "PetriNet":
        """This net with the valid transitions ``extra`` appended, keeping its
        own firing records and reading only those of ``extra``."""
        cls = type(self)
        net = cls.__new__(cls)
        net.name, net.places, net.transitions = self.name, self.places, self.transitions + extra
        net._set_tables(self._firings + _firings(extra, len(self.transitions)))
        return net

    def _set_tables(self, firings: tuple) -> None:
        """Store the firing records and the scaled weights of this net's transitions."""
        #: The firing record of each transition, in index order.
        self._firings = firings
        weights = [t.weight for t in self.transitions]
        #: ``L``, the lcm of the weight denominators (1 without transitions).
        self.scale = scale = math.lcm(*[w.denominator for w in weights])
        #: Each weight times ``L``, as an ``int``.
        self.scaled_weights = tuple([w.numerator * (scale // w.denominator) for w in weights])

    @property
    def num_places(self) -> int:
        return len(self.places)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def min_weight(self) -> Fraction:
        """Smallest transition weight (1 for a net without transitions):
        the first least one, found on the integer scaled weights."""
        weights = self.scaled_weights
        if not weights:
            return Fraction(1)
        return self.transitions[weights.index(min(weights))].weight

    def check_marking(self, m: Sequence[int]) -> Marking:
        """Validate token counts against this net and return them as a tuple."""
        marking = _nat_vector(m, "marking")
        if len(marking) != len(self.places):
            raise NetDefinitionError(
                f"marking has {len(marking)} components, net has {self.num_places} places"
            )
        if max(marking, default=0) > MAX_TOKENS:
            raise NetDefinitionError(f"marking components must be in [0, 2**64): {marking}")
        return marking

    def is_firable(self, m: Marking, t: int) -> bool:
        """True iff the marking dominates the guard of transition ``t``."""
        if t < 0:
            raise IndexError(f"transition index {t} is negative")
        return all(m[p] >= need for p, need in self._firings[t][1])

    def fire(self, m: Marking, t: int) -> Marking:
        """Fire transition ``t``, returning the successor marking."""
        if not self.is_firable(m, t):
            trans = self.transitions[t]
            raise NotFirableError(
                f"transition {trans.name!r} is not firable: marking {m} below guard {trans.guard}",
                transition=t,
            )
        _, _, deltas, raises = self._firings[t]
        result = list(m)
        for p, delta in deltas:
            result[p] += delta
        if any(result[p] > MAX_TOKENS for p in raises):
            raise TokenOverflowError(f"firing {self.transitions[t].name!r} overflows a token count", t)
        return tuple(result)

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``(raisers, lowerers, interference)``, bitmasks over transition
        indices read off the firing records on first use: the transitions
        that raise and that lower each place, and for each transition the
        transitions that need a place it lowers.  Nothing changes them once
        they are built.  :meth:`successors` and :meth:`dead_end` read them."""
        n = len(self.places)
        raisers, lowerers, needers = [0] * n, [0] * n, [0] * n
        for t, guard, deltas, _ in self._firings:
            bit = 1 << t
            for p, _ in guard:
                needers[p] |= bit
            for p, delta in deltas:
                if delta > 0:
                    raisers[p] |= bit
                else:
                    lowerers[p] |= bit
        interference = []
        for _, _, deltas, _ in self._firings:
            mask = 0
            for p, delta in deltas:
                if delta < 0:
                    mask |= needers[p]
            interference.append(mask)
        return tuple(raisers), tuple(lowerers), tuple(interference)

    def _enabled(self, m: Marking, todo: int) -> int:
        """The mask of the enabled members of the closure of the seed
        ``todo`` at ``m``.  An enabled member brings in the transitions
        that need a place it lowers; a disabled one, the transitions that
        raise the first place of its guard that ``m`` leaves short."""
        raisers, _, interference = self._masks
        firings = self._firings
        kept, enabled = todo, 0
        while todo:
            low = todo & -todo
            todo ^= low
            t, guard, _, _ = firings[low.bit_length() - 1]
            for p, need in guard:
                if m[p] < need:
                    more = raisers[p]
                    break
            else:
                enabled |= low
                more = interference[t]
            more &= ~kept
            kept |= more
            todo |= more
        return enabled

    def successors(self, m: Marking, bounds: Sequence[tuple[int, int, int]] | None = None) -> list[tuple[int, Marking]]:
        """All enabled transitions with their successor markings, in index
        order.  With ``bounds`` (``TargetSpec.bounds()``: ``(place, least,
        most)`` for each place the target constrains) and ``m`` outside
        them, only the enabled members of a weak stubborn set of ``m``
        (Valmari 1990; Wehrle and Helmert 2012).

        Each place that ``m`` violates gives a seed: every transition that
        raises it, if it is below its least count, or that lowers it, if it
        is above its most count; every path to the target fires one of
        them.  The set is the seed's closure (:meth:`_enabled`) with the
        fewest enabled members, taken over the violated places in order
        (Wehrle and Helmert 2014 choose among seeds by the set they yield).
        A tie keeps the earlier place, and the choice stops at a closure
        with at most one enabled member: an empty seed, or a closure
        without an enabled member, leaves ``m`` without successors.  So at
        a marking that :meth:`dead_end` calls a dead end, successors may
        still be returned, when the choice stops at an earlier place whose
        closure has one enabled member.  The seed scan is inlined here, not
        shared with :meth:`dead_end`: a pre-scan of every violated place
        costs the blind searches more than it saves.  Why a search that
        fires only the set stays optimal is told in ``search``.
        """
        raisers, lowerers, _ = self._masks
        chosen, fewest = None, len(self._firings) + 1
        for p, least, most in bounds or ():
            if m[p] < least:
                seed = raisers[p]
            elif m[p] > most:
                seed = lowerers[p]
            else:
                continue
            enabled = self._enabled(m, seed)
            count = enabled.bit_count()
            if count < fewest:
                chosen, fewest = enabled, count
                if count <= 1:
                    break
        if chosen is None:  # no bounds, or m within them: the closure of every transition
            chosen = self._enabled(m, (1 << len(self._firings)) - 1)
        firings, out = self._firings, []
        # fire's rule, inlined: a call per fired transition costs more than the rule.
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            t, _, deltas, raises = firings[low.bit_length() - 1]
            result = list(m)
            for p, delta in deltas:
                result[p] += delta
            for p in raises:
                if result[p] > MAX_TOKENS:
                    raise TokenOverflowError(f"firing {self.transitions[t].name!r} overflows a token count", t)
            out.append((t, tuple(result)))
        return out

    def predecessors(self, m: Marking) -> Iterator[tuple[int, Marking]]:
        """Each transition ``t``, in index order, with ``m - effect(t)``,
        for the transitions whose reverse firing leaves every count
        nonnegative: the markings that ``t`` may lead to ``m`` from.  The
        state-equation heuristic probes its memo with them."""
        for t, _, deltas, _ in self._firings:
            for p, delta in deltas:
                if m[p] < delta:
                    break
            else:
                pred = list(m)
                for p, delta in deltas:
                    pred[p] -= delta
                yield t, tuple(pred)

    def dead_end(self, m: Marking, bounds: Sequence[tuple[int, int, int]]) -> bool:
        """True when a place that ``m`` violates has an empty seed, as
        :meth:`successors` reads seeds: it is below its least count under
        ``bounds`` (``TargetSpec.bounds()``) and no transition raises it, or
        above its most count and none lowers it.  No path from ``m`` then
        reaches the bounds, and no firing count closes the place's gap in
        the state equation."""
        raisers, lowerers, _ = self._masks
        return any((m[p] < least and not raisers[p]) or (m[p] > most and not lowerers[p]) for p, least, most in bounds)

    def realize(
        self, m: Marking, counts: Sequence[int], deadline: float | None = None, failed: set | None = None
    ) -> list[int] | None:
        """A sequence from ``m`` that fires each transition ``t`` exactly
        ``counts[t]`` times, or None.  Each step fires the first enabled
        transition, in index order, that still has a count left.  None when
        no such transition is enabled, when a firing would push a count
        past ``MAX_TOKENS``, or once ``time.monotonic()`` passes
        ``deadline``; it never raises.  Firing effects add up, so a sequence
        returned ends at ``m`` plus the counts' summed effects.

        ``failed``, when given, holds states ``(marking, counts left)`` from
        which this greedy firing is known to get stuck or overflow.  A run
        that starts at one returns None at once.  A run that gets stuck or
        overflows adds every state it passed through, since a run started at
        any of them takes the same steps: a search that looks ahead from
        each marking along such a run fires it once, not once per marking."""
        if failed is not None and (tuple(m), tuple(counts)) in failed:
            return None
        firings, left, marking, seq = self._firings, list(counts), list(m), []
        todo = [t for t, count in enumerate(left) if count]
        monotonic = time.monotonic
        while todo:
            if deadline is not None and monotonic() > deadline:
                return None
            for i, t in enumerate(todo):
                for p, need in firings[t][1]:
                    if marking[p] < need:
                        break
                else:
                    break  # t is enabled
            else:
                break  # stuck: every transition with a count left is disabled
            _, _, deltas, raises = firings[t]
            for p, delta in deltas:
                marking[p] += delta
            for p in raises:
                if marking[p] > MAX_TOKENS:
                    break
            else:  # no count passed MAX_TOKENS
                seq.append(t)
                left[t] -= 1
                if not left[t]:
                    del todo[i]
                continue
            break  # overflow
        else:
            return seq
        if failed is not None:
            marking, left = list(m), list(counts)
            for t in seq:
                failed.add((tuple(marking), tuple(left)))
                for p, delta in firings[t][2]:
                    marking[p] += delta
                left[t] -= 1
            failed.add((tuple(marking), tuple(left)))
        return None

    def guarded_within(self, places: set[int]) -> list[int]:
        """The transitions, in index order, whose guard places all lie in
        ``places``."""
        return [t for t, guard, _, _ in self._firings if all(p in places for p, _ in guard)]

    def witness(self, seq: Sequence[int]) -> Witness:
        """Package a transition sequence as a Witness (weight and Parikh counts)."""
        seq = tuple(map(operator.index, seq))
        parikh = [0] * self.num_transitions
        for t in seq:
            if t < 0:
                raise IndexError(f"transition index {t} is negative")
            parikh[t] += 1
        total = sum(map(operator.mul, parikh, self.scaled_weights))  # L times the weight
        return Witness(seq, Fraction(total, self.scale), tuple(parikh))

    def replay(self, m0: Marking, seq: Sequence[int]) -> tuple[Marking, Witness]:
        """Fire ``seq`` from ``m0``; fails with the step index on a guard violation."""
        m = self.check_marking(m0)
        for step, t in enumerate(seq):
            try:
                m = self.fire(m, t)
            except NotFirableError as exc:
                raise NotFirableError(
                    f"replay failed at step {step}: {exc}", transition=t, step=step
                ) from None
        return m, self.witness(seq)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.places == other.places
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.name, self.places, self.transitions))

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, {self.num_places} places, "
            f"{self.num_transitions} transitions)"
        )


def sign_analysis(net: PetriNet, initially_marked: set[int]) -> set[int]:
    """Least fixpoint of "markable" places, independent of iteration order.

    Each transition reads its guard entries through one iterator and waits
    at the first unmarked place it reads; marking that place wakes it, and
    it reads on from where it stopped.  No guard entry is read twice, so the
    work is linear in the size of the guards.  Only the net's firing records
    are read.
    """
    marked = set(initially_marked)
    waiting: dict[int, list] = {}  # place -> (guard iterator, raised places) waiting on it
    todo = [(iter(guard), raises) for _, guard, _, raises in net._firings]
    while todo:
        guard, raises = todo.pop()
        for p, _ in guard:
            if p not in marked:
                waiting.setdefault(p, []).append((guard, raises))
                break
        else:
            # A place the transition feeds but does not raise is one of its
            # guard places, all marked by now; so only raised places are new.
            for q in raises:
                if q not in marked:
                    marked.add(q)
                    todo += waiting.pop(q, ())
    return marked
