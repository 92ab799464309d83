"""Weighted Petri nets: the token-game semantics explored by the search.

A net is a fixed, ordered list of places plus a list of transitions.  Each
transition carries a guard vector (tokens required per place), a produce
vector (tokens added per place) and a positive rational weight.  Markings
are plain tuples of token counts, which makes them canonical, hashable and
directly usable as graph nodes.

The token game reads sparse tables built once per net: each transition's
guard as ``((place, need), ...)`` over the places it needs tokens from, and
its effect as ``((place, delta), ...)`` over the places it changes.  Firing
tests and edits only those entries, and only a positive delta can overflow.

``PetriNet(...)`` checks each transition once and stores what it checked:
``int`` tuples for guard and produce, a positive ``Fraction`` weight.  Nets
valid by construction (the parser's output after its own line-numbered
checks, and the nets ``desugar_init`` and ``prune_instance`` derive from a
valid one) are built through ``PetriNet._trusted``, without the check.  Both
build every table in ``_build_tables``, once per net: besides the sparse
tables, the dense effects the state equation reads, and ``L``, the lcm of
the weight denominators, with the ``L``-scaled weights the search reads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
    weight = Fraction(value)
    if weight <= 0:
        raise NetDefinitionError(f"transition weight must be > 0, got {value}")
    return weight


def _nat_vector(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``s, each checked to be a natural."""
    try:
        vec = tuple(map(operator.index, values))
    except TypeError:
        vec = None
    if vec is None or any(v < 0 for v in vec):
        raise NetDefinitionError(f"{what} must be a vector of naturals, got {values}")
    return vec


@dataclass(frozen=True)
class Transition:
    """One transition: guard and produce vectors indexed like the net's places."""

    name: str
    guard: tuple[int, ...]
    produce: tuple[int, ...]
    weight: Fraction = Fraction(1)

    @property
    def effect(self) -> tuple[int, ...]:
        """Net token change per place (may be negative)."""
        return tuple(p - g for g, p in zip(self.guard, self.produce))

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
        consume = dict(consume or {})
        produce = dict(produce or {})
        for key in (*consume, *produce):
            if key not in places:
                raise NetDefinitionError(f"transition {name!r} references unknown place {key!r}")
        guard = tuple(consume.get(p, 0) for p in places)
        prod = tuple(produce.get(p, 0) for p in places)
        return cls(name, _nat_vector(guard, "guard"), _nat_vector(prod, "produce"), _as_weight(weight))


@dataclass(frozen=True)
class Witness:
    """A fired transition sequence with its total weight and occurrence counts."""

    sequence: tuple[int, ...]
    total_weight: Fraction
    parikh: tuple[int, ...]


class PetriNet:
    """Immutable weighted Petri net.

    All operations are pure: firing returns fresh markings and never mutates
    the net, so one net can back any number of concurrent searches.
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
        self._build_tables()

    @classmethod
    def _trusted(cls, places: tuple[str, ...], transitions: tuple[Transition, ...], name: str) -> "PetriNet":
        """A net whose parts are already known to be valid, built without
        the checks of ``__init__``: the parser's output after its own checks,
        or a net derived from a valid one.  The caller passes tuples of
        ``str`` ids, ``int`` vectors and ``Fraction`` weights."""
        net = cls.__new__(cls)
        net.name, net.places, net.transitions = name, places, transitions
        net._build_tables()
        return net

    def _build_tables(self) -> None:
        """Every table derived from the net's parts, built once per net."""
        transitions = self.transitions
        self.place_index = {p: i for i, p in enumerate(self.places)}
        self.transition_index = {t.name: i for i, t in enumerate(transitions)}
        self._effects = effects = tuple(t.effect for t in transitions)
        self._guards = tuple(tuple((p, need) for p, need in enumerate(t.guard) if need) for t in transitions)
        self._deltas = tuple(tuple((p, delta) for p, delta in enumerate(effect) if delta) for effect in effects)
        #: ``L``, the lcm of the weight denominators (1 without transitions).
        self.scale = scale = math.lcm(*(t.weight.denominator for t in transitions))
        #: Each weight times ``L``, as an ``int``.
        self.scaled_weights = tuple(t.weight.numerator * (scale // t.weight.denominator) for t in transitions)

    @property
    def num_places(self) -> int:
        return len(self.places)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def effect(self, t: int) -> tuple[int, ...]:
        return self._effects[t]

    def min_weight(self) -> Fraction:
        """Smallest transition weight (1 for a net without transitions)."""
        if not self.transitions:
            return Fraction(1)
        return min(t.weight for t in self.transitions)

    def max_weight(self) -> Fraction:
        if not self.transitions:
            return Fraction(1)
        return max(t.weight for t in self.transitions)

    def check_marking(self, m: Sequence[int]) -> Marking:
        """Validate token counts against this net and return them as a tuple."""
        marking = _nat_vector(m, "marking")
        if len(marking) != self.num_places:
            raise NetDefinitionError(
                f"marking has {len(marking)} components, net has {self.num_places} places"
            )
        if any(v > MAX_TOKENS for v in marking):
            raise NetDefinitionError(f"marking components must be in [0, 2**64): {marking}")
        return marking

    def is_firable(self, m: Marking, t: int) -> bool:
        """True iff the marking dominates the guard of transition ``t``."""
        for p, need in self._guards[t]:
            if m[p] < need:
                return False
        return True

    def fire(self, m: Marking, t: int) -> Marking:
        """Fire transition ``t``, returning the successor marking."""
        if not self.is_firable(m, t):
            trans = self.transitions[t]
            raise NotFirableError(
                f"transition {trans.name!r} is not firable: marking {m} below guard {trans.guard}",
                transition=t,
            )
        return self._apply(m, t)

    def _apply(self, m: Marking, t: int) -> Marking:
        """Add the effect of an enabled transition ``t`` to ``m``."""
        result = list(m)
        for p, delta in self._deltas[t]:
            v = result[p] + delta
            if delta > 0 and v > MAX_TOKENS:
                raise TokenOverflowError(
                    f"firing {self.transitions[t].name!r} overflows a token count", transition=t
                )
            result[p] = v
        return tuple(result)

    def successors(self, m: Marking) -> list[tuple[int, Marking]]:
        """All enabled transitions with their successor markings, in index order."""
        out = []
        # is_firable's test, inlined: a call per transition costs more than the test.
        for t, guard in enumerate(self._guards):
            for p, need in guard:
                if m[p] < need:
                    break
            else:
                out.append((t, self._apply(m, t)))
        return out

    def witness(self, seq: Sequence[int]) -> Witness:
        """Package a transition sequence as a Witness (weight and Parikh counts)."""
        seq = tuple(int(t) for t in seq)
        parikh = [0] * self.num_transitions
        total = Fraction(0)
        for t in seq:
            parikh[t] += 1
            total += self.transitions[t].weight
        return Witness(seq, total, tuple(parikh))

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
