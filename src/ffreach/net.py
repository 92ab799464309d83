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

``PetriNet(...)`` validates its parts.  Nets that are valid by construction
(the parser's output after its own line-numbered checks, and the nets
``desugar_init`` and ``prune_instance`` derive from a valid one) are built
through ``PetriNet._trusted``, which builds the same tables without the check,
or through ``PetriNet._extended``, which appends transitions to a net's tables.
Every transition weight of a net is a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    vec = tuple(int(v) for v in values)
    if any(v < 0 for v in vec):
        raise NetDefinitionError(f"{what} must be a vector of naturals, got {vec}")
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
        self.name = str(name)
        self.places = tuple(str(p) for p in places)
        self.transitions = tuple(transitions)
        self._validate()
        self.transitions = tuple(replace(t, weight=_as_weight(t.weight)) for t in self.transitions)
        self._build_tables()

    @classmethod
    def _trusted(cls, places: tuple[str, ...], transitions: tuple[Transition, ...], name: str) -> "PetriNet":
        """A net whose parts are already known to be valid, built without
        ``_validate``: the parser's output after its own checks, or a net
        derived from a valid one.  The caller passes tuples of ``str`` ids."""
        net = cls.__new__(cls)
        net.name, net.places, net.transitions = name, places, transitions
        net._build_tables()
        return net

    def _build_tables(self) -> None:
        self.place_index = {p: i for i, p in enumerate(self.places)}
        self.transition_index = {}
        self._effects = self._guards = self._deltas = ()
        self._add_tables(self.transitions)

    def _add_tables(self, transitions: tuple[Transition, ...]) -> None:
        """Append the table entries of ``transitions``, the last ones of the net."""
        index = self.transition_index
        index.update({t.name: i for i, t in enumerate(transitions, len(index))})
        effects = tuple(t.effect for t in transitions)
        self._effects += effects
        self._guards += tuple(tuple((p, need) for p, need in enumerate(t.guard) if need) for t in transitions)
        self._deltas += tuple(tuple((p, delta) for p, delta in enumerate(effect) if delta) for effect in effects)

    def _extended(self, extra: tuple[Transition, ...]) -> "PetriNet":
        """This net with ``extra`` appended, trusted like ``_trusted``: the
        tables of this net are extended, not rebuilt."""
        net = self.__class__.__new__(self.__class__)
        net.name, net.places, net.transitions = self.name, self.places, self.transitions + extra
        net.place_index, net.transition_index = self.place_index, dict(self.transition_index)
        net._effects, net._guards, net._deltas = self._effects, self._guards, self._deltas
        net._add_tables(extra)
        return net

    def _validate(self) -> None:
        if any(not p for p in self.places):
            raise NetDefinitionError("place ids must be non-empty")
        if len(set(self.places)) != len(self.places):
            raise NetDefinitionError("place ids must be unique")
        names = [t.name for t in self.transitions]
        if any(not n for n in names):
            raise NetDefinitionError("transition ids must be non-empty")
        if len(set(names)) != len(names):
            raise NetDefinitionError("transition ids must be unique")
        n = len(self.places)
        for t in self.transitions:
            if len(t.guard) != n or len(t.produce) != n:
                raise NetDefinitionError(
                    f"transition {t.name!r} has vectors of length "
                    f"{len(t.guard)}/{len(t.produce)}, expected {n}"
                )
            _nat_vector(t.guard, f"guard of {t.name!r}")
            _nat_vector(t.produce, f"produce of {t.name!r}")
            _as_weight(t.weight)

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
        marking = tuple(int(v) for v in m)
        if len(marking) != self.num_places:
            raise NetDefinitionError(
                f"marking has {len(marking)} components, net has {self.num_places} places"
            )
        if any(v < 0 or v > MAX_TOKENS for v in marking):
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
