"""Problem instances and the ``.fnet`` text format.

An instance bundles a net, an initial marking (some places may be flagged
as "at least this many tokens"), and a target specification: one ``=`` or
``>=`` constraint per place.  The format is line oriented::

    net <name>
    places: <id> <id> ...
    init: <id>=<nat> | <id>>=<nat> ...          # omitted places: =0
    transition <id> [weight <p>[/<q>]]          # default weight 1
      consume <id>:<nat> [<id>:<nat> ...]       # omitted: 0; line optional
      produce <id>:<nat> [<id>:<nat> ...]       # omitted: 0; line optional
    target: <id>=<nat> | <id>>=<nat> ...        # omitted places: >=0

Tokens are whitespace separated, ``#`` starts a comment to end of line,
and both LF and CRLF line endings are accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .net import Marking, NetDefinitionError, PetriNet, Transition
from .ratlp import Relation


class FnetParseError(ValueError):
    """Invalid ``.fnet`` input; carries the 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class DuplicateIdError(FnetParseError):
    pass


class UnknownPlaceError(FnetParseError):
    pass


class NonPositiveWeightError(FnetParseError):
    pass


@dataclass(frozen=True)
class TargetSpec:
    """One (relation, bound) constraint per place; GEQ 0 means unconstrained.

    The membership test is compiled once, when the spec is made: an exact
    target is a single tuple comparison, and any other target checks only
    its ``=`` places and its ``>=`` places with a positive bound."""

    constraints: tuple[tuple[Relation, int], ...]

    def __post_init__(self):
        constraints = self.constraints
        for rel, bound in constraints:
            if rel not in (Relation.EQ, Relation.GEQ) or bound < 0:
                raise NetDefinitionError(f"bad target constraint ({rel}, {bound})")
        equal = tuple((p, bound) for p, (rel, bound) in enumerate(constraints) if rel is Relation.EQ)
        at_least = tuple((p, bound) for p, (rel, bound) in enumerate(constraints) if rel is Relation.GEQ and bound)
        goal = tuple(bound for _, bound in constraints) if len(equal) == len(constraints) else None
        # The dataclass is frozen, so the compiled test is set through object.
        object.__setattr__(self, "_goal", goal)
        object.__setattr__(self, "_equal", equal)
        object.__setattr__(self, "_at_least", at_least)

    @classmethod
    def exact(cls, marking: Sequence[int]) -> "TargetSpec":
        """The singleton target set containing exactly ``marking``."""
        return cls(tuple((Relation.EQ, int(v)) for v in marking))

    @classmethod
    def cover(cls, marking: Sequence[int]) -> "TargetSpec":
        """The upward closure of ``marking`` (all constraints >=)."""
        return cls(tuple((Relation.GEQ, int(v)) for v in marking))

    @classmethod
    def unconstrained(cls, num_places: int) -> "TargetSpec":
        return cls(tuple((Relation.GEQ, 0) for _ in range(num_places)))

    def __len__(self) -> int:
        return len(self.constraints)

    def satisfied(self, m: Sequence[int]) -> bool:
        goal = self._goal
        if goal is not None:
            return tuple(m) == goal
        for p, bound in self._equal:
            if m[p] != bound:
                return False
        for p, bound in self._at_least:
            if m[p] < bound:
                return False
        return True

    def is_exact(self) -> bool:
        return self._goal is not None

    def is_cover(self) -> bool:
        return all(rel is Relation.GEQ for rel, _ in self.constraints)


@dataclass(frozen=True)
class Instance:
    """A solvable problem: net, initial marking, upward flags, target."""

    net: PetriNet
    init: Marking
    init_upward: frozenset[int]
    target: TargetSpec

    def validate(self) -> "Instance":
        self.net.check_marking(self.init)
        if len(self.target) != self.net.num_places:
            raise NetDefinitionError("target spec length differs from place count")
        for p in self.init_upward:
            if not 0 <= p < self.net.num_places:
                raise NetDefinitionError(f"init_upward references place index {p}")
            if self.init[p] < 1:
                raise NetDefinitionError(
                    f"upward-flagged place {self.net.places[p]!r} needs at least 1 initial token"
                )
        return self


_ID_RE = re.compile(r"^[^\s=:>#]+$")
_MARKING_ENTRY_RE = re.compile(r"^(?P<id>[^\s=:>#]+)(?P<op>>=|=)(?P<nat>\d+)$")
_ARC_ENTRY_RE = re.compile(r"^(?P<id>[^\s=:>#]+)(?P<op>:)(?P<nat>\d+)$")


#: The weight of a transition declared without one; ``Fraction`` is immutable.
_UNIT_WEIGHT = Fraction(1)


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_weight(tokens: list[str], lineno: int) -> Fraction:
    if len(tokens) != 1:
        raise FnetParseError("expected a single rational after 'weight'", lineno)
    text = tokens[0]
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if not m:
        raise FnetParseError(f"invalid rational {text!r}", lineno)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise FnetParseError(f"invalid rational {text!r} (zero denominator)", lineno)
    weight = Fraction(num, den)
    if weight <= 0:
        raise NonPositiveWeightError(f"transition weight must be > 0, got {text}", lineno)
    return weight


def _parse_entries(
    tokens: list[str],
    lineno: int,
    places: dict[str, int],
    what: str,
    entry_re: re.Pattern = _MARKING_ENTRY_RE,
    expected: str = "id=nat or id>=nat",
):
    """Parse ``id<op>nat`` entries; returns (values, the places whose op is ``>=``)."""
    values: dict[int, int] = {}
    flagged: set[int] = set()
    for tok in tokens:
        m = entry_re.match(tok)
        if not m:
            raise FnetParseError(f"bad {what} entry {tok!r} (expected {expected})", lineno)
        pid = m.group("id")
        if pid not in places:
            raise UnknownPlaceError(f"unknown place {pid!r} in {what}", lineno)
        idx = places[pid]
        if idx in values:
            raise DuplicateIdError(f"place {pid!r} listed twice in {what}", lineno)
        values[idx] = int(m.group("nat"))
        if m.group("op") == ">=":
            flagged.add(idx)
    return values, flagged


class _TransitionDraft:
    def __init__(self, name: str, weight: Fraction):
        self.name = name
        self.weight = weight
        self.consume: dict[int, int] | None = None
        self.produce: dict[int, int] | None = None


def parse_instance(text: str) -> Instance:
    """Parse ``.fnet`` text into a validated Instance.

    This is where outside input is checked: every syntax error, unknown or
    duplicate id, and non-positive weight raises an FnetParseError carrying
    its line number, and token counts beyond the 64-bit range raise
    NetDefinitionError."""
    name: str | None = None
    places: list[str] | None = None
    place_index: dict[str, int] = {}
    init_values: dict[int, int] | None = None
    init_flagged: set[int] = set()
    target_values: dict[int, int] | None = None
    target_flagged: set[int] = set()
    drafts: list[_TransitionDraft] = []
    transition_ids: set[str] = set()
    seen_target = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        keyword, rest = tokens[0], tokens[1:]

        if keyword == "net":
            if name is not None:
                raise FnetParseError("duplicate 'net' line", lineno)
            if not rest:
                raise FnetParseError("'net' requires a name", lineno)
            name = " ".join(rest)
            continue

        if name is None:
            raise FnetParseError("expected 'net <name>' before anything else", lineno)

        if keyword == "places:":
            if places is not None:
                raise FnetParseError("duplicate 'places:' line", lineno)
            for pid in rest:
                if not _ID_RE.match(pid):
                    raise FnetParseError(f"invalid place id {pid!r}", lineno)
                if pid in place_index:
                    raise DuplicateIdError(f"place {pid!r} declared twice", lineno)
                place_index[pid] = len(place_index)
            places = rest
            continue

        if places is None:
            raise FnetParseError("expected 'places:' before this line", lineno)
        if seen_target:
            raise FnetParseError("'target:' must be the last section", lineno)

        if keyword == "init:":
            if init_values is not None:
                raise FnetParseError("duplicate 'init:' line", lineno)
            if drafts:
                raise FnetParseError("'init:' must come before transitions", lineno)
            init_values, init_flagged = _parse_entries(rest, lineno, place_index, "init")
            for idx in init_flagged:
                if init_values[idx] < 1:
                    raise FnetParseError(
                        f"upward-flagged place {places[idx]!r} needs at least 1 token "
                        "(use id=0 for an exactly-empty place)",
                        lineno,
                    )
            continue

        if keyword == "transition":
            if not rest:
                raise FnetParseError("'transition' requires an id", lineno)
            tid = rest[0]
            if not _ID_RE.match(tid):
                raise FnetParseError(f"invalid transition id {tid!r}", lineno)
            if tid in place_index or tid in transition_ids:
                raise DuplicateIdError(f"id {tid!r} declared twice", lineno)
            transition_ids.add(tid)
            weight = _UNIT_WEIGHT
            if len(rest) > 1:
                if rest[1] != "weight":
                    raise FnetParseError(f"unexpected token {rest[1]!r} after transition id", lineno)
                weight = _parse_weight(rest[2:], lineno)
            drafts.append(_TransitionDraft(tid, weight))
            continue

        if keyword in ("consume", "produce"):
            if not drafts:
                raise FnetParseError(f"'{keyword}' outside a transition block", lineno)
            draft = drafts[-1]
            if getattr(draft, keyword) is not None:
                raise DuplicateIdError(
                    f"duplicate '{keyword}' line for transition {draft.name!r}", lineno
                )
            arcs, _ = _parse_entries(rest, lineno, place_index, keyword, _ARC_ENTRY_RE, "id:nat")
            setattr(draft, keyword, arcs)
            continue

        if keyword == "target:":
            target_values, target_flagged = _parse_entries(rest, lineno, place_index, "target")
            seen_target = True
            continue

        raise FnetParseError(f"unrecognized keyword {keyword!r}", lineno)

    if name is None:
        raise FnetParseError("missing 'net <name>' line")
    if places is None:
        raise FnetParseError("missing 'places:' line")

    num = len(places)
    transitions = []
    for draft in drafts:
        consume = draft.consume or {}
        produce = draft.produce or {}
        guard = tuple(consume.get(i, 0) for i in range(num))
        prod = tuple(produce.get(i, 0) for i in range(num))
        transitions.append(Transition(draft.name, guard, prod, draft.weight))
    # The checks above reject every empty or duplicate id, negative count and
    # non-positive weight with its line number, so the net is not checked again.
    net = PetriNet._trusted(tuple(places), tuple(transitions), name)

    init_values = init_values or {}
    init = tuple(init_values.get(i, 0) for i in range(num))

    target_values = target_values or {}
    constraints = []
    for i in range(num):
        if i not in target_values:
            constraints.append((Relation.GEQ, 0))
        elif i in target_flagged:
            constraints.append((Relation.GEQ, target_values[i]))
        else:
            constraints.append((Relation.EQ, target_values[i]))
    target = TargetSpec(tuple(constraints))

    return Instance(net, init, frozenset(init_flagged), target).validate()


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def desugar_init(inst: Instance) -> Instance:
    """Replace upward-init flags by token-generator transitions.

    For each flagged place, a transition with empty guard producing one token
    into that place is appended, named ``gen_<place>``.  Its weight is the
    minimum transition weight of the net, keeping the minimal-weight floor of
    the instance unchanged.  Reachability answers under the upward-closed
    reading of the initial marking are preserved: generator firings commute
    to the front of any firing sequence.
    """
    if not inst.init_upward:
        return inst
    net = inst.net
    taken = set(net.places) | {t.name for t in net.transitions}
    gen_weight = net.min_weight()
    extra = []
    for p in sorted(inst.init_upward):
        name = _fresh_name(f"gen_{net.places[p]}", taken)
        taken.add(name)
        produce = tuple(1 if i == p else 0 for i in range(net.num_places))
        extra.append(Transition(name, (0,) * net.num_places, produce, gen_weight))
    new_net = net._extended(tuple(extra))
    return replace(inst, net=new_net, init_upward=frozenset())


def generator_names(original: Instance, desugared: Instance) -> set[str]:
    """Names of the generator transitions desugar_init added."""
    before = {t.name for t in original.net.transitions}
    return {t.name for t in desugared.net.transitions} - before


def serialize_instance(inst: Instance) -> str:
    """Emit canonical ``.fnet`` text; parse_instance round-trips it."""
    net = inst.net
    for pid in net.places:
        if not _ID_RE.match(pid):
            raise NetDefinitionError(f"place id {pid!r} is not serializable")
    for t in net.transitions:
        if not _ID_RE.match(t.name):
            raise NetDefinitionError(f"transition id {t.name!r} is not serializable")

    lines = [f"net {net.name}"]
    lines.append("places: " + " ".join(net.places) if net.places else "places:")

    init_entries = []
    for i, pid in enumerate(net.places):
        if i in inst.init_upward:
            init_entries.append(f"{pid}>={inst.init[i]}")
        elif inst.init[i] != 0:
            init_entries.append(f"{pid}={inst.init[i]}")
    lines.append(("init: " + " ".join(init_entries)).rstrip())

    for t in net.transitions:
        head = f"transition {t.name}"
        if t.weight != 1:
            head += f" weight {t.weight}"
        lines.append(head)
        consume = [f"{net.places[i]}:{v}" for i, v in enumerate(t.guard) if v]
        produce = [f"{net.places[i]}:{v}" for i, v in enumerate(t.produce) if v]
        if consume:
            lines.append("  consume " + " ".join(consume))
        if produce:
            lines.append("  produce " + " ".join(produce))

    target_entries = []
    for i, pid in enumerate(net.places):
        rel, bound = inst.target.constraints[i]
        if rel is Relation.EQ:
            target_entries.append(f"{pid}={bound}")
        elif bound != 0:
            target_entries.append(f"{pid}>={bound}")
    lines.append(("target: " + " ".join(target_entries)).rstrip())

    return "\n".join(lines) + "\n"
