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

``parse_instance`` reads the text in one pass.  Each entry line is split
into tokens by ``str.split`` and each token into id and count by
``str.partition``, and its entries are written straight into the vectors of
the instance.  The first bad token stops the line, and its error is named
from the id and count already cut from it, so that every error names that
token and carries its line number, as a token-by-token reading would.  A
weight is cut at its ``/`` the same way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .net import MAX_TOKENS, Marking, NetDefinitionError, PetriNet, Transition, _nat_vector
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


class _TargetFields(NamedTuple):
    constraints: tuple[tuple[Relation, int], ...]


class TargetSpec(_TargetFields):
    """One (relation, bound) constraint per place; GEQ 0 constrains nothing.

    Made from pairs of a relation and a natural bound, and keeps them as a
    tuple of ``(Relation, int)`` tuples, so that a spec given lists is
    hashable and a ``bool`` bound is written as a number.  The membership
    test is compiled by :meth:`goal_test` from :meth:`bounds`, once per
    search."""

    __slots__ = ()

    def __new__(cls, constraints: Sequence[tuple[Relation, int]]):
        try:  # read once: ``constraints`` may be a one-shot iterable
            pairs = [(rel, bound) for rel, bound in constraints]
        except (TypeError, ValueError):  # an entry that is not a pair
            raise NetDefinitionError(f"target constraints must be (relation, bound) pairs: {constraints!r}") from None
        for rel, _ in pairs:
            if rel is not Relation.EQ and rel is not Relation.GEQ:
                raise NetDefinitionError(f"bad target relation {rel}")
        bounds = _nat_vector([bound for _, bound in pairs], "target bounds")
        return super().__new__(cls, tuple(zip([rel for rel, _ in pairs], bounds)))

    #: ``_replace`` builds through ``_make``, so both keep the checks of ``__new__``.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @classmethod
    def _trusted(cls, constraints: tuple[tuple[Relation, int], ...]) -> "TargetSpec":
        """A spec built without the checks of ``__new__``, from a tuple of
        ``(Relation, int)`` tuples already known to be valid: the parser's
        after its own checks, or a projection of a valid spec."""
        return tuple.__new__(cls, (constraints,))

    @classmethod
    def exact(cls, marking: Sequence[int]) -> "TargetSpec":
        """The singleton target set containing exactly ``marking``."""
        return cls(tuple((Relation.EQ, v) for v in marking))

    @classmethod
    def cover(cls, marking: Sequence[int]) -> "TargetSpec":
        """The upward closure of ``marking`` (all constraints >=)."""
        return cls(tuple((Relation.GEQ, v) for v in marking))

    def bounds(self) -> list[tuple[int, int, int]]:
        """``(place, least, most)`` for each place the spec constrains: the
        token counts it allows there, ``most`` being ``MAX_TOKENS`` under ``>=``."""
        out, p, eq = [], 0, Relation.EQ
        for rel, bound in self.constraints:
            if rel is eq:
                out.append((p, bound, bound))
            elif bound:
                out.append((p, bound, MAX_TOKENS))
            p += 1
        return out

    def goal_test(self, bounds: list[tuple[int, int, int]] | None = None) -> Callable[[Marking], bool]:
        """The membership test of a marking tuple, compiled from ``bounds``,
        this spec's :meth:`bounds` (computed when not given): for an exact
        target one tuple comparison, else a check of the constrained places
        only."""
        if bounds is None:
            bounds = self.bounds()
        exact = tuple([least for _, least, most in bounds if least == most])
        if len(exact) == len(self.constraints):
            return exact.__eq__

        def test(m: Marking) -> bool:
            for p, least, most in bounds:
                if not least <= m[p] <= most:
                    return False
            return True

        return test

    def satisfied(self, m: Sequence[int]) -> bool:
        """Whether ``m`` is in the target set, by :meth:`goal_test`.  A marking
        without one entry per constraint raises NetDefinitionError."""
        m = tuple(m)
        if len(m) != len(self.constraints):
            raise NetDefinitionError(f"marking {m} has {len(m)} places, the target {len(self.constraints)}")
        return self.goal_test()(m)


class Instance(NamedTuple):
    """A solvable problem: net, initial marking, upward flags, target."""

    net: PetriNet
    init: Marking
    init_upward: frozenset[int]
    target: TargetSpec

    def validate(self) -> "Instance":
        """Check the parts against the net.  Returns a copy with what it
        checked: ``init`` as a tuple of ``int``s and the flags as a frozenset,
        so that the copy is hashable whatever containers it was given."""
        net = self.net
        init = net.check_marking(self.init)
        upward = frozenset(_nat_vector(self.init_upward, "init_upward"))
        self._check_target()
        num_places = len(net.places)
        for p in upward:
            if p >= num_places:
                raise NetDefinitionError(f"init_upward references place index {p}")
            if init[p] < 1:
                raise NetDefinitionError(
                    f"upward-flagged place {net.places[p]!r} needs at least 1 initial token"
                )
        return self._replace(init=init, init_upward=upward)

    def _check_target(self) -> None:
        """Raise NetDefinitionError unless the target has one constraint per place."""
        if len(self.target.constraints) != len(self.net.places):
            raise NetDefinitionError("target spec length differs from place count")


_ID_RE = re.compile(r"[^\s=:>#]+")

#: The relation of a target entry, indexed by whether its op is ``>=``.
_RELATIONS = (Relation.EQ, Relation.GEQ)
#: The constraint of a place the target line omits.
_UNCONSTRAINED = (Relation.GEQ, 0)

#: The weight of a transition declared without one; ``Fraction`` is immutable.
_UNIT_WEIGHT = Fraction(1)


def _parse_weight(tokens: list[str], lineno: int) -> Fraction:
    if len(tokens) != 1:
        raise FnetParseError("expected a single rational after 'weight'", lineno)
    text = tokens[0]
    num, slash, den = text.partition("/")
    if not num.isdecimal() or (slash and not den.isdecimal()):
        raise FnetParseError(f"invalid rational {text!r}", lineno)
    numerator, denominator = int(num), int(den) if slash else 1
    if not denominator:
        raise FnetParseError(f"invalid rational {text!r} (zero denominator)", lineno)
    if not numerator:  # both parts are naturals, so only zero is not positive
        raise NonPositiveWeightError(f"transition weight must be > 0, got {text}", lineno)
    return Fraction(numerator, denominator)


def _entry_error(token: str, pid: str, known: bool, nat: str, lineno: int, what: str) -> FnetParseError:
    """The error of the first bad entry of a line, from the parts the line
    loop cut it into: ``pid`` (without a marking's ``>``), whether it is a
    place id, and the count ``nat``.  A place id is never empty and holds no
    ``=``, ``:`` or ``>``, so a token with a known id and a decimal count
    stopped the loop only because its place was listed before."""
    arc = what in ("consume", "produce")
    if not nat.isdecimal() or (not known and (not pid or "=" in pid or ":" in pid or ">" in pid)):
        expected = "id:nat" if arc else "id=nat or id>=nat"
        return FnetParseError(f"bad {what} entry {token!r} (expected {expected})", lineno)
    if not known:
        return UnknownPlaceError(f"unknown place {pid!r} in {what}", lineno)
    return DuplicateIdError(f"place {pid!r} listed twice in {what}", lineno)


def _misplaced(name: str | None, places: list[str] | None, lineno: int) -> FnetParseError:
    """The error of a line that may only come after 'places:' and before
    the end of the 'target:' section."""
    if name is None:
        return FnetParseError("expected 'net <name>' before anything else", lineno)
    if places is None:
        return FnetParseError("expected 'places:' before this line", lineno)
    return FnetParseError("'target:' must be the last section", lineno)


def parse_instance(text: str) -> Instance:
    """Parse ``.fnet`` text into a validated Instance.

    This is where outside input is checked, in one pass over the lines.  An
    entry line (``init:``, ``target:``, ``consume``, ``produce``) is split
    into tokens, each cut at its first ``:`` or ``=``; a token whose id is a
    place not yet listed on the line and whose count is decimal fills the
    marking, target or arc vector in place; the first token that fails is
    named malformed, unknown or repeated from the parts already cut.  A
    weight is cut at its ``/``, numerator converted first.  Every syntax
    error, unknown or duplicate id, non-positive weight and numeral longer
    than ``int()`` converts raises an FnetParseError carrying its line
    number, with the message a token-by-token reading gives; token counts
    of the initial marking beyond the 64-bit range raise NetDefinitionError."""
    name: str | None = None
    places: list[str] | None = None
    place_index: dict[str, int] = {}
    num = 0
    init: list[int] | None = None
    init_flagged: set[int] = set()
    constraints: list[tuple[Relation, int]] = []
    names: list[str] = []
    weights: list[Fraction] = []
    guards: list[list[int]] = []
    produces: list[list[int]] = []
    transition_ids: set[str] = set()
    arcs: dict[str, list[int]] = {}  # the current transition's vectors not yet given a line
    # True outside the sections between 'places:' and the end of 'target:'.
    closed = True

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[: raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            keyword = tokens.pop(0)
            if closed and keyword != "net" and keyword != "places:":
                raise _misplaced(name, places, lineno)

            if keyword == "consume" or keyword == "produce":
                if not names:
                    raise FnetParseError(f"'{keyword}' outside a transition block", lineno)
                vector = arcs.pop(keyword, None)
                if vector is None:
                    raise DuplicateIdError(f"duplicate '{keyword}' line for transition {names[-1]!r}", lineno)
                seen = set()
                for token in tokens:
                    pid, _, nat = token.partition(":")
                    idx = place_index.get(pid)
                    if idx is None or idx in seen or not nat.isdecimal():
                        raise _entry_error(token, pid, idx is not None, nat, lineno, keyword)
                    seen.add(idx)
                    vector[idx] = int(nat)

            elif keyword == "transition":
                if not tokens:
                    raise FnetParseError("'transition' requires an id", lineno)
                tid = tokens[0]
                # A token holds no whitespace, nor '#' once the comment is cut.
                if "=" in tid or ":" in tid or ">" in tid:
                    raise FnetParseError(f"invalid transition id {tid!r}", lineno)
                if tid in place_index or tid in transition_ids:
                    raise DuplicateIdError(f"id {tid!r} declared twice", lineno)
                transition_ids.add(tid)
                weight = _UNIT_WEIGHT
                if len(tokens) > 1:
                    if tokens[1] != "weight":
                        raise FnetParseError(f"unexpected token {tokens[1]!r} after transition id", lineno)
                    weight = _parse_weight(tokens[2:], lineno)
                names.append(tid)
                weights.append(weight)
                arcs = {"consume": [0] * num, "produce": [0] * num}
                guards.append(arcs["consume"])
                produces.append(arcs["produce"])

            elif keyword == "init:":
                if init is not None:
                    raise FnetParseError("duplicate 'init:' line", lineno)
                if names:
                    raise FnetParseError("'init:' must come before transitions", lineno)
                init = [0] * num
                seen = set()
                for token in tokens:
                    pid, _, nat = token.partition("=")
                    geq = pid[-1:] == ">"
                    idx = place_index.get(pid[:-1] if geq else pid)
                    if idx is None or idx in seen or not nat.isdecimal():
                        raise _entry_error(token, pid[:-1] if geq else pid, idx is not None, nat, lineno, "init")
                    seen.add(idx)
                    init[idx] = int(nat)
                    if geq:
                        init_flagged.add(idx)
                for idx in init_flagged:
                    if init[idx] < 1:
                        raise FnetParseError(
                            f"upward-flagged place {places[idx]!r} needs at least 1 token "
                            "(use id=0 for an exactly-empty place)",
                            lineno,
                        )

            elif keyword == "target:":
                seen = set()
                for token in tokens:
                    pid, _, nat = token.partition("=")
                    geq = pid[-1:] == ">"
                    idx = place_index.get(pid[:-1] if geq else pid)
                    if idx is None or idx in seen or not nat.isdecimal():
                        raise _entry_error(token, pid[:-1] if geq else pid, idx is not None, nat, lineno, "target")
                    seen.add(idx)
                    constraints[idx] = (_RELATIONS[geq], int(nat))
                closed = True

            elif keyword == "net":
                if name is not None:
                    raise FnetParseError("duplicate 'net' line", lineno)
                if not tokens:
                    raise FnetParseError("'net' requires a name", lineno)
                name = " ".join(tokens)

            elif keyword == "places:":
                if name is None:
                    raise _misplaced(name, places, lineno)
                if places is not None:
                    raise FnetParseError("duplicate 'places:' line", lineno)
                places = tokens
                for pid in places:
                    if "=" in pid or ":" in pid or ">" in pid:
                        raise FnetParseError(f"invalid place id {pid!r}", lineno)
                    if pid in place_index:
                        raise DuplicateIdError(f"place {pid!r} declared twice", lineno)
                    place_index[pid] = len(place_index)
                num = len(places)
                constraints = [_UNCONSTRAINED] * num
                closed = False

            else:
                raise FnetParseError(f"unrecognized keyword {keyword!r}", lineno)
    except FnetParseError:
        raise
    except ValueError:  # int() of a numeral longer than the interpreter's int-string limit
        raise FnetParseError("number has too many digits", lineno) from None

    if name is None:
        raise FnetParseError("missing 'net <name>' line")
    if places is None:
        raise FnetParseError("missing 'places:' line")

    transitions = tuple(map(Transition, names, map(tuple, guards), map(tuple, produces), weights))
    # The checks above reject every empty or duplicate id, negative count and
    # non-positive weight with its line number, so the net is not checked again.
    net = PetriNet._trusted(tuple(places), transitions, name)
    marking = (0,) * num if init is None else tuple(init)
    # Every target entry was checked on its line, so the spec is not checked again.
    target = TargetSpec._trusted(tuple(constraints))
    # Of the checks of Instance.validate, the lines above leave only the
    # 64-bit bound on the initial marking, which check_marking raises for.
    if max(marking, default=0) > MAX_TOKENS:
        net.check_marking(marking)
    return Instance(net, marking, frozenset(init_flagged), target)


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
    to the front of any firing sequence.  The generators are valid by
    construction: the new net is not checked, and keeps the firing records of
    ``inst.net``, adding only the generators' (``PetriNet._extended``).
    """
    if not inst.init_upward:
        return inst
    net = inst.net
    taken = set(net.places) | {t.name for t in net.transitions}
    gen_weight = net.min_weight()
    num = net.num_places
    zeros = (0,) * num
    units = (*zeros, 1, *zeros)  # the unit vector of place p is units[num - p : 2 * num - p]
    extra = []
    for p in sorted(inst.init_upward):
        name = _fresh_name(f"gen_{net.places[p]}", taken)
        taken.add(name)
        extra.append(Transition(name, zeros, units[num - p : 2 * num - p], gen_weight))
    return Instance(net._extended(tuple(extra)), inst.init, frozenset(), inst.target)


def generator_names(original: Instance, desugared: Instance) -> set[str]:
    """Names of the generator transitions desugar_init appended."""
    return {t.name for t in desugared.net.transitions[original.net.num_transitions :]}


def serialize_instance(inst: Instance) -> str:
    """Emit canonical ``.fnet`` text; parse_instance round-trips it.  A net
    name or id that parsing would not give back unchanged raises
    NetDefinitionError."""
    net = inst.net
    if not net.name or "#" in net.name or net.name != " ".join(net.name.split()):
        raise NetDefinitionError(f"net name {net.name!r} is not serializable")
    for pid in net.places:
        if not _ID_RE.fullmatch(pid):
            raise NetDefinitionError(f"place id {pid!r} is not serializable")
    place_ids = set(net.places)
    for t in net.transitions:
        # The text gives places and transitions one id space.
        if not _ID_RE.fullmatch(t.name) or t.name in place_ids:
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
