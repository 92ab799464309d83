"""Command-line frontend: solve instances and generate random-walk benchmarks.

Exit codes: 0 reachable, 1 proven unreachable, 2 search exhausted (unknown),
64 usage error, 65 unreadable or invalid input, 70 internal error.  Reports
go to stdout as text or JSON; the JSON payload contains no timing so
identical invocations produce byte-identical output.  Set FFREACH_LOG=debug
for diagnostics on stderr, including the traceback of an internal error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .heuristics import HEURISTIC_NAMES, make_heuristic
from .instance_io import (
    FnetParseError,
    Instance,
    TargetSpec,
    desugar_init,
    generator_names,
    parse_instance,
    serialize_instance,
)
from .net import MAX_TOKENS, Marking, NetDefinitionError, PetriNet, TokenOverflowError
from .prune import PruneVerdict, prune_instance
from .ratlp import DEFAULT_ILP_NODE_BUDGET
from .search import SearchLimits, SearchResult, Strategy, Verdict, directed_search

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

logger = logging.getLogger("ffreach")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG; identical streams on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n


def random_walk(net: PetriNet, init: Marking, length: int, seed: int) -> tuple[Marking, list[int]]:
    """Fire ``length`` uniformly chosen enabled transitions; stops early at a
    dead marking.  Same inputs, same walk, byte for byte."""
    if length < 0:
        raise ValueError("walk length must be >= 0")
    rng = SplitMix64(seed)
    m = net.check_marking(init)
    walk: list[int] = []
    for _ in range(length):
        enabled = [t for t in range(net.num_transitions) if net.is_firable(m, t)]
        if not enabled:
            break
        t = enabled[rng.randrange(len(enabled))]
        m = net.fire(m, t)
        walk.append(t)
    return m, walk


def _float_or_none(value: Fraction) -> float | None:
    """``value`` as a float, or None when it lies beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the values a report holds: dicts
    with ``str`` keys, lists, strings, ints, finite floats, booleans and None.

    The standard encoder's pure-Python path leaves a reference cycle of
    closures per call, which only the cyclic collector frees; this leaves
    none.  A non-finite float raises ValueError, as strict JSON has no
    spelling for it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"a JSON report cannot hold {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in value]) + indent + "]"
    raise TypeError(f"a JSON report cannot hold {type(value).__name__}")


#: The indentation of a report's top-level fields, as ``_json`` takes it.
_FIELD_INDENT = "\n  "


@dataclass
class SolveReport:
    """Everything cmd_solve prints; JSON keys are stable and timing-free."""

    verdict: str
    distance: Fraction | None
    witness_ids: list[str] | None
    generator_firings: int | None
    reason: str | None
    expanded: int
    discovered: int
    heuristic_calls: int
    wall_time_ms: float
    config: dict

    def to_json_dict(self) -> dict:
        payload: dict = {"verdict": self.verdict}
        if self.distance is not None:
            payload["distance"] = {
                "fraction": str(self.distance),
                "decimal": _float_or_none(self.distance),
            }
            payload["witness"] = list(self.witness_ids or [])
            payload["generator_firings"] = self.generator_firings or 0
        if self.reason is not None:
            payload["reason"] = self.reason
        payload["stats"] = {
            "expanded": self.expanded,
            "discovered": self.discovered,
            "heuristic_calls": self.heuristic_calls,
        }
        payload["config"] = self.config
        return payload

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, written directly in
        the report's fixed shape; only the decimal distance, the witness and
        the config go through ``_json``."""
        parts = ['{\n  "verdict": ', encode_basestring_ascii(self.verdict)]
        if self.distance is not None:
            parts += [
                ',\n  "distance": {\n    "fraction": ', encode_basestring_ascii(str(self.distance)),
                ',\n    "decimal": ', _json(_float_or_none(self.distance)),
                '\n  },\n  "witness": ', _json(list(self.witness_ids or []), _FIELD_INDENT),
                ',\n  "generator_firings": ', int.__repr__(self.generator_firings or 0),
            ]
        if self.reason is not None:
            parts += [',\n  "reason": ', encode_basestring_ascii(self.reason)]
        parts += [
            ',\n  "stats": {\n    "expanded": ', int.__repr__(self.expanded),
            ',\n    "discovered": ', int.__repr__(self.discovered),
            ',\n    "heuristic_calls": ', int.__repr__(self.heuristic_calls),
            '\n  },\n  "config": ', _json(self.config, _FIELD_INDENT), "\n}",
        ]
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.distance is not None:
            decimal = _float_or_none(self.distance)
            lines.append(f"distance: {self.distance}" + (f" ({decimal})" if decimal is not None else ""))
            lines.append("witness: " + (" ".join(self.witness_ids) if self.witness_ids else "(empty)"))
            lines.append(f"generator firings: {self.generator_firings or 0}")
        if self.reason is not None:
            lines.append(f"reason: {self.reason}")
        lines.append(
            f"expanded: {self.expanded}  discovered: {self.discovered}  "
            f"heuristic calls: {self.heuristic_calls}"
        )
        lines.append(f"wall time: {self.wall_time_ms:.1f} ms")
        cfg = self.config
        lines.append(
            "config: strategy={strategy} heuristic={heuristic} prune={prune}".format(
                strategy=cfg["strategy"],
                heuristic=cfg["heuristic"],
                prune="on" if cfg["prune"] else "off",
            )
        )
        return "\n".join(lines)


def solve_instance(
    inst: Instance,
    strategy: Strategy = Strategy.ASTAR,
    heuristic_name: str = "q",
    prune: bool = True,
    ilp_node_budget: int = DEFAULT_ILP_NODE_BUDGET,
    limits: SearchLimits | None = None,
) -> tuple[SearchResult, list[str], int]:
    """Library entry point behind ``ffreach solve``.

    Runs desugar -> (prune) -> heuristic -> search and returns the result
    together with the witness transition names and the number of generator
    firings in the witness.  ``limits.max_time_ms`` bounds the search and,
    inside the heuristic, each ``z`` branch-and-bound.
    """
    desugared = desugar_init(inst)
    gen_names = generator_names(inst, desugared)
    search_inst = desugared
    if prune:
        pruned = prune_instance(desugared)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "prune: %d/%d places, %d/%d transitions kept, verdict %s",
                pruned.pruned_instance.net.num_places,
                desugared.net.num_places,
                pruned.pruned_instance.net.num_transitions,
                desugared.net.num_transitions,
                pruned.verdict.value,
            )
        if pruned.verdict is PruneVerdict.IMMEDIATELY_UNREACHABLE:
            result = SearchResult(Verdict.UNREACHABLE)
            result.reason = "target demands tokens in a place that can never be marked"
            return result, [], 0
        search_inst = pruned.pruned_instance

    deadline = None
    if limits is not None and limits.max_time_ms is not None:
        deadline = time.monotonic() + limits.max_time_ms / 1000.0
    heuristic = make_heuristic(heuristic_name, search_inst, ilp_node_budget, deadline)
    result = directed_search(search_inst, strategy, heuristic, limits)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "search: verdict=%s expanded=%d discovered=%d",
            result.verdict.value,
            result.stats.expanded,
            result.stats.discovered,
        )
    witness_ids: list[str] = []
    generator_firings = 0
    if result.witness is not None:
        names = [search_inst.net.transitions[t].name for t in result.witness.sequence]
        witness_ids = names
        generator_firings = sum(1 for n in names if n in gen_names)
    return result, witness_ids, generator_firings


def _read_instance(path: str) -> Instance | None:
    """Parse an instance file, or report why it cannot be read and return None."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except (OSError, FnetParseError, NetDefinitionError, UnicodeDecodeError) as exc:
        print(f"ffreach: {path}: {exc}", file=sys.stderr)
        return None


def cmd_solve(args: argparse.Namespace) -> int:
    if (inst := _read_instance(args.file)) is None:
        return EXIT_DATA

    strategy = Strategy(args.strategy)
    limits = SearchLimits(max_expansions=args.max_expansions, max_time_ms=args.max_time_ms)
    result, witness_ids, generator_firings = solve_instance(
        inst,
        strategy=strategy,
        heuristic_name=args.heuristic,
        prune=not args.no_prune,
        ilp_node_budget=args.ilp_node_budget,
        limits=limits,
    )

    report = SolveReport(
        verdict=result.verdict.value,
        distance=result.distance,
        witness_ids=witness_ids if result.reachable else None,
        generator_firings=generator_firings if result.reachable else None,
        reason=result.reason,
        expanded=result.stats.expanded,
        discovered=result.stats.discovered,
        heuristic_calls=result.stats.heuristic_calls,
        wall_time_ms=result.stats.wall_time_ms,
        config={
            "file": args.file,
            "strategy": args.strategy,
            "heuristic": args.heuristic,
            "prune": not args.no_prune,
            "ilp_node_budget": args.ilp_node_budget,
            "max_expansions": args.max_expansions,
            "max_time_ms": args.max_time_ms,
        },
    )
    print(report.to_json() if args.format == "json" else report.to_text())

    if result.verdict is Verdict.REACHABLE:
        return EXIT_REACHABLE
    if result.verdict is Verdict.UNREACHABLE:
        return EXIT_UNREACHABLE
    return EXIT_UNKNOWN


def cmd_genwalk(args: argparse.Namespace) -> int:
    if (inst := _read_instance(args.file)) is None:
        return EXIT_DATA

    start = list(inst.init)
    if args.init_tokens is not None:
        for p in inst.init_upward:
            start[p] = max(start[p], args.init_tokens)
    try:
        endpoint, walk = random_walk(inst.net, tuple(start), args.length, args.seed)
    except TokenOverflowError as exc:
        print(f"ffreach: {args.file}: {exc}", file=sys.stderr)
        return EXIT_DATA

    target = TargetSpec.exact(endpoint)
    out_inst = Instance(inst.net, inst.init, inst.init_upward, target).validate()
    walk_names = " ".join(inst.net.transitions[t].name for t in walk)
    header = (
        f"# random-walk instance: length={args.length} seed={args.seed}"
        f" init-tokens={args.init_tokens if args.init_tokens is not None else '-'}\n"
        f"# walk: {walk_names}\n"
    )
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + serialize_instance(out_inst))
    except OSError as exc:
        print(f"ffreach: {args.out}: {exc}", file=sys.stderr)
        return EXIT_DATA
    logger.debug("gen-walk: wrote %s (walk of %d steps)", args.out, len(walk))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _in_range(low, high=None, convert=int):
    """argparse ``type=`` for a number no smaller than ``low`` and, when
    ``high`` is given, no larger than ``high``."""

    def parse(text: str):
        value = convert(text)
        if not (low <= value < math.inf and (high is None or value <= high)):  # also rejects NaN
            wanted = f"finite and >= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffreach", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide reachability of an instance file")
    solve.add_argument("file", help=".fnet instance file")
    solve.add_argument("--strategy", choices=[s.value for s in Strategy], default="astar")
    solve.add_argument("--heuristic", choices=list(HEURISTIC_NAMES), default="q")
    solve.add_argument("--no-prune", action="store_true", help="skip sign-analysis pruning")
    solve.add_argument("--ilp-node-budget", type=_in_range(1), default=DEFAULT_ILP_NODE_BUDGET, metavar="N")
    solve.add_argument("--max-expansions", type=_in_range(0), default=None, metavar="N")
    solve.add_argument("--max-time-ms", type=_in_range(0, convert=float), default=None, metavar="N")
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.set_defaults(func=cmd_solve)

    genwalk = sub.add_parser("gen-walk", help="derive a reachable instance from a random walk")
    genwalk.add_argument("file", help=".fnet instance file to walk on")
    genwalk.add_argument("--length", type=_in_range(0), required=True, metavar="N")
    genwalk.add_argument("--seed", type=int, required=True, metavar="S")
    genwalk.add_argument("--out", required=True, metavar="FILE")
    genwalk.add_argument(
        "--init-tokens",
        type=_in_range(0, MAX_TOKENS),
        default=None,
        metavar="N",
        help="raise upward-flagged places to N tokens before walking",
    )
    genwalk.set_defaults(func=cmd_genwalk)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("FFREACH_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, logging.INFO)
        logging.basicConfig(stream=sys.stderr, level=level, format="ffreach %(levelname)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # a crash must never look like a verdict
        logger.debug("internal error", exc_info=True)
        print(f"ffreach: internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
