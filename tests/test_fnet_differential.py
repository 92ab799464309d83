"""The one-pass ``.fnet`` parser against the token-by-token parser it
replaced, ``oracles.reference_parse_instance``.

The texts are serialized random instances with layout noise (comments,
CRLF, tabs, blank lines, extra spaces, entries in any order), some with one
mutation.  On every text both parsers must return equal instances with
equal tables, or raise the same exception type with the same message and
the same line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_parse_instance
from test_instance_io import random_instances

from ffreach import parse_instance, serialize_instance

ENTRY_KEYWORDS = ("init:", "target:", "consume", "produce")
COMMENTS = ["# note", "#", "# init: x=1 y:2", "#transition t weight 0"]


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # FnetParseError, NetDefinitionError
        return exc


def assert_same_outcome(text: str):
    expected = outcome(reference_parse_instance, text)
    got = outcome(parse_instance, text)
    if isinstance(expected, Exception) or isinstance(got, Exception):
        assert type(got) is type(expected), (text, expected, got)
        assert str(got) == str(expected), text
        assert getattr(got, "line", None) == getattr(expected, "line", None), text
        return
    assert got == expected, text
    assert hash(got) == hash(expected)
    for table in ("_firings", "scale", "scaled_weights"):
        assert getattr(got.net, table) == getattr(expected.net, table), (table, text)
    return got


def entry_positions(lines):
    """(line, token) index of every entry of an entry line."""
    return [
        (i, j)
        for i, tokens in enumerate(lines)
        if tokens[0] in ENTRY_KEYWORDS
        for j in range(1, len(tokens))
    ]


def entry_parts(entry: str) -> tuple[str, str, str]:
    """The id, separator (``:``, ``=`` or ``>=``) and count of an entry."""
    sep = ":" if ":" in entry else ">=" if ">=" in entry else "="
    pid, _, count = entry.partition(sep)
    return pid, sep, count


def with_count(entry: str, count: str) -> str:
    pid, sep, _ = entry_parts(entry)
    return pid + sep + count


#: Counts that are not ASCII: Nd digits, which ``\d`` and ``isdecimal`` take
#: and ``int`` reads, and digits of other categories, which must be rejected.
UNICODE_COUNTS = ["\u0663", "\uff13", "\u0661\u0660", "\u00b2", "1\u00b2", "\u2463", "\u00bd"]
#: Weights that are not ``p`` or ``p/q`` with decimal ``p`` and ``q``, or
#: whose numeral ``int`` reads but the format does not.
BAD_WEIGHTS = ["1/", "/2", "/", "1//2", "1/2/3", "1.5", "+1", "-1", "1_000", "\u00b2", "1/\u00b2", "0x10", "1e3"]


def mutate(kind: str, lines: list[list[str]], rng) -> None:
    """Apply one mutation of ``kind`` to the token lists in place; a
    mutation that finds nothing to act on leaves them as they are."""
    entries = entry_positions(lines)
    transitions = [i for i, tokens in enumerate(lines) if tokens[0] == "transition"]
    if kind == "repeat-entry" and entries:
        i, j = rng.choice(entries)
        lines[i].insert(rng.randint(1, len(lines[i])), lines[i][j])
    elif kind == "repeat-line":
        i = rng.randrange(len(lines))
        lines.insert(i + 1, list(lines[i]))
    elif kind == "unknown-place" and entries:
        i, j = rng.choice(entries)
        entry = lines[i][j]
        lines[i][j] = "nowhere" + entry[min(entry.index(c) for c in ":=>" if c in entry) :]
    elif kind in ("negative-count", "huge-count") and entries:
        i, j = rng.choice(entries)
        entry = lines[i][j]
        count = "-" + entry[-1] if kind == "negative-count" else str(2**64)
        lines[i][j] = with_count(entry, count)
    elif kind in ("zero-weight", "zero-denominator") and transitions:
        i = rng.choice(transitions)
        lines[i][2:] = ["weight", "0" if kind == "zero-weight" else "1/0"]
    elif kind == "bad-weight" and transitions:
        i = rng.choice(transitions)
        lines[i][2:] = ["weight", rng.choice(BAD_WEIGHTS)]
    elif kind == "section-order":
        line = lines.pop(rng.randrange(len(lines)))
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif kind in ENTRY_MUTATIONS and entries:
        i, j = rng.choice(entries)
        pid, sep, count = entry_parts(lines[i][j])
        if kind == "double-separator":  # p0>>=1, p0==1, p0::1
            lines[i][j] = pid + sep[0] + sep + count
        elif kind == "drop-id":  # =1, >=1, :1
            lines[i][j] = sep + count
        elif kind == "drop-count":  # p0:, p0=, p0>=
            lines[i][j] = pid + sep
        elif kind == "trailing-junk":  # p0:1:2, p0=1x
            lines[i][j] += rng.choice([":2", "=2", ">=2", "x", ">"])
        elif kind == "other-separator":  # p0=1 on an arc line, p0:1 on a marking line
            lines[i][j] = pid + (rng.choice(["=", ">="]) if sep == ":" else ":") + count
        elif kind == "unicode-count":
            lines[i][j] = pid + sep + rng.choice(UNICODE_COUNTS)
    elif kind == "bad-id":
        ids = [(i, j) for i, tokens in enumerate(lines) if tokens[0] == "places:" for j in range(1, len(tokens))]
        ids += [(i, 1) for i in transitions]
        if ids:
            i, j = rng.choice(ids)
            k = rng.randint(0, len(lines[i][j]))
            lines[i][j] = lines[i][j][:k] + rng.choice("=:>") + lines[i][j][k:]


def render(draw, lines: list[list[str]]) -> str:
    """The token lists as text, with layout noise."""
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    out = []
    for tokens in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t"] + COMMENTS)))
        text = draw(st.sampled_from(["", " ", "\t"])) + tokens[0]
        for token in tokens[1:]:
            text += draw(space) + token
        out.append(text + draw(st.sampled_from(["", " ", "\t"] + [" " + c for c in COMMENTS])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + draw(st.sampled_from(["", newline]))


@st.composite
def fnet_texts(draw, mutation: str | None = None):
    inst = draw(random_instances())
    lines = [line.split() for line in serialize_instance(inst).splitlines()]
    for tokens in lines:
        if tokens[0] in ENTRY_KEYWORDS:
            tokens[1:] = draw(st.permutations(tokens[1:]))
    if mutation is not None and mutation != "delete-char":
        mutate(mutation, lines, draw(st.randoms(use_true_random=False)))
    text = render(draw, lines)
    if mutation == "delete-char":
        k = draw(st.integers(0, len(text) - 1))
        text = text[:k] + text[k + 1 :]
    return inst, text


@given(fnet_texts())
@settings(max_examples=150, deadline=None)
def test_layout_noise_changes_nothing(case):
    inst, text = case
    assert assert_same_outcome(text) == inst


ENTRY_MUTATIONS = [
    "double-separator",
    "drop-id",
    "drop-count",
    "trailing-junk",
    "other-separator",
    "unicode-count",
]
MUTATIONS = [
    *ENTRY_MUTATIONS,
    "bad-id",
    "delete-char",
    "repeat-entry",
    "repeat-line",
    "unknown-place",
    "negative-count",
    "huge-count",
    "zero-weight",
    "zero-denominator",
    "bad-weight",
    "section-order",
]


@pytest.mark.parametrize("mutation", MUTATIONS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_text_parses_or_fails_alike(mutation, data):
    _, text = data.draw(fnet_texts(mutation))
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "net n\nplaces: a b\ninit: a=1 b=2 a=3\n",
        "net n\nplaces: a b\ninit: a=1 c=2 a=3\n",
        "net n\nplaces: a b\ninit: a>=0 b>=0\n",
        "net n\nplaces: a b\ntarget: a=1 a>=0\n",
        "net n\nplaces: a b\ntarget: b>=1 a=x b=1\n",
        "net n\nplaces: a\ntransition t\n  consume a:1 a:0\n",
        "net n\nplaces: a\ntransition t\n  produce a:1b:2\n",
        "net n\nplaces: a\ntransition t\n  consume\n  consume a:1\n",
        "net n\nplaces: a\ntransition t weight 3 /2\n",
        "net n\nplaces: a\ntransition t weight\n",
        "net n\nplaces: a\ntransition t heavy 2\n",
        "net n\nplaces: a\ntransition\n",
        "net n\nplaces: a\ntransition a=1\n",
        "net n\nplaces: a\n  produce a:1\n",
        "net n\nplaces: a\ntransition t\ninit: a=1\n",
        "net n\nplaces: a=1\n",
        "net n\nplaces: a\nplaces: a\n",
        "net n\nnet m\n",
        "net\n",
        "places: a\n",
        "init: a=1\n",
        "net n\ninit: a=1\n",
        "net n\nplaces: a\ntarget:\ntarget:\n",
        "net n\nplaces: a\ntarget:\nfoo\n",
        "net n\nplaces: a\nfoo\n",
        "",
        "net n\n",
        "net  a   b\nplaces:\n",
        "net n\nplaces: a\ninit: a=" + "1" * 5000 + "\n",
        "net n\nplaces: a\ntransition t\n  consume a:1 a:" + "1" * 5000 + "\n",
        "net n\nplaces: a\ntransition t\n  produce a:" + "1" * 5000 + "\n",
        "net n\nplaces: a\ntransition t weight 1/" + "1" * 5000 + "\n",
        "net n\nplaces: a\ntarget: a>=" + "1" * 5000 + " a=1\n",
        "net n\rplaces: a\x0binit: a=1\x1ctarget: a=1 ",
        "net n\nplaces: a b\ninit: a=١\n",
        "net n\nplaces: p0\ninit: p0>>=1\n",
        "net n\nplaces: p0\ntarget: p0==1\n",
        "net n\nplaces: p0\ntransition t\n  consume p0::1\n",
        "net n\nplaces: p0\ninit: =1\n",
        "net n\nplaces: p0\ntarget: >=1\n",
        "net n\nplaces: p0\ntransition t\n  produce :1\n",
        "net n\nplaces: p0\ntransition t\n  consume p0:\n",
        "net n\nplaces: p0\ntransition t\n  consume p0:1:2\n",
        "net n\nplaces: p0\ninit: p0=1x\n",
        "net n\nplaces: p0\ntransition t\n  consume p0=1\n",
        "net n\nplaces: p0\ninit: p0:1\n",
        "net n\nplaces: p0\ntransition t\n  consume p0:\u0663\n",
        "net n\nplaces: p0\ntransition t\n  consume p0:\u00b2\n",
        "net n\nplaces: p0\ntarget: p0>=\u00b2\n",
        "net n\nplaces: p0 p=1\n",
        "net n\nplaces: p:0\n",
        "net n\nplaces: p0>\n",
        "net n\nplaces: p0\ntransition t=1\n",
        "net n\nplaces: p0\ntransition t:\n",
        "net n\nplaces: p0\ntransition >t\n",
        *(
            f"net n\nplaces: p0\ntransition t weight {weight}\n"
            for weight in [
                "1/",
                "/2",
                "1.5",
                "+1",
                "-1",
                "1_000",
                "\u00b2",
                "0/0",
                "00/1",
                "2/4",
                "\u0663/\u0664",
                "1/\u0660",
                "1" * 5000 + "/0",
            ]
        ),
    ],
)
def test_edge_cases_parse_or_fail_alike(text):
    assert_same_outcome(text)


def test_nd_digits_are_counts():
    inst = assert_same_outcome("net n\nplaces: p0\ninit: p0>=\u0663\ntransition t\n  consume p0:\u0663\n")
    assert inst.init == inst.net.transitions[0].guard == (3,)
    assert inst.init_upward == frozenset({0})
