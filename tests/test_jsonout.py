"""JSON text of results.

Core claims:
    - dumps gives the bytes of json.dumps(round12(x), indent=2) plus a
      newline for any payload of nested dicts, lists and tuples over
      strings, bools, None, ints of any size and finite floats; an int
      past the interpreter's 4300-digit text limit prints its exact digits
    - in particular for a lone finite float, of any size, on both sides
      of the decades where the 12-digit text changes notation, subnormal
      or signed zero: the text printed without a round trip is the repr
    - the same holds when one dict, list or tuple object sits in several
      places, at any depth and however it nests (the emitter reuses the
      text of a container within one call only), and for subclasses of
      int and str
    - the emitter keeps the text of exactly the containers met twice at
      one depth: of a lemma sweep, the Words, shapes and patterns, never a
      report, the report list or the payload; a kept text holds the kept
      text of what it contains
    - a NaN or infinite float anywhere is a coded NonFiniteResult error
      that names where it sits, the first place for a shared dict, also
      when the containers around it are met a second time
"""

import enum
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from rankshift.jsonout import _encode, dumps, round12
from rankshift.errors import DomainError, NonFiniteResultError
from rankshift.families import golden_mean
from rankshift.patterns import reports_to_json, verify_partial_isometries
from rankshift.shapes import Shape

AWKWARD_TEXT = ['"', "\\", "a\"b\\c", "\n\t\r\x00\x1f\x7f", "é", "日本語",
                "\U0001f600", " ", ""]

texts = st.text() | st.sampled_from(AWKWARD_TEXT)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10**40, max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308,
                       0.1 + 0.2, 123456789012.5, 1e16])
    | texts
)
payloads = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(payloads)
@example(0.1)  # a bare float, which only the scalar route prints
def test_emitter_matches_json_dumps(payload):
    assert dumps(payload) == json.dumps(round12(payload), indent=2) + "\n"


# Most draws of st.floats print with an exponent; the quotients n / 10**k
# mostly print in fixed notation with a ".", the text printed as it is.
# At 1e-5 and 1e12 the 12-digit text turns to exponent notation; the
# 9.99...e-05 and 999999999999.96 round across those decades, and the
# 0.000123... and 99999999999.5 print 12 digits in fixed notation.
decimal_floats = st.builds(lambda n, k: n / 10 ** k,
                           st.integers(-10**13, 10**13), st.integers(0, 17))


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | decimal_floats)
@example(1e-5)
@example(1e-4)
@example(9.99999999999995e-05)
@example(0.000123456789012345)
@example(99999999999.5)
@example(999999999999.5)
@example(999999999999.96)
@example(1e11)
@example(1e12)
@example(123456789012.5)
@example(1e16)
@example(-0.0)
@example(5e-324)
@example(2.5e-310)
def test_float_text_matches_json_dumps(x):
    assert dumps([x]) == json.dumps(round12([x]), indent=2) + "\n"


@pytest.mark.parametrize("payload", [{}, [], (), {"a": {}}, [[], {}, ()],
                                     {"x": [1, (2, 3.0)], "y": None}])
def test_emitter_empty_and_small_containers(payload):
    assert dumps(payload) == json.dumps(round12(payload), indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_is_coded_error(bad):
    payload = {"config": {"k": 1}, "sequence": [0.5, (1.0, bad)]}
    with pytest.raises(NonFiniteResultError) as info:
        dumps(payload)
    assert isinstance(info.value, DomainError)
    data = info.value.to_json()
    assert data["error"] == "NonFiniteResult"
    assert data["details"] == {"path": ["sequence", 1, 1], "value": repr(bad)}


def test_int_past_the_text_digit_limit_prints_exactly():
    # int.__repr__ refuses past 4300 digits under Python 3.11
    n = 10**5000 + 7
    assert dumps(n) == "1" + "0" * 4999 + "7\n"
    assert dumps([-n]) == "[\n  -1" + "0" * 4999 + "7\n]\n"


def test_non_string_key_is_refused():
    with pytest.raises(TypeError):
        dumps({1: "one"})
    # as json.dumps does, a value of no JSON type is refused too
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        dumps({"a": object()})


def _expected(payload):
    return json.dumps(round12(payload), indent=2) + "\n"


WORD = {"shape": [1, 0], "labels": [0, 2]}
OUTER = {"word": WORD, "n": 3}

ALIASED = [
    # same depth
    [WORD, WORD, {"a": 1}, WORD],
    {"kappa": WORD, "lambda": WORD},
    # two depths
    [WORD, [WORD, [WORD]], {"x": WORD}],
    {"u": WORD, "patterns": [{"kappa": WORD, "cells": 0}, WORD]},
    # inside both a list and a dict
    {"list": [WORD, 1], "dict": {"word": WORD}, "top": WORD},
    # a shared dict with a dict value, and its leaf shared beside it
    [OUTER, OUTER, WORD, {"o": OUTER}],
]


@pytest.mark.parametrize("payload", ALIASED)
def test_shared_dicts_match_json_dumps(payload):
    assert dumps(payload) == _expected(payload)


@st.composite
def aliased_payloads(draw):
    """Payloads in which a few containers recur by reference at several
    depths: flat dicts, a list and a tuple of leaves, a dict holding a
    list of them, a tuple holding that, and a dict holding both."""
    flat = draw(st.lists(st.dictionaries(texts, leaves, max_size=3),
                         min_size=1, max_size=3))
    flat += [draw(st.lists(leaves, max_size=3)),
             tuple(draw(st.lists(leaves, max_size=3)))]
    holder = {"items": draw(st.lists(st.sampled_from(flat), max_size=3)),
              "n": draw(leaves)}
    pair = (holder, draw(st.sampled_from(flat)))
    outer = {"holder": holder, "pair": pair, "flat": draw(st.sampled_from(flat))}
    pool = flat + [holder, pair, outer]
    trees = st.recursive(
        st.sampled_from(pool) | leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(texts, children, max_size=4)),
        max_leaves=20)
    return {"a": draw(trees), "b": [draw(trees), pool], "c": pool}


@settings(max_examples=150, deadline=None)
@given(aliased_payloads())
def test_aliased_payloads_match_json_dumps(payload):
    memo = {}
    assert _encoded(payload, memo) == _expected(payload)
    assert _kept(memo) == _met_twice(payload)


def _encoded(payload, memo):
    """dumps(payload), with the memo of the call kept in memo."""
    out = []
    _encode(payload, "\n", memo, out)
    return "".join(out) + "\n"


def _kept(memo):
    """(id, depth) of every container whose text a memo keeps."""
    return {(ident, len(newline) // 2)
            for (ident, newline), text in memo.items() if text is not None}


def _met_twice(payload):
    """(id, depth) of every nonempty container that sits at that depth on
    two or more paths into payload."""
    counts = Counter()

    def walk(obj, depth):
        if isinstance(obj, (dict, list, tuple)) and obj:
            counts[id(obj), depth] += 1
            for value in obj.values() if isinstance(obj, dict) else obj:
                walk(value, depth + 1)

    walk(payload, 0)
    return {slot for slot, n in counts.items() if n > 1}


def test_memo_keeps_patterns_not_reports():
    reports = reports_to_json(
        verify_partial_isometries(golden_mean(), Shape.of(1), Shape.of(1)))
    payload = {"config": {"command": "lemma-check"}, "reports": reports}
    memo = {}
    assert _encoded(payload, memo) == _expected(payload)
    kept = _kept(memo)
    assert kept == _met_twice(payload)
    kept = {ident for ident, _ in kept}
    # reports of one shape pair without a live pattern share one list
    lists = Counter(id(report["patterns"]) for report in reports)
    assert max(lists.values()) > 1
    assert all(ident in kept for ident, n in lists.items() if n > 1)
    assert all(id(report[key]) in kept for report in reports for key in "uw")
    assert all(id(report[key]) in kept for report in reports for key in "pmn")
    assert not any(id(report) in kept for report in reports)
    assert id(reports) not in kept and id(payload) not in kept


def test_kept_text_nests_in_kept_and_first_meeting_containers():
    inner = {"labels": [0, 1]}
    outer = {"first": inner, "second": inner}
    once = {"a": inner, "outer": outer}
    payload = [outer, outer, once]
    memo = {}
    assert _encoded(payload, memo) == _expected(payload)
    assert _kept(memo) == _met_twice(payload)
    outer_text = memo[id(outer), "\n  "]
    inner_text = memo[id(inner), "\n    "]
    # inner's kept text sits inside outer's, kept at the depth above, and
    # inside once, met once, whose text is not kept
    assert outer_text.count(inner_text) == 2
    assert memo[id(once), "\n  "] is None
    assert memo[id(outer), "\n    "] is None
    assert '"a": ' + inner_text in _expected(payload)


def test_nan_at_a_second_meeting_keeps_its_first_path():
    # a refused call leaves each container on the NaN's path marked as met
    # once; a second call with that memo meets them a second time, encodes
    # them into lists of their own, and names the same path
    shared = {"ok": 1.0, "bad": math.nan}
    payload = {"config": {"k": 1}, "rows": [[0, shared], shared],
               "again": shared}
    memo = {}
    for first in (True, False):
        out = []
        with pytest.raises(NonFiniteResultError) as info:
            _encode(payload, "\n", memo, out)
        assert info.value.details["path"] == ["rows", 0, 1, "bad"]
        assert bool(out) is first  # the second meeting wrote into its own list
        assert memo[id(shared), "\n      "] is None


def test_memo_does_not_outlive_a_call():
    shared = {"labels": [0, 1]}
    payload = {"a": shared, "b": [shared, shared]}
    first = dumps(payload)
    assert first == _expected(payload)
    shared["labels"].append(2)
    shared["extra"] = 0.5
    second = dumps(payload)
    assert second != first
    assert second == _expected(payload)


def test_nan_in_shared_dict_keeps_its_first_path():
    shared = {"ok": 1.0, "bad": math.nan}
    payload = {"config": {"k": 1}, "rows": [[0, shared], shared],
               "again": shared}
    with pytest.raises(NonFiniteResultError) as info:
        dumps(payload)
    assert info.value.details["path"] == ["rows", 0, 1, "bad"]


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10 ** 30


class Tag(str):
    def __str__(self):
        return "not the value"


@pytest.mark.parametrize("payload", [
    Level.HIGH, Tag("x\"y"),
    {"level": Level.LOW, "tag": Tag("é"), Tag("key"): [Level.HIGH, Tag("")]},
    [Level.LOW, {"t": Tag("a")}, (Tag("b"), 2.5)],
], ids=["int-enum", "str-subclass", "in-dict", "in-list"])
def test_int_and_str_subclasses_match_json_dumps(payload):
    assert dumps(payload) == _expected(payload)
