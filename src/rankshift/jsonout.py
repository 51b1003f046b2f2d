"""JSON text of results.

Floats print at 12 significant digits, so a result file reproduces byte
for byte from its embedded config.  ``dumps`` writes exactly the bytes of
``json.dumps(round12(payload), indent=2)`` plus a newline, in one pass:
the standard encoder runs in pure Python once ``indent`` is set and needs
the rounded copy first.  Every fragment goes onto one list, joined once at
the end, so each output byte is copied once more, not once per enclosing
container.  A member's separator, key and scalar value are one fragment;
only a container value takes a recursive call.

A finite float prints as ``repr(float(f"{x:.12g}"))``.  When the 12-digit
text has a "." and no "e", it is that repr already and prints as it is:
the text has at most 12 significant digits and no trailing zero, and
doubles separate decimals of up to 15 digits (DBL_DIG), so no shorter
string reads back as the same float; and the text's decimal exponent,
-4 to 11, is one for which repr also writes fixed notation.  Any other
text (an integer value, -0, an exponent) takes the round trip.

Within one call, a container met once at a depth writes into the list
of its caller and leaves only its id in the memo.  Met a second time
there, it is encoded into a list of its own, joined, and its text kept
for every later meeting.  So a shared list or dict is encoded at most
twice per depth, and text that occurs once, such as a lemma report's, is
not held apart from the output.  On a g3 lemma-check at max-shape (1, 0)
the job's peak traced memory (tracemalloc, Python 3.11) is 1.84 MB, and
``dumps`` of the 14.2 MB t3 report at max-shape (1, 0, 0) peaks at
15.1 MB; joining each container's text on its own gave 2.78 and 43.0 MB.
A NaN or infinite float is refused with a coded error, not printed as
invalid JSON.
"""

import json
from json.encoder import encode_basestring_ascii
from math import isfinite

from .errors import NonFiniteResultError

_BASES = (str, int, float, dict, list, tuple)
_EXACT = frozenset(_BASES + (bool, type(None)))


def round12(obj):
    """A copy of obj with every float rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def dumps(payload):
    """Indented JSON text of payload, newline-terminated.  Dict keys must
    be strings.  A NaN or infinite float raises NonFiniteResultError, whose
    ``path`` locates it."""
    out = []
    _encode(payload, "\n", {}, out)
    out.append("\n")
    return "".join(out)


def dumps_line(payload):
    """One-line JSON text of round12(payload), keys sorted.  A NaN or
    infinite float raises NonFiniteResultError."""
    try:
        return json.dumps(round12(payload), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError("result holds a non-finite number",
                                   reason=str(exc)) from exc


def _scalar(obj, kind):
    """Text of a str, int, float, bool or None whose base type is kind."""
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        try:
            return int.__repr__(obj)
        except ValueError:  # past the interpreter's int-to-text digit limit
            from decimal import Decimal
            return str(Decimal(obj))
    if kind is float:
        return _float_text(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _float_text(x):
    """Text of the float x at 12 significant digits; a NaN or infinity is
    refused."""
    if isfinite(x):
        text = f"{x:.12g}"
        if "." in text and "e" not in text:  # the repr already
            return text
        return float.__repr__(float(text))
    raise NonFiniteResultError("result holds a non-finite number",
                               path=[], value=repr(x))


def _encode(obj, newline, memo, out):
    """Append the text of obj, whose lines after the first open with
    newline, to the fragment list out."""
    kind = type(obj)
    if kind not in _EXACT:  # a subclass encodes as its base type
        kind = next((base for base in _BASES if isinstance(obj, base)), kind)
    if kind is not dict and kind is not list and kind is not tuple:
        out.append(_scalar(obj, kind))
        return
    is_dict = kind is dict
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    slot = id(obj), newline
    kept = memo.get(slot, False)
    if kept:  # met twice here already; None: met once, False: never
        out.append(kept)
        return
    if kept is None:  # the second meeting: encode into a list of its own
        parts = []
    else:
        memo[slot] = None
        parts = out
    append = parts.append
    inner = newline + "  "
    head = ("{" if is_dict else "[") + inner
    comma = "," + inner
    try:
        for key, value in obj.items() if is_dict else enumerate(obj):
            if is_dict:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head += encode_basestring_ascii(key) + ": "
            kind = type(value)
            if kind is float:
                append(head + _float_text(value))
            elif kind is int or kind is str or kind is bool or value is None:
                append(head + _scalar(value, kind))
            else:
                append(head)
                _encode(value, inner, memo, parts)
            head = comma
    except NonFiniteResultError as exc:
        exc.details["path"].insert(0, key)
        raise
    append(newline + ("}" if is_dict else "]"))
    if kept is None:
        memo[slot] = text = "".join(parts)
        out.append(text)
