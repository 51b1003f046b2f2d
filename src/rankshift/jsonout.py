"""JSON text of results.

Floats print at 12 significant digits, so a result file reproduces byte
for byte from its embedded config.  ``dumps`` writes exactly the bytes of
``json.dumps(round12(payload), indent=2)`` plus a newline, in one pass:
the standard encoder runs in pure Python once ``indent`` is set and needs
the rounded copy first.  Each container joins its own members, so no flat
list of every fragment is held.

A finite float prints as ``repr(float(f"{x:.12g}"))``.  When the 12-digit
text has a "." and no "e", it is that repr already and prints as it is:
the text has at most 12 significant digits and no trailing zero, and
doubles separate decimals of up to 15 digits (DBL_DIG), so no shorter
string reads back as the same float; and the text's decimal exponent,
-4 to 11, is one for which repr also writes fixed notation.  Any other
text (an integer value, -0, an exponent) takes the round trip.

Within one call, a container met a second time at one depth keeps its
text for every later meeting there; one met once keeps only its id.  So
a shared list or dict is encoded at most twice per depth, and text that
occurs once, such as a lemma report's, is not held.  On a g3 lemma-check
at max-shape (1, 0) the job's peak traced memory (tracemalloc, Python
3.11) is 2.82 MB; keeping every container's text gives 4.64 MB, and the
former rule, small dicts only, 3.04 MB.  A NaN or infinite float is
refused with a coded error, not printed as invalid JSON.
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
    return _encode(payload, "\n", {}) + "\n"


def dumps_line(payload):
    """One-line JSON text of round12(payload), keys sorted.  A NaN or
    infinite float raises NonFiniteResultError."""
    try:
        return json.dumps(round12(payload), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError("result holds a non-finite number",
                                   reason=str(exc)) from exc


def _encode(obj, newline, memo):
    kind = type(obj)
    if kind not in _EXACT:  # a subclass encodes as its base type
        kind = next((base for base in _BASES if isinstance(obj, base)), kind)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        try:
            return int.__repr__(obj)
        except ValueError:  # past the interpreter's int-to-text digit limit
            from decimal import Decimal
            return str(Decimal(obj))
    if kind is float:
        if isfinite(obj):
            text = f"{obj:.12g}"
            if "." in text and "e" not in text:  # the repr already
                return text
            return float.__repr__(float(text))
        raise NonFiniteResultError("result holds a non-finite number",
                                   path=[], value=repr(obj))
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    is_dict = kind is dict
    brackets = "{}" if is_dict else "[]"
    kept = memo.get((id(obj), newline), False) if obj else brackets
    if kept:  # empty, or met twice here already; None: met once, False: never
        return kept
    inner = newline + "  "
    parts = []
    for key, value in obj.items() if is_dict else enumerate(obj):
        if is_dict and not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        try:
            part = _encode(value, inner, memo)
        except NonFiniteResultError as exc:
            exc.details["path"].insert(0, key)
            raise
        if is_dict:
            part = encode_basestring_ascii(key) + ": " + part
        parts.append(part)
    text = brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]
    memo[(id(obj), newline)] = None if kept is False else text
    return text
