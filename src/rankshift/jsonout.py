"""JSON text of results.

Floats print at 12 significant digits, so a result file reproduces byte
for byte from its embedded config.  ``dumps`` writes exactly the bytes of
``json.dumps(round12(payload), indent=2)`` plus a newline, in one pass:
the standard encoder runs in pure Python once ``indent`` is set and needs
the rounded copy first.  A NaN or infinite float is refused with a coded
error instead of printing as invalid JSON.
"""

import json
from json.encoder import encode_basestring_ascii
from math import isfinite

from .errors import NonFiniteResultError


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
    return _encode(payload, "\n") + "\n"


def dumps_line(payload):
    """One-line JSON text of round12(payload), keys sorted.  A NaN or
    infinite float raises NonFiniteResultError."""
    try:
        return json.dumps(round12(payload), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError("result holds a non-finite number",
                                   reason=str(exc)) from exc


def _encode(obj, newline):
    # each container joins its own members, so no flat list of every
    # fragment of the document is ever held
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not isfinite(obj):
            raise NonFiniteResultError("result holds a non-finite number",
                                       path=[], value=repr(obj))
        return float.__repr__(float(f"{obj:.12g}"))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            try:
                parts.append(encode_basestring_ascii(key) + ": "
                             + _encode(value, inner))
            except NonFiniteResultError as exc:
                exc.details["path"].insert(0, key)
                raise
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        parts = []
        for index, value in enumerate(obj):
            try:
                parts.append(_encode(value, inner))
            except NonFiniteResultError as exc:
                exc.details["path"].insert(0, index)
                raise
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")
