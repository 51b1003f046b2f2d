"""Command line front end.

``main`` parses the arguments, loads the family once (``search-gap``
reads none, and ignores a given ``-f``), runs one subcommand body and
hands its result to ``_emit``.  A body ``_cmd_X(args, family)`` only
computes: it returns ``(payload, header, rows)``, where ``payload`` is the
JSON result, ``header`` the CSV column names and ``rows`` a lazy iterable
of CSV rows, read only for ``--format csv``.  Each output embeds the
resolved run configuration (everything except the output path), so a
result file can be rerun to reproduce itself byte for byte: floats print
at 12 significant digits and exact counts print as decimal strings.

The argparse tree is built once, when the module is imported, and every
``main`` call parses with that one parser: building it takes 2 to 3 ms,
which in-process callers (a benchmark loop, a test suite, a notebook)
would otherwise pay on every call.  Parsing keeps no state in the parser,
and help text reads the terminal width when it is printed.  The build is
not deferred to the first call, so the parser's memory is allocated with
the module's rather than in the middle of the first job, where it would
stay resident among that job's freed blocks.

Exit codes: 0 success, 1 domain error (JSON with the error code), 2 usage.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from math import inf, isfinite, log

from . import dynamics, gapsearch, patterns
from .budget import Budget, DEFAULT as DEFAULT_BUDGET
from .errors import DomainError, ParseError, WindowTooWideError
from .jsonout import dumps, dumps_line
from .matrices import entropy_exact, family_from_dict, validate_family
from .pressure import (
    Potential,
    potential_from_dict,
    pressure_estimate,
    pressure_oracle_vertex,
)
from .shapes import Shape
from .words import (
    Word,
    check_enum_budget,
    count_oracle_check,
    enumerate_words,
    letter_index,
    word_to_dict,
)


_LOG_FACTORS = {"e": 1.0, "2": log(2.0), "10": log(10.0)}


def _scale(obj, factor):
    if factor == 1.0:
        return obj
    if isinstance(obj, float):
        return obj / factor
    if isinstance(obj, (list, tuple)):
        return [_scale(v, factor) for v in obj]
    return obj


def _finite_float(text):
    value = float(text)
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(low):
    """An argparse type: -?[0-9]+ in ASCII (int() alone also reads 1_0,
    ' +1' and the digits of other scripts), at least low (-inf: any)."""
    def integer(text):
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
        return int(text)
    return integer


_COUNT, _POSITIVE, _INTEGER = (_int_at_least(0), _int_at_least(1),
                              _int_at_least(-inf))


def _load(path, kind, build):
    """build(data) of the JSON file at path, read as UTF-8; anything that
    cannot be read, decoded or built is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {kind} file", path=path,
                         reason=str(exc)) from exc
    try:
        return build(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} file", path=path,
                         reason=str(exc)) from exc


def _budget(args):
    return Budget(max_enum_bits=args.max_enum_bits,
                  max_enum_nodes=args.max_enum_nodes,
                  max_exact_digits=args.max_exact_digits)


def _config(args):
    skip = {"out", "func", "command"}
    cfg = {"command": args.command}
    for key, value in vars(args).items():
        if key not in skip:
            cfg[key] = value
    return cfg


def _emit(args, payload, header, rows):
    """Write {"config": ..., **payload} as JSON, or the config line, header
    and rows as CSV, to --out or stdout.  The text is complete before
    anything is written, so a refused result writes nothing."""
    if args.format == "json":
        text = dumps({"config": _config(args), **payload})
    else:
        buf = io.StringIO()
        buf.write("# config: " + dumps_line(_config(args)) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _word_str(word):
    """shape:labels of a Word."""
    shape = ",".join(str(c) for c in word.shape.coords)
    labels = ".".join(str(x) for x in word.labels)
    return f"{shape}:{labels}"


def _series(est, factor):
    """The sequence, diffs and estimate keys of a Series, in display base."""
    return {"sequence": _scale(list(est.sequence), factor),
            "diffs": _scale(list(est.diffs), factor),
            "estimate": _scale(est.estimate, factor)}


def _series_rows(result, last):
    """CSV rows n, average, increment and result[last] of a series; with no
    series (exact entropy alone), one row of result[last]."""
    tail = f"{result[last]:.12g}" if last in result else ""
    if "sequence" not in result:
        return [["", "", "", tail]]
    diffs = result["diffs"]
    return ([i + 1, f"{a:.12g}", f"{diffs[i - 1]:.12g}" if i else "", tail]
            for i, a in enumerate(result["sequence"]))


# -- Subcommand bodies ----------------------------------------------------------

def _cmd_validate(args, family):
    payload = validate_family(family).to_json()
    rows = itertools.chain(
        [["status", payload["status"], ""]],
        (["violation", v["code"], json.dumps(v["witness"], sort_keys=True)]
         for v in payload.get("violations", ())))
    return payload, ["kind", "value", "witness"], rows


def _cmd_words(args, family):
    shape = Shape.parse(args.shape)
    counts = check_enum_budget(family, shape, _budget(args))
    if args.origin is None:
        total = sum(counts)
    else:
        total = counts[letter_index(family, args.origin)]
    words = list(itertools.islice(
        enumerate_words(family, shape, origin=args.origin), args.limit))
    payload = {"shape": list(shape.coords), "total": str(total),
               "returned": len(words), "words": list(map(word_to_dict, words))}
    return payload, ["index", "word"], (
        [i, _word_str(w)] for i, w in enumerate(words))


def _cmd_count_check(args, family):
    payload = count_oracle_check(family, Shape.parse(args.max_shape),
                                 _budget(args)).to_json()
    rows = ([",".join(str(c) for c in r["shape"]), r["enumerated"],
             r["matrix_count"], r["equal"]] for r in payload["rows"])
    return payload, ["shape", "enumerated", "matrix_count", "equal"], rows


def _cmd_entropy(args, family):
    p = Shape.parse(args.p)
    budget = _budget(args)
    factor = _LOG_FACTORS[args.log_base]
    result = {}
    if args.mode in ("bowen", "both"):
        est = dynamics.bowen_entropy_estimate(family, args.k, p, args.n_max,
                                              budget)
        result.update(_series(est, factor))
    if args.mode in ("exact", "both"):
        exact = entropy_exact(family, p, budget)
        result["exact"] = _scale(exact, factor)
    if args.mode == "both":
        result["abs_error"] = _scale(abs(est.estimate - exact), factor)
    return (result, ["n", "average", "increment", "exact"],
            _series_rows(result, "exact"))


def _cmd_action_entropy(args, family):
    value = dynamics.action_entropy_estimate(family, args.k, args.n,
                                             _budget(args))
    value = _scale(value, _LOG_FACTORS[args.log_base])
    return ({"k": args.k, "n": args.n, "value": value}, ["k", "n", "value"],
            [[args.k, args.n, f"{value:.12g}"]])


def _cmd_pressure(args, family):
    p = Shape.parse(args.p)
    budget = _budget(args)
    factor = _LOG_FACTORS[args.log_base]
    if args.potential:
        pot = _load(args.potential, "potential",
                    lambda data: potential_from_dict(family, data))
    else:
        pot = Potential(Shape.zero(family.rank), 0.0, {})
    est = pressure_estimate(family, pot, args.k, p, args.n_max,
                            method=args.method, budget=budget)
    result = {"k": args.k, "step": list(p.coords), "method": args.method,
              **_series(est, factor)}
    if args.oracle:
        if not pot.window.is_zero:
            raise WindowTooWideError(
                "the spectral oracle applies to single-letter windows only",
                window=list(pot.window.coords))
        values = {i: pot.table.get(Word(pot.window, (i,)), pot.default)
                  for i in range(len(family.alphabet))}
        oracle = pressure_oracle_vertex(family, values, p, budget)
        result["oracle"] = _scale(oracle, factor)
        result["abs_error"] = _scale(abs(est.estimate - oracle), factor)
    return (result, ["n", "average", "increment", "oracle"],
            _series_rows(result, "oracle"))


def _cmd_lemma_check(args, family):
    p = Shape.parse(args.p)
    max_gen = Shape.parse(args.max_shape)
    m = Shape.parse(args.m) if args.m else None
    reports = patterns.verify_partial_isometries(
        family, p, max_gen, m=m, budget=_budget(args))
    failures = sum(len(r.witnesses) for r in reports)
    payload = {
        "pairs": len(reports),
        "failures": failures,
        "all_partial_isometries": failures == 0,
    }
    if args.format == "json":  # CSV writes the rows below, not the payload
        payload["reports"] = patterns.reports_to_json(reports)
    word_str = functools.cache(_word_str)  # a few Words recur in every row
    rows = ([word_str(rep.u), word_str(rep.w), word_str(kappa),
             word_str(lam), cells, ok]
            for rep in reports for kappa, lam, cells, ok in rep.stats)
    return (payload,
            ["u", "w", "kappa", "lambda", "cells", "partial_isometry"], rows)


def _cmd_search_gap(args, family):
    budget = _budget(args)
    if args.exhaustive:
        records = gapsearch.exhaustive_search(
            args.size, rank=args.rank, canonicalize=args.canonicalize,
            budget=budget)
        attempts = None
    else:
        records = gapsearch.random_search(
            args.size, args.density, args.trials, args.seed, rank=args.rank,
            budget=budget)
        attempts = args.trials
    records = gapsearch.sorted_records(records)
    payload = {"summary": gapsearch.summarize(records, attempts),
               "records": [r.to_json() for r in records]}
    return (payload, gapsearch.record_csv_header(args.rank),
            map(gapsearch.record_csv_row, records))


# -- Parser ----------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-f", "--family",
                        help="family JSON file (search-gap ignores it)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--log-base", choices=("e", "2", "10"), default="e",
                        help="display base for logarithmic quantities")
    common.add_argument("--max-enum-bits", type=_finite_float,
                        default=DEFAULT_BUDGET.max_enum_bits)
    common.add_argument("--max-enum-nodes", type=_COUNT,
                        default=DEFAULT_BUDGET.max_enum_nodes)
    common.add_argument("--max-exact-digits", type=_COUNT,
                        default=DEFAULT_BUDGET.max_exact_digits)

    parser = argparse.ArgumentParser(
        prog="rankshift",
        description="entropy, pressure and pattern checks for commuting "
                    "0-1 matrix families")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common]).set_defaults(func=_cmd_validate)

    sp = sub.add_parser("words", parents=[common])
    sp.add_argument("--shape", required=True)
    sp.add_argument("--origin", default=None)
    sp.add_argument("--limit", type=_COUNT, default=None)
    sp.set_defaults(func=_cmd_words)

    sp = sub.add_parser("count-check", parents=[common])
    sp.add_argument("--max-shape", required=True)
    sp.set_defaults(func=_cmd_count_check)

    sp = sub.add_parser("entropy", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=_COUNT, default=1)
    sp.add_argument("--n-max", type=_POSITIVE, default=40)
    sp.add_argument("--mode", choices=("exact", "bowen", "both"), default="both")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("action-entropy", parents=[common])
    sp.add_argument("--k", type=_COUNT, default=1)
    sp.add_argument("--n", type=_POSITIVE, required=True)
    sp.set_defaults(func=_cmd_action_entropy)

    sp = sub.add_parser("pressure", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=_COUNT, default=1)
    sp.add_argument("--n-max", type=_POSITIVE, default=40)
    sp.add_argument("--potential", default=None)
    sp.add_argument("--method", choices=("transfer", "enumerate"),
                    default="transfer")
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(func=_cmd_pressure)

    sp = sub.add_parser("lemma-check", parents=[common])
    sp.add_argument("--p", required=True)
    sp.add_argument("--max-shape", required=True)
    sp.add_argument("--m", default=None)
    sp.set_defaults(func=_cmd_lemma_check)

    sp = sub.add_parser("search-gap", parents=[common])
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--size", type=_POSITIVE, default=2)
    sp.add_argument("--rank", type=_POSITIVE, default=2)
    sp.add_argument("--density", type=_finite_float, default=0.25)
    sp.add_argument("--trials", type=_COUNT, default=0)
    sp.add_argument("--seed", type=_INTEGER, default=0)
    sp.add_argument("--canonicalize", action="store_true")
    sp.set_defaults(func=_cmd_search_gap)

    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.family is None and args.command != "search-gap":
        _PARSER.error("the following arguments are required: -f/--family")
    try:
        family = (None if args.command == "search-gap"
                  else _load(args.family, "family", family_from_dict))
        _emit(args, *args.func(args, family))
    except DomainError as exc:
        sys.stdout.write(dumps(exc.to_json()))
        return 1
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
