"""Command-line surface.

Exit codes: 0 on success, 1 when `check` finds unequal character sets or
`gaudin-verify` finds a nonzero residual, 2 on usage errors, 3 on an internal
error (any other exception; its traceback goes to stderr).  All output is
deterministic.  Text is written line by line as it is made; `--format json`
mirrors the text tables and is exactly `json.dumps(obj, indent=2)`, non-ASCII
escaped, from a private encoder that accepts only dicts with str keys, lists,
str, int, bool and None (anything else is an internal error).

Subcommands taking reflection parameters read them from exactly one source:
`--c0` with `--k`, or `--c0` with the charges `--r`; `tableaux` reads its
shapes from `--shape` or from `--d` with `--n`.  Giving both `--k` and `--r`,
or `--shape` with `--d` or `--n`, is a usage error.  Outside `dpartitions`
and `tableaux`, d is the number of `--k` or `--r` entries.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote

from .combinatorics import (
    CharacterSum,
    character_counts,
    enumerate_dpartitions,
    parse_dpartition,
    standard_tableaux,
)
from .conjecture import check_conjecture, params_from_r
from .fock import (
    canonical_basis,
    enumerate_standard_symbols,
    lm_constructible,
    symbol_sort_key,
)
from .gd12 import RegimeMismatch, cm_cells_n2, sim_classes, verify_gaudin_eigensystem
from .jucys_murphy import CMParams, jm_cellular_characters
from .laurent import parse_rational


class UsageError(ValueError):
    pass


def _parse_list(text: str, parse, kind: str) -> tuple:
    try:
        return tuple(parse(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse {kind} list {text!r}") from exc


def _charges_from_args(args) -> tuple[int, ...]:
    if args.r is None:
        raise UsageError(f"{args.command} needs --r")
    return _parse_list(args.r, int, "integer")


def _params_from_args(args) -> CMParams:
    """Parameters from exactly one of --k and --r, each with --c0."""
    if args.k is not None and args.r is not None:
        raise UsageError("give parameters via --k or --r, not both")
    if args.k is None and args.r is None:
        raise UsageError("provide parameters via --k or --r (with --c0)")
    if args.k is not None:
        flag, values = "--k", _parse_list(args.k, parse_rational, "rational")
    else:
        flag, values = "--r", _parse_list(args.r, int, "integer")
    if args.c0 is None:
        raise UsageError(f"{flag} requires --c0")
    try:
        c0 = parse_rational(args.c0)
    except ValueError as exc:
        raise UsageError(f"cannot parse --c0 {args.c0!r}: {exc}") from exc
    if args.k is not None:
        return CMParams(len(values), c0, values)
    return params_from_r(values, c0)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the values the CLI emits.

    Those are dicts with str keys, lists, str, int, bool and None; anything
    else raises TypeError.  Strings go through the stdlib's C escaper, a list
    of strings is one join, and a dict holding only scalars is encoded once
    per depth: the listings repeat a few such dicts thousands of times.
    """
    flat: dict[tuple[int, int], str] = {}

    def scalar(value) -> str:
        if isinstance(value, str):
            return _quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        raise TypeError(f"cannot encode {type(value).__name__} as JSON")

    def encode(value, depth: int) -> str:
        if isinstance(value, dict):
            return encode_dict(value, depth)
        if isinstance(value, list):
            return encode_list(value, depth)
        return scalar(value)

    def encode_dict(obj: dict, depth: int) -> str:
        if not obj:
            return "{}"
        text = flat.get((id(obj), depth))
        if text is not None:
            return text
        items, scalars_only = [], True
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot encode {type(key).__name__} key as JSON")
            if isinstance(value, (dict, list)):
                scalars_only = False
            items.append(f"{_quote(key)}: {encode(value, depth + 1)}")
        text = _bracket("{", items, "}", depth)
        if scalars_only:
            # ``obj`` is alive until the encoding ends, so its id is not reused
            flat[id(obj), depth] = text
        return text

    def encode_list(obj: list, depth: int) -> str:
        if not obj:
            return "[]"
        if isinstance(obj[0], str):
            try:
                return _bracket("[", map(_quote, obj), "]", depth)
            except TypeError:  # a later item is not a str
                pass
        return _bracket("[", [encode(value, depth + 1) for value in obj], "]", depth)

    return encode(obj, 0)


def _bracket(open_: str, items, close: str, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    return f"{open_}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{close}"


@contextmanager
def _destination(args):
    """--out opened for writing, or stdout; failing to write --out is a usage error."""
    if not args.out:
        yield sys.stdout
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc


def _emit_json(args, obj) -> None:
    """Write `obj` as JSON to --out or stdout, encoded before either is opened."""
    text = _json_text(obj)
    with _destination(args) as handle:
        handle.write(text)
        handle.write("\n")


def _emit_lines(args, lines) -> None:
    """Write each text line to --out or stdout as it is made.

    Each line ends in a newline, and an empty listing is one newline.
    """
    with _destination(args) as handle:
        empty = True
        for line in lines:
            handle.write(line + "\n")
            empty = False
        if empty:
            handle.write("\n")


def _cmd_dpartitions(args) -> int:
    items = enumerate_dpartitions(args.d, args.n)
    if args.format == "json":
        _emit_json(args, [dp.text() for dp in items])
    else:
        _emit_lines(args, (dp.text() for dp in items))
    return 0


def _cmd_tableaux(args) -> int:
    if args.shape is not None and (args.d is not None or args.n is not None):
        raise UsageError("give the shape via --shape or via --d and --n, not both")
    if args.shape is not None:
        try:
            shapes = [parse_dpartition(args.shape)]
        except ValueError as exc:
            raise UsageError(f"cannot parse --shape {args.shape!r}: {exc}") from exc
    elif args.d is not None and args.n is not None:
        shapes = list(enumerate_dpartitions(args.d, args.n))
    else:
        raise UsageError("tableaux needs --shape or both --d and --n")
    if args.format == "json":
        obj = {
            shape.text(): [tab.text() for tab in standard_tableaux(shape)]
            for shape in shapes
        }
        _emit_json(args, obj)
    else:

        def lines():
            for shape in shapes:
                tabs = standard_tableaux(shape)
                yield f"{shape.text()}  ({len(tabs)} tableaux)"
                for tab in tabs:
                    yield f"  {tab.text()}"

        _emit_lines(args, lines())
    return 0


def _cmd_jm_cells(args) -> int:
    params = _params_from_args(args)
    decomposition = jm_cellular_characters(params, args.n)
    if args.format == "json":
        _emit_json(args, decomposition.to_json_obj())
    else:

        def lines():
            report = decomposition.report
            yield (
                "JM cells (= CM cells: parameters generic)"
                if report.generic
                else "JM cells (upper bounds: CM cells may be merged)"
            )
            yield f"generic: {report.generic}" + (
                f"  witness(k-index p, q, j): {report.witness}" if report.witness else ""
            )
            for spec, text in decomposition.walk(str, CharacterSum.text):
                yield f"spectrum ({', '.join(spec)}): {text}"

        _emit_lines(args, lines())
    return 0


def _cmd_standard_symbols(args) -> int:
    charges = _charges_from_args(args)
    component = enumerate_standard_symbols(charges, args.n)
    layers = [
        [s.text() for s in sorted(layer, key=symbol_sort_key)]
        for layer in component.by_height
    ]
    if args.format == "json":
        _emit_json(args, {str(h): texts for h, texts in enumerate(layers)})
    else:
        _emit_lines(args, (f"height {h}: {', '.join(t)}" for h, t in enumerate(layers)))
    return 0


def _cmd_canonical_basis(args) -> int:
    charges = _charges_from_args(args)
    basis = canonical_basis(charges, args.n)
    ordered = sorted(basis, key=lambda s: (s.height, symbol_sort_key(s)))
    if args.format == "json":
        obj = {
            "charges": list(charges),
            "max_height": args.n,
            "basis": [
                {
                    "symbol": sym.text(),
                    "terms": [
                        {"symbol": s.text(), "coeff": basis[sym].coefficient(s).text()}
                        for s in basis[sym].support()
                    ],
                }
                for sym in ordered
            ],
        }
        _emit_json(args, obj)
    else:

        def lines():
            for sym in ordered:
                vec = basis[sym]
                body = " + ".join(
                    f"({vec.coefficient(s).text()})[{s.text()}]" for s in vec.support()
                )
                yield f"{sym.text()} : {body}"

        _emit_lines(args, lines())
    return 0


def _cmd_lm_cells(args) -> int:
    charges = _charges_from_args(args)
    chars = lm_constructible(charges, args.n)
    ordered = sorted(chars, key=symbol_sort_key)
    if args.format == "json":
        _emit_json(args, {sym.text(): chars[sym].to_json_obj() for sym in ordered})
    else:
        _emit_lines(args, (f"{sym.text()} : {chars[sym].text()}" for sym in ordered))
    return 0


def _cmd_cm_cells_n2(args) -> int:
    params = _params_from_args(args)
    cells = character_counts(cm_cells_n2(params))
    if args.format == "json":
        obj = {
            "classes": [list(c) for c in sim_classes(params)],
            "cells": [cs.to_json_obj() for cs in cells],
        }
        _emit_json(args, obj)
    else:
        lines = [f"classes: {sim_classes(params)}"]
        lines.extend(cs.text() for cs in cells)
        _emit_lines(args, lines)
    return 0


def _cmd_gaudin_verify(args) -> int:
    params = _params_from_args(args)
    d = params.d
    if (args.i is None) != (args.j is None):
        raise UsageError("gaudin-verify needs both --i and --j, or neither")
    pairs = (
        [(args.i, args.j)]
        if args.i is not None and args.j is not None
        else [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    )
    reports = []
    all_ok = True
    for i, j in pairs:
        try:
            report = verify_gaudin_eigensystem(d, i, j, params)
            reports.append(report.to_json_obj())
            all_ok = all_ok and report.ok
        except RegimeMismatch as exc:
            reports.append(
                {"d": d, "pair": [i, j], "regimes": [], "irreducible": str(exc)}
            )
    if args.format == "json":
        _emit_json(args, reports)
    else:
        lines = []
        for rep in reports:
            pair = tuple(rep["pair"])
            if rep.get("regimes"):
                verdicts = ", ".join(
                    f"{r['name']}: {'ok' if r['residuals_zero'] else 'FAIL'}"
                    for r in rep["regimes"]
                )
                lines.append(f"pair {pair}: {verdicts} (ok={rep['ok']})")
            else:
                lines.append(f"pair {pair}: {rep['irreducible']}")
        _emit_lines(args, lines)
    return 0 if all_ok else 1


def _cmd_check(args) -> int:
    verdict = check_conjecture(_params_from_args(args), args.n)
    if args.format == "json":
        _emit_json(args, verdict.to_json_obj())
    else:
        lines = [
            f"mode: {verdict.mode}",
            f"equal: {verdict.equal}" + (f"  ({verdict.note})" if verdict.note else ""),
            "cm cells:",
        ]
        lines.extend(f"  {cs.text()}" for cs in verdict.cm_counts)
        lines.append("lm cells:")
        lines.extend(f"  {cs.text()}" for cs in verdict.lm_counts)
        if not verdict.equal:
            lines.append("cm only: " + "; ".join(cs.text() for cs in verdict.cm_only))
            lines.append("lm only: " + "; ".join(cs.text() for cs in verdict.lm_only))
        _emit_lines(args, lines)
    return 0 if verdict.equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathcells",
        description=(
            "Exact cellular and constructible characters for G(d,1,n): "
            "Jucys-Murphy cells, Fock-space canonical bases and the "
            "parameter dictionary between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, params=False, charges=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        if n:
            p.add_argument("--n", type=int, required=True)
        if params:
            p.add_argument("--c0", default=None, help="rational, e.g. 1 or -1/2")
            p.add_argument("--k", default=None, help="comma list k_0,..,k_{d-1}")
        if charges:
            p.add_argument("--r", default=None, help="comma list of charges, weakly decreasing")

    p = sub.add_parser("dpartitions", help="list d-partitions of n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_dpartitions)

    p = sub.add_parser("tableaux", help="list standard d-tableaux")
    p.add_argument("--shape", default=None, help='d-partition text, e.g. "2.1|∅"')
    common(p)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("jm-cells", help="Jucys-Murphy cells for given parameters")
    common(p, n=True, params=True, charges=True)
    p.set_defaults(func=_cmd_jm_cells)

    p = sub.add_parser("standard-symbols", help="crystal component by height")
    common(p, n=True, charges=True)
    p.set_defaults(func=_cmd_standard_symbols)

    p = sub.add_parser("canonical-basis", help="canonical basis up to height n")
    common(p, n=True, charges=True)
    p.set_defaults(func=_cmd_canonical_basis)

    p = sub.add_parser("lm-cells", help="Leclerc-Miyachi constructible characters")
    common(p, n=True, charges=True)
    p.set_defaults(func=_cmd_lm_cells)

    p = sub.add_parser("cm-cells-n2", help="closed-form Calogero-Moser cells at n=2")
    common(p, params=True, charges=True)
    p.set_defaults(func=_cmd_cm_cells_n2)

    p = sub.add_parser("gaudin-verify", help="verify the 2x2 Gaudin eigen-systems")
    common(p, params=True, charges=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.set_defaults(func=_cmd_gaudin_verify)

    p = sub.add_parser("check", help="compare the two character sets")
    common(p, n=True, params=True, charges=True)
    p.set_defaults(func=_cmd_check)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "n", None) is not None and args.n < 0:
            raise UsageError(f"--n must be nonnegative, got {args.n}")
        out = getattr(args, "out", None)
        if out and os.path.isdir(out):
            raise UsageError(f"cannot write --out {out}: Is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise UsageError(f"cannot write --out {out}: no such directory")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "sets unequal", so a crash must not exit 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
