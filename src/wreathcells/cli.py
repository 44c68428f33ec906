"""Command-line surface.

Exit codes: 0 on success, 1 when `check` finds unequal character sets or
`gaudin-verify` finds a nonzero residual, 2 on usage errors, 3 on an internal
error (any other exception; its traceback goes to stderr).  All output is
deterministic; `--format json` mirrors the text tables.

Subcommands taking reflection parameters read them from exactly one source:
`--c0` with `--k`, or `--c0` with the charges `--r`; `tableaux` reads its
shapes from `--shape` or from `--d` with `--n`.  Giving both `--k` and `--r`,
or `--shape` with `--d` or `--n`, is a usage error.  Outside `dpartitions`
and `tableaux`, d is the number of `--k` or `--r` entries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .combinatorics import (
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


def _emit(args, out) -> None:
    """Write `out` to --out or stdout: a str as is, anything else as JSON."""
    text = out if isinstance(out, str) else json.dumps(out, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def _cmd_dpartitions(args) -> int:
    items = enumerate_dpartitions(args.d, args.n)
    if args.format == "json":
        _emit(args, [dp.text() for dp in items])
    else:
        _emit(args, "\n".join(dp.text() for dp in items))
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
        _emit(args, obj)
    else:
        lines = []
        for shape in shapes:
            tabs = standard_tableaux(shape)
            lines.append(f"{shape.text()}  ({len(tabs)} tableaux)")
            for tab in tabs:
                lines.append(f"  {tab.text()}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_jm_cells(args) -> int:
    params = _params_from_args(args)
    decomposition = jm_cellular_characters(params, args.n)
    if args.format == "json":
        _emit(args, decomposition.to_json_obj())
    else:
        label = (
            "JM cells (= CM cells: parameters generic)"
            if decomposition.report.generic
            else "JM cells (upper bounds: CM cells may be merged)"
        )
        lines = [
            label,
            f"generic: {decomposition.report.generic}"
            + (
                f"  witness(k-index p, q, j): {decomposition.report.witness}"
                if decomposition.report.witness
                else ""
            ),
        ]
        texts = {cs: cs.text() for cs, _ in decomposition.finals.values()}
        for spec, cs in decomposition.cells:
            spec_text = ", ".join(str(x) for x in spec)
            lines.append(f"spectrum ({spec_text}): {texts[cs]}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_standard_symbols(args) -> int:
    charges = _charges_from_args(args)
    component = enumerate_standard_symbols(charges, args.n)
    layers = [
        [s.text() for s in sorted(layer, key=symbol_sort_key)]
        for layer in component.by_height
    ]
    if args.format == "json":
        _emit(args, {str(h): texts for h, texts in enumerate(layers)})
    else:
        lines = [f"height {h}: {', '.join(texts)}" for h, texts in enumerate(layers)]
        _emit(args, "\n".join(lines))
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
        _emit(args, obj)
    else:
        lines = []
        for sym in ordered:
            vec = basis[sym]
            body = " + ".join(
                f"({vec.coefficient(s).text()})[{s.text()}]" for s in vec.support()
            )
            lines.append(f"{sym.text()} : {body}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_lm_cells(args) -> int:
    charges = _charges_from_args(args)
    chars = lm_constructible(charges, args.n)
    ordered = sorted(chars, key=symbol_sort_key)
    if args.format == "json":
        _emit(args, {sym.text(): chars[sym].to_json_obj() for sym in ordered})
    else:
        _emit(args, "\n".join(f"{sym.text()} : {chars[sym].text()}" for sym in ordered))
    return 0


def _cmd_cm_cells_n2(args) -> int:
    params = _params_from_args(args)
    cells = character_counts(cm_cells_n2(params))
    if args.format == "json":
        obj = {
            "classes": [list(c) for c in sim_classes(params)],
            "cells": [cs.to_json_obj() for cs in cells],
        }
        _emit(args, obj)
    else:
        lines = [f"classes: {sim_classes(params)}"]
        lines.extend(cs.text() for cs in cells)
        _emit(args, "\n".join(lines))
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
        _emit(args, reports)
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
        _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


def _cmd_check(args) -> int:
    verdict = check_conjecture(_params_from_args(args), args.n)
    if args.format == "json":
        _emit(args, verdict.to_json_obj())
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
        _emit(args, "\n".join(lines))
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
