"""Command-line surface.

Exit codes: 0 on success, 1 when `check` finds unequal character sets or
`gaudin-verify` finds a nonzero residual, 2 on usage errors and when --out or
stdout cannot be written (its reader has gone, say), 3 on an internal
error (any other exception, `NegativeMultiplicity` and `MalformedCharacter`
among them; its traceback goes to stderr).  All output is deterministic.
Text is written line by line as it is made.  `--format json` mirrors the text
tables and is exactly `json.dumps(obj, indent=2)`, non-ASCII escaped, from a
private encoder that accepts only dicts with str keys, lists, str, int, bool
and None (anything else is an internal error).  The long lists (JM cells,
n = 2 cells, basis vectors, the verdict's characters) are lazy arrays:
iterators of their elements' JSON text, each element joined here from
fragments encoded once per distinct value and written as it is made; so a
crash part-way leaves a truncated document, with exit 3.  Every listing of
characters (`check`, `jm-cells`, `lm-cells` and `cm-cells-n2`) renders each
one straight from its ``IdCounts`` (`_Characters`), reading bare components:
each shape's text and JSON key is made from its components once per
listing, and each character's ids are checked first.  In JSON each distinct
character is encoded once per depth; text `check` renders each one where it
is listed, its ``only`` lines piece by piece.

Subcommands taking reflection parameters read them from exactly one source:
`--c0` with `--k`, or `--c0` with the charges `--r`; `tableaux` reads its
shapes from `--shape` or from `--d` with `--n`.  Giving both `--k` and `--r`,
or `--shape` with `--d` or `--n`, is a usage error.  Outside `dpartitions`
and `tableaux`, d is the number of `--k` or `--r` entries.  `gaudin-verify`
verifies every pair of components, so it needs d >= 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii as _quote

from .combinatorics import (
    IdCounts,
    MalformedCharacter,
    components_text,
    dpartition_components,
    enumerate_dpartitions,
    parse_dpartition,
    partition_sort_key,
    partition_text,
    standard_tableaux,
)
from .conjecture import check_conjecture, params_from_r
from .fock import (
    NegativeMultiplicity,
    canonical_basis,
    enumerate_standard_symbols,
    lm_constructible,
    symbol_sort_key,
)
from .gd12 import RegimeMismatch, cm_cells_n2, sim_classes, verify_gaudin_eigensystem
from .jucys_murphy import CMParams, is_generic, jm_cellular_characters
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


class _LazyArray(TypeError):
    """An iterator met where a value is encoded whole."""


def _json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` for the values the CLI emits, laid out
    as if it stood at ``depth``.

    Those are dicts with str keys, lists, str, int, bool and None; anything
    else raises TypeError, an iterator `_LazyArray`.  Strings go through the
    stdlib's C escaper, and a list of strings is one join.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:  # the common leaf; bools, also ints, come below
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{_key(key)}: {_json_text(value, depth + 1)}" for key, value in obj.items()
        ]
        return _bracket("{", items, "}", depth)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if isinstance(obj[0], str):
            try:
                return _bracket("[", map(_quote, obj), "]", depth)
            except TypeError:  # a later item is not a str
                pass
        items = [_json_text(value, depth + 1) for value in obj]
        return _bracket("[", items, "]", depth)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, Iterator):
        raise _LazyArray("cannot encode a lazy array whole")
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"cannot encode {type(key).__name__} key as JSON")
    return _quote(key)


def _bracket(open_: str, items, close: str, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    return f"{open_}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{close}"


def _write_lazy(value, depth: int, write) -> None:
    """Write a lazy array, or a dict holding one, at ``depth`` through
    ``write``, member by member, as ``json.dumps(indent=2)`` lays it out.

    A lazy array is an iterator of its elements' JSON text, each already laid
    out at ``depth + 1``: each element is pulled only after the one before it
    is written, and an empty one is ``[]``.  A dict member holding a lazy
    array is written in the same way; every other member is encoded whole
    (`_json_text`) before any of it is written.
    """
    if isinstance(value, dict):
        members = ((f"{_key(key)}: ", item) for key, item in value.items())
        open_, close = "{", "}"
    else:
        members = zip(repeat(""), value)
        open_, close = "[", "]"
    inner = "\n" + "  " * (depth + 1)
    sep = open_ + inner
    for head, item in members:
        try:
            write(sep + head + (_json_text(item, depth + 1) if head else item))
        except _LazyArray:
            write(sep + head)
            _write_lazy(item, depth + 1, write)
        sep = "," + inner
    write(f"\n{'  ' * depth}{close}" if sep[0] == "," else open_ + close)


@contextmanager
def _destination(args):
    """--out opened for writing, or stdout; failing to write either is a usage error.

    Listings are written through it as they are made, so a crash part-way
    leaves what was written so far.  A stdout that fails (its reader has
    gone) is pointed at os.devnull, so the interpreter's last flush passes.
    """
    if not args.out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise UsageError(f"cannot write stdout: {exc.strerror}") from exc
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc


def _emit_json(args, obj) -> None:
    """Write `obj` as JSON, then a newline, to --out or stdout.

    A value without lazy arrays is encoded whole before either is opened.
    Otherwise it is written as it is made (``_write_lazy``, a lazy array as
    its elements' JSON text), so a crash inside a lazy array truncates it.
    """
    try:
        text = _json_text(obj)
    except _LazyArray:
        text = None
    with _destination(args) as handle:
        if text is None:
            _write_lazy(obj, 0, handle.write)
        else:
            handle.write(text)
        handle.write("\n")


def _emit_lines(args, lines) -> None:
    """Write each text line, newline-terminated, to --out or stdout as it is made.

    No subcommand makes an empty listing: each writes a header or height 0.
    """
    with _destination(args) as handle:
        for line in lines:
            handle.write(line + "\n")


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
    characters = _Characters(params.d, args.n)
    report = is_generic(params, args.n)
    if args.format == "json":
        obj = {
            "cells": _json_cells(decomposition, characters),
            "generic": report.generic,
            "witness": list(report.witness) if report.witness else None,
        }
        _emit_json(args, obj)
    else:

        def lines():
            yield (
                "JM cells (= CM cells: parameters generic)"
                if report.generic
                else "JM cells (upper bounds: CM cells may be merged)"
            )
            yield f"generic: {report.generic}" + (
                f"  witness(k-index p, q, j): {report.witness}" if report.witness else ""
            )
            for spec, text in decomposition.walk(str, characters.text):
                yield f"spectrum ({', '.join(spec)}): {text}"

        _emit_lines(args, lines())
    return 0


def _json_cells(decomposition, characters: _Characters) -> Iterator[str]:
    """The cells of ``jm-cells --format json``, each a dict at depth 2.

    Each distinct eigenvalue is quoted once and each final state's character
    encoded once, from its ids, so a cell is one join of shared fragments.
    """
    if len(decomposition.paths) > 1:
        open_ = '{\n      "spectrum": [\n        '
        character = '\n      ],\n      "character": '
    else:  # n = 0: every spectrum is empty
        open_, character = '{\n      "spectrum": [', '],\n      "character": '
    cells = decomposition.walk(
        lambda value: _quote(str(value)),
        lambda ids: characters.json(ids, 3),
    )
    for spectrum, text in cells:
        yield "".join((open_, ",\n        ".join(spectrum), character, text, "\n    }"))


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


class _PerValue(dict):
    """fn of each distinct value, made on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, parts):
        self[parts] = value = self.fn(parts)
        return value


class _Characters:
    """Text and JSON of characters of size n, given as ``IdCounts`` over the
    listing's shapes, the bare components of ``dpartition_components(d, n)``
    (tuples of partitions, in the order of ``enumerate_dpartitions(d, n)``).

    ``text(ids)`` joins the character's terms, ``m*shape`` or ``shape``
    when m = 1, with " + " ("0" when there are none), and ``json(ids,
    depth)`` is ``_json_text`` of the dict of each shape's text to its
    multiplicity, at depth.  Each shape's text (``components_text``), and its
    quoted JSON key, is made once, on first use.  Each character is first
    checked, and `MalformedCharacter` is raised for a multiplicity that is not
    positive, for indices not strictly increasing and for an index out of
    range.
    """

    __slots__ = ("count", "texts", "keys")

    def __init__(self, d: int, n: int):
        shapes = tuple(dpartition_components(d, n))
        self.count = len(shapes)
        self.texts = _PerValue(lambda i: components_text(shapes[i]))
        self.keys = _PerValue(lambda i: _quote(self.texts[i]))

    def _checked(self, ids: IdCounts) -> IdCounts:
        last = -1
        for i, m in ids:
            if m <= 0:
                raise MalformedCharacter("multiplicities must be positive")
            if not 0 <= i < self.count:
                raise MalformedCharacter(
                    f"shape index {i} is not in 0..{self.count - 1}"
                )
            if i <= last:
                raise MalformedCharacter("entries must be strictly sorted")
            last = i
        return ids

    def text(self, ids: IdCounts) -> str:
        texts = self.texts
        terms = [
            texts[i] if m == 1 else f"{m}*{texts[i]}" for i, m in self._checked(ids)
        ]
        return " + ".join(terms) if terms else "0"

    def json(self, ids: IdCounts, depth: int) -> str:
        keys = self.keys
        items = [f"{keys[i]}: {m}" for i, m in self._checked(ids)]
        return _bracket("{", items, "}", depth) if items else "{}"


def _cmd_canonical_basis(args) -> int:
    charges = _charges_from_args(args)
    basis = canonical_basis(charges, args.n)
    # A listing repeats few distinct rows, so each row's text and sort key is
    # made once, and a symbol's are assembled from its rows'.
    row_text, row_key = _PerValue(partition_text), _PerValue(partition_sort_key)

    def text(sym):
        return "|".join(map(row_text.__getitem__, sym.rows))

    def key(sym):
        return tuple(map(row_key.__getitem__, sym.rows))

    def listing(name):
        """(name of symbol, [(name of term, coefficient text)]) per basis
        vector, in the order of `symbol_sort_key` and `FockVector.support`."""
        for sym in sorted(basis, key=lambda s: (s.height, key(s))):
            coeffs = basis[sym].terms
            terms = [(name(s), coeffs[s].text()) for s in sorted(coeffs, key=key)]
            yield name(sym), terms

    if args.format == "json":
        # each distinct symbol is quoted once; a basis vector is a dict at
        # depth 2 and each of its terms a dict at depth 4
        quoted = _PerValue(lambda sym: _quote(text(sym)))
        vector = '{\n      "symbol": %s,\n      "terms": [\n        %s\n      ]\n    }'
        term = '{\n          "symbol": %s,\n          "coeff": %s\n        }'
        rows = (
            vector
            % (sym, ",\n        ".join([term % (s, _quote(c)) for s, c in terms]))
            for sym, terms in listing(quoted.__getitem__)
        )
        obj = {"charges": list(charges), "max_height": args.n, "basis": rows}
        _emit_json(args, obj)
    else:
        _emit_lines(
            args,
            (
                f"{sym} : " + " + ".join(f"({c})[{s}]" for s, c in terms)
                for sym, terms in listing(text)
            ),
        )
    return 0


def _cmd_lm_cells(args) -> int:
    charges = _charges_from_args(args)
    chars = lm_constructible(charges, (args.n,))[args.n]
    ordered = sorted(chars, key=symbol_sort_key)
    characters = _Characters(len(charges), args.n)
    # each distinct character rendered once; height n always has a symbol
    if args.format == "json":
        encoded = _PerValue(lambda ids: characters.json(ids, 1))
        members = [f"{_quote(sym.text())}: {encoded[chars[sym]]}" for sym in ordered]
        with _destination(args) as handle:
            handle.write(_bracket("{", members, "}", 0) + "\n")
    else:
        text = _PerValue(characters.text)
        _emit_lines(args, (f"{sym.text()} : {text[chars[sym]]}" for sym in ordered))
    return 0


def _cmd_cm_cells_n2(args) -> int:
    params = _params_from_args(args)
    cells = sorted(cm_cells_n2(params))
    characters = _Characters(params.d, 2)
    if args.format == "json":
        obj = {
            "classes": [list(c) for c in sim_classes(params)],
            "cells": (characters.json(ids, 2) for ids in cells),
        }
        _emit_json(args, obj)
    else:
        lines = [f"classes: {sim_classes(params)}"]
        lines.extend(map(characters.text, cells))
        _emit_lines(args, lines)
    return 0


def _cmd_gaudin_verify(args) -> int:
    params = _params_from_args(args)
    d = params.d
    if d < 2:
        raise UsageError("gaudin-verify needs at least two components")
    reports, lines = [], []
    all_ok = True
    for i, j in combinations(range(1, d + 1), 2):
        try:
            report = verify_gaudin_eigensystem(d, i, j, params)
        except RegimeMismatch as exc:
            reports.append(
                {"d": d, "pair": [i, j], "regimes": [], "irreducible": str(exc)}
            )
            lines.append(f"pair {(i, j)}: {exc.reason}")
            continue
        all_ok = all_ok and report.ok
        reports.append(report.to_json_obj())
        verdicts = ", ".join(
            f"{r.name}: {'ok' if r.residuals_zero else 'FAIL'}" for r in report.regimes
        )
        lines.append(f"pair {(i, j)}: {verdicts} (ok={report.ok})")
    if args.format == "json":
        _emit_json(args, reports)
    else:
        _emit_lines(args, lines)
    return 0 if all_ok else 1


def _cmd_check(args) -> int:
    verdict = check_conjecture(_params_from_args(args), args.n)
    if args.format == "json":
        _emit_json(args, _check_document(verdict))
    else:
        with _destination(args) as handle:
            handle.writelines(_check_text(verdict))
    return 0 if verdict.equal else 1


def _check_text(verdict) -> Iterator[str]:
    """The text of ``check`` in pieces, each character rendered where it is
    listed: its shapes' texts are shared, and no line is kept.  An ``only``
    line, which may hold a whole side, is never joined: each character and
    separator is a piece."""
    text = _Characters(verdict.d, verdict.n).text
    yield f"mode: {verdict.mode}\n"
    note = f"  ({verdict.note})" if verdict.note else ""
    yield f"equal: {verdict.equal}{note}\n"
    yield "cm cells:\n"
    for ids in verdict.cm_ids:
        yield f"  {text(ids)}\n"
    yield "lm cells:\n"
    for ids in verdict.lm_ids:
        yield f"  {text(ids)}\n"
    if not verdict.equal:
        for side, only in ("cm", verdict.cm_only_ids), ("lm", verdict.lm_only_ids):
            yield f"{side} only: "
            for i, ids in enumerate(only):
                if i:
                    yield "; "
                yield text(ids)
            yield "\n"


def _check_document(verdict) -> dict:
    """The document of ``check --format json``, its character lists lazy.

    Each distinct character is encoded once per depth, on first use: at
    depth 2 for the sets and the multisets, and at depth 3 for ``diff``.
    """
    characters = _Characters(verdict.d, verdict.n)

    def encoded(depth):
        return _PerValue(lambda ids: characters.json(ids, depth))

    listed, in_diff = encoded(2), encoded(3)

    def copies(counts):
        return (text for ids, m in counts.items() for text in repeat(listed[ids], m))

    return {
        "mode": verdict.mode,
        "n": verdict.n,
        "charges": list(verdict.charges),
        "equal": verdict.equal,
        "cm_set": map(listed.__getitem__, verdict.cm_ids),
        "lm_set": map(listed.__getitem__, verdict.lm_ids),
        "diff": {
            "cm_only": map(in_diff.__getitem__, verdict.cm_only_ids),
            "lm_only": map(in_diff.__getitem__, verdict.lm_only_ids),
        },
        "cm_multiset": copies(verdict.cm_ids),
        "lm_multiset": copies(verdict.lm_ids),
        "note": verdict.note,
    }


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

    p = sub.add_parser("standard-symbols", help="standard symbols by height")
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
        if isinstance(exc, (NegativeMultiplicity, MalformedCharacter)):
            # a character that breaks its invariants is a bug, not bad input
            return _internal_error(exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "sets unequal", so a crash must not exit 1
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    traceback.print_exc()
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


def entry() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
