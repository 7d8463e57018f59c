"""Command-line interface.

Subcommands: count, enumerate, convert, validate, render, verify-tables.
Exit codes: 0 success / all checks pass / stdout closed by its reader, 1
validation failure, count mismatch or out of memory, 2 usage error
(including operations undefined for the input's domain). Diagnostics go to
stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import io
import itertools
import os
import sys
from collections import deque
from collections.abc import Iterable
from contextlib import nullcontext, suppress

from .asm import _matrix_paths as _asm_paths
from .boards import BoardSpec, Shape, max_rooks
from .counting import count_max, count_placements_formula
from .errors import ChainedBoardsError, ParseError, UnsupportedDomainError, ValidationError, clip
from .perms import _matrix_paths as _permutation_paths
from .placements import _search, count_placements_brute
from .rendering import render
from .serialization import _BY_NAME, FAMILIES, _documents, _matrix_json, _squares_json, deserialize, family_of, serialize
from .verify import verify_tables


@functools.cache  # one path per pair of the nine aliases
def _conversion_path(src: str, dst: str) -> tuple:
    """Shortest chain of the registry's direct conversions from alias src to alias dst."""
    if src == dst:
        raise UnsupportedDomainError(f"no conversion from {src} to itself")
    to = {f.alias: f.to for f in FAMILIES}
    queue = deque([(src, [])])
    seen = {src}
    while queue:
        here, steps = queue.popleft()
        if here == dst:
            return tuple(steps)
        for b, fn in to[here].items():
            if b not in seen:
                seen.add(b)
                queue.append((b, steps + [fn]))
    raise UnsupportedDomainError(f"no conversion from {src} to {dst}")


_SHOWN_PROBLEMS = 20


def _print_problems(problems: list[str]) -> None:
    """The first 20 problems to stderr, then a count of the rest."""
    for problem in problems[:_SHOWN_PROBLEMS]:
        print(problem, file=sys.stderr)
    if len(problems) > _SHOWN_PROBLEMS:
        print(f"… and {len(problems) - _SHOWN_PROBLEMS} more problems", file=sys.stderr)


def _board_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", required=True, choices=["linear", "circular"])
    parser.add_argument("-n", required=True, type=int, help="board side length")
    parser.add_argument("-k", required=True, type=int, help="number of chained boards")


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str, more: Iterable[str] = ()) -> None:
    """Write ``text``, then each string of ``more``, to stdout or to ``path``."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.writelines(more)


# documents per write, each a call into the stream; 512 of perms linear(5,2) hold 130 KB
_BLOCK = 512


def _cmd_count(args) -> int:
    board = BoardSpec(Shape(args.shape), args.n, args.k)
    top = max_rooks(board)
    m = top if args.m is None else args.m
    if args.method == "closed":
        if m != top:
            raise UnsupportedDomainError(
                f"--method closed counts maximum placements only (m = {clip(top)})"
            )
        value = count_max(board)
    elif args.method == "brute":
        value = count_placements_brute(board, m)
    else:
        value = count_placements_formula(board, m)
    print(decimal.Decimal(value))  # str(int) refuses more than sys.get_int_max_str_digits() digits
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UnsupportedDomainError(f"--limit must be >= 0, got {clip(args.limit)}")
    if args.m is not None and args.family != "placements":
        raise UnsupportedDomainError("-m applies to --family placements only")
    board = BoardSpec(Shape(args.shape), args.n, args.k)
    # each search's own paths of texts, joined as they are: the public enumerators make an object of each
    if args.family == "placements":
        m = max_rooks(board) if args.m is None else args.m
        family, paths = "placement", _search(board, m, _squares_json)
    elif args.family == "perms":
        family, paths = "chained-permutation", _permutation_paths(board, _matrix_json)
    else:
        family, paths = "chained-asm", _asm_paths(board, _matrix_json)
    # islice refuses a stop above sys.maxsize; no stream is that long, so such a limit never binds
    limit = None if args.limit is None else min(args.limit, sys.maxsize)
    docs = _documents(_BY_NAME[family], board, itertools.islice(paths, limit))
    blocks = iter(lambda: "".join(itertools.islice(docs, _BLOCK)), "")
    # the first block is ready before --out is opened, so a search that fails
    # before its first document leaves no file behind
    _write_output(args.out, next(blocks, ""), blocks)
    return 0


def _cmd_convert(args) -> int:
    if args.source is not None:  # only a check, and made before input is read
        _conversion_path(args.source, args.target)
    obj = deserialize(_read_input(args.infile))
    family = family_of(obj).alias
    if args.source not in (None, family):
        raise ValidationError(f"input document is a {family}, not a {args.source}")
    for step in _conversion_path(family, args.target):
        obj = step(obj)
    _write_output(args.out, serialize(obj))
    return 0


def _cmd_validate(args) -> int:
    try:
        obj = deserialize(_read_input(args.infile))
    except (ParseError, ValidationError) as exc:
        _print_problems(exc.problems if isinstance(exc, ValidationError) else [f"error: {exc}"])
        print("invalid")
        return 1
    family = family_of(obj)
    if args.family is not None and args.family not in (family.name, family.alias):
        print(f"document is a {family.name}, not a {args.family}", file=sys.stderr)
        print("invalid")
        return 1
    print(f"valid {family.name}")
    return 0


def _cmd_render(args) -> int:
    obj = deserialize(_read_input(args.infile))
    _write_output(args.out, render(obj, args.format))
    return 0


def _cmd_verify_tables(args) -> int:
    if not args.budget_seconds >= 0:  # also false for NaN
        raise UnsupportedDomainError(f"--budget-seconds must be >= 0, got {args.budget_seconds}")
    report = verify_tables(
        max_n=args.max_n, max_k=args.max_k, budget_seconds=args.budget_seconds
    )
    _write_output(args.out, report.to_tsv())
    for record in report.skipped:
        print(f"skipped {record.family} {record.shape} n={record.n} k={record.k}", file=sys.stderr)
    if report.failures:
        for record in report.failures:
            print(
                f"FAIL {record.family} {record.shape} n={record.n} k={record.k}:"
                f" expected {record.expected}, got {record.actual}",
                file=sys.stderr,
            )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chained-boards",
        description="Count, enumerate, convert, and verify rook placements,"
        " chained permutations, and chained alternating sign matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count non-attacking rook placements")
    _board_args(p)
    p.add_argument("-m", type=int, default=None, help="rooks to place (default: maximum)")
    p.add_argument("--method", choices=["formula", "closed", "brute"], default="formula")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream objects as canonical documents")
    p.add_argument("--family", required=True, choices=["placements", "perms", "asm"])
    _board_args(p)
    p.add_argument("-m", type=int, default=None, help="rooks (placements only)")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enumerate)

    families = [f.alias for f in FAMILIES]
    p = sub.add_parser("convert", help="convert between object families")
    p.add_argument("--from", dest="source", choices=families, help="default: the document's family")
    p.add_argument("--to", dest="target", required=True, choices=families)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate", help="validate a document")
    p.add_argument("--family", choices=sorted({x for f in FAMILIES for x in (f.name, f.alias)}))
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", help="render a document as text")
    p.add_argument("--format", required=True, choices=["ascii", "dot"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify-tables", help="check the paper's table and the closed forms")
    bound = "largest %s of the paper-table cells to check (the rook-placement rows always run)"
    p.add_argument("--max-n", type=int, default=None, help=bound % "n")
    p.add_argument("--max-k", type=int, default=None, help=bound % "k")
    p.add_argument("--budget-seconds", type=float, default=30.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_tables)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not when the interpreter exits
        return code
    except BrokenPipeError:  # the reader stopped reading, as `| head` does
        # what is still buffered would fail again when stdout is flushed at exit
        with open(os.devnull, "w") as devnull, suppress(io.UnsupportedOperation):
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # an in-memory stdout has none
        return 0
    except UnsupportedDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainedBoardsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_problems([p for p in getattr(exc, "problems", ()) if p != str(exc)])
        return 1
    except MemoryError:  # e.g. the placement search's column of each row's rook, on -n 10**13
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
