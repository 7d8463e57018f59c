"""Chained permutations: matrix form and one-line notation.

A chained permutation is the matrix form of a maximum rook placement: a
k-tuple of n x n 0/1 matrices where every row and column holds at most one
1, a 1 in row i of matrix l-1 excludes 1s from column i of matrix l (matrix
0 is the zero matrix for linear chains and matrix k for circular ones), and
the total number of 1s is the board's maximum rook count.  These are the
chained ASM conditions restricted to 0/1 entries, so
``asm.chained_asm_problems`` is their check.

Matrices are tuples of row tuples.  The library's chained permutations
share their rows from one table per n: the zero row and the n unit rows.
Their search (``_matrix_paths``) takes each board's matrix as the placement
search's option for that board carries it, built once per option by the
caller's builder: a tuple of rows for ``enumerate_chained_permutations``,
which makes objects of them, and a text for ``chained-boards enumerate``,
which joins them into documents.  ``_with_ones``
builds the others, with a 1 on each of a set of squares checked before it
sees them, by the check of the placement, matching or one-line notation
they come from (the squares (l, i, v) of a block's nonzero entries).  Both
build their objects without the constructor's walk (``boards._built``);
the constructor walks every entry it is given, and keeps tuple input as
is.

One-line notation records, per row of each matrix, the column of its 1 (0
for an empty row).  Blocks are joined by dashes and written with a trailing
dash in the circular case, e.g. ``12-00-``; for n >= 10 the entries within
a block are comma-separated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .boards import BoardSpec, Shape, Square, _built, _check_board, _check_entries, max_rooks
from .errors import InputDomainError, ParseError, ValidationError, clip
from .placements import RookPlacement, _search, placement_problems

Matrix = tuple[tuple[int, ...], ...]


def _ascii_int(text: str) -> int:
    """int() of a string of ASCII digits only: no sign, space, underscore
    or other script's digits, all of which int() accepts."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"expected ASCII digits, got {clip(repr(text))}")


def _check_matrix_tuple(board: BoardSpec, matrices, allowed: set[int], what: str) -> Matrix:
    """One walk over every entry; ``matrices`` itself if it is tuples throughout."""
    _check_board(board)
    try:
        if len(matrices) != board.k:
            raise InputDomainError(f"expected {clip(board.k)} matrices, got {len(matrices)}")
        tuples = type(matrices) is tuple
        for mat in matrices:
            if len(mat) != board.n or any(len(row) != board.n for row in mat):
                raise InputDomainError(f"each matrix must be {clip(board.n)}x{clip(board.n)}")
            tuples = tuples and type(mat) is tuple
            for row in mat:
                tuples = tuples and type(row) is tuple
                for x in row:
                    # bool is an int subclass (True == 1) and 1.0 == 1: both must fail
                    if type(x) is not int or x not in allowed:
                        raise InputDomainError(
                            f"{what} entries must be in {sorted(allowed)}, got {clip(x)}"
                        )
    except TypeError:  # matrices, a matrix or a row that is not a sequence
        n = clip(board.n)
        raise InputDomainError(f"expected {clip(board.k)} matrices of {n}x{n}, got {clip(matrices)}") from None
    return matrices if tuples else tuple(tuple(map(tuple, mat)) for mat in matrices)


@dataclass(frozen=True)
class ChainedPermutation:
    board: BoardSpec
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "matrices",
            _check_matrix_tuple(self.board, self.matrices, {0, 1}, "permutation"),
        )


def _previous_matrix(board: BoardSpec, matrices, l: int):
    """Matrix (or one-line block) l-1, for 1-based l; None stands for the
    zero matrix before the first one of a linear chain."""
    if l > 1:
        return matrices[l - 2]
    return matrices[board.k - 1] if board.shape is Shape.CIRCULAR else None


@functools.lru_cache(maxsize=16)  # bounded: a table holds n^2 entries
def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The zero row of length n, then the n unit rows: row c holds its 1 at column c."""
    zero = (0,) * n
    return (zero, *(zero[: c - 1] + (1,) + zero[c:] for c in range(1, n + 1)))


def placement_to_matrices(p: RookPlacement) -> ChainedPermutation:
    """Matrix form of a maximum placement: a 1 per rook."""
    want = max_rooks(p.board)
    if p.m != want:
        raise ValidationError(
            f"placement has {p.m} rooks; a chained permutation needs the maximum {want}"
        )
    if placement_problems(p):
        raise ValidationError("placement has attacking rooks")
    return _with_ones(p.board, p.squares)


def _with_ones(board: BoardSpec, squares) -> ChainedPermutation:
    """The 0/1 matrices with a 1 on each of the checked ``squares`` (l, i, j), rows shared."""
    n, k = board.n, board.k
    rows = _unit_rows(n)
    grid = [rows[0]] * (n * k)  # the chain's rows in order, all shared
    for b, row, col in squares:
        grid[(b - 1) * n + row - 1] = rows[col]
    flat = tuple(grid)
    return _built(ChainedPermutation, board=board, matrices=tuple(flat[j : j + n] for j in range(0, n * k, n)))


def _matrix_paths(board: BoardSpec, matrix) -> Iterator[list]:
    """The matrices of every chained permutation of ``board``, each exactly
    once, in the lexicographic order of its maximum placement, each as
    ``matrix`` builds it from an iterator over its shared rows: the k
    matrices of the placement search's per-board options, each path the
    search's own list, changed after the yield.  The call checks ``board``,
    n * n * k included, before the first path."""
    _check_entries(board)  # before the n + 1 unit rows of n entries each
    rows = _unit_rows(board.n)
    return _search(board, max_rooks(board), lambda b, cols: matrix(map(rows.__getitem__, cols)))


def enumerate_chained_permutations(board: BoardSpec) -> Iterator[ChainedPermutation]:
    """Every chained permutation of ``board``, each exactly once, in the
    lexicographic order of its maximum placement: the search
    ``_matrix_paths``, each path as an object, with no ``RookPlacement``
    made between.  The call checks ``board``, before the first object."""
    return (_built(ChainedPermutation, board=board, matrices=tuple(path)) for path in _matrix_paths(board, tuple))


def _ones(cp: ChainedPermutation) -> Iterator[Square]:
    """The squares (l, i, j) of ``cp``'s ones, in increasing order."""
    return (Square(l, i, j) for l, mat in enumerate(cp.matrices, start=1)
            for i, row in enumerate(mat, start=1) for j, x in enumerate(row, start=1) if x)


def matrices_to_placement(cp: ChainedPermutation) -> RookPlacement:
    return RookPlacement(cp.board, tuple(_ones(cp)))


@dataclass(frozen=True)
class OneLine:
    """Per-row column indices of a chained permutation, 0 for empty rows."""

    board: BoardSpec
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_board(self.board)
        k, n = self.board.k, self.board.n
        try:
            if len(self.blocks) != k:
                raise InputDomainError(f"expected {clip(k)} blocks, got {len(self.blocks)}")
            for block in self.blocks:
                if len(block) != n or any(type(x) is not int for x in block):
                    raise InputDomainError(f"each block must have {clip(n)} integer entries")
        except TypeError:  # blocks, or a block, that is not a sequence
            raise InputDomainError(
                f"expected {clip(k)} blocks of {clip(n)} integers, got {clip(self.blocks)}"
            ) from None
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))


def one_line_problems(o: OneLine) -> list[str]:
    """Check the four one-line conditions literally; empty list = valid."""
    n, k = o.board.n, o.board.k
    problems = []
    for l, block in enumerate(o.blocks, start=1):
        for i, v in enumerate(block, start=1):
            if not (0 <= v <= n):
                problems.append(
                    f"condition (1): entry {clip(v)} at block {l} position {i} not in 0..{n}"
                )
        nonzero = [v for v in block if v != 0]
        if len(nonzero) != len(set(nonzero)):
            problems.append(f"condition (2): repeated nonzero value in block {l}")
    total = sum(1 for block in o.blocks for v in block if v)
    want = max_rooks(o.board)
    if total != want:
        problems.append(f"condition (3): {total} nonzero entries, expected {want}")
    for l in range(1, k + 1):
        prev = _previous_matrix(o.board, o.blocks, l)
        if prev is None:
            continue
        banned = {i + 1 for i, v in enumerate(prev) if v != 0}
        for v in o.blocks[l - 1]:
            if v in banned:
                problems.append(
                    f"condition (4): block {l} uses value {v} but the previous block's row {v} is occupied"
                )
    return problems


def to_one_line(cp: ChainedPermutation) -> OneLine:
    blocks = []
    for mat in cp.matrices:
        block = []
        for row in mat:
            block.append(row.index(1) + 1 if 1 in row else 0)
        blocks.append(tuple(block))
    return OneLine(cp.board, tuple(blocks))


def from_one_line(o: OneLine) -> ChainedPermutation:
    problems = one_line_problems(o)
    if problems:
        raise ValidationError("invalid one-line notation", problems)
    return _with_ones(o.board, ((l, i, v) for l, block in enumerate(o.blocks, start=1)
                                for i, v in enumerate(block, start=1) if v))


def one_line_text(o: OneLine) -> str:
    """Wire format: dash-joined blocks, trailing dash when circular."""
    if o.board.n < 10:
        parts = ["".join(str(v) for v in block) for block in o.blocks]
    else:
        parts = [",".join(str(v) for v in block) for block in o.blocks]
    text = "-".join(parts)
    if o.board.shape is Shape.CIRCULAR:
        text += "-"
    return text


def parse_one_line(text: str) -> OneLine:
    """Parse the wire format back; shape, n, and k are inferred."""
    s = text.strip()
    if not s:
        raise ParseError("empty one-line string")
    circular = s.endswith("-")
    if circular:
        s = s[:-1]
    pieces = s.split("-")
    if any(not piece for piece in pieces):
        raise ParseError(f"empty block in one-line string {clip(repr(text))}")
    blocks = []
    for piece in pieces:
        entries = piece.split(",") if "," in piece else piece  # a digit per entry when n < 10
        try:
            blocks.append(tuple(_ascii_int(x) for x in entries))
        except ValueError as exc:
            raise ParseError(f"bad block {clip(repr(piece))}: {exc}") from None
    n = len(blocks[0])
    if any(len(b) != n for b in blocks):
        raise ParseError("blocks have unequal lengths")
    board = BoardSpec(Shape.CIRCULAR if circular else Shape.LINEAR, n, len(blocks))
    return OneLine(board, tuple(blocks))


__all__ = [
    "ChainedPermutation",
    "OneLine",
    "placement_to_matrices",
    "enumerate_chained_permutations",
    "matrices_to_placement",
    "to_one_line",
    "from_one_line",
    "one_line_problems",
    "one_line_text",
    "parse_one_line",
]
