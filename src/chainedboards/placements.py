"""Rook placements on chained boards: validation and brute-force enumeration.

The enumerator is an independent oracle for the counting formulas: it walks
cells in (board, row, col) order and backtracks, so placements stream out in
lexicographic order of their sorted square lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boards import (
    BoardSpec,
    Square,
    _built,
    _check_board,
    checked_squares,
    rook_lines,
    suffix_bound_table,
)
from .errors import InputDomainError, clip


@dataclass(frozen=True)
class RookPlacement:
    """A set of occupied squares on a chained board.

    Squares are kept as ``boards.checked_squares`` gives them (sorted, distinct,
    exact ints in range); :func:`placement_problems` checks they do not attack.
    """

    board: BoardSpec
    squares: tuple[Square, ...]

    def __post_init__(self):
        object.__setattr__(self, "squares", checked_squares(self.board, self.squares))

    @property
    def m(self) -> int:
        return len(self.squares)


def placement_problems(p: RookPlacement) -> list[str]:
    """``["placement has attacking rooks"]`` if two rooks share a line (or
    one rook's two lines coincide); empty = valid."""
    lines = [line for s in p.squares for line in rook_lines(p.board, s)]
    return [] if len(set(lines)) == len(lines) else ["placement has attacking rooks"]


def _search(board: BoardSpec, m: int) -> Iterator[list[Square]]:
    """The squares of every valid m-rook placement, each exactly once, in
    lexicographic order: once, empty, for m = 0.

    Each leaf is the search's own list of squares of ``board.squares()``,
    in increasing order and without two attacking rooks; the search changes
    it after the yield, so a caller copies what it keeps."""
    _check_board(board)
    if type(m) is not int or not 0 <= m <= board.n * board.k:
        raise InputDomainError(f"m must be in 0..n*k, got {clip(m)}")
    n, k = board.n, board.k
    circ = board.circular
    suffix_bound = suffix_bound_table(board)

    # each row's squares with their two lines, worked out once; a square
    # whose two lines coincide attacks itself and is left out
    cells: dict[tuple[int, int], list] = {}
    for s in board.squares():
        row_line, col_line = rook_lines(board, s)
        if row_line != col_line:
            cells.setdefault((s.board, s.row), []).append((s, row_line, col_line))
    held: set = set()  # the lines of the rooks placed so far
    counts = [0] * (k + 1)  # rooks per board, 1-based; board 0 stays empty
    chosen: list[Square] = []
    taken: list[tuple] = []  # the cells of the rooks in chosen
    # every row in order with its squares; row n + 1 of each board has none,
    # so capacity is checked on either side of a board's end
    rows = [(b, r, cells.get((b, r), ())) for b in range(1, k + 1) for r in range(1, n + 2)]

    def capacity(idx: int) -> int:
        """Upper bound on rooks still placeable from row ``idx`` on."""
        b, r, _ = rows[idx]
        cur = counts[b]
        room = min(n - r + 1, n - counts[b - 1] - cur)
        if circ and b == k:
            room = min(room, n - counts[1] - cur)
        room = max(room, 0)
        # bounding room and the suffix independently keeps this an over-estimate
        later = suffix_bound[b + 1][cur][counts[1] if circ else 0]
        return room + later

    if m == 0:
        yield chosen
    # frames [row index, rooks before it, iterator of the row's next options]:
    # a row's options are its squares in column order, then leaving it empty
    stack = [[0, 0, iter(rows[0][2])]] if 0 < m <= capacity(0) else []
    while stack:
        idx, placed, todo = stack[-1]
        if len(chosen) > placed:  # take back the rook of the option tried last
            _, row_line, col_line = taken.pop()
            counts[chosen.pop().board] -= 1
            held.discard(col_line)
            held.discard(row_line)
        for cell in todo:
            s, row_line, col_line = cell
            if row_line in held or col_line in held:
                continue
            held.add(row_line)
            held.add(col_line)
            counts[s.board] += 1
            chosen.append(s)
            taken.append(cell)
            if placed + 1 == m:
                yield chosen
            elif placed + 1 + capacity(idx + 1) >= m:
                stack.append([idx + 1, placed + 1, iter(rows[idx + 1][2])])
            break
        else:  # the row is left empty: the frame moves on to the next row
            if idx + 1 < len(rows) and placed + capacity(idx + 1) >= m:
                stack[-1] = [idx + 1, placed, iter(rows[idx + 1][2])]
            else:
                stack.pop()


def enumerate_placements(board: BoardSpec, m: int) -> Iterator[RookPlacement]:
    """All valid m-rook placements, each exactly once, in lexicographic order.

    The search makes their squares valid, so they skip ``RookPlacement``'s checks."""
    for chosen in _search(board, m):
        yield _built(RookPlacement, board=board, squares=tuple(chosen))


def count_placements_brute(board: BoardSpec, m: int) -> int:
    """Length of the enumerate_placements stream, counted without building it."""
    return sum(1 for _ in _search(board, m))


__all__ = [
    "RookPlacement",
    "placement_problems",
    "enumerate_placements",
    "count_placements_brute",
]
