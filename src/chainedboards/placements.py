"""Rook placements on chained boards: validation and brute-force enumeration.

The enumerator is an independent oracle for the counting formulas.  Boards
interact only through line sets, so it searches board by board: each board's
options are its partial permutations, row by row, and placements stream out
in lexicographic order of their sorted square lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .boards import (
    BoardSpec,
    Square,
    _built,
    _check_size,
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


def _options(n: int, b: int, banned: int, counts: int, payload, self_chained: bool = False) -> Iterator[tuple]:
    """The partial permutations of board ``b`` whose columns avoid the bits
    of ``banned`` (bit c is column c) and whose rook count c is a bit of
    ``counts``, in search order: row r's squares by column, then row r left
    empty, for r = 1..n.  With ``self_chained`` (circular k = 1) the
    board's columns also avoid its own rows.

    Each is ``(payload(b, cols), rows, columns, count)``, with ``cols`` the
    column of each row's rook (0 for none) and rows and columns as bit sets.
    An explicit stack holds one frame per row that holds a rook, so n is not
    bounded by Python's recursion limit."""
    # columns open at the start; a rook closes its own and, self-chained, its row's too
    per = 2 if self_chained else 1
    lines = n - banned.bit_count()
    cols = [0] * n
    rows = used = count = 0

    def fits(r: int, c: int) -> bool:  # c rooks before row r can still reach a count of counts
        room = min(n - r + 1, (lines - per * c) // per)
        return room >= 0 and counts >> c & (2 << room) - 1 != 0

    def frame(r: int) -> list:  # row r and the columns its rook may take
        if not fits(r + 1, count + 1) or self_chained and used >> r & 1:
            return [r, iter(())]
        closed = banned | used | (rows | 1 << r if self_chained else 0)
        return [r, iter([c for c in range(1, n + 1) if not closed >> c & 1])]

    stack = [frame(1)] if fits(1, 0) else []
    while stack:
        top = stack[-1]
        r, todo = top
        c = cols[r - 1]
        if c:  # take back the rook of the column tried last
            cols[r - 1] = 0
            rows ^= 1 << r
            used ^= 1 << c
            count -= 1
        for c in todo:
            cols[r - 1] = c
            rows |= 1 << r
            used |= 1 << c
            count += 1
            if r == n:
                yield payload(b, tuple(cols)), rows, used, count
            else:
                stack.append(frame(r + 1))
            break
        else:  # row r is left empty
            if not fits(r + 1, count):
                stack.pop()
            elif r == n:
                yield payload(b, tuple(cols)), rows, used, count
                stack.pop()
            else:
                top[:] = frame(r + 1)


def _search(board: BoardSpec, m: int, payload) -> Iterator[list]:
    """Every valid m-rook placement, each exactly once, in lexicographic
    order of its squares: once, with every board empty, for m = 0.

    Boards interact only through line sets: board b's columns avoid the rows
    of board b - 1 and, on a circular chain, board k's rows avoid board 1's
    columns.  So a placement is one partial permutation per board, and the
    order is a nested product of each board's options (``_options``).
    Board 1's options are streamed.  A later board's are streamed on first
    use and kept once they run out (``_recorded``), by the rows of the board
    before it and the rook counts it may hold; board 1's columns filter the
    last board's on a circular chain.  ``suffix_bound_table`` prunes the
    counts each board may hold before its options are built.

    Each leaf is the search's own list of every board b's ``payload(b,
    cols)``; the search changes it after the yield, so a caller copies what
    it keeps.  An explicit stack holds one frame per board, so k is not
    bounded by Python's recursion limit."""
    _check_size(board)
    if type(m) is not int or not 0 <= m <= board.n * board.k:
        raise InputDomainError(f"m must be in 0..n*k, got {clip(m)}")
    n, k = board.n, board.k
    circ = board.circular
    if k == 1:
        for part, *_ in _options(n, 1, 0, 1 << m, payload, circ):
            yield [part]
        return
    bound = suffix_bound_table(board)
    first = sum(1 << a for a in range(min(m, n) + 1) if a + bound[2][a][a if circ else 0] >= m)
    middle: dict[tuple, list] = {}  # (b, rows of board b - 1, counts) -> board b's options
    last: dict[tuple, list] = {}  # (rows of board k - 1, count) -> board k's options
    path = [None] * k
    done = [0] * k  # done[b]: the rooks on boards 1..b of the path
    a1 = cols1 = 0  # board 1's count and columns
    stack = [_options(n, 1, 0, first, payload)]  # board b's options, b = len(stack)
    while stack:
        b = len(stack)
        for part, rows, cols, a in stack[-1]:
            path[b - 1] = part
            if b == 1:
                a1, cols1 = a, cols
            total = done[b - 1] + a
            if b == k - 1:
                key = rows, m - total
                todo = last.get(key)
                if todo is None:
                    todo = _recorded(last, key, _options(n, k, rows, 1 << m - total, payload))
                for part_k, rows_k, _, _ in todo:
                    if not (circ and rows_k & cols1):
                        path[k - 1] = part_k
                        yield path
                continue
            done[b] = total
            counts = sum(1 << c for c in range(min(m - total, n) + 1)
                         if total + c + bound[b + 2][c][a1 if circ else 0] >= m)
            key = b + 1, rows, counts
            todo = middle.get(key)
            if todo is None:
                todo = _recorded(middle, key, _options(n, b + 1, rows, counts, payload))
            stack.append(iter(todo))
            break
        else:
            stack.pop()


def _recorded(lists: dict, key, options: Iterator[tuple]) -> Iterator[tuple]:
    """``options``, kept as ``lists[key]`` once they run out, so a search
    that stops early builds only the options it reads.  A key may come round
    again before they run out, as each chained-ASM matrix starts from one
    state; a second stream of it is correct and records an equal list."""
    got = []
    for option in options:
        got.append(option)
        yield option
    lists[key] = got


def _squares(b: int, cols: tuple[int, ...]) -> tuple[Square, ...]:
    """The squares of board b's rooks, one in each row r with a column cols[r - 1]."""
    return tuple([Square(b, r, c) for r, c in enumerate(cols, start=1) if c])


def enumerate_placements(board: BoardSpec, m: int) -> Iterator[RookPlacement]:
    """All valid m-rook placements, each exactly once, in lexicographic order.

    The search makes their squares valid, so they skip ``RookPlacement``'s checks."""
    for path in _search(board, m, _squares):
        yield _built(RookPlacement, board=board, squares=tuple(chain.from_iterable(path)))


def count_placements_brute(board: BoardSpec, m: int) -> int:
    """Length of the enumerate_placements stream, counted without building it."""
    return sum(1 for _ in _search(board, m, lambda b, cols: None))


__all__ = [
    "RookPlacement",
    "placement_problems",
    "enumerate_placements",
    "count_placements_brute",
]
