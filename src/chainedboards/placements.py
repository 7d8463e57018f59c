"""Rook placements on chained boards: validation and brute-force enumeration.

The enumerator is an independent oracle for the counting formulas.  Boards
interact only through line sets, so it searches board by board: each board's
options are its partial permutations, row by row, and placements stream out
in lexicographic order of their sorted square lists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .boards import (
    BoardSpec,
    Square,
    _built,
    _check_size,
    _suffix_bound,
    checked_squares,
    rook_lines,
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


def _chain(k: int, first: Iterator[tuple], after) -> Iterator[list]:
    """The product of k boards' options in nested order: board 1's are
    ``first`` and, once board b takes ``option``, board b + 1's are
    ``after(b, option)``.  Each leaf is the search's own list of every
    board's option's first field, changed after the yield.  An explicit
    stack of one frame per board leaves k unbounded by the recursion limit."""
    path = [None] * k
    stack = [first]  # board b's options, b = len(stack)
    while stack:
        b = len(stack)
        for option in stack[-1]:
            path[b - 1] = option[0]
            if b == k:
                yield path
                continue
            stack.append(after(b, option))
            break
        else:
            stack.pop()


def _kept(lists: dict, key, room: list, build, *args) -> Iterator[tuple]:
    """A later board's options for ``key``: the list ``lists[key]`` once it
    is kept, else ``build(*args)`` streamed.  They are kept once they run out
    if the room ``room[0]`` that a search's keys share holds them; a key that
    outgrows it gives its room back and streams afresh on its next use."""
    got = lists.get(key)
    if got is not None:
        return iter(got)

    def stream() -> Iterator[tuple]:
        options, got = build(*args), []
        for option in options:
            yield option
            if not room[0]:
                room[0] += len(got)
                got.clear()
                yield from options
                return
            got.append(option)
            room[0] -= 1
        lists[key] = got

    return stream()


def _search(board: BoardSpec, m: int, payload) -> Iterator[list]:
    """Every valid m-rook placement, each exactly once, in lexicographic
    order of its squares: once, with every board empty, for m = 0.

    Boards interact only through line sets: board b's columns avoid the rows
    of board b - 1 and, on a circular chain, board k's rows avoid board 1's
    columns.  So a placement is one partial permutation per board, and the
    order is a product (``_chain``) of each board's options (``_options``),
    each leaf ``payload(b, cols)`` per board b.  Board 1's options stream; a
    later board's are all kept (``_kept``) by the rows of the board before
    and the counts it may hold, which ``boards._suffix_bound`` prunes; board
    1's columns filter the last board's on a circular chain.  The call
    checks ``board`` and m, before the first path."""
    _check_size(board)
    if type(m) is not int or not 0 <= m <= board.n * board.k:
        raise InputDomainError(f"m must be in 0..n*k, got {clip(m)}")
    n, k = board.n, board.k
    circ = board.circular
    lists, room = {}, [float("inf")]  # (b, rows of board b - 1, counts) -> board b's options
    done = [0] * k  # done[b]: the rooks on boards 1..b of the path
    a1 = cols1 = 0  # board 1's count and columns

    @functools.cache
    def fits(b: int, total: int, a1: int) -> int:  # the counts board b + 1 may hold
        return sum(1 << c for c in range(min(m - total, n) + 1) if total + c + _suffix_bound(n, k, circ, b + 2, c, a1) >= m)

    def after(b: int, option: tuple) -> Iterator[tuple]:
        nonlocal a1, cols1
        _, rows, cols, a = option
        if b == 1:
            a1, cols1 = a, cols
        done[b] = total = done[b - 1] + a
        counts = fits(b, total, a1 if circ else 0)
        todo = _kept(lists, (b + 1, rows, counts), room, _options, n, b + 1, rows, counts, payload)
        return (o for o in todo if not o[1] & cols1) if circ and b == k - 1 else todo

    first = sum(1 << a for a in range(min(m, n) + 1) if a + _suffix_bound(n, k, circ, 2, a, a) >= m)
    return _chain(k, _options(n, 1, 0, first, payload, circ and k == 1), after)


def _squares(b: int, cols: tuple[int, ...]) -> tuple[Square, ...]:
    """The squares of board b's rooks, one in each row r with a column cols[r - 1]."""
    return tuple([Square(b, r, c) for r, c in enumerate(cols, start=1) if c])


def enumerate_placements(board: BoardSpec, m: int) -> Iterator[RookPlacement]:
    """All valid m-rook placements, each exactly once, in lexicographic order:
    the search ``_search``, each path's squares (``_squares``) as an object.

    The search makes their squares valid, so they skip ``RookPlacement``'s
    checks.  The call checks ``board`` and m, before the first object."""
    return (_built(RookPlacement, board=board, squares=tuple(chain.from_iterable(path)))
            for path in _search(board, m, _squares))


def count_placements_brute(board: BoardSpec, m: int) -> int:
    """Length of the enumerate_placements stream, counted without building it."""
    return sum(1 for _ in _search(board, m, lambda b, cols: None))


__all__ = [
    "RookPlacement",
    "placement_problems",
    "enumerate_placements",
    "count_placements_brute",
]
