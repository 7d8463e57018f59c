"""Chained chessboards: geometry, the attack relation, and compositions.

A board is ``k`` copies of an ``n x n`` chessboard chained together so that
row ``j`` of board ``i-1`` attacks column ``j`` of board ``i``.  In the
linear configuration the chain is open (board 0 is empty); in the circular
configuration board 0 is identified with board ``k``, so the chain closes.

The whole rule is :func:`rook_lines`: a rook holds two lines, its row and
the row of the board before it that its column continues, and two rooks
attack exactly when they share a line.  Circular ``k = 1`` chains a board
to itself, so a diagonal square's two lines coincide (it self-attacks);
circular ``k = 2`` applies both chainings between the two boards.

Every placement of non-attacking rooks induces a composition
``(a_1, ..., a_k)`` of per-board rook counts; a composition arises from some
placement exactly when all adjacent sums ``a_{i-1} + a_i`` are at most ``n``.
All coordinates are 1-based.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputDomainError, UnsupportedDomainError, clip


class Shape(enum.Enum):
    LINEAR = "linear"
    CIRCULAR = "circular"


@dataclass(frozen=True)
class BoardSpec:
    """Shape plus dimensions: side length ``n``, number of boards ``k``."""

    shape: Shape
    n: int
    k: int

    def __post_init__(self):
        if not isinstance(self.shape, Shape):
            raise InputDomainError(f"shape must be a Shape, got {clip(self.shape)}")
        # exact ints: documents write n and k as their decimal text
        if type(self.n) is not int or self.n < 1:
            raise InputDomainError(f"board side n must be an int >= 1, got {clip(self.n)}")
        if type(self.k) is not int or self.k < 1:
            raise InputDomainError(f"board count k must be an int >= 1, got {clip(self.k)}")

    @property
    def circular(self) -> bool:
        return self.shape is Shape.CIRCULAR


def linear(n: int, k: int) -> BoardSpec:
    return BoardSpec(Shape.LINEAR, n, k)


def circular(n: int, k: int) -> BoardSpec:
    return BoardSpec(Shape.CIRCULAR, n, k)


class Square(NamedTuple):
    """One cell: board index, row, column, all 1-based."""

    board: int
    row: int
    col: int


def _built(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as they
    are, its ``__post_init__`` checks skipped.  Only for objects the library
    assembled valid by construction from parts it made itself; everything
    else goes through the public constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # what the frozen __setattr__ would refuse
    return obj


def _check_board(board, cls: type = BoardSpec, what: str = "board") -> None:
    """InputDomainError unless ``board`` is exactly a ``cls``: a BoardSpec,
    or the graph that a graph-taking class is built on."""
    if type(board) is not cls:
        raise InputDomainError(f"{what} must be a {cls.__name__}, got {clip(board)}")


def _check_size(board) -> None:
    """``_check_board``, then UnsupportedDomainError for a board whose n * k
    exceeds ``sys.maxsize``: no list or shift the counts and searches size
    by n or k can be made, so they refuse such a board before any work."""
    _check_board(board)
    if board.n * board.k > sys.maxsize:
        raise UnsupportedDomainError(
            f"n * k must be at most {sys.maxsize}, got n = {clip(board.n)}, k = {clip(board.k)}"
        )


def _square(board: BoardSpec, s) -> tuple[int, int, int]:
    """The items of ``s``, if they are a square of ``board``: three exact
    ints (board, row, col) with 1 <= board <= k and 1 <= row, col <= n.
    Anything else, a bool or float included, raises InputDomainError."""
    try:
        b, row, col = s
    except (TypeError, ValueError):  # not iterable, or not three items: fails below
        b = row = col = None
    if not (
        type(b) is type(row) is type(col) is int
        and 1 <= b <= board.k and 1 <= row <= board.n and 1 <= col <= board.n
    ):
        raise InputDomainError(
            f"square {clip(s)} is not three ints or is out of range"
            f" for n={clip(board.n)}, k={clip(board.k)}"
        )
    return b, row, col


def checked_squares(board: BoardSpec, given) -> tuple[Square, ...]:
    """The distinct squares of ``board`` that ``given`` lists, as a sorted tuple
    of Squares, each checked by ``_square``; a non-iterable ``given`` raises
    InputDomainError too.  Squares already strictly increasing, as the
    enumerator gives them, are not sorted again."""
    _check_board(board)
    squares = []
    ordered, last = True, ()  # each square is compared with the one before it; () comes first
    try:
        for s in given:
            triple = _square(board, s)
            ordered = ordered and last < triple
            last = triple
            squares.append(s if type(s) is Square else Square(*triple))
    except TypeError:  # given is not iterable
        raise InputDomainError(f"squares must be iterable, got {clip(given)}") from None
    return tuple(squares) if ordered else tuple(sorted(set(squares)))


Line = tuple[int, int]  # (board, row); board 0 is the empty board of a linear chain


def rook_lines(board: BoardSpec, s: tuple[int, int, int]) -> tuple[Line, Line]:
    """The two lines a rook on square ``s`` = (board, row, col) holds: row
    ``row`` of its own board, and row ``col`` of the board before it, which
    its column continues.

    Board ``b - 1`` comes before board ``b``; before board 1 comes board
    ``k`` when the chain is circular and the empty board 0 when it is
    linear.  Two rooks attack exactly when they share a line, and a rook
    whose two lines coincide (circular k = 1, on the diagonal) attacks
    itself.  The board is checked, but ``s`` is not: callers check it
    first (``_square``).
    """
    _check_board(board)
    b, row, col = s
    before = board.k if b == 1 and board.circular else b - 1
    return (b, row), (before, col)


def attacks(board: BoardSpec, s: Square, t: Square) -> bool:
    """Whether two squares attack each other on ``board``: they share a line.

    Symmetric, and attacks(board, s, s) is true.
    """
    _check_board(board)
    lines = set(rook_lines(board, _square(board, s)))
    return not lines.isdisjoint(rook_lines(board, _square(board, t)))


def max_rooks(board: BoardSpec) -> int:
    """Maximum number of non-attacking rooks the board admits."""
    _check_board(board)
    if board.circular:
        return board.n * board.k // 2
    return board.n * ((board.k + 1) // 2)


Composition = tuple[int, ...]


def suffix_bound_table(board: BoardSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``bound[b][prev][a1]``: the most rooks boards b..k can hold when board
    b-1 holds ``prev`` and, circularly, board 1 holds ``a1`` (0 for b > k).

    Only the caps a_{i-1} + a_i <= n and, on the last board of a circular
    chain, a_k + a_1 <= n are used, so for partial placements it is an upper
    bound.  Index b runs over 1..k+1; prev and a1 over 0..n.  The tables of
    the boards used last are kept, so callers read them and never write.
    """
    _check_board(board)  # before the cache, which cannot hash every non-board
    return _suffix_bound(board)


@functools.lru_cache(maxsize=32)  # bounded: a table holds (k + 2)(n + 1)^2 ints
def _suffix_bound(board: BoardSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # bound[b][prev][a1] is the most of a + bound[b + 1][a][a1] over a <= hi.
    # That term does not fall as a grows: bound[b + 1] drops by at most one
    # per step of prev, as one more rook before board b + 1 costs it at most
    # one (by induction from b = k + 1).  So the max is at a = hi, and each
    # entry is O(1).
    n, k = board.n, board.k
    bound = [((0,) * (n + 1),) * (n + 1)] * (k + 2)  # b = 0 is never read; b = k + 1 has no board
    for b in range(k, 0, -1):
        after = bound[b + 1]
        closing = board.circular and b == k
        bound[b] = tuple(
            tuple(hi + after[hi][a1] for a1 in range(n + 1) for hi in [min(n - prev, n - a1) if closing else n - prev])
            for prev in range(n + 1)
        )
    return tuple(bound)
