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
    Composition,
    Square,
    attacks,
    check_square,
    is_admissible_composition,
    self_chained,
    suffix_bound_table,
)
from .errors import InputDomainError, clip


@dataclass(frozen=True)
class RookPlacement:
    """A set of occupied squares on a chained board.

    Squares are stored sorted; construction checks coordinate ranges only,
    use :func:`placement_problems` for the non-attacking property.
    """

    board: BoardSpec
    squares: tuple[Square, ...]

    def __post_init__(self):
        squares = self.squares
        # the enumerator's squares are already a strictly increasing tuple
        # of Squares; anything else is rebuilt, sorted and de-duplicated
        if not (
            type(squares) is tuple
            and all(type(s) is Square for s in squares)
            and all(s < t for s, t in zip(squares, squares[1:]))
        ):
            squares = tuple(sorted(set(Square(*s) for s in squares)))
            object.__setattr__(self, "squares", squares)
        for s in squares:
            check_square(self.board, s)

    @property
    def m(self) -> int:
        return len(self.squares)

    def composition(self) -> Composition:
        counts = [0] * self.board.k
        for s in self.squares:
            counts[s.board - 1] += 1
        return tuple(counts)


def placement_problems(p: RookPlacement) -> list[str]:
    """``["placement has attacking rooks"]`` if a pair of rooks attacks or a
    rook self-attacks; empty = valid."""
    squares = p.squares
    for s in squares:
        if self_chained(p.board, s):
            return ["placement has attacking rooks"]
    for i, s in enumerate(squares):
        for t in squares[i + 1 :]:
            if attacks(p.board, s, t):
                return ["placement has attacking rooks"]
    return []


def canonical_placement(board: BoardSpec, comp: Composition) -> RookPlacement:
    """A non-attacking placement witnessing an admissible composition.

    Board i gets rooks at (row l, col a_{i-1} + l) for l = 1..a_i; on a
    circular board the last board's rows are shifted by a_1 so they clear
    the columns occupied on board 1 (for k = 1 the shift applies to the
    single board, whose columns start at 1).
    """
    if not is_admissible_composition(board, tuple(comp)):
        raise InputDomainError(f"composition {tuple(comp)} is not admissible on {board}")
    squares = []
    prev = 0
    for i, a in enumerate(comp, start=1):
        row_shift = comp[0] if board.circular and i == board.k else 0
        for l in range(1, a + 1):
            squares.append(Square(i, row_shift + l, prev + l))
        prev = a
    return RookPlacement(board, tuple(squares))


def enumerate_placements(board: BoardSpec, m: int) -> Iterator[RookPlacement]:
    """All valid m-rook placements, each exactly once, in lexicographic order."""
    if not (0 <= m <= board.n * board.k):
        raise InputDomainError(f"m must be in 0..n*k, got {clip(m)}")
    n, k = board.n, board.k
    circ = board.circular
    suffix_bound = suffix_bound_table(board)

    rows = [set() for _ in range(k + 1)]  # rows occupied per board, 1-based
    cols = [set() for _ in range(k + 1)]
    chosen: list[Square] = []

    def can_place(b: int, r: int, c: int) -> bool:
        if r in rows[b] or c in cols[b]:
            return False
        if b > 1 and c in rows[b - 1]:
            return False
        if circ:
            if b == 1 and c in rows[k]:  # only bites when k == 1
                return False
            if b == k and r in cols[1]:
                return False
            if k == 1 and r == c:
                return False
        return True

    def capacity(b: int, r: int) -> int:
        """Upper bound on rooks still placeable from board b, row r on."""
        cur = len(rows[b])
        room = n - r + 1
        prev_count = len(rows[b - 1]) if b > 1 else 0
        room = min(room, n - prev_count - cur)
        if circ and b == k:
            room = min(room, n - len(cols[1]) - cur)
        room = max(room, 0)
        # bounding room and the suffix independently keeps this an over-estimate
        later = suffix_bound[b + 1][cur][len(rows[1]) if circ else 0]
        return room + later

    def walk(b: int, r: int, placed: int) -> Iterator[RookPlacement]:
        if placed == m:
            yield RookPlacement(board, tuple(chosen))
            return
        if b > k or placed + capacity(b, r) < m:
            return
        # advance row by row; each row holds at most one rook
        if r > n:
            yield from walk(b + 1, 1, placed)
            return
        for c in range(1, n + 1):
            if can_place(b, r, c):
                rows[b].add(r)
                cols[b].add(c)
                chosen.append(Square(b, r, c))
                yield from walk(b, r + 1, placed + 1)
                chosen.pop()
                cols[b].discard(c)
                rows[b].discard(r)
        yield from walk(b, r + 1, placed)

    yield from walk(1, 1, 0)


def count_placements_brute(board: BoardSpec, m: int) -> int:
    """Length of the enumerate_placements stream."""
    return sum(1 for _ in enumerate_placements(board, m))


__all__ = [
    "RookPlacement",
    "placement_problems",
    "canonical_placement",
    "enumerate_placements",
    "count_placements_brute",
]
