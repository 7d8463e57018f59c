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
    check_square,
    is_admissible_composition,
    rook_lines,
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
    """``["placement has attacking rooks"]`` if two rooks share a line (or
    one rook's two lines coincide); empty = valid."""
    held = set()
    for s in p.squares:
        for line in rook_lines(p.board, s):
            if line in held:
                return ["placement has attacking rooks"]
            held.add(line)
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

    def capacity(b: int, r: int) -> int:
        """Upper bound on rooks still placeable from board b, row r on."""
        cur = counts[b]
        room = min(n - r + 1, n - counts[b - 1] - cur)
        if circ and b == k:
            room = min(room, n - counts[1] - cur)
        room = max(room, 0)
        # bounding room and the suffix independently keeps this an over-estimate
        later = suffix_bound[b + 1][cur][counts[1] if circ else 0]
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
        for s, row_line, col_line in cells.get((b, r), ()):
            if row_line in held or col_line in held:
                continue
            held.add(row_line)
            held.add(col_line)
            counts[b] += 1
            chosen.append(s)
            yield from walk(b, r + 1, placed + 1)
            chosen.pop()
            counts[b] -= 1
            held.discard(col_line)
            held.discard(row_line)
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
