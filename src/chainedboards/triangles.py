"""Monotone-triangle chains: the first avatar of circular even-k chained ASMs.

Pairing matrix 2l-1 with the quarter-turn-clockwise rotation of matrix 2l
gives an n x 2n matrix whose rows each sum to 1 and whose column partial
sums from the top stay in {0,1}.  Row m of the l-th triangle records, in
increasing order, the columns whose partial sum after m rows is 1: a
strict Gelfand-Tsetlin pattern of order n with entries in 1..2n.  A chain
of such triangles comes from a chained ASM exactly when additionally no
i <= n has i in the bottom row of one triangle and 2n-i+1 in the bottom
row of its cyclic predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import ChainedASM, rotate_ccw, rotate_cw
from .boards import BoardSpec, Shape
from .errors import InputDomainError, UnsupportedDomainError, ValidationError, clip
from .perms import Matrix

Triangle = tuple[tuple[int, ...], ...]


def _require_circular_even(board: BoardSpec, what: str) -> None:
    if board.shape is not Shape.CIRCULAR or board.k % 2 != 0:
        raise UnsupportedDomainError(f"{what} is defined only for circular boards with even k")


@dataclass(frozen=True)
class MonotoneTriangleChain:
    """k/2 triangular arrays; row m of each holds m increasing integers."""

    n: int
    k: int
    triangles: tuple[Triangle, ...]

    def __post_init__(self):
        # exact ints, as in BoardSpec: a chain with n = True would fail later, on its board
        if type(self.n) is not int or self.n < 1:
            raise InputDomainError(f"triangle chain side n must be an int >= 1, got {clip(self.n)}")
        if type(self.k) is not int or self.k < 2 or self.k % 2 != 0:
            raise InputDomainError(f"triangle chain needs an even int k >= 2, got {clip(self.k)}")
        if len(self.triangles) != self.k // 2:
            half = clip(self.k // 2)
            raise InputDomainError(f"expected {half} triangles, got {len(self.triangles)}")
        for tri in self.triangles:
            if len(tri) != self.n or any(type(x) is not int for row in tri for x in row):
                raise InputDomainError(f"each triangle must have {clip(self.n)} rows of integers")
        fixed = tuple(tuple(map(tuple, tri)) for tri in self.triangles)
        object.__setattr__(self, "triangles", fixed)


def pair_matrices(a: ChainedASM) -> tuple[Matrix, ...]:
    """The n x 2n matrices gluing each odd matrix to its rotated successor."""
    _require_circular_even(a.board, "the monotone triangle map")
    out = []
    for l in range(0, a.board.k, 2):
        right = rotate_cw(a.matrices[l + 1])
        out.append(tuple(tuple(a.matrices[l][i]) + tuple(right[i]) for i in range(a.board.n)))
    return tuple(out)


def to_monotone_triangles(a: ChainedASM) -> MonotoneTriangleChain:
    n = a.board.n
    triangles = []
    for b in pair_matrices(a):
        rows = []
        partial = [0] * (2 * n)
        for m in range(n):
            for j in range(2 * n):
                partial[j] += b[m][j]
            row = tuple(j + 1 for j in range(2 * n) if partial[j] == 1)
            if len(row) != m + 1:
                raise ValidationError(
                    f"row {m + 1} marks {len(row)} columns; input is not a valid chained ASM"
                )
            rows.append(row)
        triangles.append(tuple(rows))
    return MonotoneTriangleChain(n, a.board.k, tuple(triangles))


def mt_chain_problems(t: MonotoneTriangleChain) -> list[str]:
    """Strict Gelfand-Tsetlin shape per triangle plus the cyclic bottom-row
    exclusion; empty list = valid."""
    n = t.n
    problems = []
    for idx, tri in enumerate(t.triangles, start=1):
        for m, row in enumerate(tri, start=1):
            if len(row) != m:
                problems.append(f"triangle {idx} row {m} has {len(row)} entries")
                continue
            if any(not (1 <= x <= 2 * n) for x in row):
                problems.append(f"triangle {idx} row {m} has entries outside 1..{2 * n}")
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                problems.append(f"triangle {idx} row {m} is not strictly increasing")
        for m in range(n - 1):
            upper, lower = tri[m], tri[m + 1]
            if len(upper) != m + 1 or len(lower) != m + 2:
                continue
            for i, x in enumerate(upper):
                if not (lower[i] <= x <= lower[i + 1]):
                    problems.append(
                        f"triangle {idx} rows {m + 1}/{m + 2} do not interlace at position {i + 1}"
                    )
    for idx in range(len(t.triangles)):
        here = set(t.triangles[idx][n - 1])
        before = set(t.triangles[idx - 1][n - 1])
        for i in range(1, n + 1):
            if i in here and 2 * n - i + 1 in before:
                problems.append(
                    f"bottom rows of triangles {idx or len(t.triangles)} and {idx + 1}"
                    f" both claim chained index {i}"
                )
    return problems


def from_monotone_triangles(t: MonotoneTriangleChain) -> ChainedASM:
    problems = mt_chain_problems(t)
    if problems:
        raise ValidationError("invalid monotone triangle chain", problems)
    n = t.n
    matrices = []
    for tri in t.triangles:
        prev: set[int] = set()
        b_rows = []
        for row in tri:
            here = set(row)
            b_rows.append(tuple((j in here) - (j in prev) for j in range(1, 2 * n + 1)))
            prev = here
        left = tuple(row[:n] for row in b_rows)
        right = tuple(row[n:] for row in b_rows)
        matrices.append(left)
        matrices.append(rotate_ccw(right))
    return ChainedASM(BoardSpec(Shape.CIRCULAR, n, t.k), tuple(matrices))


__all__ = [
    "MonotoneTriangleChain",
    "pair_matrices",
    "to_monotone_triangles",
    "from_monotone_triangles",
    "mt_chain_problems",
]
