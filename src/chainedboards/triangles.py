"""Monotone-triangle chains: the first avatar of circular even-k chained ASMs.

Gluing matrix 2l-1 to matrix 2l, the one rule ``to_plain_asm`` also
stacks (2l-1 beside 2l turned a quarter clockwise), gives an n x 2n matrix
whose rows each sum to 1 and whose column partial sums from the top stay
in {0,1}.  Row m of the l-th triangle records, in
increasing order, the columns whose partial sum after m rows is 1: a
strict Gelfand-Tsetlin pattern of order n with entries in 1..2n.  A chain
of such triangles comes from a chained ASM exactly when additionally no
i <= n has i in the bottom row of one triangle and 2n-i+1 in the bottom
row of its cyclic predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import ChainedASM, _glue, rotate_ccw
from .boards import BoardSpec, Shape
from .errors import InputDomainError, UnsupportedDomainError, ValidationError, clip

Triangle = tuple[tuple[int, ...], ...]


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
        try:
            if len(self.triangles) != self.k // 2:
                half = clip(self.k // 2)
                raise InputDomainError(f"expected {half} triangles, got {len(self.triangles)}")
            for tri in self.triangles:
                if len(tri) != self.n or any(type(x) is not int for row in tri for x in row):
                    raise InputDomainError(f"each triangle must have {clip(self.n)} rows of integers")
            fixed = tuple(tuple(map(tuple, tri)) for tri in self.triangles)
        except TypeError:  # triangles, a triangle or a row that is not a sequence
            raise InputDomainError(
                f"expected {clip(self.k // 2)} triangles of {clip(self.n)} rows of integers,"
                f" got {clip(self.triangles)}"
            ) from None
        object.__setattr__(self, "triangles", fixed)


def to_monotone_triangles(a: ChainedASM) -> MonotoneTriangleChain:
    """Triangle l from the column partial sums of matrix 2l-1 glued to matrix 2l."""
    n = a.board.n
    if not a.board.circular or a.board.k % 2 != 0:
        raise UnsupportedDomainError("the monotone triangle map is defined only for circular boards with even k")
    triangles = []
    for l in range(0, a.board.k, 2):
        b = _glue(a.matrices[l], a.matrices[l + 1])
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
    "to_monotone_triangles",
    "from_monotone_triangles",
    "mt_chain_problems",
]
