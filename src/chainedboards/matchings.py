"""The matching form of chained permutations.

The chain graph has rows 0..k of n labelled vertices with a complete
bipartite K_{n,n} between consecutive rows; circular graphs identify rows 0
and k.  Edges keep the identity (l, i, j): the K_{n,n} between rows l-1
and l, joining the i-th vertex of row l to the j-th vertex of row l-1.  The
circular identification never merges edges: k = 2 keeps parallel edges
and k = 1 keeps loops (which no matching may use).

A 1 at (i, j) of matrix l corresponds to the edge (l, i, j); matchings of
the right size are exactly the chained permutations.  The vertices are the
rooks' lines: the edge (l, i, j) joins the two lines a rook on square
(l, i, j) holds (``boards.rook_lines``), so two rooks attack exactly when
their edges share a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boards import BoardSpec, _check_board, _square, checked_squares, max_rooks, rook_lines
from .errors import ValidationError, clip
from .perms import ChainedPermutation, _ones, _with_ones

Vertex = tuple[int, int]  # (row, index); circular rows run 1..k, linear 0..k
EdgeId = tuple[int, int, int]  # (l, i, j)


@dataclass(frozen=True)
class ChainGraph:
    board: BoardSpec

    def __post_init__(self):
        _check_board(self.board)

    @property
    def vertex_rows(self) -> range:
        return range(1, self.board.k + 1) if self.board.circular else range(self.board.k + 1)

    def vertices(self) -> Iterator[Vertex]:
        for row in self.vertex_rows:
            for i in range(1, self.board.n + 1):
                yield (row, i)

    def edges(self) -> Iterator[EdgeId]:
        for l in range(1, self.board.k + 1):
            for i in range(1, self.board.n + 1):
                for j in range(1, self.board.n + 1):
                    yield (l, i, j)

    def endpoints(self, edge: EdgeId) -> tuple[Vertex, Vertex]:
        # the edge (l, i, j) is the square (l, i, j), checked by the same rule
        return rook_lines(self.board, _square(self.board, edge))


@dataclass(frozen=True)
class ChainMatching:
    """Chain-graph edges (l, i, j), kept as ``boards.checked_squares`` gives squares (l, i, j)."""

    graph: ChainGraph
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        _check_board(self.graph, ChainGraph, "graph")
        object.__setattr__(self, "edges", checked_squares(self.graph.board, self.edges))


def matching_problems(m: ChainMatching) -> list[str]:
    problems = []
    seen: set[Vertex] = set()
    for e in m.edges:
        ends = m.graph.endpoints(e)
        if ends[0] == ends[1]:
            problems.append(f"edge {clip(tuple(e))} is a loop")
            continue
        for v in ends:
            if v in seen:
                problems.append(f"vertex {clip(v)} is covered twice")
            seen.add(v)
    want = max_rooks(m.graph.board)  # one edge per rook
    if len(m.edges) != want:
        problems.append(f"matching has {len(m.edges)} edges, expected {clip(want)}")
    return problems


def to_matching(cp: ChainedPermutation) -> ChainMatching:
    return ChainMatching(ChainGraph(cp.board), tuple(_ones(cp)))


def from_matching(m: ChainMatching) -> ChainedPermutation:
    problems = matching_problems(m)
    if problems:
        raise ValidationError("invalid chain matching", problems)
    return _with_ones(m.graph.board, m.edges)


__all__ = [
    "ChainGraph",
    "ChainMatching",
    "matching_problems",
    "to_matching",
    "from_matching",
]
