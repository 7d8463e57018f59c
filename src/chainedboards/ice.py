"""Square ice and fully-packed loops on the chained grid graph.

The grid graph for circular even k has an n x n block of interior vertices
per board with boundary vertices along each board's top and left edges;
the right edge of board l chains to the bottom edge of board l+1
(cyclically).  Orienting every edge by the partial-sum rules turns a
chained ASM into a six-vertex (square ice) configuration whose boundary
orientations alternate with board parity (the chained domain wall
boundary conditions) and every interior vertex gets two edges in and two
out.  Keeping exactly the edges directed from an even vertex (parity of
i+j+l) to an odd one gives the fully-packed loop form.

For even k the graph is bipartite: every edge joins an odd vertex to an
even one.  ``_grid`` states the graph once per (n, k), in a bounded cache:
its edges by position with their ends, the interior vertices with the
positions of their N, S, E, W edges, and the boundary edges with their
forced heads and FPL membership.  Every object on one graph reads that
table.  ``GridGraph.edges`` gives the canonical edge order, which an ice
configuration's heads follow, and an FPL edge that is not an edge of the
graph raises ``InputDomainError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .asm import ChainedASM
from .boards import BoardSpec, Shape, _check_board
from .errors import InputDomainError, UnsupportedDomainError, ValidationError, clip

Vertex = tuple[int, int, int]  # (board l, i, j); i or j == 0 on the boundary
EdgeId = tuple  # ("h", l, i, j) | ("v", l, i, j) | ("c", l, i) | ("bl", l, i) | ("bt", l, j)


@dataclass(frozen=True)
class GridGraph:
    n: int
    k: int

    def __post_init__(self):
        # exact ints: the per-(n, k) tables would otherwise share 1 with True and 2 with 2.0
        if type(self.n) is not int or self.n < 1:
            raise InputDomainError(f"grid graph side n must be an int >= 1, got {clip(self.n)}")
        if type(self.k) is not int or self.k < 2 or self.k % 2 != 0:
            raise UnsupportedDomainError(
                f"the chained grid graph needs an even int k >= 2, got {clip(self.k)}"
            )

    def vertices(self) -> tuple[Vertex, ...]:
        return _grid(self.n, self.k).vertices

    def edges(self) -> tuple[EdgeId, ...]:
        """The canonical edge order, which ``IceConfiguration.heads`` follows."""
        return _grid(self.n, self.k).edges


def vertex_parity(v: Vertex) -> int:
    l, i, j = v
    return (l + i + j) % 2


class _Grid(NamedTuple):
    """What every object on one grid graph shares; edges go by position."""

    edges: tuple[EdgeId, ...]  # the canonical edge order
    index: dict[EdgeId, int]  # edge -> position
    ends: tuple[tuple[Vertex, Vertex], ...]  # each edge's endpoints
    odd_even: tuple[tuple[Vertex, Vertex], ...]  # each edge's odd end, then its even end
    interior: dict[Vertex, tuple[int, ...]]  # interior vertex -> positions of its N, S, E, W edges
    boundary: tuple[tuple[int, Vertex, bool], ...]  # (position, DWBC head, an FPL holds it)
    vertices: tuple[Vertex, ...]  # the interior vertices, then each board's left and top boundary


_N, _S, _E, _W = range(4)


@functools.lru_cache(maxsize=16)
def _grid(n: int, k: int) -> _Grid:
    """The chained grid graph, the one place its geometry is written down."""
    side = range(1, n + 1)
    interior = {(l, i, j): [0] * 4 for l in range(1, k + 1) for i in side for j in side}
    edges, ends, boundary = [], [], []

    def add(e: EdgeId, u: Vertex, v: Vertex, u_side: int | None, v_side: int) -> None:
        """List edge e as the u_side edge of u (None: u is on the boundary) and the v_side of v."""
        if u_side is not None:
            interior[u][u_side] = len(edges)
        interior[v][v_side] = len(edges)
        edges.append(e)
        ends.append((u, v))

    for l in range(1, k + 1):
        odd = l % 2  # odd boards: left boundary points in, top boundary points out
        for i in range(1, n + 1):
            boundary.append((len(edges), (l, i, odd), i % 2 == 1))
            add(("bl", l, i), (l, i, 0), (l, i, 1), None, _W)
        for j in range(1, n + 1):
            boundary.append((len(edges), (l, 1 - odd, j), j % 2 == 0))
            add(("bt", l, j), (l, 0, j), (l, 1, j), None, _N)
        for i in range(1, n + 1):
            for j in range(1, n):
                add(("h", l, i, j), (l, i, j), (l, i, j + 1), _E, _W)
        for i in range(1, n):
            for j in range(1, n + 1):
                add(("v", l, i, j), (l, i, j), (l, i + 1, j), _S, _N)
        for i in range(1, n + 1):  # the right edge of board l chains to the bottom of board l + 1
            add(("c", l, i), (l, i, n), (l % k + 1, n, i), _E, _S)
    # even k makes the graph bipartite: u and v differ in parity on every edge
    odd_even = tuple((u, v) if vertex_parity(u) else (v, u) for u, v in ends)
    return _Grid(
        tuple(edges),
        {e: p for p, e in enumerate(edges)},
        tuple(ends),
        odd_even,
        {v: tuple(around) for v, around in interior.items()},
        tuple(boundary),
        (*interior, *(ends[p][0] for p, _, _ in boundary)),  # then the boundary edges' outer ends
    )


def _position(grid: _Grid, e) -> int:
    """Edge ``e``'s position in ``grid``, or an InputDomainError naming ``e`` as an unknown edge."""
    try:
        return grid.index[e]
    except (KeyError, TypeError):  # TypeError: an unhashable key, such as a list
        raise InputDomainError(f"unknown edge {clip(e)}") from None


@dataclass(frozen=True)
class IceConfiguration:
    """An orientation of the grid graph, stored as one head per edge in the
    graph's canonical edge order."""

    graph: GridGraph
    heads: tuple[Vertex, ...]

    def __post_init__(self):
        _check_board(self.graph, GridGraph, "graph")
        grid = _grid(self.graph.n, self.graph.k)
        try:
            if len(self.heads) != len(grid.edges):
                raise InputDomainError("need one head per edge")
            fixed = []
            for e, ends, h in zip(grid.edges, grid.ends, self.heads):
                h = tuple(h)
                if h not in ends:
                    raise InputDomainError(f"{clip(h)} is not an endpoint of edge {e}")
                fixed.append(ends[0] if h == ends[0] else ends[1])  # the table's own, exact ints
        except TypeError:  # heads, or a head, that is not a sequence
            raise InputDomainError(f"need one vertex per edge as its head, got {clip(self.heads)}") from None
        object.__setattr__(self, "heads", tuple(fixed))
        object.__setattr__(self, "_grid", grid)


def to_ice(a: ChainedASM) -> IceConfiguration:
    """Orient every edge of the grid graph by the partial-sum rules."""
    if a.board.shape is not Shape.CIRCULAR or a.board.k % 2 != 0:
        raise UnsupportedDomainError("square ice is defined only for circular boards with even k")
    graph = GridGraph(a.board.n, a.board.k)
    grid, mats = _grid(graph.n, graph.k), a.matrices
    heads = [None] * len(grid.edges)
    for p, want, _ in grid.boundary:
        heads[p] = want
    for p, (e, (u, v)) in enumerate(zip(grid.edges, grid.ends)):
        kind, l = e[0], e[1]
        if kind == "h":  # u left of v: the row's first j entries
            s = sum(mats[l - 1][e[2] - 1][: e[3]])
        elif kind == "v":  # u above v: row j of the previous matrix (k for l = 1), column below
            s = sum(mats[l - 2][e[3] - 1]) + sum(row[e[3] - 1] for row in mats[l - 1][e[2] :])
        elif kind == "c":  # u on board l, v on the next: the whole row
            s = sum(mats[l - 1][e[2] - 1])
        else:
            continue
        heads[p] = u if (s == 1) == (l % 2 == 1) else v
    return IceConfiguration(graph, tuple(heads))


def ice_problems(c: IceConfiguration) -> list[str]:
    """Chained domain wall boundary conditions plus two-in two-out."""
    grid, heads = c._grid, c.heads
    problems = [
        f"boundary edge {grid.edges[p]} must point to {want}"
        for p, want, _ in grid.boundary
        if heads[p] != want
    ]
    for v, around in grid.interior.items():
        indeg = sum([heads[p] == v for p in around])
        if indeg != 2:
            problems.append(f"interior vertex {v} has {indeg} edges entering, not 2")
    return problems


def from_ice(c: IceConfiguration) -> ChainedASM:
    """Classify each interior vertex into the six configurations and read
    the matrix entries back off.

    What ``ice_problems`` passes decodes to a chained ASM, so it is not
    checked again.  Two-in two-out flips a row's horizontal edges, and a
    column's vertical ones, exactly at its nonzero entries, which so
    alternate in sign: from the left boundary, condition (1); and up a
    column of board l from the edge that ends row i of board l - 1, whose
    direction is that row's sum, condition (2).  The top boundary then sets
    each row sum of board l - 1 plus the column's sum in board l to 1, so
    consecutive matrix sums add to n and the total is nk/2, condition (3)."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    n, k, heads = c.graph.n, c.graph.k, c.heads
    grids = [[[0] * n for _ in range(n)] for _ in range(k)]
    for v, (_, _, east, west) in c._grid.interior.items():
        horiz_in = (heads[east] == v) + (heads[west] == v)
        if horiz_in == 1:
            continue  # flow-through vertex, entry 0
        l, i, j = v
        sources_in = horiz_in == 2  # both horizontal in, both vertical out
        value = 1 if sources_in == (l % 2 == 1) else -1
        grids[l - 1][i - 1][j - 1] = value
    return ChainedASM(BoardSpec(Shape.CIRCULAR, n, k), grids)


@dataclass(frozen=True)
class FPLConfiguration:
    """A subgraph of the grid graph: its edges in canonical order, and a flag per position."""

    graph: GridGraph
    chosen: tuple[EdgeId, ...]

    def __post_init__(self):
        _check_board(self.graph, GridGraph, "graph")
        grid = _grid(self.graph.n, self.graph.k)
        member = [False] * len(grid.edges)
        try:
            for e in self.chosen:
                member[_position(grid, tuple(e) if type(e) is list else e)] = True
        except TypeError:  # chosen is not iterable
            raise InputDomainError(f"chosen must be a sequence of edges, got {clip(self.chosen)}") from None
        object.__setattr__(self, "chosen", tuple(compress(grid.edges, member)))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_member", member)


def to_fpl(c: IceConfiguration) -> FPLConfiguration:
    """Keep exactly the edges directed from an even vertex to an odd one."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    grid = c._grid
    chosen = [e for e, h, (odd, _) in zip(grid.edges, c.heads, grid.odd_even) if h == odd]
    return FPLConfiguration(c.graph, tuple(chosen))


def fpl_problems(f: FPLConfiguration) -> list[str]:
    """Fixed boundary pattern plus degree exactly 2 at interior vertices."""
    grid, member = f._grid, f._member
    problems = []
    for p, _, want in grid.boundary:
        if member[p] != want:
            state = "must contain" if want else "must not contain"
            problems.append(f"fully-packed loop {state} boundary edge {grid.edges[p]}")
    for v, around in grid.interior.items():
        deg = sum([member[p] for p in around])
        if deg != 2:
            problems.append(f"interior vertex {v} has degree {deg}, not 2")
    return problems


def from_fpl(f: FPLConfiguration) -> IceConfiguration:
    """Orient chosen edges even-to-odd and omitted edges odd-to-even."""
    problems = fpl_problems(f)
    if problems:
        raise ValidationError("not a chained fully-packed loop configuration", problems)
    heads = [odd if m else even for m, (odd, even) in zip(f._member, f._grid.odd_even)]
    return IceConfiguration(f.graph, tuple(heads))


__all__ = [
    "GridGraph",
    "IceConfiguration",
    "FPLConfiguration",
    "vertex_parity",
    "to_ice",
    "from_ice",
    "ice_problems",
    "to_fpl",
    "from_fpl",
    "fpl_problems",
]
