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
even one.  ``_grid`` builds once per (n, k), in a bounded cache, what every
object on one graph shares: its edges by position with their ends, the
interior vertices with the positions of their N, S, E, W edges, and the
boundary edges with their forced heads and FPL membership.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, NamedTuple

from .asm import ChainedASM, chained_asm_problems
from .boards import BoardSpec, Shape
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

    def next_board(self, l: int) -> int:
        return l % self.k + 1

    def prev_board(self, l: int) -> int:
        return l - 1 if l > 1 else self.k

    def interior_vertices(self) -> Iterator[Vertex]:
        for l in range(1, self.k + 1):
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    yield (l, i, j)

    def boundary_vertices(self) -> Iterator[Vertex]:
        for l in range(1, self.k + 1):
            for i in range(1, self.n + 1):
                yield (l, i, 0)
            for j in range(1, self.n + 1):
                yield (l, 0, j)

    def vertices(self) -> Iterator[Vertex]:
        yield from self.interior_vertices()
        yield from self.boundary_vertices()

    def edges(self) -> tuple[EdgeId, ...]:
        return _grid(self.n, self.k).edges

    def endpoints(self, e: EdgeId) -> tuple[Vertex, Vertex]:
        kind = e[0]
        if kind == "h":
            _, l, i, j = e
            return ((l, i, j), (l, i, j + 1))
        if kind == "v":
            _, l, i, j = e
            return ((l, i, j), (l, i + 1, j))
        if kind == "c":
            _, l, i = e
            return ((l, i, self.n), (self.next_board(l), self.n, i))
        if kind == "bl":
            _, l, i = e
            return ((l, i, 0), (l, i, 1))
        if kind == "bt":
            _, l, j = e
            return ((l, 0, j), (l, 1, j))
        raise InputDomainError(f"unknown edge {e!r}")

    def incident(self, v: Vertex) -> tuple[EdgeId, ...]:
        """The N, S, E, W edges of an interior vertex."""
        l, i, j = v
        north = ("v", l, i - 1, j) if i > 1 else ("bt", l, j)
        south = ("v", l, i, j) if i < self.n else ("c", self.prev_board(l), j)
        west = ("h", l, i, j - 1) if j > 1 else ("bl", l, i)
        east = ("h", l, i, j) if j < self.n else ("c", l, i)
        return (north, south, east, west)


def vertex_parity(v: Vertex) -> int:
    l, i, j = v
    return (l + i + j) % 2


class _Grid(NamedTuple):
    """What every object on one grid graph shares; edges go by position."""

    edges: tuple[EdgeId, ...]  # the canonical edge order
    index: dict[EdgeId, int]  # edge -> position
    ends: tuple[tuple[Vertex, Vertex], ...]  # each edge's endpoints
    odd_even: tuple[tuple[Vertex, Vertex], ...]  # each edge's odd end, then its even end
    interior: tuple[tuple[Vertex, tuple[int, ...]], ...]  # (v, positions of its N, S, E, W edges)
    boundary: tuple[tuple[int, Vertex, bool], ...]  # (position, DWBC head, an FPL holds it)


@functools.lru_cache(maxsize=16)
def _grid(n: int, k: int) -> _Grid:
    g = GridGraph(n, k)
    edges = []
    for l in range(1, k + 1):
        edges.extend(("bl", l, i) for i in range(1, n + 1))
        edges.extend(("bt", l, j) for j in range(1, n + 1))
        edges.extend(("h", l, i, j) for i in range(1, n + 1) for j in range(1, n))
        edges.extend(("v", l, i, j) for i in range(1, n) for j in range(1, n + 1))
        edges.extend(("c", l, i) for i in range(1, n + 1))
    index = {e: p for p, e in enumerate(edges)}
    ends = tuple(map(g.endpoints, edges))
    # even k makes the graph bipartite: u and v differ in parity on every edge
    odd_even = tuple((u, v) if vertex_parity(u) else (v, u) for u, v in ends)
    interior = tuple((v, tuple(index[e] for e in g.incident(v))) for v in g.interior_vertices())
    boundary = tuple(
        (p, _dwbc_head(e), _fpl_boundary(e)) for p, e in enumerate(edges) if e[0] in ("bl", "bt")
    )
    return _Grid(tuple(edges), index, ends, odd_even, interior, boundary)


@dataclass(frozen=True)
class IceConfiguration:
    """An orientation of the grid graph, stored as one head per edge in the
    graph's canonical edge order."""

    graph: GridGraph
    heads: tuple[Vertex, ...]

    def __post_init__(self):
        grid = _grid(self.graph.n, self.graph.k)
        if len(self.heads) != len(grid.edges):
            raise InputDomainError("need one head per edge")
        fixed = []
        for e, ends, h in zip(grid.edges, grid.ends, self.heads):
            h = tuple(h)
            if h not in ends:
                raise InputDomainError(f"{clip(h)} is not an endpoint of edge {e}")
            fixed.append(ends[0] if h == ends[0] else ends[1])  # the table's own, exact ints
        object.__setattr__(self, "heads", tuple(fixed))
        object.__setattr__(self, "_grid", grid)

    def head(self, e: EdgeId) -> Vertex:
        return self.heads[self._grid.index[e]]

    def tail(self, e: EdgeId) -> Vertex:
        u, v = self.graph.endpoints(e)
        return v if self.head(e) == u else u


def _dwbc_head(e: EdgeId) -> Vertex | None:
    """The head the chained domain wall boundary conditions force, if any."""
    kind, l = e[0], e[1]
    if kind == "bl":
        return (l, e[2], 1) if l % 2 == 1 else (l, e[2], 0)
    if kind == "bt":
        return (l, 0, e[2]) if l % 2 == 1 else (l, 1, e[2])
    return None


def to_ice(a: ChainedASM) -> IceConfiguration:
    """Orient every edge of the grid graph by the partial-sum rules."""
    if a.board.shape is not Shape.CIRCULAR or a.board.k % 2 != 0:
        raise UnsupportedDomainError("square ice is defined only for circular boards with even k")
    graph = GridGraph(a.board.n, a.board.k)
    n, k = graph.n, graph.k
    mats = a.matrices
    prefix = [
        [[0] * (n + 1) for _ in range(n)] for _ in range(k)
    ]  # prefix[l][i][j] = sum of first j entries of row i+1
    bottom = [
        [[0] * (n + 1) for _ in range(n)] for _ in range(k)
    ]  # bottom[l][j][t] = sum of the t lowest entries of column j+1
    for l in range(k):
        for i in range(n):
            for j in range(n):
                prefix[l][i][j + 1] = prefix[l][i][j] + mats[l][i][j]
        for j in range(n):
            for t in range(n):
                bottom[l][j][t + 1] = bottom[l][j][t] + mats[l][n - 1 - t][j]

    def row_sum(l: int, i: int) -> int:
        return prefix[l - 1][i - 1][n]

    heads = []
    for e, (u, v) in zip(graph.edges(), _grid(n, k).ends):
        kind, l = e[0], e[1]
        if kind == "h":  # u left of v
            s = prefix[l - 1][e[2] - 1][e[3]]
        elif kind == "v":  # u above v
            s = row_sum(graph.prev_board(l), e[3]) + bottom[l - 1][e[3] - 1][n - e[2]]
        elif kind == "c":  # u on board l, v on the next
            s = row_sum(l, e[2])
        else:
            heads.append(_dwbc_head(e))
            continue
        heads.append(u if (s == 1) == (l % 2 == 1) else v)
    return IceConfiguration(graph, tuple(heads))


def ice_problems(c: IceConfiguration) -> list[str]:
    """Chained domain wall boundary conditions plus two-in two-out."""
    grid, heads = c._grid, c.heads
    problems = [
        f"boundary edge {grid.edges[p]} must point to {want}"
        for p, want, _ in grid.boundary
        if heads[p] != want
    ]
    for v, around in grid.interior:
        indeg = sum([heads[p] == v for p in around])
        if indeg != 2:
            problems.append(f"interior vertex {v} has {indeg} edges entering, not 2")
    return problems


def from_ice(c: IceConfiguration) -> ChainedASM:
    """Classify each interior vertex into the six configurations and read
    the matrix entries back off."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    n, k, heads = c.graph.n, c.graph.k, c.heads
    grids = [[[0] * n for _ in range(n)] for _ in range(k)]
    for v, (_, _, east, west) in c._grid.interior:
        horiz_in = (heads[east] == v) + (heads[west] == v)
        if horiz_in == 1:
            continue  # flow-through vertex, entry 0
        l, i, j = v
        sources_in = horiz_in == 2  # both horizontal in, both vertical out
        value = 1 if sources_in == (l % 2 == 1) else -1
        grids[l - 1][i - 1][j - 1] = value
    a = ChainedASM(BoardSpec(Shape.CIRCULAR, n, k), grids)
    bad = chained_asm_problems(a)
    if bad:
        raise ValidationError("ice configuration decodes to an invalid chained ASM", bad)
    return a


@dataclass(frozen=True)
class FPLConfiguration:
    """A subgraph of the grid graph: its edges in canonical order, and a flag per position."""

    graph: GridGraph
    chosen: tuple[EdgeId, ...]

    def __post_init__(self):
        grid = _grid(self.graph.n, self.graph.k)
        member = [False] * len(grid.edges)
        for e in self.chosen:
            e = tuple(e)
            p = grid.index.get(e)
            if p is None:
                raise InputDomainError(f"unknown edge {clip(repr(e))}")
            member[p] = True
        object.__setattr__(self, "chosen", tuple(compress(grid.edges, member)))
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_member", member)

    def contains(self, e: EdgeId) -> bool:
        p = self._grid.index.get(e)
        return p is not None and self._member[p]


def to_fpl(c: IceConfiguration) -> FPLConfiguration:
    """Keep exactly the edges directed from an even vertex to an odd one."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    grid = c._grid
    chosen = [e for e, h, (odd, _) in zip(grid.edges, c.heads, grid.odd_even) if h == odd]
    return FPLConfiguration(c.graph, tuple(chosen))


def _fpl_boundary(e: EdgeId) -> bool | None:
    """Whether an FPL holds boundary edge ``e``; None for an inner edge."""
    if e[0] == "bl":
        return e[2] % 2 == 1
    if e[0] == "bt":
        return e[2] % 2 == 0
    return None


def fpl_problems(f: FPLConfiguration) -> list[str]:
    """Fixed boundary pattern plus degree exactly 2 at interior vertices."""
    grid, member = f._grid, f._member
    problems = []
    for p, _, want in grid.boundary:
        if member[p] != want:
            state = "must contain" if want else "must not contain"
            problems.append(f"fully-packed loop {state} boundary edge {grid.edges[p]}")
    for v, around in grid.interior:
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
