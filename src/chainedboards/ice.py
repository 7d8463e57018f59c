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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
        if self.n < 1 or self.k < 2 or self.k % 2 != 0:
            raise UnsupportedDomainError("the chained grid graph needs even k >= 2")

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
        n = self.n
        out = []
        for l in range(1, self.k + 1):
            out.extend(("bl", l, i) for i in range(1, n + 1))
            out.extend(("bt", l, j) for j in range(1, n + 1))
            out.extend(("h", l, i, j) for i in range(1, n + 1) for j in range(1, n))
            out.extend(("v", l, i, j) for i in range(1, n) for j in range(1, n + 1))
            out.extend(("c", l, i) for i in range(1, n + 1))
        return tuple(out)

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


@dataclass(frozen=True)
class IceConfiguration:
    """An orientation of the grid graph, stored as one head per edge in the
    graph's canonical edge order."""

    graph: GridGraph
    heads: tuple[Vertex, ...]

    def __post_init__(self):
        edges = self.graph.edges()
        if len(self.heads) != len(edges):
            raise InputDomainError("need one head per edge")
        fixed = []
        for e, h in zip(edges, self.heads):
            h = tuple(h)
            if h not in self.graph.endpoints(e):
                raise InputDomainError(f"{clip(h)} is not an endpoint of edge {e}")
            fixed.append(h)
        object.__setattr__(self, "heads", tuple(fixed))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(edges)})

    def head(self, e: EdgeId) -> Vertex:
        return self.heads[self._index[e]]

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
    for e in graph.edges():
        kind, l = e[0], e[1]
        odd = l % 2 == 1
        if kind == "h":
            _, _, i, j = e
            s = prefix[l - 1][i - 1][j]
            left, right = (l, i, j), (l, i, j + 1)
            heads.append(left if (s == 1) == odd else right)
        elif kind == "v":
            _, _, i, j = e
            s = row_sum(graph.prev_board(l), j) + bottom[l - 1][j - 1][n - i]
            up, down = (l, i, j), (l, i + 1, j)
            heads.append(up if (s == 1) == odd else down)
        elif kind == "c":
            _, _, i = e
            s = row_sum(l, i)
            here, there = (l, i, n), (graph.next_board(l), n, i)
            heads.append(here if (s == 1) == odd else there)
        else:
            heads.append(_dwbc_head(e))
    return IceConfiguration(graph, tuple(heads))


def ice_problems(c: IceConfiguration) -> list[str]:
    """Chained domain wall boundary conditions plus two-in two-out."""
    problems = []
    for e in c.graph.edges():
        want = _dwbc_head(e)
        if want is not None and c.head(e) != want:
            problems.append(f"boundary edge {e} must point to {want}")
    for v in c.graph.interior_vertices():
        indeg = sum(1 for e in c.graph.incident(v) if c.head(e) == v)
        if indeg != 2:
            problems.append(f"interior vertex {v} has {indeg} edges entering, not 2")
    return problems


def from_ice(c: IceConfiguration) -> ChainedASM:
    """Classify each interior vertex into the six configurations and read
    the matrix entries back off."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    graph = c.graph
    n, k = graph.n, graph.k
    grids = [[[0] * n for _ in range(n)] for _ in range(k)]
    for v in graph.interior_vertices():
        l, i, j = v
        north, south, east, west = graph.incident(v)
        horiz_in = (c.head(east) == v) + (c.head(west) == v)
        if horiz_in == 1:
            continue  # flow-through vertex, entry 0
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
    graph: GridGraph
    chosen: tuple[EdgeId, ...]

    def __post_init__(self):
        order = {e: i for i, e in enumerate(self.graph.edges())}
        picked = set(tuple(e) for e in self.chosen)
        for e in picked:
            if e not in order:
                raise InputDomainError(f"unknown edge {clip(repr(e))}")
        object.__setattr__(self, "chosen", tuple(sorted(picked, key=order.__getitem__)))
        object.__setattr__(self, "_set", frozenset(picked))

    def contains(self, e: EdgeId) -> bool:
        return e in self._set


def to_fpl(c: IceConfiguration) -> FPLConfiguration:
    """Keep exactly the edges directed from an even vertex to an odd one."""
    problems = ice_problems(c)
    if problems:
        raise ValidationError("not a chained ice configuration", problems)
    chosen = [e for e in c.graph.edges() if vertex_parity(c.tail(e)) == 0]
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
    problems = []
    for e in f.graph.edges():
        want = _fpl_boundary(e)
        if want is not None and f.contains(e) != want:
            state = "must contain" if want else "must not contain"
            problems.append(f"fully-packed loop {state} boundary edge {e}")
    for v in f.graph.interior_vertices():
        deg = sum(1 for e in f.graph.incident(v) if f.contains(e))
        if deg != 2:
            problems.append(f"interior vertex {v} has degree {deg}, not 2")
    return problems


def from_fpl(f: FPLConfiguration) -> IceConfiguration:
    """Orient chosen edges even-to-odd and omitted edges odd-to-even."""
    problems = fpl_problems(f)
    if problems:
        raise ValidationError("not a chained fully-packed loop configuration", problems)
    heads = []
    for e in f.graph.edges():
        u, v = f.graph.endpoints(e)
        odd_end = u if vertex_parity(u) == 1 else v
        even_end = v if odd_end == u else u
        heads.append(odd_end if f.contains(e) else even_end)
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
