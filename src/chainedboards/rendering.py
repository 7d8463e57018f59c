"""Plain-text and Graphviz renderings.

ascii covers boards, placements, matrix families, and triangle chains; dot
covers the chain graph, matchings, the grid graph, ice (arrows carry the
orientation), and fully-packed loops.  Output is deterministic.
"""

from __future__ import annotations

from itertools import compress

from .asm import ChainedASM, PlainASM
from .boards import BoardSpec
from .errors import UnsupportedDomainError, clip
from .ice import FPLConfiguration, GridGraph, IceConfiguration
from .matchings import ChainGraph, ChainMatching
from .perms import ChainedPermutation, OneLine, one_line_text
from .placements import RookPlacement
from .serialization import _oriented, _wire, vertex_to_str
from .triangles import MonotoneTriangleChain


def render(obj, format: str = "ascii") -> str:
    """Render ``obj`` in the requested format ('ascii' or 'dot')."""
    if format not in ("ascii", "dot"):
        raise UnsupportedDomainError(f"unknown format {clip(format)}")
    renderer = _RENDERERS.get((type(obj), format))
    if renderer is None:
        raise UnsupportedDomainError(f"no {format} rendering for {type(obj).__name__}")
    return renderer(obj)


def _boards_ascii(board: BoardSpec, rooks: set) -> str:
    lines = []
    occupied = {(s.board, s.row, s.col) for s in rooks}
    for b in range(1, board.k + 1):
        lines.append(f"board {b}")
        for r in range(1, board.n + 1):
            lines.append(
                "".join("R" if (b, r, c) in occupied else "." for c in range(1, board.n + 1))
            )
    return "\n".join(lines) + "\n"


def _matrices_ascii(matrices) -> str:
    width = max(
        len(str(x)) for mat in matrices for row in mat for x in row
    )
    blocks = []
    for idx, mat in enumerate(matrices, start=1):
        lines = [f"matrix {idx}"] if len(matrices) > 1 else []
        for row in mat:
            lines.append(" ".join(str(x).rjust(width) for x in row))
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def _triangles_ascii(t: MonotoneTriangleChain) -> str:
    width = len(str(2 * t.n))
    blocks = []
    for idx, tri in enumerate(t.triangles, start=1):
        lines = [f"triangle {idx}"]
        for m, row in enumerate(tri, start=1):
            pad = " " * ((t.n - m) * (width + 1) // 2)
            lines.append(pad + " ".join(str(x).rjust(width) for x in row))
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def _dot(kind: str, name: str, vertices, edges) -> str:
    """Graphviz text for a ``graph`` or ``digraph``; edges are (tail, head, attributes)."""
    arrow = "->" if kind == "digraph" else "--"
    lines = [f"{kind} {name} {{"]
    lines.extend(f'  "{v}";' for v in vertices)
    lines.extend(f'  "{u}" {arrow} "{v}" [{attrs}];' for u, v, attrs in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _chain_graph_dot(g: ChainGraph, matched: frozenset) -> str:
    def edge(e):
        u, v = g.endpoints(e)
        bold = ", style=bold" if e in matched else ""
        return f"{u[0]}:{u[1]}", f"{v[0]}:{v[1]}", f'label="{e[0]},{e[1]},{e[2]}"{bold}'

    return _dot("graph", "chain", (f"{r}:{i}" for r, i in g.vertices()), map(edge, g.edges()))


def _grid_dot(kind: str, name: str, g: GridGraph, edges) -> str:
    """Grid-graph vertices and ``edges``, as (edge id, tail id, head id) wire texts."""
    labelled = ((u, v, f'label="{e}"') for e, u, v in edges)
    return _dot(kind, name, map(vertex_to_str, g.vertices()), labelled)


_RENDERERS = {
    (BoardSpec, "ascii"): lambda b: _boards_ascii(b, set()),
    (RookPlacement, "ascii"): lambda p: _boards_ascii(p.board, set(p.squares)),
    (ChainedPermutation, "ascii"): lambda cp: _matrices_ascii(cp.matrices),
    (ChainedASM, "ascii"): lambda a: _matrices_ascii(a.matrices),
    (PlainASM, "ascii"): lambda p: _matrices_ascii((p.rows,)),
    (OneLine, "ascii"): lambda o: one_line_text(o) + "\n",
    (MonotoneTriangleChain, "ascii"): _triangles_ascii,
    (ChainGraph, "dot"): lambda g: _chain_graph_dot(g, matched=frozenset()),
    (ChainMatching, "dot"): lambda m: _chain_graph_dot(m.graph, matched=frozenset(m.edges)),
    (GridGraph, "dot"): lambda g: _grid_dot("graph", "grid", g, _wire(g.n, g.k)),
    (IceConfiguration, "dot"): lambda c: _grid_dot("digraph", "ice", c.graph, _oriented(c)),
    (FPLConfiguration, "dot"): lambda f: _grid_dot(
        "graph", "fpl", f.graph, compress(_wire(f.graph.n, f.graph.k), f._member)
    ),
}

__all__ = ["render"]
