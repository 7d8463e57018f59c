"""Canonical text documents for every object family.

A document is a single JSON line with fixed key order, newline-terminated:
``{"family": ..., "shape": ..., "n": ..., "k": ..., <payload>}``.  Matrices
are row-major arrays of integers, placements are arrays of
``[board, row, col]`` triples, matchings are arrays of ``[l, i, j]`` edge
identities, fully-packed loops are arrays of grid-graph edge ids, and ice
configurations map each grid-graph edge id to the vertex id its arrow
points at.  ``deserialize`` also accepts the bare one-line string format
(``0200-3104-...``).  Parsing is strict: valid JSON that decodes to an
object violating its family's invariants is a validation error.
"""

from __future__ import annotations

import json
from typing import Any

from .asm import ChainedASM, PlainASM, chained_asm_problems, plain_asm_problems
from .boards import BoardSpec, Shape
from .errors import InputDomainError, ParseError, ValidationError
from .ice import (
    EdgeId,
    FPLConfiguration,
    GridGraph,
    IceConfiguration,
    Vertex,
    fpl_problems,
    ice_problems,
)
from .matchings import ChainMatching, build_chain_graph, matching_problems
from .perms import (
    ChainedPermutation,
    OneLine,
    chained_permutation_problems,
    one_line_problems,
    parse_one_line,
)
from .placements import RookPlacement, validate_placement
from .triangles import MonotoneTriangleChain, mt_chain_problems


def edge_to_str(e: EdgeId) -> str:
    return f"{e[0]}:{','.join(str(x) for x in e[1:])}"


def str_to_edge(s: str) -> EdgeId:
    try:
        kind, rest = s.split(":", 1)
        nums = tuple(int(x) for x in rest.split(","))
    except (ValueError, AttributeError):  # AttributeError: not a string
        raise ParseError(f"bad edge id {s!r}") from None
    if kind in ("h", "v") and len(nums) == 3 or kind in ("c", "bl", "bt") and len(nums) == 2:
        return (kind, *nums)
    raise ParseError(f"bad edge id {s!r}")


def vertex_to_str(v: Vertex) -> str:
    return f"{v[0]}:{v[1]},{v[2]}"


def str_to_vertex(s: str) -> Vertex:
    try:
        l, rest = s.split(":", 1)
        i, j = rest.split(",")
        return (int(l), int(i), int(j))
    except (ValueError, AttributeError):  # AttributeError: not a string
        raise ParseError(f"bad vertex id {s!r}") from None


def _doc(family: str, board: BoardSpec | None, payload: dict[str, Any]) -> str:
    doc: dict[str, Any] = {"family": family}
    if board is not None:
        doc.update(shape=board.shape.value, n=board.n, k=board.k)
    doc.update(payload)
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def serialize(obj) -> str:
    """The canonical one-line document for any domain object."""
    if isinstance(obj, RookPlacement):
        return _doc("placement", obj.board, {"squares": [list(s) for s in obj.squares]})
    if isinstance(obj, ChainedPermutation):
        return _doc(
            "chained-permutation", obj.board, {"matrices": [[list(r) for r in m] for m in obj.matrices]}
        )
    if isinstance(obj, OneLine):
        return _doc("one-line", obj.board, {"blocks": [list(b) for b in obj.blocks]})
    if isinstance(obj, ChainMatching):
        return _doc("chain-matching", obj.graph.board, {"edges": [list(e) for e in obj.edges]})
    if isinstance(obj, ChainedASM):
        return _doc(
            "chained-asm", obj.board, {"matrices": [[list(r) for r in m] for m in obj.matrices]}
        )
    if isinstance(obj, PlainASM):
        return json.dumps(
            {"family": "plain-asm", "n": obj.size, "matrix": [list(r) for r in obj.rows]},
            separators=(", ", ": "),
        ) + "\n"
    if isinstance(obj, MonotoneTriangleChain):
        board = BoardSpec(Shape.CIRCULAR, obj.n, obj.k)
        return _doc(
            "monotone-triangle-chain",
            board,
            {"triangles": [[list(row) for row in tri] for tri in obj.triangles]},
        )
    if isinstance(obj, IceConfiguration):
        board = BoardSpec(Shape.CIRCULAR, obj.graph.n, obj.graph.k)
        orientation = {
            edge_to_str(e): vertex_to_str(h) for e, h in zip(obj.graph.edges(), obj.heads)
        }
        return _doc("ice", board, {"orientation": orientation})
    if isinstance(obj, FPLConfiguration):
        board = BoardSpec(Shape.CIRCULAR, obj.graph.n, obj.graph.k)
        return _doc("fpl", board, {"edges": [edge_to_str(e) for e in obj.chosen]})
    raise ValidationError(f"no canonical document for {type(obj).__name__}")


def _need(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document is missing {key!r}")
    return doc[key]


def _board_from(doc: dict) -> BoardSpec:
    shape = _need(doc, "shape")
    try:
        shape = Shape(shape)
    except ValueError:
        raise ParseError(f"unknown shape {shape!r}") from None
    n, k = _need(doc, "n"), _need(doc, "k")
    if not isinstance(n, int) or not isinstance(k, int):
        raise ParseError("n and k must be integers")
    return BoardSpec(shape, n, k)


def _checked(obj, problems: list[str]):
    if problems:
        raise ValidationError(f"document decodes to an invalid {type(obj).__name__}", problems)
    return obj


def deserialize(text: str):
    """Parse a canonical document (or a bare one-line string) and validate it."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty document")
    if not stripped.startswith("{"):
        o = parse_one_line(stripped)
        return _checked(o, one_line_problems(o))
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at offset {exc.pos}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    family = _need(doc, "family")
    try:
        if family == "placement":
            p = RookPlacement(
                _board_from(doc), tuple(tuple(s) for s in _need(doc, "squares"))
            )
            if not validate_placement(p):
                raise ValidationError("document decodes to an attacking placement")
            return p
        if family == "chained-permutation":
            cp = ChainedPermutation(
                _board_from(doc),
                tuple(tuple(map(tuple, m)) for m in _need(doc, "matrices")),
            )
            return _checked(cp, chained_permutation_problems(cp))
        if family == "one-line":
            o = OneLine(_board_from(doc), tuple(tuple(b) for b in _need(doc, "blocks")))
            return _checked(o, one_line_problems(o))
        if family == "chain-matching":
            m = ChainMatching(
                build_chain_graph(_board_from(doc)),
                tuple(tuple(e) for e in _need(doc, "edges")),
            )
            return _checked(m, matching_problems(m))
        if family == "chained-asm":
            a = ChainedASM(
                _board_from(doc),
                tuple(tuple(map(tuple, m)) for m in _need(doc, "matrices")),
            )
            return _checked(a, chained_asm_problems(a))
        if family == "plain-asm":
            p = PlainASM(_need(doc, "n"), tuple(tuple(r) for r in _need(doc, "matrix")))
            return _checked(p, plain_asm_problems(p))
        if family == "monotone-triangle-chain":
            board = _board_from(doc)
            t = MonotoneTriangleChain(
                board.n,
                board.k,
                tuple(tuple(tuple(row) for row in tri) for tri in _need(doc, "triangles")),
            )
            return _checked(t, mt_chain_problems(t))
        if family == "ice":
            board = _board_from(doc)
            graph = GridGraph(board.n, board.k)
            mapping = _need(doc, "orientation")
            heads = []
            for e in graph.edges():
                key = edge_to_str(e)
                if key not in mapping:
                    raise ParseError(f"orientation is missing edge {key}")
                heads.append(str_to_vertex(mapping[key]))
            if len(mapping) != len(graph.edges()):
                raise ParseError("orientation lists unknown edges")
            c = IceConfiguration(graph, tuple(heads))
            return _checked(c, ice_problems(c))
        if family == "fpl":
            board = _board_from(doc)
            graph = GridGraph(board.n, board.k)
            f = FPLConfiguration(graph, tuple(str_to_edge(s) for s in _need(doc, "edges")))
            return _checked(f, fpl_problems(f))
    except (TypeError, IndexError) as exc:
        raise ParseError(f"malformed {family} payload: {exc}") from None
    except InputDomainError as exc:
        raise ValidationError(str(exc)) from None
    raise ParseError(f"unknown family {family!r}")


__all__ = [
    "serialize",
    "deserialize",
    "edge_to_str",
    "str_to_edge",
    "vertex_to_str",
    "str_to_vertex",
]
