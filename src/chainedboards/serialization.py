"""Canonical text documents for every object family.

A document is a single JSON line with fixed key order, newline-terminated:
``{"family": ..., "shape": ..., "n": ..., "k": ..., <payload>}``.  Matrices
are row-major arrays of integers, placements are arrays of
``[board, row, col]`` triples, matchings are arrays of ``[l, i, j]`` edge
identities, fully-packed loops are arrays of grid-graph edge ids, and ice
configurations map each grid-graph edge id to the vertex id its arrow
points at.  ``deserialize`` also accepts the bare one-line string format
(``0200-3104-...``).  ``FAMILIES`` is the one registry of the families and
of the conversions between them.

``_documents`` is the one writer loop, from the payloads of one family on
one board: ``chained-boards enumerate`` feeds it each search's own paths,
with no object made per document, ``serialize_stream`` those of each run of
objects, and ``serialize`` one object's.  It writes the header itself
(ASCII names and ints: the bytes of ``json.dumps``) once per run, then the
payload.  A matrix or placement payload comes as the texts of its matrices
or boards' squares, and a document is one join of them.  The searches build
each option's text once, with the option, by the builders given them here
(``_matrix_json``, ``_squares_json``, "" for a board with no rook); the
objects' writers take each matrix's or square's text from a bounded cache
keyed by value (``_matrix_text``, ``_ints_text``), sound as the
constructors admit exact ints alone (``(True, 0)`` equals and hashes like
``(1, 0)``), so what a document keeps stays linear in its length.  Other
payloads go through ``json.dumps``.
Ice and FPL ids come from a bounded per-(n, k) table of each edge's id and
its endpoints' ids (``_wire``), built after the edge-count checks; an ice
value other than those exact texts (``"1:01,1"``, a number) is parsed as
any id.

Parsing is strict: numbers are JSON integers (no booleans or floats), ids
use ASCII digits, no object lists a key twice, a document holds only the
keys its family writes, and valid JSON that decodes to an object violating
its family's invariants is a validation error.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .asm import (
    ChainedASM,
    PlainASM,
    asm_to_permutation,
    chained_asm_problems,
    permutation_to_asm,
    plain_asm_problems,
    to_plain_asm,
)
from .boards import BoardSpec, Shape
from .errors import InputDomainError, ParseError, UnsupportedDomainError, ValidationError, clip
from .ice import (
    EdgeId,
    FPLConfiguration,
    GridGraph,
    IceConfiguration,
    Vertex,
    _grid,
    fpl_problems,
    from_fpl,
    from_ice,
    ice_problems,
    to_fpl,
    to_ice,
)
from .matchings import ChainGraph, ChainMatching, from_matching, matching_problems, to_matching
from .perms import (
    ChainedPermutation,
    OneLine,
    _ascii_int,
    from_one_line,
    matrices_to_placement,
    one_line_problems,
    parse_one_line,
    placement_to_matrices,
    to_one_line,
)
from .placements import RookPlacement, placement_problems
from .triangles import (
    MonotoneTriangleChain,
    from_monotone_triangles,
    mt_chain_problems,
    to_monotone_triangles,
)


def edge_to_str(e: EdgeId) -> str:
    return f"{e[0]}:{','.join(str(x) for x in e[1:])}"


def str_to_edge(s: str) -> EdgeId:
    try:
        kind, rest = s.split(":", 1)
        nums = tuple(_ascii_int(x) for x in rest.split(","))
    except (ValueError, AttributeError):  # AttributeError: not a string
        raise ParseError(f"bad edge id {clip(repr(s))}") from None
    if kind in ("h", "v") and len(nums) == 3 or kind in ("c", "bl", "bt") and len(nums) == 2:
        return (kind, *nums)
    raise ParseError(f"bad edge id {clip(repr(s))}")


def vertex_to_str(v: Vertex) -> str:
    return f"{v[0]}:{v[1]},{v[2]}"


def str_to_vertex(s: str) -> Vertex:
    try:
        l, rest = s.split(":", 1)
        i, j = rest.split(",")
        return (_ascii_int(l), _ascii_int(i), _ascii_int(j))
    except (ValueError, AttributeError):  # AttributeError: not a string
        raise ParseError(f"bad vertex id {clip(repr(s))}") from None


@functools.lru_cache(maxsize=16)
def _wire(n: int, k: int) -> tuple[tuple[str, str, str], ...]:
    """Each grid-graph edge's id and its two endpoints' ids as text, in edge order."""
    grid = _grid(n, k)
    return tuple((edge_to_str(e), *map(vertex_to_str, uv)) for e, uv in zip(grid.edges, grid.ends))


_edge_of_text = functools.lru_cache(maxsize=1024)(str_to_edge)  # all ids of k(2n^2 + n) <= 1024 edges


def _array(value) -> list:
    if type(value) is not list:
        raise ParseError(f"expected an array, got {clip(json.dumps(value))}")
    return value


def _ints(value, depth: int = 0):
    """``value`` as ``depth`` levels of nested tuples around JSON integers;
    a boolean, float or string where an integer belongs is a ParseError."""
    if depth:
        return tuple(_ints(v, depth - 1) for v in _array(value))
    if type(value) is not int:
        raise ParseError(f"expected an integer, got {clip(json.dumps(value))}")
    return value


def _once(items: tuple, name: Callable[[Any], str]) -> tuple:
    """``items``, or a ParseError that names one listed twice, which a
    constructor would merge silently."""
    if len(set(items)) < len(items):
        raise ParseError(f"{name(next(x for x, c in Counter(items).items() if c > 1))} is listed twice")
    return items


def _object(pairs: list) -> dict:
    """A JSON object as a dict, or a ParseError that names a key listed
    twice, of which ``json.loads`` would keep the last silently."""
    doc = dict(pairs)
    if len(doc) < len(pairs):  # _once raises, naming the key
        _once(tuple(key for key, _ in pairs), lambda key: f"key {clip(json.dumps(key))}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_object)  # json.loads would build one per call


def _triples(value, noun: str) -> tuple:
    """``value`` as a tuple of squares or edges: arrays of three JSON
    integers, none listed twice."""
    triples = _ints(value, 2)
    for t in triples:
        if len(t) != 3:
            raise ParseError(f"expected three integers, got {clip(json.dumps(t))}")
    return _once(triples, lambda t: f"{noun} {clip(json.dumps(t))}")


def _circular(obj: GridGraph | MonotoneTriangleChain) -> BoardSpec:
    return BoardSpec(Shape.CIRCULAR, obj.n, obj.k)


def _ice_from(board: BoardSpec, mapping: dict) -> IceConfiguration:
    graph = GridGraph(board.n, board.k)
    # the grid graph has k(2n^2 + n) edges: checked before they are listed,
    # and with every one of them present no other key can be
    want = board.k * (2 * board.n * board.n + board.n)
    if len(mapping) != want:
        raise ParseError(
            f"orientation maps {len(mapping)} edge ids, not the grid graph's {clip(want)}"
        )
    heads = []
    for (key, u_text, v_text), (u, v) in zip(_wire(board.n, board.k), _grid(board.n, board.k).ends):
        if key not in mapping:
            raise ParseError(f"orientation is missing edge {key}")
        s = mapping[key]
        # any other value ("1:01,1", a number, a vertex off the edge) is parsed, then checked
        heads.append(u if s == u_text else v if s == v_text else str_to_vertex(s))
    return IceConfiguration(graph, tuple(heads))


def _oriented(c: IceConfiguration) -> Iterator[tuple[str, str, str]]:
    """Each edge's id, its tail's id and its head's id as text, in edge order."""
    wire, ends = _wire(c.graph.n, c.graph.k), _grid(c.graph.n, c.graph.k).ends
    for (key, u_text, v_text), (u, _), h in zip(wire, ends, c.heads):
        yield (key, v_text, u_text) if h == u else (key, u_text, v_text)


def _fpl_from(board: BoardSpec, value) -> FPLConfiguration:
    graph = GridGraph(board.n, board.k)
    # a list is unhashable: only strings go through the cache
    edges = _once(tuple(_edge_of_text(s) if type(s) is str else str_to_edge(s) for s in _array(value)),
                  lambda e: f"edge {edge_to_str(e)}")
    # a fully-packed loop holds n^2 k + nk/2 edges: fewer fail before the graph's are listed
    want = board.n * board.n * board.k + board.n * board.k // 2
    if len(edges) < want:
        raise ValidationError(
            "document decodes to an invalid FPLConfiguration",
            [f"fully-packed loop lists {len(edges)} edges, fewer than the {clip(want)} it needs"],
        )
    return FPLConfiguration(graph, edges)


class Family(NamedTuple):
    """One document family: what names it, what it holds and how it is checked."""

    name: str  # the document's "family" value
    alias: str  # its name for `chained-boards convert`
    cls: type
    shapes: tuple[str, ...]  # shapes a document may name; () for a plain ASM, which has only n
    board: Callable[[Any], BoardSpec | None]
    key: str  # the payload's key
    encode: Callable[[Any], Any]  # object -> JSON payload; its tuples are written as arrays
    decode: Callable[[Any, Any], Any]  # (board, or n for a plain ASM; payload) -> object
    problems: Callable[[Any], list[str]]  # diagnostics; empty = valid
    to: dict[str, Callable[[Any], Any]]  # target alias -> direct conversion, the graph `convert` walks


# a matrix row's or a square's text, keyed by value: sound only as the
# constructors admit exact ints, since (True, 0) == (1, 0) with the same hash
_ints_text = functools.lru_cache(maxsize=1024)(json.dumps)  # every row of an ASM with n <= 10


def _matrix_json(mat) -> str:
    """The text of a matrix given as its rows, in any iterable."""
    return "[" + ", ".join(map(_ints_text, mat)) + "]"


def _squares_json(b: int, cols) -> str:
    """The text of board b's squares, one in each row r with a column
    cols[r - 1]; "" for a board with no rook."""
    return ", ".join([f"[{b}, {r}, {c}]" for r, c in enumerate(cols, start=1) if c])


# a matrix's text, keyed by value, so that equal matrices share one str;
# bounded, as more entries gained nothing and cost memory
_matrix_text = functools.lru_cache(maxsize=256)(_matrix_json)


_BOTH = ("linear", "circular")
_CIRCULAR = ("circular",)

FAMILIES = (
    Family(
        "placement", "placement", RookPlacement, _BOTH, lambda p: p.board, "squares",
        lambda p: p.squares,
        lambda board, v: RookPlacement(board, _triples(v, "square")),
        placement_problems,
        {"matrix": placement_to_matrices},
    ),
    Family(
        "chained-permutation", "matrix", ChainedPermutation, _BOTH, lambda cp: cp.board, "matrices",
        lambda cp: cp.matrices,
        lambda board, v: ChainedPermutation(board, _ints(v, 3)),
        chained_asm_problems,  # a chained permutation is a 0/1 chained ASM
        {"placement": matrices_to_placement, "oneline": to_one_line, "matching": to_matching,
         "asm": permutation_to_asm},
    ),
    Family(
        "one-line", "oneline", OneLine, _BOTH, lambda o: o.board, "blocks",
        lambda o: o.blocks,
        lambda board, v: OneLine(board, _ints(v, 2)),
        one_line_problems,
        {"matrix": from_one_line},
    ),
    Family(
        "chain-matching", "matching", ChainMatching, _BOTH, lambda m: m.graph.board, "edges",
        lambda m: m.edges,
        lambda board, v: ChainMatching(ChainGraph(board), _triples(v, "edge")),
        matching_problems,
        {"matrix": from_matching},
    ),
    Family(
        "chained-asm", "asm", ChainedASM, _BOTH, lambda a: a.board, "matrices",
        lambda a: a.matrices,
        lambda board, v: ChainedASM(board, _ints(v, 3)),
        chained_asm_problems,
        {"matrix": asm_to_permutation, "mt": to_monotone_triangles, "ice": to_ice,
         "plain-asm": to_plain_asm},
    ),
    Family(
        "plain-asm", "plain-asm", PlainASM, (), lambda p: None, "matrix",
        lambda p: p.rows,
        lambda n, v: PlainASM(n, _ints(v, 2)),
        plain_asm_problems,
        {},  # the 2n x 2n matrix does not fix the board it came from
    ),
    Family(
        "monotone-triangle-chain", "mt", MonotoneTriangleChain, _CIRCULAR, _circular, "triangles",
        lambda t: t.triangles,
        lambda board, v: MonotoneTriangleChain(board.n, board.k, _ints(v, 3)),
        mt_chain_problems,
        {"asm": from_monotone_triangles},
    ),
    Family(
        "ice", "ice", IceConfiguration, _CIRCULAR, lambda c: _circular(c.graph), "orientation",
        lambda c: {key: head for key, _, head in _oriented(c)},
        _ice_from,
        ice_problems,
        {"asm": from_ice, "fpl": to_fpl},
    ),
    Family(
        "fpl", "fpl", FPLConfiguration, _CIRCULAR, lambda f: _circular(f.graph), "edges",
        lambda f: [key for (key, _, _), m in zip(_wire(f.graph.n, f.graph.k), f._member) if m],
        _fpl_from,
        fpl_problems,
        {"ice": from_fpl},
    ),
)
_BY_NAME = {f.name: f for f in FAMILIES}
_BY_CLASS = {f.cls: f for f in FAMILIES}


def family_of(obj) -> Family:
    """The registry row of ``obj``'s document family."""
    try:
        return _BY_CLASS[type(obj)]
    except KeyError:
        raise ValidationError(f"no canonical document for {type(obj).__name__}") from None


def _head(family: Family, board: BoardSpec | None, payload) -> str:
    """A document's text before its payload: the header and the payload's key."""
    head = f'{{"family": "{family.name}", '
    if board is None:  # a plain ASM: its size is the whole header
        head += f'"n": {len(payload)}'
    else:
        head += f'"shape": "{board.shape.value}", "n": {board.n}, "k": {board.k}'
    return f'{head}, "{family.key}": '


# the text of each part of a matrix or placement payload, the parts _documents joins
_PART_TEXT = {"matrices": _matrix_text, "squares": _ints_text}


def _documents(family: Family, board: BoardSpec | None, payloads: Iterable) -> Iterator[str]:
    """The document of each payload of ``payloads``, in order, as it is
    read, for objects of ``family`` on ``board``: the library's one writer
    loop, as the module docstring describes.  A matrix or placement payload
    is the texts of its matrices or squares, a placement's "" for a board
    with no rook; any other is what ``family.encode`` gives.  The header is
    built once, but a plain ASM's, which holds its size."""
    if family.key in _PART_TEXT:
        head = _head(family, board, None) + "["
        if family.key == "squares":  # without the "" of each board with no rook
            payloads = map(functools.partial(filter, None), payloads)
        for texts in payloads:
            yield f"{head}{', '.join(texts)}]}}\n"
    else:
        for payload in payloads:
            yield f"{_head(family, board, payload)}{json.dumps(payload)}}}\n"


def _payloads(family: Family, objs: Iterable) -> Iterator:
    """What ``_documents`` reads of each object of ``objs``, all of
    ``family``: its matrices' or squares' texts, else its payload."""
    text = _PART_TEXT.get(family.key)
    payloads = map(family.encode, objs)
    return payloads if text is None else (map(text, payload) for payload in payloads)


def _family_board(obj) -> tuple[Family, BoardSpec | None]:
    family = family_of(obj)
    return family, family.board(obj)


def serialize(obj) -> str:
    """The canonical one-line document for any domain object."""
    family, board = _family_board(obj)
    return next(_documents(family, board, _payloads(family, (obj,))))


def serialize_stream(objs: Iterable) -> Iterator[str]:
    """The canonical document of each object of ``objs``, in order, as it is read.

    Each run of objects of one family on equal boards is one call of the
    writer ``_documents`` over their payloads.
    """
    for (family, board), run in itertools.groupby(objs, _family_board):
        yield from _documents(family, board, _payloads(family, run))


def _need(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document is missing {key!r}")
    return doc[key]


def _board_from(doc: dict, shapes: tuple[str, ...]) -> BoardSpec:
    shape = _need(doc, "shape")
    if shape not in shapes:
        raise ParseError(f"shape must be {' or '.join(shapes)}, got {clip(json.dumps(shape))}")
    return BoardSpec(Shape(shape), _ints(_need(doc, "n")), _ints(_need(doc, "k")))


def _checked(family: Family, obj):
    problems = family.problems(obj)
    if problems:
        raise ValidationError(f"document decodes to an invalid {type(obj).__name__}", problems)
    return obj


def deserialize(text: str):
    """Parse a canonical document (or a bare one-line string) and validate it.

    Raises ParseError for text that is not a document of a known family and
    ValidationError for one that decodes to an invalid object, nothing else.
    """
    if type(text) is not str:
        raise ParseError(f"document must be a str, got {clip(text)}")
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty document")
    if not stripped.startswith("{"):
        return _checked(_BY_NAME["one-line"], parse_one_line(stripped))
    try:
        doc = _DECODER.decode(stripped)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at offset {exc.pos}: {exc.msg}") from None
    except ValueError as exc:  # an integer beyond Python's int-conversion digit limit
        raise ParseError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    name = _need(doc, "family")
    family = _BY_NAME.get(name) if type(name) is str else None
    if family is None:
        raise ParseError(f"unknown family {clip(repr(name))}")
    keys = ("family", "n", family.key, *(("shape", "k") if family.shapes else ()))
    for key in doc:
        if key not in keys:  # e.g. a shape, which a plain ASM does not have
            raise ParseError(f"a {name} document takes no key {clip(json.dumps(key))}")
    try:
        where = _board_from(doc, family.shapes) if family.shapes else _ints(_need(doc, "n"))
        return _checked(family, family.decode(where, _need(doc, family.key)))
    except (TypeError, ValueError, IndexError, RecursionError) as exc:
        # e.g. a message quoting a deeply nested value
        raise ParseError(f"malformed {name} payload: {exc}") from None
    except (InputDomainError, UnsupportedDomainError) as exc:
        raise ValidationError(str(exc)) from None


__all__ = [
    "FAMILIES",
    "Family",
    "family_of",
    "serialize",
    "serialize_stream",
    "deserialize",
    "edge_to_str",
    "str_to_edge",
    "vertex_to_str",
    "str_to_vertex",
]
