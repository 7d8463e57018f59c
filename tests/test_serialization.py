from __future__ import annotations

import itertools
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedboards.asm import (
    ChainedASM,
    PlainASM,
    enumerate_chained_asm,
    permutation_to_asm,
    to_plain_asm,
)
from chainedboards.boards import BoardSpec, Shape, circular, linear, max_rooks
from chainedboards.errors import ChainedBoardsError, InputDomainError, ParseError, ValidationError, _clip_long_int, clip
from chainedboards.ice import _grid, to_fpl, to_ice
from chainedboards.matchings import ChainGraph, ChainMatching, to_matching
from chainedboards.perms import (
    ChainedPermutation,
    enumerate_chained_permutations,
    placement_to_matrices,
    to_one_line,
)
from chainedboards.placements import RookPlacement, enumerate_placements
from chainedboards.serialization import (
    FAMILIES,
    _wire,
    deserialize,
    edge_to_str,
    family_of,
    serialize,
    serialize_stream,
    str_to_edge,
    vertex_to_str,
)
from chainedboards.triangles import to_monotone_triangles
from tests.reference import canonical_placement, reference_document, split_linear_odd
from tests.worked_examples import MALFORMED, ODD_K_ICE, ONE_LINE_46, OVERSIZED, QT_6, WORKED_46


def sample_objects():
    board = circular(2, 2)
    placement = next(iter(enumerate_placements(board, max_rooks(board))))
    cp = placement_to_matrices(placement)
    asm = WORKED_46
    ice = to_ice(asm)
    yield placement
    yield cp
    yield to_one_line(cp)
    yield to_matching(cp)
    yield asm
    yield to_plain_asm(next(iter(enumerate_chained_asm(circular(2, 1)))))
    yield to_monotone_triangles(asm)
    yield ice
    yield to_fpl(ice)


def test_round_trip_byte_identical():
    for obj in sample_objects():
        text = serialize(obj)
        assert text.endswith("\n") and "\n" not in text[:-1]
        back = deserialize(text)
        assert back == obj
        assert serialize(back) == text


def test_documents_are_canonical_json():
    for obj in sample_objects():
        doc = json.loads(serialize(obj))
        assert list(doc)[0] == "family"
        if "shape" in doc:
            assert list(doc)[1:4] == ["shape", "n", "k"]


def test_one_line_string_accepted():
    o = deserialize(ONE_LINE_46)
    assert o.board == circular(4, 6)
    # and the canonical JSON document for the same object round-trips to it
    assert deserialize(serialize(o)) == o


def test_one_line_46_document_round_trip():
    o = deserialize(ONE_LINE_46)
    from chainedboards.perms import from_one_line

    cp = from_one_line(o)
    assert deserialize(serialize(cp)) == cp


def test_parse_errors():
    with pytest.raises(ParseError):
        deserialize("")
    with pytest.raises(ParseError):
        deserialize('{"family": "placement", "shape": "linear"')  # truncated
    with pytest.raises(ParseError):
        deserialize('{"family": "martian"}')
    with pytest.raises(ParseError):
        deserialize('{"family": "placement", "shape": "linear", "n": 2}')
    with pytest.raises(ParseError):
        deserialize('[1, 2, 3]')


@pytest.mark.parametrize("given", [None, 5, [], b"{}"], ids=repr)
def test_what_is_not_a_str_is_a_parse_error(given):
    with pytest.raises(ParseError, match="^document must be a str, got "):
        deserialize(given)


def test_validation_errors():
    # well-formed JSON, attacking placement
    bad = json.dumps(
        {
            "family": "placement",
            "shape": "linear",
            "n": 2,
            "k": 1,
            "squares": [[1, 1, 1], [1, 1, 2]],
        }
    )
    with pytest.raises(ValidationError):
        deserialize(bad)
    # out-of-range coordinates
    with pytest.raises(ValidationError):
        deserialize(
            json.dumps(
                {
                    "family": "placement",
                    "shape": "linear",
                    "n": 2,
                    "k": 1,
                    "squares": [[1, 3, 1]],
                }
            )
        )
    # a chained ASM whose total misses the maximum
    with pytest.raises(ValidationError) as info:
        deserialize(
            json.dumps(
                {
                    "family": "chained-asm",
                    "shape": "linear",
                    "n": 2,
                    "k": 1,
                    "matrices": [[[1, 0], [0, 0]]],
                }
            )
        )
    assert any("condition (3)" in p for p in info.value.problems)


def test_plain_asm_document():
    p = PlainASM(2, ((0, 1), (1, 0)))
    assert deserialize(serialize(p)) == p
    q6 = PlainASM(6, QT_6)  # the 6x6 quadrant is not itself a plain ASM
    with pytest.raises(ValidationError):
        deserialize(serialize(q6))


def test_canonical_placement_document_stable():
    p = canonical_placement(linear(2, 1), (2,))
    assert (
        serialize(p)
        == '{"family": "placement", "shape": "linear", "n": 2, "k": 1,'
        ' "squares": [[1, 1, 1], [1, 2, 2]]}\n'
    )


def pinned_objects():
    """One small object of every family, by family name: circular(2,2)
    where the family has a board, and an ASM holding a -1."""
    board = circular(2, 2)
    cp = placement_to_matrices(next(iter(enumerate_placements(board, 2))))
    asm = next(a for a in enumerate_chained_asm(board) if any(-1 in r for m in a.matrices for r in m))
    ice = to_ice(asm)
    return {
        "placement": next(iter(enumerate_placements(board, 2))),
        "chained-permutation": cp,
        "one-line": to_one_line(cp),
        "chain-matching": to_matching(cp),
        "chained-asm": asm,
        "plain-asm": PlainASM(3, ((0, 1, 0), (1, -1, 1), (0, 1, 0))),
        "monotone-triangle-chain": to_monotone_triangles(asm),
        "ice": ice,
        "fpl": to_fpl(ice),
    }


_HEAD = '{"family": "%s", "shape": "circular", "n": 2, "k": 2, '
PINNED_DOCUMENTS = {
    "placement": _HEAD % "placement" + '"squares": [[1, 1, 1], [1, 2, 2]]}\n',
    "chained-permutation": _HEAD % "chained-permutation"
    + '"matrices": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]}\n',
    "one-line": _HEAD % "one-line" + '"blocks": [[1, 2], [0, 0]]}\n',
    "chain-matching": _HEAD % "chain-matching" + '"edges": [[1, 1, 1], [1, 2, 2]]}\n',
    "chained-asm": _HEAD % "chained-asm" + '"matrices": [[[0, 0], [0, 1]], [[0, 1], [1, -1]]]}\n',
    "plain-asm": '{"family": "plain-asm", "n": 3, "matrix": [[0, 1, 0], [1, -1, 1], [0, 1, 0]]}\n',
    "monotone-triangle-chain": _HEAD % "monotone-triangle-chain" + '"triangles": [[[3], [2, 4]]]}\n',
    "ice": _HEAD % "ice"
    + '"orientation": {"bl:1,1": "1:1,1", "bl:1,2": "1:2,1", "bt:1,1": "1:0,1", "bt:1,2": "1:0,2",'
    ' "h:1,1,1": "1:1,2", "h:1,2,1": "1:2,2", "v:1,1,1": "1:1,1", "v:1,1,2": "1:1,2",'
    ' "c:1,1": "2:2,1", "c:1,2": "1:2,2", "bl:2,1": "2:1,0", "bl:2,2": "2:2,0",'
    ' "bt:2,1": "2:1,1", "bt:2,2": "2:1,2", "h:2,1,1": "2:1,1", "h:2,2,1": "2:2,2",'
    ' "v:2,1,1": "2:2,1", "v:2,1,2": "2:1,2", "c:2,1": "1:2,1", "c:2,2": "2:2,2"}}\n',
    "fpl": _HEAD % "fpl"
    + '"edges": ["bl:1,1", "bt:1,2", "h:1,2,1", "v:1,1,1", "c:1,1", "c:1,2",'
    ' "bl:2,1", "bt:2,2", "v:2,1,1", "v:2,1,2"]}\n',
}


def test_every_family_document_is_pinned_to_the_byte():
    assert set(PINNED_DOCUMENTS) == {f.name for f in FAMILIES}
    for name, obj in pinned_objects().items():
        assert family_of(obj).name == name
        assert serialize(obj) == PINNED_DOCUMENTS[name], name
        assert reference_document(obj) == PINNED_DOCUMENTS[name], name
        assert deserialize(PINNED_DOCUMENTS[name]) == obj


def test_permutation_asm_documents_distinct():
    cp = placement_to_matrices(next(iter(enumerate_placements(circular(2, 2), 2))))
    asm = permutation_to_asm(cp)
    assert serialize(cp) != serialize(asm)
    assert deserialize(serialize(asm)) == asm


WRITER_CELLS = [shape(n, k) for shape in (linear, circular) for n, k in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]]


@pytest.mark.parametrize("board", WRITER_CELLS, ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_stream_writer_writes_each_enumerated_object_as_serialize_does(board):
    streams = [enumerate_chained_asm(board), enumerate_chained_permutations(board)]
    streams += [enumerate_placements(board, m) for m in range(board.n * board.k + 1)]
    for stream in streams:
        objs = list(stream)
        want = list(map(reference_document, objs))
        assert list(serialize_stream(iter(objs))) == want
        assert list(map(serialize, objs)) == want


def test_stream_writer_rebuilds_from_the_first_changed_matrix_and_on_a_new_header():
    board = linear(2, 3)
    zero, eye, swap, minus = ((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (1, -1))
    zero_again = tuple(list(zero))  # equal to zero, not the same object
    assert zero_again == zero and zero_again is not zero
    objs = [
        ChainedASM(board, (eye, zero, swap)),
        ChainedASM(board, (swap, zero, swap)),  # matrices 2 and 3 held again, matrix 1 changed
        ChainedASM(board, (swap, zero_again, swap)),
        ChainedASM(board, (swap, zero_again, swap)),  # every matrix held again
        ChainedASM(board, (swap, minus, swap)),  # matrix 2 changed, matrices 1 and 3 held again
        ChainedASM(board, (swap, minus, eye)),  # matrix 3 changed alone
        ChainedPermutation(board, (swap, zero, swap)),  # a second family
        ChainedASM(linear(2, 3), (eye, zero, swap)),  # an equal board, another object
        ChainedASM(circular(2, 3), (eye, zero, swap)),  # a second board
        RookPlacement(board, [(1, 1, 1)]),
        to_plain_asm(next(iter(enumerate_chained_asm(circular(2, 1))))),
        WORKED_46,
        ChainedASM(board, (eye, minus, swap)),  # back to the first header, matrix 1 changed
    ]
    for start in range(len(objs)):  # each kind of object first, so each builds the first header
        assert list(serialize_stream(objs[start:])) == list(map(reference_document, objs[start:])), start
    plain = [to_plain_asm(a) for a in itertools.islice(enumerate_chained_asm(circular(2, 4)), 3)] + [PlainASM(6, QT_6)]
    assert list(serialize_stream(plain)) == list(map(reference_document, plain))
    every_family = list(sample_objects())  # each family in turn, each on its own header
    assert list(serialize_stream(every_family)) == list(map(reference_document, every_family))
    assert list(serialize_stream([])) == []
    for stream in ([object()], [objs[0], object()]):  # no family, first or later
        with pytest.raises(ValidationError):
            list(serialize_stream(stream))


@pytest.mark.parametrize("family", [ChainedPermutation, ChainedASM])
def test_a_matrix_document_takes_memory_linear_in_its_length(family):
    # k = 4000: the text before each matrix, kept together, would take about 7k^2/2 = 56 MB
    k = 4000
    obj = family(linear(1, k), tuple(((m % 2,),) for m in range(k)))
    tracemalloc.start()
    try:
        text = serialize(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == reference_document(obj)
    assert peak < 8 * len(text)


# 2 x 2 matrices: the first four are 0/1, so a chained permutation may hold them
WRITER_VALUES = (((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 0)), ((0, 1), (1, -1)))
WRITER_BOARDS = (linear(2, 1), linear(2, 2), circular(2, 3))
# each document: its board (the last index: a new object equal to the board before),
# its class, and how each matrix is made from a value: the matrix the document
# before held there, a new tuple equal to the value, or the value's own tuple
WRITER_STEPS = st.lists(
    st.tuples(
        st.integers(0, len(WRITER_BOARDS)),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(["same", "equal", "kept"]), st.integers(0, 4)), min_size=3, max_size=3),
    ),
    max_size=40,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(steps=WRITER_STEPS)
def test_stream_writer_matches_the_reference_whatever_its_matrices_share(steps):
    # the objects are made as the writer reads them and dropped after, so a
    # freed matrix's id may return on a new one: texts are keyed by value
    want = []

    def objects():
        board, before = WRITER_BOARDS[0], ()
        for b, perm, how in steps:
            board = WRITER_BOARDS[b] if b < len(WRITER_BOARDS) else BoardSpec(board.shape, board.n, board.k)
            mats = []
            for i, (made, v) in enumerate(how[: board.k]):
                value = WRITER_VALUES[v % 4 if perm else v]
                if made == "same" and i < len(before) and (not perm or before[i] in WRITER_VALUES[:4]):
                    mats.append(before[i])
                else:
                    # from a list: a tuple made so reuses the memory of one freed (a generator's does not)
                    mats.append(tuple([tuple(list(row)) for row in value]) if made == "equal" else value)
            obj = (ChainedPermutation if perm else ChainedASM)(board, tuple(mats))
            want.append(reference_document(obj))
            before = obj.matrices
            yield obj

    assert list(serialize_stream(objects())) == want


def test_a_stream_of_new_last_matrices_keeps_bounded_memory():
    # each chained ASM's last matrix is a new tuple that only the writer may keep
    board, eye = linear(2, 2), ((1, 0), (0, 1))

    def peak(count: int) -> int:
        objs = (ChainedASM(board, (eye, ((i % 2, 1 - i % 2), (1 - i % 2, i % 2)))) for i in range(count))
        tracemalloc.start()
        try:
            for _ in serialize_stream(objs):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2048)  # the first stream also fills the module's caches
    assert peak(16384) < 1.1 * peak(4096)


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_raise_parse_errors(text):
    with pytest.raises(ParseError):
        deserialize(text)


@pytest.mark.parametrize(
    "name, says",
    [
        ("square listed twice", "square [1, 1, 1]"),
        ("matching edge listed twice", "edge [1, 1, 1]"),
        ("fpl edge listed twice", "edge c:2,1"),
    ],
)
def test_a_square_or_edge_listed_twice_is_named(name, says):
    # the constructors merge a repeated square or edge; the parse boundary refuses it
    with pytest.raises(ParseError, match=rf"^{re.escape(says)} is listed twice$"):
        deserialize(MALFORMED[name])


@pytest.mark.parametrize("name, key", [("family key listed twice", "family"), ("ice edge key listed twice", "c:1,1")])
def test_an_object_key_listed_twice_is_named(name, key):
    # json.loads alone would keep the last of the two
    with pytest.raises(ParseError, match=f'^key "{key}" is listed twice$'):
        deserialize(MALFORMED[name])


@pytest.mark.parametrize("text", ["h:1,2", "bl:1,1,1", "x:1,1"])
def test_edge_ids_of_another_length_or_kind_are_parse_errors(text):
    with pytest.raises(ParseError, match=f"^bad edge id '{text}'$"):
        str_to_edge(text)


def test_grid_graph_document_with_odd_k_is_invalid():
    # GridGraph raises UnsupportedDomainError, which the CLI would report as a usage error
    with pytest.raises(ValidationError):
        deserialize(ODD_K_ICE)


def test_families_registry_is_one_row_per_class_and_name():
    assert len({f.name for f in FAMILIES}) == len({f.cls for f in FAMILIES}) == len(FAMILIES) == 9
    for obj in sample_objects():
        assert json.loads(serialize(obj))["family"] == family_of(obj).name
    with pytest.raises(ValidationError):
        family_of(linear(2, 2))


def test_placement_to_matrix_and_back_through_the_registry_is_the_identity():
    to = {f.alias: f.to for f in FAMILIES}
    there, back = to["placement"]["matrix"], to["matrix"]["placement"]
    for shape in (linear, circular):
        for n, k in itertools.product(range(1, 4), repeat=2):
            board = shape(n, k)
            for p in enumerate_placements(board, max_rooks(board)):
                assert back(there(p)) == p


def test_every_family_is_checked_by_one_exported_problems_function():
    import sys

    import chainedboards

    for family in FAMILIES:
        check = family.problems
        assert check.__name__.endswith("_problems"), family.name
        assert getattr(sys.modules[check.__module__], check.__name__) is check
        assert check.__name__ in chainedboards.__all__
        assert getattr(chainedboards, check.__name__) is check
    # a chained permutation is checked as a 0/1 chained ASM
    by_name = {f.name: f for f in FAMILIES}
    assert by_name["chained-permutation"].problems is by_name["chained-asm"].problems
    assert not [name for name in chainedboards.__all__ if name.startswith("validate_")]
    gone = (
        "chained_permutation_problems", "build_chain_graph", "build_grid_graph", "matching_size",
        # test-only oracles, now in tests/reference.py
        "enumerate_ice", "enumerate_fpl", "enumerate_mt_chains", "enumerate_matchings",
        "count_max_linear_multinomial", "maximum_compositions", "count_chained_asm",
        # names with no caller in the library, also now in tests/reference.py
        "canonical_placement", "matching_kind", "asm_sum_composition", "split_linear_odd",
        "join_linear_odd", "split_circular_k4", "unfold_qt", "is_admissible_composition",
        # one gluing rule in to_plain_asm and to_monotone_triangles replaced these
        "concat_circular_k4", "fold_qt", "pair_matrices",
    )
    assert not [name for name in gone if hasattr(chainedboards, name)]


def _enumerated_objects() -> list:
    """Objects of every family, enumerated on small boards."""
    out = []
    for board in (linear(2, 2), circular(2, 2), linear(1, 3), circular(3, 1)):
        out += enumerate_placements(board, 1)
        for p in enumerate_placements(board, max_rooks(board)):
            cp = placement_to_matrices(p)
            out += [p, cp, to_one_line(cp), to_matching(cp)]
    out += [part for a in enumerate_chained_asm(linear(3, 1)) for part in split_linear_odd(a)]
    out += enumerate_chained_asm(linear(2, 3))
    for a in enumerate_chained_asm(circular(2, 2)):
        ice = to_ice(a)
        out += [a, to_monotone_triangles(a), ice, to_fpl(ice)]
    return out


ENUMERATED = _enumerated_objects()
CANONICAL_DOCS = sorted({serialize(o) for o in ENUMERATED})

# JSON values of every kind; strings draw on the characters of ids and
# one-line strings, including lookalikes that int() would accept (a small
# alphabet also spares Hypothesis building its Unicode tables)
ID_TEXT = st.text(alphabet="0123456789:,-hvcblt\u0661+_ ", max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | ID_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ID_TEXT, inner, max_size=4),
    max_leaves=8,
)


def test_enumerated_objects_cover_every_family():
    assert {family_of(o).name for o in ENUMERATED} == {f.name for f in FAMILIES}


@settings(derandomize=True, database=None, max_examples=100)
@given(st.sampled_from(ENUMERATED))
def test_round_trip_property(obj):
    text = serialize(obj)
    back = deserialize(text)
    assert back == obj and type(back) is type(obj)
    assert serialize(back) == text


# ints past the interpreter's digit limit for str, built by map: hypothesis reprs its strategies
_HUGE_INTS = st.tuples(st.sampled_from([1, -1, 7]), st.integers(4300, 5000)).map(lambda t: t[0] * 10 ** t[1])
# a coordinate a caller might pass: in range or not, a bool, a float, past the digit limit
_COORDINATE = st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from([1.0, 2.5]), _HUGE_INTS)


@settings(derandomize=True, database=None, max_examples=300)
@given(
    st.sampled_from([linear(2, 2), circular(3, 1), circular(2, 3)]),
    st.sampled_from([RookPlacement, ChainMatching]),
    st.lists(
        st.one_of(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE), st.lists(_COORDINATE, max_size=4)),
        max_size=4,
    ),
)
def test_what_the_constructors_admit_reads_back(board, cls, squares):
    """A placement or matching that can be built is a document that parses
    back to it: the constructors are as strict as the parser."""
    try:
        obj = cls(board, squares) if cls is RookPlacement else cls(ChainGraph(board), squares)
    except InputDomainError:
        return
    problems = family_of(obj).problems(obj)
    if problems:
        with pytest.raises(ValidationError) as info:
            deserialize(serialize(obj))
        assert info.value.problems == problems
    else:
        assert deserialize(serialize(obj)) == obj


@st.composite
def matrix_objects(draw):
    """A chained permutation or chained ASM of any entries in its family's
    domain; the chained conditions need not hold."""
    cls, domain = draw(st.sampled_from([(ChainedPermutation, (0, 1)), (ChainedASM, (-1, 0, 1))]))
    board = BoardSpec(draw(st.sampled_from(Shape)), draw(st.integers(1, 11)), draw(st.integers(1, 3)))
    entry = st.sampled_from(domain)
    row = st.tuples(*[entry] * board.n)
    matrix = st.lists(row, min_size=board.n, max_size=board.n).map(tuple)
    return cls(board, tuple(draw(matrix) for _ in range(board.k)))


@settings(derandomize=True, database=None, max_examples=150)
@given(matrix_objects())
def test_matrix_documents_match_an_independent_encoder(obj):
    doc = {
        "family": "chained-permutation" if type(obj) is ChainedPermutation else "chained-asm",
        "shape": obj.board.shape.value,
        "n": obj.board.n,
        "k": obj.board.k,
        "matrices": [[list(row) for row in mat] for mat in obj.matrices],
    }
    assert serialize(obj) == json.dumps(doc) + "\n"


def _edit(data, doc: dict) -> None:
    """Replace, insert or delete one value at a drawn depth on a drawn path
    from one of the document's keys (not "family") towards a leaf."""
    path = [data.draw(st.sampled_from([k for k in reversed(doc) if k != "family"]))]  # payload first
    node = doc[path[0]]
    while isinstance(node, (list, dict)) and node:
        path.append(data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    depth = len(path) - data.draw(st.integers(0, len(path) - 1))  # simplest draw: the deepest
    holder = doc
    for key in path[: depth - 1]:
        holder = holder[key]
    key, value = path[depth - 1], data.draw(JSON_VALUES)
    action = data.draw(st.sampled_from(("delete", "replace", "insert")))
    if action == "replace":
        holder[key] = value
    elif action == "delete":
        del holder[key]
    elif isinstance(holder, list):
        holder.insert(key, value)
    else:
        holder[data.draw(ID_TEXT)] = value


@settings(derandomize=True, database=None, max_examples=200)
@given(st.data())
def test_any_json_edit_of_a_document_gives_an_object_or_a_library_error(data):
    doc = json.loads(data.draw(st.sampled_from(CANONICAL_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        if len(doc) > 1:
            _edit(data, doc)
    try:
        obj = deserialize(json.dumps(doc))
    except ChainedBoardsError:
        return
    assert deserialize(serialize(obj)) == obj


@settings(derandomize=True, database=None, max_examples=200)
@given(st.text(alphabet="0123456789-,\u0661\u00b2+_ ", min_size=1, max_size=14))
def test_any_one_line_string_gives_an_object_or_a_library_error(text):
    try:
        deserialize(text)
    except ChainedBoardsError:
        pass


def test_integer_beyond_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="^bad JSON: ") as info:
        deserialize(OVERSIZED["integer beyond the digit limit"])
    assert len(str(info.value)) < 200


def test_fpl_and_ice_edge_counts_match_the_grid_graph():
    for n, k in ((1, 2), (2, 2), (2, 4), (3, 2), (3, 4)):
        ice = to_ice(next(iter(enumerate_chained_asm(circular(n, k)))))
        assert len(to_fpl(ice).chosen) == n * n * k + n * k // 2
        assert len(json.loads(serialize(ice))["orientation"]) == k * (2 * n * n + n)


def test_fpl_with_too_few_edges_fails_with_one_problem():
    with pytest.raises(ValidationError) as info:
        deserialize(OVERSIZED["fpl with n = 400 and no edges"])
    assert info.value.problems == ["fully-packed loop lists 0 edges, fewer than the 320400 it needs"]
    doc = json.loads(serialize(to_fpl(to_ice(WORKED_46))))
    doc["edges"].pop()
    with pytest.raises(ValidationError) as info:
        deserialize(json.dumps(doc))
    assert len(info.value.problems) == 1


def test_ice_with_another_edge_count_is_a_parse_error():
    with pytest.raises(ParseError, match="^orientation maps 0 edge ids, not the grid graph's 640800$"):
        deserialize(OVERSIZED["ice with n = 400 and no edges"])
    doc = json.loads(serialize(to_ice(WORKED_46)))
    doc["orientation"]["bl:9,9"] = "9:9,0"
    with pytest.raises(ParseError, match="^orientation maps"):
        deserialize(json.dumps(doc))
    del doc["orientation"]["bl:1,1"]  # the count is right again, with an unknown edge
    with pytest.raises(ParseError, match="^orientation is missing edge bl:1,1$"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize(
    "name, error",
    [("ice with n = 400 and no edges", ParseError), ("fpl with n = 400 and no edges", ValidationError)],
)
def test_oversized_grid_documents_are_rejected_before_any_table_is_built(name, error):
    # n = 400 has 640800 edges: their per-graph tables would take hundreds of MB
    _grid.cache_clear()
    _wire.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(error):
            deserialize(OVERSIZED[name])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert _grid.cache_info().currsize == _wire.cache_info().currsize == 0


@pytest.mark.parametrize("n, k", [(1, 2), (2, 4), (3, 2), (3, 4), (2, 8)])
def test_ice_and_fpl_documents_are_json_of_their_edge_and_vertex_ids(n, k):
    for a in itertools.islice(enumerate_chained_asm(circular(n, k)), 0, 140, 7):
        ice = to_ice(a)
        fpl = to_fpl(ice)
        edges, picked = ice.graph.edges(), set(fpl.chosen)
        header = {"shape": "circular", "n": n, "k": k}
        orientation = {edge_to_str(e): vertex_to_str(h) for e, h in zip(edges, ice.heads)}
        assert serialize(ice) == json.dumps({"family": "ice", **header, "orientation": orientation}) + "\n"
        chosen = [edge_to_str(e) for e in edges if e in picked]
        assert serialize(fpl) == json.dumps({"family": "fpl", **header, "edges": chosen}) + "\n"
        assert deserialize(serialize(ice)) == ice and deserialize(serialize(fpl)) == fpl


def test_ice_heads_other_than_the_endpoint_texts_are_parsed_and_checked():
    text = serialize(to_ice(WORKED_46))
    assert '"bl:1,1": "1:1,1"' in text
    padded = text.replace('"bl:1,1": "1:1,1"', '"bl:1,1": "1:01,1"')
    assert deserialize(padded) == to_ice(WORKED_46)
    assert serialize(deserialize(padded)) == text
    with pytest.raises(ParseError, match="^bad vertex id 5$"):
        deserialize(text.replace('"bl:1,1": "1:1,1"', '"bl:1,1": 5'))
    with pytest.raises(ValidationError) as info:
        deserialize(text.replace('"bl:1,1": "1:1,1"', '"bl:1,1": "1:2,2"'))
    assert info.value.problems == ["(1, 2, 2) is not an endpoint of edge ('bl', 1, 1)"]


LONG = "x" * 100000


@pytest.mark.parametrize(
    "text",
    [
        OVERSIZED["long non-JSON"],
        "1,2-" + LONG + "-",  # a bad entry of a comma-separated block
        LONG + "--",  # an empty block
        json.dumps({"family": LONG}),
        json.dumps({"family": "chained-asm", "shape": LONG}),
        json.dumps({"family": "chained-asm", "shape": "linear", "n": LONG}),
        json.dumps({"family": "chained-asm", "shape": "linear", "n": 1, "k": 1, "matrices": LONG}),
        json.dumps({"family": "fpl", "shape": "circular", "n": 1, "k": 2, "edges": [LONG] * 3}),
        serialize(to_ice(WORKED_46)).replace('"1:1,1"', json.dumps(LONG), 1),
    ],
    ids=["non-JSON", "block entry", "empty block", "family", "shape", "integer", "array", "edge", "vertex"],
)
def test_parse_errors_quote_at_most_the_start_of_long_input(text):
    with pytest.raises(ParseError) as info:
        deserialize(text)
    assert len(str(info.value)) < 200 and "characters)" in str(info.value)


def test_parse_errors_quote_short_input_whole():
    with pytest.raises(ParseError, match=r"^bad block '1x': expected ASCII digits, got 'x'$"):
        deserialize("1x-")
    with pytest.raises(ParseError, match=r"^unknown family 'chained-bsm'$"):
        deserialize('{"family": "chained-bsm"}')
    with pytest.raises(ParseError, match=r'^shape must be circular, got "linear"$'):
        deserialize('{"family": "fpl", "shape": "linear"}')


def test_clip_describes_ints_beyond_the_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts ints of any length")
    cases = []  # (value, its decimal text), built without str()
    for digits in (limit + 1, limit + 2, 2 * limit + 1):
        cases += [
            (10 ** (digits - 1), "1" + "0" * (digits - 1)),
            (10**digits - 1, "9" * digits),
            (7 * 10 ** (digits - 1) + 12345, "7" + "0" * (digits - 6) + "12345"),
        ]
    cases += [(-value, "-" + text) for value, text in cases]
    for value, text in cases:
        with pytest.raises(ValueError):
            str(value)
        assert clip(value) == f"{text[:40]}… ({len(text)} characters)"
    assert clip(10**limit, limit=5) == f"10000… ({limit + 1} characters)"


def test_the_digit_estimate_of_a_long_int_is_never_short():
    # _clip_long_int only lowers its first estimate, from the bit length: the
    # largest int of each bit length is where a short one would show
    for bits in range(1, 4000):
        value = (1 << bits) - 1
        assert _clip_long_int(value, 1).endswith(f" ({len(str(value))} characters)"), bits


_NESTED_HUGE_INTS = st.recursive(
    st.one_of(st.integers(), _HUGE_INTS, st.text(max_size=3)),
    lambda children: st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple)),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=200)
@given(_NESTED_HUGE_INTS)
def test_clip_never_raises_on_tuples_and_lists_of_huge_ints(value):
    text = clip(value)
    assert len(text) < 80
