from __future__ import annotations

import re

import pytest

from chainedboards.asm import PlainASM, enumerate_chained_asm
from chainedboards.boards import circular, linear
from chainedboards.errors import UnsupportedDomainError
from chainedboards.ice import GridGraph, _grid, to_fpl, to_ice
from chainedboards.matchings import ChainGraph, ChainMatching, to_matching
from chainedboards.perms import from_one_line, parse_one_line
from chainedboards.rendering import render
from chainedboards.serialization import FAMILIES, family_of, str_to_vertex, vertex_to_str
from chainedboards.triangles import to_monotone_triangles
from tests.reference import canonical_placement
from tests.test_serialization import sample_objects
from tests.worked_examples import ONE_LINE_46, WORKED_46


def test_ascii_placement_grid():
    text = render(canonical_placement(linear(2, 1), (2,)), "ascii")
    assert text == "board 1\nR.\n.R\n"


def test_ascii_board_and_matrices():
    assert render(linear(2, 2), "ascii").count(".") == 8
    matrices = render(WORKED_46, "ascii")
    assert "matrix 6" in matrices and "-1" in matrices


def test_ascii_triangles():
    text = render(to_monotone_triangles(WORKED_46), "ascii")
    assert "triangle 3" in text
    assert "1 3 5 8" in text.replace("  ", " ")


def test_dot_chain_graph_counts():
    dot = render(ChainGraph(circular(2, 2)), "dot")
    assert dot.startswith("graph chain {")
    assert len(re.findall(r'^\s+"\d+:\d+";$', dot, re.M)) == 4
    assert len(re.findall(r" -- ", dot)) == 8


def test_dot_matching_marks_matched_edges():
    cp = from_one_line(parse_one_line("12-00-"))
    dot = render(to_matching(cp), "dot")
    assert dot.count("style=bold") == 2


def test_dot_grid_graph():
    g = GridGraph(2, 2)
    dot = render(g, "dot")
    assert len(re.findall(r" -- ", dot)) == len(g.edges())


def test_dot_ice_has_two_in_per_interior_vertex():
    ice = to_ice(WORKED_46)
    dot = render(ice, "dot")
    heads = re.findall(r'-> "([^"]+)"', dot)
    indeg: dict[str, int] = {}
    for h in heads:
        indeg[h] = indeg.get(h, 0) + 1
    for v in _grid(ice.graph.n, ice.graph.k).interior:
        assert indeg[vertex_to_str(v)] == 2
    # identifiers survive the string form
    for h in heads:
        assert vertex_to_str(str_to_vertex(h)) == h


def test_dot_fpl_lists_chosen_edges_only():
    fpl = to_fpl(to_ice(WORKED_46))
    dot = render(fpl, "dot")
    assert len(re.findall(r" -- ", dot)) == len(fpl.chosen)


def test_unsupported_pairings_rejected():
    with pytest.raises(UnsupportedDomainError):
        render(ChainGraph(circular(2, 2)), "ascii")
    with pytest.raises(UnsupportedDomainError):
        render(WORKED_46, "dot")
    with pytest.raises(UnsupportedDomainError):
        render(WORKED_46, "svg")


def test_renders_deterministic():
    a = render(to_ice(WORKED_46), "dot")
    b = render(to_ice(WORKED_46), "dot")
    assert a == b


def test_one_line_ascii_is_wire_format():
    o = parse_one_line(ONE_LINE_46)
    assert render(o, "ascii") == ONE_LINE_46 + "\n"


SAMPLES = {family_of(obj).name: obj for obj in sample_objects()}


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_every_family_renders_in_exactly_one_format(family):
    obj = SAMPLES[family.name]
    rendered, refused = [], []
    for fmt in ("ascii", "dot"):
        try:
            assert render(obj, fmt).endswith("\n")
            rendered.append(fmt)
        except UnsupportedDomainError as exc:
            assert str(exc) == f"no {fmt} rendering for {family.cls.__name__}"
            refused.append(fmt)
    assert len(rendered) == len(refused) == 1


def test_ascii_plain_asm():
    assert render(PlainASM(3, ((0, 1, 0), (1, -1, 1), (0, 1, 0))), "ascii") == (
        " 0  1  0\n 1 -1  1\n 0  1  0\n"
    )


def _smallest_ice():
    return to_ice(next(enumerate_chained_asm(circular(1, 2))))


# the exact bytes of every dot rendering, one small object each
DOT_PINS = [
    (
        lambda: ChainGraph(linear(2, 1)),
        'graph chain {\n  "0:1";\n  "0:2";\n  "1:1";\n  "1:2";\n'
        '  "1:1" -- "0:1" [label="1,1,1"];\n  "1:1" -- "0:2" [label="1,1,2"];\n'
        '  "1:2" -- "0:1" [label="1,2,1"];\n  "1:2" -- "0:2" [label="1,2,2"];\n}\n',
    ),
    (
        lambda: ChainMatching(ChainGraph(circular(2, 1)), ((1, 1, 2),)),
        'graph chain {\n  "1:1";\n  "1:2";\n'
        '  "1:1" -- "1:1" [label="1,1,1"];\n  "1:1" -- "1:2" [label="1,1,2", style=bold];\n'
        '  "1:2" -- "1:1" [label="1,2,1"];\n  "1:2" -- "1:2" [label="1,2,2"];\n}\n',
    ),
    (
        lambda: GridGraph(1, 2),
        'graph grid {\n  "1:1,1";\n  "2:1,1";\n  "1:1,0";\n  "1:0,1";\n  "2:1,0";\n  "2:0,1";\n'
        '  "1:1,0" -- "1:1,1" [label="bl:1,1"];\n  "1:0,1" -- "1:1,1" [label="bt:1,1"];\n'
        '  "1:1,1" -- "2:1,1" [label="c:1,1"];\n  "2:1,0" -- "2:1,1" [label="bl:2,1"];\n'
        '  "2:0,1" -- "2:1,1" [label="bt:2,1"];\n  "2:1,1" -- "1:1,1" [label="c:2,1"];\n}\n',
    ),
    (
        _smallest_ice,
        'digraph ice {\n  "1:1,1";\n  "2:1,1";\n  "1:1,0";\n  "1:0,1";\n  "2:1,0";\n  "2:0,1";\n'
        '  "1:1,0" -> "1:1,1" [label="bl:1,1"];\n  "1:1,1" -> "1:0,1" [label="bt:1,1"];\n'
        '  "1:1,1" -> "2:1,1" [label="c:1,1"];\n  "2:1,1" -> "2:1,0" [label="bl:2,1"];\n'
        '  "2:0,1" -> "2:1,1" [label="bt:2,1"];\n  "2:1,1" -> "1:1,1" [label="c:2,1"];\n}\n',
    ),
    (
        lambda: to_fpl(_smallest_ice()),
        'graph fpl {\n  "1:1,1";\n  "2:1,1";\n  "1:1,0";\n  "1:0,1";\n  "2:1,0";\n  "2:0,1";\n'
        '  "1:1,0" -- "1:1,1" [label="bl:1,1"];\n  "2:1,0" -- "2:1,1" [label="bl:2,1"];\n'
        '  "2:1,1" -- "1:1,1" [label="c:2,1"];\n}\n',
    ),
]


@pytest.mark.parametrize(
    "make, want", DOT_PINS, ids=["chain-graph", "matching", "grid-graph", "ice", "fpl"]
)
def test_dot_bytes_pinned(make, want):
    assert render(make(), "dot") == want
