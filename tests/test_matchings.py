from __future__ import annotations

import pytest

from chainedboards.boards import circular, linear, max_rooks
from chainedboards.counting import count_max
from chainedboards.errors import ValidationError
from chainedboards.matchings import ChainGraph, ChainMatching, from_matching, matching_problems, to_matching
from chainedboards.perms import from_one_line, parse_one_line, placement_to_matrices
from chainedboards.placements import enumerate_placements
from tests.reference import enumerate_matchings, matching_kind


def max_perms(board):
    for p in enumerate_placements(board, max_rooks(board)):
        yield placement_to_matrices(p)


def test_chain_graph_shape():
    g = ChainGraph(circular(2, 2))
    assert len(list(g.vertices())) == 4
    assert len(list(g.edges())) == 8  # parallel edges kept distinct
    assert not any(u == v for u, v in map(g.endpoints, g.edges()))

    loops = ChainGraph(circular(2, 1))
    assert [e for e in loops.edges() if len(set(loops.endpoints(e))) == 1] == [(1, 1, 1), (1, 2, 2)]

    lin = ChainGraph(linear(3, 2))
    assert len(list(lin.vertices())) == 9
    assert len(list(lin.edges())) == 18


def test_matching_round_trip_exhaustive():
    for board in (linear(2, 2), circular(2, 2), linear(3, 3), circular(3, 3), circular(2, 1)):
        for cp in max_perms(board):
            m = to_matching(cp)
            assert not matching_problems(m), matching_problems(m)
            assert from_matching(m) == cp


def test_from_matching_refuses_an_invalid_matching():
    bad = ChainMatching(ChainGraph(linear(2, 2)), ((1, 1, 1), (2, 1, 1)))
    with pytest.raises(ValidationError, match="^invalid chain matching$") as info:
        from_matching(bad)
    assert info.value.problems == ["vertex (1, 1) is covered twice"]


def test_matching_kinds():
    assert matching_kind(linear(3, 3)) == "perfect"
    assert matching_kind(linear(3, 2)) == "leaves-n-unmatched"
    assert matching_kind(circular(3, 3)) == "near-perfect"
    assert matching_kind(circular(3, 2)) == "perfect"
    assert matching_kind(circular(2, 3)) == "perfect"


def test_unmatched_vertex_counts():
    # perfect for k odd linear; leaves n unmatched for k even linear;
    # near-perfect circular when n and k both odd
    cases = [
        (linear(2, 3), 0),
        (linear(2, 2), 2),
        (circular(3, 3), 1),
        (circular(2, 2), 0),
    ]
    for board, expect_unmatched in cases:
        for cp in max_perms(board):
            m = to_matching(cp)
            covered = set()
            for e in m.edges:
                covered.update(m.graph.endpoints(e))
            assert len(list(m.graph.vertices())) - len(covered) == expect_unmatched


def test_one_line_46_matching_is_perfect():
    cp = from_one_line(parse_one_line("0200-3104-3000-3420-0004-1032-"))
    m = to_matching(cp)
    assert not matching_problems(m)
    covered = set()
    for e in m.edges:
        covered.update(m.graph.endpoints(e))
    assert covered == set(m.graph.vertices())


def test_matching_counts_match_closed_forms():
    boards = [
        ctor(n, k)
        for ctor in (linear, circular)
        for n in range(1, 3)
        for k in range(1, 5)
    ] + [linear(3, 2), circular(3, 2), linear(3, 3), circular(3, 3)]
    for board in boards:
        got = 0
        for m in enumerate_matchings(board):
            assert not matching_problems(m)
            got += 1
        assert got == count_max(board), board


def test_circular_12_near_perfect_triangle():
    # G for n=1, k=3 is a triangle; its near-perfect matchings are its 3 edges
    board = circular(1, 3)
    found = list(enumerate_matchings(board))
    assert len(found) == 3
    assert all(len(m.edges) == 1 for m in found)


def test_circular_k2_doubled_graph_has_8_perfect_matchings():
    assert sum(1 for _ in enumerate_matchings(circular(2, 2))) == 8
