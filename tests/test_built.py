"""Objects the library builds without their constructor's checks
(``boards._built``) are valid by construction: the public constructor,
given the same fields, returns an equal object, and the family's check
finds no problem.

Every cell with n * k <= 8 of both shapes is searched.  A stream of more
than ``LIMIT`` objects is checked on its first ``LIMIT`` only: the chained
ASMs of linear(8,1) number 10850216.  Every square is still reached, by
the one-rook placements.  The chained permutations streamed straight from
the placement search are compared whole with the checked conversion.
"""

from __future__ import annotations

import itertools

import pytest

from chainedboards.asm import ChainedASM, chained_asm_problems, enumerate_chained_asm
from chainedboards.boards import circular, linear, max_rooks
from chainedboards.matchings import from_matching, to_matching
from chainedboards.perms import (
    ChainedPermutation,
    enumerate_chained_permutations,
    from_one_line,
    placement_to_matrices,
    to_one_line,
)
from chainedboards.placements import RookPlacement, enumerate_placements, placement_problems

LIMIT = 300
CELLS = [shape(n, k) for shape in (linear, circular) for n in range(1, 9) for k in range(1, 8 // n + 1)]


def _same_as_public(obj, cls, *fields):
    """``obj`` is a ``cls`` equal to, and written like, what ``cls`` makes of its fields."""
    assert type(obj) is cls
    public = cls(*fields)
    assert public == obj and repr(public) == repr(obj)


@pytest.mark.parametrize("board", CELLS, ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_built_objects_equal_what_the_constructors_make_and_are_valid(board):
    for a in itertools.islice(enumerate_chained_asm(board), LIMIT):
        _same_as_public(a, ChainedASM, a.board, a.matrices)
        assert chained_asm_problems(a) == []
    for m in range(board.n * board.k + 1):
        for p in itertools.islice(enumerate_placements(board, m), LIMIT):
            _same_as_public(p, RookPlacement, p.board, p.squares)
            assert p.m == m and placement_problems(p) == []
    for p in itertools.islice(enumerate_placements(board, max_rooks(board)), LIMIT):
        cp = placement_to_matrices(p)
        for built in (cp, from_one_line(to_one_line(cp)), from_matching(to_matching(cp))):
            _same_as_public(built, ChainedPermutation, cp.board, built.matrices)
            assert built == cp and chained_asm_problems(built) == []


@pytest.mark.parametrize("board", CELLS, ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_streamed_permutations_are_the_checked_conversions_of_the_maximum_placements(board):
    # circular(1,1) admits no rook: its one chained permutation is the zero matrix
    converted = map(placement_to_matrices, enumerate_placements(board, max_rooks(board)))
    streamed = enumerate_chained_permutations(board)
    count = 0
    for count, (cp, want) in enumerate(itertools.zip_longest(streamed, converted), start=1):
        assert cp == want and repr(cp) == repr(want)
        if count <= LIMIT:
            _same_as_public(cp, ChainedPermutation, cp.board, cp.matrices)
    assert count >= 1
