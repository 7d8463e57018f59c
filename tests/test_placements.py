from __future__ import annotations

import itertools

import pytest

from chainedboards.boards import Square, attacks, circular, linear, max_rooks
from chainedboards.counting import count_placements_formula
from chainedboards.errors import InputDomainError
from chainedboards.placements import (
    RookPlacement,
    _search,
    count_placements_brute,
    enumerate_placements,
    placement_problems,
)
from tests.reference import board_squares, canonical_placement, row_search


def brute_enumerate(board, m):
    """Oracle: filter all m-subsets of squares through placement_problems."""
    out = []
    for combo in itertools.combinations(board_squares(board), m):
        p = RookPlacement(board, combo)
        if not placement_problems(p):
            out.append(p.squares)
    return sorted(out)


def test_validate_placement_examples():
    # a maximum placement with composition (3,2,2) on the circular 5x5 chain
    p = canonical_placement(circular(5, 3), (3, 2, 2))
    assert p.m == 7 and not placement_problems(p)

    two_in_a_row = RookPlacement(linear(2, 1), (Square(1, 1, 1), Square(1, 1, 2)))
    assert placement_problems(two_in_a_row) == ["placement has attacking rooks"]

    diagonal = RookPlacement(circular(2, 1), (Square(1, 2, 2),))
    assert placement_problems(diagonal) == ["placement has attacking rooks"]


def attack_by_definition(board, s, t) -> bool:
    """The paper's attack relation on two distinct squares, written out."""
    if s.board == t.board and (s.row == t.row or s.col == t.col):
        return True
    for a, b in ((s, t), (t, s)):
        # row j of board i-1 attacks column j of board i; circularly board k precedes board 1
        follows = b.board == a.board + 1 or (board.circular and a.board == board.k and b.board == 1)
        if follows and a.row == b.col:
            return True
    return False


def self_attack_by_definition(board, s) -> bool:
    """Circular k = 1 chains the board to itself, so its diagonal self-attacks."""
    return board.circular and board.k == 1 and s.row == s.col


RULE_BOARDS = [
    linear(2, 3), circular(2, 3), circular(3, 1), circular(2, 2), circular(2, 1), linear(3, 2),
    circular(1, 1),
]


@pytest.mark.parametrize("board", RULE_BOARDS, ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_placement_problems_matches_the_pairwise_definition(board):
    squares = list(board_squares(board))
    for s, t in itertools.combinations(squares, 2):
        assert attacks(board, s, t) == attack_by_definition(board, s, t), (s, t)
    for size in range(5):
        for combo in itertools.combinations(squares, size):
            attacking = any(self_attack_by_definition(board, s) for s in combo) or any(
                attack_by_definition(board, s, t) for s, t in itertools.combinations(combo, 2)
            )
            want = ["placement has attacking rooks"] if attacking else []
            assert placement_problems(RookPlacement(board, combo)) == want, combo


def test_enumerate_placements_counts():
    assert len(list(enumerate_placements(linear(2, 1), 2))) == 2
    assert len(list(enumerate_placements(circular(2, 2), 2))) == 8
    assert count_placements_brute(linear(5, 3), 10) == 14400


def test_enumerate_placements_order_and_validity():
    for board in (linear(2, 3), circular(2, 3), circular(3, 1), circular(2, 2)):
        for m in range(max_rooks(board) + 1):
            got = list(enumerate_placements(board, m))
            keys = [p.squares for p in got]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for p in got:
                assert p.m == m and not placement_problems(p)


def test_enumerate_placements_matches_subset_filter():
    for board in (linear(2, 2), circular(2, 2), circular(2, 1), linear(3, 1), circular(3, 3)):
        for m in range(max_rooks(board) + 1):
            assert [p.squares for p in enumerate_placements(board, m)] == brute_enumerate(
                board, m
            ), (board, m)


def test_count_matches_enumeration_length():
    for board in (linear(3, 2), circular(3, 2), circular(2, 4)):
        for m in range(max_rooks(board) + 1):
            assert count_placements_brute(board, m) == len(
                list(enumerate_placements(board, m))
            )


def test_enumeration_composition_set_matches_admissible():
    from tests.reference import admissible_compositions, composition

    for ctor in (linear, circular):
        for n in range(1, 4):
            for k in range(1, 5):
                board = ctor(n, k)
                for m in range(max_rooks(board) + 1):
                    seen = {composition(p) for p in enumerate_placements(board, m)}
                    assert seen == set(admissible_compositions(board, m)), (board, m)


def test_zero_rooks():
    board = circular(4, 3)
    got = list(enumerate_placements(board, 0))
    assert got == [RookPlacement(board, ())]
    assert count_placements_brute(board, 0) == 1


def test_rejects_bad_m():
    with pytest.raises(InputDomainError):
        list(enumerate_placements(linear(2, 2), 9))


def test_formula_oracle_at_spot_checks():
    # (4,2) both shapes at m = max
    lin = linear(4, 2)
    circ = circular(4, 2)
    assert count_placements_brute(lin, max_rooks(lin)) == count_placements_formula(
        lin, max_rooks(lin)
    )
    assert count_placements_brute(circ, max_rooks(circ)) == count_placements_formula(
        circ, max_rooks(circ)
    )


def test_construction_normalizes_unsorted_and_duplicated_squares():
    board = linear(3, 2)
    want = (Square(1, 1, 2), Square(1, 3, 1), Square(2, 2, 3))
    for given in (
        (Square(2, 2, 3), Square(1, 1, 2), Square(1, 3, 1)),  # unsorted
        (Square(1, 1, 2), Square(1, 3, 1), Square(1, 3, 1), Square(2, 2, 3)),  # a duplicate
        ((2, 2, 3), (1, 1, 2), (1, 3, 1), (1, 1, 2)),  # plain tuples, both
        [Square(1, 1, 2), Square(1, 3, 1), Square(2, 2, 3)],  # sorted, but a list
    ):
        p = RookPlacement(board, given)
        assert p.squares == want and all(type(s) is Square for s in p.squares)
    already = RookPlacement(board, want)
    assert already.squares == want and already == RookPlacement(board, want[::-1])


@pytest.mark.parametrize(
    "square",
    [(0, 1, 1), (3, 1, 1), (1, 0, 1), (1, 4, 1), (1, 1, 0), (1, 1, 4)],
)
def test_construction_rejects_out_of_range_squares(square):
    board = linear(3, 2)
    # sorted Squares (the enumerator's form) and unsorted tuples are both checked
    for given in (
        tuple(sorted({Square(1, 2, 2), Square(*square)})),
        ((2, 3, 3), square),
    ):
        with pytest.raises(InputDomainError, match="out of range"):
            RookPlacement(board, given)


# --- squares the search built are checked once ------------------------------


def _last_maximum(board):
    *_, last = enumerate_placements(board, max_rooks(board))
    return last


@pytest.mark.parametrize(
    "squares, message",
    [
        (((True, 1, 1),), "square (True, 1, 1) is not three ints or is out of range for n=3, k=2"),
        ((Square(True, 1, 1),),
         "square Square(board=True, row=1, col=1) is not three ints or is out of range for n=3, k=2"),
        (((1, 1, 1.0),), "square (1, 1, 1.0) is not three ints or is out of range for n=3, k=2"),
    ],
)
def test_squares_equal_to_built_squares_are_checked(squares, message):
    board = linear(3, 2)
    assert Square(1, 1, 1) in next(enumerate_placements(board, 3)).squares
    with pytest.raises(InputDomainError) as info:
        RookPlacement(board, squares)
    assert str(info.value) == message


def test_built_squares_are_taken_only_where_they_are_in_range():
    board = linear(3, 2)
    last = _last_maximum(board)
    assert last.squares == (Square(2, 1, 3), Square(2, 2, 2), Square(2, 3, 1))
    # a square's check reads only the board's n and k
    for same in (board, linear(3, 2), circular(3, 2)):
        assert RookPlacement(same, last.squares).squares == last.squares
    for smaller, where in ((linear(2, 2), "n=2, k=2"), (linear(3, 1), "n=3, k=1")):
        with pytest.raises(InputDomainError) as info:
            RookPlacement(smaller, last.squares)
        assert str(info.value) == f"square Square(board=2, row=1, col=3) is not three ints or is out of range for {where}"


@pytest.mark.parametrize("squares", [(), ((1, 1, 1),)])
def test_placements_check_their_board(squares):
    with pytest.raises(InputDomainError, match=r"^board must be a BoardSpec, got 5$"):
        RookPlacement(5, squares)


# --- the board-by-board search keeps the row search's order ------------------

SMALL = [shape(n, k) for shape in (linear, circular) for n in range(1, 5) for k in range(1, 12 // n + 1)]
WIDE = [shape(n, k) for shape in (linear, circular) for n in range(5, 9) for k in range(1, 8 // n + 1)]


@pytest.mark.parametrize("board", SMALL + WIDE, ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_board_wise_search_matches_the_row_search(board):
    # whole streams where n <= 4 and n * k <= 12, the first 2000 objects where n >= 5
    limit = None if board in SMALL else 2000
    for m in range(board.n * board.k + 1):
        got = [p.squares for p in itertools.islice(enumerate_placements(board, m), limit)]
        assert got == list(itertools.islice(row_search(board, m), limit)), m


# --- a board's options are built only as the search reads them ----------------


def counted_search(board, m, limit=None):
    """The first ``limit`` leaves of the search, and how many options it built
    for them: each option calls the payload once."""
    built = 0

    def payload(b, cols):
        nonlocal built
        built += 1

    leaves = sum(1 for _ in itertools.islice(_search(board, m, payload), limit))
    return leaves, built


def test_a_search_stopped_early_builds_few_options():
    # the first placement leaves board 2 empty, so board 3 has 10! options
    # it may hold; only the first is built
    assert counted_search(linear(10, 3), max_rooks(linear(10, 3)), 1) == (1, 3)


@pytest.mark.parametrize("m, placements", [(0, 1), (1, 3 * 64)])
def test_few_rooks_build_only_the_options_they_use(m, placements):
    # a board's options are pruned to the counts it may hold: with one rook,
    # no board lists its partial permutations of two or more rooks
    leaves, built = counted_search(linear(8, 3), m)
    assert leaves == placements and built <= 2 * placements + 3
