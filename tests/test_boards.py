from __future__ import annotations

import itertools
import sys

import pytest

from chainedboards.asm import ChainedASM, PlainASM, count_chained_asm_tm, enumerate_chained_asm
from chainedboards.boards import (
    BoardSpec,
    Square,
    _check_size,
    attacks,
    circular,
    linear,
    max_rooks,
    rook_lines,
    suffix_bound_table,
)
from chainedboards.counting import count_max, count_placements_formula
from chainedboards.errors import InputDomainError, UnsupportedDomainError
from chainedboards.ice import FPLConfiguration, GridGraph, IceConfiguration
from chainedboards.matchings import ChainGraph, ChainMatching
from chainedboards.perms import ChainedPermutation, OneLine, enumerate_chained_permutations
from chainedboards.placements import RookPlacement, count_placements_brute, enumerate_placements, placement_problems
from chainedboards.rendering import render
from chainedboards.triangles import MonotoneTriangleChain
from tests.reference import (
    admissible_compositions,
    board_squares,
    canonical_placement,
    composition,
    is_admissible_composition,
    maximum_compositions,
    suffix_bound_by_max,
)

ALL_SMALL = [
    ctor(n, k)
    for ctor in (linear, circular)
    for n in range(1, 5)
    for k in range(1, 6)
]


def brute_admissible(board, m):
    """Oracle: filter every length-k sequence against the adjacency bound."""
    out = []
    for parts in itertools.product(range(board.n + 1), repeat=board.k):
        if sum(parts) != m:
            continue
        prev = parts[-1] if board.circular else 0
        if all(prev_a + a <= board.n for prev_a, a in zip([prev] + list(parts), parts)):
            out.append(parts)
    return out


def test_attacks_same_board():
    b = linear(5, 3)
    assert attacks(b, Square(1, 2, 3), Square(1, 2, 5))
    assert attacks(b, Square(1, 2, 3), Square(1, 4, 3))
    assert not attacks(b, Square(1, 2, 3), Square(1, 4, 5))


def test_attacks_chaining_examples():
    b = linear(5, 3)
    # row 2 of board 1 attacks column 2 of board 2
    assert attacks(b, Square(1, 2, 3), Square(2, 4, 2))
    # non-adjacent boards never attack
    assert not attacks(b, Square(1, 2, 3), Square(3, 2, 3))


def test_attacks_circular_wrap_and_self():
    b = circular(5, 3)
    # board 0 is board 3: its rows attack columns of board 1
    assert attacks(b, Square(3, 4, 1), Square(1, 2, 4))
    assert not attacks(linear(5, 3), Square(3, 4, 1), Square(1, 2, 4))
    # circular k=1: the diagonal self-attacks
    one = circular(2, 1)
    assert attacks(one, Square(1, 1, 1), Square(1, 1, 1))


def test_attacks_symmetry_exhaustive():
    for board in [linear(3, 3), circular(3, 3), circular(2, 1), circular(2, 2)]:
        squares = list(board_squares(board))
        for s, t in itertools.combinations(squares, 2):
            assert attacks(board, s, t) == attacks(board, t, s)


def test_attacks_rejects_out_of_range():
    b = linear(2, 2)
    with pytest.raises(InputDomainError):
        attacks(b, Square(1, 1, 3), Square(1, 1, 1))
    with pytest.raises(InputDomainError):
        attacks(b, Square(3, 1, 1), Square(1, 1, 1))


NOT_SQUARES = [
    5, (1, 1), (1, 1, 1, 1), (1, 1.5, 1), (1, True, 1), (1, 10**5000, 1), (0, 1, 1), (1, 1, 3),
    {1, 2, 10**5000},  # a set, and one that str() cannot write
]


@pytest.mark.parametrize("given", [(s,) for s in NOT_SQUARES] + [5, None])
@pytest.mark.parametrize("cls", [RookPlacement, ChainMatching])
def test_constructors_reject_what_is_not_a_set_of_squares(cls, given):
    board = linear(2, 2)
    with pytest.raises(InputDomainError) as info:
        cls(board, given) if cls is RookPlacement else cls(ChainGraph(board), given)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: OneLine(linear(2, 1), 5), InputDomainError),
        (lambda: PlainASM(2, 5), InputDomainError),
        (lambda: PlainASM(2, (5, 6)), InputDomainError),
        (lambda: ChainedASM(linear(2, 1), 5), InputDomainError),
        (lambda: ChainedASM(linear(2, 1), (5,)), InputDomainError),
        (lambda: MonotoneTriangleChain(2, 2, (5,)), InputDomainError),
        (lambda: IceConfiguration(GridGraph(2, 2), (5,) * 20), InputDomainError),
        (lambda: FPLConfiguration(GridGraph(2, 2), 5), InputDomainError),
        (lambda: BoardSpec(10**5000, 1, 1), InputDomainError),  # a shape str() cannot write
        (lambda: render(linear(1, 1), 10**5000), UnsupportedDomainError),
        (lambda: RookPlacement(5, ()), InputDomainError),
        (lambda: RookPlacement(5, ((1, 1, 1),)), InputDomainError),
        (lambda: ChainedPermutation(5, ()), InputDomainError),
        (lambda: ChainedASM(5, ()), InputDomainError),
        (lambda: OneLine(5, ()), InputDomainError),
        (lambda: ChainGraph(5), InputDomainError),
        (lambda: ChainMatching(5, ()), InputDomainError),
        (lambda: ChainMatching(linear(2, 2), ()), InputDomainError),
        (lambda: IceConfiguration(5, ()), InputDomainError),
        (lambda: FPLConfiguration(5, ()), InputDomainError),
        (lambda: count_max(5), InputDomainError),
        (lambda: count_placements_formula(5, 1), InputDomainError),
        (lambda: count_chained_asm_tm(5), InputDomainError),
        (lambda: max_rooks(5), InputDomainError),
        (lambda: next(enumerate_placements(5, 1)), InputDomainError),
        (lambda: next(enumerate_chained_asm(5)), InputDomainError),
        (lambda: attacks(5, (1, 1, 1), (1, 1, 1)), InputDomainError),
        (lambda: rook_lines(5, Square(2, 1, 1)), InputDomainError),  # past board 1 no field is read
        (lambda: suffix_bound_table(5), InputDomainError),
    ],
    ids=["one-line", "plain ASM", "plain ASM row", "chained ASM", "chained ASM matrix",
         "triangle chain", "ice", "fpl", "board shape", "render format",
         "placement board", "placement board with a square", "permutation board", "chained ASM board",
         "one-line board", "chain graph board", "matching graph", "matching board as graph", "ice graph",
         "fpl graph", "count_max board", "formula board", "transfer board", "max_rooks board",
         "placement search board", "chained ASM search board", "attacks board", "rook_lines board",
         "suffix bound board"],
)
def test_constructors_raise_only_library_errors(make, error):
    with pytest.raises(error) as info:
        make()
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("s", NOT_SQUARES)
def test_attacks_and_chain_graph_share_the_rule(s):
    board = linear(2, 2)
    with pytest.raises(InputDomainError):
        attacks(board, s, (1, 1, 1))
    with pytest.raises(InputDomainError):
        ChainGraph(board).endpoints(s)


@pytest.mark.parametrize(
    "call",
    [
        lambda board: count_placements_formula(board, 1),
        count_max,
        lambda board: count_placements_brute(board, 1),
        lambda board: next(enumerate_placements(board, 1)),
        lambda board: next(enumerate_chained_permutations(board)),
        lambda board: next(enumerate_chained_asm(board)),
    ],
    ids=["formula", "closed", "brute", "placements", "perms", "asm"],
)
@pytest.mark.parametrize("board", [linear(10**20, 1), circular(2, sys.maxsize // 2 + 1)], ids=str)
def test_a_board_of_more_than_sys_maxsize_squares_is_refused_before_any_work(call, board):
    with pytest.raises(UnsupportedDomainError, match=r"^n \* k must be at most "):
        call(board)


def test_the_size_check_takes_a_board_of_sys_maxsize_squares():
    _check_size(linear(sys.maxsize, 1))
    with pytest.raises(InputDomainError, match="^board must be a BoardSpec"):
        _check_size((sys.maxsize, 1))


def test_board_spec_rejects_bad_dimensions():
    with pytest.raises(InputDomainError):
        linear(0, 1)
    with pytest.raises(InputDomainError):
        circular(1, 0)
    # a bool or float equal to a valid size is no size
    for n, k in ((True, 1), (2.0, 1), (1, True), (1, 2.0)):
        with pytest.raises(InputDomainError, match="must be an int"):
            linear(n, k)


def test_max_rooks_values():
    assert max_rooks(linear(5, 3)) == 10
    assert max_rooks(circular(4, 6)) == 12
    assert max_rooks(circular(5, 3)) == 7
    assert max_rooks(linear(4, 4)) == 8
    assert max_rooks(circular(3, 1)) == 1


def test_suffix_bound_table_is_the_max_over_each_boards_count():
    # suffix_bound_table takes each entry's max at the top count; the
    # reference takes it over every count
    for board in (shape(n, k) for shape in (linear, circular) for n in range(1, 9) for k in range(1, 9)):
        assert suffix_bound_table(board) == suffix_bound_by_max(board), board


def test_admissible_compositions_examples():
    assert (1, 4, 1) in set(admissible_compositions(circular(5, 3), 6))
    assert list(admissible_compositions(circular(5, 3), 7)) == [
        (2, 2, 3),
        (2, 3, 2),
        (3, 2, 2),
    ]
    assert list(admissible_compositions(linear(1, 1), 1)) == [(1,)]
    assert list(admissible_compositions(linear(2, 1), 0)) == [(0,)]


def test_admissible_compositions_match_brute_filter():
    for board in ALL_SMALL:
        for m in range(board.n * board.k + 1):
            got = list(admissible_compositions(board, m))
            assert got == sorted(got)
            assert got == sorted(brute_admissible(board, m))


def test_admissible_compositions_empty_above_max():
    for ctor in (linear, circular):
        for n in range(1, 6):
            for k in range(1, 7):
                board = ctor(n, k)
                top = max_rooks(board)
                for m in range(top + 1, board.n * board.k + 1):
                    assert list(admissible_compositions(board, m)) == []


def test_maximum_compositions_examples():
    assert set(maximum_compositions(circular(5, 3))) == {(2, 3, 2), (2, 2, 3), (3, 2, 2)}
    assert list(maximum_compositions(linear(5, 3))) == [(5, 0, 5)]
    assert set(maximum_compositions(circular(2, 2))) == {(2, 0), (1, 1), (0, 2)}
    assert list(maximum_compositions(circular(4, 3))) == [(2, 2, 2)]


def test_maximum_compositions_agree_with_admissible():
    for ctor in (linear, circular):
        for n in range(1, 6):
            for k in range(1, 7):
                board = ctor(n, k)
                assert list(maximum_compositions(board)) == list(
                    admissible_compositions(board, max_rooks(board))
                )


def test_is_admissible_composition():
    assert is_admissible_composition(circular(5, 3), (2, 2, 3))
    assert not is_admissible_composition(circular(5, 3), (1, 4, 2))
    assert is_admissible_composition(linear(5, 3), (5, 0, 5))
    assert not is_admissible_composition(linear(5, 3), (5, 1, 5))
    assert not is_admissible_composition(linear(2, 2), (1,))


def test_canonical_placement_examples():
    p = canonical_placement(linear(2, 1), (2,))
    assert p.squares == (Square(1, 1, 1), Square(1, 2, 2))

    p = canonical_placement(circular(5, 3), (1, 4, 1))
    assert p.m == 6 and not placement_problems(p)

    p = canonical_placement(linear(5, 2), (3, 2))
    assert set(p.squares) == {
        Square(1, 1, 1),
        Square(1, 2, 2),
        Square(1, 3, 3),
        Square(2, 1, 4),
        Square(2, 2, 5),
    }


def test_canonical_placement_every_admissible_composition():
    for board in ALL_SMALL:
        for m in range(board.n * board.k + 1):
            for comp in admissible_compositions(board, m):
                p = canonical_placement(board, comp)
                assert not placement_problems(p), (board, comp)
                assert composition(p) == comp


def test_canonical_placement_rejects_inadmissible():
    with pytest.raises(InputDomainError):
        canonical_placement(linear(2, 2), (2, 1))


def test_empty_composition_and_placement():
    board = circular(3, 2)
    assert list(admissible_compositions(board, 0)) == [(0, 0)]
    p = canonical_placement(board, (0, 0))
    assert p.m == 0 and not placement_problems(p)
