from __future__ import annotations

import itertools

import pytest

from chainedboards.boards import Square, circular, linear, max_rooks
from chainedboards.counting import count_max, count_max_circular, count_max_linear
from chainedboards.asm import ChainedASM, PlainASM, chained_asm_problems, enumerate_chained_asm
from chainedboards.errors import InputDomainError, ParseError, ValidationError
from chainedboards.perms import (
    ChainedPermutation,
    OneLine,
    from_one_line,
    matrices_to_placement,
    one_line_problems,
    one_line_text,
    parse_one_line,
    placement_to_matrices,
    to_one_line,
)
from chainedboards.placements import RookPlacement, enumerate_placements, placement_problems
from chainedboards.triangles import MonotoneTriangleChain

from tests.reference import composition
from tests.worked_examples import ONE_LINE_54, ONE_LINE_46, P22_CIRCULAR


def max_placements(board):
    return enumerate_placements(board, max_rooks(board))


def test_placement_matrix_round_trip_exhaustive():
    for board in (linear(2, 2), circular(2, 2), linear(3, 3), circular(3, 3), circular(2, 1)):
        for p in max_placements(board):
            cp = placement_to_matrices(p)
            assert not chained_asm_problems(cp)
            assert matrices_to_placement(cp) == p


def test_chained_asm_check_accepts_exactly_the_maximum_placements():
    """Every 0/1 k-tuple with n^2 k <= 12, on both shapes: a tuple meets the
    chained-ASM conditions exactly when its 1s are a maximum placement of
    non-attacking rooks."""
    checked = 0
    for n, k_max in ((1, 12), (2, 3), (3, 1)):
        for k in range(1, k_max + 1):
            for board in (linear(n, k), circular(n, k)):
                valid = 0
                for bits in itertools.product((0, 1), repeat=n * n * k):
                    rows = [bits[r * n : (r + 1) * n] for r in range(n * k)]
                    cp = ChainedPermutation(board, [rows[l * n : (l + 1) * n] for l in range(k)])
                    p = matrices_to_placement(cp)
                    placed = p.m == max_rooks(board) and not placement_problems(p)
                    assert (not chained_asm_problems(cp)) == placed, cp
                    valid += placed
                    checked += 1
                assert valid == count_max(board), board
    assert checked == 26_140


def test_placement_to_matrices_rejects_non_maximum():
    p = RookPlacement(linear(2, 2), (Square(1, 1, 1),))
    with pytest.raises(ValidationError, match="maximum"):
        placement_to_matrices(p)


def test_placement_to_matrices_rejects_attacking_rooks():
    # two rooks, the maximum on linear(2,1), in one column
    p = RookPlacement(linear(2, 1), (Square(1, 1, 1), Square(1, 2, 1)))
    assert p.m == max_rooks(p.board)
    with pytest.raises(ValidationError, match="^placement has attacking rooks$"):
        placement_to_matrices(p)


def test_single_rook_matrix_example():
    p = RookPlacement(linear(1, 2), (Square(1, 1, 1),))
    cp = placement_to_matrices(p)
    assert cp.matrices == (((1,),), ((0,),))


def test_one_line_round_trip_exhaustive():
    for board in (linear(2, 3), circular(2, 3), circular(3, 2), linear(3, 2)):
        for p in max_placements(board):
            cp = placement_to_matrices(p)
            o = to_one_line(cp)
            assert not one_line_problems(o)
            assert from_one_line(o) == cp


def test_reference_one_line_strings_round_trip():
    for text, shape_board in ((ONE_LINE_46, circular(4, 6)), (ONE_LINE_54, linear(5, 4))):
        o = parse_one_line(text)
        assert o.board == shape_board
        assert not one_line_problems(o)
        cp = from_one_line(o)
        assert not chained_asm_problems(cp)
        assert one_line_text(to_one_line(cp)) == text


def test_one_line_46_matrices_content():
    cp = from_one_line(parse_one_line(ONE_LINE_46))
    # block 2 is "3104": ones at (1,3), (2,1), (4,4)
    assert cp.matrices[1] == (
        (0, 0, 1, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 1),
    )
    assert composition(matrices_to_placement(cp)) == (1, 3, 1, 3, 1, 3)


def test_p22_circular_one_line_set():
    board = circular(2, 2)
    got = {one_line_text(to_one_line(placement_to_matrices(p))) for p in max_placements(board)}
    assert got == set(P22_CIRCULAR)


def test_one_line_examples_from_p22():
    o = parse_one_line("10-02-")
    assert not one_line_problems(o)
    bad = parse_one_line("12-12-")
    assert one_line_problems(bad)
    problems = one_line_problems(bad)
    assert any("condition (3)" in p for p in problems)
    assert any("condition (4)" in p for p in problems)

    identity_board_one = from_one_line(parse_one_line("12-00-"))
    assert identity_board_one.matrices == (((1, 0), (0, 1)), ((0, 0), (0, 0)))


def test_one_line_wrong_count_rejected():
    o = OneLine(linear(3, 3), ((3, 0, 0), (0, 0, 0), (0, 0, 3)))
    assert one_line_problems(o)
    assert any("condition (3)" in p for p in one_line_problems(o))
    with pytest.raises(ValidationError):
        from_one_line(o)


def test_round_trips_full_grid():
    # all three forms agree on every maximum placement for n <= 3, k <= 4
    from chainedboards.matchings import from_matching, matching_problems, to_matching

    for ctor in (linear, circular):
        for n in range(1, 4):
            for k in range(1, 5):
                for p in max_placements(ctor(n, k)):
                    cp = placement_to_matrices(p)
                    assert matrices_to_placement(cp) == p
                    o = to_one_line(cp)
                    assert not one_line_problems(o) and from_one_line(o) == cp
                    m = to_matching(cp)
                    assert not matching_problems(m) and from_matching(m) == cp


def test_one_line_validator_completeness_exhaustive():
    # every value vector passing the validator is the image of a maximum placement
    boards = [ctor(n, k) for ctor in (linear, circular) for n in (1, 2) for k in (1, 2, 3)]
    for board in boards:
        n, k = board.n, board.k
        images = set()
        for p in max_placements(board):
            images.add(to_one_line(placement_to_matrices(p)).blocks)
        accepted = set()
        for flat in itertools.product(range(n + 1), repeat=n * k):
            blocks = tuple(tuple(flat[b * n : (b + 1) * n]) for b in range(k))
            if not one_line_problems(OneLine(board, blocks)):
                accepted.add(blocks)
        assert accepted == images, board


def test_one_line_text_linear_vs_circular_dash():
    lin = to_one_line(placement_to_matrices(next(max_placements(linear(2, 1)))))
    assert one_line_text(lin) == "12"
    circ = parse_one_line("12-")
    assert circ.board == circular(2, 1)


def test_one_line_comma_format_for_wide_boards():
    board = linear(10, 1)
    blocks = (tuple(range(1, 11)),)
    o = OneLine(board, blocks)
    text = one_line_text(o)
    assert text == "1,2,3,4,5,6,7,8,9,10"
    assert parse_one_line(text) == o


def test_parse_one_line_errors():
    with pytest.raises(ParseError):
        parse_one_line("")
    with pytest.raises(ParseError):
        parse_one_line("12--00")
    with pytest.raises(ParseError):
        parse_one_line("1a-00")
    with pytest.raises(ParseError):
        parse_one_line("12-000")


def test_cardinality_p_n1_is_factorial():
    import math

    for n in range(1, 7):
        board = linear(n, 1)
        assert sum(1 for _ in max_placements(board)) == math.factorial(n)
        assert count_max_linear(n, 1) == math.factorial(n)


def test_cardinality_p_n4_circular_is_factorial_2n():
    import math

    for n in range(1, 4):
        board = circular(n, 4)
        assert sum(1 for _ in max_placements(board)) == math.factorial(2 * n)
        assert count_max_circular(n, 4) == math.factorial(2 * n)


def _deep_chain(x):
    """Two 3x3 matrices, ``x`` at the last entry of the last one."""
    zeros = ((0, 0, 0),) * 3
    return (zeros, ((0, 0, 0), (0, 0, 0), (0, 0, x)))


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: ChainedPermutation(linear(1, 1), (((x,),),)),
        lambda x: ChainedASM(linear(1, 1), (((x,),),)),
        lambda x: OneLine(linear(1, 1), ((x,),)),
        lambda x: PlainASM(1, ((x,),)),
        lambda x: MonotoneTriangleChain(1, 2, (((x,),),)),
        lambda x: ChainedPermutation(linear(3, 2), _deep_chain(x)),
        lambda x: ChainedASM(linear(3, 2), _deep_chain(x)),
    ],
    ids=[
        "ChainedPermutation", "ChainedASM", "OneLine", "PlainASM", "MonotoneTriangleChain",
        "ChainedPermutation-last-entry", "ChainedASM-last-entry",
    ],
)
def test_constructors_take_ints_only(make, bad):
    make(1)  # the same object with the int 1 is well-formed
    with pytest.raises(InputDomainError):
        make(bad)


@pytest.mark.parametrize("cls", [ChainedPermutation, ChainedASM])
def test_matrix_constructors_store_tuples(cls):
    chain = _deep_chain(1)
    as_lists = [[list(row) for row in mat] for mat in chain]
    stored = cls(linear(3, 2), as_lists).matrices
    assert stored == chain
    assert type(stored) is tuple
    assert all(type(mat) is tuple and all(type(row) is tuple for row in mat) for mat in stored)
    # tuples throughout are kept as they are
    assert cls(linear(3, 2), chain).matrices is chain
    with pytest.raises(InputDomainError, match=r"entries must be in \[.*1\], got 1\.0$"):
        cls(linear(3, 2), _deep_chain(1.0))


# --- rows equal to the library's own rows are walked ------------------------

UNIT3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "cls, rows, message",
    [
        (ChainedPermutation, ((True, 0, 0), *UNIT3[1:]), "permutation entries must be in [0, 1], got True"),
        (ChainedPermutation, ((1.0, 0, 0), *UNIT3[1:]), "permutation entries must be in [0, 1], got 1.0"),
        (ChainedASM, ((True, 0, 0), *UNIT3[1:]), "chained ASM entries must be in [-1, 0, 1], got True"),
        (ChainedPermutation, ([True, 0, 0], *UNIT3[1:]), "permutation entries must be in [0, 1], got True"),
        (ChainedPermutation, ((0, [], 0), *UNIT3[1:]), "permutation entries must be in [0, 1], got []"),
        (ChainedASM, ((0, [], 0), *UNIT3[1:]), "chained ASM entries must be in [-1, 0, 1], got []"),
        (ChainedPermutation, (*UNIT3[:2], (0, 1)), "each matrix must be 3x3"),
        (ChainedPermutation, (*UNIT3[:2], 5), "expected 1 matrices of 3x3, got (((1, 0, 0), (0, 1, 0), 5),)"),
    ],
    ids=["True", "1.0", "asm True", "list row", "row holding a list", "asm row holding a list",
         "short row", "row that is no sequence"],
)
def test_rows_equal_to_built_rows_are_walked(cls, rows, message):
    # the library builds these rows for n = 3; input equal to them is still walked
    assert placement_to_matrices(next(max_placements(linear(3, 1)))).matrices == (UNIT3,)
    with pytest.raises(InputDomainError) as info:
        cls(linear(3, 1), (rows,))
    assert str(info.value) == message


def test_built_rows_are_taken_as_they_are_and_only_where_they_fit():
    cp = placement_to_matrices(next(max_placements(linear(3, 1))))
    assert ChainedPermutation(cp.board, cp.matrices).matrices is cp.matrices
    # a list row is walked and copied into a tuple, as before
    assert ChainedPermutation(cp.board, ((list(UNIT3[0]), *UNIT3[1:]),)).matrices == (UNIT3,)
    # built rows of another size are walked, and fail on their length
    two = placement_to_matrices(next(max_placements(linear(2, 1)))).matrices[0]
    with pytest.raises(InputDomainError, match=r"^each matrix must be 3x3$"):
        ChainedPermutation(cp.board, ((*two, cp.matrices[0][2]),))


def test_a_built_row_with_minus_one_is_no_permutation_row():
    a = next(x for x in enumerate_chained_asm(circular(3, 1)) if -1 in x.matrices[0][2])
    assert a.matrices == (((0, 0, 0), (0, 0, 1), (1, -1, 0)),)
    assert ChainedASM(a.board, a.matrices).matrices is a.matrices
    with pytest.raises(InputDomainError) as info:
        ChainedPermutation(a.board, a.matrices)
    assert str(info.value) == "permutation entries must be in [0, 1], got -1"


@pytest.mark.parametrize(
    "make",
    [lambda: ChainedPermutation(5, ()), lambda: ChainedASM(5, ()), lambda: ChainedPermutation(None, ((),))],
)
def test_matrix_constructors_check_their_board(make):
    with pytest.raises(InputDomainError, match="^board must be a BoardSpec, got "):
        make()
