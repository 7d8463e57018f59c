from __future__ import annotations

from itertools import accumulate
from operator import add

import pytest

from chainedboards.asm import ChainedASM, enumerate_chained_asm, permutation_to_asm, rotate_half, to_plain_asm
from chainedboards.boards import circular, linear, max_rooks
from chainedboards.errors import InputDomainError, UnsupportedDomainError, ValidationError
from chainedboards.perms import placement_to_matrices
from chainedboards.placements import enumerate_placements
from chainedboards.triangles import (
    MonotoneTriangleChain,
    from_monotone_triangles,
    mt_chain_problems,
    to_monotone_triangles,
)

from tests.reference import enumerate_mt_chains
from tests.worked_examples import WORKED_46, WORKED_TRIANGLES


@pytest.mark.parametrize(
    "n, k, message",
    [
        (True, 2, "triangle chain side n must be an int >= 1, got True"),
        (1.0, 2, "triangle chain side n must be an int >= 1, got 1.0"),
        (0, 2, "triangle chain side n must be an int >= 1, got 0"),
        (1, 2.0, "triangle chain needs an even int k >= 2, got 2.0"),
        (1, True, "triangle chain needs an even int k >= 2, got True"),
        (1, 3, "triangle chain needs an even int k >= 2, got 3"),
        (1, 0, "triangle chain needs an even int k >= 2, got 0"),
    ],
)
def test_triangle_chain_takes_exact_int_sizes(n, k, message):
    with pytest.raises(InputDomainError) as info:
        MonotoneTriangleChain(n, k, (((1,),),))
    assert str(info.value) == message


def _glued(tri: tuple, n: int) -> tuple:
    """The n x 2n matrix a triangle is read off: row m marks the columns of
    the triangle's row m, less those of its row m - 1."""
    return tuple(
        tuple((j in row) - (j in prev) for j in range(1, 2 * n + 1)) for prev, row in zip(((),) + tri, tri)
    )


def _triangle(rows: tuple) -> tuple:
    """Row m lists the columns whose partial sum after m rows is 1."""
    return tuple(
        tuple(j for j, s in enumerate(partial, start=1) if s == 1)
        for partial in accumulate(rows, lambda sums, row: tuple(map(add, sums, row)))
    )


def test_worked_example_pair_matrices():
    bs = [_glued(tri, 4) for tri in to_monotone_triangles(WORKED_46).triangles]
    assert len(bs) == 3
    assert bs[0][0] == (0, 1, 0, 0, 0, 0, 0, 0)
    assert bs[0][1] == (1, -1, 0, 0, 0, 1, 0, 0)
    assert bs[0][2] == (0, 0, 1, 0, 0, -1, 1, 0)
    assert bs[0][3] == (0, 0, 0, 0, 1, 0, 0, 0)
    # every row of every pair matrix sums to 1
    assert all(sum(row) == 1 for b in bs for row in b)


def test_worked_example_triangles():
    mt = to_monotone_triangles(WORKED_46)
    assert mt.triangles == WORKED_TRIANGLES
    assert not mt_chain_problems(mt)
    assert [tri[-1] for tri in mt.triangles] == [(1, 3, 5, 7), (1, 3, 5, 8), (2, 3, 5, 7)]


def test_triangles_read_off_the_plain_asm():
    # to_plain_asm stacks the gluing of matrices 1, 2 over the half turn of
    # that of matrices 3, 4: the two gluings the triangles are read off
    n = 2
    for a in enumerate_chained_asm(circular(n, 4)):
        rows = to_plain_asm(a).rows
        expected = (_triangle(rows[:n]), _triangle(rotate_half(rows[n:])))
        assert to_monotone_triangles(a).triangles == expected


def test_worked_example_round_trip():
    assert from_monotone_triangles(to_monotone_triangles(WORKED_46)) == WORKED_46


def test_round_trip_exhaustive():
    for n, k in [(1, 2), (2, 2), (1, 4), (2, 4), (3, 2), (2, 6)]:
        for a in enumerate_chained_asm(circular(n, k)):
            mt = to_monotone_triangles(a)
            assert not mt_chain_problems(mt), mt_chain_problems(mt)
            assert from_monotone_triangles(mt) == a


def test_permutation_instance_rows_grow_one_at_a_time():
    board = circular(2, 4)
    for p in enumerate_placements(board, max_rooks(board)):
        a = permutation_to_asm(placement_to_matrices(p))
        mt = to_monotone_triangles(a)
        for tri in mt.triangles:
            for m in range(len(tri) - 1):
                assert set(tri[m]) < set(tri[m + 1])


def test_cardinality_transport():
    for n, k in [(1, 2), (2, 2), (2, 4)]:
        chains = sum(1 for _ in enumerate_mt_chains(n, k))
        asms = sum(1 for _ in enumerate_chained_asm(circular(n, k)))
        assert chains == asms


def test_images_match_independent_enumeration():
    for n, k in [(2, 2), (2, 4)]:
        images = {
            to_monotone_triangles(a).triangles for a in enumerate_chained_asm(circular(n, k))
        }
        independent = {c.triangles for c in enumerate_mt_chains(n, k)}
        assert images == independent


def test_validator_rejects_cyclic_conflict():
    # 1 and 2n-1+1 = 8 in cyclically adjacent bottom rows (n = 4)
    bad = MonotoneTriangleChain(
        4,
        4,
        (
            ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 8)),
            ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)),
        ),
    )
    assert mt_chain_problems(bad)
    assert any("chained index" in p for p in mt_chain_problems(bad))


def test_validator_rejects_non_strict_rows():
    bad = MonotoneTriangleChain(2, 2, (((1,), (2, 2)),))
    assert any("strictly increasing" in p for p in mt_chain_problems(bad))
    with pytest.raises(ValidationError):
        from_monotone_triangles(bad)


def test_validator_rejects_broken_interlacing():
    bad = MonotoneTriangleChain(2, 2, (((4,), (1, 3)),))
    assert any("interlace" in p for p in mt_chain_problems(bad))


def test_validator_names_a_row_of_the_wrong_length():
    bad = MonotoneTriangleChain(2, 2, (((1,), (1, 2, 3)),))
    assert "triangle 1 row 2 has 3 entries" in mt_chain_problems(bad)


def test_validator_names_entries_outside_the_range():
    bad = MonotoneTriangleChain(2, 2, (((5,), (0, 4)),))
    problems = mt_chain_problems(bad)
    assert "triangle 1 row 1 has entries outside 1..4" in problems
    assert "triangle 1 row 2 has entries outside 1..4" in problems


def test_to_monotone_triangles_refuses_an_invalid_chained_asm():
    # both 1s of circular(1, 2) glue into one row, which then marks two columns
    bad = ChainedASM(circular(1, 2), (((1,),), ((1,),)))
    with pytest.raises(ValidationError, match="^row 1 marks 2 columns; input is not a valid chained ASM$"):
        to_monotone_triangles(bad)


def test_domain_restrictions():
    with pytest.raises(UnsupportedDomainError):
        to_monotone_triangles(next(iter(enumerate_chained_asm(circular(2, 3)))))
    with pytest.raises(UnsupportedDomainError):
        to_monotone_triangles(next(iter(enumerate_chained_asm(linear(2, 2)))))
