"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact; the time limits are the stated budgets.
"""

from __future__ import annotations

import math
import time

from chainedboards.asm import (
    ChainedASM,
    chained_asm_problems,
    enumerate_chained_asm,
    permutation_to_asm,
    plain_asm_problems,
    to_plain_asm,
)
from chainedboards.boards import circular, linear, max_rooks
from chainedboards.counting import (
    classical_asm_count,
    count_max_circular,
    count_max_linear,
    count_placements_formula,
    qtasm_count,
)
from chainedboards.ice import (
    fpl_problems,
    from_fpl,
    from_ice,
    ice_problems,
    to_fpl,
    to_ice,
)
from chainedboards.matchings import from_matching, matching_problems, to_matching
from chainedboards.perms import (
    from_one_line,
    matrices_to_placement,
    one_line_problems,
    one_line_text,
    parse_one_line,
    placement_to_matrices,
    to_one_line,
)
from chainedboards.placements import count_placements_brute, enumerate_placements
from chainedboards.serialization import serialize
from chainedboards.triangles import (
    from_monotone_triangles,
    mt_chain_problems,
    to_monotone_triangles,
)
from tests.reference import (
    count_chained_asm,
    count_max_linear_multinomial,
    join_linear_odd,
    split_circular_k4,
    split_linear_odd,
    unfold_qt,
)
from tests.worked_examples import (
    ONE_LINE_54,
    ONE_LINE_46,
    QT_6,
    QT_12,
    WORKED_46,
    WORKED_TRIANGLES,
)


def _criterion(name: str, budget_seconds: float, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_criterion_1_formula_vs_oracle():
    def check():
        for ctor in (linear, circular):
            for n in range(1, 4):
                for k in range(1, 5):
                    board = ctor(n, k)
                    for m in range(max_rooks(board) + 1):
                        formula = count_placements_formula(board, m)
                        brute = count_placements_brute(board, m)
                        assert formula == brute, (board, m, formula, brute)

    _criterion("criterion 1 (formula vs brute-force oracle)", 120, check)


def test_criterion_2_closed_forms():
    def check():
        for n in range(1, 7):
            for k in range(1, 9):
                lin, circ = linear(n, k), circular(n, k)
                assert count_max_linear(n, k) == count_placements_formula(lin, max_rooks(lin))
                assert count_max_circular(n, k) == count_placements_formula(
                    circ, max_rooks(circ)
                )
        assert count_placements_brute(linear(5, 3), 10) == count_max_linear(5, 3) == 14400
        assert count_placements_brute(circular(2, 2), 2) == count_max_circular(2, 2) == 8
        assert count_placements_brute(circular(3, 3), 4) == count_max_circular(3, 3) == 324

    _criterion("criterion 2 (closed forms)", 60, check)


TABLE_1_GATING = [
    (linear, 1, 1, 1), (linear, 2, 1, 2), (linear, 3, 1, 7), (linear, 4, 1, 42),
    (linear, 5, 1, 429), (linear, 6, 1, 7436),
    (linear, 2, 2, 17), (linear, 3, 2, 504), (linear, 3, 3, 49),
    (linear, 2, 4, 159), (linear, 2, 5, 8), (linear, 2, 6, 1129),
    (linear, 2, 7, 16), (linear, 2, 8, 7151),
    (circular, 1, 1, 1), (circular, 2, 1, 2), (circular, 3, 1, 20), (circular, 4, 1, 40),
    (circular, 1, 2, 2), (circular, 2, 2, 10), (circular, 3, 2, 140),
    (circular, 1, 3, 3), (circular, 2, 3, 14), (circular, 3, 3, 3861),
    (circular, 1, 4, 2), (circular, 2, 4, 42), (circular, 3, 4, 7436),
    (circular, 1, 5, 5), (circular, 2, 5, 82), (circular, 1, 6, 2), (circular, 2, 6, 214),
    (circular, 1, 7, 7), (circular, 2, 7, 478), (circular, 1, 8, 2), (circular, 2, 8, 1186),
    (circular, 1, 9, 9), (circular, 2, 9, 2786),
]


def test_criterion_3_table_regression():
    def check():
        for ctor, n, k, expected in TABLE_1_GATING:
            board = ctor(n, k)
            got = count_chained_asm(board)
            assert got == expected, (board, got, expected)
        # the k=1 linear row doubles as the product-formula identity
        for n in range(1, 7):
            assert count_chained_asm(linear(n, 1)) == classical_asm_count(n)

    _criterion("criterion 3 (reference table regression)", 600, check)


def test_criterion_4_special_bijections():
    def check():
        # linear odd k: independent plain-ASM tuples
        got33 = list(enumerate_chained_asm(linear(3, 3)))
        assert len(got33) == classical_asm_count(3) ** 2 == 49
        assert len({tuple(p.rows for p in split_linear_odd(a)) for a in got33}) == 49
        for a in got33:
            assert join_linear_odd(split_linear_odd(a), 3) == a
        got25 = list(enumerate_chained_asm(linear(2, 5)))
        assert len(got25) == classical_asm_count(2) ** 3 == 8
        for a in got25:
            assert join_linear_odd(split_linear_odd(a), 5) == a

        # circular k=4: one big ASM
        for n, expected in ((2, 42), (3, 7436)):
            assert expected == classical_asm_count(2 * n)
            images = set()
            for a in enumerate_chained_asm(circular(n, 4)):
                plain = to_plain_asm(a)
                assert not plain_asm_problems(plain)
                assert split_circular_k4(plain) == a
                images.add(plain.rows)
            assert len(images) == expected

        # circular k=1, even n: quarter-turn symmetric ASMs
        for n, m_arg, expected in ((2, 1, 2), (4, 2, 40)):
            assert qtasm_count(m_arg) == expected
            images = set()
            for a in enumerate_chained_asm(circular(n, 1)):
                plain = to_plain_asm(a)
                assert not plain_asm_problems(plain)
                assert unfold_qt(plain) == a
                images.add(plain.rows)
            assert len(images) == expected

        # the printed 6x6 -> 12x12 example, byte-exact in canonical form
        source = ChainedASM(circular(6, 1), (QT_6,))
        assert not chained_asm_problems(source)
        folded = to_plain_asm(source)
        assert folded.rows == QT_12
        expected_doc = serialize(
            type(folded)(12, QT_12)
        )
        assert serialize(folded) == expected_doc

    _criterion("criterion 4 (special bijections)", 300, check)


ROUND_TRIP_BOARDS = [
    ctor(n, k) for ctor in (linear, circular) for n in range(1, 4) for k in range(1, 4)
] + [circular(2, 4), circular(2, 6)]


def test_criterion_5_round_trips():
    def check():
        for board in ROUND_TRIP_BOARDS:
            for p in enumerate_placements(board, max_rooks(board)):
                cp = placement_to_matrices(p)
                o = to_one_line(cp)
                assert not one_line_problems(o)
                assert from_one_line(o) == cp
                m = to_matching(cp)
                assert not matching_problems(m)
                assert from_matching(m) == cp
                assert matrices_to_placement(cp) == p
            for a in enumerate_chained_asm(board):
                if board.circular and board.k % 2 == 0:
                    mt = to_monotone_triangles(a)
                    assert not mt_chain_problems(mt)
                    assert from_monotone_triangles(mt) == a
                    ice = to_ice(a)
                    assert not ice_problems(ice)
                    assert from_ice(ice) == a
                    fpl = to_fpl(ice)
                    assert not fpl_problems(fpl)
                    assert from_fpl(fpl) == ice
                if not board.circular and board.k % 2 == 1:
                    assert join_linear_odd(split_linear_odd(a), board.k) == a
                if board.circular and board.k == 1 and board.n % 2 == 0:
                    assert unfold_qt(to_plain_asm(a)) == a
                if board.circular and board.k == 4:
                    assert split_circular_k4(to_plain_asm(a)) == a

    _criterion("criterion 5 (bijection round-trips)", 300, check)


def test_criterion_6_worked_examples():
    def check():
        # the circular n=4, k=6 one-line string
        o = parse_one_line(ONE_LINE_46)
        cp = from_one_line(o)
        assert one_line_text(to_one_line(cp)) == ONE_LINE_46
        # the linear n=5, k=4 one-line string
        o2 = parse_one_line(ONE_LINE_54)
        cp2 = from_one_line(o2)
        assert one_line_text(to_one_line(cp2)) == ONE_LINE_54
        # the worked triangle chain, including its bottom rows
        mt = to_monotone_triangles(WORKED_46)
        assert mt.triangles == WORKED_TRIANGLES
        assert [tri[-1] for tri in mt.triangles] == [
            (1, 3, 5, 7),
            (1, 3, 5, 8),
            (2, 3, 5, 7),
        ]

    _criterion("criterion 6 (worked examples, byte-exact)", 60, check)


def test_criterion_7_identities():
    def check():
        for n in range(1, 7):
            board = linear(n, 1)
            assert sum(1 for _ in enumerate_placements(board, n)) == math.factorial(n)
        for n in range(1, 4):
            board = circular(n, 4)
            got = sum(1 for _ in enumerate_placements(board, max_rooks(board)))
            assert got == math.factorial(2 * n)
        for n in range(1, 21):
            assert count_max_circular(n, 2) == math.factorial(n) * 2**n
            assert count_max_circular(n, 4) == math.factorial(n) ** 2 * math.comb(2 * n, n)
        for n in range(1, 6):
            for k in (2, 4, 6):
                assert count_max_linear_multinomial(n, k) == count_max_linear(n, k)

    _criterion("criterion 7 (identity checks)", 60, check)


def test_permutations_are_chained_asms():
    # supporting check: reinterpreted permutations always validate
    for board in (linear(2, 2), circular(2, 3)):
        for p in enumerate_placements(board, max_rooks(board)):
            assert not chained_asm_problems(permutation_to_asm(placement_to_matrices(p)))
