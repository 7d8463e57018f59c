from __future__ import annotations

import functools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedboards import counting
from chainedboards.boards import circular, linear, max_rooks
from chainedboards.counting import (
    _composition_deficits,
    _composition_steps,
    _count_formula_max,
    _count_walks,
    classical_asm_count,
    count_max,
    count_max_circular,
    count_max_linear,
    count_placements_formula,
    falling_factorial,
    qtasm_count,
)
from chainedboards.errors import InputDomainError
from chainedboards.placements import count_placements_brute, enumerate_placements
from tests.reference import admissible_compositions, count_max_linear_chains, count_max_linear_multinomial


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(0, 0) == 1
    with pytest.raises(InputDomainError):
        falling_factorial(-1, 2)


def test_count_placements_formula_examples():
    assert count_placements_formula(circular(2, 2), 2) == 8
    assert count_placements_formula(linear(2, 2), 2) == 12
    assert count_placements_formula(circular(2, 2), 1) == 8
    # above the maximum there are no placements
    assert count_placements_formula(circular(2, 2), 3) == 0


def composition_sum(board, m):
    """The paper's formula term by term, one product per admissible composition."""
    n = board.n
    weight = [[math.comb(n - p, a) * falling_factorial(n, a) for a in range(n + 1)]
              for p in range(n + 1)]
    total = 0
    for comp in admissible_compositions(board, m):
        prev = comp[-1] if board.circular else 0
        term = 1
        for a in comp:
            term *= weight[prev][a]
            prev = a
        total += term
    return total


def test_transfer_dp_matches_composition_sum():
    for ctor in (linear, circular):
        for n in range(1, 7):
            for k in range(1, 9):
                board = ctor(n, k)
                for m in range(n * k + 1):
                    want = composition_sum(board, m)
                    assert count_placements_formula(board, m) == want, (board, m)


def linear_suffix_sum(n, k, m):
    """The linear composition sum with shared suffixes: the sum over parts
    i..k given the previous part, taken right to left and memoized."""

    @functools.lru_cache(maxsize=None)
    def rest(i, prev, left):
        if i == k:
            return 1 if left == 0 else 0
        return sum(
            math.comb(n - prev, a) * falling_factorial(n, a) * rest(i + 1, a, left - a)
            for a in range(min(n - prev, left) + 1)
        )

    return rest(0, 0, m)


def test_transfer_dp_on_boards_the_walk_cannot_finish():
    # too large for the composition walk to finish in a test
    big = circular(6, 12)
    assert count_placements_formula(big, 36) == count_max(big)
    big = linear(8, 12)
    assert count_placements_formula(big, max_rooks(big)) == count_max(big)
    assert count_placements_formula(big, 40) == linear_suffix_sum(8, 12, 40)


@st.composite
def step_tables(draw):
    """Up to 4 states, each with up to 6 steps (s, weight, cost), parallel
    steps allowed, sorted by cost as ``_count_walks`` requires.  Weights are
    small or up to 2^70, so the packed walk's digits are filled to the top."""
    states = draw(st.integers(1, 4))
    weight = st.integers(0, 3) | st.integers(0, 2**70)
    step = st.tuples(st.integers(0, states - 1), weight, st.integers(0, 3))
    return [sorted(draw(st.lists(step, max_size=6)), key=lambda t: t[2]) for _ in range(states)]


def brute_walks(steps, k, target, circular, ends=None):
    """Every k-step sequence from each start, listed one by one; given
    ``ends``, a linear one's last step is one of ``ends[r]``."""
    total = 0
    for start in range(len(steps)) if circular else (0,):
        walks = [(start, 1, 0)]  # (state, weight product, cost sum)
        for i in range(k):
            if ends is not None and i == k - 1:
                walks = [(None, w * weight, c + cost) for r, w, c in walks for cost, weight in ends[r]]
            else:
                walks = [(s, w * weight, c + cost) for r, w, c in walks for s, weight, cost in steps[r]]
        total += sum(w for r, w, c in walks if c == target and (r == start or not circular))
    return total


@st.composite
def end_tables(draw, states):
    """The last steps ``(digit, weight)`` out of each of ``states`` states, sorted by digit."""
    pair = st.tuples(st.integers(0, 6), st.integers(0, 3) | st.integers(0, 2**70))
    return [sorted(draw(st.lists(pair, max_size=4))) for _ in range(states)]


@settings(derandomize=True, database=None, max_examples=300)
@given(
    step_tables().flatmap(lambda steps: st.tuples(st.just(steps), st.none() | end_tables(len(steps)))),
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 9)), min_size=1, max_size=5),
    st.booleans(),
)
def test_count_walks_matches_every_step_sequence(steps_and_ends, reads, circular):
    # several reads off one walk, each of its own length and target; a
    # circular walk has no use for the last steps of a linear one
    steps, ends = steps_and_ends
    assert _count_walks(steps, reads, circular, ends) == [
        brute_walks(steps, k, target, circular, None if circular else ends) for k, target in reads
    ]


def test_the_composition_potential_is_minus_a():
    # _composition_deficits builds the deficit steps off the closed form
    # n - p - a: the steps of deficit at most top, sorted by it, and no others
    for n in range(1, 9):
        steps = _composition_steps(n)
        assert all(n - p - a >= 0 for p, row in enumerate(steps) for a, _, _ in row)
        for top in range(n + 1):
            want = [sorted(((a, w, n - p - a) for a, w, _ in row if n - p - a <= top), key=lambda t: t[2])
                    for p, row in enumerate(steps)]
            assert _composition_deficits(n, top) == want, (n, top)


def test_the_reduced_composition_walk_equals_the_full_walk_at_the_maximum():
    # one walk per (shape, n) reads every k; each k alone, and the odd k of a
    # linear chain together, take the reduced walk
    for shape in (linear, circular):
        for n in range(1, 9):
            boards = [shape(n, k) for k in range(1, 11)]
            full = _count_walks(_composition_steps(n), [(b.k, max_rooks(b)) for b in boards], boards[0].circular)
            assert _count_formula_max(boards) == full
            assert [count_placements_formula(b, max_rooks(b)) for b in boards] == full
            odd = [b for b in boards if b.k % 2]
            assert _count_formula_max(odd) == [c for b, c in zip(boards, full) if b.k % 2]


@pytest.mark.parametrize("bad", [2.0, 2.5, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: count_max_circular(2, x),
        lambda x: count_max_circular(x, 3),
        lambda x: count_max_linear(2, x),
        lambda x: count_max_linear(x, 2),
        classical_asm_count,
        qtasm_count,
        lambda x: falling_factorial(x, 1),
        lambda x: falling_factorial(3, x),
        lambda x: count_placements_formula(linear(2, 2), x),
        lambda x: list(enumerate_placements(linear(2, 2), x)),
    ],
    ids=[
        "count_max_circular k", "count_max_circular n", "count_max_linear k", "count_max_linear n",
        "classical_asm_count", "qtasm_count", "falling_factorial n", "falling_factorial m",
        "count_placements_formula m", "enumerate_placements m",
    ],
)
def test_counting_entry_points_take_exact_ints(call, bad):
    # an exact-integer library answers no float or bool, even one equal to an int
    with pytest.raises(InputDomainError):
        call(bad)


def test_formula_rejects_m_outside_range():
    for board in (linear(3, 4), circular(3, 4)):
        for m in (-1, board.n * board.k + 1):
            with pytest.raises(InputDomainError):
                count_placements_formula(board, m)


def test_formula_matches_brute_force_small():
    for ctor in (linear, circular):
        for n in range(1, 4):
            for k in range(1, 5):
                board = ctor(n, k)
                for m in range(max_rooks(board) + 1):
                    assert count_placements_formula(board, m) == count_placements_brute(
                        board, m
                    ), (board, m)


def test_count_max_linear_examples():
    assert count_max_linear(5, 3) == 14400
    assert count_max_linear(1, 2) == 2
    assert count_max_linear(2, 2) == 12


def test_count_max_linear_matches_the_chain_sum():
    for n in range(1, 7):
        for k in range(1, 13):
            assert count_max_linear(n, k) == count_max_linear_chains(n, k), (n, k)


# count_max_linear(n, 2K) = (n!)^K * sum_v (alpha_v + beta_v K) v^K, v running
# over the distinct C(n, j): v -> (alpha_v, beta_v), the table in the README
LINEAR_EVEN_K_TERMS = {
    1: {1: (1, 1)},
    2: {1: (-7, -3), 2: (8, 0)},
    3: {1: (Fraction(29, 2), Fraction(11, 2)), 3: (Fraction(-27, 2), Fraction(27, 2))},
    4: {1: (-23, Fraction(-25, 3)), 4: (-192, Fraction(-320, 3)), 6: (216, 0)},
}


@pytest.mark.parametrize("n", LINEAR_EVEN_K_TERMS)
def test_count_max_linear_even_k_closed_form(n):
    terms = LINEAR_EVEN_K_TERMS[n]
    assert sorted(terms) == sorted({math.comb(n, j) for j in range(n + 1)})
    for K in range(1, 13):
        form = math.factorial(n) ** K * sum((a + b * K) * Fraction(v) ** K for v, (a, b) in terms.items())
        assert form == count_max_linear(n, 2 * K), (n, K)
    row = "; ".join(f"{v}: ({a}, {b})" for v, (a, b) in terms.items())
    assert f"| {n} | {row} |" in (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_count_max_circular_examples():
    assert count_max_circular(2, 2) == 8
    assert count_max_circular(3, 3) == 324
    assert count_max_circular(1, 3) == 3


def test_closed_forms_match_formula_at_max():
    for n in range(1, 7):
        for k in range(1, 9):
            lin = linear(n, k)
            circ = circular(n, k)
            assert count_max_linear(n, k) == count_placements_formula(lin, max_rooks(lin))
            assert count_max_circular(n, k) == count_placements_formula(
                circ, max_rooks(circ)
            )


def test_closed_forms_match_brute_spot_checks():
    assert count_max_linear(5, 3) == count_placements_brute(linear(5, 3), 10)
    assert count_max_circular(2, 2) == count_placements_brute(circular(2, 2), 2)
    assert count_max_circular(3, 3) == count_placements_brute(circular(3, 3), 4)


def test_hypergeometric_reductions():
    # sum_j C(n,j) = 2^n and sum_j C(n,j)^2 = C(2n,n)
    for n in range(1, 21):
        assert count_max_circular(n, 2) == math.factorial(n) * 2**n
        assert count_max_circular(n, 4) == math.factorial(n) ** 2 * math.comb(2 * n, n)


def test_multinomial_rewrite_matches():
    for n in range(1, 6):
        for k in (2, 4, 6):
            assert count_max_linear_multinomial(n, k) == count_max_linear(n, k)
    with pytest.raises(InputDomainError):
        count_max_linear_multinomial(3, 3)


def test_classical_asm_count():
    assert [classical_asm_count(n) for n in range(7)] == [1, 1, 2, 7, 42, 429, 7436]


def test_qtasm_count():
    assert qtasm_count(1) == 2
    assert qtasm_count(2) == 40
    # Table row for k=1 circular continues 3430 (n=5), 6860 (n=6); the even
    # entry is the one the quarter-turn product covers.
    assert qtasm_count(3) == 6860
    with pytest.raises(InputDomainError):
        qtasm_count(0)


def test_qtasm_count_refuses_a_product_that_does_not_cancel(monkeypatch):
    # no m reaches the check, as the product counts quarter-turn symmetric
    # ASMs; given a wrong classical count it refuses rather than drop the
    # denominator
    monkeypatch.setattr(counting, "classical_asm_count", lambda m: Fraction(1, 2))
    with pytest.raises(AssertionError, match="^quarter-turn product did not cancel: 5/8$"):
        qtasm_count(2)
