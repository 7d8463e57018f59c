from __future__ import annotations

import itertools
import tracemalloc
from operator import add

import pytest

from chainedboards import asm
from chainedboards.asm import (
    ChainedASM,
    PlainASM,
    asm_to_permutation,
    chained_asm_problems,
    count_chained_asm_tm,
    enumerate_chained_asm,
    permutation_to_asm,
    plain_asm_problems,
    rotate_ccw,
    rotate_cw,
    rotate_half,
    to_plain_asm,
)
from chainedboards.boards import circular, linear, max_rooks
from chainedboards.counting import _count_walks, classical_asm_count, qtasm_count
from chainedboards.errors import InputDomainError, UnsupportedDomainError, ValidationError
from chainedboards.perms import placement_to_matrices
from chainedboards.placements import enumerate_placements
from chainedboards.verify import TABLE_CELLS

from tests.reference import (
    asm_sum_composition,
    count_chained_asm,
    join_linear_odd,
    maximum_compositions,
    split_circular_k4,
    split_linear_odd,
    transfer_matrix,
    unfold_qt,
)
from tests.worked_examples import LINEAR_32_WITH_TOP_MINUS, QT_6, QT_12


def max_perms(board):
    for p in enumerate_placements(board, max_rooks(board)):
        yield placement_to_matrices(p)


def test_validator_accepts_linear_example_with_top_row_minus():
    assert not chained_asm_problems(LINEAR_32_WITH_TOP_MINUS)
    assert LINEAR_32_WITH_TOP_MINUS.matrices[0][0][1] == -1


def test_validator_accepts_every_chained_permutation():
    for board in (linear(2, 2), circular(2, 2), circular(2, 3), linear(3, 1)):
        for cp in max_perms(board):
            assert not chained_asm_problems(permutation_to_asm(cp))


def test_validator_rejects_minus_in_leftmost_column():
    bad = ChainedASM(
        linear(2, 1),
        (((0, 1), (-1, 1)),),
    )
    problems = chained_asm_problems(bad)
    assert any("condition (1)" in p for p in problems)


def test_validator_rejects_wrong_total():
    bad = ChainedASM(linear(2, 1), (((1, 0), (0, 0)),))
    assert any("condition (3)" in p for p in chained_asm_problems(bad))


def test_validator_rejects_chaining_violation():
    bad = ChainedASM(circular(2, 1), (((0, 0), (0, 1)),))
    assert any("condition (2)" in p for p in chained_asm_problems(bad))


SMALL_CELLS = [
    # (board, expected |ASM|) reference counts
    (linear(1, 1), 1),
    (linear(2, 1), 2),
    (linear(3, 1), 7),
    (linear(1, 2), 2),
    (linear(2, 2), 17),
    (linear(1, 3), 1),
    (linear(2, 3), 4),
    (linear(3, 3), 49),
    (linear(1, 4), 3),
    (linear(2, 4), 159),
    (linear(2, 5), 8),
    (circular(1, 1), 1),
    (circular(2, 1), 2),
    (circular(3, 1), 20),
    (circular(4, 1), 40),
    (circular(1, 2), 2),
    (circular(2, 2), 10),
    (circular(3, 2), 140),
    (circular(1, 3), 3),
    (circular(2, 3), 14),
    (circular(1, 4), 2),
    (circular(2, 4), 42),
    (circular(2, 5), 82),
]


def test_enumeration_small_table_cells():
    for board, expected in SMALL_CELLS:
        assert count_chained_asm(board) == expected, board


def test_enumeration_yields_valid_unique_elements():
    # circular k = 1 chains a matrix to itself; circular(2, 2) closes on
    # matrix 1's columns; linear(1, 1) is a single one-row matrix; the next
    # four spend a deficit budget of 1, 1, 0 and 0; circular(6, 1) is where
    # the search skips the most frames known to complete nothing.  With the
    # count, a strictly increasing valid stream is exactly the sorted set.
    boards = (
        linear(2, 2), circular(2, 3), circular(3, 2), linear(2, 4),
        circular(1, 1), circular(4, 1), circular(2, 2), linear(1, 1),
        circular(3, 3), circular(5, 1), circular(2, 8), linear(3, 3),
        circular(6, 1),
    )
    for board in boards:
        last = None
        count = 0
        for a in enumerate_chained_asm(board):
            assert not chained_asm_problems(a), chained_asm_problems(a)
            # the promised order: flattened entries strictly increase
            # (-1 < 0 < 1), so no element repeats
            flat = tuple(x for mat in a.matrices for row in mat for x in row)
            assert last is None or last < flat, board
            last = flat
            count += 1
        assert count == count_chained_asm_tm(board), board


@pytest.mark.parametrize("board", [circular(3, 3), linear(2, 6)], ids=lambda b: f"{b.shape.value}({b.n},{b.k})")
def test_consecutive_chained_asms_share_the_matrices_they_agree_on(board):
    # each finished matrix is one tuple, shared by every chain below it, so
    # the stream writer can reuse its text; the objects stay whole once the
    # search has moved on
    objs = list(enumerate_chained_asm(board))
    shared = 0
    for a, b in itertools.pairwise(objs):
        l = 0
        while a.matrices[l] == b.matrices[l]:
            assert a.matrices[l] is b.matrices[l], (a.matrices, b.matrices)
            l += 1
        shared += l
    assert shared > 0
    assert all(chained_asm_problems(a) == [] for a in objs)
    assert len(set(objs)) == len(objs) == count_chained_asm_tm(board)


def _column_deficits(a):
    """1 - r - c for every column of every matrix: c is the column's sum and
    r the matching row's sum in the matrix before (matrix k before matrix 1
    on a circular chain, nothing before a linear one)."""
    n, mats = a.board.n, a.matrices
    out = []
    for l, mat in enumerate(mats):
        before = mats[l - 1] if l or a.board.circular else None
        for i in range(n):
            r = sum(before[i]) if before is not None else 0
            out.append(1 - r - sum(row[i] for row in mat))
    return out


def test_every_chain_spends_its_deficit_budget():
    # summed over the columns, the deficit is sum_l (n - s_(l-1) - s_l):
    # nk - 2 max_rooks on a circular chain, 0 on a linear one with odd k.
    # Every circular cell with nk <= 10 but circular(5, 2) (622908 elements)
    # and circular(n >= 7, 1) (millions).
    cells = [circular(n, k) for n in range(1, 7) for k in range(1, 11) if n * k <= 10 and (n, k) != (5, 2)]
    cells += [linear(n, k) for n, k in ((1, 1), (2, 1), (3, 1), (4, 1), (1, 3), (2, 3), (3, 3), (2, 5))]
    for board in cells:
        budget = board.n * board.k - 2 * max_rooks(board) if board.circular else 0
        assert budget in (0, 1), board
        for a in enumerate_chained_asm(board):
            terms = _column_deficits(a)
            assert set(terms) <= {0, 1} and sum(terms) == budget, (board, a.matrices)


def test_first_element_of_a_wide_circular_k1_chain():
    assert not chained_asm_problems(next(enumerate_chained_asm(circular(10, 1))))


@pytest.mark.parametrize("board", [linear(16, 2), linear(18, 1)], ids=str)
def test_the_first_chained_asm_of_a_wide_board_builds_no_row_table(board):
    # a table of the 2^n rows that meet condition (1) held 54 MB at linear(16,2)
    tracemalloc.start()
    try:
        next(enumerate_chained_asm(board))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize(
    "board, limit, states",
    [(linear(16, 2), 1, 17), (linear(4, 2), None, 593), (circular(3, 3), None, 160), (circular(5, 1), None, 878)],
    ids=str,
)
def test_each_row_state_streams_once(monkeypatch, board, limit, states):
    # every matrix starts from one column state, and a zero row keeps it, so
    # up to n readers of a state's rows are open at once; they share one stream
    streams = []

    def counted(n, *state_and_tables):
        streams.append(state_and_tables[:4])
        return rows(n, *state_and_tables)

    rows = asm._rows
    monkeypatch.setattr(asm, "_rows", counted)
    sum(1 for _ in itertools.islice(enumerate_chained_asm(board), limit))
    assert len(streams) == len(set(streams)) == states


@pytest.mark.parametrize("board, reads", [(circular(5, 1), 4986), (circular(6, 1), 11167), (linear(4, 2), 3468)], ids=str)
def test_a_whole_search_reads_pinned_row_streams(monkeypatch, board, reads):
    # one read per frame the row search opens: a frame whose rows completed
    # nothing is not opened again from the same state, so a weaker or a
    # dropped memo, or a looser bound, reads more (without the memo:
    # 17251, 96315 and 10488)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return recorded(*args)

    recorded = asm._recorded
    monkeypatch.setattr(asm, "_recorded", counted)
    assert sum(1 for _ in enumerate_chained_asm(board)) == count_chained_asm_tm(board)
    assert calls == reads


@pytest.mark.parametrize("board", [circular(3, 3), linear(4, 2), circular(4, 2)], ids=str)
def test_completions_past_the_keeping_cap_stream_afresh(monkeypatch, board):
    # with room for 50 completions, keys past it stream each time they come
    # round, and the chains are the same in the same order
    want = list(enumerate_chained_asm(board))
    searches, builds = [], []

    def watched(lists, key, room, build, *args):
        searches.append((lists, room))

        def counted(*args):  # a key's completions streamed, not read from its kept list
            builds.append(key)
            return build(*args)

        return kept(lists, key, room, counted, *args)

    kept = asm._kept
    monkeypatch.setattr(asm, "_KEEP", 50)
    monkeypatch.setattr(asm, "_kept", watched)
    got = []
    for a in enumerate_chained_asm(board):
        got.append(a)
        lists, room = searches[-1]
        assert room[0] >= 0 and sum(map(len, lists.values())) <= 50
    assert got == want
    again = {key for key in builds if builds.count(key) > 1}
    assert lists and again  # some keys were kept, and some streamed afresh
    assert room[0] + sum(map(len, lists.values())) == 50  # a key that streams afresh gave its room back


def test_enumeration_contains_constructed_example():
    assert LINEAR_32_WITH_TOP_MINUS.matrices in {
        a.matrices for a in enumerate_chained_asm(linear(3, 2))
    }


def test_no_minus_ones_recovers_chained_permutations():
    for board in (
        ctor(n, k) for ctor in (linear, circular) for n in (1, 2) for k in (1, 2, 3)
    ):
        no_minus = {
            a.matrices
            for a in enumerate_chained_asm(board)
            if all(x >= 0 for mat in a.matrices for row in mat for x in row)
        }
        perms = {cp.matrices for cp in max_perms(board)}
        assert no_minus == perms, board


def test_asm_equals_perms_for_n1():
    for k in range(1, 9):
        for board in (linear(1, k), circular(1, k)):
            asms = {a.matrices for a in enumerate_chained_asm(board)}
            perms = {cp.matrices for cp in max_perms(board)}
            assert asms == perms, board


@pytest.mark.parametrize(
    "size, message",
    [
        (1.0, "plain ASM size must be an int >= 1, got 1.0"),
        (True, "plain ASM size must be an int >= 1, got True"),
        (0, "plain ASM size must be an int >= 1, got 0"),
        ("1", "plain ASM size must be an int >= 1, got 1"),
    ],
)
def test_plain_asm_takes_an_exact_int_size(size, message):
    with pytest.raises(InputDomainError) as info:
        PlainASM(size, ((1,),))
    assert str(info.value) == message


def test_linear_k1_is_classical_asm():
    for n in range(1, 5):
        got = list(enumerate_chained_asm(linear(n, 1)))
        assert len(got) == classical_asm_count(n)
        for a in got:
            assert not plain_asm_problems(PlainASM(n, a.matrices[0]))


def test_sum_composition_lands_in_maximum_compositions():
    # the per-matrix sums realize exactly the maximum-placement compositions
    for board in (
        ctor(n, k) for ctor in (linear, circular) for n in range(1, 4) for k in range(1, 4)
    ):
        allowed = set(maximum_compositions(board))
        seen = set()
        for a in enumerate_chained_asm(board):
            comp = asm_sum_composition(a)
            assert comp in allowed, (board, comp)
            seen.add(comp)
        assert seen == allowed, board


def test_asm_permutation_round_trip():
    cp = next(max_perms(circular(2, 2)))
    assert asm_to_permutation(permutation_to_asm(cp)) == cp
    with pytest.raises(ValidationError):
        asm_to_permutation(LINEAR_32_WITH_TOP_MINUS)


def test_rotations():
    m = ((1, 2), (3, 4))
    assert rotate_cw(m) == ((3, 1), (4, 2))
    assert rotate_ccw(rotate_cw(m)) == m
    assert rotate_half(rotate_half(m)) == m
    assert rotate_cw(rotate_cw(m)) == rotate_half(m)
    # a half turn of any rectangle, not only of a square
    assert rotate_half(((1, 2, 3, 4), (5, 6, 7, 8))) == ((8, 7, 6, 5), (4, 3, 2, 1))


def test_split_linear_odd_counts():
    got = list(enumerate_chained_asm(linear(3, 3)))
    assert len(got) == classical_asm_count(3) ** 2 == 49
    images = set()
    for a in got:
        parts = split_linear_odd(a)
        assert len(parts) == 2
        assert join_linear_odd(parts, 3) == a
        images.add(tuple(p.rows for p in parts))
    assert len(images) == 49

    got5 = list(enumerate_chained_asm(linear(2, 5)))
    assert len(got5) == classical_asm_count(2) ** 3 == 8
    for a in got5:
        assert join_linear_odd(split_linear_odd(a), 5) == a


def test_split_linear_odd_k1_is_identity():
    for a in enumerate_chained_asm(linear(2, 1)):
        (part,) = split_linear_odd(a)
        assert part.rows == a.matrices[0]


def test_split_linear_odd_domain():
    with pytest.raises(UnsupportedDomainError):
        split_linear_odd(next(iter(enumerate_chained_asm(linear(2, 2)))))


def test_concat_circular_k4_counts():
    got = list(enumerate_chained_asm(circular(2, 4)))
    assert len(got) == classical_asm_count(4) == 42
    images = set()
    for a in got:
        plain = to_plain_asm(a)
        assert not plain_asm_problems(plain)
        assert split_circular_k4(plain) == a
        images.add(plain.rows)
    assert len(images) == 42


def test_concat_maps_permutations_to_permutation_matrices():
    for cp in max_perms(circular(2, 4)):
        plain = to_plain_asm(permutation_to_asm(cp))
        assert all(x in (0, 1) for row in plain.rows for x in row)
        assert not plain_asm_problems(plain)


def test_fold_qt_matches_worked_12x12():
    a = ChainedASM(circular(6, 1), (QT_6,))
    assert not chained_asm_problems(a)
    folded = to_plain_asm(a)
    assert folded.rows == QT_12
    assert not plain_asm_problems(folded)
    assert unfold_qt(folded) == a


def test_fold_qt_counts():
    got2 = list(enumerate_chained_asm(circular(2, 1)))
    assert len(got2) == qtasm_count(1) == 2
    got4 = list(enumerate_chained_asm(circular(4, 1)))
    assert len(got4) == qtasm_count(2) == 40
    images = set()
    for a in got4:
        plain = to_plain_asm(a)
        assert not plain_asm_problems(plain)
        assert rotate_cw(plain.rows) == plain.rows  # quarter-turn symmetric
        assert unfold_qt(plain) == a
        images.add(plain.rows)
    assert len(images) == 40


def test_fold_qt_domain():
    with pytest.raises(UnsupportedDomainError):
        to_plain_asm(next(iter(enumerate_chained_asm(circular(3, 1)))))
    with pytest.raises(ValidationError):
        unfold_qt(PlainASM(4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))))


def _quadrants(q1, q2, q3, q4):
    """The 2n x 2n matrix as the paper draws it: q1 top left, q2 turned a
    quarter clockwise top right, q3 turned a half turn bottom right, q4
    turned a quarter counterclockwise bottom left."""
    return (*map(add, q1, rotate_cw(q2)), *map(add, rotate_ccw(q4), rotate_half(q3)))


def test_to_plain_asm_is_concat_on_k4_and_fold_on_k1_even_n():
    for board in (circular(2, 4), circular(4, 1)):
        for a in enumerate_chained_asm(board):
            plain = to_plain_asm(a)
            assert plain.rows == _quadrants(*a.matrices * (4 // board.k))
            assert not plain_asm_problems(plain)
    assert to_plain_asm(ChainedASM(circular(6, 1), (QT_6,))).rows == QT_12


@pytest.mark.parametrize("board", [circular(3, 1), circular(2, 2), circular(1, 3), linear(2, 4), linear(2, 1)])
def test_to_plain_asm_names_both_domains_elsewhere(board):
    a = next(iter(enumerate_chained_asm(board)))
    with pytest.raises(UnsupportedDomainError, match="k = 4, or with k = 1 and even n"):
        to_plain_asm(a)


# --- the transfer-matrix counter ------------------------------------------

def test_transfer_count_matches_the_paper_table():
    for board, expected in TABLE_CELLS:
        assert count_chained_asm_tm(board) == expected, board


def test_transfer_count_matches_enumeration():
    # every table cell two ways: the enumerator's count, the paper's and the walk's
    assert len(TABLE_CELLS) == 50
    for board, expected in TABLE_CELLS:
        assert count_chained_asm(board) == expected == count_chained_asm_tm(board), board


def test_transfer_count_matches_closed_forms():
    for n in range(1, 8):
        assert count_chained_asm_tm(linear(n, 1)) == classical_asm_count(n), n
    for n in range(1, 7):
        assert count_chained_asm_tm(linear(n, 3)) == classical_asm_count(n) ** 2, n
    for n in range(1, 7):
        assert count_chained_asm_tm(linear(n, 5)) == classical_asm_count(n) ** 3, n
    for n in range(1, 7):
        assert count_chained_asm_tm(circular(n, 4)) == classical_asm_count(2 * n), n
    for m in range(1, 4):
        assert count_chained_asm_tm(circular(2 * m, 1)) == qtasm_count(m), m


def test_transfer_matrix_matches_the_conditions_read_literally():
    # T[r][s] counts the matrices meeting condition (1) with row sums s whose
    # every column, started from r's bit and summed bottom-up, stays in {0,1}
    for n in range(1, 4):
        want = [[0] * (1 << n) for _ in range(1 << n)]
        for entries in itertools.product((-1, 0, 1), repeat=n * n):
            rows = [entries[i * n : (i + 1) * n] for i in range(n)]
            if any(s not in (0, 1) for row in rows for s in itertools.accumulate(row)):
                continue
            s = sum(sum(row) << i for i, row in enumerate(rows))
            for r in range(1 << n):
                if all(
                    c in (0, 1)
                    for j in range(n)
                    for c in itertools.accumulate([r >> j & 1] + [row[j] for row in rows[::-1]])
                ):
                    want[r][s] += 1
        built = [[0] * (1 << n) for _ in range(1 << n)]
        for r, out in enumerate(asm._transfer_steps(n)[0]):
            for s, w, _ in out:
                built[r][s] = w
        assert transfer_matrix(n) == want == built, n


def _entry_table_deficit(rows: list[tuple[int, ...]], r: int, free: bool) -> int | None:
    """The deficit that ``_rows`` charges a matrix taken row after row
    through ``asm._ENTRIES``, or None if the table refuses one of its entries."""
    n = len(rows)
    was, spent = [0] * n, 0
    for i, row in enumerate(rows):
        p = 0
        for j, x in enumerate(row):
            rj = None if i < n - 1 else -1 if free and j == n - 1 else r >> j & 1
            got = [t for t in asm._ENTRIES[was[j], rj][p] if t[0] - p == x]
            if not got:
                return None
            [(p, cost, plus, minus)] = got
            assert (plus, minus) == (x > 0, x < 0)
            spent += cost
            was[j] = x or was[j]
    return spent


@pytest.mark.parametrize("free", [False, True], ids=["after r", "after itself"])
@pytest.mark.parametrize("n", range(1, 4))
def test_the_entry_table_reads_the_conditions_literally(n, free):
    # the table admits exactly the matrices meeting condition (1) and, after
    # row sums r, condition (2), and charges each sum_j (1 - r_j - c_j); with
    # free (circular k = 1) a matrix follows itself, so r is its own row sums
    for entries in itertools.product((-1, 0, 1), repeat=n * n):
        rows = [entries[i * n : (i + 1) * n] for i in range(n)]
        one = all(s in (0, 1) for row in rows for s in itertools.accumulate(row))
        for r in [sum((sum(row) == 1) << i for i, row in enumerate(rows))] if free else range(1 << n):
            two = all(
                c in (0, 1)
                for j in range(n)
                for c in itertools.accumulate([r >> j & 1] + [row[j] for row in rows[::-1]])
            )
            deficit = sum(1 - (r >> j & 1) - sum(row[j] for row in rows) for j in range(n))
            assert _entry_table_deficit(rows, r, free) == (deficit if one and two else None), (rows, r)


@pytest.mark.parametrize("n", range(1, 8))
def test_column_steps_equal_the_steps_of_the_row_dp(n):
    # tuple for tuple, in the walk's order: by the deficit n - |r| - |s|, then by s
    want = tuple(
        tuple(sorted(((s, w, n - r.bit_count() - s.bit_count()) for s, w in enumerate(row) if w), key=lambda t: t[2]))
        for r, row in enumerate(transfer_matrix(n))
    )
    assert asm._transfer_steps(n)[0] == want


@pytest.mark.parametrize("n", range(1, 9))
def test_the_transfer_potential_leaves_no_step_a_negative_deficit(n):
    # a step's deficit is n - |r| - |s| >= 0: condition (2) caps column j's
    # sum at 1 - r_j; the steps out of r are sorted by it
    steps, ends = asm._transfer_steps(n)
    assert all(d == n - r.bit_count() - s.bit_count() >= 0 for r, row in enumerate(steps) for s, _, d in row)
    assert all([d for _, _, d in row] == sorted(d for _, _, d in row) for row in steps)
    # a linear walk's last step out of r: its deficit plus n - |s|, that of closing at s
    for r, row in enumerate(steps):
        merged = {}
        for s, w, _ in row:
            digit = 2 * n - r.bit_count() - 2 * s.bit_count()
            merged[digit] = merged.get(digit, 0) + w
        assert ends[r] == tuple(sorted(merged.items())), r


@pytest.mark.parametrize("n", range(1, 8))
def test_the_reduced_transfer_walk_equals_the_full_walk_at_the_maximum(n):
    # the full walk counts costs |s| over every step of the reference's T; the
    # reduced one reads each (shape, n)'s eight k off one walk, and each k
    # alone, by deficit
    costs = [sorted(((s, w, s.bit_count()) for s, w in enumerate(row) if w), key=lambda t: t[2])
             for row in transfer_matrix(n)]
    for shape in (linear, circular):
        boards = [shape(n, k) for k in range(1, 9)]
        full = _count_walks(costs, [(b.k, max_rooks(b)) for b in boards], boards[0].circular)
        assert asm._count_tm_max(boards) == full
        assert [count_chained_asm_tm(b) for b in boards] == full


class _Built(Exception):
    pass


def _build(n):  # stands in for a build that would take seconds or minutes
    raise _Built(n)


@pytest.mark.parametrize(
    "board, shown",
    [
        (linear(11, 1), "11"),
        (circular(11, 1), "11"),
        (linear(200, 1), "200"),
        (linear(11, 10**6), "11"),
        (linear(10**5000, 1), r"1000000000000000000000000000000000000000… \(5001 characters\)"),
    ],
    ids=["linear n = 11", "circular n = 11", "linear n = 200", "large k", "n past the digit limit"],
)
def test_transfer_count_refuses_n_past_its_cap(monkeypatch, board, shown):
    monkeypatch.setattr(asm, "_transfer_steps", _build)
    with pytest.raises(UnsupportedDomainError, match=rf"^the transfer count builds steps for n <= 10, not n = {shown}$") as info:
        count_chained_asm_tm(board)
    assert len(str(info.value).encode()) < 200


@pytest.mark.parametrize(
    "board",
    [linear(10, 1), circular(10, 1), linear(10, 10**6)],
    ids=["linear n = 10", "circular n = 10", "large k"],
)
def test_transfer_count_builds_up_to_its_cap(monkeypatch, board):
    # the cap bounds n only; k sets the walk's length, not the build
    monkeypatch.setattr(asm, "_transfer_steps", _build)
    with pytest.raises(_Built, match="^10$"):
        count_chained_asm_tm(board)
