from __future__ import annotations

import pytest

from chainedboards import asm
from chainedboards.boards import BoardSpec, Shape, max_rooks
from chainedboards.counting import count_placements_formula
from chainedboards.errors import InputDomainError
from chainedboards.verify import TABLE_CELLS, VerificationReport, verify_tables


def test_default_budget_passes_required_cells():
    # The skip decisions depend only on the cells' n, so the set is exact:
    # under the default budget every cell runs and passes.
    report = verify_tables()
    status = {(r.shape, r.n, r.k): r.status for r in report.records if r.family == "chained-asm"}
    assert len(status) == len(TABLE_CELLS)
    assert all(s == "pass" for s in status.values())
    assert not report.skipped and not report.failures


def test_tables_do_not_enumerate(monkeypatch):
    # the table cells are counted by transfer matrix; the enumerator is
    # their cross-check in the tests, never part of a verify-tables run
    def refuse(board):
        raise AssertionError(f"enumerated {board}")

    monkeypatch.setattr(asm, "enumerate_chained_asm", refuse)
    report = verify_tables()
    assert not report.skipped and not report.failures


def test_max_filters():
    report = verify_tables(max_n=2, max_k=4)
    cells = [r for r in report.records if r.family == "chained-asm"]
    assert cells and all(r.n <= 2 and r.k <= 4 for r in cells)
    assert all(r.status == "pass" for r in cells)


def test_tiny_budget_skips_loudly():
    report = verify_tables(budget_seconds=0.0)
    cells = [r for r in report.records if r.family == "chained-asm"]
    assert cells and all(r.status == "skip" for r in cells)
    assert all(r.actual is None for r in cells)
    # the cheap formula cross-checks still run
    assert any(r.family == "max-placements" and r.status == "pass" for r in report.records)


# every row of verify_tables(max_n=1, max_k=2) but its seconds column
SMALL_REPORT = """
chained-asm linear 1 1 1 1 1 paper-table pass
chained-asm linear 1 2 1 2 2 paper-table pass
chained-asm circular 1 1 0 1 1 paper-table pass
chained-asm circular 1 2 1 2 2 paper-table pass
max-placements linear 1 1 1 1 1 closed-form pass
max-placements linear 1 2 1 2 2 closed-form pass
max-placements linear 1 3 2 1 1 closed-form pass
max-placements linear 1 4 2 3 3 closed-form pass
max-placements linear 1 5 3 1 1 closed-form pass
max-placements linear 1 6 3 4 4 closed-form pass
max-placements linear 2 1 2 2 2 closed-form pass
max-placements linear 2 2 2 12 12 closed-form pass
max-placements linear 2 3 4 4 4 closed-form pass
max-placements linear 2 4 4 76 76 closed-form pass
max-placements linear 2 5 6 8 8 closed-form pass
max-placements linear 2 6 6 384 384 closed-form pass
max-placements linear 3 1 3 6 6 closed-form pass
max-placements linear 3 2 3 120 120 closed-form pass
max-placements linear 3 3 6 36 36 closed-form pass
max-placements linear 3 4 6 5292 5292 closed-form pass
max-placements linear 3 5 9 216 216 closed-form pass
max-placements linear 3 6 9 164160 164160 closed-form pass
max-placements linear 4 1 4 24 24 closed-form pass
max-placements linear 4 2 4 1680 1680 closed-form pass
max-placements linear 4 3 8 576 576 closed-form pass
max-placements linear 4 4 8 720576 720576 closed-form pass
max-placements linear 4 5 12 13824 13824 closed-form pass
max-placements linear 4 6 12 191324160 191324160 closed-form pass
max-placements circular 1 1 0 1 1 closed-form pass
max-placements circular 1 2 1 2 2 closed-form pass
max-placements circular 1 3 1 3 3 closed-form pass
max-placements circular 1 4 2 2 2 closed-form pass
max-placements circular 1 5 2 5 5 closed-form pass
max-placements circular 1 6 3 2 2 closed-form pass
max-placements circular 2 1 1 2 2 closed-form pass
max-placements circular 2 2 2 8 8 closed-form pass
max-placements circular 2 3 3 8 8 closed-form pass
max-placements circular 2 4 4 24 24 closed-form pass
max-placements circular 2 5 5 32 32 closed-form pass
max-placements circular 2 6 6 80 80 closed-form pass
max-placements circular 3 1 1 6 6 closed-form pass
max-placements circular 3 2 3 48 48 closed-form pass
max-placements circular 3 3 4 324 324 closed-form pass
max-placements circular 3 4 6 720 720 closed-form pass
max-placements circular 3 5 7 9720 9720 closed-form pass
max-placements circular 3 6 9 12096 12096 closed-form pass
max-placements circular 4 1 2 12 12 closed-form pass
max-placements circular 4 2 4 384 384 closed-form pass
max-placements circular 4 3 6 1728 1728 closed-form pass
max-placements circular 4 4 8 40320 40320 closed-form pass
max-placements circular 4 5 10 248832 248832 closed-form pass
max-placements circular 4 6 12 4783104 4783104 closed-form pass
placements linear 1 1 1 1 1 brute-force pass
placements linear 1 2 1 2 2 brute-force pass
placements linear 1 3 2 1 1 brute-force pass
placements linear 2 1 2 2 2 brute-force pass
placements linear 2 2 2 12 12 brute-force pass
placements linear 2 3 4 4 4 brute-force pass
placements circular 1 1 0 1 1 brute-force pass
placements circular 1 2 1 2 2 brute-force pass
placements circular 1 3 1 3 3 brute-force pass
placements circular 2 1 1 2 2 brute-force pass
placements circular 2 2 2 8 8 brute-force pass
placements circular 2 3 3 8 8 brute-force pass
"""


def test_tsv_layout():
    report = verify_tables(max_n=1, max_k=2, budget_seconds=5)
    text = report.to_tsv()
    lines = text.strip().splitlines()
    assert lines[0] == VerificationReport.HEADER
    assert all(len(line.split("\t")) == 10 for line in lines)
    assert [line.split("\t")[:-1] for line in lines[1:]] == [
        row.split() for row in SMALL_REPORT.strip().splitlines()
    ]


def test_rook_rows_read_off_one_walk_equal_the_formula():
    # each (shape, n) group's six k are read off one walk; every row must
    # still be what its own single-read walk gives
    records = [r for r in verify_tables(max_n=0).records if r.family in ("max-placements", "placements")]
    assert len(records) == 60
    for r in records:
        board = BoardSpec(Shape(r.shape), r.n, r.k)
        assert r.m == max_rooks(board)
        assert r.actual == count_placements_formula(board, r.m), r
    # the walk's time goes on its group's largest k, the row it was run for
    assert all((r.seconds > 0) == (r.family == "max-placements" and r.k == 6) for r in records)


def test_table_constant_is_complete():
    # 24 linear reference cells and 26 circular ones
    linear_cells = [c for c in TABLE_CELLS if c[0].shape.value == "linear"]
    circular_cells = [c for c in TABLE_CELLS if c[0].shape.value == "circular"]
    assert len(linear_cells) == 24
    assert len(circular_cells) == 26


@pytest.mark.parametrize("limits", [{"max_n": "a"}, {"max_k": 2.5}, {"max_n": True}])
def test_limits_must_be_ints_or_none(limits):
    with pytest.raises(InputDomainError, match=r"^max_[nk] must be an int or None, got "):
        verify_tables(**limits)


@pytest.mark.parametrize("budget", ["a", None, True, float("nan"), -1, -0.5, float("-inf")])
def test_budget_must_be_an_int_or_float_of_at_least_zero(budget):
    with pytest.raises(InputDomainError, match=r"^budget_seconds must be an int or float >= 0, got "):
        verify_tables(max_n=1, max_k=1, budget_seconds=budget)
