from __future__ import annotations

import os

import pytest

from chainedboards.verify import TABLE_CELLS, VerificationReport, verify_tables


def test_default_budget_passes_required_cells():
    # The skip decisions depend only on the expected counts, so the set is
    # exact: every cell runs and passes except these three.
    report = verify_tables()
    status = {(r.shape, r.n, r.k): r.status for r in report.records if r.family == "chained-asm"}
    skipped = {("linear", 4, 2), ("linear", 3, 4), ("circular", 3, 4)}
    assert len(status) == len(TABLE_CELLS)
    assert {key for key, s in status.items() if s == "skip"} == skipped
    assert all(s == "pass" for key, s in status.items() if key not in skipped)
    assert not report.failures


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


def test_tsv_layout():
    report = verify_tables(max_n=1, max_k=2, budget_seconds=5)
    text = report.to_tsv()
    lines = text.strip().splitlines()
    assert lines[0] == VerificationReport.HEADER
    assert all(len(line.split("\t")) == 10 for line in lines)


def test_table_constant_is_complete():
    # 24 linear reference cells and 26 circular ones
    linear_cells = [c for c in TABLE_CELLS if c[0].shape.value == "linear"]
    circular_cells = [c for c in TABLE_CELLS if c[0].shape.value == "circular"]
    assert len(linear_cells) == 24
    assert len(circular_cells) == 26


@pytest.mark.skipif(
    not os.environ.get("CHAINED_BOARDS_STRETCH"),
    reason="stretch cells run only with CHAINED_BOARDS_STRETCH=1",
)
def test_stretch_cells():
    from chainedboards.asm import count_chained_asm
    from chainedboards.boards import circular, linear

    assert count_chained_asm(linear(4, 2)) == 53932
    assert count_chained_asm(linear(3, 4)) == 98028
    assert count_chained_asm(circular(4, 2)) == 5544
    assert count_chained_asm(circular(5, 1)) == 3430
    assert count_chained_asm(circular(6, 1)) == 6860
