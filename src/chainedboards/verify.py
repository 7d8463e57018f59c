"""Verification harness: checks the paper's table of chained-ASM counts by
transfer matrix, without enumerating them, and the rook-placement formula
against closed forms and brute force, under a time budget.

Each check becomes one record; the report serializes as TSV with columns
family, shape, n, k, m, expected, actual, source, status, seconds.  A cell
whose estimated cost exceeds the remaining budget is skipped loudly rather
than run.  The chained-ASM cells are counted by transfer matrix, whose
steps are built column by column once per n in a process.  A cell's
estimate is a fixed function of its n: the 2 * 6^n additions that bound
that build, at one measured rate.  Every cell that runs is charged its
estimate, so the run/skip decisions depend only on the arguments, never
on the machine's speed or load.  The rook rows of one (shape, n) read
their six k off one composition walk, timed on the row of the largest k;
the other rows of the group read 0 seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from .asm import count_chained_asm_tm
from .boards import BoardSpec, Shape, circular, linear, max_rooks
from .counting import _composition_steps, _count_walks, count_max
from .errors import InputDomainError, clip
from .placements import count_placements_brute

# (shape, n, k) -> reference count of chained alternating sign matrices
TABLE_CELLS: tuple[tuple[BoardSpec, int], ...] = tuple(
    (BoardSpec(shape, n, k), expected)
    for shape, rows in (
        (
            Shape.LINEAR,
            {
                1: (1, 2, 7, 42, 429, 7436),
                2: (2, 17, 504, 53932),
                3: (1, 4, 49),
                4: (3, 159, 98028),
                5: (1, 8),
                6: (4, 1129),
                7: (1, 16),
                8: (5, 7151),
            },
        ),
        (
            Shape.CIRCULAR,
            {
                1: (1, 2, 20, 40, 3430, 6860),
                2: (2, 10, 140, 5544),
                3: (3, 14, 3861),
                4: (2, 42, 7436),
                5: (5, 82),
                6: (2, 214),
                7: (7, 478),
                8: (2, 1186),
                9: (9, 2786),
            },
        ),
    )
    for k, counts in rows.items()
    for n, expected in enumerate(counts, start=1)
)

# The transfer steps' build walks 2^(n+1) nodes, each making at most 3^n
# additions, one per state p and row set S allowed after it, so 2 * 6^n
# bounds its work.  The best of several builds for each n = 5..10 ran at
# 1.7e7 to 3.7e7 of these units per second on a 2-vCPU machine under
# Python 3.11; the rate charged is below all of them.
_RATE = 1e7


def _estimate(n: int) -> float:
    """Seconds charged against the budget for one chained-ASM cell."""
    return 2 * 6**n / _RATE


@dataclass(frozen=True)
class VerificationRecord:
    family: str
    shape: str
    n: int
    k: int
    m: int
    expected: int
    actual: int | None
    source: str
    status: str
    seconds: float

    def row(self) -> str:
        cells = vars(self)  # the fields, in their order
        if self.actual is None:  # a skipped cell
            cells = {**cells, "actual": "-"}
        return _ROW % tuple(cells.values())


# one cell per field of VerificationRecord, seconds to the millisecond
_ROW = "\t".join("%.3f" if f.name == "seconds" else "%s" for f in fields(VerificationRecord))


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[VerificationRecord, ...]

    HEADER = "\t".join(f.name for f in fields(VerificationRecord))

    def to_tsv(self) -> str:
        return "\n".join([self.HEADER, *(r.row() for r in self.records)]) + "\n"

    @property
    def failures(self) -> tuple[VerificationRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    @property
    def skipped(self) -> tuple[VerificationRecord, ...]:
        return tuple(r for r in self.records if r.status == "skip")


def _record(
    family: str, board: BoardSpec, source: str, expected: int, actual: int | None, seconds: float
) -> VerificationRecord:
    """Compare ``actual`` with ``expected`` and record the outcome; ``None`` is a skip."""
    status = "skip" if actual is None else "pass" if actual == expected else "fail"
    return VerificationRecord(
        family, board.shape.value, board.n, board.k, max_rooks(board),
        expected, actual, source, status, seconds,
    )


def verify_tables(
    max_n: int | None = None,
    max_k: int | None = None,
    budget_seconds: float = 30.0,
) -> VerificationReport:
    for name, limit in (("max_n", max_n), ("max_k", max_k)):
        if limit is not None and type(limit) is not int:  # a bool or float is no limit
            raise InputDomainError(f"{name} must be an int or None, got {clip(limit)}")
    if type(budget_seconds) not in (int, float) or not budget_seconds >= 0:  # a bool or NaN is no budget
        raise InputDomainError(f"budget_seconds must be an int or float >= 0, got {clip(budget_seconds)}")
    records = []
    left = budget_seconds
    for board, expected in TABLE_CELLS:
        if (max_n is not None and board.n > max_n) or (max_k is not None and board.k > max_k):
            continue
        estimate = _estimate(board.n)
        if estimate > left:
            records.append(_record("chained-asm", board, "paper-table", expected, None, 0.0))
            continue
        left -= estimate
        start = time.perf_counter()
        got = count_chained_asm_tm(board)
        seconds = time.perf_counter() - start
        records.append(_record("chained-asm", board, "paper-table", expected, got, seconds))

    formula = {}  # board -> its maximum placements by the composition walk
    for shape in (linear, circular):
        for n in range(1, 5):
            boards = [shape(n, k) for k in range(1, 7)]
            reads = [(b.k, max_rooks(b)) for b in boards]
            start = time.perf_counter()
            counts = _count_walks(_composition_steps(n), reads, boards[0].circular)
            seconds = time.perf_counter() - start
            for board, count in zip(boards, counts):
                formula[board] = count
                # the walk is run for the largest k; the shorter ones are read on the way
                records.append(
                    _record("max-placements", board, "closed-form", count_max(board), count,
                            seconds if board is boards[-1] else 0.0)
                )

    for shape in (linear, circular):
        for n in range(1, 3):
            for k in range(1, 4):
                board = shape(n, k)
                brute = count_placements_brute(board, max_rooks(board))
                records.append(_record("placements", board, "brute-force", brute, formula[board], 0.0))

    return VerificationReport(tuple(records))


__all__ = ["VerificationRecord", "VerificationReport", "verify_tables", "TABLE_CELLS"]
