"""Byte identity as a test: SHA-256 digests of whole CLI outputs, pinned.

Each digest runs a fixed list of commands through ``cli.main`` in process
and hashes, per command, ``repr((argv, exit code, len(stdout),
len(stderr)))`` followed by stdout and stderr, all UTF-8.  A change that
alters these bytes on purpose updates the digest and says why.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from chainedboards.cli import main

# (family, shape, n, k, m or None): whole table cells, well and poorly
# pruned chained-ASM searches, one perms cell of 7.8 MB, and placements
ENUMERATE_CELLS = (
    *(("asm", shape, n, k, None) for shape, n, k in (
        ("circular", 3, 3), ("circular", 5, 1), ("circular", 4, 1), ("circular", 2, 8),
        ("circular", 2, 6), ("circular", 3, 2), ("circular", 2, 5), ("linear", 2, 6),
        ("linear", 3, 2), ("linear", 5, 1), ("linear", 2, 4),
    )),
    *(("perms", shape, n, k, None) for shape, n, k in (
        ("linear", 5, 2), ("linear", 3, 4), ("linear", 4, 2), ("circular", 3, 4), ("circular", 2, 6),
    )),
    ("placements", "linear", 4, 2, 4),
    ("placements", "linear", 3, 3, 4),
    ("placements", "circular", 3, 3, 3),
    ("placements", "linear", 3, 2, 3),
    ("placements", "circular", 2, 4, 4),
)

# (max n, max k) of verify-tables runs that skip nothing
TABLE_LIMITS = ((1, 1), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (4, 1), (5, 1))


def _digest(runs, clean=lambda out: out) -> str:
    """The recipe above over ``cli.main(argv)`` for each argv of ``runs``,
    with ``clean`` applied to stdout first."""
    h = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        text = clean(out.getvalue())
        h.update(repr((argv, code, len(text), len(err.getvalue()))).encode())
        h.update(text.encode())
        h.update(err.getvalue().encode())
    return h.hexdigest()


def _without_seconds(tsv: str) -> str:
    """The TSV with its last column, the timings, dropped."""
    return "".join(line.rpartition("\t")[0] + "\n" for line in tsv.splitlines())


def test_enumerate_streams_are_pinned():
    runs = [
        ["enumerate", "--family", family, "--shape", shape, "-n", str(n), "-k", str(k),
         *(() if m is None else ("-m", str(m)))]
        for family, shape, n, k, m in ENUMERATE_CELLS
    ]
    assert len(runs) == 21
    assert _digest(runs) == "aaba3610dc6c59821c37544bad16e0186f867c1f433afe71b6460aefad105c55"


def test_verify_tables_reports_are_pinned():
    runs = [
        ["verify-tables", "--max-n", str(n), "--max-k", str(k), "--budget-seconds", "100000"]
        for n, k in TABLE_LIMITS
    ]
    assert _digest(runs, _without_seconds) == "e3a5ce68102321cbb1ffa374ab3bcf28dd5329269829eb9dec8891aa3796f0e3"
