"""Byte identity as a test: SHA-256 digests of whole outputs, pinned.

Each CLI digest runs a fixed list of commands through ``cli.main`` in
process and hashes, per command, its stdin (empty for most), then
``repr((argv, exit code, len(stdout), len(stderr)))``, then stdout and
stderr, all UTF-8.  The avatar digest hashes, per conversion, the
``repr`` of its label and of its image's document or its error.  A change
that alters these bytes on purpose updates the digest and says why.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from chainedboards.asm import enumerate_chained_asm
from chainedboards.boards import circular, linear
from chainedboards.cli import main
from chainedboards.errors import ChainedBoardsError
from chainedboards.serialization import FAMILIES, family_of, serialize

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


def _run(argv, stdin: str = "") -> tuple[int, str, str]:
    """``cli.main(argv)`` reading ``stdin``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _record(h, argv, stdin: str = "", clean=lambda out: out) -> tuple[int, str]:
    """Run ``argv`` on ``stdin`` and feed the recipe above to ``h``, with
    ``clean`` applied to stdout first; the exit code and that stdout."""
    code, text, err = _run(argv, stdin)
    text = clean(text)
    h.update(stdin.encode())
    h.update(repr((argv, code, len(text), len(err))).encode())
    h.update(text.encode())
    h.update(err.encode())
    return code, text


def _digest(runs, clean=lambda out: out) -> str:
    """The recipe above over each argv of ``runs``, without stdin."""
    h = hashlib.sha256()
    for argv in runs:
        _record(h, argv, clean=clean)
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


def _enumerate(family: str, shape: str, n: int, k: int, *more: str) -> list[str]:
    return ["enumerate", "--family", family, "--shape", shape, "-n", str(n), "-k", str(k), *more]


# streams where a board-by-board search departs most from a row-by-row one,
# pinned from the row search: a circular board chained to itself (k = 1),
# the circular chain's closing constraint, every m of one cell, and
# 500-document prefixes of streams whose board 1 has 8! and 13,327 options
BOARD_WISE_RUNS = {
    "circular k = 1": (
        [_enumerate("perms", "circular", n, 1) for n in (4, 5)],
        "fa89090418f927abd52f06bee4309ca3f9103b9d13233d98935ffd236e6da6a4",
    ),
    "closing": (
        [_enumerate("perms", "circular", 5, 2)],
        "dc26894197eeefa48ecd1f8d3713be77c9ba86da953ad352e55003a726777e0d",
    ),
    "every m": (
        [_enumerate("placements", "linear", 2, 3, "-m", str(m)) for m in range(7)],
        "cca6c79048ecd77b7b63e49964ad5546c7f955a66bb9dd48ccc5423729640d9a",
    ),
    "prefixes": (
        [_enumerate("perms", "linear", n, k, "--limit", "500") for n, k in ((8, 1), (6, 2))],
        "fdc15ecc992c8868aa2f487772351573b4feab12c0755e5bd94dabd2f0a5dcae",
    ),
}


@pytest.mark.parametrize("name", BOARD_WISE_RUNS)
def test_board_wise_streams_are_pinned(name):
    runs, digest = BOARD_WISE_RUNS[name]
    assert _digest(runs) == digest


def test_verify_tables_reports_are_pinned():
    runs = [
        ["verify-tables", "--max-n", str(n), "--max-k", str(k), "--budget-seconds", "100000"]
        for n, k in TABLE_LIMITS
    ]
    assert _digest(runs, _without_seconds) == "e3a5ce68102321cbb1ffa374ab3bcf28dd5329269829eb9dec8891aa3796f0e3"


# (family, shape, n, k, m or None, how many): the first documents `enumerate`
# writes of each cell, the sources that convert, validate and render read
SOURCE_CELLS = (
    ("asm", "circular", 2, 2, None, 10),
    ("asm", "circular", 2, 4, None, 8),
    ("asm", "circular", 4, 1, None, 6),
    ("asm", "circular", 3, 1, None, 6),
    ("asm", "circular", 3, 2, None, 6),
    ("asm", "linear", 2, 3, None, 4),
    ("perms", "linear", 3, 2, None, 6),
    ("perms", "circular", 3, 2, None, 4),
    ("perms", "circular", 2, 4, None, 4),
    ("placements", "linear", 2, 2, 2, 4),
    ("placements", "circular", 3, 2, 2, 3),
)
SOURCE_ALIAS = {"asm": "asm", "perms": "matrix", "placements": "placement"}

# documents that each fail to parse or to validate, one way apiece
MALFORMED = (
    "",
    "   \n",
    "{}",
    "[1, 2, 3]",
    '{"family": "chained-asm", "shape": "circular"',
    '{"family": "chained-asm", "shape": "circular", "n": 2, "k": 2}\n',
    '{"family": "chained-bsm", "shape": "circular", "n": 2, "k": 2, "matrices": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}\n',
    '{"family": "chained-asm", "shape": "circular", "n": 1, "k": 2, "matrices": [[[true]], [[0]]]}\n',
    '{"family": "chained-asm", "shape": "circular", "n": 1, "k": 2, "matrices": [[[1.0]], [[0]]]}\n',
    '{"family": "chained-asm", "shape": "circular", "n": 2, "k": 2, "matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}\n',
    '{"family": "chained-asm", "shape": "linear", "n": 2, "k": 1, "matrices": [[[-1, 1], [1, 0]]]}\n',
    '{"family": "chained-asm", "shape": "linear", "n": 2, "k": 1, "matrices": [[[1, 0], [0, 1, 0]]]}\n',
    '{"family": "chained-asm", "shape": "spiral", "n": 2, "k": 1, "matrices": [[[1, 0], [0, 1]]]}\n',
    '{"family": "chained-asm", "shape": "linear", "n": true, "k": 1, "matrices": [[[1]]]}\n',
    '{"family": "chained-asm", "shape": "linear", "n": 0, "k": 1, "matrices": [[]]}\n',
    '{"family": "chained-asm", "shape": "linear", "n": ' + "9" * 5000 + ', "k": 1, "matrices": []}\n',
    '{"family": "chained-permutation", "shape": "linear", "n": 2, "k": 1, "matrices": [[[1, 0], [0, -1]]]}\n',
    '{"family": "chained-permutation", "shape": "linear", "n": 2, "k": 2, "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}\n',
    "11-00-",
    "12-0",
    "13-00",
    "1\u0662-00-",
    "-",
    '{"family": "placement", "shape": "linear", "n": 2, "k": 2, "squares": [[1, 1, 1], [2, 1, 1]]}\n',
    '{"family": "placement", "shape": "linear", "n": 2, "k": 2, "squares": [[1, 1, 3]]}\n',
    '{"family": "placement", "shape": "linear", "n": 2, "k": 2, "squares": [[1, 1]]}\n',
    '{"family": "chain-matching", "shape": "circular", "n": 2, "k": 1, "edges": [[1, 1, 1]]}\n',
    '{"family": "chain-matching", "shape": "linear", "n": 2, "k": 2, "edges": [[1, 1, 2], [2, 2, 1]]}\n',
    '{"family": "one-line", "shape": "linear", "n": 2, "k": 2, "blocks": [[1, 2], [0, 3]]}\n',
    '{"family": "monotone-triangle-chain", "shape": "circular", "n": 2, "k": 2, "triangles": [[[2], [4, 1]]]}\n',
    '{"family": "plain-asm", "n": 2, "matrix": [[1, 1], [0, 0]]}\n',
    '{"family": "fpl", "shape": "circular", "n": 2, "k": 2, "edges": [5]}\n',
    '{"family": "fpl", "shape": "circular", "n": 2, "k": 2, "edges": ["h:1,1,9"]}\n',
    '{"family": "ice", "shape": "circular", "n": 1, "k": 2, "orientation": {}}\n',
    '{"family": "ice", "shape": "linear", "n": 1, "k": 2, "orientation": {}}\n',
)

# conversions that run on every chained ASM of these cells, and on its images
AVATAR_CELLS = (
    circular(2, 4), circular(4, 1), circular(2, 1), circular(2, 2), circular(2, 6), linear(2, 2),
    circular(3, 1), circular(3, 2),
)


def _sources() -> list[tuple[str, str]]:
    """(the alias its images convert back to, document) of each source: the
    enumerated ones, then MALFORMED."""
    docs = []
    for family, shape, n, k, m, count in SOURCE_CELLS:
        argv = ["enumerate", "--family", family, "--shape", shape, "-n", str(n), "-k", str(k),
                "--limit", str(count), *(() if m is None else ("-m", str(m)))]
        code, out, _ = _run(argv)
        assert code == 0 and out.count("\n") == count
        docs += [(SOURCE_ALIAS[family], line + "\n") for line in out.splitlines()]
    return docs + [("asm", doc) for doc in MALFORMED]


def test_convert_validate_render_are_pinned():
    # every source is validated, rendered and converted to each family; each
    # image is validated, rendered and converted back
    checks = (["validate"], ["validate", "--family", "ice"], ["render", "--format", "ascii"],
              ["render", "--format", "dot"])
    h = hashlib.sha256()
    runs = 0
    for alias, doc in _sources():
        for argv in checks:
            _record(h, argv, doc)
        for target in (f.alias for f in FAMILIES):
            code, image = _record(h, ["convert", "--to", target], doc)
            runs += 1 + len(checks)
            if code == 0:
                for argv in (*checks, ["convert", "--from", target, "--to", alias]):
                    _record(h, argv, image)
                runs += 1 + len(checks)
    assert runs == 5810
    assert h.hexdigest() == "4f744956e37965fa218ec0e4ef3554a33579f0e4e4ed4f1451aac3fb57fcac56"


def test_avatar_images_and_errors_are_pinned():
    # from each chained ASM, every direct conversion of each family it reaches
    to = {f.alias: f.to for f in FAMILIES}
    h = hashlib.sha256()
    runs = 0
    for board in AVATAR_CELLS:
        for a in enumerate_chained_asm(board):
            todo, seen = [("asm", a)], {"asm"}
            for alias, obj in todo:
                for target, step in to[alias].items():
                    try:
                        result = serialize(image := step(obj))
                    except ChainedBoardsError as exc:
                        result = (type(exc).__name__, str(exc), getattr(exc, "problems", None))
                    else:
                        assert family_of(image).alias == target
                        if target not in seen:
                            seen.add(target)
                            todo.append((target, image))
                    h.update(repr((alias, target, result)).encode())
                    runs += 1
    assert runs == 4908
    assert h.hexdigest() == "88e2a3f4c2d44d8e3a6aa7ad32a7951746301c1131cfe542b2e5d68b44ec709b"
