"""The four workloads: their operations, inputs and output checks.

Each workload builds a fixed list of CLI operations; a run makes whole
passes over it.  Every check compares with ``oracles`` (independent
computations) or with a property of the output, never with a stored copy of
an earlier output.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import oracles

TABLES_BUDGET = "100000"  # seconds: large enough that verify-tables skips nothing


@dataclass
class Op:
    """One CLI command: its argv, what it reads on stdin, the exit code it
    must give and a check of what it writes.  ``check`` gets the whole
    output; ``lines`` instead makes a checker that is fed line by line."""

    label: str
    argv: list[str]
    check: Callable[[str], str | None] | None = None
    lines: Callable[[], "DocStream"] | None = None
    stdin: Callable[[], str] = lambda: ""
    expect_rc: int = 0


def board_args(shape: str, n: int, k: int) -> list[str]:
    return ["--shape", shape, "-n", str(n), "-k", str(k)]


def expect_text(want: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == want else f"wrote {out[:80]!r}, expected {want[:80]!r}"

    return check


# --- count -----------------------------------------------------------------

COUNT_BOARDS = (("linear", 5, 8), ("circular", 3, 10), ("linear", 6, 6), ("circular", 5, 6))


def build_count(lib, seed: int) -> list[Op]:
    """The whole rook polynomial of each board by the composition formula,
    plus the closed form at the maximum."""
    ops = []
    for shape, n, k in COUNT_BOARDS:
        poly = oracles.placement_polynomial(shape, n, k)
        top = oracles.max_rooks(shape, n, k)
        for m in range(top + 1):
            ops.append(
                Op(
                    f"count {shape}({n},{k}) m={m}",
                    ["count", *board_args(shape, n, k), "--method", "formula", "-m", str(m)],
                    check=expect_text(f"{poly[m]}\n"),
                )
            )
        closed = oracles.closed_form_max(shape, n, k)
        if closed != poly[top]:
            raise oracles.OracleError(f"closed form {closed} != DP {poly[top]} on {shape}({n},{k})")
        ops.append(
            Op(
                f"count {shape}({n},{k}) closed",
                ["count", *board_args(shape, n, k), "--method", "closed"],
                check=expect_text(f"{closed}\n"),
            )
        )
    random.Random(seed).shuffle(ops)
    return ops


# --- enumerate -------------------------------------------------------------

ENUM_ASM = (
    ("circular", 3, 3),
    ("circular", 5, 1),
    ("circular", 4, 1),
    ("circular", 2, 8),
    ("circular", 2, 6),
    ("circular", 3, 2),
    ("circular", 2, 5),
    ("linear", 2, 6),
    ("linear", 3, 2),
    ("linear", 5, 1),
    ("linear", 2, 4),
)
ENUM_PERMS = (("linear", 5, 2), ("linear", 3, 4), ("linear", 4, 2), ("circular", 3, 4), ("circular", 2, 6))
ENUM_PLACEMENTS = (
    ("linear", 4, 2, 4),
    ("linear", 3, 3, 4),
    ("circular", 3, 3, 3),
    ("linear", 3, 2, 3),
    ("circular", 2, 4, 4),
)


class DocStream:
    """Checks an enumeration: every document is the right family on the
    right board, passes the oracle's condition checker, sorts strictly after
    the one before it, and there are exactly ``expected`` of them."""

    def __init__(self, family: str, shape: str, n: int, k: int, expected: int, key):
        self.head = {"family": family, "shape": shape, "n": n, "k": k}
        self.shape, self.n, self.k = shape, n, k
        self.expected = expected
        self.key = key  # document -> (sort key, problem or None)
        self.count = 0
        self.last = None
        self.problem: str | None = None

    def line(self, text: str) -> None:
        if self.problem is not None:
            return
        self.count += 1
        try:
            doc = json.loads(text)
        except ValueError:
            self.problem = f"document {self.count} is not JSON"
            return
        if not isinstance(doc, dict) or any(doc.get(f) != v for f, v in self.head.items()):
            self.problem = f"document {self.count} has the wrong header"
            return
        key, problem = self.key(doc)
        if problem is not None:
            self.problem = f"document {self.count}: {problem}"
        elif self.last is not None and not key > self.last:
            self.problem = f"document {self.count} does not sort after the one before it"
        self.last = key

    def finish(self, unfinished: str) -> str | None:
        if self.problem is not None:
            return self.problem
        if unfinished:
            return "output does not end with a newline"
        if self.count != self.expected:
            return f"{self.count} documents, expected {self.expected}"
        return None


def asm_key(shape, n, k):
    def key(doc):
        mats = doc.get("matrices")
        problem = oracles.chained_asm_problem(shape, n, k, mats)
        if problem is not None:
            return None, problem
        return tuple(x for mat in mats for row in mat for x in row), None

    return key


def perm_key(shape, n, k):
    top = oracles.max_rooks(shape, n, k)

    def key(doc):
        squares = oracles.permutation_squares(n, k, doc.get("matrices"))
        if squares is None:
            return None, "not k n x n 0/1 matrices"
        return tuple(squares), oracles.rooks_problem(shape, n, k, squares, top)

    return key


def placement_key(shape, n, k, m):
    def key(doc):
        squares = doc.get("squares")
        problem = oracles.placement_problem(shape, n, k, squares, m)
        if problem is None and squares != sorted(squares):
            problem = "squares are not sorted"
        return (tuple(map(tuple, squares)) if problem is None else None), problem

    return key


def build_enumerate(lib, seed: int) -> list[Op]:
    """Whole table cells: chained ASMs (well and poorly pruned searches),
    chained permutations (one cell of 7.8 MB of documents) and placements."""
    ops = []
    for shape, n, k in ENUM_ASM:
        want = oracles.PAPER_TABLE[(shape, n, k)]
        ops.append(
            Op(
                f"enumerate asm {shape}({n},{k})",
                ["enumerate", "--family", "asm", *board_args(shape, n, k)],
                lines=lambda s=shape, n=n, k=k, w=want: DocStream("chained-asm", s, n, k, w, asm_key(s, n, k)),
            )
        )
    for shape, n, k in ENUM_PERMS:
        want = oracles.closed_form_max(shape, n, k)
        ops.append(
            Op(
                f"enumerate perms {shape}({n},{k})",
                ["enumerate", "--family", "perms", *board_args(shape, n, k)],
                lines=lambda s=shape, n=n, k=k, w=want: DocStream(
                    "chained-permutation", s, n, k, w, perm_key(s, n, k)
                ),
            )
        )
    for shape, n, k, m in ENUM_PLACEMENTS:
        want = oracles.placement_polynomial(shape, n, k)[m]
        ops.append(
            Op(
                f"enumerate placements {shape}({n},{k}) m={m}",
                ["enumerate", "--family", "placements", *board_args(shape, n, k), "-m", str(m)],
                lines=lambda s=shape, n=n, k=k, m=m, w=want: DocStream(
                    "placement", s, n, k, w, placement_key(s, n, k, m)
                ),
            )
        )
    random.Random(seed).shuffle(ops)
    return ops


# --- convert ---------------------------------------------------------------

# Circular even-k cells, whose chained ASMs have every avatar.
CONVERT_ASM_CELLS = (("circular", 2, 4), ("circular", 2, 6), ("circular", 2, 8), ("circular", 3, 2), ("circular", 3, 4))
CONVERT_ASM_PREFIX = 1000  # circular(3,4) is sampled from its first 1000 in order
CONVERT_PERM_CELLS = (("linear", 3, 2), ("linear", 4, 2), ("circular", 3, 4), ("circular", 2, 6))
CONVERT_SAMPLE = 8  # objects per cell


def _doc(family: str, shape: str, n: int, k: int, **payload) -> str:
    return json.dumps({"family": family, "shape": shape, "n": n, "k": k, **payload})


def malformed_docs() -> list[tuple[str, str]]:
    """Documents that ``validate`` must reject with exit code 1.  The first
    two are accepted or crash today because of faults in the program:

    - an FPL edge that is not a string raises AttributeError out of the CLI
      (``str_to_edge`` calls ``.split`` on it);
    - ``true`` as a matrix entry is accepted as 1 (``x in {-1, 0, 1}`` holds
      for ``True``, and ``int(True)`` is 1).
    """
    one = [[1, 0], [0, 0]]
    return [
        ("fpl with a non-string edge", _doc("fpl", "circular", 2, 2, edges=[5])),
        ("chained ASM with a boolean entry", _doc("chained-asm", "circular", 1, 2, matrices=[[[True]], [[0]]])),
        ("truncated JSON", '{"family": "chained-asm", "shape": "circular"'),
        ("JSON array", "[1, 2, 3]"),
        ("missing matrices", _doc("chained-asm", "circular", 2, 2)),
        ("unknown family", _doc("chained-bsm", "circular", 2, 2, matrices=[one, one])),
        ("ASM below the maximum sum", _doc("chained-asm", "circular", 2, 2, matrices=[one, [[0, 0], [0, 0]]])),
        ("ASM with a -1 on top", _doc("chained-asm", "linear", 2, 1, matrices=[[[-1, 1], [1, 0]]])),
        ("one-line with a repeated value", "11-00-"),
        ("attacking placement", _doc("placement", "linear", 2, 2, squares=[[1, 1, 1], [2, 1, 1]])),
        ("triangle row out of order", _doc("monotone-triangle-chain", "circular", 2, 2, triangles=[[[2], [4, 1]]])),
    ]


class Chain:
    """Documents produced by earlier operations of a pass, read by later ones."""

    def __init__(self):
        self.docs: dict[tuple, str] = {}
        self.images: dict[tuple, str] = {}  # (conversion, image) -> source

    def store(self, key: tuple, source: str, conversion: str, family: str):
        """Check that an output is one document of ``family`` that no other
        source has as its image, and keep it under ``key``."""

        def check(out: str) -> str | None:
            if out.count("\n") != 1 or not out.endswith("\n"):
                return "expected one document"
            try:
                doc = json.loads(out)
            except ValueError:
                return "output is not JSON"
            if doc.get("family") != family:
                return f"output is a {doc.get('family')}, expected a {family}"
            owner = self.images.setdefault((conversion, out), source)
            if owner != source:
                return f"{conversion} maps two inputs to one image"
            self.docs[key] = out
            return None

        return check

    def read(self, key: tuple) -> Callable[[], str]:
        return lambda: self.docs.get(key, "")


def ascii_matrices(matrices) -> Callable[[str], str | None]:
    """The ascii rendering must list the matrices' entries in order."""
    want = [x for mat in matrices for row in mat for x in row]

    def check(out: str) -> str | None:
        got = [int(t) for t in re.findall(r"-?\d+", re.sub(r"matrix \d+", "", out))]
        return None if got == want else "ascii rendering does not list the entries"

    return check


def dot_edges(kind: str, chain: Chain, key: tuple, payload: str) -> Callable[[str], str | None]:
    """A dot rendering has one edge line per edge of the stored document."""
    arrow = "->" if kind == "digraph" else "--"

    def check(out: str) -> str | None:
        doc = json.loads(chain.docs[key])
        want = len(doc[payload])
        if not out.startswith(f"{kind} ") or not out.endswith("}\n"):
            return "not a dot graph"
        got = sum(1 for line in out.splitlines() if f" {arrow} " in line)
        if payload == "edges" and kind == "graph" and doc["family"] == "chain-matching":
            got = out.count("style=bold")
        return None if got == want else f"{got} edges drawn, expected {want}"

    return check


def sample_convert_inputs(lib, seed: int) -> tuple[list[tuple], list[tuple]]:
    """A seeded sample of chained ASMs and chained permutations, as documents."""
    rng = random.Random(seed)
    asms = []
    for shape, n, k in CONVERT_ASM_CELLS:
        board = lib.BoardSpec(lib.Shape(shape), n, k)
        stream = list(itertools.islice(lib.enumerate_chained_asm(board), CONVERT_ASM_PREFIX))
        for idx in sorted(rng.sample(range(len(stream)), CONVERT_SAMPLE)):
            asms.append(((shape, n, k), lib.serialize(stream[idx])))
    perms = []
    for shape, n, k in CONVERT_PERM_CELLS:
        board = lib.BoardSpec(lib.Shape(shape), n, k)
        stream = list(lib.enumerate_placements(board, lib.max_rooks(board)))
        for idx in sorted(rng.sample(range(len(stream)), CONVERT_SAMPLE)):
            perms.append(((shape, n, k), lib.serialize(lib.placement_to_matrices(stream[idx]))))
    return asms, perms


def asm_ops(chain: Chain, i: int, cell, doc: str) -> list[Op]:
    shape, n, k = cell
    matrices = json.loads(doc)["matrices"]
    problem = oracles.chained_asm_problem(shape, n, k, matrices)
    if problem is not None:
        raise oracles.OracleError(f"sampled chained ASM fails {problem}")
    a, mt, ice, fpl = (("asm", i, x) for x in ("asm", "mt", "ice", "fpl"))
    chain.docs[a] = doc
    src = f"asm {i}"
    name = f"{shape}({n},{k}) asm {i}"

    def convert(frm, to, key_in, check):
        return Op(f"convert {frm}->{to} {name}", ["convert", "--from", frm, "--to", to], check, stdin=chain.read(key_in))

    return [
        convert("asm", "mt", a, chain.store(mt, src, "asm->mt", "monotone-triangle-chain")),
        convert("mt", "asm", mt, expect_text(doc)),
        convert("asm", "ice", a, chain.store(ice, src, "asm->ice", "ice")),
        convert("ice", "fpl", ice, chain.store(fpl, src, "ice->fpl", "fpl")),
        convert("fpl", "ice", fpl, lambda out: expect_text(chain.docs[ice])(out)),
        convert("ice", "asm", ice, expect_text(doc)),
        Op(f"validate {name}", ["validate"], expect_text("valid chained-asm\n"), stdin=chain.read(a)),
        Op(f"validate ice {name}", ["validate"], expect_text("valid ice\n"), stdin=chain.read(ice)),
        Op(f"render ascii {name}", ["render", "--format", "ascii"], ascii_matrices(matrices), stdin=chain.read(a)),
        Op(
            f"render ascii mt {name}",
            ["render", "--format", "ascii"],
            lambda out: None if out.count("triangle ") == k // 2 else "wrong number of triangles",
            stdin=chain.read(mt),
        ),
        Op(f"render dot ice {name}", ["render", "--format", "dot"], dot_edges("digraph", chain, ice, "orientation"), stdin=chain.read(ice)),
        Op(f"render dot fpl {name}", ["render", "--format", "dot"], dot_edges("graph", chain, fpl, "edges"), stdin=chain.read(fpl)),
    ]


def perm_ops(chain: Chain, i: int, cell, doc: str) -> list[Op]:
    shape, n, k = cell
    matrices = json.loads(doc)["matrices"]
    squares = oracles.permutation_squares(n, k, matrices)
    if squares is None or oracles.rooks_problem(shape, n, k, squares, oracles.max_rooks(shape, n, k)):
        raise oracles.OracleError("sampled chained permutation is not a maximum placement")
    p, line, match, asm = (("perm", i, x) for x in ("matrix", "oneline", "matching", "asm"))
    chain.docs[p] = doc
    src = f"perm {i}"
    name = f"{shape}({n},{k}) perm {i}"
    as_asm = doc.replace('"chained-permutation"', '"chained-asm"', 1)

    def convert(frm, to, key_in, check):
        return Op(f"convert {frm}->{to} {name}", ["convert", "--from", frm, "--to", to], check, stdin=chain.read(key_in))

    return [
        convert("matrix", "oneline", p, chain.store(line, src, "matrix->oneline", "one-line")),
        convert("oneline", "matrix", line, expect_text(doc)),
        convert("matrix", "matching", p, chain.store(match, src, "matrix->matching", "chain-matching")),
        convert("matching", "matrix", match, expect_text(doc)),
        convert("matrix", "asm", p, lambda out: expect_text(as_asm)(out) or chain.store(asm, src, "matrix->asm", "chained-asm")(out)),
        convert("asm", "matrix", asm, expect_text(doc)),
        Op(f"validate {name}", ["validate"], expect_text("valid chained-permutation\n"), stdin=chain.read(p)),
        Op(f"render ascii {name}", ["render", "--format", "ascii"], ascii_matrices(matrices), stdin=chain.read(p)),
        Op(f"render dot matching {name}", ["render", "--format", "dot"], dot_edges("graph", chain, match, "edges"), stdin=chain.read(match)),
    ]


def rejected(out: str) -> str | None:
    return None if out in ("", "invalid\n") else f"wrote {out[:60]!r} for a malformed document"


def build_convert(lib, seed: int) -> list[Op]:
    """Round trips through every avatar, validation and rendering of a seeded
    sample, plus a fixed slice of malformed documents."""
    asms, perms = sample_convert_inputs(lib, seed)
    chain = Chain()
    groups = [asm_ops(chain, i, cell, doc) for i, (cell, doc) in enumerate(asms)]
    groups += [perm_ops(chain, i, cell, doc) for i, (cell, doc) in enumerate(perms)]
    random.Random(seed).shuffle(groups)
    ops = [op for group in groups for op in group]
    for label, text in malformed_docs():
        ops.append(Op(f"validate {label}", ["validate"], rejected, stdin=lambda t=text: t, expect_rc=1))
    return ops


# --- tables ----------------------------------------------------------------

# An odd number of operations in a pass puts the median among the repeats of
# one operation; with six passes the tail rank (68th of 78) does too.  Between
# two operations of different cost it would jump with the noise.
TABLE_LIMITS = ((1, 1), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (4, 1), (5, 1))
TSV_HEADER = "family\tshape\tn\tk\tm\texpected\tactual\tsource\tstatus\tseconds"


def tables_check(max_n: int, max_k: int) -> Callable[[str], str | None]:
    """Every chained-ASM cell of the paper's table within the limits is
    reported once and matches; the placement rows match the oracles."""
    cells = {key for key in oracles.PAPER_TABLE if key[1] <= max_n and key[2] <= max_k}

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != TSV_HEADER:
            return "missing TSV header"
        seen = set()
        for row in lines[1:]:
            family, shape, n, k, m, expected, actual, _source, status, _ = row.split("\t")
            n, k, m = int(n), int(k), int(m)
            if status != "pass" or actual == "-":
                return f"{family} {shape}({n},{k}) has status {status}"
            if family == "chained-asm":
                want = oracles.PAPER_TABLE.get((shape, n, k))
                seen.add((shape, n, k))
            elif family == "max-placements":
                want = oracles.closed_form_max(shape, n, k)
            else:
                want = oracles.placement_polynomial(shape, n, k)[m]
            if int(actual) != want or int(expected) != want:
                return f"{family} {shape}({n},{k}) reports {expected}/{actual}, expected {want}"
        if seen != cells:
            return f"table cells {sorted(cells ^ seen)} missing or unexpected"
        return None

    return check


def build_tables(lib, seed: int) -> list[Op]:
    """verify-tables restricted to cells that finish within about a second."""
    ops = [
        Op(
            f"verify-tables n<={n} k<={k}",
            ["verify-tables", "--max-n", str(n), "--max-k", str(k), "--budget-seconds", TABLES_BUDGET],
            tables_check(n, k),
        )
        for n, k in TABLE_LIMITS
    ]
    random.Random(seed).shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable
    pass_seconds: float  # nominal reference seconds of one pass


WORKLOADS = {
    "count": Workload(build_count, 1.4),
    "enumerate": Workload(build_enumerate, 3.1),
    "convert": Workload(build_convert, 1.15),
    "tables": Workload(build_tables, 1.43),
}
