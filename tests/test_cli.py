from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chainedboards.asm import ChainedASM, chained_asm_problems, enumerate_chained_asm, permutation_to_asm
from chainedboards.boards import Square, circular, linear, max_rooks
from chainedboards.cli import _BLOCK, _print_problems, build_parser, main
from chainedboards.errors import ValidationError
from chainedboards.ice import to_fpl, to_ice
from chainedboards.matchings import to_matching
from chainedboards.perms import ChainedPermutation, placement_to_matrices, to_one_line
from chainedboards.placements import enumerate_placements, placement_problems
from chainedboards.serialization import FAMILIES, deserialize, family_of, serialize
from chainedboards.triangles import to_monotone_triangles
from tests.worked_examples import (
    ALL_ONES_20,
    LONG_NUMBERS,
    MALFORMED,
    ODD_K_ICE,
    ONE_LINE_46,
    OVERSIZED,
    WORKED_46,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_formula(capsys):
    code, out, _ = run(capsys, "count", "--shape", "circular", "-n", "2", "-k", "2", "--method", "formula")
    assert code == 0 and out.strip() == "8"


def test_count_brute_with_m(capsys):
    code, out, _ = run(capsys, "count", "--shape", "linear", "-n", "3", "-k", "1", "--method", "brute", "-m", "3")
    assert code == 0 and out.strip() == "6"


def test_count_methods_agree(capsys):
    from chainedboards.boards import circular, linear, max_rooks

    for ctor, shape in ((linear, "linear"), (circular, "circular")):
        for n in range(1, 4):
            for k in range(1, 5):
                top = max_rooks(ctor(n, k))
                per_m: dict[int, set[int]] = {}
                for method in ("formula", "brute"):
                    for m in range(top + 1):
                        code, out, _ = run(
                            capsys, "count", "--shape", shape, "-n", str(n), "-k", str(k),
                            "--method", method, "-m", str(m),
                        )
                        assert code == 0
                        per_m.setdefault(m, set()).add(int(out))
                code, out, _ = run(
                    capsys, "count", "--shape", shape, "-n", str(n), "-k", str(k), "--method", "closed"
                )
                assert code == 0
                per_m.setdefault(top, set()).add(int(out))
                assert all(len(counts) == 1 for counts in per_m.values())


def test_count_closed_requires_max(capsys):
    code, _, err = run(capsys, "count", "--shape", "linear", "-n", "2", "-k", "2", "--method", "closed", "-m", "1")
    assert code == 2 and "maximum" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "count", "--shape", "square", "-n", "2", "-k", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_enumerate_limit_and_out(tmp_path, capsys):
    out_file = tmp_path / "placements.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--family", "placements", "--shape", "linear", "-n", "2", "-k", "1",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["family"] == "placement" for line in lines)

    code, out, _ = run(
        capsys, "enumerate", "--family", "asm", "--shape", "circular", "-n", "2", "-k", "2",
        "--limit", "3",
    )
    assert code == 0 and len(out.splitlines()) == 3

    empty = tmp_path / "none.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--family", "asm", "--shape", "circular", "-n", "2", "-k", "2",
        "--limit", "0", "--out", str(empty),
    )
    assert code == 0 and out == "" and empty.read_text() == ""


def test_enumerate_perms_of_a_board_without_rooks_is_one_zero_matrix(capsys):
    board = ["--family", "perms", "--shape", "circular", "-n", "1", "-k", "1"]
    code, out, _ = run(capsys, "enumerate", *board)
    assert code == 0 and out == serialize(ChainedPermutation(circular(1, 1), (((0,),),)))
    code, out, _ = run(capsys, "enumerate", *board, "--limit", "0")
    assert code == 0 and out == ""


class Writes(io.TextIOBase):
    """A stdout that keeps every string written to it, or with ``keep``
    false only counts them."""

    def __init__(self, keep: bool = True):
        super().__init__()
        self.keep = keep
        self.parts: list[str] = []
        self.count = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.count += 1
        if self.keep:
            self.parts.append(s)
        return len(s)


def test_enumerate_streams_whole_documents_in_blocks(tmp_path, monkeypatch):
    # 5292 documents (1.18 MB): more than ten blocks
    argv = ["enumerate", "--family", "perms", "--shape", "linear", "-n", "3", "-k", "4"]
    board = linear(3, 4)
    want = "".join(
        serialize(placement_to_matrices(p)) for p in enumerate_placements(board, max_rooks(board))
    )
    assert want.count("\n") == 5292 > 10 * _BLOCK
    blocks = -(-5292 // _BLOCK)

    sink = Writes()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert "".join(sink.parts) == want
    assert len(sink.parts) == blocks
    assert all(part.endswith("\n") and part.count("\n") <= _BLOCK for part in sink.parts)

    out_file = tmp_path / "perms.jsonl"
    writes = sink.count
    assert main([*argv, "--out", str(out_file)]) == 0 and sink.count == writes
    assert out_file.read_text() == want

    # warm: what a second run allocates at once does not grow with its output
    sink = Writes(keep=False)
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.count == blocks
    assert peak < len(want) / 2


def _documents(family: str, board, key: str, objects) -> str:
    """The stream of ``objects`` written by ``json.dumps``, not by ``serialize``."""
    head = {"family": family, "shape": board.shape.value, "n": board.n, "k": board.k}
    return "".join(json.dumps({**head, key: getattr(o, key)}) + "\n" for o in objects)


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["--family", "perms", "--shape", "linear", "-n", "3", "-k", "4"],
            lambda: _documents(
                "chained-permutation", linear(3, 4), "matrices",
                map(placement_to_matrices, enumerate_placements(linear(3, 4), 6)),  # 6 rooks: the maximum
            ),
        ),
        (
            ["--family", "asm", "--shape", "circular", "-n", "2", "-k", "4"],
            lambda: _documents(
                "chained-asm", circular(2, 4), "matrices", enumerate_chained_asm(circular(2, 4))
            ),
        ),
        (
            ["--family", "placements", "--shape", "linear", "-n", "3", "-k", "2", "-m", "2"],
            lambda: _documents("placement", linear(3, 2), "squares", enumerate_placements(linear(3, 2), 2)),
        ),
    ],
    ids=["perms", "asm", "placements"],
)
def test_enumerate_matches_an_independent_encoder(capsys, argv, want):
    code, out, _ = run(capsys, "enumerate", *argv)
    assert code == 0
    assert out == want() != ""


def test_enumerate_into_a_closed_pipe_ends_quietly(monkeypatch, capsys):
    class Closed(Writes):
        def write(self, s: str) -> int:
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    argv = ["enumerate", "--family", "perms", "--shape", "linear", "-n", "3", "-k", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""

    # and in a process of its own with a block-buffered stdout, which the
    # interpreter flushes once more at exit: a reader that stops after one
    # line of 7.8 MB, far more than a pipe holds, and one gone before the
    # three short lines of `--limit 3` are written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "chainedboards.cli", *argv[:5]]
    for size, read in ((["-n", "5", "-k", "2"], 1), (["-n", "2", "-k", "2", "--limit", "3"], 0)):
        with subprocess.Popen([*cmd, *size], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            for _ in range(read):
                assert json.loads(proc.stdout.readline())["family"] == "chained-permutation"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""


def test_enumerate_perms(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "perms", "--shape", "circular", "-n", "2", "-k", "2")
    assert code == 0
    assert len(out.splitlines()) == 8


def test_convert_oneline_to_matching_and_back(tmp_path, capsys):
    src = tmp_path / "one_line.txt"
    src.write_text(ONE_LINE_46 + "\n")
    out_file = tmp_path / "matching.json"
    code, _, _ = run(
        capsys, "convert", "--from", "oneline", "--to", "matching",
        "--in", str(src), "--out", str(out_file),
    )
    assert code == 0
    matching = deserialize(out_file.read_text())
    assert len(matching.edges) == 12

    back = tmp_path / "one_line_again.json"
    code, _, _ = run(
        capsys, "convert", "--from", "matching", "--to", "oneline",
        "--in", str(out_file), "--out", str(back),
    )
    assert code == 0
    from chainedboards.perms import one_line_text

    assert one_line_text(deserialize(back.read_text())) == ONE_LINE_46


def test_convert_asm_to_fpl_path(tmp_path, capsys):
    src = tmp_path / "asm.json"
    src.write_text(serialize(WORKED_46))
    out_file = tmp_path / "fpl.json"
    code, _, _ = run(
        capsys, "convert", "--from", "asm", "--to", "fpl", "--in", str(src), "--out", str(out_file)
    )
    assert code == 0
    fpl = deserialize(out_file.read_text())
    roundtrip = tmp_path / "asm_again.json"
    code, _, _ = run(
        capsys, "convert", "--from", "fpl", "--to", "asm", "--in", str(out_file), "--out", str(roundtrip)
    )
    assert code == 0
    assert deserialize(roundtrip.read_text()) == WORKED_46
    assert len(fpl.chosen) > 0


def test_convert_rejects_undefined_pairs(tmp_path, capsys):
    src = tmp_path / "asm.json"
    src.write_text(serialize(WORKED_46))
    code, _, err = run(capsys, "convert", "--from", "asm", "--to", "asm", "--in", str(src))
    assert code == 2

    # domain failure: this ASM has -1 entries, so it is not a permutation
    code, _, err = run(capsys, "convert", "--from", "asm", "--to", "oneline", "--in", str(src))
    assert code == 1 and "-1" in err


def test_convert_wrong_family_rejected(tmp_path, capsys):
    src = tmp_path / "one_line.txt"
    src.write_text(ONE_LINE_46)
    code, _, _ = run(capsys, "convert", "--from", "asm", "--to", "mt", "--in", str(src))
    assert code == 1


def _one_of_each_family() -> dict:
    """A document object of every family with a conversion, all from one
    maximum placement of circular(2, 4), where every edge of the graph applies."""
    board = circular(2, 4)
    placement = next(iter(enumerate_placements(board, max_rooks(board))))
    cp = placement_to_matrices(placement)
    asm = permutation_to_asm(cp)
    ice = to_ice(asm)
    objs = (placement, cp, to_one_line(cp), to_matching(cp), asm, to_monotone_triangles(asm), ice, to_fpl(ice))
    return {family_of(o).alias: o for o in objs}


EDGES = [(f.alias, target, fn) for f in FAMILIES for target, fn in f.to.items()]


@pytest.mark.parametrize("source, target, fn", EDGES, ids=[f"{a}->{b}" for a, b, _ in EDGES])
def test_convert_reads_its_source_off_the_document(monkeypatch, capsys, source, target, fn):
    obj = _one_of_each_family()[source]
    for given in ([], ["--from", source]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(obj)))
        assert run(capsys, "convert", *given, "--to", target) == (0, serialize(fn(obj)), "")


def test_convert_without_from_rejects_the_documents_own_family(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(WORKED_46)))
    code, out, err = run(capsys, "convert", "--to", "asm")
    assert (code, out) == (2, "") and "no conversion from asm to itself" in err


def test_convert_asm_to_plain_asm_only_where_the_board_fixes_the_map(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(WORKED_46)))  # circular(4, 6)
    code, out, err = run(capsys, "convert", "--to", "plain-asm")
    assert (code, out) == (2, "")
    assert "k = 4, or with k = 1 and even n" in err and "circular(4,6)" in err


def test_convert_reaches_every_family():
    ends = {f.alias for f in FAMILIES if f.to} | {target for f in FAMILIES for target in f.to}
    assert ends == {f.alias for f in FAMILIES}


def test_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "asm.json"
    good.write_text(serialize(WORKED_46))
    code, out, _ = run(capsys, "validate", "--in", str(good))
    assert code == 0 and out.strip() == "valid chained-asm"

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "family": "placement",
                "shape": "linear",
                "n": 2,
                "k": 1,
                "squares": [[1, 1, 1], [1, 1, 2]],
            }
        )
    )
    code, out, err = run(capsys, "validate", "--in", str(bad))
    assert code == 1 and out.strip() == "invalid" and err


def test_validate_family_mismatch(tmp_path, capsys):
    good = tmp_path / "asm.json"
    good.write_text(serialize(WORKED_46))
    code, out, _ = run(capsys, "validate", "--family", "placement", "--in", str(good))
    assert code == 1


def test_render_via_cli(tmp_path, capsys):
    src = tmp_path / "asm.json"
    src.write_text(serialize(WORKED_46))
    code, out, _ = run(capsys, "render", "--format", "ascii", "--in", str(src))
    assert code == 0 and "matrix 1" in out

    code, _, _ = run(capsys, "render", "--format", "dot", "--in", str(src))
    assert code == 2  # no dot rendering for matrices


def test_verify_tables_small_grid(capsys):
    code, out, _ = run(capsys, "verify-tables", "--max-n", "2", "--max-k", "4")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    asm_rows = [r for r in rows if r[0] == "chained-asm"]
    assert asm_rows and all(r[8] == "pass" for r in asm_rows)


def test_malformed_input_is_exit_1(tmp_path, capsys):
    src = tmp_path / "junk.json"
    src.write_text('{"family": "placement"')
    code, _, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "render", "--format", "ascii", "--in", str(src))
    assert code == 1


def test_enumerate_negative_limit_is_usage_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--family", "asm", "--shape", "circular", "-n", "2", "-k", "2",
        "--limit", "-1",
    )
    assert code == 2 and out == "" and "--limit" in err


def test_validate_fpl_with_non_string_edge_is_exit_1(tmp_path, capsys):
    src = tmp_path / "fpl.json"
    src.write_text(json.dumps({"family": "fpl", "shape": "circular", "n": 2, "k": 2, "edges": [5]}))
    code, _, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and "bad edge id 5" in err


def test_validate_rejects_boolean_matrix_entry(tmp_path, capsys):
    src = tmp_path / "asm.json"
    src.write_text(
        json.dumps(
            {"family": "chained-asm", "shape": "circular", "n": 1, "k": 2, "matrices": [[[True]], [[0]]]}
        )
    )
    code, out, _ = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out.strip() == "invalid"


@pytest.mark.parametrize("text", [*MALFORMED.values(), ODD_K_ICE], ids=[*MALFORMED.keys(), "ice with odd k"])
def test_validate_rejects_malformed_documents_with_exit_1(tmp_path, capsys, text):
    src = tmp_path / "doc.json"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n" and err
    assert "Traceback" not in err


def test_convert_choices_are_the_registry_aliases(capsys):
    aliases = [f.alias for f in FAMILIES]
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    convert = sub.choices["convert"]
    assert {a.dest: a.choices for a in convert._actions if a.dest in ("source", "target")} == {
        "source": aliases,
        "target": aliases,
    }
    # a registry alias with no path there: refused before stdin is read
    code, _, err = run(capsys, "convert", "--from", "plain-asm", "--to", "asm")
    assert code == 2 and "no conversion from plain-asm to asm" in err


def test_validate_family_accepts_name_or_alias(tmp_path, capsys):
    src = tmp_path / "asm.json"
    src.write_text(serialize(WORKED_46))
    for family in ("chained-asm", "asm"):
        code, out, _ = run(capsys, "validate", "--family", family, "--in", str(src))
        assert code == 0 and out == "valid chained-asm\n"


def test_validate_family_unknown_is_a_usage_error(monkeypatch, capsys):
    # refused by the registry's choices before stdin is read, so a typo is not an invalid document
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize(WORKED_46)))
    code, out, err = run(capsys, "validate", "--family", "nonsense")
    assert code == 2 and out == "" and "invalid choice: 'nonsense'" in err
    assert sys.stdin.tell() == 0
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    (family,) = [a for a in sub.choices["validate"]._actions if a.dest == "family"]
    assert set(family.choices) == {x for f in FAMILIES for x in (f.name, f.alias)}


@pytest.mark.parametrize("text", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_validate_rejects_oversized_input_briefly(tmp_path, capsys, text):
    src = tmp_path / "doc.json"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n"
    assert "Traceback" not in err and 0 < len(err) < 1000


@pytest.mark.parametrize("text", LONG_NUMBERS.values(), ids=LONG_NUMBERS.keys())
def test_validate_clips_long_sizes_and_numbers(tmp_path, capsys, text):
    src = tmp_path / "doc.json"
    src.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n"
    assert "Traceback" not in err and "characters)" in err and len(err.encode()) < 300


@pytest.mark.parametrize(
    "name, says",
    [
        ("ice with a 2200-digit n", "not the grid graph's 3999999999"),
        ("fpl with a 2200-digit n", "fewer than the 1999999999"),
    ],
)
def test_validate_names_edge_counts_beyond_the_str_digit_limit(tmp_path, capsys, name, says):
    src = tmp_path / "doc.json"
    src.write_text(LONG_NUMBERS[name], encoding="utf-8")
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n"
    assert says in err and "(4401 characters)" in err and "Exceeds the limit" not in err


@pytest.mark.parametrize(
    "argv, want",
    [
        # the maximum rook count of a 4300-digit n has 4301 digits, beyond str's limit
        (["count", "--shape", "linear", "-n", "9" * 4300, "-k", "3", "--method", "closed", "-m", "1"], 2),
        (["count", "--shape", "linear", "-n", "2", "-k", "2", "-m", "9" * 4000], 1),
        (["enumerate", "--family", "asm", "--shape", "linear", "-n", "2", "-k", "2", "--limit", "-" + "9" * 4000], 2),
    ],
    ids=["closed with a 4300-digit n", "4000-digit m", "4000-digit negative limit"],
)
def test_cli_clips_long_numbers_it_echoes(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want and out == ""
    assert "Traceback" not in err and "characters)" in err and len(err.encode()) < 300


def test_enumerate_limit_beyond_sys_maxsize_writes_the_whole_stream(capsys):
    argv = ["enumerate", "--family", "asm", "--shape", "linear", "-n", "1", "-k", "1"]
    whole = run(capsys, *argv)
    assert whole[0] == 0 and whole[1] != ""
    assert run(capsys, *argv, "--limit", "9" * 23) == whole


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--family", "asm"],
        ["enumerate", "--family", "perms"],
        ["enumerate", "--family", "placements"],
        ["count", "--method", "brute"],
        ["count", "--method", "closed"],
        ["count", "--method", "formula"],
    ],
    ids=" ".join,
)
def test_a_board_of_more_than_sys_maxsize_squares_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--shape", "linear", "-n", "9" * 20, "-k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: n * k must be at most ") and err.count("\n") == 1


@pytest.mark.parametrize("family", ["asm", "perms"])
def test_enumerate_m_is_a_usage_error_outside_placements(capsys, family):
    code, out, err = run(
        capsys, "enumerate", "--family", family, "--shape", "linear", "-n", "2", "-k", "2",
        "-m", "1", "--limit", "1",
    )
    assert code == 2 and out == "" and "-m applies to --family placements only" in err


@pytest.mark.parametrize("budget", ["nan", "-1", "-inf"])
def test_verify_tables_rejects_a_nan_or_negative_budget(capsys, budget):
    code, out, err = run(capsys, "verify-tables", "--max-n", "1", "--budget-seconds", budget)
    assert code == 2 and out == "" and "--budget-seconds" in err


def test_verify_tables_runs_every_cell_on_an_infinite_budget(capsys):
    code, out, err = run(capsys, "verify-tables", "--max-n", "1", "--budget-seconds", "inf")
    assert code == 0 and err == "" and "\tskip\t" not in out


def test_verify_tables_on_a_zero_budget_skips_every_table_cell_loudly(capsys):
    code, out, err = run(capsys, "verify-tables", "--max-n", "2", "--max-k", "2", "--budget-seconds", "0")
    assert code == 0
    asm_rows = [line.split("\t") for line in out.splitlines() if line.startswith("chained-asm\t")]
    assert len(asm_rows) == 8  # linear and circular, n and k in 1..2
    assert all(row[6] == "-" and row[8] == "skip" for row in asm_rows)
    assert err.splitlines() == [f"skipped chained-asm {row[1]} n={row[2]} k={row[3]}" for row in asm_rows]


def test_verify_tables_exits_1_on_a_wrong_table_count(capsys, monkeypatch):
    from chainedboards import verify

    (board, expected), *rest = verify.TABLE_CELLS
    monkeypatch.setattr(verify, "TABLE_CELLS", ((board, expected + 1), *rest))
    code, out, err = run(capsys, "verify-tables", "--max-n", "1", "--max-k", "1")
    assert code == 1
    assert f"chained-asm\tlinear\t1\t1\t1\t{expected + 1}\t{expected}\tpaper-table\tfail\t" in out
    assert err == f"FAIL chained-asm linear n=1 k=1: expected {expected + 1}, got {expected}\n"


def test_validate_reports_a_malformed_ice_payload_without_a_traceback(tmp_path, capsys):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps({"family": "ice", "shape": "circular", "n": 1, "k": 2, "orientation": 5}))
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n"
    assert err.startswith("error: malformed ice payload: ") and "Traceback" not in err


def test_validate_prints_the_first_20_problems_and_counts_the_rest(tmp_path, capsys):
    with pytest.raises(ValidationError) as info:
        deserialize(ALL_ONES_20)
    problems = info.value.problems
    assert len(problems) == 801
    src = tmp_path / "doc.json"
    src.write_text(ALL_ONES_20, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--in", str(src))
    assert code == 1 and out == "invalid\n"
    assert err.splitlines() == problems[:20] + ["… and 781 more problems"]
    # the other print site: an error raised inside a subcommand
    code, out, err = run(capsys, "convert", "--from", "asm", "--to", "mt", "--in", str(src))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {info.value}", *problems[:20], "… and 781 more problems"]


@pytest.mark.parametrize("count", [0, 20, 21])
def test_print_problems_cap_boundary(capsys, count):
    problems = [f"problem {i}" for i in range(count)]
    _print_problems(problems)
    more = ["… and 1 more problems"] if count == 21 else []
    assert capsys.readouterr().err.splitlines() == problems[:20] + more


def test_count_closed_on_a_long_linear_chain(capsys):
    # the closed form walks k/2 = 1200 chain elements without recursing
    argv = ("count", "--shape", "linear", "-n", "1", "-k", "2400")
    assert run(capsys, *argv, "--method", "closed") == (0, "1201\n", "")
    assert run(capsys, *argv, "--method", "formula") == (0, "1201\n", "")


def test_count_closed_on_a_wide_linear_chain(capsys):
    # one term per chain would be C(38, 30) ~ 4.9e7 terms here
    argv = ("count", "--shape", "linear", "-n", "8", "-k", "60")
    code, out, err = run(capsys, *argv, "--method", "closed")
    assert (code, err) == (0, "") and run(capsys, *argv, "--method", "formula") == (0, out, "")


@pytest.mark.parametrize(
    "family, n, k, cls",
    [("perms", "1", "1200", ChainedPermutation), ("asm", "5", "40", ChainedASM)],
    ids=["perms", "asm"],
)
def test_search_reaches_past_the_recursion_limit(capsys, family, n, k, cls):
    # both searches keep their own stack: the placement walk one frame per
    # row of the chain, the chained-ASM walk one frame per matrix row
    argv = ("--shape", "linear", "-n", n, "-k", k)
    code, out, err = run(capsys, "enumerate", "--family", family, *argv, "--limit", "1")
    assert code == 0 and err == "" and out.count("\n") == 1
    doc = deserialize(out)
    assert type(doc) is cls and doc.board == linear(int(n), int(k))
    assert len(doc.matrices) == int(k) and chained_asm_problems(doc) == []
    if family == "perms":
        assert run(capsys, "count", *argv, "--method", "brute") == (0, "601\n", "")


def test_search_reaches_past_the_recursion_limit_in_n(capsys):
    # board 1's options are streamed from a stack of one frame per row, and
    # its n * n squares are never listed
    argv = ("enumerate", "--family", "perms", "--shape", "linear", "-n", "1100", "-k", "1", "--limit", "1")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.count("\n") == 1
    doc = deserialize(out)
    assert type(doc) is ChainedPermutation and doc.board == linear(1100, 1)
    assert all(row[i] == 1 and sum(row) == 1 for i, row in enumerate(doc.matrices[0]))
    first = next(enumerate_placements(linear(1100, 1), 1))
    assert first.squares == (Square(1, 1, 1),) and placement_problems(first) == []


def test_enumerate_failing_before_its_first_document_writes_no_file(tmp_path, capsys):
    argv = (
        "enumerate", "--family", "placements", "--shape", "linear", "-n", "2", "-k", "2",
        "-m", "99", "--out",
    )
    out_file = tmp_path / "never.jsonl"
    code, out, err = run(capsys, *argv, str(out_file))
    assert code == 1 and out == "" and err == "error: m must be in 0..n*k, got 99\n"
    assert not out_file.exists()
    out_file.write_text("kept\n", encoding="utf-8")
    assert run(capsys, *argv, str(out_file))[0] == 1
    assert out_file.read_text(encoding="utf-8") == "kept\n"


def _readme_examples() -> list[str]:
    """The `chained-boards` lines of the README's Command line block that read
    no file, but for the full `verify-tables` run, which takes half a minute."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith(("chained-boards", "echo"))]
    return [
        line
        for line in lines
        if all(stage.split()[0] in ("echo", "chained-boards") for stage in line.split(" | "))
        and "--in" not in line
        and "--budget-seconds" not in line
    ]


README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    commands = [line.split(" | ")[-1].split()[1] for line in README_EXAMPLES]
    assert sorted(set(commands)) == ["convert", "count", "enumerate", "verify-tables"]
    assert len(README_EXAMPLES) == 8


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_example_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # for what --out writes
    piped = ""
    for stage in line.split(" | "):
        argv = shlex.split(stage, comments=True)
        if argv[0] == "echo":
            piped = " ".join(argv[1:]) + "\n"
            continue
        monkeypatch.setattr(sys, "stdin", io.StringIO(piped))
        code, piped, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), stage
        said = stage.partition("#")[2].strip()
        if said.isdigit():  # the count the line's comment gives
            assert piped == f"{said}\n", stage
