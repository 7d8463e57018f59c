"""End-to-end benchmark of the chained-boards library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload count --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8

The library is imported from the checkout's ``src/`` and driven in-process
through ``chainedboards.cli.main(argv)``, with stdin, stdout and stderr
swapped for in-memory streams, so no interpreter start-up is measured.  One
process, one thread.

Every run does the same fixed work: a fixed number of whole passes over a
fixed list of operations, the number set by ``--seconds`` alone, never by how
fast the machine is.  The seed changes the order of the operations and which
sampled objects ``convert`` reads, not how much work there is.

Times are in reference seconds: the wall time of each operation, scaled by
how long a fixed calibration loop took beside it compared with
``CAL_REF_S``.  A virtual machine that shares its host changes speed by a
third or more, from one second to the next; the calibration loop takes that
drift out.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric, with ``--trace 1`` every per-layer metric (see
``tracing.py``).  A failed output check sets ``correct`` to false; a run
that cannot import the library from ``src/`` exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

MIN_TAIL_SAMPLES = 40  # the tail percentile needs ten samples beyond it
SETUPS = 3  # set-up runs per untraced run; setup_s is their median
CAL_EVERY_S = 0.05  # interval of the calibration timer
CAL_REF_S = 0.0025  # the calibration loop's duration at the reference speed

pc = time.perf_counter


def calibration_work() -> int:
    """A fixed mix of the interpreter work the library does: a recursive
    generator search over tuples, dict updates, string building and JSON."""
    seen: dict[tuple, int] = {}

    def walk(d: int, acc: tuple):
        if d == 0:
            yield acc
            return
        for v in (-1, 0, 1):
            if not acc or acc[-1] != v:
                yield from walk(d - 1, acc + (v,))

    total = 0
    for t in walk(10, ()):
        key = t[:5]
        seen[key] = seen.get(key, 0) + sum(t)
        total += len(t)
    text = json.dumps([[list(k), v] for k, v in seen.items()])
    return total + len(text) + len(",".join(str(v) for v in seen.values()))


class Sink(io.TextIOBase):
    """Stands in for stdout or stderr and counts what the program writes.

    With a line callback it feeds each complete line to it and keeps only an
    unfinished last line, so a large output is checked without being held;
    without one it keeps the text, for the small outputs of single commands.
    Its work is harness time of the runner.
    """

    def __init__(self, runner: "Runner", on_line: Callable[[str], None] | None = None):
        super().__init__()
        self.runner = runner
        self.on_line = on_line
        self.chars = 0
        self._parts: list[str] = []
        self._tail = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        with self.runner.harness():
            self.chars += len(s)
            if self.on_line is None:
                self._parts.append(s)
            else:
                self._feed(s)
        return len(s)

    def _feed(self, s: str) -> None:
        pos = 0
        if self._tail:
            end = s.find("\n")
            if end == -1:
                self._tail += s
                return
            self.on_line(self._tail + s[:end])
            self._tail = ""
            pos = end + 1
        while pos < len(s):
            end = s.find("\n", pos)
            if end == -1:
                self._tail = s[pos:]
                return
            self.on_line(s[pos:end])
            pos = end + 1

    def text(self) -> str:
        return "".join(self._parts)

    def unfinished(self) -> str:
        return self._tail


def _discard(line: str) -> None:
    pass


@dataclass
class Record:
    """One operation as run: when it started, its wall time net of harness
    time, and whether it failed (non-zero exit where none was due, or an
    exception out of ``cli.main``)."""

    op: int
    start: float
    end: float
    net: float
    failed: str | None
    layer_s: dict[str, float] = field(default_factory=dict)


class Runner:
    """Runs operations through ``cli.main`` and samples the machine's speed.

    While sampling is on, a SIGALRM interval timer interrupts the process
    every CAL_EVERY_S, inside an operation or between two, and the handler
    times the calibration loop.  The handler runs in the one thread, between
    two bytecodes of whatever runs.  Calibrating, and the sinks' work, is
    harness time: it is taken out of the operation it interrupts, and out of
    the span it interrupts when tracing.
    """

    def __init__(self):
        self.cli = None
        self.tracer = None
        self.check_streams = True  # warm-up passes only count streamed lines
        self.cal: list[tuple[float, float]] = []  # (start, seconds)
        self.harness_s = 0.0
        self._paused = False
        self._pending = False
        self.problems: list[str] = []
        self.out_chars = 0

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        if self._paused:
            self._pending = True  # calibrate when the harness work ends
        else:
            self.calibrate()

    def _resume(self) -> None:
        self._paused = False
        if self._pending:
            self._pending = False
            self.calibrate()

    @contextlib.contextmanager
    def harness(self):
        """Count the time of the block as harness time."""
        if self._paused:  # nested
            yield
            return
        self._paused = True
        t0 = pc()
        try:
            yield
        finally:
            dt = pc() - t0
            self.harness_s += dt
            if self.tracer is not None:
                self.tracer.exclude(dt)
            self._resume()

    def clock(self) -> tuple[float, float]:
        """The time and the harness seconds so far, read with the timer held
        off, so that no calibration falls between the two readings."""
        self._paused = True
        now, harness_s = pc(), self.harness_s
        self._resume()
        return now, harness_s

    def calibrate(self) -> None:
        with self.harness():
            t0 = pc()
            calibration_work()
            self.cal.append((t0, pc() - t0))

    def run_pass(self, ops: list[workloads.Op]) -> list[Record]:
        self.calibrate()
        records = [self.run_op(idx, op) for idx, op in enumerate(ops)]
        self.calibrate()
        return records

    def run_op(self, idx: int, op: workloads.Op) -> Record:
        checker = op.lines() if op.lines is not None and self.check_streams else None
        if checker is not None:
            out = Sink(self, checker.line)
        else:
            out = Sink(self, _discard if op.lines is not None else None)
        err = Sink(self)
        stdin = io.StringIO(op.stdin())
        argv = list(op.argv)
        if self.tracer is not None:
            self.tracer.begin_op(idx)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = stdin, out, err
        start, harness_before = self.clock()
        try:
            rc = self.cli.main(argv)
            escaped = None
        except Exception as exc:  # an exception out of the CLI fails the operation
            rc, escaped = None, exc
        finally:
            end, harness_after = self.clock()
            sys.stdin, sys.stdout, sys.stderr = saved
        net = end - start - (harness_after - harness_before)
        layer_s = self.tracer.end_op() if self.tracer is not None else {}
        self.out_chars += out.chars
        if escaped is not None:
            failed = f"{type(escaped).__name__}: {escaped}"
        elif rc != op.expect_rc:
            failed = f"exit code {rc}, expected {op.expect_rc}"
        else:
            failed = None
            with self.harness():
                if checker is not None:
                    problem = checker.finish(out.unfinished())
                else:
                    problem = op.check(out.text()) if op.check is not None else None
            if problem is not None:
                self.problems.append(f"{op.label}: {problem}")
        return Record(idx, start, end, net, failed, layer_s)

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: CAL_REF_S
        over the mean calibration time from the last calibration before
        ``start`` to the first after ``end``.

        The machine's speed changes within a second, so only the
        calibrations during and next to an interval describe it.
        """
        times = [t for t, _ in self.cal]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = min(bisect.bisect_left(times, end), len(times) - 1)
        return CAL_REF_S / statistics.fmean(c for _, c in self.cal[lo : hi + 1])

    def ref_seconds(self, r: Record) -> float:
        return r.net * self.speed(r.start, r.end)

    def timed_passes(self, ops: list[workloads.Op], passes: int) -> list[Record]:
        records = []
        for _ in range(passes):
            gc.collect()
            records.extend(self.run_pass(ops))
        return records

    def ops_per_s(self, records: list[Record]) -> float:
        """Completed operations per reference second of all operations."""
        done = sum(1 for r in records if r.failed is None)
        return done / sum(self.ref_seconds(r) for r in records)


def load_library():
    """Import ``chainedboards.cli`` afresh from the checkout's ``src/``.

    Earlier imports are dropped first, so that every set-up pays for the
    import and starts with empty module-level caches.
    """
    if not (SRC / "chainedboards").is_dir():
        raise SystemExit(f"no chainedboards package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "chainedboards" or m.startswith("chainedboards.")]:
        del sys.modules[name]
    cli = importlib.import_module("chainedboards.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"chainedboards was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(runner: Runner, workload, seed: int) -> tuple[list, float]:
    """Import, generate the inputs and make one untimed warm-up pass.

    Returns the operations and the set-up time in reference seconds.
    """
    gc.collect()
    runner.calibrate()
    t0, harness_before = runner.clock()
    runner.cli = load_library()
    ops = workload.build(importlib.import_module("chainedboards"), seed)
    t1, harness_after = runner.clock()
    runner.calibrate()
    prep = (t1 - t0 - (harness_after - harness_before)) * runner.speed(t0, t1)
    runner.check_streams = False
    records = runner.run_pass(ops)
    runner.check_streams = True
    return ops, prep + sum(runner.ref_seconds(r) for r in records)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its value.

    With fewer than MIN_TAIL_SAMPLES values that is no tail; the maximum is
    given instead, which happens only when operations fail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return 100.0, ordered[-1]
    return 100 * (n - 10) / n, ordered[n - 11]


def end_to_end(runner: Runner, records: list[Record], setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of the untraced timed passes."""
    done = [runner.ref_seconds(r) for r in records if r.failed is None]
    q, tail = tail_percentile(done)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (runner.ops_per_s(records), "1/s"),
        "op_p50_ms": (statistics.median(done) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    cal_ms = [c * 1e3 for _, c in runner.cal]
    notes = [
        f"calibration loop: median {statistics.median(cal_ms):.3f} ms over {len(cal_ms)} samples"
        f" (min {min(cal_ms):.3f}, max {max(cal_ms):.3f}); reference {CAL_REF_S * 1e3:g} ms",
        f"op_tail_ms is the p{q:.4g} of {len(done)} completed operations",
        "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return metrics, notes


def run_all(args) -> int:
    """Run every workload in turn, each in a process of its own so that its
    peak memory is its own, and print the results side by side."""
    results = {}
    for name in sorted(workloads.WORKLOADS):
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}")
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]

    oracles.self_test()
    runner = Runner()
    runner.start_sampling()
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            ops, seconds = set_up(runner, workload, args.seed)
            setups.append(seconds)
        passes = max(math.ceil(MIN_TAIL_SAMPLES / len(ops)), round(args.seconds / workload.pass_seconds))
        records = runner.timed_passes(ops, passes)
        if args.trace:
            import tracing

            metrics, notes = tracing.traced_run(runner, ops, passes, records, args, OUT_DIR)
        else:
            metrics, notes = end_to_end(runner, records, setups)
    finally:
        runner.stop_sampling()
    failed = [r for r in records if r.failed is not None]
    print(f"workload {args.workload}: seed {args.seed}, {passes} passes of {len(ops)} operations")
    for label, why in sorted({(ops[r.op].label, r.failed) for r in failed}):
        print(f"failed every pass: {label}: {why}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {len(records)}, failed {len(failed)}")
    for problem in runner.problems[:20]:
        print(f"WRONG OUTPUT {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result) + "\n")
    with open(stem.with_suffix(".tsv"), "w", encoding="utf-8") as fh:
        fh.write("op\tstart_s\twall_s\tref_s\tfailed\n")
        for r in records:
            fh.write(f"{ops[r.op].label}\t{r.start:.6f}\t{r.net:.6f}\t{runner.ref_seconds(r):.6f}\t{r.failed or ''}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
