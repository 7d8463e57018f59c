"""The traced run: per-layer metrics from spans recorded at module boundaries.

The layers are the library's modules.  Tracing wraps each module's public
functions from outside, under the module attribute and under every name
that another module of the package imported (including the functions held
in module-level tables such as ``cli._CONVERSIONS``).  A call is one span;
a generator is one span per ``next()``.  Each span has a name, start, end,
parent span and operation id.  Spans are kept in memory (up to
``SPAN_LIMIT``) and written to ``bench/out`` when the run ends; the
aggregates behind the metrics count every span.

A layer's self time is its spans' time minus that of their child spans.
Times are scaled to reference seconds with the speed measured beside each
operation, as the end-to-end times are.  Harness time inside a span (the
sinks and the calibration timer) is charged to no layer.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "boards",
    "counting",
    "placements",
    "perms",
    "matchings",
    "asm",
    "triangles",
    "ice",
    "serialization",
    "rendering",
    "verify",
    "cli",
)
SPAN_LIMIT = 200_000

pc = time.perf_counter


def _serialize_chars(counts, args, result):
    counts["serialization.serialize_chars"] += len(result)


def _deserialize_chars(counts, args, result):
    counts["serialization.deserialize_chars"] += len(args[0])


def _render_chars(counts, args, result):
    counts["rendering.chars"] += len(result)


def _verify_records(counts, args, result):
    counts["verify.records"] += len(result.records)


MEASURES = {
    "serialization.serialize": _serialize_chars,
    "serialization.deserialize": _deserialize_chars,
    "rendering.render": _render_chars,
    "verify.verify_tables": _verify_records,
}


class Tracer:
    def __init__(self):
        # [span id, seconds in child spans, harness seconds in this span,
        # harness seconds in it and its children]; the bottom frame is the harness
        self.stack = [[0, 0.0, 0.0, 0.0]]
        self.next_id = 1
        self.op = -1
        self.times: dict[str, float] = defaultdict(float)  # this operation: layer self / function total
        self.counts: dict[str, int] = defaultdict(int)  # whole traced phase
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self.times = defaultdict(float)

    def end_op(self) -> dict[str, float]:
        return dict(self.times)

    def exclude(self, seconds: float) -> None:
        """Harness time inside the current span, which no layer is charged for."""
        top = self.stack[-1]
        top[2] += seconds
        top[3] += seconds

    def _close(self, frame, parent, name: int, layer: str, qual: str, start: float, end: float) -> None:
        span = end - start
        self.times[layer] += span - frame[1] - frame[2]
        self.times[qual] += span - frame[3]
        parent[1] += span
        parent[3] += frame[3]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], parent[0], name, self.op, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn, layer: str):
        qual = f"{layer}.{fn.__name__}"
        name = len(self.names)
        self.names.append(qual)
        stack, counts, close = self.stack, self.counts, self._close
        calls_key, layer_calls, objects_key = qual + ".calls", layer + ".calls", qual + ".objects"
        measure = MEASURES.get(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                counts[calls_key] += 1
                counts[layer_calls] += 1
                items = fn(*args, **kwargs)
                while True:
                    frame = [tracer.next_id, 0.0, 0.0, 0.0]
                    tracer.next_id += 1
                    parent = stack[-1]
                    stack.append(frame)
                    start = pc()
                    try:
                        item = next(items)
                    except StopIteration:
                        stack.pop()
                        close(frame, parent, name, layer, qual, start, pc())
                        return
                    except BaseException:
                        stack.pop()
                        close(frame, parent, name, layer, qual, start, pc())
                        raise
                    end = pc()
                    stack.pop()
                    close(frame, parent, name, layer, qual, start, end)
                    counts[objects_key] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            counts[layer_calls] += 1
            frame = [tracer.next_id, 0.0, 0.0, 0.0]
            tracer.next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = pc()
                stack.pop()
                close(frame, parent, name, layer, qual, start, end)
            if measure is not None:
                measure(counts, args, result)
            return result

        return traced

    def install(self, package: str = "chainedboards") -> None:
        """Wrap every public function of every layer wherever the package
        refers to it: module attributes, imported names and module-level
        dicts of functions."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(fn, layer)
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrapped:
                            value[key] = wrapped[item]

    def write(self, path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                                 "names": self.names, "dropped": self.dropped}) + "\n")
            for sid, parent, name, op, start, end in self.spans:
                fh.write(f"[{sid}, {parent}, {name}, {op}, {start - origin:.7f}, {end - origin:.7f}]\n")


def traced_run(runner, ops, passes, untraced, args, out_dir):
    """Repeat the timed passes with tracing on; return the per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    chars_before = runner.out_chars
    records = runner.timed_passes(ops, passes)
    runner.tracer = None
    out_chars = runner.out_chars - chars_before

    seconds: dict[str, float] = defaultdict(float)
    for r in records:
        speed = runner.speed(r.start, r.end)
        for key, value in r.layer_s.items():
            seconds[key] += value * speed
    counts = tracer.counts

    def rate(objects: int, key: str) -> float:
        return objects / seconds[key] if seconds[key] else 0.0

    asm_objects = counts["asm.enumerate_chained_asm.objects"]
    placement_objects = counts["placements.enumerate_placements.objects"]
    metrics = {
        "boards.compositions": (counts["boards.admissible_compositions.objects"], "count"),
        "boards.self_s": (seconds["boards"], "s"),
        "counting.calls": (counts["counting.calls"], "count"),
        "counting.self_s": (seconds["counting"], "s"),
        "asm.objects": (asm_objects, "count"),
        "asm.objects_per_s": (rate(asm_objects, "asm.enumerate_chained_asm"), "1/s"),
        "asm.self_s": (seconds["asm"], "s"),
        "asm.checks": (counts["asm.chained_asm_problems.calls"], "count"),
        "placements.objects": (placement_objects, "count"),
        "placements.objects_per_s": (rate(placement_objects, "placements.enumerate_placements"), "1/s"),
        "placements.self_s": (seconds["placements"], "s"),
        "perms.calls": (counts["perms.calls"], "count"),
        "perms.self_s": (seconds["perms"], "s"),
        "serialization.serialize_s": (seconds["serialization.serialize"], "s"),
        "serialization.serialize_mb": (counts["serialization.serialize_chars"] / 1e6, "MB"),
        "serialization.deserialize_s": (seconds["serialization.deserialize"], "s"),
        "serialization.deserialize_mb": (counts["serialization.deserialize_chars"] / 1e6, "MB"),
        "triangles.calls": (counts["triangles.calls"], "count"),
        "triangles.self_s": (seconds["triangles"], "s"),
        "ice.calls": (counts["ice.calls"], "count"),
        "ice.self_s": (seconds["ice"], "s"),
        "matchings.calls": (counts["matchings.calls"], "count"),
        "matchings.self_s": (seconds["matchings"], "s"),
        "rendering.calls": (counts["rendering.calls"], "count"),
        "rendering.self_s": (seconds["rendering"], "s"),
        "rendering.mb": (counts["rendering.chars"] / 1e6, "MB"),
        "verify.self_s": (seconds["verify"], "s"),
        "verify.records": (counts["verify.records"], "count"),
        "cli.self_s": (seconds["cli"], "s"),
        "cli.out_mb": (out_chars / 1e6, "MB"),
        "trace.spans": (len(tracer.spans) + tracer.dropped, "count"),
        "trace.ops_per_s": (runner.ops_per_s(records), "1/s"),
        "trace.overhead": (runner.ops_per_s(untraced) / runner.ops_per_s(records), "ratio"),
    }
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    notes = [
        f"traced {passes} passes again; spans written to {path.relative_to(out_dir.parent.parent)}"
        + (f" ({tracer.dropped} beyond the first {SPAN_LIMIT} not kept)" if tracer.dropped else ""),
        "trace.overhead is untraced ops_per_s over traced ops_per_s",
    ]
    return metrics, notes
