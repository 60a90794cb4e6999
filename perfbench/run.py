"""Benchmark of the zxzw library: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The run measures set-up (interpreter start, imports, input
generation and warm-up, several times in child processes), then times
passes over seeded item lists (workloads.py) until `--seconds` have gone,
each pass drawing fresh items.  Every output is checked against its known
answer.  The last line printed is the JSON result; the line before it holds
information that is not gated (failure share, output sizes, environment).

With `--trace 1` the run times the same passes twice, first plain and then
with a span around every traced library call (tracing.py), and reports the
per-layer metrics instead of the end-to-end ones.  Spans are written to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PLAIN_SHARE = 0.3  # of --seconds spent on the plain passes of a traced run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_SELF = ("calls", "self_s")
LAYERS = (
    ("semantics.interp", ("calls_exact", "calls_float", "self_s", "nodes_in", "nonzeros_out")),
    ("semantics.eq_semantic", _SELF),
    ("semantics.eq_linear", _SELF + ("valuations",)),
    ("matrices.compare", _SELF),
    ("rules.verify_rule", _SELF + ("instances",)),
    ("rules.instantiate", _SELF),
    ("diagrams.compose", _SELF),
    ("diagrams.validate", _SELF),
    ("diagrams.substitute", _SELF),
    ("translate.zx_to_zw", _SELF + ("nodes_in", "nodes_out")),
    ("translate.zw_to_zx", _SELF + ("nodes_in", "nodes_out")),
    ("gadgets", _SELF),
    ("dsl.parse", _SELF + ("bytes_in",)),
    ("dsl.print_diagram", _SELF + ("bytes_out",)),
    ("rewrite.simplify", _SELF + ("steps", "nodes_removed")),
    ("rewrite.check_proof", _SELF),
)
_UNITS = {"self_s": "s", "bytes_in": "bytes", "bytes_out": "bytes"}
PER_LAYER = (
    tuple((f"{layer}.{field}", _UNITS.get(field, "count")) for layer, fields in LAYERS for field in fields)
    + (
        ("rings.cyclo_mul.calls", "count"),
        ("rings.cyclo_add.calls", "count"),
        ("output.nodes", "count"),
        ("output.bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.bench_self_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink the item lists (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help="set up and exit (timed by the parent)")
    return ap.parse_args(argv)


def load(args):
    """Import the library and the workloads, build the first pass's items
    and warm up on a small separate list; returns (workloads module, items)."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    import zxzw.cli  # noqa: F401  (what the command line pays to start)

    items = workloads.build(args.workload, args.seed, 0, ROOT, args.scale)
    for it in workloads.warmup_items(args.workload, ROOT):
        if not it.check(it.run()):
            raise RuntimeError(f"warm-up item {it.name} gave a wrong answer")
    return workloads, items


def time_setup(args) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    t = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t


class Pass:
    """The timed results of one pass over an item list."""

    def __init__(self, pass_no: int):
        self.pass_no = pass_no
        self.times: list[float] = []
        self.failed: list[str] = []
        self.nodes = 0
        self.bytes = 0
        self.spans: list = []
        self.counts: dict = {}
        self.peak_rss_mb = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(pass_no: int, items, tracer=None) -> Pass:
    """Time each item on its own and check its output outside the timed
    region.  An exception or a wrong output counts the item as failed."""
    res = Pass(pass_no)
    for it in items:
        gc.collect()  # each item starts from the same collector state
        error = None
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        try:
            out = it.run()
        except Exception as e:
            error = e
        finally:
            res.times.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.active = False
        if error is None:
            try:
                ok = bool(it.check(out))
                res.nodes += it.nodes(out)
                res.bytes += it.text_bytes(out)
            except Exception as e:
                error = e
        if error is not None:
            why = "".join(traceback.format_exception(error))
        elif not ok:
            why = "output differs from the known answer\n"
        else:
            continue
        res.failed.append(it.name)
        print(f"{it.name}: {why}", file=sys.stderr, end="")
    if tracer is not None:
        res.spans, res.counts = tracer.take()
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res


def run_passes(workloads, args, first_items, seconds: float, most=None, tracer=None, between=None) -> list[Pass]:
    """Passes 0, 1, ... while the next one is expected to end within
    `seconds` (at least one pass), and at most `most` passes.  Pass 0 uses
    `first_items`; `between()` runs after each pass."""
    start = time.perf_counter()
    passes = []
    while True:
        p = len(passes)
        items = first_items if p == 0 else workloads.build(args.workload, args.seed, p, ROOT, args.scale)
        passes.append(run_pass(p, items, tracer))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if len(passes) == most or elapsed + elapsed / len(passes) > seconds:
            return passes


def tail_percent(n: int) -> int:
    """The highest whole percentile with at least 10 of `n` items beyond it."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "zxzw").glob("*.py")))


def end_to_end(passes: list[Pass], setup_s: float, per_pass: int) -> tuple[dict, dict]:
    pooled = [t for p in passes for t in p.times]
    tail_pct = tail_percent(per_pass)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "item_p50_ms": 1e3 * statistics.median(pooled),
        "item_tail_ms": 1e3 * percentile(pooled, tail_pct),
        # after the first pass, whose inputs depend on the seed alone (the
        # number of passes, and so the peak over all of them, depends on speed)
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    info = {"item_tail_percentile": tail_pct, "items_per_pass": per_pass, "passes": len(passes)}
    return values, info


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    from tracing import MEASURE, self_times

    rows = []
    for p in traced:
        selfs = self_times(p.spans)
        row = dict(p.counts)
        for layer, _ in LAYERS:
            row[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        row["output.nodes"] = p.nodes
        row["output.bytes"] = p.bytes
        row["trace.wall_s"] = p.wall
        row["trace.bench_self_s"] = p.wall - sum(t for name, t in selfs.items() if name != MEASURE)
        rows.append(row)
    # means, not medians, so that the self times still add up to the wall time
    values = {name: statistics.fmean(r.get(name, 0) for r in rows) for name, _ in PER_LAYER}
    # traced pass p ran the same items as plain pass p
    values["trace.overhead_s"] = statistics.median(t.wall - p.wall for t, p in zip(traced, plain))
    return values


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        load(args)
        return 0
    workloads, first = load(args)
    per_pass = len(first)
    if args.trace:
        import tracing

        start = time.perf_counter()
        plain = run_passes(workloads, args, first, args.seconds * PLAIN_SHARE)
        tracer = tracing.Tracer()
        tracer.install([workloads])
        try:
            left = args.seconds - (time.perf_counter() - start)
            traced = run_passes(workloads, args, first, left, most=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        tracing.write_spans(
            ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.csv.gz",
            [(p.pass_no, p.spans) for p in traced],
        )
        passes = plain + traced
        values = per_layer(plain, traced)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        info = {"passes": len(plain)}
    else:
        # set-ups are spread over the run, one before and one after each
        # pass, so that their median does not hang on one stretch of time
        setups = [time_setup(args)]

        def between():
            if len(setups) < SETUP_REPEATS:
                setups.append(time_setup(args))

        passes = run_passes(workloads, args, first, args.seconds, between=between)
        setups += [time_setup(args) for _ in range(SETUP_REPEATS - len(setups))]
        values, info = end_to_end(passes, statistics.median(setups), per_pass)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    info.update(
        workload=args.workload,
        seed=args.seed,
        failed_frac=failed / attempted,
        out_nodes=statistics.median(p.nodes for p in passes),
        out_bytes=statistics.median(p.bytes for p in passes),
        **environment(),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
