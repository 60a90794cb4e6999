"""Spans and counts around the library's public calls, for the traced run.

`Tracer.install` replaces each traced function with a wrapper, in the
module that defines it and in every module that imported it by name (so
`zxzw.rules.interp` and `zxzw.rewrite.eq_semantic` are wrapped as well as
`zxzw.semantics.interp`), and methods on their classes.  Nothing in the
library's files changes, and `uninstall` puts every original back.

A span is `[name, start, end, parent]`, `parent` being the index of the
enclosing span or -1.  Spans stay in memory until the run writes them out.
The wrappers record only while `active` is set, which the benchmark does
around the timed call of each item.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

MEASURE = "trace.measure"  # time spent sizing results: the benchmark's own


def _interp_sizes(counts, args, kwargs, out):
    from zxzw.semantics import Exact

    mode = args[1] if len(args) > 1 else kwargs.get("mode")
    counts["semantics.interp.calls_exact" if mode is None or isinstance(mode, Exact) else "semantics.interp.calls_float"] += 1
    counts["semantics.interp.nodes_in"] += len(args[0].nodes)
    if hasattr(out, "entries"):  # coordinate form keeps nonzeros only
        counts["semantics.interp.nonzeros_out"] += len(out.entries)
    else:
        counts["semantics.interp.nonzeros_out"] += sum(
            1 for row in out.data for v in row if not (v.is_zero() if hasattr(v, "is_zero") else v == 0)
        )


def _translate_sizes(name):
    def measure(counts, args, kwargs, out):
        counts[name + ".nodes_in"] += len(args[0].nodes)
        counts[name + ".nodes_out"] += len(out.nodes)

    return measure


def _eq_linear_sizes(counts, args, kwargs, out):
    counts["semantics.eq_linear.valuations"] += out.valuations_checked


def _verify_sizes(counts, args, kwargs, out):
    counts["rules.verify_rule.instances"] += out.instances


def _parse_sizes(counts, args, kwargs, out):
    counts["dsl.parse.bytes_in"] += len(args[0].encode())


def _print_sizes(counts, args, kwargs, out):
    counts["dsl.print_diagram.bytes_out"] += len(out.encode())


def _simplify_sizes(counts, args, kwargs, out):
    simplified, steps = out
    counts["rewrite.simplify.steps"] += len(steps)
    counts["rewrite.simplify.nodes_removed"] += len(args[0].nodes) - len(simplified.nodes)


def targets():
    """(span name, owner, attribute, sizer) for every traced call, and
    (count name, owner, attribute) for the ring operations, which are too
    many to give spans."""
    import zxzw.gadgets as gadgets
    from zxzw import diagrams, dsl, matrices, rewrite, rings, rules, semantics, translate

    spans = [
        ("semantics.interp", semantics, "interp", _interp_sizes),
        ("semantics.eq_semantic", semantics, "eq_semantic", None),
        ("semantics.eq_linear", semantics, "eq_linear", _eq_linear_sizes),
        ("matrices.compare", matrices.Matrix, "__eq__", None),
        ("matrices.compare", matrices.Matrix, "close", None),
        ("matrices.compare", matrices.SparseMatrix, "__eq__", None),
        ("matrices.compare", matrices.SparseMatrix, "close", None),
        ("rules.verify_rule", rules, "verify_rule", _verify_sizes),
        ("rules.instantiate", rules, "instantiate", None),
        ("diagrams.compose", diagrams.Diagram, "then", None),
        ("diagrams.compose", diagrams.Diagram, "tensor", None),
        ("diagrams.validate", diagrams.Diagram, "validate", None),
        ("diagrams.substitute", diagrams.Diagram, "substitute", None),
        ("translate.zx_to_zw", translate, "zx_to_zw", _translate_sizes("translate.zx_to_zw")),
        ("translate.zw_to_zx", translate, "zw_to_zx", _translate_sizes("translate.zw_to_zx")),
        ("dsl.parse", dsl, "parse", _parse_sizes),
        ("dsl.print_diagram", dsl, "print_diagram", _print_sizes),
        ("rewrite.simplify", rewrite, "simplify", _simplify_sizes),
        ("rewrite.check_proof", rewrite, "check_proof", None),
    ]
    for attr, fn in vars(gadgets).items():
        if callable(fn) and not attr.startswith("_") and getattr(fn, "__module__", None) == gadgets.__name__:
            spans.append(("gadgets", gadgets, attr, None))
    counts = [
        ("rings.cyclo_mul.calls", rings.Cyclo, "__mul__"),
        ("rings.cyclo_mul.calls", rings.Cyclo, "__rmul__"),
        ("rings.cyclo_add.calls", rings.Cyclo, "__add__"),
        ("rings.cyclo_add.calls", rings.Cyclo, "__radd__"),
    ]
    return spans, counts


class Tracer:
    """Records spans and counts from the wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn: Callable, sizer: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if sizer is not None:
                t = perf_counter()
                sizer(counts, args, kwargs, out)
                spans.append([MEASURE, t, perf_counter(), parent])
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            if self.active:
                counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr: str, new, modules) -> None:
        old = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, name, old))
                    setattr(mod, name, new)

    def install(self, extra_modules=()) -> None:
        """Wrap every target in zxzw's modules and in `extra_modules` (the
        benchmark's own, which also imported names)."""
        modules = [m for n, m in sys.modules.items() if n == "zxzw" or n.startswith("zxzw.")]
        modules += list(extra_modules)
        spans, counts = targets()
        for name, owner, attr, sizer in spans:
            self._replace(owner, attr, self._span(name, getattr(owner, attr), sizer), modules)
        for name, owner, attr in counts:
            self._replace(owner, attr, self._count(name, getattr(owner, attr)), modules)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def take(self) -> tuple[list, Counter]:
        """The spans and counts recorded so far; starts afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: list) -> dict:
    """Self time by span name: each span's duration minus its direct
    children's."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    by_name: dict = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
    return dict(by_name)


def write_spans(path: Path, passes: list) -> None:
    """One CSV row per span: pass, span id, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write("pass,id,name,start,end,parent\n")
        for pass_no, spans in passes:
            for sid, (name, start, end, parent) in enumerate(spans):
                f.write(f"{pass_no},{sid},{name},{start!r},{end!r},{parent}\n")
