"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that a wrong known answer is counted as a failure, that the traced run's
self times add up to its wall time, and that tracing wraps imported names
and puts them back.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    info, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert info["failed_frac"] == 0 and info["src_lines"] > 0
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layers + m["trace.bench_self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_wrong_answer_is_counted():
    items = workloads.build("verify", 5, 0, ROOT, scale=0.05)
    control = next(it for it in items if it.name.startswith("control/"))
    # a planted wrong known answer: claim the corrupted rule should PASS
    control.check = lambda rep: rep.status == "PASS"
    res = run.run_pass(0, items)
    assert res.failed == [control.name]
    assert len(res.times) == len(items)


def test_raising_item_is_counted():
    def boom():
        raise ValueError("planted")

    items = [workloads.Item("planted/raise", boom, lambda out: True)]
    res = run.run_pass(0, items + workloads.warmup_items("syntax", ROOT))
    assert res.failed == ["planted/raise"]


def test_tracer_wraps_imported_names_and_restores_them():
    import zxzw.rewrite
    import zxzw.rules
    import zxzw.semantics

    original = zxzw.semantics.interp
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        assert zxzw.rules.interp is zxzw.semantics.interp is not original
        assert zxzw.rewrite.eq_semantic is zxzw.semantics.eq_semantic
        assert workloads.eq_semantic is zxzw.semantics.eq_semantic
        assert hasattr(zxzw.rewrite.eq_semantic, "__wrapped__")
        res = run.run_pass(0, workloads.warmup_items("translate", ROOT), tracer)
    finally:
        tracer.uninstall()
    assert zxzw.rules.interp is original and zxzw.semantics.interp is original
    assert not hasattr(zxzw.rewrite.eq_semantic, "__wrapped__")
    names = {span[0] for span in res.spans}
    assert {"semantics.interp", "translate.zx_to_zw", "translate.zw_to_zx"} <= names
    assert res.counts["rings.cyclo_mul.calls"] > 0


def test_tail_percentile_leaves_ten_items_beyond():
    for n in (48, 143, 1000):
        pct = run.tail_percent(n)
        assert n - n * pct / 100 >= 10
        assert n - n * (pct + 1) / 100 < 10
