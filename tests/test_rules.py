"""Rule databases: instantiation, variants, soundness, mutation controls."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxzw import rules as ru
from zxzw.matrices import Matrix
from zxzw.semantics import EXACT, FLOAT, interp

F = Fraction

SET_NAMES = ("zx-pi2", "zx-pi4", "zx-pi4a", "zx-t", "zw", "zw-half")


def test_set_compositions():
    names = {n: [r.name for r in ru.axiom_set(n)] for n in SET_NAMES}
    assert names["zx-pi2"] == ["S", "I", "IV", "CP", "B", "K", "EU", "H", "ZO"]
    assert "IV" not in names["zx-pi4"] and "ZO" not in names["zx-pi4"]
    assert {"E", "SUP", "C", "BW"} <= set(names["zx-pi4"])
    assert names["zx-pi4a"] == names["zx-pi4"] + ["A"]
    assert "C" not in names["zx-t"] and "BW" not in names["zx-t"]
    assert {"TD", "TA", "A"} <= set(names["zx-t"])
    assert names["zw-half"] == names["zw"] + ["half"]


def test_unknown_set_errors():
    with pytest.raises(ru.RuleError):
        ru.axiom_set("zx-pi8")


def test_fusion_example_is_pi_rotation():
    binding = {"alpha": F(1, 2), "beta": F(1, 2), "n1": 1, "m1": 0, "k": 1, "n2": 0, "m2": 1}
    lhs, rhs = ru.instantiate(ru.RULE_S, binding)
    want = Matrix.from_rows([[1, 0], [0, -1]])
    assert interp(lhs, EXACT) == want
    assert interp(rhs, EXACT) == want


def test_rule_a_zero_binding_degenerate():
    binding = {"alpha": 0.0, "beta": 0.0, "branch": 0, "n": 1}
    lhs, rhs = ru.instantiate(ru.RULE_A, binding)
    assert interp(lhs, FLOAT).close(interp(rhs, FLOAT), 1e-12)


def test_arity_beyond_bound_errors():
    binding = {"r": 1 + 0j, "s": 2 + 0j, "n1": 9, "m1": 0, "k": 1, "n2": 0, "m2": 0}
    with pytest.raises(ru.RuleError):
        ru.instantiate(ru.axiom_set("zw").rule("1c"), binding)


def test_grid_binding_outside_domain_errors():
    with pytest.raises(ru.RuleError):
        ru.instantiate(ru.RULE_CP, {"a": F(1, 4)})


def test_instantiated_sides_share_boundaries():
    rng = random.Random(5)
    for name in SET_NAMES:
        for rule in ru.axiom_set(name):
            b = ru._bindings_for(rule, budget=4, samples=2, rng=rng)[0]
            lhs, rhs = ru.instantiate(rule, b)
            assert lhs.shape == rhs.shape, rule.name


@given(
    st.sampled_from(ru.GRID8),
    st.sampled_from(ru.GRID8),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_fusion_sound_everywhere(alpha, beta, n1, m1, k, n2, m2):
    b = {"alpha": alpha, "beta": beta, "n1": n1, "m1": m1, "k": k, "n2": n2, "m2": m2}
    for variant in ("base", "flip", "color"):
        lhs, rhs = ru.instantiate(ru.RULE_S, b, variant)
        assert interp(lhs, EXACT) == interp(rhs, EXACT)


@pytest.mark.parametrize("name", SET_NAMES)
def test_sets_verify_sound(name):
    report = ru.verify_soundness(name, budget=128, samples=60, seed=11)
    assert report.all_pass, [r.rule for r in report.rules if r.status != "PASS"]


def test_report_json_shape():
    report = ru.verify_soundness("zw-half", budget=16, samples=8, seed=2)
    doc = report.to_json()
    assert doc["set"] == "zw-half"
    assert doc["all_pass"] is True
    assert {"rule", "instances", "status", "failures"} <= set(doc["rules"][0])


def test_corrupted_rules_all_fail_with_counterexamples():
    controls = ru.corrupted_rules()
    assert len(controls) == 10
    for rule in controls:
        rep = ru.verify_rule(rule, budget=64, samples=40, seed=3)
        assert rep.status == "FAIL", rule.name
        assert rep.failures, rule.name
        for fail in rep.failures:
            assert "binding" in fail
            assert fail["lhs_matrix"] != fail["rhs_matrix"]


def test_failure_record_carries_both_matrices():
    bad = ru.corrupted_rules()[8]  # the crossing-vs-swap mutation
    rep = ru.verify_rule(bad, budget=4, samples=4, seed=0)
    fail = rep.failures[0]
    assert fail["lhs_matrix"] != fail["rhs_matrix"]
    assert len(fail["lhs_matrix"]) == 4  # a 4 x 4 matrix, row-major


def test_no_pass_on_zero_instances():
    rep = ru.verify_rule(ru.RULE_K, budget=0)
    assert rep.instances == 0
    assert rep.status == "FAIL"


@pytest.mark.parametrize("rule, budget", [(ru.RULE_S, 4096), (ru.RULE_H, 48), (ru.RULE_H, 71)])
def test_bindings_above_budget_are_distinct_grid_points(rule, budget):
    grid = dict(rule.grid)
    assert len(grid) and math.prod(len(v) for v in grid.values()) > budget
    bindings = ru._bindings_for(rule, budget, 0, random.Random(3))
    assert len(bindings) == budget
    assert len({tuple(sorted(b.items())) for b in bindings}) == budget
    assert all(b.keys() == grid.keys() and all(b[k] in grid[k] for k in b) for b in bindings)
