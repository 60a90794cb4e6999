"""Rule databases: instantiation, variants, soundness, mutation controls."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_verify_rule
from zxzw import diagrams as dg
from zxzw import rules as ru
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Laurent
from zxzw import semantics
from zxzw.semantics import EXACT, FLOAT, interp

F = Fraction

SET_NAMES = ("zx-pi2", "zx-pi4", "zx-pi4a", "zx-t", "zw", "zw-half")

# every rule of the six sets once, then the ten corrupted controls
RULES_AND_CONTROLS = list({id(r): r for name in SET_NAMES for r in ru.axiom_set(name)}.values())
RULES_AND_CONTROLS += ru.corrupted_rules()


def ring_parameters(rule):
    """The names that a rule's grid declares ring parameters."""
    return [name for name, values in rule.grid if values is ru.RING]


def ring_point(rule, rng):
    """Seeded complex values for a rule's ring parameters."""
    return {name: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for name in ring_parameters(rule)}


RING_PARAMETER_RULES = [r for r in RULES_AND_CONTROLS if ring_parameters(r)]


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
            lhs, rhs = ru.instantiate(rule, {**b, **ring_point(rule, rng)})
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


# each control's rule, and the sides (0 = lhs, 1 = rhs) that it keeps
CONTROL_RULES = {
    "SUP~bad": (ru.RULE_SUP, (1,)),
    "K~bad": (ru.RULE_K, (0,)),
    "B~bad": (ru.RULE_B, (0,)),
    "EU~bad": (ru.RULE_EU, (0,)),
    "S~bad": (ru.RULE_S, (0,)),
    "TA~bad": (ru.RULE_TA, (0,)),
    "4a~bad": (ru.axiom_set("zw").rule("4a"), (0,)),
    "half~bad": (ru.RULE_HALF, (1,)),
    "cross~bad": (ru.axiom_set("zw").rule("0a"), ()),
    "C~bad": (ru.RULE_C, ()),
}


@pytest.mark.parametrize("control", ru.corrupted_rules(), ids=lambda r: r.name)
def test_each_control_keeps_its_rule_but_for_the_sides_it_breaks(control):
    rule, kept = CONTROL_RULES[control.name]
    assert (control.grid, control.sample, control.variants) == (
        rule.grid, rule.sample, rule.variants)
    assert control.domain == rule.domain + " (deliberately broken)"
    rng = random.Random(control.name)
    binding = {**ru._bindings_for(rule, 1, 1, rng)[0], **ring_point(rule, rng)}
    got, want = control.build(binding), rule.build(binding)
    for side in (0, 1):
        assert (got[side] == want[side]) == (side in kept), side


def test_failure_record_carries_both_matrices():
    bad = ru.corrupted_rules()[8]  # the crossing-vs-swap mutation
    rep = ru.verify_rule(bad, budget=4, samples=4, seed=0)
    fail = rep.failures[0]
    assert fail["lhs_matrix"] != fail["rhs_matrix"]
    assert len(fail["lhs_matrix"]) == 4  # a 4 x 4 matrix, row-major


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_meaningless_tolerance_is_refused_for_exact_rules_too(tol):
    with pytest.raises(semantics.ArgumentError, match="tol"):
        ru.verify_rule(ru.AXIOM_SETS["zx-pi2"].rule("S"), budget=2, tol=tol)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("budget", [0, 1, 48, 300])
def test_grouped_verifier_matches_the_reference(budget, seed):
    # groups of grid bindings are decided symbolically, lone ones concretely;
    # the reports are those of checking every instance concretely
    for rule in RULES_AND_CONTROLS:
        got = ru.verify_rule(rule, budget, samples=4, seed=seed)
        want = reference_verify_rule(rule, budget, samples=4, seed=seed)
        assert (got.to_json(), got.failed) == (want.to_json(), want.failed), rule.name


@pytest.mark.parametrize(
    "rule",
    [r for r in RULES_AND_CONTROLS if any(values is ru.GRID8 for _, values in r.grid)],
    ids=lambda r: r.name,
)
def test_builders_are_natural_in_their_phases(rule):
    # the symbolic check rests on this: building with phase variables and
    # then substituting a grid point gives the concrete build at that point
    phases = [name for name, values in rule.grid if values is ru.GRID8]
    rng = random.Random(rule.name)
    for b in ru._bindings_for(rule, 6, 0, rng):
        pair = rule.build({**b, **{name: Phase.var(name) for name in phases}})
        for _ in range(4):
            point = {name: rng.choice(ru.GRID8) for name in phases}
            for variant in ("base",) + rule.variants:
                sides = ru._sides(rule, pair, variant)
                got = tuple(d.substitute(point) for d in sides)
                assert got == ru.instantiate(rule, {**b, **point}, variant), (b, point, variant)


def test_the_ring_parameter_rules():
    assert [r.name for r in RING_PARAMETER_RULES] == [
        "TA", "0c", "1b", "1c", "4a", "4b", "5", "6c", "TA~bad", "4a~bad"]


def test_1c_covers_its_whole_arity_grid_from_a_budget_of_162():
    # one binding per arity tuple, each decided for every r and s at once
    rule = ru.axiom_set("zw").rule("1c")
    reports = [ru.verify_rule(rule, budget) for budget in (161, 162, 4096)]
    assert [(r.instances, r.status) for r in reports] == [(322, "PASS")] + [(324, "PASS")] * 2


def test_1c_is_wired_as_the_composed_fusion():
    rule = ru.axiom_set("zw").rule("1c")
    r, s = Laurent({(1, 0): 1}), Laurent({(0, 1): 1})
    for b in ru._bindings_for(rule, 162, 0, random.Random(0)):
        n1, m1, k, n2, m2 = b["n1"], b["m1"], b["k"], b["n2"], b["m2"]
        lhs = dg.seq(dg.ten(dg.white(n1, m1 + k, r), dg.Diagram.identity(n2)),
                     dg.ten(dg.Diagram.identity(m1), dg.white(k + n2, m2, s)))
        assert rule.build({**b, "r": r, "s": s}) == (lhs, dg.white(n1 + n2, m1 + m2, r * s)), b


@pytest.mark.parametrize("name", ["TA", "0c", "1b", "4a", "4b", "5", "6c"])
def test_a_fixed_arity_ring_parameter_rule_has_one_binding(name):
    rule = ru.RULE_TA if name == "TA" else ru.axiom_set("zw").rule(name)
    rep = ru.verify_rule(rule, budget=0, samples=0)
    assert (rep.instances, rep.status) == (2, "PASS")


@pytest.mark.parametrize("name", ["TA~bad", "4a~bad"])
def test_ring_parameter_controls_fail_at_integer_witnesses(name):
    # r + s - (r - s) and r + s - rs vanish at (0, 0), not at (0, 1)
    control = next(c for c in ru.corrupted_rules() if c.name == name)
    rep = ru.verify_rule(control)
    assert (rep.instances, rep.failed, rep.status) == (2, 2, "FAIL")
    assert [f["binding"] for f in rep.failures] == [{"r": 0, "s": 1}] * 2


@pytest.mark.parametrize("rule", RING_PARAMETER_RULES, ids=lambda r: r.name)
def test_builders_are_natural_in_their_ring_parameters(rule):
    # the symbolic check rests on this: each side built with a variable per
    # ring parameter, contracted once (exactly, and in float) and evaluated
    # at seeded complex values, is the float interpretation of the
    # concrete build there
    params = ring_parameters(rule)
    slot = {name: i for i, name in enumerate(params)}
    variables = {
        name: Laurent({tuple(int(j == i) for j in range(len(params))): 1}) for name, i in slot.items()
    }
    rng = random.Random(rule.name)
    bindings = ru._bindings_for(rule, 6, 0, rng)
    for b, values in [(b, ring_point(rule, rng)) for b in bindings for _ in range(6)]:
        pair = rule.build({**b, **variables})
        point = [values[name] for name in params]
        for variant in ("base",) + rule.variants:
            sides = ru._sides(rule, pair, variant)
            for side, concrete in zip(sides, ru.instantiate(rule, {**b, **values}, variant)):
                assert semantics.constants_exact(side)
                want = interp(concrete, FLOAT).entries
                for exact in (True, False):
                    entries = semantics._contract_diagram(side, exact, slot)
                    got = {k: e.at(point) if isinstance(e, Laurent) else complex(e)
                           for k, e in entries.items()}
                    for k in got.keys() | want.keys():
                        assert abs(got.get(k, 0) - want.get(k, 0)) <= 1e-9, (b, variant, exact, k)
