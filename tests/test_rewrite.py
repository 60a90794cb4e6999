"""Rewrite schemas, the simplifier, and proof-script checking."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxzw.rewrite as rw
from helpers import random_diagram
from zxzw.diagrams import Diagram, h, iso_equal, seq, ten, white, x, z
from zxzw.matrices import Matrix
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, eq_semantic, interp

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def test_fusion_adds_phases():
    d = seq(z(1, 1, F(1, 4)), z(1, 1, F(1, 4)))
    locs = rw.find(rw.FUSION, d)
    assert locs == [(0, 1)]
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert len(fused.nodes) == 1
    assert fused.nodes[0].phase == F(1, 2)
    assert interp(fused, EXACT) == Matrix([[1, 0], [0, Cyclo.omega_power(2)]])


def test_fusion_eats_parallel_wires():
    d = seq(z(1, 2, F(1, 4)), z(2, 1, F(3, 4)))
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert len(fused.nodes) == 1 and len(fused.edges) == 2
    assert eq_semantic(d, fused)


def test_fusion_multiplies_white_parameters():
    d = seq(white(1, 1, Cyclo(0, 1)), white(1, 1, Cyclo(0, 0, 1)))
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert fused.nodes[0].param == Cyclo(0, 0, 0, 1)
    assert eq_semantic(d, fused)


def test_fusion_rejects_mixed_colors_and_stale_locations():
    d = seq(z(1, 1, 0), x(1, 1, 0))
    assert rw.find(rw.FUSION, d) == []
    with pytest.raises(rw.StaleLocation):
        rw.apply(rw.FUSION, d, (0, 1))
    fused = rw.apply(rw.FUSION, seq(z(1, 1, 0), z(1, 1, 0)), (0, 1))
    with pytest.raises(rw.StaleLocation):
        rw.apply(rw.FUSION, fused, (0, 1))


def test_identity_chain_collapses_to_wire():
    chain = seq(*[z(1, 1, 0)] * 5)
    out, trace = rw.simplify(chain)
    assert out.is_pure_wire and out.shape == (1, 1)
    assert [name for name, _ in trace] == ["fusion"] * 4 + ["identity-removal"]


def test_minimal_diagram_is_left_alone():
    d = z(1, 2, F(1, 4))
    out, trace = rw.simplify(d)
    assert out is d and trace == []


def test_identity_removal_of_closed_spider_makes_a_circle():
    d = seq(Diagram.cap(), z(1, 1, 0).tensor(Diagram.identity(1)), Diagram.cup())
    out = rw.apply(rw.IDENTITY_REMOVAL, d, 0)
    assert not out.nodes and out.loops == d.loops + 1
    assert eq_semantic(d, out)


def test_h_cancel_single_and_doubled():
    d = seq(h(), h())
    out = rw.apply(rw.H_CANCEL, d, (0, 1))
    assert out.is_pure_wire and eq_semantic(d, out)
    closed = seq(Diagram.cap(), d.tensor(Diagram.identity(1)), Diagram.cup())
    out2 = rw.apply(rw.H_CANCEL, closed, (0, 1))
    assert out2.loops == 1 and eq_semantic(closed, out2)


def test_scalar_merge_folds_dots_into_circles():
    d = ten(z(0, 0, 0), z(0, 0, F(1, 2)), x(0, 0, F(3, 2)))
    out, trace = rw.simplify(d)
    assert not out.nodes and out.loops == 2
    assert eq_semantic(d, out)
    assert {name for name, _ in trace} == {"scalar-merge"}


def test_hopf_fires_on_doubled_edge_only():
    d = seq(z(1, 2, F(1, 4)), x(2, 1, F(3, 4)))
    assert rw.find(rw.HOPF, d) == [(0, 1)]
    single = seq(z(1, 1, F(1, 4)), x(1, 1, F(3, 4)))
    assert rw.find(rw.HOPF, single) == []
    out = rw.apply(rw.HOPF, d, (0, 1))
    assert eq_semantic(d, out)
    assert rw.HOPF not in rw.DEFAULT_STRATEGY  # it grows the diagram


def test_color_change_wraps_legs_in_hadamards():
    d = x(2, 1, F(1, 4))
    out = rw.apply(rw.COLOR_CHANGE, d, 0)
    kinds = [g.kind for g in out.nodes]
    assert kinds.count("H") == 3 and kinds.count("Z") == 1
    assert eq_semantic(d, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_simplify_preserves_semantics(seed, tag):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=tag, max_nodes=5)
    out, trace = rw.simplify(d)
    assert len(out.nodes) <= len(d.nodes)
    assert eq_semantic(d, out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_opt_in_schemas_preserve_semantics(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, tag="zx", max_nodes=5)
    out, _ = rw.simplify(d, strategy=rw.ALL_SCHEMAS, fuel=40)
    assert eq_semantic(d, out)


def test_simplify_respects_fuel():
    chain = seq(*[z(1, 1, 0)] * 5)
    out, trace = rw.simplify(chain, fuel=2)
    assert len(trace) == 2 and len(out.nodes) == 3


# -- proof scripts ---------------------------------------------------------------


def _load(name):
    return rw.parse_proof((PROOF_DIR / name).read_text())


@pytest.mark.parametrize(
    "name", ["pi-commutation.zxp", "w-unit.zwp", "triangle-fusion.zxp"]
)
def test_shipped_proofs_pass(name):
    result = rw.check_proof(_load(name))
    assert result.ok, result.failures


def test_proof_structure():
    script = _load("pi-commutation.zxp")
    assert script.name == "pi-commutation"
    assert script.axiom_set == "zx-pi4"
    assert len(script.steps) == 3
    assert script.citations == (("K",), ("H",))


def test_single_step_proof_passes():
    res = rw.check_proof(rw.parse_proof("proof t\nset zx-pi2\n(Z 1 1 pi)\n"))
    assert res.ok and res.n_steps == 1


VARIABLE_PROOF = "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0))\nby S\n(Z 1 1 a)\n"


def test_proof_steps_with_phase_variables_are_sampled():
    res = rw.check_proof(rw.parse_proof(VARIABLE_PROOF), seed=3)
    assert res.ok and res.sampled_steps == 1
    assert res.to_json()["sampled_steps"] == 1
    wrong = rw.check_proof(rw.parse_proof(VARIABLE_PROOF.replace("(Z 1 1 0)", "(Z 1 1 pi)")))
    assert [f["step"] for f in wrong.failures] == [0] and wrong.sampled_steps == 1


def test_corrupted_phase_fails_at_first_transition():
    text = (PROOF_DIR / "pi-commutation.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("7*pi/4", "5*pi/4")))
    assert not res.ok
    assert res.failures[0]["step"] == 0


def test_corrupted_middle_step_fails_both_transitions():
    text = (PROOF_DIR / "triangle-fusion.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("(tri 2)", "(tri 3)")))
    assert [f["step"] for f in res.failures] == [0, 1]


def test_citation_outside_set_fails():
    text = (PROOF_DIR / "pi-commutation.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("by K", "by IV")))
    assert not res.ok
    assert "IV" in res.failures[0]["reason"]


def test_malformed_scripts_raise():
    with pytest.raises(rw.ProofError):
        rw.parse_proof("set zx-pi2\n(Z 1 1 pi)\n")
    with pytest.raises(rw.ProofError):
        rw.parse_proof("proof p\nset zx-pi2\n(Z 1 1 pi)\nby S\n")
    with pytest.raises(rw.ProofError):
        rw.parse_proof("proof p\nset zx-pi2\n(Z 1 1 pi//4)\n")
