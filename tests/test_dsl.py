"""Diagram text: parsing, printing, and their round trip."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxzw.gadgets as gad
from helpers import random_diagram
from zxzw.diagrams import Diagram, iso_equal, seq, ten, w21, x, z
from zxzw.dsl import DslError, parse, parse_param, parse_phase, print_diagram
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, eq_semantic, interp


def test_word_atoms():
    assert parse("id").shape == (1, 1)
    assert parse("swap").shape == (2, 2)
    assert parse("cup").shape == (2, 0)
    assert parse("cap").shape == (0, 2)
    assert parse("empty").shape == (0, 0)
    assert parse("H").nodes[0].kind == "H"
    assert parse("half").nodes[0].kind == "HALF"
    assert parse("zw-cross").nodes[0].kind == "CROSS"
    assert parse("(zw-cross)").nodes[0].kind == "CROSS"


def test_spider_chain_is_s_gate():
    d = parse("(seq (Z 1 1 pi/4) (Z 1 1 pi/4))")
    assert interp(d, EXACT) == Matrix.from_rows([[1, 0], [0, Cyclo.omega_power(2)]])


def test_tensor_of_identities():
    assert parse("(ten id id)") == Diagram.identity(2)


def test_cup_then_cap_is_legal():
    d = parse("(seq cup cap)")
    assert d.shape == (2, 2)
    assert d.edges == ((("i", 0), ("i", 1)), (("o", 0), ("o", 1)))


def test_w_node_arities():
    assert parse("(W 1 1)").nodes[0].kind == "W11"
    assert parse("(W 1 2)").nodes[0].kind == "W12"
    assert iso_equal(parse("(W 2 1)"), w21())
    with pytest.raises(DslError):
        parse("(W 2 2)")


def test_white_node_parameters():
    assert parse("(wz 1 1 cyclo:0,1,0,0,0)").nodes[0].param == Cyclo(0, 1)
    assert parse("(wz 0 1 2)").nodes[0].param == Cyclo(2)
    assert parse("(wz 1 1 0.5-0.25i)").nodes[0].param == complex(0.5, -0.25)
    polar = parse("(wz 1 1 2@pi/2)").nodes[0].param
    assert abs(polar - 2j) < 1e-12


def test_triangle_parameter_defaults_to_one():
    assert parse("(tri)").nodes[0].param == Cyclo(1)
    assert parse("(tri -1)").nodes[0].param == Cyclo(-1)
    assert parse("(tri cyclo:1,1,0,0,1)").nodes[0].param == Cyclo(1, 1, 0, 0, 1)


def test_phase_grammar():
    assert parse_phase("3*pi/2") == Phase.exact_pi(F(3, 2))
    assert parse_phase("-pi/4") == Phase.exact_pi(F(-1, 4))
    assert parse_phase("3") == Phase.exact_pi(3)
    assert parse_phase("0.41") == Phase.radians(0.41)
    assert parse_phase("pi/4+2a") == Phase.exact_pi(F(1, 4)) + Phase.var("a", 2)
    assert parse_phase("-b") == Phase.var("b", -1)
    assert parse_phase("1e-05") == Phase.radians(1e-05)
    assert parse("(Z 1 1)").nodes[0].phase == Phase.ZERO
    assert parse("(X 2 0 pi)").nodes[0].phase == Phase.PI


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("frob", 1, 1),
        ("(seq id", 1, 1),
        ("(seq)", 1, 1),
        ("id)", 1, 3),
        ("id id", 1, 4),
        ("(Z 1 1 pi//4)", 1, 8),
        ("(Z x 1)", 1, 4),
        ("(wz 1 1 cyclo:1,2)", 1, 9),
        ("(seq H\n     cup)", 2, 6),
        ("(seq id id\n  (Z 1 2) id)", 2, 11),
    ],
)
def test_errors_carry_positions(text, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.col == col


@pytest.mark.parametrize(
    "text, col",
    [
        ("(wz 1 1 1e400)", 9),
        ("(wz 1 1 nan)", 9),
        ("(wz 1 1 -inf)", 9),
        ("(wz 1 1 1e400i)", 9),
        ("(Z 1 1 1e400)", 8),
        ("(Z 1 1 pi/4-1e400)", 8),
    ],
)
def test_non_finite_numbers_rejected_with_position(text, col):
    # not an OverflowError from the parameter, nor the variable "e400"
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert "non-finite" in str(err.value)


def test_comments_and_whitespace():
    d = parse("; a comment\n  (seq  id\n id) ; trailing\n")
    assert d == Diagram.identity(1)


def test_bad_parameters_rejected():
    with pytest.raises(DslError):
        parse_param("2@a")  # polar angle with a free variable
    with pytest.raises(DslError):
        parse_param("frob")
    with pytest.raises(DslError):
        parse_param("1+2j")


def test_print_single_generators():
    assert print_diagram(z(1, 2, F(1, 4))) == "(Z 1 2 pi/4)"
    assert print_diagram(Diagram.identity(1)) == "id"
    assert print_diagram(Diagram.identity(3)) == "(ten id id id)"
    assert print_diagram(Diagram.empty()) == "empty"
    assert print_diagram(gad.wire()) == "id"


def test_print_loops_and_scalars():
    assert print_diagram(seq(Diagram.cap(), Diagram.cup())) == "(seq cap cup)"
    assert print_diagram(Diagram.circle(2)) == "(ten (seq cap cup) (seq cap cup))"


def test_print_layers_a_composite():
    d = seq(z(1, 1, F(1, 2)), x(1, 1, 0))
    text = print_diagram(d)
    assert text == "(seq (ten id cap) (ten (Z 1 1 pi/2) (X 1 1 0) id) (ten swap id) (ten id cup))"
    assert iso_equal(parse(text), d)


def test_print_permutation_as_swap_network():
    d = Diagram.permutation([2, 0, 1])
    text = print_diagram(d)
    assert parse(text) == d
    assert "Z" not in text and "cap" not in text


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_print_parse_round_trip(seed, tag):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=tag, max_nodes=5)
    text = print_diagram(d)
    d2 = parse(text)
    assert iso_equal(d, d2)
    assert print_diagram(d2) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_preserves_semantics(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, tag="zx", max_nodes=4)
    assert eq_semantic(d, parse(print_diagram(d)))


def test_round_trip_with_variables_and_floats():
    d = seq(z(1, 1, Phase.var("a", 2) + Phase.exact_pi(F(1, 4))), x(1, 1, 0.75))
    d2 = parse(print_diagram(d))
    assert iso_equal(d, d2)


def test_round_trip_with_exotic_parameters():
    d = ten(parse("(wz 2 1 cyclo:1,-2,0,3,2)"), parse("(wz 1 1 0.25+1.5i)"))
    d2 = parse(print_diagram(d))
    assert iso_equal(d, d2)
    assert print_diagram(parse(print_diagram(d))) == print_diagram(d)
