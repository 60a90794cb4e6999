"""Diagram text: parsing, printing, and their round trip."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxzw.dsl as dsl
import zxzw.gadgets as gad
from helpers import random_diagram, reference_print_body, reference_tokens
from zxzw.diagrams import Diagram, Gen, h, iso_equal, seq, ten, w21, x, z
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


def test_sign_after_a_leading_e_splits():
    # a sign is a float exponent's only after a float's digits and an "e"
    assert parse_phase("e-5") == parse_phase("-5+e") == Phase.PI + Phase.var("e")
    assert parse_phase("a1e-5") == parse_phase("-5+a1e")
    assert parse_phase("e-a") == Phase.var("e") - Phase.var("a")
    assert repr(parse_phase("1e-5+pi/4")) == repr(Phase.radians(1e-5 + math.pi / 4))
    assert repr(parse_phase("0.3+pi")) == repr(Phase.radians(0.3 + math.pi))


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def left_fold_phase(text: str) -> Phase:
    """`parse_phase` as it was, for valid texts: each term added in turn to a
    running `Phase`, which is normalised after every addition."""
    total = Phase.ZERO
    for chunk in dsl._split_signed(text):
        sign, body = (-1 if chunk[0] == "-" else 1), chunk.lstrip("+-")
        if m := dsl._PI_TERM.fullmatch(body):
            total = total + Phase.exact_pi(F(sign * int(m.group(1) or 1), int(m.group(2) or 1)))
        elif body.isdigit():
            total = total + Phase.exact_pi(sign * int(body))
        elif (body[0].isdigit() or body[0] == ".") and (radians := _float(body)) is not None:
            total = total + Phase.radians(sign * radians)
        else:
            m = dsl._VAR_TERM.fullmatch(body)
            total = total + Phase.var(m.group(2), sign * int(m.group(1) or 1))
    return total


@pytest.mark.parametrize(
    "text",
    [
        "pi/4",
        "3*pi/2-2a+b",
        "0.3+pi",
        "2a-2a",
        "1e-5+pi/4",
        "-pi",
        "7+0.3",
        "-1e-20",
        "-1e-20+a",
        "a+0.3-b+pi/4",
        "pi/4+pi/4+pi/2-3",
        "-0.3-0.3+5pi/3",
        "b+a-2b+3c",
        "2.5e-3+3a-pi/8",
        "1e5-2a1",
        "0",
    ],
)
def test_phase_is_the_left_fold_of_its_terms(text):
    got, want = parse_phase(text), left_fold_phase(text)
    assert (got.is_exact, repr(got.const), got.terms) == (want.is_exact, repr(want.const), want.terms)


@pytest.mark.parametrize(
    "text, message",
    [
        ("pi//4", "bad phase term 'pi//4' in 'pi//4'"),
        ("", "bad phase ''"),
        ("a+", "bad phase 'a+'"),
        ("pi+-a", "bad phase 'pi+-a'"),
        ("pi/0", "zero denominator in 'pi/0'"),
        ("1e400", "non-finite number '1e400' in '1e400'"),
        ("0.3+pi-x.y", "bad phase term '-x.y' in '0.3+pi-x.y'"),
    ],
)
def test_phase_errors(text, message):
    with pytest.raises(DslError) as err:
        parse_phase(text, 4, 7)
    assert str(err.value) == f"line 4, col 7: {message}"


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
        ("(Z 1 1 pi/0)", 1, 8),
        ("(perm 0 0)", 1, 2),
        ("(perm 1 x)", 1, 9),
        ("(perm 0 2)", 1, 2),
        # repeated atoms: a built one is reused, a bad one raises where it is
        ("(seq (Z 1 1 pi) (Z 1 1 pi) (Z 2 1 pi))", 1, 28),
        ("(ten (Z 1 1 pi//4) (Z 1 1 pi//4))", 1, 13),
        ("(ten (Z 1 1 pi) (Z 1 1 pi)\n (Z 1 1 pi//4))", 2, 9),
        ("(ten H H\n H frob)", 2, 4),
        ("(seq (perm 1 0) (perm 1 0) (perm 0 0))", 1, 29),
        ("(ten (wz 1 1 2) (wz 1 1 2) (wz 1 1 2@a))", 1, 36),
    ],
)
def test_errors_carry_positions(text, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.col == col


def test_repeated_atoms_parse_as_built():
    t = z(1, 1, F(1, 4))
    layer = "(ten (Z 1 1 pi/4) H (X 1 1 a))"
    text = f"(seq {layer} (perm 1 0 2) {layer} (ten id swap) {layer})"
    built_layer = ten(t, h(), x(1, 1, Phase.var("a")))
    built = seq(
        built_layer,
        Diagram.permutation([1, 0, 2]),
        built_layer,
        ten(Diagram.identity(1), Diagram.swap()),
        built_layer,
    )
    assert parse(text) == built
    for d in (built, parse("(ten " + " ".join(["(Z 1 1 pi/4)", "H", "id", "(X 1 2 a)"] * 50) + ")")):
        printed = print_diagram(d)
        assert print_diagram(parse(printed)) == printed


_PIECES = list(" \t\r\n;()\x0cZ1p/-+ab") + ["pi/4", "(Z 1 1 ", ") ;c\n", "\r\n\t"]
_TOKEN_TEXT = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_TOKEN_TEXT)
def test_tokens_and_positions_match_the_reference(src):
    ref = reference_tokens(src)
    assert dsl._Parser(src).toks == [t for t, _, _ in ref]
    assert [dsl._position(src, k) for k in range(len(ref))] == [(line, col) for _, line, col in ref]


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
    assert text == "(seq (ten id cap) (ten (Z 1 1 pi/2) (X 1 1 0) id) (perm 1 0 2) (ten id cup))"
    assert iso_equal(parse(text), d)


def test_printer_matches_the_reference():
    # the printer that routed each edge by its pair of end kinds, on random
    # diagrams of every tag; a few of them large
    for seed in range(2_100):
        rng = random.Random(seed)
        tag = ("zx", "zxt", "zw")[seed % 3]
        d = random_diagram(rng, rng.randrange(5), rng.randrange(5), tag, 40 if seed % 100 == 0 else 9)
        body = reference_print_body(d)
        parts = ([] if body == "empty" else [body]) + ["(seq cap cup)"] * d.loops
        assert print_diagram(d) == (dsl._form_text("ten", parts) if d.loops else body), seed


# every pair of end kinds: boundary input (i), node input (n), node output
# (u) and boundary output (o): i-i, o-o, i-o, i-n, u-o, n-u, n-n, u-u, i-u, n-o
_TEN_PAIRS = (
    "(ten cup cap id (seq (Z 1 1 pi/4) H) (seq cap (ten (Z 1 0 0) (Z 1 0 0)))"
    " (seq (ten (Z 0 1 0) (Z 0 1 0)) cup) (seq (ten id (Z 0 1 0)) cup) (seq cap (ten (Z 1 0 0) id)))"
)


def test_print_routes_every_pair_of_end_kinds():
    assert print_diagram(parse(_TEN_PAIRS)) == (
        "(seq (ten id id id id id cap cap cap cap) (perm 5 6 7 0 8 1 9 2 3 4 10 11 12)"
        " (ten (Z 1 1 pi/4) H (Z 1 0 0) (Z 1 0 0) (Z 0 1 0) (Z 0 1 0) (Z 0 1 0) (Z 1 0 0)"
        " id id id id id id id id) (perm 9 3 11 12 7 5 6 2 8 10 4 0 1) (ten id id id id id cup cup cup cup))"
    )


def test_minus_i_reads_as_python_reads_minus_j():
    # the hand parser returned the literal -1j, whose real part is -0.0
    assert math.copysign(1.0, parse_param("-i").real) == 1.0
    assert parse_param("-i") == complex("-j") == -1j
    assert print_diagram(parse("(wz 1 1 -i)")) == "(wz 1 1 0.0-1.0i)"


def test_print_permutation_as_perm_word():
    d = Diagram.permutation([2, 0, 1])
    text = print_diagram(d)
    assert text == "(perm 2 0 1)"
    assert parse(text) == d


def test_perm_word_parses_to_a_permutation():
    assert parse("(perm 2 0 1)") == Diagram.permutation([2, 0, 1])
    assert parse("(perm 1 0)") == Diagram.swap()
    assert parse("(perm 0)") == Diagram.identity(1)


def test_printed_chain_grows_linearly():
    d = seq(*[z(1, 1, F(1, 4))] * 400)
    text = print_diagram(d)
    assert len(text.encode()) < 20_000
    assert iso_equal(parse(text), d)


def test_long_chain_reparses_isomorphic():
    d = seq(*[z(1, 1, F(1, 4))] * 1_500)
    assert iso_equal(parse(print_diagram(d)), d)


@pytest.mark.parametrize("depth", [3_000, 100_000])
def test_deep_nesting_parses(depth):
    assert parse("(seq " * depth + "id" + ")" * depth) == Diagram.identity(1)


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


@pytest.mark.parametrize(
    "param, message",
    [
        (complex("nan+infj"), "non-finite"),
        (complex(1e308, float("inf")), "non-finite"),
        (Cyclo(10**4400), "too large to print"),
        (Cyclo(1, 10**4400, 0, 0, 3), "too large to print"),
    ],
    ids=["nan", "inf", "long-integer", "long-cyclo-field"],
)
def test_print_refuses_a_parameter_that_does_not_parse_back(param, message):
    # each would print as text that `parse` refuses
    if message == "too large to print" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints and reads integers of any length")
    d = Diagram.generator(Gen("WZ", 1, 1, None, param))
    with pytest.raises(ValueError, match=message):
        print_diagram(d)
