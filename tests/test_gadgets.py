"""Exact checks for the hand-built diagram fragments."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import as_array
from zxzw import diagrams as dg
from zxzw import gadgets as gad
from zxzw.matrices import Matrix
from zxzw.rings import Cyclo, INV_SQRT2, SQRT2
from zxzw.semantics import EXACT, FLOAT, interp


def scalar_of(d):
    m = interp(d, EXACT)
    assert m.shape == (1, 1)
    return m[0, 0]


def test_sqrt2_scalar():
    assert scalar_of(gad.sqrt2()) == SQRT2


def test_inv_sqrt2_scalar():
    assert scalar_of(gad.inv_sqrt2()) == INV_SQRT2


def test_dot_values():
    assert scalar_of(gad.dot(0)) == Cyclo(2)
    assert scalar_of(gad.dot(1)) == Cyclo(0)
    assert scalar_of(gad.dot(Fraction(1, 2))) == Cyclo(1) + Cyclo.omega_power(2)


def test_phase_gadget_is_sqrt2_times_unit():
    for k in range(8):
        got = scalar_of(gad.phase_gadget(Fraction(k, 4)))
        assert got == SQRT2 * Cyclo.omega_power(k)


def test_circles():
    assert scalar_of(gad.circles(3)) == Cyclo(8)


def test_loop_h1_values():
    assert scalar_of(gad.loop_h1(1)) == SQRT2
    # (1 - e^{+-i pi/2}) / sqrt2 = omega^{-+1}
    assert scalar_of(gad.loop_h1(Fraction(-1, 2))) == Cyclo.omega_power(1)
    assert scalar_of(gad.loop_h1(Fraction(1, 2))) == Cyclo.omega_power(7)


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_loop_h2_formula(j, k):
    got = scalar_of(gad.loop_h2(Fraction(j, 4), Fraction(k, 4)))
    want = (Cyclo(1) + Cyclo.omega_power(j)) * (Cyclo(1) + Cyclo.omega_power(k))
    assert got == want.half()


def test_half_scalar():
    assert scalar_of(gad.half_scalar()) == Cyclo(1, 0, 0, 0, 1)


@given(st.integers(-8, 8))
@settings(max_examples=20, deadline=None)
def test_unit_phase(k):
    assert scalar_of(gad.unit_phase(Fraction(k, 4))) == Cyclo.omega_power(k)


@given(st.integers(0, 7), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_unit_scalar(j, k):
    want = Cyclo.omega_power(j)
    for _ in range(abs(k)):
        want = want * SQRT2 if k > 0 else want * INV_SQRT2
    assert scalar_of(gad.unit_scalar(j, k)) == want


CNOT = Matrix.from_rows(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)
CNOT_DOWN = Matrix.from_rows(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
)
CZ = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])


def test_cnot_exact():
    assert interp(gad.cnot(), EXACT) == CNOT


def test_cnot_down_exact():
    assert interp(gad.cnot_down(), EXACT) == CNOT_DOWN


def test_cz_exact():
    assert interp(gad.cz(), EXACT) == CZ


def test_crossing_matches_generator():
    assert interp(gad.crossing(), EXACT) == interp(dg.zw_cross(), EXACT)


def test_triangle_matches_generator():
    # the pi/4 construction contracts to exactly the triangle generator
    assert interp(gad.triangle(), EXACT) == interp(dg.tri(1), EXACT)
    assert interp(gad.triangle(), EXACT) == Matrix.from_rows([[1, 1], [0, 1]])


def test_w_add_matrix():
    assert interp(gad.w_add(), EXACT) == Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]])


def test_w_split_matrix():
    assert interp(gad.w_split(), EXACT) == Matrix.from_rows(
        [[1, 0], [0, 1], [0, 1], [0, 0]]
    )


def test_w21_matches_generator():
    assert interp(gad.w21_zx(), EXACT) == interp(dg.w21(), EXACT)


def test_w12_matches_generator():
    assert interp(gad.w12_zx(), EXACT) == interp(dg.w12(), EXACT)


def test_zero_and_int_states():
    assert interp(gad.zero_state(), EXACT) == Matrix.from_rows([[1], [0]])
    assert interp(gad.int_state(3), EXACT) == Matrix.from_rows([[1], [3]])
    assert interp(gad.int_state(-2), EXACT) == Matrix.from_rows([[1], [-2]])


def test_int_state_values():
    for n in range(-64, 65):
        assert interp(gad.int_state(n), EXACT) == Matrix.from_rows([[1], [n]]), n


def test_int_state_size_is_logarithmic():
    # never more nodes than |n| units summed by |n| - 1 w_adds (0 is zero_state)
    w_add = len(gad.w_add().nodes)
    for n in range(-64, 65):
        if n:
            unary = abs(n) + (abs(n) - 1) * w_add
            assert len(gad.int_state(n).nodes) <= unary, n
    # 5 = 2 doubled plus 1: the most one binary digit after the first two costs
    per_digit = len(gad.int_state(5).nodes) - len(gad.int_state(2).nodes)
    for n in (10**6, -(2**40) - 1, 3**50):
        bound = len(gad.int_state(3).nodes) + per_digit * (abs(n).bit_length() - 2)
        assert len(gad.int_state(n).nodes) <= bound, n


@pytest.mark.parametrize(
    "name",
    ["sqrt2", "half_scalar", "inv_sqrt2", "cnot", "cnot_down", "cz", "crossing", "triangle",
     "w_add", "w_split", "w21_zx", "w12_zx", "zero_state", "half_state"],
)
def test_parameter_free_fragments_are_built_once(name):
    build = getattr(gad, name)
    assert build() is build()


def test_half_state():
    assert interp(gad.half_state(), EXACT) == Matrix.from_rows([[Cyclo(1)], [Cyclo(1, 0, 0, 0, 1)]])


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_ring_state_hits_any_ring_element(a, b, c, d, e):
    r = Cyclo(a, b, c, d, e)
    got = interp(gad.ring_state(r), EXACT)
    assert got == Matrix.from_rows([[Cyclo(1)], [r]])


def test_cos_plug():
    got = interp(gad.cos_plug(Fraction(1, 2)), EXACT)
    assert got == Matrix.from_rows([[SQRT2], [Cyclo(0)]])


def test_tan_state_float():
    a = 0.7
    got = as_array(interp(gad.tan_state(a), FLOAT)).reshape(2)
    import math

    mu = math.sqrt(2) * math.cos(a) * cmath.exp(1j * a)
    assert abs(got[0] - mu) < 1e-9
    assert abs(got[1] - mu * math.tan(a)) < 1e-9


@given(st.complex_numbers(max_magnitude=9.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
@example(2 + 5e-324j)  # its phase underflows: cmath.phase raises on it
def test_complex_scalar(value):
    got = interp(gad.complex_scalar(value), FLOAT)
    assert abs(got[0, 0] - complex(value)) < 1e-9


def test_complex_scalar_zero():
    assert abs(interp(gad.complex_scalar(0), FLOAT)[0, 0]) < 1e-12
