"""Exact checks for the hand-built diagram fragments."""

import cmath
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import as_array, reference_int_state, reference_ring_state
from zxzw import diagrams as dg
from zxzw import gadgets as gad
from zxzw.diagrams import Diagram
from zxzw.matrices import Matrix
from zxzw.rings import Cyclo, INV_SQRT2, SQRT2
from zxzw.semantics import EXACT, FLOAT, interp


def scalar_of(d):
    m = interp(d, EXACT)
    assert m.shape == (1, 1)
    return m[0, 0]


def test_sqrt2_scalar():
    assert scalar_of(gad.sqrt2()) == SQRT2


def test_dot_values():
    assert scalar_of(gad.dot(0)) == Cyclo(2)
    assert scalar_of(gad.dot(1)) == Cyclo(0)
    assert scalar_of(gad.dot(Fraction(1, 2))) == Cyclo(1) + Cyclo.omega_power(2)


def test_phase_gadget_is_sqrt2_times_unit():
    for k in range(8):
        got = scalar_of(gad.phase_gadget(Fraction(k, 4)))
        assert got == SQRT2 * Cyclo.omega_power(k)


def test_circles():
    assert scalar_of(Diagram.circle(3)) == Cyclo(8)


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
    assert len(gad.unit_phase(Fraction(k, 4)).nodes) == 3


def test_unit_phase_float():
    for a in (0.3, -2.5, 1e-9):
        got = interp(gad.unit_phase(a), FLOAT)[0, 0]
        assert abs(got - cmath.exp(1j * a)) < 1e-12


def omega_sqrt2(j, k):
    want = Cyclo.omega_power(j)
    for _ in range(abs(k)):
        want = want * SQRT2 if k > 0 else want * INV_SQRT2
    return want


@given(st.integers(0, 7), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_unit_scalar(j, k):
    assert scalar_of(gad.unit_scalar(j, k)) == omega_sqrt2(j, k)


def test_unit_scalar_powers_of_two_are_loops_or_halves():
    # values and the k >= 1 bound are checked next to the reference folds
    assert gad.unit_scalar(0, 6) == Diagram.circle(3)
    assert gad.unit_scalar(8, -4).loops == 0 and len(gad.unit_scalar(8, -4).nodes) == 4
    assert len(gad.unit_scalar(0, -1).nodes) == 2


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
    # a leading 2 is the (1, 2) state, and a z pi for its sign
    assert len(gad.int_state(2).nodes) == len(gad._two_state().nodes)
    assert len(gad.int_state(-2).nodes) == len(gad._two_state().nodes) + 1
    # 5 = 2 doubled plus 1: the most one binary digit after the first two costs
    per_digit = len(gad.int_state(5).nodes) - len(gad.int_state(2).nodes)
    for n in (10**6, -(2**40) - 1, 3**50):
        bound = len(gad.int_state(3).nodes) + per_digit * (abs(n).bit_length() - 2)
        assert len(gad.int_state(n).nodes) <= bound, n


def _scalar_parts(d):
    """The connected components of `d` that no boundary wire reaches."""
    root = list(range(len(d.nodes) + 1))  # the last index is the boundary

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, b in d.edges:
        root[find(a[1] if a[0] == "n" else -1)] = find(b[1] if b[0] == "n" else -1)
    return {find(i) for i in range(len(d.nodes))} - {find(-1)}


# the exact matrix of each cached compound gadget
COMPOUND = {
    "cnot": CNOT.to_rows(),
    "cnot_down": CNOT_DOWN.to_rows(),
    "cz": CZ.to_rows(),
    "crossing": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
    "triangle": [[1, 1], [0, 1]],
    "w_add": [[1, 0, 0, 0], [0, 1, 1, 0]],
    "w21_zx": [[0, 1, 1, 0], [1, 0, 0, 0]],
    "w12_zx": [[0, 1], [1, 0], [1, 0], [0, 0]],
    "zero_state": [[1], [0]],
    "half_state": [[1], [Cyclo(1, 0, 0, 0, 1)]],
    "_two_state": [[1], [2]],
}


@pytest.mark.parametrize("name", sorted(COMPOUND))
def test_compacted_gadgets_keep_their_matrix_and_one_scalar_part(name):
    # each builder is compact by construction: its one scalar part, if
    # any, is the `unit_scalar` it adds
    d = getattr(gad, name)()
    assert interp(d, EXACT) == Matrix.from_rows(COMPOUND[name])
    assert len(_scalar_parts(d)) <= 1


def test_compacted_gadget_sizes():
    sizes = {"triangle": 13, "w_add": 14, "w21_zx": 14, "w12_zx": 14,
             "zero_state": 3, "half_state": 9, "_two_state": 8, "half_scalar": 2}
    for name, size in sizes.items():
        assert len(getattr(gad, name)().nodes) <= size, name


def test_gadgets_load_without_the_evaluator():
    code = "import sys, zxzw.gadgets; assert 'zxzw.semantics' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize(
    "name",
    ["sqrt2", "half_scalar", "cnot", "cnot_down", "cz", "crossing", "triangle",
     "w_add", "w21_zx", "w12_zx", "zero_state", "half_state", "_two_state"],
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


def test_state_and_scalar_gadgets_equal_the_reference_folds():
    # the same nodes in the same order, the same edges and loops as the
    # pairwise folds in `helpers` (a 40-digit fold takes seconds: 3 of them)
    rng = random.Random(20261018)
    ints = [*range(-300, 301), *(rng.choice((1, -1)) * rng.randrange(10**39, 10**40) for _ in range(3))]
    for n in ints:
        assert gad.int_state(n) == reference_int_state(n), n
    cyclos = [
        Cyclo(*(rng.randint(-40, 40) for _ in range(4)), rng.randint(0, 12)) for _ in range(60)
    ]
    for r in [*cyclos, 0, 7, -3, Cyclo(0, 0, 0, 5), Cyclo(1, 0, 0, 0, 12)]:
        assert gad.ring_state(r) == reference_ring_state(r), r
    # unit_scalar is no fold: exact, and at most four nodes for k >= 1
    for j in range(-3, 11):
        for k in range(-9, 10):
            assert scalar_of(gad.unit_scalar(j, k)) == omega_sqrt2(j, k), (j, k)
            assert k < 1 or len(gad.unit_scalar(j, k).nodes) <= 4, (j, k)


def test_state_gadgets_validate_a_constant_number_of_times(monkeypatch):
    # each builder is one n-ary seq or ten over stages built once per call,
    # so a larger parameter adds nodes but no validation
    calls = []
    validate = dg.Diagram.validate

    def counted(self):
        calls.append(1)
        validate(self)

    def count(build, *args):
        build(*args)  # the cached fragments are built on the first call
        calls.clear()
        monkeypatch.setattr(dg.Diagram, "validate", counted)
        build(*args)
        monkeypatch.setattr(dg.Diagram, "validate", validate)
        return len(calls)

    assert count(gad.int_state, 10**300) == count(gad.int_state, 10**30)
    assert count(gad.int_state, -(10**300)) == count(gad.int_state, -(10**30))
    ring = gad.ring_state
    assert count(ring, Cyclo(1, 0, 0, 0, 400)) == count(ring, Cyclo(1, 0, 0, 0, 40))
    assert count(gad.unit_scalar, 0, -400) == count(gad.unit_scalar, 0, -40)


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
