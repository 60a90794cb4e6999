"""Translation between the calculi: exactness, functoriality, encodings."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import as_array, random_diagram
from zxzw import diagrams as dg
from zxzw import translate as tr
from zxzw.diagrams import Diagram
from zxzw.matrices import Matrix
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, FLOAT, eq_semantic, interp


def test_encode_param_examples():
    enc = tr.encode_param(1)
    assert (enc.n, enc.beta, enc.gamma, enc.theta) == (0, 0.0, 0.0, 0.0)
    enc = tr.encode_param(3)
    assert enc.n == 2
    assert abs(enc.beta - math.acos(3 / 4)) < 1e-12
    assert abs(enc.gamma - math.acos(1 / 4)) < 1e-12
    assert enc.theta == 0.0
    enc = tr.encode_param(cmath.exp(1j * math.pi / 3))
    assert enc.n == 0 and enc.beta == 0.0 and enc.gamma == 0.0
    assert abs(enc.theta - math.pi / 3) < 1e-12


@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=64.0))
@settings(max_examples=100, deadline=None)
@example(2 + 5e-324j)  # its phase underflows: cmath.phase raises on it
def test_encode_param_reconstructs(r):
    enc = tr.encode_param(r)
    assert abs(enc.rho - abs(r)) < 1e-12
    assert 0.0 <= enc.rho / 2**enc.n <= 1.0 + 1e-15


def test_encode_param_zero():
    enc = tr.encode_param(0)
    assert enc.n == 0 and abs(enc.rho) < 1e-12


# -- zx -> zw ---------------------------------------------------------------------


def test_empty_and_wire_translate_to_themselves():
    assert tr.zx_to_zw(Diagram.empty()).shape == (0, 0)
    w = tr.zx_to_zw(Diagram.identity(2))
    assert len(w.nodes) == 0 and w.shape == (2, 2)


def test_had_fragment_is_unnormalised_hadamard():
    assert interp(tr._had_zw(), EXACT) == Matrix.from_rows([[1, 1], [1, -1]])


def test_zero_costate_is_one_white_node():
    assert interp(tr._zero_costate_zw(), EXACT) == Matrix.from_rows([[1, 0]])
    assert len(tr._zero_costate_zw().nodes) == 1


def test_hadamard_translation_preserves_semantics():
    assert eq_semantic(dg.h(), tr.zx_to_zw(dg.h()))


def test_zx_to_zw_translates_float_phases():
    # an off-grid phase becomes a white node worth e^{i alpha}, so the
    # round trip is float-equal to its input
    for d in (
        dg.z(1, 1, 0.3),
        dg.x(2, 1, 0.3),
        dg.tri(0.5 + 0.25j),
        dg.seq(
            dg.z(1, 2, 0.3),
            dg.ten(dg.h(), dg.x(1, 1, 0.7)),
            dg.x(2, 1, 1.1),
            dg.tri(0.5 + 0.25j),
        ),
    ):
        want = as_array(interp(d, FLOAT))
        got = as_array(interp(tr.round_trip(d), FLOAT))
        assert np.abs(got - want).max() <= 1e-9, d


@pytest.mark.parametrize(
    "r",
    [0, 1, -2, 10, 10**300, 0.5, 1 + 1j, Cyclo(1, 2, 0, 0, 3)],
    ids=["0", "1", "-2", "10", "1e300", "0.5", "1+1j", "cyclo"],
)
def test_zx_to_zw_maps_a_triangle_to_its_zw_image(r):
    assert tr.zx_to_zw(dg.tri(r)) == tr.zw_triangle(r)


def test_zxt_round_trip_is_exact():
    """Exact round trip of 100 random diagrams with triangles."""
    rng = random.Random(5)
    for _ in range(100):
        n_in = rng.randrange(4)
        n_out = rng.randrange(4 - n_in)
        d = random_diagram(rng, n_in=n_in, n_out=n_out, tag="zxt", max_nodes=6)
        assert interp(d, EXACT) == interp(tr.round_trip(d), EXACT)


def test_zx_to_zw_rejects_free_variables():
    with pytest.raises(tr.TranslateError):
        tr.zx_to_zw(dg.z(1, 1, dg.Phase.var("a")))


def test_zx_to_zw_rejects_zw_input():
    with pytest.raises(tr.TranslateError):
        tr.zx_to_zw(dg.w11())


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_zx_to_zw_preserves_semantics(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, rng.randrange(3), rng.randrange(3), "zx")
    assert eq_semantic(d, tr.zx_to_zw(d))


@given(st.integers(0, 2**30))
@settings(max_examples=15, deadline=None)
def test_zx_to_zw_functorial(seed):
    rng = random.Random(seed)
    a = random_diagram(rng, rng.randrange(3), 2, "zx")
    b = random_diagram(rng, 2, rng.randrange(3), "zx")
    lhs = tr.zx_to_zw(a.then(b))
    rhs = tr.zx_to_zw(a).then(tr.zx_to_zw(b))
    assert dg.iso_equal(lhs, rhs)
    lhs = tr.zx_to_zw(a.tensor(b))
    rhs = tr.zx_to_zw(a).tensor(tr.zx_to_zw(b))
    assert dg.iso_equal(lhs, rhs)


# -- zw -> zx ---------------------------------------------------------------------


def test_black_node_translation():
    got = interp(tr.zw_to_zx(dg.w11()), EXACT)
    assert got == Matrix.from_rows([[0, 1], [1, 0]])


def test_half_translation():
    got = interp(tr.zw_to_zx(dg.half()), EXACT)
    assert got == Matrix.from_rows([[Cyclo(1, 0, 0, 0, 1)]])


def test_crossing_translation():
    got = interp(tr.zw_to_zx(dg.zw_cross()), EXACT)
    assert got == interp(dg.zw_cross(), EXACT)


def test_unit_white_shortcut_is_single_spider():
    b = tr.zw_to_zx(dg.white(2, 1, Cyclo.omega_power(3)))
    assert len(b.nodes) == 1
    assert b.nodes[0].kind == dg.Z
    assert eq_semantic(b, dg.white(2, 1, Cyclo.omega_power(3)))


@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 1),
)
@settings(max_examples=40, deadline=None)
def test_ring_white_translation_exact(n, m, a, b, c, d, e):
    r = Cyclo(a, b, c, d, e)
    w = dg.white(n, m, r)
    assert eq_semantic(w, tr.zw_to_zx(w))


@given(st.complex_numbers(max_magnitude=8.0))
@settings(max_examples=40, deadline=None)
def test_float_white_translation(r):
    w = dg.white(1, 1, r)
    got = interp(tr.zw_to_zx(w), FLOAT)
    assert got.close(interp(w, FLOAT), 1e-9)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_zw_to_zx_preserves_semantics(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, rng.randrange(3), rng.randrange(3), "zw")
    assert eq_semantic(d, tr.zw_to_zx(d))


@given(st.integers(0, 2**30))
@settings(max_examples=10, deadline=None)
def test_zw_to_zx_functorial(seed):
    rng = random.Random(seed)
    a = random_diagram(rng, rng.randrange(2), 2, "zw")
    b = random_diagram(rng, 2, rng.randrange(2), "zw")
    lhs = tr.zw_to_zx(a.then(b))
    rhs = tr.zw_to_zx(a).then(tr.zw_to_zx(b))
    assert dg.iso_equal(lhs, rhs)


def test_large_integer_white_node_translates_compactly():
    d = dg.white(1, 1, 1000)
    out = tr.zw_to_zx(d)
    assert len(out.nodes) < 1000
    assert eq_semantic(d, out, EXACT)


def test_float_white_parameter_of_modulus_one_is_a_green_spider():
    # e^{0.3i} from cmath.exp need not have modulus exactly 1
    d = dg.z(1, 1, 0.3)
    out = tr.round_trip(d)
    assert [g.kind for g in out.nodes] == [dg.Z]
    assert eq_semantic(d, out, FLOAT)


def test_translations_carry_one_compact_scalar_per_fragment():
    # node counts before the cached fragments' scalar parts were merged
    # and the (1, 2) state was built from cos plugs: 173, 520, 1,039, 149
    # and 37,593; before the w nodes were built on the K chain and <0| was
    # one white node: 120, 359, 719, 86 and 16,569
    h, x = dg.h(), dg.x(1, 2, 0)
    assert len(tr.round_trip(h).nodes) <= 63
    assert len(tr.round_trip(x).nodes) <= 188
    assert len(tr.round_trip(dg.seq(h, x, dg.ten(h, h))).nodes) <= 377
    white = dg.white(1, 1, 14)
    out = tr.zw_to_zx(white)
    assert len(out.nodes) <= 57
    assert interp(out, EXACT) == interp(white, EXACT)
    assert len(tr.zw_to_zx(dg.white(1, 1, 10**300)).nodes) <= 14139
    assert len(tr.zw_to_zx(dg.half()).nodes) == 2


def test_criterion_3_round_trips_average_at_most_200_nodes():
    # the diagrams of `test_acceptance.test_criterion_3_round_trip`; the
    # average was 356 (max 1,677) before the w nodes were built on the K
    # chain, against a target of 250
    rng = random.Random(17)
    sizes = []
    for _ in range(200):
        n_in = rng.randrange(4)
        n_out = rng.randrange(4 - n_in)
        d = random_diagram(rng, n_in=n_in, n_out=n_out, tag="zx", max_nodes=7)
        sizes.append(len(tr.round_trip(d).nodes))
    assert sum(sizes) / len(sizes) <= 200
    assert max(sizes) <= 879


def test_hadamard_fragment_is_built_once():
    assert tr._had_zw() is tr._had_zw()
    assert tr._zero_costate_zw() is tr._zero_costate_zw()


def test_zw_to_zx_rejects_zx_input():
    with pytest.raises(tr.TranslateError):
        tr.zw_to_zx(dg.z(1, 1, 0))


# -- round trips ------------------------------------------------------------------


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_round_trip_exact(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, rng.randrange(3), rng.randrange(3), "zx")
    assert eq_semantic(d, tr.round_trip(d), EXACT)


def test_round_trip_empty():
    rt = tr.round_trip(Diagram.empty())
    assert rt.shape == (0, 0) and len(rt.nodes) == 0


# -- gn_inverse -------------------------------------------------------------------


def test_grid_inverses_exact():
    for k in (0, 1, 2, 3, 5, 6, 7):
        inv = tr.gn_inverse(Fraction(k, 4))
        prod = interp(inv, EXACT)[0, 0] * (Cyclo(1) + Cyclo.omega_power(k))
        assert prod == Cyclo(1), k


@given(st.floats(-6.0, 6.0))
@example(-3.1414224441444425)  # near the pole, where wrapping alpha into [0, 2 pi) lost precision
@example(-3.14169)
@settings(max_examples=100, deadline=None)
def test_float_inverse(alpha):
    if abs(math.cos(alpha / 2.0)) < 1e-6:
        return
    inv = tr.gn_inverse(alpha)
    prod = interp(inv, FLOAT)[0, 0] * (1 + cmath.exp(1j * alpha))
    assert abs(prod - 1) < 1e-12


def test_inverse_pole_errors():
    with pytest.raises(tr.SingularPhase):
        tr.gn_inverse(1)  # exact pi
    with pytest.raises(tr.SingularPhase):
        tr.gn_inverse(math.pi)
    with pytest.raises(tr.SingularPhase):
        tr.gn_inverse(Fraction(-3))  # -3 pi = pi mod 2 pi


def test_exact_nongrid_inverse_goes_float():
    inv = tr.gn_inverse(Fraction(1, 3))  # pi/3: exact but off-grid
    prod = interp(inv, FLOAT)[0, 0] * (1 + cmath.exp(1j * math.pi / 3))
    assert abs(prod - 1) < 1e-12


# -- triangle expansion -----------------------------------------------------------


def td_oracle(r):
    """[[1, r],[0, 1]] obtained by contracting the parametrised
    decomposition (w merge over a tangent state, conjugated by phases) —
    independent of the diagram engine."""
    rho, gamma = abs(r), math.atan2(r.imag, r.real)  # cmath.phase raises on 2+5e-324j
    alpha = math.atan(rho)
    mu = math.sqrt(2) * math.cos(alpha) * cmath.exp(1j * alpha)
    w21 = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=complex)
    x_pi = np.array([[0, 1], [1, 0]], dtype=complex)
    ts = mu * np.array([[1], [math.tan(alpha)]], dtype=complex)
    zg = lambda t: np.diag([1.0, cmath.exp(1j * t)])
    m = w21 @ np.kron(ts, np.eye(2)) @ x_pi
    return (1.0 / mu) * zg(-gamma) @ m @ zg(gamma)


def test_td_oracle_sanity():
    assert np.allclose(td_oracle(0.5 + 0.25j), [[1, 0.5 + 0.25j], [0, 1]])


# a triangle reaches plain ZX spiders through its round trip, the path the
# CLI runs: zw_triangle, then each ZW generator's ZX image


def test_triangle_zero_law_exact():
    e = tr.round_trip(dg.tri(0))
    assert interp(e, EXACT) == Matrix.from_rows([[1, 0], [0, 1]])


def test_triangle_one_expansion():
    e = tr.round_trip(dg.tri(1))
    assert e.tag == "zx"
    assert interp(e, EXACT) == Matrix.from_rows([[1, 1], [0, 1]])


def test_triangle_tan_pi8_exact():
    # sqrt2 - 1 = tan(pi/8) is in the ring, so the round trip is exact
    r = Cyclo(-1, 1, 0, -1)  # -1 + w - w^3 = sqrt2 - 1
    assert abs(r.to_complex() - (math.sqrt(2) - 1)) < 1e-12
    e = tr.round_trip(dg.tri(r))
    assert interp(e, EXACT) == interp(dg.tri(r), EXACT)


@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 1),
)
@settings(max_examples=30, deadline=None)
def test_triangle_expansion_exact_ring(a, b, c, d, e):
    r = Cyclo(a, b, c, d, e)
    ex = tr.round_trip(dg.tri(r))
    assert interp(ex, EXACT) == interp(dg.tri(r), EXACT)


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=8.0))
@settings(max_examples=50, deadline=None)
@example(2 + 5e-324j)  # a subnormal imaginary part
def test_triangle_expansion_matches_td_oracle(r):
    got = as_array(interp(tr.round_trip(dg.tri(r)), FLOAT))
    assert np.allclose(got, td_oracle(r), atol=1e-9)


def test_triangle_round_trip_inside_context():
    d = dg.seq(dg.z(1, 2, Fraction(1, 4)), dg.ten(dg.tri(Cyclo(1, 1)), dg.h()))
    e = tr.round_trip(d)
    assert e.tag == "zx"
    assert not any(g.kind == dg.TRI for g in e.nodes)
    assert eq_semantic(d, e)


def test_traced_triangle_round_trip_is_worth_two():
    from zxzw.gadgets import trace1

    d = trace1(dg.tri(0))
    e = tr.round_trip(d)
    assert interp(e, EXACT)[0, 0] == Cyclo(2)


def test_parallel_triangle_addition():
    rng = random.Random(7)
    for _ in range(20):
        r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = dg.seq(
            dg.w12(), dg.ten(tr.zw_triangle(r), tr.zw_triangle(s)), dg.w21()
        )
        rhs = dg.seq(
            dg.w12(), dg.ten(tr.zw_triangle(r + s), Diagram.identity(1)), dg.w21()
        )
        got = interp(lhs, FLOAT)
        assert got.close(interp(rhs, FLOAT), 1e-9)


def test_unit_triangle_decomposition_of_any_parameter():
    # any s splits as n(e^{i t} + e^{-i t}) e^{i a}: 2n unit triangles
    rng = random.Random(3)
    for _ in range(100):
        s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(s) < 1e-9:
            continue
        n = max(1, math.ceil(abs(s) / 2))
        t = math.acos(abs(s) / (2 * n))
        a = cmath.phase(s)
        back = n * (cmath.exp(1j * t) + cmath.exp(-1j * t)) * cmath.exp(1j * a)
        assert abs(back - s) < 1e-9
