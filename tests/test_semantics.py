import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_array, matmul, random_diagram, shuffled_copy
from test_acceptance import criterion_9_pairs
from zxzw import diagrams as dg
from zxzw.diagrams import ArityMismatch, Diagram, Gen, flip, iso_equal, rotate_cross_ports, seq, ten
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rewrite import simplify
from zxzw.rings import INV_SQRT2, Cyclo
from zxzw.semantics import (
    EXACT,
    FLOAT,
    Exact,
    Float,
    LinearEqResult,
    SemanticsError,
    best_mode,
    eq_linear,
    eq_semantic,
    exact_eligible,
    interp,
)

r = INV_SQRT2
W = Cyclo.omega_power


def M(rows):
    return Matrix.from_rows([[Cyclo(v) if isinstance(v, int) else v for v in row] for row in rows])


# -- golden generator matrices ---------------------------------------------------


def test_hadamard_matrix():
    assert interp(dg.h()) == Matrix.from_rows([[r, r], [r, -r]])


def test_z_spider_scalar():
    assert interp(dg.z(0, 0, Fraction(1, 4))) == M([[Cyclo(1) + W(1)]])
    assert interp(dg.z(0, 0, 1)) == M([[0]])


def test_z_spider_ghz_shape():
    m = interp(dg.z(2, 1, Fraction(1, 2)))
    assert m == M([[1, 0, 0, 0], [0, 0, 0, W(2)]])


def test_x_spider_via_hadamard_conjugation():
    assert interp(dg.x(1, 1, 1)) == M([[0, 1], [1, 0]])  # NOT
    assert interp(dg.x(1, 0, 0)) == Matrix.from_rows([[Cyclo(0, 1, 0, -1), Cyclo(0)]])  # (sqrt2, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_x_spider_closed_form_oracle(k, n, m):
    # independent oracle: X(a,n->m)[y;x] = (1 + e^{ia}(-1)^{|xy|}) / sqrt2^{n+m}
    alpha = k * math.pi / 4
    got = as_array(interp(dg.x(n, m, Fraction(k, 4)), Float()))
    scale = math.sqrt(2.0) ** (n + m)
    for row in range(2**m):
        for col in range(2**n):
            parity = (bin(row).count("1") + bin(col).count("1")) % 2
            want = (1 + cmath.exp(1j * alpha) * (-1) ** parity) / scale
            assert got[row, col] == pytest.approx(want, abs=1e-9)


def test_wire_generators():
    assert interp(Diagram.cup()) == M([[1, 0, 0, 1]])
    assert interp(Diagram.cap()) == M([[1], [0], [0], [1]])
    assert interp(Diagram.swap()) == M([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert interp(Diagram.identity(2)) == M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert interp(Diagram.empty()) == M([[1]])


def test_zw_generator_matrices():
    assert interp(dg.w11()) == M([[0, 1], [1, 0]])
    assert interp(dg.w12()) == M([[0, 1], [1, 0], [1, 0], [0, 0]])
    assert interp(dg.w21()) == M([[0, 1, 1, 0], [1, 0, 0, 0]])
    assert interp(dg.zw_cross()) == M(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
    )
    assert interp(dg.half()) == M([[Cyclo(1, 0, 0, 0, 1)]])
    assert interp(dg.white_not()) == M([[1, 0], [0, -1]])
    assert interp(dg.white_cz()) == M([[1, 0, 0, 0], [0, 0, 0, -1]])
    assert interp(dg.white(1, 2, Cyclo(2))) == M([[1, 0], [0, 0], [0, 0], [0, 2]])


def test_triangle_matrix():
    assert interp(dg.tri(1)) == M([[1, 1], [0, 1]])
    assert interp(dg.tri(-1)) == M([[1, -1], [0, 1]])
    assert interp(flip(dg.tri(1))) == M([[1, 0], [1, 1]])


def test_closed_loop_is_two():
    loop = seq(Diagram.cap(), Diagram.cup())
    assert interp(loop) == M([[2]])
    assert interp(Diagram.circle(3)) == M([[8]])


def test_yanked_wire_equals_identity():
    bent = seq(ten(Diagram.cap(), Diagram.identity()), ten(Diagram.identity(), Diagram.cup()))
    assert eq_semantic(bent, Diagram.identity())


def test_self_loop_on_spider():
    looped = seq(Diagram.cap(), dg.z(2, 1, Fraction(1, 4)))
    assert interp(looped) == interp(dg.z(0, 1, Fraction(1, 4)))


# -- composition functoriality -----------------------------------------------------


def test_tensor_example_identity_kron_h():
    got = interp(ten(dg.z(1, 1), dg.h()))
    oracle = M([[1, 0], [0, 1]]).kron(interp(dg.h()))
    assert got == oracle


def test_compose_example_t_gate_squared():
    got = interp(seq(dg.z(1, 1, Fraction(1, 4)), dg.z(1, 1, Fraction(1, 4))))
    assert got == Matrix.from_rows([[Cyclo(1), Cyclo(0)], [Cyclo(0), W(2)]])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_tensor_functorial(seed, tag):
    rng = random.Random(seed)
    d1, d2 = random_diagram(rng, tag=tag), random_diagram(rng, tag=tag)
    assert interp(ten(d1, d2)) == interp(d1).kron(interp(d2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_compose_functorial(seed, tag):
    rng = random.Random(seed)
    n, m, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
    d1, d2 = random_diagram(rng, n, m, tag=tag), random_diagram(rng, m, k, tag=tag)
    assert interp(seq(d1, d2)) == matmul(interp(d2), interp(d1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zw"]))
def test_interp_invariant_under_iso(seed, tag):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=tag)
    assert interp(shuffled_copy(d, rng)) == interp(d)


def test_interp_invariant_under_cross_rotation():
    d = seq(dg.white(0, 2, 1), dg.zw_cross(), dg.w21())
    for k in range(1, 4):
        assert interp(rotate_cross_ports(d, 1, k)) == interp(d)
    lone = dg.zw_cross()
    for k in range(1, 4):
        assert interp(rotate_cross_ports(lone, 0, k)) == interp(lone)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_exact_and_float_agree(seed, tag):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=tag)
    assert exact_eligible(d)
    assert interp(d, EXACT).close(interp(d, Float()), 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_flip_is_transpose(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=rng.choice(["zx", "zw"]))
    assert interp(flip(d)) == interp(d).transpose()


def test_spider_fusion_semantics_on_grid():
    for ka in range(8):
        for kb in range(8):
            a, b = Fraction(ka, 4), Fraction(kb, 4)
            lhs = seq(dg.z(1, 1, a), dg.z(1, 1, b))
            assert interp(lhs) == interp(dg.z(1, 1, a + b))


# -- modes and errors ----------------------------------------------------------------


def test_exact_mode_rejects_float_phase():
    d = dg.z(1, 1, 0.3)
    assert not exact_eligible(d)
    with pytest.raises(SemanticsError):
        interp(d, EXACT)
    assert isinstance(best_mode(d), Float)


def test_exact_mode_rejects_float_param():
    d = dg.white(1, 1, 0.5 + 0.2j)
    with pytest.raises(SemanticsError):
        interp(d, EXACT)
    got = interp(d, FLOAT)
    assert got[1, 1] == pytest.approx(0.5 + 0.2j)


def test_free_variables_rejected():
    with pytest.raises(SemanticsError):
        interp(dg.z(1, 1, Phase.var("a")))


def test_eq_semantic_arity_mismatch():
    with pytest.raises(ArityMismatch):
        eq_semantic(dg.z(1, 1), dg.z(1, 2))


def test_float_tolerance_is_configurable():
    d1 = dg.z(0, 0, 0.0)
    d2 = dg.z(0, 0, 1e-7)
    assert not eq_semantic(d1, d2, Float(1e-9))
    assert eq_semantic(d1, d2, Float(1e-3))


# -- sparse fallback -------------------------------------------------------------------


def test_large_boundary_uses_sparse():
    d = Diagram.identity(7)
    m = interp(d)
    assert m.shape == (128, 128)
    assert len(m.entries) == 128
    assert m == interp(Diagram.identity(7))
    assert m[(5, 5)] == Cyclo(1)


# -- eq_linear ----------------------------------------------------------------------


def test_eq_linear_inverse_rotation():
    a = Phase.var("a")
    lhs = seq(dg.z(1, 1, a), dg.z(1, 1, -a))
    res = eq_linear(lhs, Diagram.identity(), samples=20, seed=3)
    assert res
    assert res.witness is None
    assert res.valuations_checked >= 8 + 20


def test_eq_linear_refutes_with_witness():
    res = eq_linear(dg.z(0, 0, Phase.var("a")), dg.z(0, 0, Phase.var("a") + 1), samples=5, seed=3)
    assert not res
    assert res.witness == {"a": Fraction(0)}


def test_eq_linear_variable_free_delegates():
    assert eq_linear(dg.z(1, 1), Diagram.identity(), samples=5, seed=0)
    assert not eq_linear(dg.z(1, 1, 1), Diagram.identity(), samples=5, seed=0)


def test_eq_linear_pools_variables_from_both_sides():
    res = eq_linear(dg.z(1, 1, Phase.var("a")), dg.z(1, 1, Phase.var("b")), samples=5, seed=0)
    assert not res
    assert set(res.witness) == {"a", "b"}


def test_eq_linear_respects_integer_coefficients():
    # Z(2a) differs from Z(a) as a family even though they agree at a=0
    res = eq_linear(dg.z(0, 1, Phase.var("a", 2)), dg.z(0, 1, Phase.var("a")), samples=5, seed=1)
    assert not res
    assert res.witness is not None


def _eq_linear_by_substitution(d1, d2, samples=100, seed=None, tol=1e-9):
    """Reference: substitute every valuation and compare the matrices."""
    names = sorted(d1.free_variables() | d2.free_variables())
    rng = random.Random(seed)
    total = 8 ** len(names)
    if total <= 4096:
        combos = range(total)
    else:
        combos = sorted(rng.sample(range(total), 4096))
    checked = 0
    for combo in combos:
        val, rest = {}, combo
        for v in names:
            val[v] = Fraction(rest % 8, 4)
            rest //= 8
        s1, s2 = d1.substitute(val), d2.substitute(val)
        checked += 1
        if not eq_semantic(s1, s2, best_mode(s1, s2, tol=tol)):
            return LinearEqResult(False, dict(val), checked)
    for _ in range(samples):
        val = {v: rng.uniform(0.0, 2.0 * cmath.pi) for v in names}
        checked += 1
        if not eq_semantic(d1.substitute(val), d2.substitute(val), Float(tol)):
            return LinearEqResult(False, dict(val), checked)
    return LinearEqResult(True, None, checked)


def _linear_diagram(rng, names, float_const, n_in=None, n_out=None):
    """A random zx diagram whose first phased node mentions every name and
    the others a random subset, with coefficients in {+-1, 2, 3}; a float
    constant on the first phased node when `float_const`."""
    while True:
        d = random_diagram(rng, n_in, n_out, tag="zx")
        phased = [i for i, g in enumerate(d.nodes) if g.kind in ("Z", "X")]
        if phased:
            break
    nodes = list(d.nodes)
    for i in phased:
        g = nodes[i]
        p = Phase.radians(rng.uniform(0.0, 6.0)) if float_const and i == phased[0] else g.phase
        for v in names if i == phased[0] else rng.sample(names, rng.randrange(len(names) + 1)):
            p = p + Phase.var(v, rng.choice((1, -1, 2, 3)))
        nodes[i] = Gen(g.kind, g.n_in, g.n_out, p)
    return Diagram(d.tag, nodes, d.edges, d.n_in, d.n_out, d.loops)


def _shifted(d, v, k):
    """`d` with k*v added to the phase of its first phased node."""
    nodes = list(d.nodes)
    i = next(i for i, g in enumerate(nodes) if g.kind in ("Z", "X"))
    g = nodes[i]
    nodes[i] = Gen(g.kind, g.n_in, g.n_out, g.phase + Phase.var(v, k))
    return Diagram(d.tag, nodes, d.edges, d.n_in, d.n_out, d.loops)


# (seed, variables, float constant, other side): a random diagram of the
# same shape, or d off by k*v for k = 4 (refuted on the grid at an odd v)
# or k = 8 (equal on the whole grid, refuted by the samples).  Each seed is
# the first from the one before at which the other side is refuted as its
# kind says and simplify(d) has fewer nodes (below 4 variables).  The
# 5-variable cases subsample the grid.
_LINEAR_CASES = [(1, 1, False, 8), (5, 2, False, 4), (8, 3, True, 8), (9, 5, False, 4),
                 (12, 1, True, "random"), (22, 2, False, 8), (26, 3, False, 4),
                 (27, 4, False, "random"), (28, 5, True, "random"), (47, 2, True, 4)]


@pytest.mark.parametrize("seed, nvars, float_const, other", _LINEAR_CASES)
def test_eq_linear_matches_substitution(seed, nvars, float_const, other):
    rng = random.Random(seed)
    names = ["a", "b", "c", "d", "e"][:nvars]
    d = _linear_diagram(rng, names, float_const)
    if other == "random":
        other = _linear_diagram(rng, names, float_const, d.n_in, d.n_out)
    else:
        other = _shifted(d, rng.choice(names), other)
    for d2 in (simplify(d)[0], other):
        got = eq_linear(d, d2, samples=10, seed=seed)
        want = _eq_linear_by_substitution(d, d2, samples=10, seed=seed)
        if float_const:
            assert got.equal == want.equal
        else:
            assert (got.equal, got.witness, got.valuations_checked) == (
                want.equal,
                want.witness,
                want.valuations_checked,
            )
        assert not got.proved or (got.equal and not float_const)
    # (d, d) passes every valuation, which the reference needs no run to say
    got = eq_linear(d, d, samples=10, seed=seed)
    assert (got.equal, got.witness, got.valuations_checked) == (True, None, min(8**nvars, 4096) + 10)
    assert got.proved is not float_const


def test_eq_linear_proves_the_criterion_9_laws():
    identities, refuted = criterion_9_pairs()
    for d1, d2 in identities:
        assert eq_linear(d1, d2, samples=5, seed=0).proved, (d1, d2)
    for d1, d2 in refuted:
        assert not eq_linear(d1, d2, samples=5, seed=0).proved


def test_eq_linear_off_by_8v_is_refuted_not_proved():
    a = Phase.var("a")
    lhs = seq(dg.z(1, 1, a), dg.z(1, 1, a))
    rhs = dg.z(1, 1, Phase.var("a", 10))
    res = eq_linear(lhs, rhs, samples=30, seed=0)
    assert not res.equal and not res.proved
    assert res.valuations_checked > 8  # equal on the whole grid
    assert res.witness is not None and not isinstance(res.witness["a"], Fraction)
    grid_only = eq_linear(lhs, rhs, samples=0, seed=0)
    assert grid_only.equal and not grid_only.proved


def test_exact_and_float_interp_disagreement_caught():
    # regression guard: the exact embedding of 1/sqrt2 matches the float one
    m = as_array(interp(dg.h(), EXACT))
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)
