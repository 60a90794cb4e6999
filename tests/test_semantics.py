import cmath
import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    as_array, einsum_interp, matmul, random_diagram, reference_x_tensor, rotate_cross_ports,
    shuffled_copy,
)
from test_acceptance import criterion_9_pairs
from zxzw import diagrams as dg
from zxzw import semantics
from zxzw import translate as tr
from zxzw.diagrams import ArityMismatch, Diagram, Gen, flip, iso_equal, seq, ten
from zxzw.dsl import parse
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
    constants_exact,
    eq_linear,
    eq_semantic,
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


def test_float_phase_factor_is_exact_on_the_grid():
    # e^{i pi/2} is 1j on the nose, not 6.1e-17+1j
    assert interp(dg.z(1, 1, Fraction(1, 2)), FLOAT)[1, 1] == 1j


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


# X spiders enter the network as a Z spider with a Hadamard on every leg


def _x_as_definition(n, m, a):
    return seq(dg.h_layer(n), dg.z(n, m, a), dg.h_layer(m))


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(4))
def test_x_spider_is_its_definition_on_the_grid(n, m):
    for k in range(8):
        a = Fraction(k, 4)
        assert interp(dg.x(n, m, a)) == interp(_x_as_definition(n, m, a))


def test_x_spider_is_its_definition_with_a_float_phase():
    got, want = interp(dg.x(2, 1, 0.3), FLOAT), interp(_x_as_definition(2, 1, 0.3), FLOAT)
    assert got.close(want, FLOAT.tol)


def test_x_spider_is_its_definition_for_a_phase_variable():
    a = Phase.var("a")
    assert eq_linear(dg.x(1, 2, a), _x_as_definition(1, 2, a), samples=5, seed=0).proved


def test_x_spider_with_two_legs_on_one_wire():
    for k in range(8):
        a = Fraction(k, 4)
        looped = seq(Diagram.cap(), dg.x(2, 1, a))
        assert interp(looped) == interp(seq(Diagram.cap(), _x_as_definition(2, 1, a)))
        assert interp(looped) == interp(dg.x(0, 1, a))


def test_x_spider_wired_to_the_boundary_and_inside():
    a = Fraction(3, 4)
    for red, green in [
        (ten(Diagram.identity(1), dg.x(1, 2, a), Diagram.swap()),
         ten(Diagram.identity(1), _x_as_definition(1, 2, a), Diagram.swap())),
        (seq(dg.z(1, 2, a), dg.x(2, 1, a), dg.z(1, 1, a)),
         seq(dg.z(1, 2, a), _x_as_definition(2, 1, a), dg.z(1, 1, a))),
    ]:
        assert interp(red) == interp(green)


def _tensor_counts(monkeypatch):
    """The number of tensors in each `_contract_all` call from now on."""
    counts = []
    real = semantics._contract_all

    def counted(tensors):
        counts.append(len(tensors))
        return real(tensors)

    monkeypatch.setattr(semantics, "_contract_all", counted)
    return counts


def test_small_x_spider_enters_the_contraction_as_one_tensor(monkeypatch):
    counts = _tensor_counts(monkeypatch)
    for n in range(5):
        for m in range(5 - n):
            interp(dg.x(n, m, Fraction(1, 4)))
            interp(dg.x(n, m, 0.3), FLOAT)
    eq_linear(dg.x(2, 2, Phase.var("a")), dg.x(2, 2, Phase.var("a")), samples=0)
    assert counts == [1] * 32


def test_small_x_spider_is_built_without_a_pair_contraction(monkeypatch):
    # its tensor is written down in closed form, not contracted from a Z
    # tensor and a Hadamard per leg
    calls = []
    real = semantics._contract_pair

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(semantics, "_contract_pair", counted)
    for n in range(5):
        for m in range(5 - n):
            interp(dg.x(n, m, Fraction(1, 4)))
            interp(dg.x(n, m, 0.3), FLOAT)
            interp(dg.x(n, m, Phase.var("a") + Phase.exact_pi(Fraction(1, 4))), slot={"a": 0})
    assert len(calls) == 0  # one per leg when built from its definition


def _x_phases(exact: bool) -> list:
    """The grid phases, then, in float, three off the grid; then a variable."""
    off_grid = [] if exact else [0.3, -2.1, math.pi - 1e-12]
    return [Fraction(k, 4) for k in range(8)] + off_grid + [Phase.var("a") + Phase.exact_pi(Fraction(1, 4))]


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(5 - n)])
@pytest.mark.parametrize("exact", [True, False])
def test_small_x_spider_is_the_hadamard_chain_entry_for_entry(n, m, exact):
    # the closed form takes the chain's products and sums: the keys come
    # in one order, exact entries are equal and float ones print alike; a
    # float polynomial's coefficients may differ in the sign of a zero part
    def coords(key):
        col, row = (int("".join(map(str, bits)) or "0", 2) for bits in (key[:n], key[n:]))
        return row, col

    for a in _x_phases(exact):
        d = dg.x(n, m, a)
        got = semantics._contract_diagram(d, exact, {"a": 0})
        want = {coords(key): v for key, v in reference_x_tensor(d.nodes[0], exact, {"a": 0}).items()}
        assert list(got) == list(want)
        if exact or isinstance(a, Phase):
            assert got == want
        else:
            assert list(map(repr, got.values())) == list(map(repr, want.values()))


def test_wide_x_spider_enters_the_contraction_as_its_definition(monkeypatch):
    counts = _tensor_counts(monkeypatch)
    for n in range(6):
        interp(dg.x(n, 5 - n, Fraction(1, 4)))
    interp(dg.x(2, 3, 0.3), FLOAT)
    eq_linear(dg.x(2, 3, Phase.var("a")), dg.x(2, 3, Phase.var("a")), samples=0)
    assert counts == [1 + 5] * 9


def test_wide_x_spider_closed_by_costates_stays_cheap():
    # one tensor for the red spider would hold 2^20 entries
    start = time.perf_counter()
    m = interp(seq(dg.x(0, 20, 0), ten(*[dg.z(1, 0, 0)] * 20)))
    assert time.perf_counter() - start < 1.0
    assert m.entries == {(0, 0): 1024}


def test_small_x_spider_on_a_self_loop_is_its_definition():
    for a in [Fraction(k, 4) for k in range(8)] + [0.3]:
        mode = EXACT if isinstance(a, Fraction) else FLOAT
        looped = seq(Diagram.cap(), dg.x(2, 1, a))
        got, want = interp(looped, mode), interp(seq(Diagram.cap(), _x_as_definition(2, 1, a)), mode)
        assert got == want if mode == EXACT else got.close(want, FLOAT.tol)
    a = Phase.var("a")
    assert eq_linear(seq(Diagram.cap(), dg.x(2, 1, a)),
                     seq(Diagram.cap(), _x_as_definition(2, 1, a)), samples=5, seed=0).proved


def test_small_x_spider_with_a_phase_variable_is_its_definition():
    a = Phase.var("a")
    assert eq_linear(dg.x(2, 2, a), _x_as_definition(2, 2, a), samples=5, seed=0).proved
    shifted = eq_linear(dg.x(2, 2, a), _x_as_definition(2, 2, a + Phase.PI), samples=5, seed=0)
    assert not shifted.equal and not shifted.proved


# -- the dense einsum oracle -------------------------------------------------------


def _float_constants(d: Diagram, rng: random.Random) -> Diagram:
    """`d` with every phase and parameter replaced by an off-grid float."""
    nodes = []
    for g in d.nodes:
        if g.phase is not None:
            g = Gen(g.kind, g.n_in, g.n_out, Phase.coerce(rng.uniform(0, 2 * math.pi)))
        elif g.param is not None:
            g = Gen(g.kind, g.n_in, g.n_out, None, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        nodes.append(g)
    return Diagram(d.tag, nodes, d.edges, d.n_in, d.n_out, d.loops)


@pytest.mark.parametrize("tag", ["zx", "zxt", "zw"])
def test_interp_matches_the_einsum_oracle(tag):
    rng = random.Random(24)
    seen = Counter()
    for _ in range(300):
        d = random_diagram(rng, tag=tag, max_nodes=rng.choice([2, 4, 5]))
        for a, b in d.edges:
            seen["self-loop"] += a[0] == b[0] == "n" and a[1] == b[1]
            seen["bare wire"] += a[0] != "n" and b[0] != "n"
        seen["closed loop"] += d.loops > 0
        want = einsum_interp(d)
        assert np.allclose(as_array(interp(d, EXACT)), want, atol=1e-9)
        assert np.allclose(as_array(interp(d, FLOAT)), want, atol=1e-9)
        off = _float_constants(d, rng)
        assert np.allclose(as_array(interp(off, FLOAT)), einsum_interp(off), atol=1e-9)
    assert min(seen[k] for k in ("self-loop", "bare wire", "closed loop")) >= 10, seen


def test_wide_x_spider_on_a_self_loop_matches_the_einsum_oracle():
    cap_on_two = ten(Diagram.cap(), Diagram.identity(1))  # 1 -> 3, legs 0 and 1 joined
    for a in (Fraction(1, 4), Fraction(3, 2), 0.3):
        for d in (seq(Diagram.cap(), dg.x(2, 4, a)), seq(cap_on_two, dg.x(3, 3, a)),
                  seq(cap_on_two, dg.x(3, 3, a), flip(cap_on_two))):
            want = einsum_interp(d)
            assert np.allclose(as_array(interp(d, FLOAT)), want, atol=1e-9)
            if isinstance(a, Fraction):
                assert np.allclose(as_array(interp(d, EXACT)), want, atol=1e-9)


def test_self_looped_spider_with_a_phase_variable():
    # a self-loop traces two legs of a spider away, keeping its phase
    a = Phase.var("a")
    cap_on_two = ten(Diagram.cap(), Diagram.identity(1))
    pairs = [(seq(Diagram.cap(), dg.z(2, 1, a)), dg.z(0, 1, a)),
             (seq(cap_on_two, dg.x(3, 3, a)), dg.x(1, 3, a))]
    for looped, traced in pairs:
        assert eq_linear(looped, traced, samples=5, seed=0).proved
        for v in (Fraction(1, 4), 0.3):
            got = einsum_interp(looped.substitute({"a": v}))
            assert np.allclose(got, einsum_interp(traced.substitute({"a": v})), atol=1e-9)
        shifted = traced.substitute({"a": a + Phase.PI})
        assert not eq_linear(looped, shifted, samples=5, seed=0).equal


def test_interp_builds_no_diagram(monkeypatch):
    a = Phase.var("a")
    reds = seq(dg.z(1, 2, Fraction(1, 4)), dg.x(2, 1, Fraction(1, 2)), dg.x(1, 1, 0.3))
    family = seq(dg.x(1, 2, a), dg.x(2, 1, a))
    exact = dg.x(2, 2, Fraction(1, 4))
    calls = []
    real = Diagram.validate

    def counted(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(Diagram, "validate", counted)
    interp(reds, FLOAT)
    interp(exact, EXACT)
    eq_linear(family, family, samples=2, seed=0)
    assert calls == []


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
    assert interp(dg.white(1, 1, -1)) == M([[1, 0], [0, -1]])
    assert interp(dg.white(2, 1, -1)) == M([[1, 0, 0, 0], [0, 0, 0, -1]])
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
    assert constants_exact(d)
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
    assert not constants_exact(d)
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


def test_wide_spider_stays_cheap():
    # a 40-leg spider has 2 nonzero entries; nothing may grow with 2^legs
    start = time.perf_counter()
    assert not eq_semantic(dg.z(0, 40, 0), dg.z(0, 40, Phase.PI))
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert len(interp(dg.z(0, 40, 0)).entries) == 2
    assert time.perf_counter() - start < 1.0


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


def _matrices_equal(d1, d2, mode) -> bool:
    """The `Matrix` oracle: the `interp` matrices of two variable-free
    diagrams compared by `==` (exact) or `close` (float), independently of
    the library's equality decision."""
    m1, m2 = interp(d1, mode), interp(d2, mode)
    return m1 == m2 if isinstance(mode, Exact) else m1.close(m2, mode.tol)


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
        if not _matrices_equal(s1, s2, best_mode(s1, s2, tol=tol)):
            return LinearEqResult(False, dict(val), checked)
    for _ in range(samples):
        val = {v: rng.uniform(0.0, 2.0 * cmath.pi) for v in names}
        checked += 1
        if not _matrices_equal(d1.substitute(val), d2.substitute(val), Float(tol)):
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


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_meaningless_tolerance_is_refused(tol):
    family = dg.z(1, 1, Phase.var("a"))
    with pytest.raises(semantics.ArgumentError, match="tol"):
        Float(tol)
    with pytest.raises(semantics.ArgumentError, match="tol"):
        eq_linear(family, family, tol=tol)
    with pytest.raises(semantics.ArgumentError, match="tol"):
        eq_linear(dg.z(1, 1, 0), dg.z(1, 1, 0), tol=tol)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_best_mode_refuses_a_meaningless_tolerance_on_exact_diagrams(tol):
    assert best_mode(dg.z(1, 1, 0)) == EXACT
    with pytest.raises(semantics.ArgumentError, match="tol"):
        best_mode(dg.z(1, 1, 0), tol=tol)


def test_negative_sample_count_is_refused():
    family = dg.z(1, 1, Phase.var("a"))
    with pytest.raises(semantics.ArgumentError, match="samples"):
        eq_linear(family, family, samples=-5)
    assert eq_linear(family, family, samples=0).equal


@pytest.mark.parametrize("tag", ["zx", "zxt", "zw"])
def test_variable_free_difference_is_the_interp_difference(tag):
    # the rule verifier decides a lone binding by this difference, so it
    # must give the Matrix oracle's verdict, exact and float, and interp's
    # entries
    rng = random.Random(25)
    verdicts = Counter()
    for _ in range(80):
        n_in, n_out = rng.randrange(3), rng.randrange(3)
        d1 = random_diagram(rng, n_in, n_out, tag=tag)
        d2 = rng.choice([shuffled_copy(d1, rng), random_diagram(rng, n_in, n_out, tag=tag)])
        off1 = _float_constants(d1, rng)
        off2 = rng.choice([shuffled_copy(off1, rng), _float_constants(d2, rng)])
        for a, b, mode in ((d1, d2, EXACT), (d1, d2, FLOAT), (off1, off2, FLOAT)):
            diff, grid = semantics.laurent_difference(a, b, [], mode is EXACT)
            m1, m2 = interp(a, mode), interp(b, mode)
            want = [m1[k] - m2[k] for k in m1.entries.keys() | m2.entries.keys()]
            assert Counter(e.terms[()] for e in diff) == Counter(v for v in want if v != 0)
            equal = m1 == m2 if mode is EXACT else m1.close(m2, FLOAT.tol)
            assert semantics.vanishes_at(grid, [], FLOAT.tol) == equal
            verdicts[mode is EXACT, equal] += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 4, verdicts


def _largest_modulus(values) -> float:
    sizes = [math.hypot(z.real, z.imag) for z in values]
    return math.nan if any(map(math.isnan, sizes)) else max(sizes, default=0.0)


@pytest.mark.parametrize("tag", ["zx", "zxt", "zw"])
def test_the_equality_decision_agrees_with_the_matrix_oracle(tag):
    # every "equal" in the library is eq_linear's verdict; on variable-free
    # pairs it must be the Matrix oracle's, exact and float, and a float
    # verdict's difference must be the oracle's largest entry difference
    rng = random.Random(27)
    verdicts = Counter()
    pairs = []
    for _ in range(60):
        n_in, n_out = rng.randrange(3), rng.randrange(3)
        d1 = random_diagram(rng, n_in, n_out, tag=tag)
        d2 = rng.choice([shuffled_copy(d1, rng), random_diagram(rng, n_in, n_out, tag=tag)])
        off1 = _float_constants(d1, rng)
        off2 = rng.choice([shuffled_copy(off1, rng), _float_constants(d2, rng)])
        pairs += [(d1, d2, EXACT), (d1, d2, FLOAT), (off1, off2, FLOAT)]
    if tag == "zw":  # entries that overflow to infinity: equal to themselves only
        huge = parse("(seq (wz 1 1 1e200) (wz 1 1 1e200))")
        pairs += [(huge, huge, FLOAT), (huge, parse("(wz 1 1 2)"), FLOAT)]
    for a, b, mode in pairs:
        res = eq_linear(a, b, exact=mode is EXACT)
        equal = _matrices_equal(a, b, mode)
        assert (res.equal, res.valuations_checked, res.proved) == (equal, 1, equal and mode is EXACT)
        assert eq_semantic(a, b, mode) == equal
        if mode is FLOAT and not equal:
            m1, m2 = interp(a, mode), interp(b, mode)
            keys = m1.entries.keys() | m2.entries.keys()
            want = _largest_modulus(m1[k] - m2[k] for k in keys if m1[k] != m2[k])
            got = res.largest_difference()
            assert got == want or math.isnan(got) and math.isnan(want)
        verdicts[mode is EXACT, equal] += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 4, verdicts
    if tag == "zw":
        assert eq_semantic(huge, huge) and not eq_semantic(huge, pairs[-1][1])


# -- pinned engine outputs -------------------------------------------------------------
# Exact results only: the last bits of float entries follow the platform's libm.


def _pinned_engine_digest():
    h = hashlib.sha256()
    for tag in ("zx", "zxt", "zw"):
        for seed in range(12):
            d = random_diagram(random.Random(seed), tag=tag, max_nodes=4)
            for e in (d, tr.zw_to_zx(d) if tag == "zw" else tr.round_trip(d)):
                h.update(repr(sorted(interp(e, EXACT).entries.items())).encode())
    identities, refuted = criterion_9_pairs()
    for d1, d2 in identities + refuted:
        res = eq_linear(d1, d2, samples=5, seed=3)
        h.update(repr((res.equal, res.witness, res.valuations_checked, res.proved)).encode())
    return h.hexdigest()


def test_pinned_interp_and_eq_linear_outputs():
    assert _pinned_engine_digest() == "d6a76257993078729ff0384e34b32d2dfa4a9616ce2b80659a3ec459077a3842"
