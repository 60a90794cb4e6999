import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zxzw.rings import (
    HALF,
    INV_SQRT2,
    ONE,
    SQRT2,
    Cyclo,
    Laurent,
    omega_float,
)

coefs = st.integers(min_value=-50, max_value=50)
exps = st.integers(min_value=0, max_value=6)


def cyclos():
    return st.builds(Cyclo, coefs, coefs, coefs, coefs, exps)


def as_complex(z: Cyclo) -> complex:
    w = cmath.exp(1j * math.pi / 4)
    return (z.a + z.b * w + z.c * w**2 + z.d * w**3) / 2**z.e


def test_omega_powers_cycle():
    for k in range(16):
        assert Cyclo.omega_power(k) == Cyclo.omega_power(k + 8)
    assert Cyclo.omega_power(4) == Cyclo(-1)
    prod = ONE
    for _ in range(8):
        prod = prod * Cyclo.omega_power(1)
    assert prod == ONE


def test_sqrt2_identities():
    assert SQRT2 * SQRT2 == Cyclo(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert HALF + HALF == ONE
    assert INV_SQRT2 * INV_SQRT2 == HALF
    # (1+omega)(1+omega^{-1}) = 2 + sqrt(2)
    lhs = (ONE + Cyclo.omega_power(1)) * (ONE + Cyclo.omega_power(-1))
    assert lhs == Cyclo(2) + SQRT2


@given(cyclos(), cyclos(), cyclos())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Cyclo(0) == x
    assert x * ONE == x
    assert x + (-x) == Cyclo(0)


@given(cyclos(), cyclos())
def test_to_complex_is_homomorphism(x, y):
    scale = max(abs(as_complex(x)), abs(as_complex(y)), 1.0)
    assert cmath.isclose(
        (x * y).to_complex(), as_complex(x) * as_complex(y),
        rel_tol=0, abs_tol=1e-9 * scale * scale,
    )
    assert cmath.isclose(
        (x + y).to_complex(), as_complex(x) + as_complex(y),
        rel_tol=0, abs_tol=1e-9 * scale,
    )
    assert complex(x) == x.to_complex()  # complex() takes a ring element as a number


@given(cyclos())
def test_conjugation(z):
    assert z.conj().conj() == z
    assert (z * z.conj()).to_complex() == pytest.approx(abs(as_complex(z)) ** 2, abs=1e-6)
    sq = z * z.conj()
    assert sq.c == 0 and sq.b == -sq.d  # real: no i part, sqrt2-part balanced


@given(cyclos(), cyclos())
def test_conj_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


def test_sqrt2_power_class():
    assert ONE.sqrt2_power_class() == (0, 0)
    assert SQRT2.sqrt2_power_class() == (0, 1)
    assert HALF.sqrt2_power_class() == (0, -2)
    assert (Cyclo.omega_power(3) * INV_SQRT2).sqrt2_power_class() == (3, -1)
    assert Cyclo(0).sqrt2_power_class() is None
    assert (ONE + Cyclo.omega_power(1)).sqrt2_power_class() is None
    assert Cyclo(3).sqrt2_power_class() is None


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-6, max_value=6))
def test_sqrt2_power_class_roundtrip(j, k):
    z = Cyclo.omega_power(j)
    w = SQRT2 if k >= 0 else INV_SQRT2
    for _ in range(abs(k)):
        z = z * w
    jj, kk = z.sqrt2_power_class()
    assert kk == k
    lhs = Cyclo.omega_power(jj) * z.conj() * z
    assert lhs == Cyclo.omega_power(jj) * Cyclo(1) * z.conj() * z  # sanity: classification stable
    assert jj == j % 8


def test_omega_float():
    for k in range(8):
        assert cmath.isclose(
            omega_float(k), cmath.exp(1j * k * math.pi / 4), abs_tol=1e-12
        )


def laurents():
    """Laurent polynomials in two variables with small exponents."""
    mono = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    return st.dictionaries(mono, cyclos(), max_size=4).map(Laurent)


@given(laurents(), laurents(), st.tuples(st.integers(0, 7), st.integers(0, 7)))
def test_laurent_ring_laws_at_grid_points(p, q, rs):
    assert (p * q).at_omega(rs) == p.at_omega(rs) * q.at_omega(rs)
    assert (p - q).at_omega(rs) == p.at_omega(rs) - q.at_omega(rs)
    assert (p * SQRT2).at_omega(rs) == (SQRT2 * p).at_omega(rs) == p.at_omega(rs) * SQRT2
    assert p.mod_z8().at_omega(rs) == p.at_omega(rs)
    z = [cmath.exp(1j * r * math.pi / 4) for r in rs]
    value = p.at_omega(rs)  # the int 0 for the zero polynomial
    value = as_complex(value) if isinstance(value, Cyclo) else value
    assert cmath.isclose(p.at(z), value, abs_tol=1e-9)


@given(laurents())
def test_laurent_zero_on_grid_iff_zero_mod_z8(p):
    on_grid = all(p.at_omega((r, s)) == 0 for r in range(8) for s in range(8))
    assert on_grid == p.mod_z8().is_zero()
    assert (p - p).is_zero() and (p - p) == 0 and (p == 0) == p.is_zero()


@given(laurents(), st.one_of(cyclos(), st.integers(-9, 9)), st.tuples(*[st.integers(0, 7)] * 2))
def test_laurent_takes_a_bare_coefficient_on_either_side(p, c, rs):
    def at(x):  # the zero polynomial plus a constant is the bare constant
        return x.at_omega(rs) if isinstance(x, Laurent) else x

    assert at(p + c) == at(c + p) == p.at_omega(rs) + c
    assert at(p - c) == p.at_omega(rs) - c
    assert at(c - p) == c - p.at_omega(rs)


def test_laurent_with_a_bare_complex_and_the_empty_polynomial():
    p = Laurent({(1, 0): 2 + 0j, (0, 0): 1j})
    assert (p + 3j).terms == (3j + p).terms == {(1, 0): 2 + 0j, (0, 0): 4j}
    assert (p - 1j).terms == {(1, 0): 2 + 0j}
    assert (1j - p).terms == {(1, 0): -2 + 0j}
    empty = Laurent({})
    assert empty + ONE == ONE + empty == ONE and empty - 2j == -2j and 2j - empty == 2j
    assert (empty + 0) == 0 and (p - p + SQRT2) == SQRT2


def test_laurent_off_by_z8_vanishes_on_grid_only():
    p = Laurent({(8, 0): ONE}) - Laurent({(0, 0): ONE})  # z^8 - 1
    assert not p.is_zero() and p.mod_z8().is_zero()
    assert abs(p.at([cmath.exp(0.3j), 1])) > 0.1


def _halved(a, b, c, d, e):
    """The canonical form by repeated halving, as a reference."""
    if e < 0:
        a, b, c, d, e = a * 2**-e, b * 2**-e, c * 2**-e, d * 2**-e, 0
    while e > 0 and a % 2 == b % 2 == c % 2 == d % 2 == 0:
        a, b, c, d, e = a // 2, b // 2, c // 2, d // 2, e - 1
    return (a, b, c, d, 0 if a == b == c == d == 0 else e)


@given(coefs, coefs, coefs, coefs, st.integers(min_value=-4, max_value=12), st.integers(0, 8))
def test_canonical_form_has_the_least_exponent(a, b, c, d, e, k):
    s = 2**k
    for args in ((a, b, c, d, e), (a * s, b * s, c * s, d * s, e)):
        x = Cyclo(*args)
        assert (x.a, x.b, x.c, x.d, x.e) == _halved(*args)


def test_integer_elements_hash_like_their_ints():
    assert {1: "x"}.get(Cyclo(1)) == "x"
    assert {Cyclo(-3): "y"}.get(-3) == "y"
    assert hash(Cyclo(4, 0, 0, 0, 2)) == hash(1)
    assert hash(Cyclo(0, 0, 0, 0, 5)) == hash(0)
    assert len({Cyclo(2), 2, Cyclo(4, 0, 0, 0, 1)}) == 1


@given(cyclos(), st.integers(0, 6))
def test_equal_elements_hash_equal(x, k):
    s = 2**k
    y = Cyclo(x.a * s, x.b * s, x.c * s, x.d * s, x.e + k)
    assert x == y and hash(x) == hash(y)


def test_subtraction_from_an_unsupported_type_is_a_plain_type_error():
    assert 3 - Cyclo(1) == Cyclo(2)
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: 'float' and 'Cyclo'"):
        1.5 - Cyclo(1)
