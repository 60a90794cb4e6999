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


@given(cyclos())
def test_conjugation(z):
    assert z.conj().conj() == z
    assert (z * z.conj()).to_complex() == pytest.approx(abs(as_complex(z)) ** 2, abs=1e-6)
    sq = z.abs2()
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
    theta = [r * math.pi / 4 for r in rs]
    value = p.at_omega(rs)  # the int 0 for the zero polynomial
    value = as_complex(value) if isinstance(value, Cyclo) else value
    assert cmath.isclose(p.at_angles(theta), value, abs_tol=1e-9)


@given(laurents())
def test_laurent_zero_on_grid_iff_zero_mod_z8(p):
    on_grid = all(p.at_omega((r, s)) == 0 for r in range(8) for s in range(8))
    assert on_grid == p.mod_z8().is_zero()
    assert (p - p).is_zero() and (p - p) == 0 and (p == 0) == p.is_zero()


def test_laurent_off_by_z8_vanishes_on_grid_only():
    p = Laurent({(8, 0): ONE}) - Laurent({(0, 0): ONE})  # z^8 - 1
    assert not p.is_zero() and p.mod_z8().is_zero()
    assert abs(p.at_angles([0.3, 0.0])) > 0.1
