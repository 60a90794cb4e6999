import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zxzw.phases import Phase

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=16)


def test_exact_normalization_mod_2pi():
    assert Phase.exact_pi(Fraction(9, 4)) == Phase.exact_pi(Fraction(1, 4))
    assert Phase.exact_pi(Fraction(-1, 2)) == Phase.exact_pi(Fraction(3, 2))
    assert Phase.exact_pi(2) == Phase.ZERO


def test_float_normalization():
    p = Phase.radians(5 * math.pi)
    assert p.const == pytest.approx(math.pi)
    assert not p.is_exact


def test_exactness_is_preserved_and_degraded():
    e = Phase.exact_pi(Fraction(1, 4))
    f = Phase.radians(0.3)
    assert (e + e).is_exact
    assert not (e + f).is_exact
    assert (e + f).to_float() == pytest.approx(math.pi / 4 + 0.3)
    # exact and float versions of the same angle are distinct phases
    assert Phase.exact_pi(Fraction(1, 2)) != Phase.radians(math.pi / 2)


def test_omega_exponent():
    assert Phase.exact_pi(Fraction(3, 4)).omega_exponent() == 3
    assert Phase.exact_pi(Fraction(7, 4)).omega_exponent() == 7
    assert Phase.ZERO.omega_exponent() == 0
    assert Phase.exact_pi(Fraction(1, 3)).omega_exponent() is None
    assert Phase.radians(math.pi / 4).omega_exponent() is None
    assert Phase.var("a").omega_exponent() is None


def test_variables_collect_and_cancel():
    p = Phase.var("a", 2) + Phase.var("b") - Phase.var("a")
    assert p.terms == (("a", 1), ("b", 1))
    assert (Phase.var("a") - Phase.var("a")) == Phase.ZERO


def test_substitute_respects_valuation_type():
    p = Phase.var("a", 2) + Phase.exact_pi(Fraction(1, 4))
    exact = p.substitute({"a": Fraction(1, 8)})
    assert exact.is_exact and exact == Phase.exact_pi(Fraction(1, 2))
    f = p.substitute({"a": 0.1})
    assert not f.is_exact
    assert f.to_float() == pytest.approx(0.2 + math.pi / 4)
    partial = p.substitute({})
    assert partial == p


def test_substitute_phase_for_var():
    p = Phase.var("a") + Phase.var("b")
    q = p.substitute({"a": Phase.var("b", -1)})
    assert q == Phase.ZERO


@given(fracs, fracs)
def test_exact_addition_matches_floats(j, k):
    p = Phase.exact_pi(j) + Phase.exact_pi(k)
    assert p.is_exact
    diff = p.to_float() - math.fmod((j + k) * math.pi, 2 * math.pi)
    assert min(abs(diff), abs(abs(diff) - 2 * math.pi)) < 1e-9


@given(fracs, st.integers(min_value=-5, max_value=5))
def test_integer_scaling(k, n):
    assert Phase.exact_pi(k) * n == Phase.exact_pi(k * n)


def test_format_dsl():
    assert Phase.exact_pi(Fraction(1, 4)).format_dsl() == "pi/4"
    assert Phase.exact_pi(Fraction(3, 2)).format_dsl() == "3*pi/2"
    assert Phase.ZERO.format_dsl() == "0"
    assert (Phase.var("a", 2) - Phase.var("b")).format_dsl() == "2a-b"
    assert (Phase.exact_pi(Fraction(1, 4)) + Phase.var("a")).format_dsl() == "pi/4+a"
    assert Phase.PI.format_dsl() == "pi"


def test_to_float_requires_binding():
    with pytest.raises(ValueError):
        Phase.var("a").to_float()
    assert Phase.var("a").substitute({"a": 1.5}).to_float() == pytest.approx(1.5)
