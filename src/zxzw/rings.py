"""Exact arithmetic in Z[1/2][omega], omega = e^{i pi/4}.

Every scalar produced by interpreting a diagram whose phases are multiples of
pi/4 lives in the ring D[omega] = Z[1/2][omega] with omega^4 = -1.  The classes
here implement that ring with arbitrary-precision integers, plus the embedding
into complex floats.  1/sqrt(2) is (omega - omega^3)/2.

`Laurent` extends the ring for diagrams whose phases or node parameters
carry variables: a Laurent polynomial in z_v = e^{iv} for a phase variable
v, and a polynomial in r for a ring parameter r, with coefficients in the
ring or, when some constant is not in it, in complex floats.  It mixes
with bare ring elements, so only a phase or parameter with a variable
becomes a polynomial.
"""

from __future__ import annotations

import cmath
import math

_OMEGA = cmath.exp(1j * math.pi / 4)


class Cyclo:
    """An element c0 + c1*omega + c2*omega^2 + c3*omega^3 of Z[1/2][omega].

    Stored as four integers over a shared power-of-two denominator; the
    canonical form has the denominator exponent minimal, so equality is
    component-wise comparison of the stored tuple.  An element equals an
    int when it is that integer (b = c = d = e = 0), and it then hashes
    like the int, so either finds the other in a dict or set.
    """

    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0, e: int = 0):
        if e < 0:
            a, b, c, d, e = a << -e, b << -e, c << -e, d << -e, 0
        elif e and not (a | b | c | d) & 1:  # all even: cancel common 2s
            v = a | b | c | d
            if v:
                k = min(e, (v & -v).bit_length() - 1)  # 2s common to all four
                a, b, c, d, e = a >> k, b >> k, c >> k, d >> k, e - k
            else:
                e = 0
        self.a, self.b, self.c, self.d, self.e = a, b, c, d, e

    # -- constructors -------------------------------------------------

    @staticmethod
    def omega_power(k: int) -> "Cyclo":
        """omega^k for any integer k (omega^8 = 1)."""
        return _OMEGA_POWERS[k % 8]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Cyclo:
            other = _as_cyclo(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = (self, other) if self.e >= other.e else (other, self)
        t = x.e - y.e  # bring y over x's denominator
        return Cyclo(x.a + (y.a << t), x.b + (y.b << t), x.c + (y.c << t), x.d + (y.d << t), x.e)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b, -self.c, -self.d, self.e)

    def __sub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not Cyclo:
            other = _as_cyclo(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        p, q, r, s = other.a, other.b, other.c, other.d
        # omega^4 = -1: a product landing on omega^{k+4} counts -1 at omega^k
        return Cyclo(
            a * p - b * s - c * r - d * q,
            a * q + b * p - c * s - d * r,
            a * r + b * q + c * p - d * s,
            a * s + b * r + c * q + d * p,
            self.e + other.e,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.c, self.d, self.e) == (
            other.a,
            other.b,
            other.c,
            other.d,
            other.e,
        )

    def __hash__(self):
        if self.b == self.c == self.d == self.e == 0:
            return hash(self.a)  # equal to the int a, so it hashes like it
        return hash((self.a, self.b, self.c, self.d, self.e))

    def conj(self) -> "Cyclo":
        """Complex conjugate: omega maps to omega^{-1} = -omega^3."""
        return Cyclo(self.a, -self.d, -self.c, -self.b, self.e)

    def is_zero(self) -> bool:
        return self.a == self.b == self.c == self.d == 0

    def is_real_dyadic(self) -> bool:
        return self.b == self.c == self.d == 0

    def to_complex(self) -> complex:
        # the integers are divided by 2^e before any float arithmetic, so
        # only a part whose own value is beyond a float overflows
        n, h = 1 << self.e, math.sqrt(2.0) / 2
        re = self.a / n + (self.b - self.d) / n * h
        im = self.c / n + (self.b + self.d) / n * h
        return complex(re, im)

    __complex__ = to_complex

    def half(self) -> "Cyclo":
        return Cyclo(self.a, self.b, self.c, self.d, self.e + 1)

    def __repr__(self):
        terms = []
        for coef, name in ((self.a, ""), (self.b, "w"), (self.c, "w2"), (self.d, "w3")):
            if coef:
                terms.append(f"{coef}{name}" if name else str(coef))
        body = "+".join(terms).replace("+-", "-") if terms else "0"
        if self.e:
            return f"({body})/2^{self.e}"
        return body

    def sqrt2_power_class(self):
        """If self = omega^j * sqrt(2)^k (nonzero), return (j, k); else None.

        Scalars of this shape are exactly the ones with a small closed
        inverse gadget, so translations use this to recognise them.
        """
        if self.is_zero():
            return None
        for j in range(8):
            w = self * Cyclo.omega_power(-j)
            # sqrt(2)^k is either a power of two (k even) or a power of two
            # times (omega - omega^3) (k odd).
            if w.is_real_dyadic():
                m = _power_of_two(w.a)
                if m is not None:
                    return (j, 2 * (m - w.e))
            if w.a == w.c == 0 and w.b == -w.d:
                m = _power_of_two(w.b)
                if m is not None:
                    return (j, 2 * (m - w.e) + 1)
        return None


def _power_of_two(n: int):
    if n <= 0:
        return None
    m = n.bit_length() - 1
    return m if (1 << m) == n else None


def _as_cyclo(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, int):
        return Cyclo(x)
    return NotImplemented


ONE = Cyclo(1)
HALF = Cyclo(1, 0, 0, 0, 1)
SQRT2 = Cyclo(0, 1, 0, -1)  # omega - omega^3
INV_SQRT2 = Cyclo(0, 1, 0, -1, 1)  # (omega - omega^3) / 2


def omega_float(k: int) -> complex:
    return _OMEGA**(k % 8)


def is_zero(x) -> bool:
    """Zero test for a ring element, a number or a `Laurent` polynomial."""
    return x.is_zero() if isinstance(x, Cyclo) else x == 0


class Laurent:
    """A Laurent polynomial sum_n c_n z^n in commuting variables z_1..z_k.

    `terms` maps integer exponent tuples (one slot per variable) to nonzero
    coefficients, all exact (Cyclo or int) or all complex (float).  A slot
    is a phase variable, z_v = e^{iv}, or a ring parameter, whose exponents
    are non-negative.  `+`, `-` and `*` also take a bare coefficient on
    either side; as the zero polynomial has no slots, it plus a constant
    is the bare constant.  Comparison with 0 is `is_zero`, so the
    module-level `is_zero` needs no case for this type, and the hash is
    that of the terms (0's for the zero polynomial), so a generator that
    holds one hashes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {n: c for n, c in terms.items() if not is_zero(c)}

    def __add__(self, other) -> "Laurent":
        out = dict(self.terms)
        if not isinstance(other, Laurent):
            if not out:
                return other
            other = Laurent({(0,) * len(next(iter(out))): other})
        for n, c in other.terms.items():
            out[n] = out[n] + c if n in out else c
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent({n: -c for n, c in self.terms.items()})

    def __sub__(self, other) -> "Laurent":
        return self + (-other)

    def __rsub__(self, other) -> "Laurent":
        return -self + other

    def __mul__(self, other) -> "Laurent":
        if not isinstance(other, Laurent):
            return Laurent({n: c * other for n, c in self.terms.items()})
        out: dict = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                n = tuple(a + b for a, b in zip(n1, n2))
                out[n] = out[n] + c1 * c2 if n in out else c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.terms == other.terms
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items())) if self.terms else 0

    def is_zero(self) -> bool:
        return not self.terms

    def mod_z8(self, k=None) -> "Laurent":
        """The remainder mod z_v^8 - 1 for each of the first `k` slots (all
        by default), the phase variables: their exponents taken mod 8, the
        later slots, ring parameters, kept.  It is zero exactly when the
        polynomial vanishes at every z_v = omega^r of those slots."""
        out: dict = {}
        for n, c in self.terms.items():
            cut = len(n) if k is None else k
            n = tuple(x % 8 for x in n[:cut]) + n[cut:]
            out[n] = out[n] + c if n in out else c
        return Laurent(out)

    def at_omega(self, rs):
        """The value at z_v = omega^{r_v}: a ring element for exact
        coefficients, a complex for float ones (the int 0 for the zero
        polynomial).  A term at omega^0 adds its coefficient unmultiplied,
        so an infinite one stays infinite rather than NaN."""
        value = 0
        for n, c in self.terms.items():
            k = sum(a * r for a, r in zip(n, rs)) % 8
            w = (_OMEGA_FLOATS if isinstance(c, complex) else _OMEGA_POWERS)[k]
            value = value + (c * w if k else c)
        return value

    def at(self, values) -> complex:
        """The complex value at z_v = values[v], e^{i theta_v} for a phase
        variable v."""
        acc = 0j
        for n, c in self.terms.items():
            term = complex(c)
            for a, x in zip(n, values):
                term *= x**a
            acc += term
        return acc

    def __repr__(self):
        return f"Laurent({self.terms!r})"


# omega^0 .. omega^7, as omega^4 = -1
_OMEGA_POWERS = tuple(Cyclo(*c) for c in ((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)))
_OMEGA_POWERS += tuple(-w for w in _OMEGA_POWERS)
_OMEGA_FLOATS = tuple(omega_float(k) for k in range(8))
