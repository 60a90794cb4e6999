"""Exact arithmetic in the dyadic rationals and in Z[1/2][omega], omega = e^{i pi/4}.

Every scalar produced by interpreting a diagram whose phases are multiples of
pi/4 lives in the ring D[omega] = Z[1/2][omega] with omega^4 = -1.  The classes
here implement that ring with arbitrary-precision integers, plus the embedding
into complex floats.  1/sqrt(2) is (omega - omega^3)/2.
"""

from __future__ import annotations

import cmath
import math

_OMEGA = cmath.exp(1j * math.pi / 4)


class Dyadic:
    """A dyadic rational num / 2^exp, normalized so num is odd or zero."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
        self.num = num
        self.exp = exp

    @staticmethod
    def from_int(n: int) -> "Dyadic":
        return Dyadic(n, 0)

    def __add__(self, other):
        other = _as_dyadic(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other):
        other = _as_dyadic(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_dyadic(other) + (-self)

    def __mul__(self, other):
        other = _as_dyadic(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_dyadic(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash(("Dyadic", self.num, self.exp))

    def __lt__(self, other):
        other = _as_dyadic(other)
        e = max(self.exp, other.exp)
        return (self.num << (e - self.exp)) < (other.num << (e - other.exp))

    def __le__(self, other):
        return self == other or self < other

    def is_zero(self) -> bool:
        return self.num == 0

    def to_float(self) -> float:
        if abs(self.num) < 2**52:
            return math.ldexp(self.num, -self.exp)
        return self.num / (2**self.exp)

    def __repr__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"


def _as_dyadic(x):
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x, 0)
    return NotImplemented


class Cyclo:
    """An element c0 + c1*omega + c2*omega^2 + c3*omega^3 of Z[1/2][omega].

    Stored as four integers over a shared power-of-two denominator; the
    canonical form has the denominator exponent minimal, so equality is
    component-wise comparison of the stored tuple.
    """

    __slots__ = ("a", "b", "c", "d", "e")

    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0, e: int = 0):
        if e < 0:
            s = 1 << (-e)
            a, b, c, d, e = a * s, b * s, c * s, d * s, 0
        while e > 0 and a % 2 == 0 and b % 2 == 0 and c % 2 == 0 and d % 2 == 0:
            a //= 2
            b //= 2
            c //= 2
            d //= 2
            e -= 1
        if a == b == c == d == 0:
            e = 0
        self.a, self.b, self.c, self.d, self.e = a, b, c, d, e

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Cyclo":
        return Cyclo(n)

    @staticmethod
    def from_dyadic(x: Dyadic) -> "Cyclo":
        return Cyclo(x.num, 0, 0, 0, x.exp)

    @staticmethod
    def omega_power(k: int) -> "Cyclo":
        """omega^k for any integer k (omega^8 = 1)."""
        k %= 8
        sign = 1 if k < 4 else -1
        coef = [0, 0, 0, 0]
        coef[k % 4] = sign
        return Cyclo(*coef)

    # -- spec-shaped component access ---------------------------------

    @property
    def c0(self) -> Dyadic:
        return Dyadic(self.a, self.e)

    @property
    def c1(self) -> Dyadic:
        return Dyadic(self.b, self.e)

    @property
    def c2(self) -> Dyadic:
        return Dyadic(self.c, self.e)

    @property
    def c3(self) -> Dyadic:
        return Dyadic(self.d, self.e)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.e, other.e)
        s = 1 << (e - self.e)
        t = 1 << (e - other.e)
        return Cyclo(
            self.a * s + other.a * t,
            self.b * s + other.b * t,
            self.c * s + other.c * t,
            self.d * s + other.d * t,
            e,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b, -self.c, -self.d, self.e)

    def __sub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_cyclo(other) + (-self)

    def __mul__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        x = (self.a, self.b, self.c, self.d)
        y = (other.a, other.b, other.c, other.d)
        acc = [0, 0, 0, 0]
        for i in range(4):
            xi = x[i]
            if xi == 0:
                continue
            for j in range(4):
                yj = y[j]
                if yj == 0:
                    continue
                k = i + j
                if k < 4:
                    acc[k] += xi * yj
                else:
                    acc[k - 4] -= xi * yj
        return Cyclo(acc[0], acc[1], acc[2], acc[3], self.e + other.e)

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
        return hash(("Cyclo", self.a, self.b, self.c, self.d, self.e))

    def conj(self) -> "Cyclo":
        """Complex conjugate: omega maps to omega^{-1} = -omega^3."""
        return Cyclo(self.a, -self.d, -self.c, -self.b, self.e)

    def abs2(self) -> "Cyclo":
        """|z|^2 = z * conj(z) (a real element of the ring)."""
        return self * self.conj()

    def is_zero(self) -> bool:
        return self.a == self.b == self.c == self.d == 0

    def is_real_dyadic(self) -> bool:
        return self.b == self.c == self.d == 0

    def to_complex(self) -> complex:
        h = 2.0 ** (-self.e - 1)  # 1 / 2^{e+1}
        s = math.sqrt(2.0)
        re = (2 * self.a + s * (self.b - self.d)) * h
        im = (2 * self.c + s * (self.b + self.d)) * h
        return complex(re, im)

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
    if isinstance(x, Dyadic):
        return Cyclo.from_dyadic(x)
    return NotImplemented


ZERO = Cyclo(0)
ONE = Cyclo(1)
TWO = Cyclo(2)
HALF = Cyclo(1, 0, 0, 0, 1)
OMEGA = Cyclo.omega_power(1)
I_UNIT = Cyclo.omega_power(2)
SQRT2 = Cyclo(0, 1, 0, -1)  # omega - omega^3
INV_SQRT2 = Cyclo(0, 1, 0, -1, 1)  # (omega - omega^3) / 2


def omega_float(k: int) -> complex:
    return _OMEGA**(k % 8)
