"""Exact arithmetic in Z[1/2][omega], omega = e^{i pi/4}.

Every scalar produced by interpreting a diagram whose phases are multiples of
pi/4 lives in the ring D[omega] = Z[1/2][omega] with omega^4 = -1.  The classes
here implement that ring with arbitrary-precision integers, plus the embedding
into complex floats.  1/sqrt(2) is (omega - omega^3)/2.

`Laurent` holds the interpretation of a diagram whose phases carry
variables: a Laurent polynomial in z_v = e^{iv}, with coefficients in the
ring or, when some constant is not in it, in complex floats.
"""

from __future__ import annotations

import cmath
import math

_OMEGA = cmath.exp(1j * math.pi / 4)


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
    def omega_power(k: int) -> "Cyclo":
        """omega^k for any integer k (omega^8 = 1)."""
        k %= 8
        sign = 1 if k < 4 else -1
        coef = [0, 0, 0, 0]
        coef[k % 4] = sign
        return Cyclo(*coef)

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
    coefficients, all Cyclo (exact) or all complex (float).  Multiplication
    also accepts a bare coefficient.  Comparison with 0 is `is_zero`, so the
    module-level `is_zero` needs no case for this type.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {n: c for n, c in terms.items() if not is_zero(c)}

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = out[n] + c if n in out else c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({n: -c for n, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

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

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def mod_z8(self) -> "Laurent":
        """The remainder mod z_v^8 - 1 for every v: exponents taken mod 8.
        It is zero exactly when the polynomial vanishes at every z_v = omega^r."""
        out: dict = {}
        for n, c in self.terms.items():
            n = tuple(x % 8 for x in n)
            out[n] = out[n] + c if n in out else c
        return Laurent(out)

    def at_omega(self, rs):
        """The value at z_v = omega^{r_v}: a Cyclo for exact coefficients,
        a complex for float ones (the int 0 for the zero polynomial)."""
        return sum(
            c * (_OMEGA_POWERS if isinstance(c, Cyclo) else _OMEGA_FLOATS)[sum(a * r for a, r in zip(n, rs)) % 8]
            for n, c in self.terms.items()
        )

    def at_angles(self, thetas) -> complex:
        """The complex value at z_v = e^{i theta_v}."""
        acc = 0j
        for n, c in self.terms.items():
            c = c.to_complex() if isinstance(c, Cyclo) else c
            acc += c * cmath.exp(1j * sum(a * t for a, t in zip(n, thetas)))
        return acc

    def __repr__(self):
        return f"Laurent({self.terms!r})"


_OMEGA_POWERS = tuple(Cyclo.omega_power(k) for k in range(8))
_OMEGA_FLOATS = tuple(omega_float(k) for k in range(8))
