"""Spider phases: exact rational multiples of pi, float radians, and variables.

A phase is an affine expression  c + sum_i  n_i * v_i  where the constant c is
either a Fraction k (meaning k*pi, exact) or a float (radians), and each term
is an integer multiple of a named variable.  Exactness is never guessed: a
Fraction stays exact under arithmetic and substitution, a float stays float,
and mixing the two degrades to float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

TWO_PI = 2.0 * math.pi

PhaseLike = Union["Phase", Fraction, int, float]


def _norm_const(c):
    if isinstance(c, Fraction):
        return c % 2
    c = math.fmod(c, TWO_PI)
    if c < 0:
        c += TWO_PI
    return c


class Phase:
    __slots__ = ("const", "terms")

    def __init__(self, const=Fraction(0), terms=()):
        self.const = _norm_const(const)
        cleaned = sorted((v, n) for v, n in terms if n != 0)
        seen = {}
        for v, n in cleaned:
            seen[v] = seen.get(v, 0) + n
        self.terms = tuple(sorted((v, n) for v, n in seen.items() if n != 0))

    # -- constructors --------------------------------------------------

    @staticmethod
    def exact_pi(k) -> "Phase":
        """The phase k*pi for a rational k."""
        return Phase(Fraction(k))

    @staticmethod
    def radians(x: float) -> "Phase":
        return Phase(float(x))

    @staticmethod
    def var(name: str, coef: int = 1) -> "Phase":
        return Phase(Fraction(0), ((name, coef),))

    ZERO: "Phase"
    PI: "Phase"

    @staticmethod
    def coerce(x: PhaseLike) -> "Phase":
        if isinstance(x, Phase):
            return x
        if isinstance(x, Fraction) or isinstance(x, int):
            return Phase.exact_pi(Fraction(x))
        if isinstance(x, float):
            return Phase.radians(x)
        raise TypeError(f"cannot interpret {x!r} as a phase")

    # -- predicates ----------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return isinstance(self.const, Fraction)

    @property
    def is_zero(self) -> bool:
        return self.is_constant and self.const == 0

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.terms)

    def omega_exponent(self):
        """If this is a constant exact multiple of pi/4, return k with
        phase = k*pi/4 (0 <= k < 8); otherwise None."""
        if not (self.is_constant and self.is_exact):
            return None
        q = self.const * 4
        return int(q) if q.denominator == 1 else None

    # -- arithmetic ------------------------------------------------------

    def _merge_const(self, other_const):
        a, b = self.const, other_const
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        fa = float(a) * math.pi if isinstance(a, Fraction) else a
        fb = float(b) * math.pi if isinstance(b, Fraction) else b
        return fa + fb

    def __add__(self, other):
        other = Phase.coerce(other)
        return Phase(self._merge_const(other.const), self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return Phase(-self.const, tuple((v, -n) for v, n in self.terms))

    def __sub__(self, other):
        return self + (-Phase.coerce(other))

    def __rsub__(self, other):
        return Phase.coerce(other) + (-self)

    def __mul__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        c = self.const * n
        return Phase(c, tuple((v, k * n) for v, k in self.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Phase):
            try:
                other = Phase.coerce(other)
            except TypeError:
                return NotImplemented
        return (
            self.is_exact == other.is_exact
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(("Phase", self.is_exact, self.const, self.terms))

    # -- evaluation ------------------------------------------------------

    def substitute(self, binding: Mapping[str, PhaseLike]) -> "Phase":
        """Replace variables by phases; unbound variables stay symbolic."""
        out = Phase(self.const)
        for v, n in self.terms:
            if v in binding:
                out = out + Phase.coerce(binding[v]) * n
            else:
                out = out + Phase.var(v, n)
        return out

    def to_float(self) -> float:
        """Value in radians of a constant phase; a variable raises ValueError."""
        if self.terms:
            raise ValueError(f"unbound phase variable {self.terms[0][0]!r}")
        x = float(self.const) * math.pi if self.is_exact else self.const
        return math.fmod(x, TWO_PI)

    # -- formatting ------------------------------------------------------

    def _format_const(self) -> str:
        c = self.const
        if not self.is_exact:
            return repr(c)
        if c == 0:
            return "0"
        num, den = c.numerator, c.denominator
        s = "pi" if num == 1 else ("-pi" if num == -1 else f"{num}*pi")
        return s if den == 1 else f"{s}/{den}"

    def format_dsl(self) -> str:
        parts = []
        if self.const != 0 or not self.terms:
            parts.append(self._format_const())
        for v, n in self.terms:
            if n == 1:
                t = v
            elif n == -1:
                t = f"-{v}"
            else:
                t = f"{n}{v}"
            if parts and not t.startswith("-"):
                parts.append(f"+{t}")
            else:
                parts.append(t)
        return "".join(parts)

    def __repr__(self):
        return f"Phase({self.format_dsl()})"


Phase.ZERO = Phase()
Phase.PI = Phase.exact_pi(1)
