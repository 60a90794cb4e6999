"""Translations between the two calculi, in both directions.

Both directions are generator-wise: `diagrams.graft` replaces each node by
a fixed fragment in the other calculus with the same boundary arity and
splices it into the original wiring.  That makes the translations strict
monoidal functors by construction, and semantics preservation reduces to
checking each fragment against its generator — which the tests do exactly.

Scalars are never normalised away: every fragment matches its generator on
the nose, global scalar included, so a round trip preserves the
interpretation exactly for exact input and within float precision for
float phases and parameters.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import diagrams as dg
from . import gadgets as gad
from .diagrams import CROSS, H, HALF, TRI, W11, W12, WZ, X, Z, Diagram, Gen
from .phases import Phase, PhaseLike
from .rings import Cyclo, INV_SQRT2
from .semantics import phase_value


class TranslateError(Exception):
    pass


class SingularPhase(TranslateError):
    """Raised where an inverse is requested at the pole alpha = pi."""


# -- zx to zw --------------------------------------------------------------------


def zw_triangle(r) -> Diagram:
    """The zw image [[1, r],[0, 1]] of a triangle: a w merge fed by (1, r)."""
    return dg.seq(
        dg.w11(), dg.ten(dg.white(0, 1, r), gad.wire()), dg.w21()
    )


@functools.cache
def _zero_costate_zw() -> Diagram:
    """The costate <0|: a white node of parameter 0, worth <0| + 0 <1|."""
    return dg.white(1, 0, 0)


@functools.cache
def _had_zw() -> Diagram:
    """A zw fragment with interpretation sqrt(2) * H = [[1,1],[1,-1]].

    w-split into (A (x) B), then w-merge: A = white(-2) after a zw triangle,
    B = the rank-one |(1,1)><0|.
    """
    a = dg.seq(zw_triangle(1), dg.white(1, 1, -2))
    b = dg.seq(_zero_costate_zw(), dg.white(0, 1, 1))
    return dg.seq(dg.w11(), dg.w12(), dg.ten(a, b), dg.w21(), dg.w11())


def _white_scalar(value: Cyclo) -> Diagram:
    """A 0->0 white node worth `value` (its parameter is value - 1)."""
    return dg.white(0, 0, value - Cyclo(1))


def zx_to_zw(d: Diagram) -> Diagram:
    """Translate a variable-free zx diagram, triangles allowed, into zw.

    A spider of phase alpha becomes a white node worth e^{i alpha}: omega^k
    on the pi/4 grid, a float complex elsewhere.  The hadamard becomes the
    sqrt(2)*H fragment with a scalar white node worth 1/sqrt(2); a red
    spider is a green one in a hadamard sandwich, and a triangle of
    parameter r is zw_triangle(r).
    """
    if d.tag not in (None, "zx", "zxt"):
        raise TranslateError(f"expected a zx diagram, got tag {d.tag!r}")
    if d.free_variables():
        raise TranslateError(f"free phase variables {sorted(d.free_variables())}")
    inv_had_scalar = _white_scalar(INV_SQRT2)

    def replace(g: Gen):
        if g.kind == Z:
            return dg.white(g.n_in, g.n_out, phase_value(g.phase))
        if g.kind == H:
            return _had_zw().tensor(inv_had_scalar)
        if g.kind == TRI:
            return zw_triangle(g.param)
        if g.kind == X:
            core = dg.seq(
                dg.ten(*[_had_zw()] * g.n_in),
                dg.white(g.n_in, g.n_out, phase_value(g.phase)),
                dg.ten(*[_had_zw()] * g.n_out),
            )
            comp = Cyclo(1)
            for _ in range(g.arity):
                comp = comp * INV_SQRT2
            return core.tensor(_white_scalar(comp))
        raise TranslateError(f"no zw image for generator kind {g.kind}")

    return dg.graft(d, replace, "zw")


# -- parameter encoding and the zw to zx direction -------------------------------


@dataclass(frozen=True)
class ParamEncoding:
    """Polar data for a white-node parameter r = rho * e^{i theta}.

    n is the least natural with rho <= 2^n, beta recovers rho as
    2^n cos(beta), and gamma = arccos(2^-n) drives the (1, 2^n) plug.
    """

    n: int
    beta: float
    gamma: float
    theta: float

    @property
    def rho(self) -> float:
        return 2**self.n * math.cos(self.beta)


def _modulus(r: complex) -> float:
    """|r|, refused above 2^1023, where 2^n in the encoding leaves the floats."""
    try:
        rho = abs(r)
    except OverflowError:
        rho = math.inf
    if rho > 2.0**1023:
        raise TranslateError(f"parameter {r} has modulus above 2^1023, beyond the float encoding")
    return rho


def encode_param(r: complex) -> ParamEncoding:
    r = complex(r)
    rho, theta = _modulus(r), math.atan2(r.imag, r.real)
    n = max(0, math.ceil(math.log2(rho))) if rho > 0 else 0
    while 2**n < rho:  # guard the ceil against float dust
        n += 1
    beta = math.acos(min(1.0, rho / 2**n))
    gamma = math.acos(1.0 / 2**n)
    return ParamEncoding(n, beta, gamma, theta)


def _plug_state_float(r: complex) -> Diagram:
    """A 0->1 zx diagram whose float interpretation is the state (1, r)."""
    if r == 0:
        return gad.zero_state()
    enc = encode_param(r)
    big = gad.merge_x(dg.z(0, 1, enc.gamma), dg.z(0, 1, enc.gamma))
    plug = dg.seq(
        dg.ten(gad.cos_plug(enc.beta), big),
        dg.z(2, 1, 0),
        dg.z(1, 1, enc.theta),
    )
    # cos_plug carries sqrt2, big carries sqrt2 e^{i gamma} / 2^n
    c = 2.0 * cmath.exp(1j * enc.gamma) / 2**enc.n
    return plug.tensor(gad.complex_scalar(1.0 / c))


def _plug_state(r) -> Diagram:
    if isinstance(r, Cyclo):
        return gad.ring_state(r)
    return _plug_state_float(complex(r))


def _white_zx(g: Gen) -> Diagram:
    r = g.param
    if isinstance(r, Cyclo):
        unit = r.sqrt2_power_class()
        if unit is not None and unit[1] == 0:
            return dg.z(g.n_in, g.n_out, Fraction(unit[0], 4))
        if g.arity == 0:
            value = Cyclo(1) + r
            if value.is_zero():
                return gad.dot(1)
            cls = value.sqrt2_power_class()
            if cls is not None:
                return gad.unit_scalar(*cls)
    elif abs(_modulus(r) - 1) <= sys.float_info.epsilon:  # e^{i theta}, as cmath.exp rounds it
        return dg.z(g.n_in, g.n_out, math.atan2(r.imag, r.real))
    return dg.seq(
        dg.z(g.n_in, g.n_out + 1, 0),
        dg.ten(Diagram.identity(g.n_out), dg.flip(_plug_state(r))),
    )


def zw_to_zx(d: Diagram) -> Diagram:
    """Translate a w-calculus diagram into zx spiders.

    White nodes with a unit parameter, omega^k or a float of modulus 1, are
    green spiders directly; any other parameter becomes a phaseless green
    spider with one extra leg capped by a (1, r) plug — exact for ring
    parameters, float otherwise.
    The black nodes are `gadgets.w12_zx`, built on the K chain.
    """
    if d.tag not in (None, "zw"):
        raise TranslateError(f"expected a zw diagram, got tag {d.tag!r}")

    def replace(g: Gen):
        if g.kind == WZ:
            return _white_zx(g)
        if g.kind == W11:
            return dg.x(1, 1, 1)
        if g.kind == W12:
            return gad.w12_zx()
        if g.kind == CROSS:
            return gad.crossing()
        if g.kind == HALF:
            return gad.half_scalar()
        raise TranslateError(f"no zx image for generator kind {g.kind}")

    return dg.graft(d, replace, "zx")


def round_trip(d: Diagram) -> Diagram:
    """zw_to_zx(zx_to_zw(d)); interpretation-preserving, exactly for exact
    input and within float precision otherwise."""
    return zw_to_zx(zx_to_zw(d))


# -- inverses of scalar spiders --------------------------------------------------

# pi/4-grid inverses of (1 + e^{i k pi/4}), keyed by k
_GRID_INVERSE = {
    0: lambda: gad.half_scalar(),
    1: lambda: gad.dot(Fraction(-1, 4)).tensor(
        gad.loop_h2(Fraction(3, 4), Fraction(-3, 4))
    ),
    7: lambda: gad.dot(Fraction(1, 4)).tensor(
        gad.loop_h2(Fraction(3, 4), Fraction(-3, 4))
    ),
    2: lambda: dg.ten(gad.half_scalar(), gad.sqrt2(), gad.loop_h1(Fraction(1, 2))),
    6: lambda: dg.ten(gad.half_scalar(), gad.sqrt2(), gad.loop_h1(Fraction(-1, 2))),
    3: lambda: gad.dot(Fraction(-3, 4)).tensor(
        gad.loop_h2(Fraction(1, 4), Fraction(-1, 4))
    ),
    5: lambda: gad.dot(Fraction(3, 4)).tensor(
        gad.loop_h2(Fraction(1, 4), Fraction(-1, 4))
    ),
}


def gn_inverse(alpha: PhaseLike) -> Diagram:
    """A scalar zx diagram inverting the legless spider Z(alpha, 0->0).

    The product with (1 + e^{i alpha}) is the scalar 1 — exactly on the
    pi/4 grid, within float precision elsewhere.  alpha = pi is the pole.
    """
    ph = Phase.coerce(alpha)
    k = ph.omega_exponent()
    if k is not None:
        k %= 8
        if k == 4:
            raise SingularPhase("1 + e^{i pi} = 0 has no inverse")
        return _GRID_INVERSE[k]()
    # a float alpha as given: wrapped into [0, 2 pi), its rounding grows ~1/cos(a/2) near the pole
    a = alpha if isinstance(alpha, float) else ph.to_float()
    c = math.cos(a / 2.0)
    if abs(c) < 1e-12:
        raise SingularPhase("alpha = pi (mod 2 pi) has no inverse")
    n = max(0, math.ceil(math.log2(1.0 / abs(c))))
    while 2**n * abs(c) < 1.0:
        n += 1
    x = 1.0 / (2**n * c)
    beta = 2.0 * math.acos(max(-1.0, min(1.0, x)))
    if n >= 2:
        dress = Diagram.circle(n - 2)
    else:
        dress = gad.half_scalar()
        if n == 0:
            dress = dress.tensor(gad.half_scalar())
    return dg.ten(gad.dot(beta), dress, gad.unit_phase(-(a + beta) / 2.0))

