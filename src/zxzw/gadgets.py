"""Hand-built diagram fragments with known exact interpretations.

Every scalar in the pi/4 fragment has the form omega^j * sqrt(2)^k, and the
constructions below realise those scalars, the Clifford entanglers, and the
non-unitary pieces (the triangle and the w nodes) out of plain spiders so
that translations and rewrite rules never have to leave the calculus.

The triangle [[1,1],[0,1]] is the linchpin: it is the only piece here whose
interpretation is not proportional to an isometry (it sends |0> to a unit
vector but |1> to one of norm sqrt(2)), and that norm asymmetry is exactly
what the w nodes need.  The addition node [[1,0,0,0],[0,1,1,0]] cannot be
written as spider-merge of dressed wires at all: its kernel contains a
single product state, while any dressed merge kernel contains two.

The parameter-free fragments are built once and shared: `Diagram` and
`Gen` are immutable, so handing the same object to every caller is safe.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import diagrams as dg
from .diagrams import Diagram
from .phases import Phase, PhaseLike
from .rings import Cyclo


def wire() -> Diagram:
    return Diagram.identity(1)


@functools.cache
def sqrt2() -> Diagram:
    """Scalar sqrt(2): a phaseless z state plugged into a phaseless x costate."""
    return dg.seq(dg.z(0, 1, 0), dg.x(1, 0, 0))


def dot(phase: PhaseLike = 0) -> Diagram:
    """Scalar 1 + e^{i a}: a z spider with no legs."""
    return dg.z(0, 0, phase)


def phase_gadget(phase: PhaseLike) -> Diagram:
    """Scalar sqrt(2) * e^{i a}."""
    return dg.seq(dg.z(0, 1, phase), dg.x(1, 0, 1))


def circles(k: int) -> Diagram:
    """Scalar 2^k as k closed loops."""
    return Diagram(None, (), (), 0, 0, loops=k)


def trace1(d: Diagram) -> Diagram:
    """Close a 1->1 diagram into a scalar with a bent wire."""
    return dg.seq(Diagram.cap(), wire().tensor(d), Diagram.cup())


def loop_h1(phase: PhaseLike) -> Diagram:
    """Scalar (1 - e^{i a}) / sqrt(2): a z spider traced through a hadamard."""
    return trace1(dg.seq(dg.z(1, 1, phase), dg.h()))


def loop_h2(a: PhaseLike, b: PhaseLike) -> Diagram:
    """Scalar (1 + e^{i a})(1 + e^{i b}) / 2."""
    return trace1(dg.seq(dg.z(1, 1, a), dg.h(), dg.z(1, 1, b), dg.h()))


@functools.cache
def half_scalar() -> Diagram:
    # (2 + sqrt2)(2 - sqrt2) / 4 = 1/2, and each factor is a single h loop
    return loop_h2(Fraction(1, 4), Fraction(3, 4)).tensor(
        loop_h2(Fraction(-1, 4), Fraction(-3, 4))
    )


@functools.cache
def inv_sqrt2() -> Diagram:
    return half_scalar().tensor(sqrt2())


def unit_phase(phase: PhaseLike) -> Diagram:
    """Scalar e^{i a} exactly (no residual normalisation)."""
    return dg.ten(phase_gadget(phase), half_scalar(), sqrt2())


def unit_scalar(j: int, k: int) -> Diagram:
    """Scalar omega^j * sqrt(2)^k."""
    out = Diagram.empty() if j % 8 == 0 else unit_phase(Fraction(j % 8, 4))
    for _ in range(k):
        out = out.tensor(sqrt2())
    for _ in range(-k):
        out = out.tensor(inv_sqrt2())
    return out


@functools.cache
def cnot() -> Diagram:
    """Controlled not, control on wire 0: copy the control, merge the target."""
    body = dg.seq(
        dg.ten(dg.z(1, 2, 0), wire()),
        dg.ten(wire(), dg.x(2, 1, 0)),
    )
    return body.tensor(sqrt2())


@functools.cache
def cnot_down() -> Diagram:
    """Controlled not, control on wire 1."""
    return dg.seq(Diagram.swap(), cnot(), Diagram.swap())


@functools.cache
def cz() -> Diagram:
    return dg.seq(dg.ten(wire(), dg.h()), cnot(), dg.ten(wire(), dg.h()))


@functools.cache
def crossing() -> Diagram:
    """The braiding of the w calculus, built as cz followed by a swap."""
    return dg.seq(cz(), Diagram.swap())


@functools.cache
def triangle() -> Diagram:
    """The 1->1 map [[1,1],[0,1]] from plain pi/4 spiders.

    A controlled-not sandwich: the ancilla is prepared proportional to
    (1, 1+sqrt2) (an x merge of pi/2 and pi/4 z states), flows through the
    two controlled-nots with a hadamard between them, and is discarded
    against the costate proportional to (1, sqrt2-1); the main wire carries
    the symmetric non-unitary core [[1, 1/sqrt2], [1/sqrt2, 1]] (an x merge
    with the plug (sqrt2, 1)).  Entrywise the open part equals
    i*sqrt2 * [[1,1],[0,1]], and two scalar loops cancel the i*sqrt2.
    """
    delta = merge_x(dg.z(0, 1, Fraction(1, 2)), dg.z(0, 1, Fraction(1, 4)))
    beta = dg.flip(
        merge_x(dg.z(0, 1, Fraction(1, 2)), dg.z(0, 1, Fraction(-1, 4)))
    )
    core = dg.seq(
        dg.ten(wire(), cos_plug(Fraction(1, 4))), dg.x(2, 1, 0)
    )
    body = dg.seq(
        dg.ten(wire(), delta),
        cnot(),
        dg.ten(core, dg.h()),
        cnot(),
        dg.ten(wire(), beta),
    )
    return dg.ten(
        body, loop_h2(Fraction(1, 4), Fraction(5, 4)), loop_h1(Fraction(1, 2))
    )


@functools.cache
def w_add() -> Diagram:
    """The 2->1 addition node [[1,0,0,0],[0,1,1,0]].

    Sends (1,a) (x) (1,b) to (1, a+b).  A controlled-not (control on the
    second wire) followed by a flipped triangle on that wire and a z merge;
    the triangle supplies the norm boost |11> -> |01> + |10> needs, and the
    whole thing lands on the target with no scalar correction at all.
    """
    return dg.seq(
        cnot_down(),
        dg.ten(wire(), dg.flip(triangle())),
        dg.z(2, 1, 0),
    )


@functools.cache
def w_split() -> Diagram:
    """The 1->2 node sending |0> to |00> and |1> to |01> + |10>."""
    return dg.flip(w_add())


@functools.cache
def w21_zx() -> Diagram:
    """The 2->1 w node [[0,1,1,0],[1,0,0,0]] in pi/4 spiders."""
    return dg.seq(w_add(), dg.x(1, 1, 1))


@functools.cache
def w12_zx() -> Diagram:
    """The 1->2 w node [[0,1],[1,0],[1,0],[0,0]] in pi/4 spiders."""
    return dg.flip(w21_zx())


# -- states and plugs -----------------------------------------------------------


def merge_x(s1: Diagram, s2: Diagram) -> Diagram:
    """Feed two states into a phaseless x merge."""
    return dg.seq(dg.ten(s1, s2), dg.x(2, 1, 0))


def cos_plug(a: PhaseLike) -> Diagram:
    """State sqrt(2) * (1, cos a)."""
    return merge_x(dg.z(0, 1, a), dg.z(0, 1, -Phase.coerce(a)))


def tan_state(a: PhaseLike) -> Diagram:
    """State sqrt(2) cos(a) e^{ia} * (1, tan a)."""
    alpha = Phase.coerce(a)
    return merge_x(
        dg.z(0, 1, Fraction(1, 2)),
        dg.z(0, 1, alpha * 2 - Phase.coerce(Fraction(1, 2))),
    )


@functools.cache
def zero_state() -> Diagram:
    """State (1, 0)."""
    return dg.ten(dg.x(0, 1, 0), half_scalar(), sqrt2())


@functools.cache
def half_state() -> Diagram:
    """State (1, 1/2): add two ones, swap the components, halve."""
    two = dg.seq(dg.ten(dg.z(0, 1, 0), dg.z(0, 1, 0)), w_add())
    return dg.seq(two, dg.x(1, 1, 1)).tensor(half_scalar())


@functools.cache
def _two_state() -> Diagram:
    """State (1, 2): the flipped triangle [[1,0],[1,1]] adds one to (1, 1)."""
    return dg.seq(dg.z(0, 1, 0), dg.flip(triangle()))


def int_state(n: int) -> Diagram:
    """State (1, n) for an integer n, in O(log |n|) nodes.

    Horner's rule over the binary digits of |n|: each further digit doubles
    the state by a z merge with (1, 2), and a 1 digit then adds the sign
    unit (1, +-1) with `w_add`.  The leading value 1, 2 or 3 is a unary sum
    of units, which is smaller than its Horner form.
    """
    if n == 0:
        return zero_state()
    unit = dg.z(0, 1, 0) if n > 0 else dg.z(0, 1, 1)
    digits = bin(abs(n))[2:]
    out = unit
    for _ in range(int(digits[:2], 2) - 1):
        out = dg.seq(dg.ten(out, unit), w_add())
    for digit in digits[2:]:
        out = dg.seq(dg.ten(out, _two_state()), dg.z(2, 1, 0))
        if digit == "1":
            out = dg.seq(dg.ten(out, unit), w_add())
    return out


def ring_state(r) -> Diagram:
    """State (1, r) for any r in Z[1/2][omega].

    The four omega components are built by phasing integer states, added
    with the w addition node, and the dyadic denominator is divided out by
    z-merging with copies of (1, 1/2) (the z merge multiplies second
    components).
    """
    r = r if isinstance(r, Cyclo) else Cyclo(int(r))
    parts = []
    for k, c in enumerate((r.a, r.b, r.c, r.d)):
        if c == 0:
            continue
        s = int_state(c)
        if k:
            s = dg.seq(s, dg.z(1, 1, Fraction(k, 4)))
        parts.append(s)
    if not parts:
        return zero_state()
    out = parts[0]
    for s in parts[1:]:
        out = dg.seq(dg.ten(out, s), w_add())
    for _ in range(r.e):
        out = dg.seq(dg.ten(out, half_state()), dg.z(2, 1, 0))
    return out


def complex_scalar(value: complex) -> Diagram:
    """A scalar diagram whose float interpretation is `value`.

    Only exact for pi/4-grid values; everything else carries float phases
    and is meant for the float interpreter.
    """
    value = complex(value)
    if value == 0:
        return dot(1)
    mag = abs(value)
    k = max(0, math.ceil(math.log2(mag)) - 1)
    b = 2.0 * math.acos(min(1.0, mag / 2 ** (k + 1)))
    return dg.ten(dot(b), circles(k), unit_phase(math.atan2(value.imag, value.real) - b / 2.0))
