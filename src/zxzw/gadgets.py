"""Hand-built diagram fragments with known exact interpretations.

Every scalar in the pi/4 fragment has the form omega^j * sqrt(2)^k, and the
constructions below realise those scalars, the Clifford entanglers, and the
non-unitary pieces (the triangle and the w nodes) out of plain spiders so
that translations and rewrite rules never have to leave the calculus.

The non-unitary pieces are chains of plugged spiders: a spider with one leg
fed by a one-legged spider of the other colour.  Six such factors give the
triangle [[1,1],[0,1]], and six with other plugs the tensor
K = [[1,1],[1,0]] (the triangle after a not).  The addition node
[[1,0,0,0],[0,1,1,0]] cannot be written as spider-merge of dressed wires
at all: its kernel contains a single product state, while any dressed merge
kernel contains two.  So it copies both inputs, joins the spare copies
through K, and merges the others.

Parameter-free fragments are built once and shared (`Diagram` and `Gen` are
immutable).  Each compound one is built in its final form, with at most one
scalar part, the exact `unit_scalar` its builder adds.  Each state gadget is
one `seq` of 1->1 stages, linear in the digits.
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


def trace1(d: Diagram) -> Diagram:
    """Close a 1->1 diagram into a scalar with a bent wire."""
    return dg.seq(Diagram.cap(), wire().tensor(d), Diagram.cup())


def loop_h1(phase: PhaseLike) -> Diagram:
    """Scalar (1 - e^{i a}) / sqrt(2): a z spider traced through a hadamard."""
    return trace1(dg.seq(dg.z(1, 1, phase), dg.h()))


def loop_h2(a: PhaseLike, b: PhaseLike) -> Diagram:
    """Scalar (1 + e^{i a})(1 + e^{i b}) / 2."""
    return trace1(dg.seq(dg.z(1, 1, a), dg.h(), dg.z(1, 1, b), dg.h()))


def _star(phase: PhaseLike, legs) -> Diagram:
    """A z spider of the phase whose legs end on x costates of phase pi,
    an n-legged one worth sqrt(2)^(2 - n) for odd n."""
    return dg.seq(dg.z(0, sum(legs), phase), dg.ten(*[dg.x(n, 0, 1) for n in legs]))


def unit_phase(phase: PhaseLike) -> Diagram:
    """Scalar e^{i a} exactly, in three nodes: costates worth 1/sqrt(2) and sqrt(2)."""
    return _star(phase, (3, 1))


def unit_scalar(j: int, k: int) -> Diagram:
    """Scalar omega^j * sqrt(2)^k, exactly, in at most three nodes for k >= 1.

    A `_star` of phase j*pi/4 carries omega^j and a power of sqrt(2); the
    rest of the power is closed loops (2) or two-node halves.
    """
    legs = [1 if k > 0 else 3] + [1] * ((k + 1) % 2) if j % 8 or k % 2 else []
    k -= sum(2 - n for n in legs)
    star = [_star(Fraction(j % 8, 4), legs)] if legs else []
    half = dg.seq(dg.z(0, 3, Fraction(1, 4)), dg.x(3, 0, Fraction(-1, 4)))
    return dg.ten(*star, Diagram.circle(max(k, 0) // 2), *[half] * (max(-k, 0) // 2))


@functools.cache
def half_scalar() -> Diagram:
    """Scalar 1/2."""
    return unit_scalar(0, -2)


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


def _fed(join: Diagram, state: Diagram) -> Diagram:
    """A two-input map with its second input plugged by a one-legged state.

    With a spider of the other colour this is a factor of a chain; with
    `w_add` or a z merge it is the stage (1, x) -> (1, x + s) or (1, x * s).
    """
    return dg.seq(dg.ten(wire(), state), join)


def _chain(plug: PhaseLike) -> Diagram:
    """The last five factors of the triangle and of K; `plug` is the first one's.

    Each of the six factors is a spider fed by a state of the other colour,
    or a lone z(pi/4), and an exact search over pi/4 phases found no
    shorter chain for either map.
    """
    quarter = Fraction(1, 4)
    return dg.seq(
        _fed(dg.x(2, 1, 0), dg.z(0, 1, plug)),
        dg.z(1, 1, quarter),
        _fed(dg.x(2, 1, Fraction(1, 2)), dg.z(0, 1, quarter)),
        dg.z(1, 1, quarter),
        _fed(dg.x(2, 1, 0), dg.z(0, 1, quarter)),
    )


@functools.cache
def triangle() -> Diagram:
    """The 1->1 map [[1,1],[0,1]] from plain pi/4 spiders.

    A z(pi/2) fed by an x(7pi/4) state, then `_chain(3pi/4)`.  The chain
    is -omega^3/2 times the triangle, and `unit_scalar(1, 2)` = 2 omega
    cancels that.
    """
    first = _fed(dg.z(2, 1, Fraction(1, 2)), dg.x(0, 1, Fraction(7, 4)))
    return dg.seq(first, _chain(Fraction(3, 4))).tensor(unit_scalar(1, 2))


def _w_node(merge: PhaseLike) -> Diagram:
    """w_add followed by x(1, 1, merge): 0 gives w_add, pi the w node.

    Each input is copied by a z spider.  One copy of each meets the other
    in K = [[1,1],[1,0]]: a z(pi/2) fed by an x(5pi/4) state, then
    `_chain(5pi/4)` and a cup, with the z(pi/2) fused into input a's copy.
    The other copies meet in an x merge of phase `merge`, into which a not
    fuses.  The body is (1 - omega^2)/4 times the map, and
    `unit_scalar(1, 3)` cancels that.
    """
    copy_a = _fed(dg.z(2, 2, Fraction(1, 2)), dg.x(0, 1, Fraction(5, 4)))
    body = dg.seq(
        dg.ten(copy_a, dg.z(1, 2, 0)),
        dg.ten(wire(), _chain(Fraction(5, 4)), Diagram.identity(2)),
        dg.ten(wire(), Diagram.cup(), wire()),
        dg.x(2, 1, merge),
    )
    return body.tensor(unit_scalar(1, 3))


@functools.cache
def w_add() -> Diagram:
    """The 2->1 addition node [[1,0,0,0],[0,1,1,0]].

    Sends (1,a) (x) (1,b) to (1, a+b).
    """
    return _w_node(0)


@functools.cache
def w21_zx() -> Diagram:
    """The 2->1 w node [[0,1,1,0],[1,0,0,0]] in pi/4 spiders: not . w_add."""
    return _w_node(1)


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
    """State (1, 0): the x state sqrt(2) (1, 0) and a 1/sqrt(2)."""
    return dg.ten(dg.x(0, 1, 0), unit_scalar(0, -1))


@functools.cache
def half_state() -> Diagram:
    """State (1, 1/2): two plugs sqrt(2) (1, cos pi/4) z-merged to (2, 1), halved."""
    return dg.seq(dg.ten(*[cos_plug(Fraction(1, 4))] * 2), dg.z(2, 1, 0)).tensor(half_scalar())


@functools.cache
def _two_state() -> Diagram:
    """State (1, 2): the same z merge (2, 1) with its components swapped."""
    return dg.seq(dg.ten(*[cos_plug(Fraction(1, 4))] * 2), dg.z(2, 1, 0), dg.x(1, 1, 1))


def int_state(n: int) -> Diagram:
    """State (1, n) for an integer n, in O(log |n|) nodes and time.

    Horner's rule over the binary digits of |n|, as one `seq` of 1->1
    stages: each further digit doubles by a z merge with (1, 2), and a 1
    digit then adds the sign unit (1, +-1) with `w_add`.  The leading
    value 1, 2 or 3 is the sign unit, or (1, 2) with a z pi for a negative
    sign, plus the sign unit for 3.
    """
    if n == 0:
        return zero_state()
    unit = dg.z(0, 1, 0) if n > 0 else dg.z(0, 1, 1)
    add = _fed(w_add(), unit) if abs(n) > 2 else None  # built only when used
    double = _fed(dg.z(2, 1, 0), _two_state()) if abs(n) > 3 else None
    digits = bin(abs(n))[2:]
    lead = int(digits[:2], 2)
    head = unit if lead == 1 else _two_state() if n > 0 else dg.seq(_two_state(), dg.z(1, 1, 1))
    stages = [add] if lead == 3 else []
    for digit in digits[2:]:
        stages += [double, add] if digit == "1" else [double]
    return dg.seq(head, *stages)


def ring_state(r) -> Diagram:
    """State (1, r) for any r in Z[1/2][omega], as one `seq` of 1->1 stages.

    The four omega components are built by phasing integer states, added
    with the w addition node, and the dyadic denominator is divided out by
    z-merging with copies of (1, 1/2) (the z merge multiplies second
    components).  Nodes and time are linear in the digits of r.
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
    stages = [_fed(w_add(), s) for s in parts[1:]]
    if r.e:
        stages += [_fed(dg.z(2, 1, 0), half_state())] * r.e
    return dg.seq(parts[0], *stages)


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
    return dg.ten(dot(b), Diagram.circle(k), unit_phase(math.atan2(value.imag, value.real) - b / 2.0))
