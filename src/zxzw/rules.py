"""Rewrite-rule databases for every axiom set, with a soundness verifier.

Each rule is stored as a builder that turns a variable binding into a
concrete (lhs, rhs) diagram pair.  Rules whose variables live on the pi/4
grid are checked exhaustively in exact arithmetic (up to a per-rule budget);
rules with continuous parameters are checked on sampled bindings.  The
verifier doubles as the transcription oracle: a rule enters a set only if
every checked instance is sound.

Every binding is decided by one contraction of the difference of its
sides (`semantics.laurent_difference`).  Bindings that differ only in
their `GRID8` phases, or only in their complex-valued ring parameters (r
and s of TA and the zw rules), are decided together: the pair is built
once with a variable for each such name, a phase variable or a `Laurent`
monomial in the parameter, and the difference is contracted exactly, as
a polynomial in z = e^{i phase} or in r and s, when the pair's other
constants are in the ring, as they are in every such rule here.  Each
binding is then decided at its point: exactly at its grid point, within
`tol` at its sampled parameter values.  A binding with no such partner is
contracted by the same difference, without variables, in the exact or
float ring that `interp` uses.

Sets:

=========  ====================================================================
zx-pi2     Clifford fragment: S, I, IV, CP, B, K, EU, H, ZO
zx-pi4     Clifford+T: zx-pi2 minus {IV, ZO}, plus E, SUP, C, BW
zx-pi4a    zx-pi4 plus the non-linear rule A (full universality)
zx-t       parametrised triangles: zx-pi4a minus {C, BW}, plus TD, TA
zw         the zw rule family (0a-7, X, R3)
zw-half    zw plus the half/circle cancellation
=========  ====================================================================
"""

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import diagrams as dg
from . import gadgets as gad
from .diagrams import Diagram
from .phases import Phase
from .rings import Cyclo, Laurent
from .semantics import FLOAT, check_tol, constants_exact, interp, laurent_difference, vanishes_at

F = Fraction

GRID8 = tuple(F(k, 4) for k in range(8))


class RuleError(ValueError):
    """A binding fell outside a rule's domain, a build went wrong, or a
    verification budget was negative."""


@dataclass(frozen=True)
class Rule:
    """One rewrite rule: a named schema plus instantiation machinery.

    ``grid`` lists each exact variable with its finite domain (phases as
    fractions of pi, arities as ints).  ``sample`` instead draws one full
    binding for continuously-parameterised rules; a rule has one or the
    other, never both.
    """

    name: str
    build: object  # binding dict -> (Diagram, Diagram)
    grid: tuple = ()
    sample: object = None
    domain: str = ""
    variants: tuple = ("flip",)

    @property
    def exact(self) -> bool:
        return self.sample is None


def _id(n):
    return Diagram.identity(n)


def _apply_variant(d: Diagram, variant: str) -> Diagram:
    if variant == "base":
        return d
    if variant == "flip":
        return dg.flip(d)
    if variant == "color":
        return dg.color_swap(d)
    raise RuleError(f"unknown variant {variant!r}")


def instantiate(rule: Rule, binding: dict, variant: str = "base"):
    """Build the concrete (lhs, rhs) pair for one binding and variant."""
    for name, values in rule.grid:
        if name in binding and binding[name] not in values:
            raise RuleError(f"{rule.name}: {name}={binding[name]!r} outside domain")
    return _sides(rule, rule.build(binding), variant)


def _sides(rule: Rule, pair: tuple, variant: str):
    """One variant of a built (lhs, rhs) pair, whose sides must agree on arity."""
    lhs, rhs = (_apply_variant(d, variant) for d in pair)
    if lhs.shape != rhs.shape:
        raise RuleError(f"{rule.name}: sides disagree on arity {lhs.shape} vs {rhs.shape}")
    return lhs, rhs


# -- the zx family ----------------------------------------------------------------


def _s_build(b):
    al, be = b["alpha"], b["beta"]
    n1, m1, k, n2, m2 = b["n1"], b["m1"], b["k"], b["n2"], b["m2"]
    lhs = dg.seq(
        dg.ten(dg.z(n1, m1 + k, al), _id(n2)),
        dg.ten(_id(m1), dg.z(k + n2, m2, be)),
    )
    return lhs, dg.z(n1 + n2, m1 + m2, al + be)


RULE_S = Rule(
    "S",
    _s_build,
    grid=(
        ("alpha", GRID8),
        ("beta", GRID8),
        ("n1", (0, 1, 2)),
        ("m1", (0, 1, 2)),
        ("k", (1, 2, 3)),
        ("n2", (0, 1, 2)),
        ("m2", (0, 1, 2)),
    ),
    domain="spiders of one colour fuse over k >= 1 shared wires; phases add",
    variants=("flip", "color"),
)

RULE_I = Rule(
    "I",
    lambda b: (dg.z(1, 1, 0), _id(1)),
    domain="a phaseless 1->1 spider is a plain wire",
    variants=("flip", "color"),
)

RULE_IV = Rule(
    "IV",
    lambda b: (dg.ten(gad.dot(F(1, 2)), gad.dot(F(-1, 2))), gad.dot(0)),
    domain="opposite quarter-turn dots cancel to the dot scalar 2",
    variants=("flip", "color"),
)


def _cp_build(b):
    a = b["a"]
    lhs = dg.ten(dg.seq(dg.z(0, 1, a), dg.x(1, 2, 0)), gad.sqrt2())
    return lhs, dg.ten(dg.z(0, 1, a), dg.z(0, 1, a))


RULE_CP = Rule(
    "CP",
    _cp_build,
    grid=(("a", (F(0), F(1))),),
    domain="the opposite colour copies a k*pi state",
    variants=("flip", "color"),
)


def _b_distributed():
    """B's distributed side without its sqrt(2): two copies, crossed, two merges."""
    xm, zc = dg.x(2, 1, 0), dg.z(1, 2, 0)
    return dg.seq(dg.ten(zc, zc), dg.ten(_id(1), Diagram.swap(), _id(1)), dg.ten(xm, xm))


def _b_build(b):
    return dg.seq(dg.x(2, 1, 0), dg.z(1, 2, 0)), dg.ten(_b_distributed(), gad.sqrt2())


RULE_B = Rule(
    "B",
    _b_build,
    domain="bialgebra between the two colours, sqrt(2) on the distributed side",
    variants=("flip", "color"),
)


def _k_build(b):
    a = b["a"]
    lhs = dg.ten(dg.seq(dg.x(1, 1, 1), dg.z(1, 1, a)), gad.sqrt2())
    rhs = dg.ten(dg.seq(dg.z(1, 1, -a), dg.x(1, 1, 1)), gad.phase_gadget(a))
    return lhs, rhs


RULE_K = Rule(
    "K",
    _k_build,
    grid=(("a", GRID8),),
    domain="a pi flip commutes through a phase, negating it",
    variants=("flip", "color"),
)


def _eu_build(b):
    lhs = dg.ten(dg.h(), gad.sqrt2())
    rhs = dg.ten(
        dg.seq(dg.z(1, 1, F(1, 2)), dg.x(1, 1, F(1, 2)), dg.z(1, 1, F(1, 2))),
        gad.dot(F(-1, 2)),
    )
    return lhs, rhs


RULE_EU = Rule(
    "EU",
    _eu_build,
    domain="Euler decomposition of the Hadamard node",
    variants=("flip", "color"),
)


def _h_build(b):
    a, n, m = b["a"], b["n"], b["m"]
    return dg.x(n, m, a), dg.seq(dg.h_layer(n), dg.z(n, m, a), dg.h_layer(m))


RULE_H = Rule(
    "H",
    _h_build,
    grid=(("a", GRID8), ("n", (0, 1, 2)), ("m", (0, 1, 2))),
    domain="Hadamards on every leg change a spider's colour",
    variants=("flip", "color"),
)

RULE_ZO = Rule(
    "ZO",
    lambda b: (
        dg.ten(gad.dot(1), gad.dot(b["a"])),
        dg.ten(gad.dot(1), gad.dot(0)),
    ),
    grid=(("a", GRID8),),
    domain="the zero scalar absorbs any dot",
    variants=("flip", "color"),
)

RULE_E = Rule(
    "E",
    lambda b: (
        dg.seq(dg.z(0, 1, F(1, 4)), dg.x(1, 0, F(-1, 4))),
        Diagram.empty(),
    ),
    domain="the +pi/4 / -pi/4 state-costate pair is the empty scalar",
    variants=("flip", "color"),
)


def _sup_build(b):
    a = b["a"]
    lhs = dg.ten(
        dg.seq(dg.ten(dg.z(0, 1, a), dg.z(0, 1, a + 1)), dg.x(2, 1, 0)),
        gad.dot(0),
    )
    rhs = dg.ten(gad.dot(2 * a + 1), dg.x(0, 1, 0))
    return lhs, rhs


RULE_SUP = Rule(
    "SUP",
    _sup_build,
    grid=(("a", GRID8),),
    domain="merging antipodal states collapses to an unbiased state",
    variants=("flip", "color"),
)


def _c_build(b):
    t = gad.triangle()
    return dg.seq(t, dg.z(1, 1, 1), t), dg.z(1, 1, 1)


RULE_C = Rule(
    "C",
    _c_build,
    domain="a pi spider passes through a triangle sandwich",
    variants=("flip", "color"),
)


def _bw_build(b):
    t, w21 = gad.triangle(), gad.w21_zx()
    inner = dg.seq(dg.x(1, 1, 1), t, dg.x(1, 1, 1))
    lhs = dg.seq(w21, t)
    rhs = dg.seq(dg.ten(gad.wire(), inner), w21)
    return lhs, rhs


RULE_BW = Rule(
    "BW",
    _bw_build,
    domain="a triangle slides through the w-style merge",
    variants=("flip", "color"),
)


def _a_sample(rng):
    return {
        "alpha": rng.uniform(-math.pi, math.pi),
        "beta": rng.uniform(-math.pi, math.pi),
        "branch": rng.randrange(4),
        "n": rng.randint(1, 3),
    }


def _a_build(b):
    al, be, n = b["alpha"], b["beta"], b["n"]
    d0, g0 = (al + be) / 2.0, (al - be) / 2.0
    gamma, delta = (
        (g0, d0),
        (-g0, d0),
        (math.pi - g0, d0 + math.pi),
        (math.pi + g0, d0 + math.pi),
    )[b["branch"]]
    lhs = dg.seq(dg.ten(dg.z(0, 1, al), dg.z(0, 1, be)), dg.x(2, n, 0))
    rhs = dg.seq(
        dg.ten(dg.z(0, 1, gamma + delta), dg.z(0, 1, delta - gamma)),
        dg.x(2, n, 0),
    )
    return lhs, rhs


RULE_A = Rule(
    "A",
    _a_build,
    sample=_a_sample,
    domain="2 cos(gamma) e^{i delta} = e^{i alpha} + e^{i beta}",
    variants=("flip", "color"),
)


def _w21_t() -> Diagram:
    """The 2->1 w merge with a native parametrised triangle inside."""
    return dg.seq(
        gad.cnot_down(),
        dg.ten(gad.wire(), dg.flip(dg.tri(1))),
        dg.z(2, 1, 0),
        dg.x(1, 1, 1),
    )


def _ta_sample(rng):
    return {
        "r": complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        "s": complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
    }


RULE_TA = Rule(
    "TA",
    lambda b: (dg.seq(dg.tri(b["r"]), dg.tri(b["s"])), dg.tri(b["r"] + b["s"])),
    sample=_ta_sample,
    domain="triangle parameters add under composition",
    variants=("flip",),
)


def _td_sample(rng):
    return {
        "alpha": rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1),
        "gamma": rng.uniform(-math.pi, math.pi),
    }


def _td_build(b):
    a, g = b["alpha"], b["gamma"]
    if abs(math.cos(a)) < 1e-9:
        raise RuleError("TD: alpha at pi/2 mod pi is outside the domain")
    r = cmath.exp(1j * g) * math.tan(a)
    lhs = dg.ten(dg.tri(r), gad.dot(2 * a))
    body = dg.seq(
        dg.z(1, 1, g),
        dg.x(1, 1, 1),
        dg.ten(gad.tan_state(a), gad.wire()),
        _w21_t(),
        dg.z(1, 1, -g),
    )
    return lhs, dg.ten(body, gad.sqrt2())


RULE_TD = Rule(
    "TD",
    _td_build,
    sample=_td_sample,
    domain="r = e^{i gamma} tan(alpha), alpha != pi/2 mod pi",
    variants=("flip",),
)


# -- the zw family ----------------------------------------------------------------


def _r_complex(rng):
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def _w1c_sample(rng):
    return {
        "r": _r_complex(rng),
        "s": _r_complex(rng),
        "n1": rng.randint(0, 2),
        "m1": rng.randint(0, 2),
        "k": rng.randint(1, 2),
        "n2": rng.randint(0, 2),
        "m2": rng.randint(0, 2),
    }


def _w1c_build(b):
    r, s = b["r"], b["s"]
    n1, m1, k, n2, m2 = b["n1"], b["m1"], b["k"], b["n2"], b["m2"]
    if not all(0 <= v <= 4 for v in (n1, m1, n2, m2)) or not 1 <= k <= 4:
        raise RuleError("1c: arity outside the configured bounds")
    lhs = dg.seq(
        dg.ten(dg.white(n1, m1 + k, r), _id(n2)),
        dg.ten(_id(m1), dg.white(k + n2, m2, s)),
    )
    return lhs, dg.white(n1 + n2, m1 + m2, r * s)


def _v_node() -> Diagram:
    """The 2->1 composite that keeps |00> and sums the mixed terms."""
    return dg.seq(dg.w21(), dg.w11())


def _u_zero() -> Diagram:
    """The |0> state written with w generators only."""
    return dg.seq(Diagram.cap(), dg.w21(), dg.w11())


ZW_RULES = (
    Rule(
        "0a",
        lambda b: (dg.seq(dg.zw_cross(), dg.zw_cross()), _id(2)),
        domain="the signed crossing is an involution",
    ),
    Rule(
        "0b",
        lambda b: (
            dg.seq(dg.zw_cross(), Diagram.cup()),
            dg.seq(dg.ten(dg.white(1, 1, -1), gad.wire()), Diagram.swap(), Diagram.cup()),
        ),
        domain="bending the signed crossing leaves a -1 node",
    ),
    Rule(
        "0c",
        lambda b: (
            dg.seq(dg.ten(dg.white(1, 1, b["r"]), gad.wire()), dg.zw_cross()),
            dg.seq(dg.zw_cross(), dg.ten(gad.wire(), dg.white(1, 1, b["r"]))),
        ),
        sample=lambda rng: {"r": _r_complex(rng)},
        domain="white nodes slide through the signed crossing",
    ),
    Rule(
        "1a",
        lambda b: (dg.seq(dg.white(1, 1, -1), dg.white(1, 1, -1)), _id(1)),
        domain="the -1 node is an involution",
    ),
    Rule(
        "1b",
        lambda b: (
            dg.seq(dg.white(1, 1, b["s"]), dg.white(1, 2, b["r"])),
            dg.white(1, 2, b["r"] * b["s"]),
        ),
        sample=lambda rng: {"r": _r_complex(rng), "s": _r_complex(rng)},
        domain="a 1->1 white node fuses into a split, multiplying parameters",
    ),
    Rule(
        "1c",
        _w1c_build,
        sample=_w1c_sample,
        domain="white nodes fuse over any shared wires, multiplying parameters",
    ),
    Rule(
        "2a",
        lambda b: (dg.seq(dg.w11(), dg.w11()), _id(1)),
        domain="the 1->1 w node is an involution",
    ),
    Rule(
        "2b",
        lambda b: (dg.seq(dg.ten(_u_zero(), gad.wire()), dg.w21()), dg.w11()),
        domain="the w unit turns the merge into the 1->1 node",
    ),
    Rule(
        "2c",
        lambda b: (dg.seq(Diagram.swap(), dg.w21()), dg.w21()),
        domain="the w merge is commutative",
    ),
    Rule(
        "2d",
        lambda b: (
            dg.seq(dg.ten(_v_node(), gad.wire()), dg.w21()),
            dg.seq(dg.ten(gad.wire(), _v_node()), dg.w21()),
        ),
        domain="the w merge is associative",
    ),
    Rule(
        "3a",
        lambda b: (
            dg.seq(dg.ten(dg.w21(), gad.wire()), dg.zw_cross()),
            dg.seq(
                dg.ten(gad.wire(), gad.wire(), dg.white(1, 1, -1)),
                dg.ten(gad.wire(), dg.zw_cross()),
                dg.ten(dg.zw_cross(), gad.wire()),
                dg.ten(gad.wire(), dg.w21()),
            ),
        ),
        domain="the merge braids through the signed crossing",
    ),
    Rule(
        "3b",
        lambda b: (
            dg.seq(dg.ten(dg.w11(), gad.wire()), dg.zw_cross()),
            dg.seq(
                dg.ten(gad.wire(), dg.white(1, 1, -1)),
                dg.zw_cross(),
                dg.ten(gad.wire(), dg.w11()),
            ),
        ),
        domain="the 1->1 w node braids through the signed crossing",
    ),
    Rule(
        "4a",
        lambda b: (
            dg.seq(
                dg.ten(dg.white(0, 1, b["r"]), dg.white(0, 1, b["s"])),
                dg.w21(),
                dg.w11(),
            ),
            dg.white(0, 1, b["r"] + b["s"]),
        ),
        sample=lambda rng: {"r": _r_complex(rng), "s": _r_complex(rng)},
        domain="white states add under the w-style sum",
    ),
    Rule(
        "4b",
        lambda b: (
            dg.seq(
                dg.ten(dg.white(0, 1, b["r"]), dg.white(0, 1, -b["r"])),
                dg.w21(),
                dg.w11(),
            ),
            dg.white(0, 1, 0),
        ),
        sample=lambda rng: {"r": _r_complex(rng)},
        domain="opposite white states cancel to the unit",
    ),
    Rule(
        "5",
        lambda b: (
            dg.seq(dg.w21(), dg.w11(), dg.white(1, 2, b["r"])),
            dg.seq(
                dg.ten(dg.white(1, 2, b["r"]), dg.white(1, 2, b["r"])),
                dg.ten(gad.wire(), dg.zw_cross(), gad.wire()),
                dg.ten(_v_node(), _v_node()),
            ),
        ),
        sample=lambda rng: {"r": _r_complex(rng)},
        domain="the white split distributes over the w sum",
    ),
    Rule(
        "6a",
        lambda b: (Diagram.circle(1), dg.white(0, 0, 1)),
        domain="a closed loop is the scalar-2 white node",
    ),
    Rule(
        "6b",
        lambda b: (
            dg.seq(Diagram.cap(), dg.zw_cross(), Diagram.cup()),
            dg.white(0, 0, -1),
        ),
        domain="tracing the signed crossing on a bent wire gives zero",
    ),
    Rule(
        "6c",
        lambda b: (
            dg.seq(
                Diagram.cap(),
                dg.ten(dg.white(1, 1, b["r"]), gad.wire()),
                dg.zw_cross(),
                Diagram.cup(),
            ),
            dg.white(0, 0, -b["r"]),
        ),
        sample=lambda rng: {"r": _r_complex(rng)},
        domain="the signed trace negates a white parameter",
    ),
    Rule(
        "7",
        lambda b: (
            dg.seq(
                dg.ten(gad.wire(), Diagram.cap()),
                dg.ten(dg.zw_cross(), gad.wire()),
                dg.ten(gad.wire(), Diagram.cup()),
            ),
            dg.white(1, 1, -1),
        ),
        domain="the partial trace of the signed crossing is the -1 node",
    ),
    Rule(
        "X",
        lambda b: (
            dg.seq(Diagram.swap(), dg.zw_cross(), Diagram.swap()),
            dg.zw_cross(),
        ),
        domain="the signed crossing is symmetric under wire exchange",
    ),
    Rule(
        "R3",
        lambda b: (
            dg.seq(
                dg.ten(dg.zw_cross(), gad.wire()),
                dg.ten(gad.wire(), dg.zw_cross()),
                dg.ten(dg.zw_cross(), gad.wire()),
            ),
            dg.seq(
                dg.ten(gad.wire(), dg.zw_cross()),
                dg.ten(dg.zw_cross(), gad.wire()),
                dg.ten(gad.wire(), dg.zw_cross()),
            ),
        ),
        domain="signed crossings satisfy the braid relation",
    ),
)

RULE_HALF = Rule(
    "half",
    lambda b: (dg.ten(dg.half(), Diagram.circle(1)), Diagram.empty()),
    domain="the half scalar cancels a closed loop",
)


# -- sets -------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomSet:
    """A named tuple of rules, and the tags of the diagrams that it holds
    (the empty diagram, which has no tag, fits every set)."""

    name: str
    rules: tuple
    tags: tuple

    def __iter__(self):
        return iter(self.rules)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)


_PI2 = (RULE_S, RULE_I, RULE_IV, RULE_CP, RULE_B, RULE_K, RULE_EU, RULE_H, RULE_ZO)
_PI4 = (RULE_S, RULE_I, RULE_CP, RULE_B, RULE_K, RULE_EU, RULE_H, RULE_E, RULE_SUP, RULE_C, RULE_BW)
_PI4A = _PI4 + (RULE_A,)
_ZXT = tuple(r for r in _PI4A if r.name not in ("C", "BW")) + (RULE_TD, RULE_TA)

AXIOM_SETS = {
    "zx-pi2": AxiomSet("zx-pi2", _PI2, ("zx",)),
    "zx-pi4": AxiomSet("zx-pi4", _PI4, ("zx",)),
    "zx-pi4a": AxiomSet("zx-pi4a", _PI4A, ("zx",)),
    "zx-t": AxiomSet("zx-t", _ZXT, ("zx", "zxt")),
    "zw": AxiomSet("zw", ZW_RULES, ("zw",)),
    "zw-half": AxiomSet("zw-half", ZW_RULES + (RULE_HALF,), ("zw",)),
}


def axiom_set(name: str) -> AxiomSet:
    try:
        return AXIOM_SETS[name]
    except KeyError:
        raise RuleError(f"unknown axiom set {name!r}; have {sorted(AXIOM_SETS)}") from None


# -- verification -----------------------------------------------------------------


MAX_FAILURES = 3  # failure records kept in a report; `failed` counts them all


@dataclass
class RuleReport:
    rule: str
    instances: int
    status: str
    failures: list = field(default_factory=list)
    failed: int = 0

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "instances": self.instances,
            "status": self.status,
            "failures": self.failures,
        }


@dataclass
class Report:
    set_name: str
    rules: list

    @property
    def all_pass(self) -> bool:
        return all(r.status == "PASS" for r in self.rules)

    def to_json(self) -> dict:
        return {
            "set": self.set_name,
            "rules": [r.to_json() for r in self.rules],
            "all_pass": self.all_pass,
        }


def _json_value(v):
    if isinstance(v, Fraction):
        return f"{v}*pi"
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Cyclo):
        return str(v)
    return v


def _json_matrix(m) -> list:
    rows, cols = m.shape
    if rows * cols > 256:
        return [[f"({rows}x{cols} matrix elided)"]]
    return [[_json_value(m[i, j]) for j in range(cols)] for i in range(rows)]


def _bindings_for(rule: Rule, budget: int, samples: int, rng: random.Random):
    if rule.sample is not None:
        return [rule.sample(rng) for _ in range(samples)]
    if not rule.grid:
        return [{}]
    names = [n for n, _ in rule.grid]
    domains = [vals for _, vals in rule.grid]
    total = math.prod(len(v) for v in domains)
    if total <= budget:
        return [dict(zip(names, combo)) for combo in itertools.product(*domains)]
    # `budget` distinct grid points, in grid order: indices into the
    # product, decoded in mixed radix with the last name varying fastest
    bindings = []
    for index in sorted(rng.sample(range(total), budget)):
        combo = []
        for vals in reversed(domains):
            index, r = divmod(index, len(vals))
            combo.append(vals[r])
        bindings.append(dict(zip(names, reversed(combo))))
    return bindings


def _decide_group(rule: Rule, group: list, names: list, variants: tuple, tol: float) -> dict:
    """The verdicts per variant of each binding in `group`, which agree on
    every name but those in `names`: the `GRID8` phases of a grid rule, the
    complex-valued ring parameters of a sampled one.  One build, one
    contraction of the difference per variant, and each binding decided at
    its point: z = omega^(4 * value) for a phase, the sampled value for a
    parameter.  Two or more bindings are built with a variable per name (a
    phase variable, or a `Laurent` monomial in the parameter), and the
    difference is exact when the pair's other constants are in the ring; a
    lone binding is built as it is, and its difference has no variables."""
    names = names if len(group) > 1 else []
    phases, params = (names, []) if rule.exact else ([], names)
    variables = {name: Phase.var(name) for name in phases}
    for i, name in enumerate(params):
        variables[name] = Laurent({tuple(int(j == i) for j in range(len(params))): 1})
    pair = rule.build({**group[0], **variables})
    exact = all(constants_exact(d) for d in pair)
    points = [[int(4 * b[n]) for n in phases] + [b[n] for n in params] for b in group]
    verdicts = [[] for _ in group]
    for v in variants:
        _, grid = laurent_difference(*_sides(rule, pair, v), phases, exact, params)
        for out, point in zip(verdicts, points):
            out.append(vanishes_at(grid, point, tol))
    return {id(b): out for b, out in zip(group, verdicts)}


def verify_rule(
    rule: Rule,
    budget: int = 4096,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> RuleReport:
    """Check one rule over its grid or sampled bindings, plus all variants.

    Every binding is decided by `_decide_group`: those that agree on all
    but their `GRID8` phases, or on all but their complex-valued ring
    parameters, together; a lone one on its own.  The report is that of
    checking every instance with `interp`."""
    if budget < 0 or samples < 0:
        raise RuleError(f"budget and samples must be non-negative, got {budget} and {samples}")
    check_tol(tol)  # a meaningless tolerance is refused for exact rules too
    rng = random.Random(f"{seed}:{rule.name}")
    bindings = _bindings_for(rule, budget, samples, rng)
    variants = ("base",) + tuple(rule.variants)
    if rule.exact:
        names = [name for name, values in rule.grid if values is GRID8]
    else:  # a sampler draws each name's value with one type
        names = [k for k, v in (bindings[0] if bindings else {}).items() if isinstance(v, complex)]

    def others(b):
        return tuple(v for k, v in b.items() if k not in names)

    groups: dict = {}
    for b in bindings:
        groups.setdefault(others(b), []).append(b)
    decided: dict = {}  # id(binding) -> its verdicts
    checked = failed = 0
    failures = []
    for b in bindings:
        if id(b) not in decided:
            decided.update(_decide_group(rule, groups[others(b)], names, variants, tol))
        for v, ok in zip(variants, decided[id(b)]):
            checked += 1
            if ok:
                continue
            failed += 1
            if len(failures) < MAX_FAILURES:
                lhs, rhs = instantiate(rule, b, v)
                failures.append(
                    {
                        "binding": {k: _json_value(val) for k, val in b.items()},
                        "variant": v,
                        "lhs_matrix": _json_matrix(interp(lhs, FLOAT)),
                        "rhs_matrix": _json_matrix(interp(rhs, FLOAT)),
                    }
                )
    status = "PASS" if checked and not failed else "FAIL"  # no PASS on zero instances
    return RuleReport(rule.name, checked, status, failures, failed)


def verify_soundness(
    axioms,
    budget: int = 4096,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> Report:
    """Verify every rule of a set; failures are data, not exceptions."""
    if isinstance(axioms, str):
        axioms = axiom_set(axioms)
    reports = [verify_rule(r, budget, samples, seed, tol) for r in axioms.rules]
    return Report(axioms.name, reports)


# -- deliberate mutations (verification controls) ----------------------------------


def corrupted_rules() -> tuple:
    """Ten broken variations; each must FAIL verification.  `control`
    builds each from its rule, replacing only the side or sides that it
    breaks."""

    def control(rule, name, lhs=None, rhs=None):
        def build(b):
            pair = rule.build(b)
            return (pair[0] if lhs is None else lhs(b)), (pair[1] if rhs is None else rhs(b))

        return replace(rule, name=name, build=build, domain=rule.domain + " (deliberately broken)")

    def sup_lhs(b):  # the states a quarter turn apart, not antipodal
        states = dg.ten(dg.z(0, 1, b["a"]), dg.z(0, 1, b["a"] + F(1, 2)))
        return dg.ten(dg.seq(states, dg.x(2, 1, 0)), gad.dot(0))

    def k_rhs(b):  # sqrt(2) where the phase gadget belongs
        return dg.ten(dg.seq(dg.z(1, 1, -b["a"]), dg.x(1, 1, 1)), gad.sqrt2())

    def eu_rhs(b):  # the dot's quarter turn has the wrong sign
        q = F(1, 2)
        return dg.ten(dg.seq(dg.z(1, 1, q), dg.x(1, 1, q), dg.z(1, 1, q)), gad.dot(q))

    def s_rhs(b):  # the phases subtract
        return dg.z(b["n1"] + b["n2"], b["m1"] + b["m2"], b["alpha"] - b["beta"])

    def c_lhs(b):  # a pi/2 spider, not a pi one, in the sandwich
        t = gad.triangle()
        return dg.seq(t, dg.z(1, 1, F(1, 2)), t)

    zw = AXIOM_SETS["zw"]
    return (
        control(RULE_SUP, "SUP~bad", lhs=sup_lhs),
        control(RULE_K, "K~bad", rhs=k_rhs),
        control(RULE_B, "B~bad", rhs=lambda b: _b_distributed()),  # no sqrt(2)
        control(RULE_EU, "EU~bad", rhs=eu_rhs),
        control(RULE_S, "S~bad", rhs=s_rhs),
        control(RULE_TA, "TA~bad", rhs=lambda b: dg.tri(b["r"] - b["s"])),
        control(zw.rule("4a"), "4a~bad", rhs=lambda b: dg.white(0, 1, b["r"] * b["s"])),
        control(RULE_HALF, "half~bad", lhs=lambda b: dg.half()),
        control(zw.rule("0a"), "cross~bad", lhs=lambda b: dg.zw_cross(),
                rhs=lambda b: Diagram.swap()),
        control(RULE_C, "C~bad", lhs=c_lhs, rhs=lambda b: dg.z(1, 1, F(1, 2))),
    )
