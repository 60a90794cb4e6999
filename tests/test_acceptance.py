"""Acceptance gate: one test per shipped guarantee.

Each test is a self-contained pass/fail check of one advertised property,
with the tolerances and budgets used in the documentation pinned as
constants here.  Run with `pytest tests/test_acceptance.py -v` to get one
line per criterion.
"""

import cmath
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import zxzw.gadgets as gad
import zxzw.rewrite as rw
import zxzw.rules as rules
import zxzw.translate as tr
from helpers import as_array, random_diagram
from test_translate import td_oracle
from zxzw.diagrams import (
    Diagram,
    h,
    half,
    seq,
    ten,
    tri,
    w11,
    w12,
    w21,
    white,
    x,
    z,
    zw_cross,
)
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, Float, eq_linear, eq_semantic, interp

TOL = 1e-9
INV_TOL = 1e-12
GRID_BUDGET = 4096
CONTINUOUS_SAMPLES = 1000

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

_RT2 = Cyclo(0, 1, 0, -1)  # sqrt(2)
_IRT2 = Cyclo(0, 1, 0, -1, 1)  # 1/sqrt(2)
_W = Cyclo.omega_power


def test_criterion_1_generator_fidelity():
    """Every generator's matrix, bit-exact, in under a second."""
    goldens = [
        (h(), [[_IRT2, _IRT2], [_IRT2, -_IRT2]]),
        (z(1, 1, F(1, 4)), [[1, 0], [0, _W(1)]]),
        (z(2, 1, 0), [[1, 0, 0, 0], [0, 0, 0, 1]]),
        (z(0, 1, 1), [[1], [-1]]),
        (z(0, 0, F(1, 2)), [[Cyclo(1, 0, 1)]]),
        (x(1, 1, 1), [[0, 1], [1, 0]]),
        (x(0, 1, 0), [[_RT2], [0]]),
        (Diagram.identity(1), [[1, 0], [0, 1]]),
        (Diagram.empty(), [[1]]),
        (Diagram.circle(1), [[2]]),
        (Diagram.swap(), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        (Diagram.cup(), [[1, 0, 0, 1]]),
        (Diagram.cap(), [[1], [0], [0], [1]]),
        (w11(), [[0, 1], [1, 0]]),
        (w12(), [[0, 1], [1, 0], [1, 0], [0, 0]]),
        (w21(), [[0, 1, 1, 0], [1, 0, 0, 0]]),
        (white(1, 1, -1), [[1, 0], [0, -1]]),
        (white(2, 1, _W(1)), [[1, 0, 0, 0], [0, 0, 0, _W(1)]]),
        (white(0, 0, Cyclo(3)), [[4]]),
        (zw_cross(), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]),
        (half(), [[Cyclo(1, 0, 0, 0, 1)]]),
        (tri(1), [[1, 1], [0, 1]]),
    ]
    start = time.perf_counter()
    assert len(goldens) >= 15
    for d, expected in goldens:
        assert interp(d, EXACT) == Matrix.from_rows(expected), d
    assert time.perf_counter() - start < 1.0


def test_criterion_2_axiom_soundness():
    """All six axiom sets verify; ten corrupted rules all fail; < 5 min."""
    start = time.perf_counter()
    for name in sorted(rules.AXIOM_SETS):
        report = rules.verify_soundness(
            name, budget=GRID_BUDGET, samples=CONTINUOUS_SAMPLES, seed=0, tol=TOL
        )
        assert report.all_pass, f"{name}: {[r.rule for r in report.rules if r.status != 'PASS']}"
    mutants = rules.corrupted_rules()
    assert len(mutants) == 10
    for mut in mutants:
        rep = rules.verify_rule(mut, budget=GRID_BUDGET, samples=200, seed=0, tol=TOL)
        assert rep.status == "FAIL", mut.name
    assert time.perf_counter() - start < 300.0


def test_criterion_3_round_trip():
    """Exact round trip through the other calculus, 200 random diagrams."""
    rng = random.Random(17)
    start = time.perf_counter()
    for _ in range(200):
        n_in = rng.randrange(4)
        n_out = rng.randrange(4 - n_in)
        d = random_diagram(rng, n_in=n_in, n_out=n_out, tag="zx", max_nodes=7)
        assert len(d.nodes) <= 8
        back = tr.round_trip(d)
        assert interp(d, EXACT) == interp(back, EXACT)
    assert time.perf_counter() - start < 120.0


def test_criterion_4_inverse_construction():
    """gn_inverse really inverts the 0->0 phase dot, exactly on the grid."""
    for k in range(8):
        if k == 4:
            continue
        d = ten(tr.gn_inverse(F(k, 4)), gad.dot(F(k, 4)))
        assert interp(d, EXACT) == Matrix.from_rows([[1]]), k
    rng = random.Random(23)
    for _ in range(100):
        alpha = rng.uniform(0, 2 * math.pi)
        if abs(alpha - math.pi) < 1e-3:
            continue
        d = ten(tr.gn_inverse(alpha), gad.dot(alpha))
        val = interp(d, Float(INV_TOL))[0, 0]
        assert abs(val - 1) <= INV_TOL, alpha


def test_criterion_5_encoding_laws():
    """White-parameter addition and multiplication patterns, 200 pairs."""
    rng = random.Random(41)

    def draw_pair():
        while True:
            r1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(r1 + r2) > 0.1 and abs(r1) > 0.05 and abs(r2) > 0.05:
                return r1, r2

    for _ in range(200):
        r1, r2 = draw_pair()
        add_lhs = seq(ten(white(0, 1, r1), white(0, 1, r2)), w21(), w11())
        assert eq_semantic(add_lhs, white(0, 1, r1 + r2), Float(TOL))
        mul_lhs = seq(white(0, 1, r1), white(1, 1, r2))
        assert eq_semantic(mul_lhs, white(0, 1, r1 * r2), Float(TOL))

        e1, e2 = tr.encode_param(r1), tr.encode_param(r2)
        back1 = e1.rho * cmath.exp(1j * e1.theta)
        back2 = e2.rho * cmath.exp(1j * e2.theta)
        assert abs(back1 - r1) <= TOL and abs(back2 - r2) <= TOL
        total = back1 + back2
        enc = tr.encode_param(total)
        theta3 = cmath.phase(total)
        lam = math.acos(min(1.0, abs(total) / 2**enc.n))
        assert abs(cmath.exp(1j * enc.theta) - cmath.exp(1j * theta3)) <= TOL
        assert abs(enc.beta - lam) <= TOL


def test_criterion_6_triangle_laws():
    """The triangle's ZX image, through its round trip, against the
    independent contraction oracle."""
    import numpy as np

    rng = random.Random(59)
    for _ in range(100):
        r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = as_array(interp(tr.round_trip(tri(r)), Float(TOL)))
        assert np.allclose(got, td_oracle(r), atol=TOL), r

    for _ in range(20):
        r1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = seq(w12(), ten(tr.zw_triangle(r1), tr.zw_triangle(r2)), w21())
        rhs = seq(w12(), ten(tr.zw_triangle(r1 + r2), Diagram.identity(1)), w21())
        assert interp(lhs, Float(TOL)).close(interp(rhs, Float(TOL)), TOL)

    assert interp(tr.round_trip(tri(0)), EXACT) == Matrix.from_rows([[1, 0], [0, 1]])


def test_criterion_7_rewrite_preservation():
    """simplify is semantics-preserving on 500 random diagrams."""
    rng = random.Random(73)
    for k in range(500):
        tag = ("zx", "zxt", "zw")[k % 3]
        d = random_diagram(rng, tag=tag, max_nodes=5)
        out, _ = rw.simplify(d)
        assert eq_semantic(d, out), (k, tag)


def test_criterion_8_proof_scripts():
    """Shipped derivations PASS; corrupted variants FAIL at the right step."""
    shipped = [
        ("scalar-one.zxp", "(Z 0 1 pi/4)", "(Z 0 1 3*pi/4)", 0),
        ("w-unit.zwp", "(seq (W 1 1) (W 1 1) (W 1 1))", "(seq (W 1 1) (W 1 1))", 0),
        ("triangle-fusion.zxp", "(tri 2)", "(tri 3)", 0),
        ("pi-commutation.zxp", "(X 1 1 pi) (Z 1 1 pi/4)", "(X 1 1 pi) (Z 1 1 pi/2)", 0),
    ]
    assert len(shipped) >= 3
    for name, needle, replacement, fail_step in shipped:
        text = (PROOF_DIR / name).read_text()
        good = rw.check_proof(rw.parse_proof(text))
        assert good.ok, (name, good.failures)
        bad = rw.check_proof(rw.parse_proof(text.replace(needle, replacement)))
        assert not bad.ok, name
        assert bad.failures[0]["step"] == fail_step, (name, bad.failures)


def criterion_9_pairs():
    """Ten true variable-phase laws and ten false ones."""
    a = Phase.var("a")
    b = Phase.var("b")
    neg_a = Phase.var("a", -1)
    identities = [
        (seq(z(1, 1, a), z(1, 1, neg_a)), Diagram.identity(1)),
        (seq(z(1, 1, a), z(1, 1, b)), z(1, 1, a + b)),
        (seq(z(2, 1, a), z(1, 1, b)), z(2, 1, a + b)),
        (seq(h(), z(1, 1, a), h()), x(1, 1, a)),
        (x(0, 1, a), seq(z(0, 1, a), h())),
        (seq(z(0, 1, a), z(1, 1, b)), z(0, 1, a + b)),
        (ten(gad.dot(a), gad.dot(b)), ten(gad.dot(b), gad.dot(a))),
        (ten(gad.phase_gadget(a), gad.phase_gadget(neg_a)), Diagram.circle(1)),
        (
            ten(seq(x(1, 1, 1), z(1, 1, a)), gad.sqrt2()),
            ten(seq(z(1, 1, neg_a), x(1, 1, 1)), gad.phase_gadget(a)),
        ),
        (gad.merge_x(z(0, 1, a), z(0, 1, b)), gad.merge_x(z(0, 1, b), z(0, 1, a))),
    ]
    refuted = [
        (z(1, 1, a), z(1, 1, a + a)),
        (z(1, 1, a), x(1, 1, a)),
        (seq(z(1, 1, a), z(1, 1, b)), z(1, 1, a)),
        (z(0, 1, a), x(0, 1, a)),
        (seq(h(), z(1, 1, a)), seq(z(1, 1, a), h())),
        (gad.dot(a), gad.dot(neg_a)),
        (gad.phase_gadget(a), gad.dot(a)),
        (ten(z(1, 1, a), gad.dot(0)), z(1, 1, a)),
        (x(1, 1, a), x(1, 1, a + 1)),
        (z(2, 1, a), x(2, 1, a)),
    ]
    return identities, refuted


def test_criterion_9_linear_diagrams():
    """eq_linear separates ten true variable-phase laws from ten false ones."""
    identities, refuted = criterion_9_pairs()
    for d1, d2 in identities:
        res = eq_linear(d1, d2, samples=30, seed=7, tol=TOL)
        assert res.equal, (d1, d2)
    for d1, d2 in refuted:
        res = eq_linear(d1, d2, samples=30, seed=7, tol=TOL)
        assert not res.equal
        assert res.witness is not None
