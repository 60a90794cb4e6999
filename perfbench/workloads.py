"""Seeded inputs and known answers for the three benchmark workloads.

Every workload is a list of `Item`s built from a seed and a pass number.
An item's `run` is the timed call into the library; `check` compares its
output with the answer this file knows beforehand (by construction or from
the documented guarantees) and runs outside the timed region.  Sizes are
drawn from fixed schedules and stratified random draws, so that the total
cost of a pass varies little from seed to seed while the content varies.

The inputs are made here, not taken from the library's test helpers: the
library only ever sees the generated diagrams, texts and rules.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import zxzw.gadgets as gad
from zxzw import dsl, rewrite, rules, translate
from zxzw.diagrams import Diagram, Gen, h, iso_equal, seq, ten, white, x, z
from zxzw.phases import Phase
from zxzw.semantics import EXACT, eq_linear, eq_semantic

WORKLOADS = ("verify", "translate", "syntax")

# verify: bindings per grid rule and draws per sampled rule.  Small enough
# that a pass takes seconds, large enough that every corrupted control
# FAILs on every seed (see the smoke test).
VERIFY_BUDGET = 48
VERIFY_SAMPLES = 24
LINEAR_SAMPLES = 30
LINEAR_TOL = 1e-9

# The shipped proofs, each with the text edit that breaks it and the step
# that must then fail (acceptance criterion 8).
PROOFS = (
    ("scalar-one.zxp", "(Z 0 1 pi/4)", "(Z 0 1 3*pi/4)", 0),
    ("w-unit.zwp", "(seq (W 1 1) (W 1 1) (W 1 1))", "(seq (W 1 1) (W 1 1))", 0),
    ("triangle-fusion.zxp", "(tri 2)", "(tri 3)", 0),
    ("pi-commutation.zxp", "(X 1 1 pi) (Z 1 1 pi/4)", "(X 1 1 pi) (Z 1 1 pi/2)", 0),
)


@dataclass
class Item:
    """One timed call and the known answer its output must match.

    `run` returns the output; `check(output)` is True when the output is
    right.  `nodes(output)` and `text_bytes(output)` size what the item
    produced: diagram nodes and bytes of printed text.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    nodes: Callable[[Any], int] = lambda out: 0
    text_bytes: Callable[[Any], int] = lambda out: 0


def pass_rng(seed: int, pass_no: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{pass_no}:{stream}")


def build(workload: str, seed: int, pass_no: int, root: Path, scale: float = 1.0) -> list[Item]:
    """The items of one pass.  `scale` < 1 shrinks the lists (smoke test)."""
    if workload == "verify":
        return verify_items(seed, pass_no, root, scale)
    if workload == "translate":
        return translate_items(seed, pass_no, scale)
    if workload == "syntax":
        return syntax_items(seed, pass_no, scale)
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def warmup_items(workload: str, root: Path) -> list[Item]:
    """A few small items on the workload's code paths, run untimed during
    set-up so that lazy imports and caches are filled before timing."""
    rng = random.Random("warm-up")
    if workload == "verify":
        rule = rules.AXIOM_SETS["zx-pi2"].rule("I")
        return [_rule_item("warm/I", rule, 0, "PASS"), linear_items(rng)[0], proof_items(root)[0]]
    if workload == "translate":
        draws = GraphDraws(rng)
        return [
            _translate_item("warm/zx", draws.graph(2, 1, 1, "zx"), translate.round_trip),
            _translate_item("warm/zw", draws.graph(1, 1, 1, "zw", (3,)), translate.zw_to_zx),
        ]
    if workload == "syntax":
        printed = dsl.print_diagram(GraphDraws(rng).graph(4, 1, 1, "zx"))
        return [_syntax_item("warm/circuit", circuit_text(rng, 2, 8)), _syntax_item("warm/printed", printed)]
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def _take(items: list, scale: float) -> list:
    return items if scale >= 1 else items[: max(1, round(len(items) * scale))]


# -- verify ------------------------------------------------------------------------


def verify_items(seed: int, pass_no: int, root: Path, scale: float = 1.0) -> list[Item]:
    # one seed for all sets, so a rule shared by several sets gets the same
    # bindings in each, as `verify-axioms` gives it
    rule_seed = pass_rng(seed, pass_no, "rules").randrange(2**31)
    items = []
    for set_name in sorted(rules.AXIOM_SETS):
        for rule in _take(list(rules.AXIOM_SETS[set_name]), scale):
            items.append(_rule_item(f"{set_name}/{rule.name}", rule, rule_seed, "PASS"))
    for rule in _take(list(rules.corrupted_rules()), scale):
        items.append(_rule_item(f"control/{rule.name}", rule, rule_seed, "FAIL"))
    items += _take(linear_items(pass_rng(seed, pass_no, "linear")), scale)
    items += _take(proof_items(root), scale)
    return items


def _rule_item(name: str, rule, rule_seed: int, expected: str) -> Item:
    def run():
        return rules.verify_rule(rule, budget=VERIFY_BUDGET, samples=VERIFY_SAMPLES, seed=rule_seed)

    return Item(name, run, lambda rep: rep.status == expected and rep.instances > 0)


def _linear_item(name: str, d1: Diagram, d2: Diagram, equal: bool, seed: int) -> Item:
    def run():
        return eq_linear(d1, d2, samples=LINEAR_SAMPLES, seed=seed, tol=LINEAR_TOL)

    def check(res):
        return res.equal == equal and (equal or res.witness is not None)

    return Item(name, run, check)


def criterion9_pairs():
    """The ten variable-phase laws and ten near-misses of criterion 9."""
    a, b, neg_a = Phase.var("a"), Phase.var("b"), Phase.var("a", -1)
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


# (variables, chain length, colour) of the longer chains.  The grid has
# 8^variables points, so the four-variable chain is the costliest single
# item; it is green, as a red chain costs 2.5 times as much (one Hadamard
# per leg).  Colours are fixed, not drawn, to keep the cost of a pass steady.
_CHAINS = ((1, 6, x), (1, 24, z), (2, 8, x), (2, 16, z), (3, 3, x), (3, 6, z), (4, 4, z))


def _chain(rng: random.Random, names: list[str], length: int, spider):
    """A chain of one-colour 1->1 spiders whose phases mention every
    variable; by spider fusion it equals one spider with the summed phase."""
    slots = names + [rng.choice(names) for _ in range(length - len(names))]
    rng.shuffle(slots)
    total = Phase.ZERO
    parts = []
    for v in slots:
        p = Phase.exact_pi(F(rng.randrange(8), 4)) + Phase.var(v, rng.choice((1, -1, 2)))
        total = total + p
        parts.append(spider(1, 1, p))
    return seq(*parts), total


def linear_items(rng: random.Random) -> list[Item]:
    identities, refuted = criterion9_pairs()
    items = [
        _linear_item(f"linear/c9-id{k}", d1, d2, True, rng.randrange(2**31))
        for k, (d1, d2) in enumerate(identities)
    ]
    items += [
        _linear_item(f"linear/c9-no{k}", d1, d2, False, rng.randrange(2**31))
        for k, (d1, d2) in enumerate(refuted)
    ]
    for nvars, length, spider in _CHAINS:
        names = ["a", "b", "c", "d"][:nvars]
        lhs, total = _chain(rng, names, length, spider)
        tag = f"linear/chain{nvars}x{length}"
        seed = rng.randrange(2**31)
        items.append(_linear_item(tag + "-id", lhs, spider(1, 1, total), True, seed))
        # off by pi/4: refuted at the first grid point
        off = spider(1, 1, total + Phase.exact_pi(F(1, 4)))
        items.append(_linear_item(tag + "-off", lhs, off, False, seed))
        if nvars < 3:
            # off by 8v: equal on the whole pi/4 grid, refuted by the float samples
            v = rng.choice(names)
            grid_blind = spider(1, 1, total + Phase.var(v, 8))
            items.append(_linear_item(tag + "-blind", lhs, grid_blind, False, seed))
    return items


def proof_items(root: Path) -> list[Item]:
    items = []
    for fname, needle, replacement, fail_step in PROOFS:
        text = (root / "proofs" / fname).read_text()
        bad = text.replace(needle, replacement)

        def run(src=text):
            return rewrite.check_proof(rewrite.parse_proof(src))

        def run_bad(src=bad):
            return rewrite.check_proof(rewrite.parse_proof(src))

        def check_bad(res, step=fail_step):
            return not res.ok and res.failures[0]["step"] == step

        items.append(Item(f"proof/{fname}", run, lambda res: res.ok))
        items.append(Item(f"proof/{fname}~bad", run_bad, check_bad))
    return items


# -- random diagrams -----------------------------------------------------------------

_FIXED_ARITY = {"H": (1, 1), "W11": (1, 1), "W12": (1, 2), "CROSS": (2, 2), "HALF": (0, 0)}


class _Bag:
    """Draws from `values` in shuffled rounds, each value once per round, so
    that over a pass every value turns up about equally often."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class GraphDraws:
    """The stratified draws behind the random diagrams of one pass: kinds,
    spider arities, phases and loop counts.  Only the wiring is drawn
    freely, so the cost of a pass depends little on the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.zx_kind = _Bag(rng, ("Z", "X", "H"))
        self.zw_kind = _Bag(rng, ("W11", "W12", "CROSS", "HALF"))
        self.arity = _Bag(rng, [(n, m) for n in range(3) for m in range(3)])
        self.phase = _Bag(rng, [F(k, 4) for k in range(8)])
        self.loops = _Bag(rng, (0, 1))

    def graph(self, n_nodes: int, n_in: int, n_out: int, tag: str, params=()) -> Diagram:
        """`n_nodes` random generators (plus one unit to fix port parity)
        joined by a random perfect matching on all ports.

        zx nodes are Z, X and H with phases on the pi/4 grid; zw nodes are
        white nodes, one per entry of `params`, then W11, W12, CROSS, HALF.
        """
        nodes = []
        for k in range(n_nodes):
            if tag == "zw":
                kind = "WZ" if k < len(params) else self.zw_kind.draw()
            else:
                kind = self.zx_kind.draw()
            if kind in ("Z", "X"):
                g = Gen(kind, *self.arity.draw(), Phase.exact_pi(self.phase.draw()))
            elif kind == "WZ":
                g = Gen(kind, *self.arity.draw(), None, params[k])
            else:
                g = Gen(kind, *_FIXED_ARITY[kind])
            nodes.append(g)
        ports = [("i", k) for k in range(n_in)] + [("o", k) for k in range(n_out)]
        ports += [("n", i, p) for i, g in enumerate(nodes) for p in range(g.arity)]
        if len(ports) % 2:
            nodes.append(Gen("WZ", 1, 0, None, 1) if tag == "zw" else Gen("Z", 1, 0, Phase.ZERO))
            ports.append(("n", len(nodes) - 1, 0))
        self.rng.shuffle(ports)
        edges = [(ports[2 * i], ports[2 * i + 1]) for i in range(len(ports) // 2)]
        return Diagram(tag, nodes, edges, n_in, n_out, loops=self.loops.draw())


# boundary (inputs, outputs) with at most 3 wires, cycled over the items
_BOUNDARIES = ((1, 1), (0, 2), (2, 1), (1, 0), (0, 3), (1, 2), (0, 0), (2, 0))


def _log_uniform_ints(rng: random.Random, count: int, top: int) -> list[int]:
    """`count` integers in [1, top], log-uniform, one per equal stratum of
    log-space so the draws cover the range evenly; returned shuffled."""
    out = []
    for k in range(count):
        u = (k + rng.random()) / count
        out.append(max(1, min(top, int(math.exp(u * math.log(top + 1))))))
    rng.shuffle(out)
    return out


# -- translate -------------------------------------------------------------------------

TRANSLATE_ZX_ITEMS = 21  # three rounds of the 1..7 node schedule
TRANSLATE_ZW_ITEMS = 9
ZW_PARAM_TOP = 60
# Lone white nodes with parameters this close cost about the same, and they
# sit at the middle of the item times: a dense middle keeps the median item
# steady from seed to seed.
TRANSLATE_WHITE_ITEMS = 12
WHITE_PARAMS = (12, 18)


def translate_items(seed: int, pass_no: int, scale: float = 1.0) -> list[Item]:
    rng = pass_rng(seed, pass_no, "translate")
    draws = GraphDraws(rng)
    items = []
    for k in range(TRANSLATE_ZX_ITEMS):
        n_in, n_out = _BOUNDARIES[k % len(_BOUNDARIES)]
        d = draws.graph(1 + k % 7, n_in, n_out, "zx")  # at most 8 nodes with the parity unit
        items.append(_translate_item(f"roundtrip/{k}", d, translate.round_trip))
    # 1 or 2 white nodes per diagram, alternating
    whites = [1 + (k % 2) for k in range(TRANSLATE_ZW_ITEMS)]
    params = _log_uniform_ints(rng, sum(whites), ZW_PARAM_TOP)
    for k, count in enumerate(whites):
        n_in, n_out = _BOUNDARIES[k % len(_BOUNDARIES)]
        ps, params = params[:count], params[count:]
        d = draws.graph(count + k % 3, n_in, n_out, "zw", ps)
        items.append(_translate_item(f"zw_to_zx/{k}", d, translate.zw_to_zx))
    for k in range(TRANSLATE_WHITE_ITEMS):
        d = white(*((1, 1), (0, 2), (2, 0))[k % 3], rng.randint(*WHITE_PARAMS))
        items.append(_translate_item(f"white/{k}", d, translate.zw_to_zx))
    return _take(items, scale)


def _translate_item(name: str, d: Diagram, fn) -> Item:
    def run():
        out = fn(d)
        return out, eq_semantic(d, out, EXACT)

    return Item(name, run, lambda res: res[1] is True, nodes=lambda res: len(res[0].nodes))


# -- syntax ----------------------------------------------------------------------------

SYNTAX_CIRCUITS = 16
SYNTAX_CHAINS = 16
SYNTAX_GRAPHS = 16
CIRCUIT_ATOMS = (4, 300)  # smallest and largest atom count of the circuit texts
# One-wire chains (the quadratic `seq` fold) of lengths this close cost
# about the same, and they sit at the middle of the item times: a dense
# middle keeps the median item steady from seed to seed.
CHAIN_ATOMS = (80, 120)
GRAPH_NODES = (6, 14)

_PHASES = ("0", "pi/4", "pi/2", "3*pi/4", "pi", "5*pi/4", "3*pi/2", "7*pi/4")
_CNOT = "(seq (ten (Z 1 2 0) id) (ten id (X 2 1 0)))"


def circuit_text(rng: random.Random, wires: int, atoms: int) -> str:
    """A layered circuit over `wires` wires with about `atoms` atoms.

    Each wire runs three blocks of one-colour phase gates (which fuse),
    split at a third and at two thirds of the layers, and one Hadamard pair
    (which cancels).  CNOTs at a quarter and at three quarters join the top
    and the bottom pair of wires; neighbouring wires start in opposite
    colours.  The layout is fixed by the size, so the simplified diagram, and
    with it the cost, varies little with the seed, which draws the phases,
    the idle wires and where the Hadamard pairs go.
    """
    layers = max(1, atoms // wires)
    flips = (layers // 3, 2 * layers // 3)
    cnots = {layers // 4: 0, 3 * layers // 4: wires - 2} if wires > 1 else {}
    h_pair = [rng.randrange(layers) for _ in range(wires)]
    out = []
    for t in range(layers):
        if t in cnots:
            c = cnots[t]
            row = ["id"] * c + [_CNOT] + ["id"] * (wires - c - 2)
        else:
            row = []
            for w in range(wires):
                colour = "ZX"[(w + sum(t >= f for f in flips)) % 2]
                if t == h_pair[w]:
                    row.append("(seq H H)")
                elif rng.random() < 0.15:
                    row.append("id")
                else:
                    row.append(f"({colour} 1 1 {rng.choice(_PHASES)})")
        out.append("(ten " + " ".join(row) + ")" if len(row) > 1 else row[0])
    return "(seq\n  " + "\n  ".join(out) + ")"


def _atom_schedule(count: int) -> list[int]:
    lo, hi = CIRCUIT_ATOMS
    return [round(lo * (hi / lo) ** (k / max(1, count - 1))) for k in range(count)]


def syntax_items(seed: int, pass_no: int, scale: float = 1.0) -> list[Item]:
    rng = pass_rng(seed, pass_no, "syntax")
    texts = []
    for k, atoms in enumerate(_atom_schedule(SYNTAX_CIRCUITS)):
        texts.append((f"circuit/{k}", circuit_text(rng, 2 + k % 3, atoms)))
    lo, hi = CHAIN_ATOMS
    for k in range(SYNTAX_CHAINS):
        texts.append((f"chain/{k}", circuit_text(rng, 1, lo + (hi - lo) * k // (SYNTAX_CHAINS - 1))))
    lo, hi = GRAPH_NODES
    draws = GraphDraws(rng)
    for k in range(SYNTAX_GRAPHS):
        n_in, n_out = _BOUNDARIES[k % len(_BOUNDARIES)]
        d = draws.graph(lo + k % (hi - lo + 1), n_in, n_out, "zx")
        # this graph reaches the timed region only as machine-printed text
        texts.append((f"printed/{k}", dsl.print_diagram(d)))
    return _take([_syntax_item(name, src) for name, src in texts], scale)


def _syntax_item(name: str, src: str) -> Item:
    def run():
        original = dsl.parse(src)
        simplified, _ = rewrite.simplify(original)
        text = dsl.print_diagram(simplified)
        return original, simplified, text, dsl.parse(text)

    def check(res):
        original, simplified, _, reparsed = res
        return iso_equal(reparsed, simplified) and eq_semantic(simplified, original)

    return Item(name, run, check, nodes=lambda res: len(res[1].nodes), text_bytes=lambda res: len(res[2]))
