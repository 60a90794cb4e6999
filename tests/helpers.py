"""Shared test utilities: random diagram generation, matrices as numpy
arrays for the oracles that compare against them, a dense `numpy.einsum`
evaluator, the red spider contracted from its definition, reference
builders for the state gadgets, the one-site-per-step simplifier, the
per-character tokenizer, the printer that routed each edge by its pair of
end kinds and the one-instance-at-a-time rule verifier."""

import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np

from zxzw import diagrams as dg
from zxzw import dsl
from zxzw import gadgets as gad
from zxzw import rewrite as rw
from zxzw import rules as ru
from zxzw.diagrams import CROSS, CROSS_CYCLE, CalculusMismatch, Diagram, DiagramError, Gen
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, FLOAT, Float, _contract_pair, _gen_entries, interp

_FIXED = {"H": (1, 1), "W11": (1, 1), "W12": (1, 2), "CROSS": (2, 2), "HALF": (0, 0)}


def random_diagram(rng: random.Random, n_in=None, n_out=None, tag="zx", max_nodes=4):
    """A random validated diagram: random generators plus a random perfect
    matching on all ports."""
    if n_in is None:
        n_in = rng.randrange(4)
    if n_out is None:
        n_out = rng.randrange(4)
    kinds = {
        "zx": ["Z", "X", "H"],
        "zxt": ["Z", "X", "H", "TRI"],
        "zw": ["WZ", "W11", "W12", "CROSS", "HALF"],
    }[tag]
    nodes = []
    ports = [("i", k) for k in range(n_in)] + [("o", k) for k in range(n_out)]
    for _ in range(rng.randrange(max_nodes + 1)):
        kind = rng.choice(kinds)
        if kind in ("Z", "X"):
            n, m = rng.randrange(3), rng.randrange(3)
            g = Gen(kind, n, m, Phase.exact_pi(Fraction(rng.randrange(8), 4)))
        elif kind == "WZ":
            n, m = rng.randrange(3), rng.randrange(3)
            g = Gen(kind, n, m, None, rng.choice([1, -1, 2]))
        elif kind == "TRI":
            g = Gen(kind, 1, 1, None, rng.choice([1, -1]))
        else:
            g = Gen(kind, *_FIXED[kind])
        i = len(nodes)
        nodes.append(g)
        ports += [("n", i, p) for p in range(g.arity)]
    if len(ports) % 2:
        g = Gen("Z", 1, 0, Phase.ZERO) if tag != "zw" else Gen("WZ", 1, 0, None, 1)
        nodes.append(g)
        ports.append(("n", len(nodes) - 1, 0))
    rng.shuffle(ports)
    edges = [(ports[2 * i], ports[2 * i + 1]) for i in range(len(ports) // 2)]
    return Diagram(tag, nodes, edges, n_in, n_out, loops=rng.randrange(2))


_TAG_KINDS = {
    "zx": {"Z", "X", "H"},
    "zxt": {"Z", "X", "H", "TRI"},
    "zw": {"W11", "W12", "WZ", "CROSS", "HALF"},
}


def reference_validate(d) -> None:
    """The port-by-port validation walk that `Diagram.validate` made before
    it decided validity with set operations: the reference for which faults
    are refused, and with which exception class and message.  `d` is
    anything with a diagram's attributes; its edges are taken as they are."""
    if d.n_in < 0 or d.n_out < 0 or d.loops < 0:
        raise DiagramError("negative boundary or loop count")
    if d.tag is not None and d.tag not in _TAG_KINDS:
        raise DiagramError(f"unknown calculus tag {d.tag!r}")
    allowed = _TAG_KINDS.get(d.tag, set())
    if d.tag is None and d.nodes:
        raise DiagramError("untagged diagrams must be pure wires")
    for g in d.nodes:
        if not isinstance(g, Gen):
            raise DiagramError(f"node {g!r} is not a generator")
        if g.kind not in allowed:
            raise CalculusMismatch(f"{g.kind} is not a {d.tag} generator")
    expected = set()
    for i, g in enumerate(d.nodes):
        for p in range(g.arity):
            expected.add(("n", i, p))
    for k in range(d.n_in):
        expected.add(("i", k))
    for k in range(d.n_out):
        expected.add(("o", k))
    seen = Counter()
    for e in d.edges:
        if len(e) != 2 or e[0] == e[1]:
            raise DiagramError(f"malformed edge {e!r}")
        for end in e:
            if end not in expected:
                raise DiagramError(f"dangling edge end {end!r}")
            seen[end] += 1
    for end in expected:
        if seen[end] != 1:
            raise DiagramError(f"port {end!r} has {seen[end]} incident wires (needs exactly 1)")


def shuffled_copy(d: Diagram, rng: random.Random) -> Diagram:
    """The same diagram with node identities permuted."""
    perm = list(range(len(d.nodes)))
    rng.shuffle(perm)
    nodes = [None] * len(d.nodes)
    for old, new in enumerate(perm):
        nodes[new] = d.nodes[old]

    def lift(e):
        return ("n", perm[e[1]], e[2]) if e[0] == "n" else e

    edges = [tuple(map(lift, e)) for e in d.edges]
    return Diagram(d.tag, nodes, edges, d.n_in, d.n_out, d.loops)


def rotate_cross_ports(d: Diagram, node: int, k: int = 1) -> Diagram:
    """Rotate the four wires of a zw crossing one cyclic step (times k)."""
    if d.nodes[node].kind != CROSS:
        raise DiagramError(f"node {node} is not a crossing")
    pos = {p: i for i, p in enumerate(CROSS_CYCLE)}

    def rot(end):
        if end[0] == "n" and end[1] == node:
            return ("n", node, CROSS_CYCLE[(pos[end[2]] + k) % 4])
        return end

    edges = [tuple(map(rot, e)) for e in d.edges]
    return Diagram(d.tag, d.nodes, edges, d.n_in, d.n_out, d.loops)


def as_array(m) -> np.ndarray:
    """A `Matrix` as a complex ndarray, every entry filled in."""
    return np.array(
        [[complex(x) for x in row] for row in m.to_rows()],
        dtype=complex,
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b, exact for exact entries: numpy multiplies the
    object arrays of the entries with their own + and *."""
    product = np.array(a.to_rows(), dtype=object) @ np.array(b.to_rows(), dtype=object)
    return Matrix.from_rows(product.tolist(), a.zero)


# -- dense oracle ----------------------------------------------------------------
# Each generator's closed form as a dense array, and the network contracted
# by `numpy.einsum`: an evaluator that shares no code with `semantics`.

_DENSE_ENTRIES = {
    "H": {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1},
    "W11": {(0, 1): 1, (1, 0): 1},
    "W12": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
    "CROSS": {(0, 0, 0, 0): 1, (0, 1, 1, 0): 1, (1, 0, 0, 1): 1, (1, 1, 1, 1): -1},
    "HALF": {(): 0.5},
}


def _dense_tensor(g: Gen) -> np.ndarray:
    """The tensor of a variable-free generator, one axis per port in order."""
    k = g.arity
    if g.kind in ("Z", "X"):
        top = cmath.exp(1j * g.phase.to_float())
    elif g.param is not None:
        top = complex(g.param)
    t = np.zeros((2,) * k, dtype=complex)
    if g.kind in ("Z", "WZ"):
        t[(0,) * k] += 1
        t[(1,) * k] += top
    elif g.kind == "X":  # X(a)[x] = (1 + e^{ia} (-1)^{|x|}) / sqrt2^k
        for x in np.ndindex(t.shape):
            t[x] = (1 + top * (-1) ** sum(x)) / math.sqrt(2) ** k
    elif g.kind == "TRI":  # [[1, r], [0, 1]], input axis first
        t[0, 0] = t[1, 1] = 1
        t[1, 0] = top
    else:
        for x, v in _DENSE_ENTRIES[g.kind].items():
            t[x] = v
        if g.kind == "H":
            t /= math.sqrt(2)
    return t


def einsum_interp(d: Diagram) -> np.ndarray:
    """The 2^n_out x 2^n_in matrix of a variable-free `d`, contracted by
    `numpy.einsum` with one index per wire: a self-loop is an index that
    one tensor repeats (a trace), a wire between two boundary ports an
    identity, and closed loops a factor 2^loops."""
    index = {}
    operands = [np.array(2.0**d.loops, dtype=complex), []]
    for w, (a, b) in enumerate(d.edges):
        index[a] = 2 * w
        if a[0] != "n" and b[0] != "n":
            index[b] = 2 * w + 1
            operands += [np.eye(2, dtype=complex), [2 * w, 2 * w + 1]]
        else:
            index[b] = 2 * w
    for i, g in enumerate(d.nodes):
        operands += [_dense_tensor(g), [index["n", i, p] for p in range(g.arity)]]
    out = [index["o", k] for k in range(d.n_out)] + [index["i", k] for k in range(d.n_in)]
    return np.einsum(*operands, out).reshape(2**d.n_out, 2**d.n_in)


# -- the red spider from its definition -------------------------------------------


def reference_x_tensor(g: Gen, exact: bool, slot=None) -> dict:
    """The tensor of a red spider `g`, legs in port order, as its
    definition contracted: its Z tensor, then one Hadamard per leg, each
    by `semantics._contract_pair`.  This is how the evaluator built a red
    spider of arity <= 4 before it wrote that tensor in closed form."""
    ent = _gen_entries(Gen("Z", g.n_in, g.n_out, g.phase), exact, slot or {})
    hadamard = _gen_entries(Gen("H", 1, 1), exact, {})
    k = g.arity
    legs = tuple(range(k))
    for i in range(k):
        # leg i's Hadamard takes label i and leaves k + i as the last leg,
        # so the legs end in port order
        legs, ent = _contract_pair(legs, ent, (k + i, i), hadamard)
    return ent


# -- reference gadget builders -------------------------------------------------
# The pairwise folds that built the state gadgets before each
# became one n-ary `seq` or `ten`: the reference for the diagram (nodes,
# node order, edges and loops) that each builder returns.


def reference_int_state(n: int) -> Diagram:
    if n == 0:
        return gad.zero_state()
    unit = dg.z(0, 1, 0) if n > 0 else dg.z(0, 1, 1)
    digits = bin(abs(n))[2:]
    lead = int(digits[:2], 2)
    out = unit if lead == 1 else gad._two_state()
    if lead > 1 and n < 0:
        out = dg.seq(out, dg.z(1, 1, 1))
    if lead == 3:
        out = dg.seq(dg.ten(out, unit), gad.w_add())
    for digit in digits[2:]:
        out = dg.seq(dg.ten(out, gad._two_state()), dg.z(2, 1, 0))
        if digit == "1":
            out = dg.seq(dg.ten(out, unit), gad.w_add())
    return out


def reference_ring_state(r) -> Diagram:
    r = r if isinstance(r, Cyclo) else Cyclo(int(r))
    parts = []
    for k, c in enumerate((r.a, r.b, r.c, r.d)):
        if c == 0:
            continue
        s = reference_int_state(c)
        if k:
            s = dg.seq(s, dg.z(1, 1, Fraction(k, 4)))
        parts.append(s)
    if not parts:
        return gad.zero_state()
    out = parts[0]
    for s in parts[1:]:
        out = dg.seq(dg.ten(out, s), gad.w_add())
    for _ in range(r.e):
        out = dg.seq(dg.ten(out, gad.half_state()), dg.z(2, 1, 0))
    return out


def reference_simplify(d: Diagram, strategy=rw.DEFAULT_STRATEGY, fuel=None):
    """The simplifier that `rewrite.simplify` replaced, one site per step:
    the reference for its output and trace."""
    if fuel is None:
        fuel = 10 * len(d.nodes)
    trace = []
    for _ in range(fuel):
        for schema in strategy:
            locs = rw.find(schema, d)
            if locs:
                d = rw.apply(schema, d, locs[0])
                trace.append((schema.name, locs[0]))
                break
        else:
            break
    return d, trace


def reference_tokens(src: str) -> list[tuple[str, int, int]]:
    """The per-character tokenizer that `dsl.parse` replaced with one regular
    expression: the reference for each token's text, line and column."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append((ch, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and src[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append((src[start:i], line, start_col))
    return toks


def reference_print_body(d: Diagram) -> str:
    """The printer body that `dsl._print_body` replaced, which routed each
    edge by the pair of its end kinds (boundary or node, input or output)
    in ten cases, and named each generator in its own branch: the
    reference for the printed text."""

    def atom_text(g: Gen) -> str:
        if g.kind in ("Z", "X"):
            return f"({g.kind} {g.n_in} {g.n_out} {g.phase.format_dsl()})"
        if g.kind == "H":
            return "H"
        if g.kind == dg.W11:
            return "(W 1 1)"
        if g.kind == dg.W12:
            return "(W 1 2)"
        if g.kind == dg.CROSS:
            return "(zw-cross)"
        if g.kind == dg.HALF:
            return "half"
        if g.kind == dg.WZ:
            return f"(wz {g.n_in} {g.n_out} {dsl._param_text(g.param)})"
        if g.kind == dg.TRI:
            return f"(tri {dsl._param_text(g.param)})"
        raise ValueError(f"cannot print generator kind {g.kind!r}")

    nodes = d.nodes
    off_in = list(accumulate((g.n_in for g in nodes), initial=0))
    off_out = list(accumulate((g.n_out for g in nodes), initial=0))
    base_pt, out_base_pt = off_in[-1], off_out[-1]

    def classify(end):
        if end[0] == "i":
            return ("DI", end[1])
        if end[0] == "o":
            return ("DO", end[1])
        _, i, p = end
        if p < nodes[i].n_in:
            return ("NI", off_in[i] + p)
        return ("NO", off_out[i] + p - nodes[i].n_in)

    p1 = {}  # left wire position -> middle input slot
    p2 = {}  # middle output slot -> right wire position
    caps = cups = pt = 0

    def new_pt():
        nonlocal pt
        pt += 1
        return pt - 1

    def new_cap(feed_a, feed_b):
        nonlocal caps
        p1[d.n_in + 2 * caps] = feed_a
        p1[d.n_in + 2 * caps + 1] = feed_b
        caps += 1

    def new_cup(slot_a, slot_b):
        nonlocal cups
        p2[slot_a] = d.n_out + 2 * cups
        p2[slot_b] = d.n_out + 2 * cups + 1
        cups += 1

    for edge in d.edges:
        (ca, va), (cb, vb) = classify(edge[0]), classify(edge[1])
        pair = {ca, cb}
        if pair == {"DI"}:
            s1, s2 = new_pt(), new_pt()
            p1[va], p1[vb] = base_pt + s1, base_pt + s2
            new_cup(out_base_pt + s1, out_base_pt + s2)
        elif pair == {"DI", "NI"}:
            k, slot = (va, vb) if ca == "DI" else (vb, va)
            p1[k] = slot
        elif pair == {"DI", "NO"}:
            k, slot_out = (va, vb) if ca == "DI" else (vb, va)
            s = new_pt()
            p1[k] = base_pt + s
            new_cup(slot_out, out_base_pt + s)
        elif pair == {"DI", "DO"}:
            k, kout = (va, vb) if ca == "DI" else (vb, va)
            s = new_pt()
            p1[k] = base_pt + s
            p2[out_base_pt + s] = kout
        elif pair == {"NI"}:
            new_cap(va, vb)
        elif pair == {"NI", "NO"}:
            slot_in, slot_out = (va, vb) if ca == "NI" else (vb, va)
            s = new_pt()
            new_cap(slot_in, base_pt + s)
            new_cup(slot_out, out_base_pt + s)
        elif pair == {"NI", "DO"}:
            slot_in, kout = (va, vb) if ca == "NI" else (vb, va)
            s = new_pt()
            new_cap(slot_in, base_pt + s)
            p2[out_base_pt + s] = kout
        elif pair == {"NO"}:
            new_cup(va, vb)
        elif pair == {"NO", "DO"}:
            slot_out, kout = (va, vb) if ca == "NO" else (vb, va)
            p2[slot_out] = kout
        else:  # {"DO"}
            s1, s2 = new_pt(), new_pt()
            new_cap(base_pt + s1, base_pt + s2)
            p2[out_base_pt + s1], p2[out_base_pt + s2] = va, vb

    w_in = d.n_in + 2 * caps
    w_out = out_base_pt + pt
    perm1 = [p1[i] for i in range(w_in)]
    perm2 = [p2[s] for s in range(w_out)]

    stages = []
    if caps:
        stages.append(dsl._form_text("ten", ["id"] * d.n_in + ["cap"] * caps))
    stages += dsl._perm_stage(perm1)
    if nodes:
        stages.append(dsl._form_text("ten", [atom_text(g) for g in nodes] + ["id"] * pt))
    stages += dsl._perm_stage(perm2)
    if cups:
        stages.append(dsl._form_text("ten", ["id"] * d.n_out + ["cup"] * cups))
    if not stages:
        return "empty" if d.n_in == 0 else dsl._form_text("ten", ["id"] * d.n_in)
    return dsl._form_text("seq", stages)


def reference_verify_rule(rule, budget=4096, samples=1000, seed=0, tol=1e-9):
    """The verifier that `rules.verify_rule` replaced, which builds every
    binding and variant with `instantiate` and compares its `interp`
    matrices with `Matrix.__eq__` or `close`, independently of the
    library's equality decision: the reference for its reports.  A rule
    with k ring parameters is built at every point of {0..3}^k, exactly,
    and fails at the first point, in lexicographic order, where its sides
    differ."""
    if budget < 0 or samples < 0:
        raise ru.RuleError(f"budget and samples must be non-negative, got {budget} and {samples}")
    approx = Float(tol)
    exact = rule.sample is None
    rng = random.Random(f"{seed}:{rule.name}")
    bindings = ru._bindings_for(rule, budget, samples, rng)
    variants = ("base",) + tuple(rule.variants)
    params = [name for name, values in rule.grid if values is ru.RING]
    points = [dict(zip(params, p)) for p in itertools.product(range(4), repeat=len(params))]
    checked = failed = 0
    failures = []
    for b in bindings:
        for v in variants:
            checked += 1
            for point in points:
                at = {**b, **point}
                lhs, rhs = ru.instantiate(rule, at, v)
                m1, m2 = (interp(d, EXACT if exact else approx) for d in (lhs, rhs))
                if m1 == m2 if exact else m1.close(m2, tol):
                    continue
                failed += 1
                if len(failures) < ru.MAX_FAILURES:
                    failures.append(
                        {
                            "binding": {k: ru._json_value(val) for k, val in at.items()},
                            "variant": v,
                            "lhs_matrix": ru._json_matrix(interp(lhs, FLOAT)),
                            "rhs_matrix": ru._json_matrix(interp(rhs, FLOAT)),
                        }
                    )
                break
    status = "PASS" if checked and not failed else "FAIL"
    return ru.RuleReport(rule.name, checked, status, failures, failed)
