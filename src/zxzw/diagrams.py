"""Open-graph diagrams for the ZX, ZX_T and ZW calculi.

A diagram is a graph of generator nodes with ordered boundary ports.  Only
topology matters: edges are undirected, wires may bend freely, and plain
wires (identities, swaps, cups, caps) are represented as edges alone, with
no nodes.  Closed circles carry no ports at all and are tracked by a loop
counter.

Endpoints
---------
Edges join *endpoints*.  An endpoint is one of::

    ("n", node_index, port)   a port of a node (inputs first, then outputs)
    ("i", k)                  the k-th boundary input
    ("o", k)                  the k-th boundary output

Every endpoint of a validated diagram is used by exactly one edge end; a
self-loop uses two distinct ports of the same node.

Every composite is built by one splice: `seq` and `ten` take any number
of parts, and `graft` puts a fragment in place of each node.  The splice
concatenates the parts' nodes in order, joins the wires that meet at a
shared boundary (so composing `cup` after `cap` really produces a closed
circle), and sorts and validates the result once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Mapping, Optional, Union

from .phases import Phase, PhaseLike
from .rings import Cyclo


class DiagramError(Exception):
    pass


class ArityMismatch(DiagramError):
    pass


class CalculusMismatch(DiagramError):
    pass


class MissingVariable(DiagramError):
    pass


# generator kinds
Z = "Z"  # green spider, any arity, phase
X = "X"  # red spider, any arity, phase
H = "H"  # Hadamard, 1->1
W11 = "W11"  # black w node, 1->1 (NOT)
W12 = "W12"  # black w node, 1->2
WZ = "WZ"  # white zw node, any arity, complex parameter
CROSS = "CROSS"  # zw crossing, 2->2
HALF = "HALF"  # scalar 1/2, 0->0
TRI = "TRI"  # triangle, 1->1, complex parameter

_FIXED_ARITY = {H: (1, 1), W11: (1, 1), W12: (1, 2), CROSS: (2, 2), HALF: (0, 0), TRI: (1, 1)}
_PHASED = {Z, X}
_PARAMETRIC = {WZ, TRI}
_KIND_TAG = {Z: "zx", X: "zx", H: "zx", TRI: "zxt", W11: "zw", W12: "zw", WZ: "zw", CROSS: "zw", HALF: "zw"}
_TAG_KINDS = {
    "zx": {Z, X, H},
    "zxt": {Z, X, H, TRI},
    "zw": {W11, W12, WZ, CROSS, HALF},
}

# ports of a zw crossing in cyclic (clockwise) order: in0, in1, out1, out0
CROSS_CYCLE = (0, 1, 3, 2)

Param = Union[Cyclo, complex]


def _coerce_param(p) -> Param:
    if isinstance(p, Cyclo):
        return p
    if isinstance(p, int):
        return Cyclo(p)
    if isinstance(p, Fraction):
        if (2 ** (p.denominator.bit_length() - 1)) != p.denominator:
            return complex(p)
        num, den = p.numerator, p.denominator
        return Cyclo(num, 0, 0, 0, den.bit_length() - 1)
    if isinstance(p, float) and p.is_integer():
        return Cyclo(int(p))
    return complex(p)


@dataclass(frozen=True)
class Gen:
    """A generator occurrence: kind, arity, and phase or parameter."""

    kind: str
    n_in: int
    n_out: int
    phase: Optional[Phase] = None
    param: Optional[Param] = None

    def __post_init__(self):
        if self.kind in _FIXED_ARITY:
            if (self.n_in, self.n_out) != _FIXED_ARITY[self.kind]:
                raise ArityMismatch(
                    f"{self.kind} is {_FIXED_ARITY[self.kind][0]}->{_FIXED_ARITY[self.kind][1]},"
                    f" got {self.n_in}->{self.n_out}"
                )
        elif self.kind not in _PHASED and self.kind != WZ:
            raise DiagramError(f"unknown generator kind {self.kind!r}")
        if self.n_in < 0 or self.n_out < 0:
            raise ArityMismatch("negative arity")
        if self.kind in _PHASED:
            if self.phase is None:
                object.__setattr__(self, "phase", Phase.ZERO)
        elif self.phase is not None:
            raise DiagramError(f"{self.kind} takes no phase")
        if self.kind in _PARAMETRIC:
            if self.param is None:
                raise DiagramError(f"{self.kind} needs a parameter")
            object.__setattr__(self, "param", _coerce_param(self.param))
        elif self.param is not None:
            raise DiagramError(f"{self.kind} takes no parameter")

    @property
    def arity(self) -> int:
        return self.n_in + self.n_out

    def signature(self):
        return (self.kind, self.n_in, self.n_out, self.phase, _param_key(self.param))


def _param_key(p):
    if p is None:
        return None
    if isinstance(p, Cyclo):
        return ("exact", p)
    return ("float", p)


def _merge_tags(t1: Optional[str], t2: Optional[str]) -> Optional[str]:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    if t1 == t2:
        return t1
    if {t1, t2} == {"zx", "zxt"}:
        return "zxt"
    raise CalculusMismatch(f"cannot mix {t1} and {t2} diagrams")


class Diagram:
    """An immutable open graph with ordered boundary ports.

    Build diagrams from the constructors below (`generator`, `identity`,
    `cup`, ...) and combine them with `seq` / `ten` (or the binary `then` /
    `tensor`); direct construction validates that the edges form a perfect
    matching on all ports.
    """

    __slots__ = ("tag", "nodes", "edges", "n_in", "n_out", "loops")

    def __init__(self, tag, nodes, edges, n_in, n_out, loops=0):
        self.tag = tag
        self.nodes = tuple(nodes)
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        self.n_in = n_in
        self.n_out = n_out
        self.loops = loops
        self.validate()

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        if self.n_in < 0 or self.n_out < 0 or self.loops < 0:
            raise DiagramError("negative boundary or loop count")
        if self.tag is not None and self.tag not in _TAG_KINDS:
            raise DiagramError(f"unknown calculus tag {self.tag!r}")
        allowed = _TAG_KINDS.get(self.tag, set())
        if self.tag is None and self.nodes:
            raise DiagramError("untagged diagrams must be pure wires")
        for g in self.nodes:
            if not isinstance(g, Gen):
                raise DiagramError(f"node {g!r} is not a generator")
            if g.kind not in allowed:
                raise CalculusMismatch(f"{g.kind} is not a {self.tag} generator")
        expected = set()
        for i, g in enumerate(self.nodes):
            for p in range(g.arity):
                expected.add(("n", i, p))
        for k in range(self.n_in):
            expected.add(("i", k))
        for k in range(self.n_out):
            expected.add(("o", k))
        seen = Counter()
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise DiagramError(f"malformed edge {e!r}")
            for end in e:
                if end not in expected:
                    raise DiagramError(f"dangling edge end {end!r}")
                seen[end] += 1
        for end in expected:
            if seen[end] != 1:
                raise DiagramError(
                    f"port {end!r} has {seen[end]} incident wires (needs exactly 1)"
                )

    # -- basic data --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_in, self.n_out)

    @property
    def is_pure_wire(self) -> bool:
        return not self.nodes

    def free_variables(self) -> frozenset[str]:
        out = set()
        for g in self.nodes:
            if g.phase is not None:
                out.update(g.phase.variables())
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.shape == other.shape
            and self.loops == other.loops
        )

    def __hash__(self):
        return hash((self.tag, self.nodes, self.edges, self.n_in, self.n_out, self.loops))

    def __repr__(self):
        return (
            f"Diagram<{self.tag or 'wire'} {self.n_in}->{self.n_out}, "
            f"{len(self.nodes)} nodes, {len(self.edges)} edges"
            + (f", {self.loops} loops>" if self.loops else ">")
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def generator(gen: Gen, tag: Optional[str] = None) -> "Diagram":
        tag = tag or _KIND_TAG[gen.kind]
        edges = [(("i", k), ("n", 0, k)) for k in range(gen.n_in)]
        edges += [(("n", 0, gen.n_in + j), ("o", j)) for j in range(gen.n_out)]
        return Diagram(tag, (gen,), edges, gen.n_in, gen.n_out)

    @staticmethod
    def identity(n: int = 1, tag: Optional[str] = None) -> "Diagram":
        return Diagram(tag, (), [(("i", k), ("o", k)) for k in range(n)], n, n)

    @staticmethod
    def permutation(perm: Iterable[int], tag: Optional[str] = None) -> "Diagram":
        """Wire crossing sending input k to output perm[k]."""
        perm = list(perm)
        if sorted(perm) != list(range(len(perm))):
            raise DiagramError(f"not a permutation: {perm}")
        return Diagram(
            tag, (), [(("i", k), ("o", p)) for k, p in enumerate(perm)], len(perm), len(perm)
        )

    @staticmethod
    def swap(tag: Optional[str] = None) -> "Diagram":
        return Diagram.permutation([1, 0], tag)

    @staticmethod
    def cup(tag: Optional[str] = None) -> "Diagram":
        """The 2->0 wire bend (row vector <00| + <11|)."""
        return Diagram(tag, (), [(("i", 0), ("i", 1))], 2, 0)

    @staticmethod
    def cap(tag: Optional[str] = None) -> "Diagram":
        """The 0->2 wire bend (column vector |00> + |11>)."""
        return Diagram(tag, (), [(("o", 0), ("o", 1))], 0, 2)

    @staticmethod
    def empty(tag: Optional[str] = None) -> "Diagram":
        return Diagram(tag, (), [], 0, 0)

    @staticmethod
    def circle(count: int = 1, tag: Optional[str] = None) -> "Diagram":
        return Diagram(tag, (), [], 0, 0, loops=count)

    # -- compositions --------------------------------------------------------

    def then(self, other: "Diagram") -> "Diagram":
        """Sequential composition in diagram order: self runs first."""
        return seq(self, other)

    def tensor(self, other: "Diagram") -> "Diagram":
        return ten(self, other)

    # -- phase substitution ---------------------------------------------------

    def substitute(self, valuation: Mapping[str, PhaseLike]) -> "Diagram":
        missing = self.free_variables() - set(valuation)
        if missing:
            raise MissingVariable(f"unbound phase variables: {sorted(missing)}")
        nodes = tuple(
            Gen(g.kind, g.n_in, g.n_out, g.phase.substitute(valuation), g.param)
            if g.phase is not None
            else g
            for g in self.nodes
        )
        return Diagram(self.tag, nodes, self.edges, self.n_in, self.n_out, self.loops)


def _splice_junctions(raw_edges):
    """Resolve ("j", k) junction endpoints, returning (edges, closed_loops).

    Each junction is incident to exactly two edge ends; chains of junctions
    collapse to single wires and junction-only cycles become closed loops.
    """
    E = [tuple(e) for e in raw_edges]
    jadj: dict = {}
    for eid, e in enumerate(E):
        for end in e:
            if end[0] == "j":
                jadj.setdefault(end, []).append(eid)

    def other_end(eid, end):
        a, b = E[eid]
        return b if a == end else a

    edges = []
    consumed = [False] * len(E)
    for eid, (a, b) in enumerate(E):
        if a[0] != "j" and b[0] != "j":
            consumed[eid] = True
            edges.append((a, b))

    # walk each junction chain once, starting from a non-junction terminal
    for eid0, (a, b) in enumerate(E):
        if consumed[eid0] or (a[0] == "j" and b[0] == "j"):
            continue
        start, j = (a, b) if b[0] == "j" else (b, a)
        consumed[eid0] = True
        cur = eid0
        while True:
            e1, e2 = jadj[j]
            nxt = e2 if e1 == cur else e1
            consumed[nxt] = True
            end = other_end(nxt, j)
            if end[0] != "j":
                edges.append((start, end))
                break
            j, cur = end, nxt

    # whatever remains is junction-only cycles
    loops = 0
    for eid0, (a, b) in enumerate(E):
        if consumed[eid0]:
            continue
        loops += 1
        consumed[eid0] = True
        j, cur = b, eid0
        while True:
            e1, e2 = jadj[j]
            nxt = e2 if e1 == cur else e1
            if consumed[nxt]:
                break
            consumed[nxt] = True
            j, cur = other_end(nxt, j), nxt
    return edges, loops


# -- the one composition path ---------------------------------------------------


def _splice(tag, parts, n_in, n_out, wiring=(), loops=0) -> Diagram:
    """Join `parts` into one diagram, sorted and validated once.

    The result's nodes are the parts' nodes in order.  A part is either a
    bare `Gen`, placed as one node and wired only by `wiring`, or a triple
    (diagram, ins, outs): the diagram's k-th boundary input becomes the
    endpoint ins[k] and its k-th output outs[k], each a boundary of the
    result or a junction ("j", ...).  `wiring` lists further edges in the
    result's node numbering.  Every junction is named by exactly two edge
    ends; the wires through it are joined, and closed chains become loops.
    """
    nodes: list[Gen] = []
    edges = list(wiring)
    joined = False
    for part in parts:
        if isinstance(part, Gen):
            nodes.append(part)
            continue
        d, ins, outs = part
        off = len(nodes)
        nodes += d.nodes
        loops += d.loops
        joined = joined or any(end[0] == "j" for end in (*ins, *outs))

        def lift(end):
            if end[0] == "n":
                return ("n", end[1] + off, end[2])
            return ins[end[1]] if end[0] == "i" else outs[end[1]]

        edges += [(lift(a), lift(b)) for a, b in d.edges]
    if joined:
        edges, closed = _splice_junctions(edges)
        loops += closed
    return Diagram(tag, nodes, edges, n_in, n_out, loops)


def seq(*ds: Diagram) -> Diagram:
    """Left-to-right sequential composition: seq(a, b, c) runs a first."""
    if not ds:
        raise DiagramError("seq needs at least one diagram")
    tag = ds[0].tag
    for a, b in zip(ds, ds[1:]):
        if a.n_out != b.n_in:
            raise ArityMismatch(f"cannot plug {a.n_out} outputs into {b.n_in} inputs")
        tag = _merge_tags(tag, b.tag)
    if len(ds) == 1:
        return ds[0]
    last = len(ds) - 1
    parts = [
        (
            d,
            [("j", k, m) if k else ("i", m) for m in range(d.n_in)],
            [("j", k + 1, m) if k < last else ("o", m) for m in range(d.n_out)],
        )
        for k, d in enumerate(ds)
    ]
    return _splice(tag, parts, ds[0].n_in, ds[-1].n_out)


def ten(*ds: Diagram) -> Diagram:
    """Tensor product, stacking the factors top to bottom."""
    if not ds:
        raise DiagramError("ten needs at least one diagram")
    tag = ds[0].tag
    for d in ds[1:]:
        tag = _merge_tags(tag, d.tag)
    if len(ds) == 1:
        return ds[0]
    parts = []
    n_in = n_out = 0
    for d in ds:
        ins = [("i", n_in + m) for m in range(d.n_in)]
        outs = [("o", n_out + m) for m in range(d.n_out)]
        parts.append((d, ins, outs))
        n_in += d.n_in
        n_out += d.n_out
    return _splice(tag, parts, n_in, n_out)


def graft(d: Diagram, replace, tag: Optional[str]) -> Diagram:
    """Rebuild `d`, tagged `tag`, with each node passed through `replace`.

    `replace(gen)` returns None to keep the node, a `Gen` of the same arity
    to relabel it in place, or a diagram of the same shape whose boundaries
    are spliced into the original wiring.
    """
    reps = [replace(g) for g in d.nodes]
    for g, r in zip(d.nodes, reps):
        if r is not None and (r.n_in, r.n_out) != (g.n_in, g.n_out):
            raise ArityMismatch(
                f"replacement for {g.kind} is {r.n_in}->{r.n_out}, "
                f"wanted {g.n_in}->{g.n_out}"
            )
    if not any(isinstance(r, Diagram) for r in reps):
        nodes = [g if r is None else r for g, r in zip(d.nodes, reps)]
        return Diagram(tag, nodes, d.edges, d.n_in, d.n_out, d.loops)
    parts = []
    offs = []
    count = 0
    for i, (g, r) in enumerate(zip(d.nodes, reps)):
        offs.append(count)
        if isinstance(r, Diagram):
            ports = [("j", i, p) for p in range(g.arity)]
            parts.append((r, ports[: g.n_in], ports[g.n_in :]))
            count += len(r.nodes)
        else:
            parts.append(g if r is None else r)
            count += 1

    def lift(end):
        if end[0] != "n":
            return end
        _, i, p = end
        return ("j", i, p) if isinstance(reps[i], Diagram) else ("n", offs[i], p)

    wiring = [(lift(a), lift(b)) for a, b in d.edges]
    return _splice(tag, parts, d.n_in, d.n_out, wiring, d.loops)


# -- module-level operations ------------------------------------------------


def compose(d2: Diagram, d1: Diagram) -> Diagram:
    """Sequential composition d2 after d1 (d1 runs first)."""
    return d1.then(d2)


def flip(d: Diagram) -> Diagram:
    """Mirror the diagram upside-down: inputs become outputs and vice versa.

    Positions are kept (the k-th input becomes the k-th output), so the
    interpretation of the result is the plain matrix transpose,
    generator-wise this turns e.g. the 1->2 w node into its 2->1 mirror.
    """

    def swap_end(end):
        if end[0] == "i":
            return ("o", end[1])
        if end[0] == "o":
            return ("i", end[1])
        return end

    edges = [tuple(map(swap_end, e)) for e in d.edges]
    return Diagram(d.tag, d.nodes, edges, d.n_out, d.n_in, d.loops)


_OTHER_COLOUR = {Z: X, X: Z}


def color_swap(d: Diagram) -> Diagram:
    """Exchange the two spider colours; triangles get Hadamard-conjugated."""
    if d.tag not in (None, "zx", "zxt"):
        raise CalculusMismatch(f"color_swap is for ZX-family diagrams, not {d.tag}")

    def replace(g: Gen):
        if g.kind in _OTHER_COLOUR:
            return Gen(_OTHER_COLOUR[g.kind], g.n_in, g.n_out, g.phase)
        if g.kind == TRI:
            return seq(h(), tri(g.param), h())
        return None

    return graft(d, replace, d.tag)


def red_to_green(d: Diagram, only: Optional[Container[int]] = None) -> Diagram:
    """Replace each X spider by a Z spider with a Hadamard on every leg,
    which is the X spider's definition; `only` limits this to those node
    indices.

    A single direct pass: each spider's Hadamards follow it in node order.
    """
    red = [g.kind == X and (only is None or i in only) for i, g in enumerate(d.nodes)]
    if not any(red):
        return d
    nodes: list[Gen] = []
    hads: dict[tuple[int, int], int] = {}  # (old node, port) -> H node id
    remap: dict[int, int] = {}
    edges = []
    for i, g in enumerate(d.nodes):
        remap[i] = len(nodes)
        if not red[i]:
            nodes.append(g)
            continue
        zi = len(nodes)
        nodes.append(Gen(Z, g.n_in, g.n_out, g.phase))
        for p in range(g.arity):
            hi = len(nodes)
            nodes.append(Gen(H, 1, 1))
            hads[(i, p)] = hi
            edges.append((("n", hi, 1), ("n", zi, p)))

    def lift(end):
        if end[0] != "n":
            return end
        _, i, p = end
        if (i, p) in hads:
            return ("n", hads[(i, p)], 0)
        return ("n", remap[i], p)

    edges += [tuple(map(lift, e)) for e in d.edges]
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


# -- graph isomorphism --------------------------------------------------------


def _port_class(gen: Gen, port: int) -> str:
    """Canonical port label for matching; symmetric legs share a label."""
    if gen.kind in (Z, X, WZ):
        return "in" if port < gen.n_in else "out"
    if gen.kind == W12 and port > 0:
        return "out"
    return f"p{port}"


def iso_equal(d1: Diagram, d2: Diagram) -> bool:
    """Boundary-fixing graph isomorphism (kinds, phases and params equal;
    spider legs unordered within each side, crossings matched up to cyclic
    rotation)."""
    if d1.shape != d2.shape or d1.loops != d2.loops:
        return False
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return False
    sig1 = [g.signature() for g in d1.nodes]
    sig2 = [g.signature() for g in d2.nodes]
    if Counter(sig1) != Counter(sig2):
        return False

    target = Counter()
    for a, b in d2.edges:
        target[_norm_edge(d2, a, b)] += 1

    n = len(d1.nodes)
    cands = {i: [j for j in range(n) if sig2[j] == sig1[i]] for i in range(n)}
    order = sorted(range(n), key=lambda i: len(cands[i]))
    adj = [[] for _ in range(n)]  # node -> edges incident (by index in d1.edges)
    plain = []
    for e in d1.edges:
        ns = {end[1] for end in e if end[0] == "n"}
        for i in ns:
            adj[i].append(e)
        if not ns:
            plain.append(e)

    used = Counter()
    for a, b in plain:
        ne = tuple(sorted((a, b)))
        used[ne] += 1
        if used[ne] > target[ne]:
            return False

    mapping: dict[int, tuple[int, int]] = {}  # d1 node -> (d2 node, rotation)
    taken = [False] * n

    def norm1(end):
        if end[0] != "n":
            return end
        _, i, p = end
        j, rot = mapping[i]
        g = d1.nodes[i]
        if g.kind == CROSS and rot:
            pos = {q: t for t, q in enumerate(CROSS_CYCLE)}
            p = CROSS_CYCLE[(pos[p] + rot) % 4]
        return ("n", j, _port_class(g, p))

    def ready(end):
        return end[0] != "n" or end[1] in mapping

    def attempt(idx: int) -> bool:
        if idx == len(order):
            return True
        i = order[idx]
        g = d1.nodes[i]
        rots = range(4) if g.kind == CROSS else (0,)
        for j in cands[i]:
            if taken[j]:
                continue
            for rot in rots:
                mapping[i] = (j, rot)
                taken[j] = True
                added = []
                ok = True
                for e in adj[i]:
                    a, b = e
                    other = b if (a[0] == "n" and a[1] == i) else a
                    if not ready(other) or not ready(a) or not ready(b):
                        continue
                    ne = tuple(sorted((norm1(a), norm1(b))))
                    used[ne] += 1
                    added.append(ne)
                    if used[ne] > target[ne]:
                        ok = False
                        break
                if ok and attempt(idx + 1):
                    return True
                for ne in added:
                    used[ne] -= 1
                taken[j] = False
                del mapping[i]
        return False

    return attempt(0)


def _norm_edge(d: Diagram, a, b):
    def norm(end):
        if end[0] != "n":
            return end
        _, j, p = end
        return ("n", j, _port_class(d.nodes[j], p))

    return tuple(sorted((norm(a), norm(b))))


# -- generator shorthands ------------------------------------------------------


def z(n: int, m: int, phase: PhaseLike = 0) -> Diagram:
    return Diagram.generator(Gen(Z, n, m, Phase.coerce(phase)))


def x(n: int, m: int, phase: PhaseLike = 0) -> Diagram:
    return Diagram.generator(Gen(X, n, m, Phase.coerce(phase)))


def h() -> Diagram:
    return Diagram.generator(Gen(H, 1, 1))


def w11() -> Diagram:
    return Diagram.generator(Gen(W11, 1, 1))


def w12() -> Diagram:
    return Diagram.generator(Gen(W12, 1, 2))


def w21() -> Diagram:
    """The 2->1 mirror of the 1->2 w node."""
    return flip(w12())


def white(n: int, m: int, param) -> Diagram:
    return Diagram.generator(Gen(WZ, n, m, None, param))


def white_not() -> Diagram:
    """The fixed 1->1 white node, the r=-1 white spider diag(1,-1)."""
    return white(1, 1, -1)


def white_cz() -> Diagram:
    """The fixed 2->1 white node, the r=-1 white spider [[1,0,0,0],[0,0,0,-1]]."""
    return white(2, 1, -1)


def zw_cross() -> Diagram:
    return Diagram.generator(Gen(CROSS, 2, 2))


def half() -> Diagram:
    return Diagram.generator(Gen(HALF, 0, 0))


def tri(param=1) -> Diagram:
    return Diagram.generator(Gen(TRI, 1, 1, None, param))
