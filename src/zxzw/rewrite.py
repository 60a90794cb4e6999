"""Rewriting: executable schemas, a simplifier, and proof-script checking.

A schema packages a matcher (diagram -> candidate locations) with an applier
that rewrites a diagram at the locations it lists.  A location is a node
index, or a tuple of node indices after an optional tag.  The matcher is
the schema's only premise: a location is valid for a diagram iff `find`
lists it there, and `apply` raises `StaleLocation` for any other, so
locations can be stored and replayed safely.  Appliers do not re-check it.
Every applier is one node replacement: it removes the matched nodes and has
`diagrams.replace_nodes` splice the other side of the rule in along their
ports, which also closes wires that come full circle into loops.

`simplify` rewrites in rounds.  Each round lists the sites of the first
schema that has any and takes, in one splice, the sites that repeatedly
applying the first listed one would take next: fusion grows each same-kind
component from its lowest node, and identity removal, Hadamard
cancellation and scalar merging take their sites in list order, skipping
overlaps, until one wires two nodes into a site that one site per step
would take next.  Each trace entry is numbered as in the diagram left by
the ones before it, so the output and the trace are those of one site per
step.

The default simplification strategy only uses node-count-decreasing schemas
(spider fusion, identity removal, cancelling Hadamard pairs, folding scalar
spiders into circles); the node-increasing `HOPF` and `COLOR_CHANGE` schemas
are exported for opt-in strategies and take one site per round.

Proof scripts are text files: a `proof NAME` line, a `set AXIOMSET` line,
then diagram blocks separated by `by RULE[, RULE ...]` lines.  `check_proof`
validates that consecutive steps are semantically equal (exactly, whenever
both sides support exact evaluation; with phase variables, proved for every
phase or else sampled) and that every cited rule belongs to the declared
axiom set.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from . import rules as _rules
from .diagrams import Diagram, Gen, WZ, Z, X, H as H_KIND, flip, h_layer, replace_nodes, seq, ten
from .dsl import DslError, parse
from .gadgets import unit_scalar
from .rings import Cyclo
from .semantics import check_count, eq_linear, eq_semantic  # noqa: F401 (perfbench traces it here)


class StaleLocation(ValueError):
    """The diagram no longer matches the schema at the stored location."""


class ProofError(ValueError):
    """A proof script that cannot be parsed at all."""


@dataclass(frozen=True)
class Schema:
    """A named rewrite: `matcher(d)` lists every location where it applies.

    `applier(d, locs, limit, stop)` is given the locations `locs` that
    `find` lists for `d`.  It rewrites `d` at `locs[0]`, then at up to
    `limit - 1` more sites: those that applying the first listed location,
    step after step, would take next.  It stops right after a site that
    wires together two nodes whose sorted pair of kinds is in `stop`, and
    returns the rewritten diagram and the locations it took, each numbered
    as in the diagram left by the ones before it.
    """

    name: str
    matcher: Callable[[Diagram], list]
    applier: Callable[[Diagram, list, int, Any], tuple[Diagram, list]]


def find(schema: Schema, d: Diagram) -> list:
    """All locations where the schema currently applies, deterministically
    ordered."""
    return schema.matcher(d)


def apply(schema: Schema, d: Diagram, loc) -> Diagram:
    """Apply the schema at one location; raises StaleLocation unless `find`
    lists the location for `d`."""
    if loc not in schema.matcher(d):
        raise StaleLocation(f"{schema.name} does not apply at {loc!r}")
    return schema.applier(d, [loc], 1, ())[0]


# -- shared helpers ----------------------------------------------------------------


def _pair_edges(d: Diagram) -> Counter:
    """Multiset of node pairs i<j joined by at least one wire: the number of
    wires that join each.  Each edge is a sorted pair of ends, so a wire
    between two nodes has the lower node at its first end."""
    return Counter([(a[1], b[1]) for a, b in d.edges if a[0] == b[0] == "n" and a[1] != b[1]])


def _edges_between(d: Diagram, i: int, j: int):
    """The wires joining the distinct nodes i and j."""
    lo, hi = (i, j) if i < j else (j, i)
    return [(a, b) for a, b in d.edges if a[1] == lo and b[1] == hi and a[0] == b[0] == "n"]


def _legs(d: Diagram, i: int, cut) -> tuple[list, list]:
    """Node i's ports that are not ends of the `cut` wires: (inputs, outputs)."""
    g = d.nodes[i]
    ends = {end for e in cut for end in e}
    keep = [("n", i, p) for p in range(g.arity) if ("n", i, p) not in ends]
    ins = [end for end in keep if end[2] < g.n_in]
    return ins, keep[len(ins) :]


def _nodes_of(loc) -> tuple:
    """The nodes that a location names."""
    return (loc,) if isinstance(loc, int) else tuple(x for x in loc if isinstance(x, int))


def _renumber(loc, gone: list):
    """`loc` in the numbering left once the nodes `gone` (sorted) are removed."""
    if isinstance(loc, int):
        return loc - bisect(gone, loc)
    return tuple(_renumber(x, gone) if isinstance(x, int) else x for x in loc)


def _kinds(nodes, a, b):
    """The sorted kinds of the nodes at the ends a and b, if distinct nodes."""
    if a[0] == b[0] == "n" and a[1] != b[1]:
        return tuple(sorted((nodes[a[1]].kind, nodes[b[1]].kind)))
    return None


def _param_mul(p, q):
    if isinstance(p, Cyclo) and isinstance(q, Cyclo):
        return p * q
    return complex(p) * complex(q)


def _one_site(rewrite: Callable[[Diagram, Any], Diagram]):
    """An applier that takes the first listed location only."""
    return lambda d, locs, limit, stop: (rewrite(d, locs[0]), locs[:1])


# -- spider fusion ---------------------------------------------------------------

_SPIDERS = (Z, X, WZ)


def _fusion_sites(d: Diagram) -> list:
    kinds = [g.kind for g in d.nodes]
    return [(i, j) for i, j in sorted(_pair_edges(d)) if kinds[i] == kinds[j] in _SPIDERS]


def _fuse(d: Diagram, locs, limit, stop) -> tuple[Diagram, list]:
    """Fuse pairs of spiders, always the lowest listed pair, until `limit`
    pairs are fused.

    The merged spider of a pair stays at its lower node, and the pairs of
    the higher node move onto it, so the lowest pair of all is always the
    lowest node with a neighbour and its lowest neighbour: fusion grows
    each component in turn from its lowest node, by its lowest neighbour
    at each step.
    The spider keeps its members' legs in that order (as one fusion puts
    the lower node's legs first), without the wires between members, and
    sums or multiplies their phases or parameters in the same order.
    """
    nodes = d.nodes
    nbrs = defaultdict(list)
    for i, j in locs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    owner, classes, gone, steps = {}, [], [], []
    for i in sorted(nbrs):
        if len(steps) == limit:
            break
        if i in owner:
            continue
        owner[i], members, heap = i, [i], sorted(nbrs[i])
        while heap and len(steps) < limit:
            j = heappop(heap)
            if j not in owner:
                steps.append(_renumber((i, j), gone))
                insort(gone, j)
                owner[j] = i
                members.append(j)
                for k in nbrs[j]:
                    heappush(heap, k)
        classes.append(members)
    cut = [
        (a, b)
        for a, b in d.edges
        if a[0] == b[0] == "n" and a[1] != b[1] and owner.get(a[1], -1) == owner.get(b[1])
    ]
    ends = {end for e in cut for end in e}
    groups = []
    for members in classes:
        legs = [("n", m, p) for m in members for p in range(nodes[m].arity) if ("n", m, p) not in ends]
        ins = [leg for leg in legs if leg[2] < nodes[leg[1]].n_in]
        outs = [leg for leg in legs if leg[2] >= nodes[leg[1]].n_in]
        g = nodes[members[0]]
        if g.kind == WZ:
            merged = Gen(WZ, len(ins), len(outs), None, reduce(_param_mul, [nodes[m].param for m in members]))
        else:
            merged = Gen(g.kind, len(ins), len(outs), sum([nodes[m].phase for m in members[1:]], g.phase))
        groups.append((members, merged, ins + outs))
    return replace_nodes(d, groups, cut=cut), steps


FUSION = Schema("fusion", _fusion_sites, _fuse)


# -- sites whose nodes become plain wires or circles -------------------------------

# what replaces a site's nodes: with no ports each (scalar spiders), one
# circle; with two each, a wire from port 0 to port 1 of each
_PLAIN = (Diagram.circle(1), Diagram.identity(1), Diagram.identity(2))


def _unwire(d: Diagram, locs, limit, stop) -> tuple[Diagram, list]:
    """Take the listed sites in order, skipping those that share a node with
    one taken, until `limit` are taken or one wires together two nodes
    whose kinds are in `stop`.

    A site's nodes are removed, each 1->1 node leaving a wire from its port
    0 to its port 1; a port -> port map of the wires follows which nodes
    the sites taken so far have wired together.
    """
    nodes = d.nodes
    partner = {}
    for a, b in d.edges:
        partner[a], partner[b] = b, a
    gone, groups, steps, taken = [], [], [], set()
    for loc in locs:
        site = _nodes_of(loc)
        if taken.intersection(site):
            continue
        steps.append(_renumber(loc, gone))
        wired = [i for i in site if nodes[i].arity]
        groups.append((site, _PLAIN[len(wired)], [("n", i, p) for p in (0, 1) for i in wired]))
        taken.update(site)
        for i in site:
            insort(gone, i)
        joined = None
        for i in wired:
            a, b = partner.pop(("n", i, 0)), partner.pop(("n", i, 1))
            joined = None if a == ("n", i, 1) else (a, b)
            if joined:
                partner[a], partner[b] = b, a
        if len(steps) == limit or joined and _kinds(nodes, *joined) in stop:
            break
    return replace_nodes(d, groups), steps


# -- identity removal -------------------------------------------------------------


def _identity_sites(d: Diagram) -> list:
    return [
        i
        for i, g in enumerate(d.nodes)
        if g.kind in (Z, X) and g.n_in == 1 and g.n_out == 1 and g.phase.is_zero
    ]


# a spider whose two legs are joined becomes a closed circle
IDENTITY_REMOVAL = Schema("identity-removal", _identity_sites, _unwire)


# -- cancelling Hadamard pairs ----------------------------------------------------


def _h_cancel_sites(d: Diagram) -> list:
    kinds = [g.kind for g in d.nodes]
    return [(i, j) for i, j in sorted(_pair_edges(d)) if kinds[i] == kinds[j] == H_KIND]


# each Hadamard becomes a plain wire; an H pair closed on itself is a
# circle, trace(id) = 2
H_CANCEL = Schema("h-cancel", _h_cancel_sites, _unwire)


# -- scalar spiders ---------------------------------------------------------------


def _is_dot(g: Gen, k) -> bool:
    """An isolated spider whose value is 1 + e^{i k pi} (exact phase k*pi)."""
    return (
        g.kind in (Z, X)
        and g.arity == 0
        and g.phase.is_exact
        and g.phase.is_constant
        and g.phase.const == k
    )


def _scalar_sites(d: Diagram) -> list:
    out = []
    pos, neg = [], []
    for i, g in enumerate(d.nodes):
        if _is_dot(g, 0):
            out.append(("two", i))
        elif _is_dot(g, Fraction(1, 2)):
            pos.append(i)
        elif _is_dot(g, Fraction(3, 2)):
            neg.append(i)
    out += [("pair", i, j) for i, j in zip(pos, neg)]
    return sorted(out)


# 1 + 1 = 2 and (1 + i)(1 - i) = 2: either is one circle
SCALAR_MERGE = Schema("scalar-merge", _scalar_sites, _unwire)


# -- the Hopf pair (opt-in: emits a scalar gadget) ---------------------------------


def _hopf_sites(d: Diagram) -> list:
    out = []
    for (i, j), wires in sorted(_pair_edges(d).items()):
        kinds = {d.nodes[i].kind, d.nodes[j].kind}
        if kinds == {Z, X} and wires >= 2:
            out.append((i, j))
    return out


def _apply_hopf(d: Diagram, loc) -> Diagram:
    i, j = loc
    cut = sorted(_edges_between(d, i, j))[:2]
    (ins_i, outs_i), (ins_j, outs_j) = _legs(d, i, cut), _legs(d, j, cut)
    gi, gj = d.nodes[i], d.nodes[j]
    frag = ten(
        Diagram.generator(Gen(gi.kind, len(ins_i), len(outs_i), gi.phase)),
        Diagram.generator(Gen(gj.kind, len(ins_j), len(outs_j), gj.phase)),
        unit_scalar(0, -2),
    )
    return replace_nodes(d, [((i, j), frag, ins_i + ins_j + outs_i + outs_j)], cut=cut)


HOPF = Schema("hopf", _hopf_sites, _one_site(_apply_hopf))


# -- colour change (opt-in: grows by one Hadamard per leg) -------------------------


def _colour_sites(d: Diagram) -> list:
    return [i for i, g in enumerate(d.nodes) if g.kind == X]


def _change_colour(d: Diagram, i) -> Diagram:
    g = d.nodes[i]
    # the right side of rule H, with every Hadamard's port 0 on the outer wire
    green = Diagram.generator(Gen(Z, g.n_in, g.n_out, g.phase))
    frag = seq(h_layer(g.n_in), green, flip(h_layer(g.n_out)))
    return replace_nodes(d, [((i,), frag, [("n", i, p) for p in range(g.arity)])])


COLOR_CHANGE = Schema("color-change", _colour_sites, _one_site(_change_colour))


DEFAULT_STRATEGY = (FUSION, IDENTITY_REMOVAL, H_CANCEL, SCALAR_MERGE)
ALL_SCHEMAS = DEFAULT_STRATEGY + (HOPF, COLOR_CHANGE)


# the sorted kinds of two nodes that a new wire between them can make a site
# of each schema (of Hopf, if it is a second wire), and the schemas whose
# sites a fusion can make
_WIRED_SITES = {FUSION: [(k, k) for k in _SPIDERS], H_CANCEL: [(H_KIND, H_KIND)], HOPF: [(X, Z)]}
_FUSED_SITES = {IDENTITY_REMOVAL, SCALAR_MERGE, HOPF}


def simplify(d: Diagram, strategy=DEFAULT_STRATEGY, fuel: Optional[int] = None):
    """Simplify `d` in rounds; returns the simplified diagram and the trace
    of (schema name, location) steps, at most `fuel` (default: ten per node).

    The result and the trace are those of repeatedly applying the first
    location of the first schema in `strategy` that matches.  Each round
    lists the sites of that schema once and applies, in one splice, the
    sites that those steps would take next.  A round ends where a step
    wires two nodes into a site of a schema in the strategy up to this one.
    Where a schema not exported here, or one whose sites a fusion can make,
    comes before it, the round takes one site.
    """
    if fuel is None:
        fuel = 10 * len(d.nodes)
    check_count("fuel", fuel)
    trace = []
    while len(trace) < fuel:
        for k, schema in enumerate(strategy):
            locs = find(schema, d)
            if locs:
                break
        else:
            break
        seen = strategy[: k + 1]
        stop = {pair for s in seen for pair in _WIRED_SITES.get(s, ())}
        alone = not set(seen) <= set(ALL_SCHEMAS) or schema is FUSION and not _FUSED_SITES.isdisjoint(seen)
        d, steps = schema.applier(d, locs, 1 if alone else fuel - len(trace), stop)
        trace += [(schema.name, loc) for loc in steps]
    return d, trace


# -- proof scripts -----------------------------------------------------------------


@dataclass(frozen=True)
class ProofScript:
    name: str
    axiom_set: str
    steps: tuple[Diagram, ...]
    citations: tuple[tuple[str, ...], ...]  # one tuple of rule names per transition


@dataclass(frozen=True)
class ProofResult:
    name: str
    axiom_set: str
    n_steps: int
    failures: tuple[dict, ...]
    sampled_steps: int = 0  # passing transitions with phase variables, sampled, not proved

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "proof": self.name,
            "set": self.axiom_set,
            "steps": self.n_steps,
            "status": "PASS" if self.ok else "FAIL",
            "sampled_steps": self.sampled_steps,
            "failures": list(self.failures),
        }


def parse_proof(text: str) -> ProofScript:
    """Parse a proof script: header lines, then diagram blocks separated by
    `by RULE[, RULE ...]` lines."""
    name = None
    set_name = None
    blocks: list[tuple[int, list[str]]] = []  # (first file line, lines)
    citations: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if name is None:
            if not line:
                continue
            if not line.startswith("proof "):
                raise ProofError(f"line {lineno}: expected 'proof NAME', got {line!r}")
            name = line[len("proof ") :].strip()
            continue
        if set_name is None:
            if not line:
                continue
            if not line.startswith("set "):
                raise ProofError(f"line {lineno}: expected 'set AXIOMSET', got {line!r}")
            set_name = line[len("set ") :].strip()
            blocks.append((lineno + 1, []))
            continue
        if line == "by" or line.startswith("by ") or line.startswith("by,"):
            cited = tuple(r.strip() for r in line[2:].split(",") if r.strip())
            if not cited:
                raise ProofError(f"line {lineno}: 'by' cites no rules")
            citations.append(cited)
            blocks.append((lineno + 1, []))
        else:
            blocks[-1][1].append(raw)
    if name is None or set_name is None:
        raise ProofError("missing 'proof NAME' or 'set AXIOMSET' header")
    steps = []
    for k, (first, block) in enumerate(blocks):
        src = "\n".join(block)
        if not src.strip():
            raise ProofError(f"step {k} of proof {name!r} is empty")
        try:
            steps.append(parse(src))
        except DslError as e:
            at_file_line = DslError(e.message, first - 1 + e.line, e.col)
            raise ProofError(f"step {k} of proof {name!r}: {at_file_line}") from None
    return ProofScript(name, set_name, tuple(steps), tuple(citations))


def check_proof(script: ProofScript, seed: int = 0) -> ProofResult:
    """Semantic check of a proof: every step must be a diagram of the
    declared axiom set's calculus, consecutive steps must be equal (exact
    arithmetic whenever possible) and cited rules must be in that set.  A
    step of another calculus fails with its index and `tag`.  Each
    transition is one `eq_linear` call with `seed`.  A transition with
    free phase variables that passes without a proof for every phase is
    evidence rather than proof, and is counted in `sampled_steps`; a
    refuted one comes with a falsifying valuation."""
    axioms = _rules.axiom_set(script.axiom_set)
    known = {r.name for r in axioms}
    failures = [
        {"step": k, "tag": d.tag,
         "reason": f"a {d.tag} diagram, which set {script.axiom_set!r} cannot hold"}
        for k, d in enumerate(script.steps)
        if d.tag is not None and d.tag not in axioms.tags
    ]
    sampled = 0
    for k, cited in enumerate(script.citations):
        for c in cited:
            if c not in known:
                failures.append(
                    {"step": k, "reason": f"rule {c!r} is not in set {script.axiom_set!r}"}
                )
        lhs, rhs = script.steps[k], script.steps[k + 1]
        if lhs.shape != rhs.shape:
            failures.append(
                {"step": k, "reason": f"shape changed from {lhs.shape} to {rhs.shape}"}
            )
            continue
        res = eq_linear(lhs, rhs, seed=seed)
        if res.equal and not res.proved and (lhs.free_variables() or rhs.free_variables()):
            sampled += 1
        if not res.equal:
            failures.append({"step": k, "reason": "sides are not semantically equal"})
    return ProofResult(
        script.name, script.axiom_set, len(script.steps), tuple(failures), sampled
    )
