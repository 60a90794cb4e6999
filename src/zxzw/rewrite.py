"""Rewriting: executable schemas, a simplifier, and proof-script checking.

A schema packages a matcher (diagram -> candidate locations) with an applier
(diagram, location -> rewritten diagram).  The matcher is the schema's only
premise: a location is valid for a diagram iff `find` lists it there, and
`apply` raises `StaleLocation` for any other, so locations can be stored and
replayed safely.  Appliers do not re-check it.  Every applier is one node
replacement: it removes the matched nodes and has `diagrams.replace_nodes`
splice the other side of the rule in along their ports, which also closes
wires that come full circle into loops.

The default simplification strategy only uses node-count-decreasing schemas
(spider fusion, identity removal, cancelling Hadamard pairs, folding scalar
spiders into circles); the node-increasing `HOPF` and `COLOR_CHANGE` schemas
are exported for opt-in strategies.

Proof scripts are text files: a `proof NAME` line, a `set AXIOMSET` line,
then diagram blocks separated by `by RULE[, RULE ...]` lines.  `check_proof`
validates that consecutive steps are semantically equal (exactly, whenever
both sides support exact evaluation; with phase variables, proved for every
phase or else sampled) and that every cited rule belongs to the declared
axiom set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from . import rules as _rules
from .diagrams import Diagram, Gen, WZ, Z, X, H as H_KIND, flip, h_layer, replace_nodes, seq, ten
from .dsl import DslError, parse
from .gadgets import half_scalar
from .rings import Cyclo
from .semantics import check_count, eq_linear, eq_semantic  # noqa: F401 (perfbench traces it here)


class StaleLocation(ValueError):
    """The diagram no longer matches the schema at the stored location."""


class ProofError(ValueError):
    """A proof script that cannot be parsed at all."""


@dataclass(frozen=True)
class Schema:
    """A named rewrite: `matcher(d)` lists every location where it applies,
    and `applier(d, loc)` rewrites `d` at one of those locations only."""

    name: str
    matcher: Callable[[Diagram], list]
    applier: Callable[[Diagram, Any], Diagram]


def find(schema: Schema, d: Diagram) -> list:
    """All locations where the schema currently applies, deterministically
    ordered."""
    return schema.matcher(d)


def apply(schema: Schema, d: Diagram, loc) -> Diagram:
    """Apply the schema at one location; raises StaleLocation unless `find`
    lists the location for `d`."""
    if loc not in schema.matcher(d):
        raise StaleLocation(f"{schema.name} does not apply at {loc!r}")
    return schema.applier(d, loc)


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


def _param_mul(p, q):
    if isinstance(p, Cyclo) and isinstance(q, Cyclo):
        return p * q
    a = p.to_complex() if isinstance(p, Cyclo) else complex(p)
    b = q.to_complex() if isinstance(q, Cyclo) else complex(q)
    return a * b


# -- spider fusion ---------------------------------------------------------------

_SPIDERS = (Z, X, WZ)


def _fusion_sites(d: Diagram) -> list:
    kinds = [g.kind for g in d.nodes]
    return [(i, j) for i, j in sorted(_pair_edges(d)) if kinds[i] == kinds[j] in _SPIDERS]


def _fuse(d: Diagram, loc) -> Diagram:
    i, j = loc
    gi, gj = d.nodes[i], d.nodes[j]
    shared = _edges_between(d, i, j)
    (ins_i, outs_i), (ins_j, outs_j) = _legs(d, i, shared), _legs(d, j, shared)
    ins, outs = ins_i + ins_j, outs_i + outs_j
    if gi.kind == WZ:
        merged = Gen(WZ, len(ins), len(outs), None, _param_mul(gi.param, gj.param))
    else:
        merged = Gen(gi.kind, len(ins), len(outs), gi.phase + gj.phase)
    return replace_nodes(d, [((i, j), merged, ins + outs)], cut=shared)


FUSION = Schema("fusion", _fusion_sites, _fuse)


# -- identity removal -------------------------------------------------------------


def _identity_sites(d: Diagram) -> list:
    return [
        i
        for i, g in enumerate(d.nodes)
        if g.kind in (Z, X) and g.n_in == 1 and g.n_out == 1 and g.phase.is_zero
    ]


def _remove_identity(d: Diagram, i) -> Diagram:
    # a spider whose two legs are joined becomes a closed circle
    return replace_nodes(d, [((i,), Diagram.identity(1), [("n", i, 0), ("n", i, 1)])])


IDENTITY_REMOVAL = Schema("identity-removal", _identity_sites, _remove_identity)


# -- cancelling Hadamard pairs ----------------------------------------------------


def _h_cancel_sites(d: Diagram) -> list:
    kinds = [g.kind for g in d.nodes]
    return [(i, j) for i, j in sorted(_pair_edges(d)) if kinds[i] == kinds[j] == H_KIND]


def _cancel_h(d: Diagram, loc) -> Diagram:
    i, j = loc
    # each Hadamard becomes a plain wire; an H pair closed on itself is a
    # circle, trace(id) = 2
    ports = [("n", i, 0), ("n", j, 0), ("n", i, 1), ("n", j, 1)]
    return replace_nodes(d, [((i, j), Diagram.identity(2), ports)])


H_CANCEL = Schema("h-cancel", _h_cancel_sites, _cancel_h)


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


def _merge_scalars(d: Diagram, loc) -> Diagram:
    # 1 + 1 = 2 and (1 + i)(1 - i) = 2: either is one circle
    return replace_nodes(d, [(loc[1:], Diagram.circle(1), [])])


SCALAR_MERGE = Schema("scalar-merge", _scalar_sites, _merge_scalars)


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
        half_scalar(),
    )
    return replace_nodes(d, [((i, j), frag, ins_i + ins_j + outs_i + outs_j)], cut=cut)


HOPF = Schema("hopf", _hopf_sites, _apply_hopf)


# -- colour change (opt-in: grows by one Hadamard per leg) -------------------------


def _colour_sites(d: Diagram) -> list:
    return [i for i, g in enumerate(d.nodes) if g.kind == X]


def _change_colour(d: Diagram, i) -> Diagram:
    g = d.nodes[i]
    # the right side of rule H, with every Hadamard's port 0 on the outer wire
    green = Diagram.generator(Gen(Z, g.n_in, g.n_out, g.phase))
    frag = seq(h_layer(g.n_in), green, flip(h_layer(g.n_out)))
    return replace_nodes(d, [((i,), frag, [("n", i, p) for p in range(g.arity)])])


COLOR_CHANGE = Schema("color-change", _colour_sites, _change_colour)


DEFAULT_STRATEGY = (FUSION, IDENTITY_REMOVAL, H_CANCEL, SCALAR_MERGE)
ALL_SCHEMAS = DEFAULT_STRATEGY + (HOPF, COLOR_CHANGE)


def simplify(d: Diagram, strategy=DEFAULT_STRATEGY, fuel: Optional[int] = None):
    """Repeatedly apply the first matching schema; returns the simplified
    diagram and the trace of (schema name, location) steps taken."""
    if fuel is None:
        fuel = 10 * len(d.nodes)
    check_count("fuel", fuel)
    trace = []
    for _ in range(fuel):
        for schema in strategy:
            locs = find(schema, d)
            if locs:
                d = schema.applier(d, locs[0])  # find just listed it
                trace.append((schema.name, locs[0]))
                break
        else:
            break
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
    blocks: list[list[str]] = [[]]
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
            continue
        if line == "by" or line.startswith("by ") or line.startswith("by,"):
            cited = tuple(r.strip() for r in line[2:].split(",") if r.strip())
            if not cited:
                raise ProofError(f"line {lineno}: 'by' cites no rules")
            citations.append(cited)
            blocks.append([])
        else:
            blocks[-1].append(raw)
    if name is None or set_name is None:
        raise ProofError("missing 'proof NAME' or 'set AXIOMSET' header")
    steps = []
    for k, block in enumerate(blocks):
        src = "\n".join(block)
        if not src.strip():
            raise ProofError(f"step {k} of proof {name!r} is empty")
        try:
            steps.append(parse(src))
        except DslError as e:
            raise ProofError(f"step {k} of proof {name!r}: {e}") from None
    return ProofScript(name, set_name, tuple(steps), tuple(citations))


def check_proof(script: ProofScript, seed: int = 0) -> ProofResult:
    """Semantic check of a proof: consecutive steps must be equal (exact
    arithmetic whenever possible) and cited rules must be in the declared
    axiom set.  Each transition is one `eq_linear` call with `seed`.  A
    transition with free phase variables that passes without a proof for
    every phase is evidence rather than proof, and is counted in
    `sampled_steps`; a refuted one comes with a falsifying valuation."""
    axioms = _rules.axiom_set(script.axiom_set)
    known = {r.name for r in axioms}
    failures = []
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
