"""Standard matrix interpretation of diagrams, and semantic equality.

A diagram with n inputs and m outputs denotes a 2^m x 2^n matrix over the
complex numbers; when every phase is an exact multiple of pi/4 and every
node parameter lies in Z[1/2][omega], the interpretation can be carried out
entirely in that ring (Exact mode) so that equality is decidable with no
tolerance at all.

The interpreter contracts sparse generator tensors along the edge list,
eliminating at each step the pair of tensors whose merge leaves the fewest
open wires.  Red spiders are not given their own tensor: a pre-pass rewrites
each one into a green spider with a Hadamard on every leg, which is their
definition.  The result is a `matrices.Matrix` for every boundary size: the
nonzero entries that the contraction leaves, keyed by (row, column).

The same contraction runs over Laurent polynomials in z_v = e^{iv} for
diagrams whose phases carry variables, so `eq_linear` interprets each side
once and decides every valuation from the difference; when all constants
are exact, an identically zero difference proves equality for every phase.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .diagrams import CROSS, H, HALF, TRI, W11, W12, WZ, Z, ArityMismatch, Diagram, Gen, red_to_green
from .matrices import Matrix
from .phases import Phase
from .rings import INV_SQRT2, Cyclo, Laurent, is_zero


class SemanticsError(Exception):
    pass


@dataclass(frozen=True)
class Exact:
    """Interpret in Z[1/2][omega]; requires pi/4-exact, variable-free content."""


@dataclass(frozen=True)
class Float:
    """Interpret in complex floats; `tol` is the equality tolerance."""

    tol: float = 1e-9


InterpMode = Union[Exact, Float]
EXACT = Exact()
FLOAT = Float()


def exact_eligible(d: Diagram) -> bool:
    """True when every phase is a closed multiple of pi/4 and every
    parameter lies in the ring."""
    return not d.free_variables() and _constants_exact(d)


def _constants_exact(d: Diagram) -> bool:
    """True when the constant part of every phase is a multiple of pi/4 and
    every parameter lies in the ring: then every valuation on the pi/4 grid
    is exact-eligible."""
    for g in d.nodes:
        if g.phase is not None and not (g.phase.is_exact and (g.phase.const * 4).denominator == 1):
            return False
        if g.param is not None and not isinstance(g.param, (int, Cyclo)):
            return False
    return True


def best_mode(*ds: Diagram, tol: float = 1e-9) -> InterpMode:
    return EXACT if all(exact_eligible(d) for d in ds) else Float(tol)


# -- generator tensors ---------------------------------------------------------
# A tensor is (labels, entries): one label per leg, entries a sparse map
# from 0/1 assignment tuples to ring/complex values.


def _phase_factor(phase, exact: bool):
    if exact:
        k = phase.omega_exponent()
        if k is None:  # free variables were refused before
            raise SemanticsError(f"phase {phase!r} is not an exact multiple of pi/4")
        return Cyclo.omega_power(k)
    return cmath.exp(1j * phase.to_float())


def _param_value(param, exact: bool):
    if exact:
        if not isinstance(param, Cyclo):
            raise SemanticsError(f"parameter {param!r} is outside Z[1/2][omega]")
        return param
    return param.to_complex() if isinstance(param, Cyclo) else complex(param)


def _gen_entries(g: Gen, exact: bool) -> dict:
    one = Cyclo(1) if exact else 1 + 0j
    if g.kind == Z or g.kind == WZ:
        top = (
            _phase_factor(g.phase, exact)
            if g.kind == Z
            else _param_value(g.param, exact)
        )
        ent: dict = {}
        k = g.arity
        _accum(ent, (0,) * k, one)
        _accum(ent, (1,) * k, top)
        return ent
    if g.kind == H:
        r = INV_SQRT2 if exact else complex(INV_SQRT2.to_complex())
        return {(0, 0): r, (0, 1): r, (1, 0): r, (1, 1): -r}
    if g.kind == W11:
        return {(0, 1): one, (1, 0): one}
    if g.kind == W12:
        return {(0, 0, 1): one, (0, 1, 0): one, (1, 0, 0): one}
    if g.kind == CROSS:
        return {(0, 0, 0, 0): one, (0, 1, 1, 0): one, (1, 0, 0, 1): one, (1, 1, 1, 1): -one}
    if g.kind == HALF:
        return {(): Cyclo(1, 0, 0, 0, 1) if exact else 0.5 + 0j}
    if g.kind == TRI:
        r = _param_value(g.param, exact)
        return {(0, 0): one, (1, 0): r, (1, 1): one}
    raise SemanticsError(f"no tensor for generator kind {g.kind}")  # X handled by pre-pass


def _accum(d: dict, key, value):
    if key in d:
        d[key] = d[key] + value
    else:
        d[key] = value


# -- contraction ---------------------------------------------------------------


def _self_trace(labels: list, entries: dict):
    """Contract legs of one tensor that share a label (node self-loops)."""
    while True:
        dup = None
        for idx, lab in enumerate(labels):
            j = labels.index(lab, idx + 1) if lab in labels[idx + 1 :] else -1
            if j >= 0:
                dup = (idx, j)
                break
        if dup is None:
            return labels, entries
        i, j = dup
        out: dict = {}
        for key, val in entries.items():
            if key[i] == key[j]:
                red = tuple(v for t, v in enumerate(key) if t != i and t != j)
                _accum(out, red, val)
        labels = [lab for t, lab in enumerate(labels) if t != i and t != j]
        entries = out


def _contract_pair(t1, t2):
    labels1, e1 = t1
    labels2, e2 = t2
    shared = [lab for lab in labels1 if lab in labels2]
    pos1 = [labels1.index(lab) for lab in shared]
    pos2 = [labels2.index(lab) for lab in shared]
    keep1 = [t for t in range(len(labels1)) if t not in pos1]
    keep2 = [t for t in range(len(labels2)) if t not in pos2]
    index: dict = {}
    for key, val in e2.items():
        sig = tuple(key[t] for t in pos2)
        index.setdefault(sig, []).append((tuple(key[t] for t in keep2), val))
    out: dict = {}
    for key, val in e1.items():
        sig = tuple(key[t] for t in pos1)
        left = tuple(key[t] for t in keep1)
        for right, v2 in index.get(sig, ()):
            _accum(out, left + right, val * v2)
    out = {k: v for k, v in out.items() if not is_zero(v)}
    labels = [labels1[t] for t in keep1] + [labels2[t] for t in keep2]
    return labels, out


def _contract_all(tensors):
    """Contract a tensor list to a single tensor, eliminating at each step
    the connected pair that leaves the fewest open legs (edge-driven greedy
    with a lazy heap, linear-ish in the number of internal wires)."""
    import heapq

    pool = dict(enumerate(tensors))
    owners: dict = {}
    for tid, (labels, _) in pool.items():
        for lab in labels:
            owners.setdefault(lab, set()).add(tid)

    def pair_cost(t1, t2):
        l1, l2 = pool[t1][0], pool[t2][0]
        shared = len(set(l1) & set(l2))
        return len(l1) + len(l2) - 2 * shared

    heap = []
    next_id = len(tensors)

    def push_pairs(tid):
        seen = set()
        for lab in pool[tid][0]:
            for other in owners.get(lab, ()):
                if other != tid and other not in seen:
                    seen.add(other)
                    a, b = min(tid, other), max(tid, other)
                    heapq.heappush(heap, (pair_cost(a, b), a, b))

    for tid in list(pool):
        push_pairs(tid)

    while heap:
        _, a, b = heapq.heappop(heap)
        if a not in pool or b not in pool:
            continue  # one side already merged away; pair is stale
        merged = _contract_pair(pool[a], pool[b])
        for tid in (a, b):
            for lab in pool[tid][0]:
                owners[lab].discard(tid)
            del pool[tid]
        tid = next_id
        next_id += 1
        pool[tid] = merged
        for lab in merged[0]:
            owners.setdefault(lab, set()).add(tid)
        push_pairs(tid)

    # the rest are disconnected: fold by outer product, smallest first
    rest = sorted(pool.values(), key=lambda t: len(t[1]))
    out = rest[0]
    for t in rest[1:]:
        out = _contract_pair(out, t)
    return out


def interp(d: Diagram, mode: InterpMode = EXACT) -> Matrix:
    """The matrix denoted by `d`: 2^{n_out} x 2^{n_in}, exact or float."""
    if d.free_variables():
        raise SemanticsError(f"free phase variables {sorted(d.free_variables())}")
    exact = isinstance(mode, Exact)
    one = Cyclo(1) if exact else 1 + 0j
    coords = _contract_diagram(d, lambda g: _gen_entries(g, exact), one)
    return Matrix(coords, 1 << d.n_out, 1 << d.n_in, Cyclo(0) if exact else 0j)


def _contract_diagram(d: Diagram, gen_entries, one) -> dict:
    """Contract the tensor network of `d`, whose generator tensors come
    from `gen_entries(g)` over the scalar ring with unit `one`, to a map
    from (row, col) to the nonzero entries of its matrix."""
    d = red_to_green(d)

    # label every edge; boundary ports get their own open labels
    tensors = []
    port_label: dict = {}
    for idx, (a, b) in enumerate(d.edges):
        for end in (a, b):
            if end[0] == "n":
                port_label[(end[1], end[2])] = idx
        if a[0] != "n" and b[0] != "n":
            # wire between two boundary ports: a 2-leg identity tensor
            tensors.append(([_blabel(a), _blabel(b)], {(0, 0): one, (1, 1): one}))
    for i, g in enumerate(d.nodes):
        labels = []
        for p in range(g.arity):
            lab = port_label.get((i, p))
            if lab is None:
                raise SemanticsError(f"unwired port {p} of node {i}")
            labels.append(lab)
        # boundary-adjacent legs re-labelled to open boundary labels
        labels = [_openlabel(d, lab, i) for lab, _ in zip(labels, range(g.arity))]
        tensors.append(_self_trace(labels, gen_entries(g)))

    scalar = one
    for _ in range(d.loops):
        scalar = scalar * (one + one)
    if not tensors:
        tensors.append(([], {(): scalar}))
    else:
        lab0, e0 = tensors[0]
        tensors[0] = (lab0, {k: v * scalar for k, v in e0.items()})

    labels, entries = _contract_all(tensors)
    m, n = d.n_out, d.n_in
    rowpos = {("bo", k): k for k in range(m)}
    colpos = {("bi", k): k for k in range(n)}
    assert sorted(labels, key=str) == sorted(list(rowpos) + list(colpos), key=str)
    coords: dict = {}
    for key, val in entries.items():
        row = col = 0
        for lab, bit in zip(labels, key):
            if lab in rowpos:
                row |= bit << (m - 1 - rowpos[lab])
            else:
                col |= bit << (n - 1 - colpos[lab])
        coords[(row, col)] = val
    return coords


def _blabel(end):
    return ("bi", end[1]) if end[0] == "i" else ("bo", end[1])


def _openlabel(d: Diagram, edge_idx: int, _node: int):
    a, b = d.edges[edge_idx]
    if a[0] != "n":
        return _blabel(a)
    if b[0] != "n":
        return _blabel(b)
    return edge_idx


# -- equality -------------------------------------------------------------------


def eq_semantic(d1: Diagram, d2: Diagram, mode: Optional[InterpMode] = None) -> bool:
    """Entrywise equality of the two interpretations (exact or within tol)."""
    if d1.shape != d2.shape:
        raise ArityMismatch(f"cannot compare {d1.shape} with {d2.shape}")
    if mode is None:
        mode = best_mode(d1, d2)
    m1, m2 = interp(d1, mode), interp(d2, mode)
    if isinstance(mode, Exact):
        return m1 == m2
    return m1.close(m2, mode.tol)


@dataclass(frozen=True)
class LinearEqResult:
    """Outcome of an equality check on diagrams with phase variables.

    `proved` is True when the two exact interpretations are identical as
    polynomials in the phases, which holds for every real valuation;
    otherwise a True `equal` is evidence from the valuations checked."""

    equal: bool
    witness: Optional[Mapping[str, object]]  # falsifying valuation, if any
    valuations_checked: int
    proved: bool = False

    def __bool__(self) -> bool:
        return self.equal


def eq_linear(
    d1: Diagram,
    d2: Diagram,
    samples: int = 100,
    seed: Optional[int] = None,
    tol: float = 1e-9,
) -> LinearEqResult:
    """Equality of two diagram families over their shared phase variables.

    Each side is interpreted once as a matrix of Laurent polynomials in
    z_v = e^{iv}; their difference is then checked on every valuation of
    the pi/4 grid (subsampled beyond 4096 combinations), exactly when every
    constant is in the ring, plus `samples` uniform random valuations in
    float.  Variables are pooled from both sides, so a family may be
    compared against a variable-free diagram.  A False verdict is always
    right and carries the first falsifying valuation as its witness.  A
    True verdict is `proved` for every real valuation when the difference
    is exactly zero; with float constants it is evidence from the
    valuations checked.
    """
    if d1.shape != d2.shape:
        raise ArityMismatch(f"cannot compare {d1.shape} with {d2.shape}")
    names = sorted(d1.free_variables() | d2.free_variables())
    if not names:
        mode = best_mode(d1, d2, tol=tol)
        ok = eq_semantic(d1, d2, mode)
        return LinearEqResult(ok, None if ok else {}, 1, ok and isinstance(mode, Exact))

    rng = random.Random(seed)
    total = 8 ** len(names)
    if total <= 4096:
        combos = range(total)
    else:
        combos = sorted(rng.sample(range(total), 4096))
    exact = _constants_exact(d1) and _constants_exact(d2)
    m1, m2 = (_laurent_interp(d, names, exact) for d in (d1, d2))
    zero = Laurent({})
    diff = [m1.get(k, zero) - m2.get(k, zero) for k in m1.keys() | m2.keys()]
    diff = [e for e in diff if not e.is_zero()]
    proved = exact and not diff

    # In exact mode the grid is decided at once: the 8-point DFT over
    # Z[1/2][omega] is invertible, so the difference vanishes on the whole
    # grid exactly when it is zero mod z_v^8 - 1; the scan only finds the
    # first witness.
    grid = [e for e in (e.mod_z8() for e in diff) if not e.is_zero()] if exact else diff
    if grid:
        for checked, combo in enumerate(combos, 1):
            rs = [combo // 8**i % 8 for i in range(len(names))]
            if not all(_negligible(e.at_omega(rs), tol) for e in grid):
                return LinearEqResult(False, {v: Fraction(r, 4) for v, r in zip(names, rs)}, checked)
    checked = len(combos)
    for _ in range(samples):
        val = {v: rng.uniform(0.0, 2.0 * cmath.pi) for v in names}
        checked += 1
        thetas = [val[v] for v in names]
        if not all(abs(e.at_angles(thetas)) <= tol for e in diff):
            return LinearEqResult(False, dict(val), checked)
    return LinearEqResult(True, None, checked, proved)


def _negligible(x, tol: float) -> bool:
    return x.is_zero() if isinstance(x, Cyclo) else abs(x) <= tol


def _laurent_interp(d: Diagram, names: list, exact: bool) -> dict:
    """`d` interpreted over Laurent polynomials in z_v = e^{iv}, one
    exponent slot per name: a map from (row, col) to nonzero entries."""
    slot = {v: i for i, v in enumerate(names)}
    base = (0,) * len(names)
    one = Laurent({base: Cyclo(1) if exact else 1 + 0j})

    def entries(g: Gen) -> dict:
        if g.kind != Z or g.phase.is_constant:
            return {k: Laurent({base: v}) for k, v in _gen_entries(g, exact).items()}
        exps = list(base)
        for v, n in g.phase.terms:
            exps[slot[v]] = n
        top = Laurent({tuple(exps): _phase_factor(Phase(g.phase.const), exact)})
        ent: dict = {}
        _accum(ent, (0,) * g.arity, one)
        _accum(ent, (1,) * g.arity, top)
        return ent

    return _contract_diagram(d, entries, one)
