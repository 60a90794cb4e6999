"""Standard matrix interpretation of diagrams, and semantic equality.

A diagram with n inputs and m outputs denotes a 2^m x 2^n matrix over the
complex numbers; when every phase is an exact multiple of pi/4 and every
node parameter lies in Z[1/2][omega], the interpretation can be carried out
entirely in that ring (Exact mode) so that equality is decidable with no
tolerance at all.

The interpreter contracts sparse generator tensors along the edge list,
eliminating at each step the pair of tensors whose merge leaves the fewest
open wires.  Every wire is labelled by one rule: its edge index, and where
both ends lie on the boundary or on one node, a fresh label for its second
end and an identity tensor joining the two.  So a bare wire is an
identity, a self-loop a trace, and closed loops one scalar tensor, with no
case of their own.  There is no pre-pass and no diagram is rebuilt: a red
spider is its definition, a green spider's tensor with a Hadamard tensor on
every leg.  Up to arity 4 that definition is contracted once per generator
object and call, and the spider enters the network as one tensor; a wider
one enters with a Hadamard per leg.  The result is a `matrices.Matrix` for
every boundary size: the nonzero entries that the contraction leaves,
keyed by (row, column).

A tensor keeps its nonzero entries keyed by 0/1 tuples, one slot per leg.
A pair contraction reads the shared and the kept slots of each key with
`operator.itemgetter`s.  These come from a plan cached per shape (the two
leg counts and the shared positions; at most 4096 plans), and no table
over the 2^legs assignments is ever built, so a wide spider costs what its
nonzero entries do.  Within one call each generator object's tensor is
built once and shared by every node that holds it.

The same contraction runs over the ring extended by Laurent polynomials in
z_v = e^{iv}: a phase with variables enters as a monomial, a node
parameter that is a `Laurent` polynomial in ring parameters as it is,
and every other entry as a ring element; `interp` is the one entry point.
Equality has one decision, `eq_linear`: each side contracted once, their
difference (`laurent_difference`) decided at each valuation by
`vanishes_at`, so an identically zero exact difference proves equality for
every phase.  `eq_semantic` and the command line read its verdict, and the
rule verifier decides every binding by the same two functions.
"""

from __future__ import annotations

import cmath
import heapq
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from typing import Mapping, Optional, Union

from .diagrams import CROSS, H, HALF, TRI, W11, W12, WZ, X, Z, ArityMismatch, Diagram, Gen
from .matrices import Matrix
from .phases import Phase
from .rings import INV_SQRT2, Cyclo, Laurent, is_zero


class SemanticsError(Exception):
    pass


class ArgumentError(ValueError):
    """A numeric argument outside its meaningful range; the message names it."""


def check_tol(tol: float) -> None:
    if not 0 <= tol < cmath.inf:
        raise ArgumentError(f"tol must be finite and non-negative, got {tol}")


def check_count(name: str, n: int) -> None:
    if n < 0:
        raise ArgumentError(f"{name} must be non-negative, got {n}")


@dataclass(frozen=True)
class Exact:
    """Interpret in Z[1/2][omega]; requires pi/4-exact, variable-free content."""


@dataclass(frozen=True)
class Float:
    """Interpret in complex floats; `tol` is the equality tolerance."""

    tol: float = 1e-9

    def __post_init__(self):
        check_tol(self.tol)


InterpMode = Union[Exact, Float]
EXACT = Exact()
FLOAT = Float()


def constants_exact(d: Diagram) -> bool:
    """True when the constant part of every phase is a multiple of pi/4 and
    every parameter lies in the ring: then every valuation on the pi/4 grid
    is exact-eligible."""
    for g in d.nodes:
        if g.phase is not None and not (g.phase.is_exact and (g.phase.const * 4).denominator == 1):
            return False
        if g.param is not None and not _in_ring(g.param):
            return False
    return True


def _in_ring(param) -> bool:
    """True for a ring element, or a `Laurent` parameter with ring coefficients."""
    if isinstance(param, Laurent):
        return all(isinstance(c, (int, Cyclo)) for c in param.terms.values())
    return isinstance(param, (int, Cyclo))


def best_mode(*ds: Diagram, tol: float = 1e-9) -> InterpMode:
    approx = Float(tol)  # refuses a meaningless tolerance whichever mode is picked
    return EXACT if all(constants_exact(d) for d in ds) else approx


# -- generator tensors ---------------------------------------------------------
# A tensor is (labels, entries): one label per leg, entries a sparse map
# from 0/1 assignment tuples to ring/complex values.


def phase_value(phase):
    """e^{i phase}: omega^k on the pi/4 grid, a float complex elsewhere."""
    k = phase.omega_exponent()
    return cmath.exp(1j * phase.to_float()) if k is None else Cyclo.omega_power(k)


def _phase_factor(phase, exact: bool, slot: Mapping[str, int]):
    """e^{i phase} in the ring; for a phase with variables, the monomial
    in z_v = e^{iv} whose exponent of v sits at slot[v] (a free variable
    has no slot, and is refused)."""
    if phase.terms:
        exps = [0] * len(slot)
        for v, n in phase.terms:
            if v not in slot:
                raise SemanticsError(f"free phase variable {v!r}")
            exps[slot[v]] = n
        return Laurent({tuple(exps): _phase_factor(Phase(phase.const), exact, slot)})
    v = phase_value(phase)
    if exact and v.__class__ is not Cyclo:
        raise SemanticsError(f"phase {phase!r} is not an exact multiple of pi/4")
    return v if exact else complex(v)


def _param_value(param, exact: bool):
    if exact:
        if not _in_ring(param):
            raise SemanticsError(f"parameter {param!r} is outside Z[1/2][omega]")
        return param
    if isinstance(param, Laurent):
        return Laurent({n: complex(c) for n, c in param.terms.items()})
    return complex(param)


def _gen_entries(g: Gen, exact: bool, slot: Mapping[str, int]) -> dict:
    one = Cyclo(1) if exact else 1 + 0j
    if g.kind == Z:
        return _spider(g.arity, one, _phase_factor(g.phase, exact, slot))
    if g.kind == WZ:
        return _spider(g.arity, one, _param_value(g.param, exact))
    if g.kind == H:
        r = INV_SQRT2 if exact else complex(INV_SQRT2)
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
    raise SemanticsError(f"no tensor for generator kind {g.kind}")  # X: from Z and H in _contract_diagram


def _spider(k: int, one, top) -> dict:
    """A k-legged spider: `one` on all zeros, `top` on all ones."""
    return {(0,) * k: one, (1,) * k: top} if k else {(): one + top}


_HADAMARD = Gen(H, 1, 1)


# -- contraction ---------------------------------------------------------------


def _picker(pos: tuple):
    """A getter for the key slots at `pos`, as a tuple (a slice when they
    are contiguous)."""
    if not pos or pos == tuple(range(pos[0], pos[0] + len(pos))):
        return itemgetter(slice(pos[0], pos[-1] + 1) if pos else slice(0))
    return itemgetter(*pos)


@lru_cache(maxsize=4096)
def _plan(n1: int, pos1: tuple, n2: int, pos2: tuple):
    """Getters for the shared and the kept key slots of two tensors with
    `n1` and `n2` legs that share the legs at `pos1` and `pos2`.  Cached by
    these shapes: at most 4096 plans, each of four getters."""
    keep1 = tuple(t for t in range(n1) if t not in pos1)
    keep2 = tuple(t for t in range(n2) if t not in pos2)
    return _picker(pos1), _picker(keep1), _picker(pos2), _picker(keep2)


def _contract_pair(labels1: tuple, e1: dict, labels2: tuple, e2: dict):
    """Sum over the labels that the two tensors share; the result's legs
    are the rest of `labels1`, then the rest of `labels2`."""
    pos1, pos2 = [], []
    for t, lab in enumerate(labels1):
        if lab in labels2:
            pos1.append(t)
            pos2.append(labels2.index(lab))
    sig1, left1, sig2, right2 = _plan(len(labels1), tuple(pos1), len(labels2), tuple(pos2))
    index: dict = {}
    for key, val in e2.items():
        sig = sig2(key)
        if sig in index:
            index[sig].append((right2(key), val))
        else:
            index[sig] = [(right2(key), val)]
    out: dict = {}
    for key, val in e1.items():
        matches = index.get(sig1(key))
        if matches is None:
            continue
        left = left1(key)
        for right, v2 in matches:
            k = left + right
            if k in out:
                out[k] = out[k] + val * v2
            else:
                out[k] = val * v2
    out = {k: v for k, v in out.items() if not is_zero(v)}
    return left1(labels1) + right2(labels2), out


_OPEN = sys.maxsize  # the missing second end of a boundary label


def _contract_all(tensors):
    """Contract a tensor list to a single tensor, eliminating at each step
    the connected pair that leaves the fewest open legs, ties to the
    lowest ids (edge-driven greedy with a lazy heap).

    Every label sits on two legs, or on one for a boundary label, so
    `owners` maps it to the ids of the two tensors that carry it (`_OPEN`
    for a missing one), and a pair's cost comes from counting the labels
    that a tensor shares with each neighbour."""
    labels = [lab for lab, _ in tensors]
    entries = [ent for _, ent in tensors]  # None once merged away
    owners: dict = {}
    for tid, labs in enumerate(labels):
        for lab in labs:
            if lab in owners:
                owners[lab][1] = tid
            else:
                owners[lab] = [tid, _OPEN]
    heap: list = []

    def push_pairs(tid):
        """Queue the pairs of `tid` with its neighbours of lower id."""
        shared: dict = {}
        for lab in labels[tid]:
            ends = owners[lab]
            other = ends[ends[0] == tid]
            if other < tid:
                shared[other] = shared.get(other, 0) + 1
        n = len(labels[tid])
        for other, k in shared.items():
            heapq.heappush(heap, (n + len(labels[other]) - 2 * k, other, tid))

    for tid in range(len(tensors)):
        push_pairs(tid)

    while heap:
        _, a, b = heapq.heappop(heap)
        if entries[a] is None or entries[b] is None:
            continue  # one side already merged away; pair is stale
        merged, ent = _contract_pair(labels[a], entries[a], labels[b], entries[b])
        entries[a] = entries[b] = None
        tid = len(labels)
        labels.append(merged)
        entries.append(ent)
        for lab in merged:
            ends = owners[lab]
            ends[ends[0] != a and ends[0] != b] = tid
        push_pairs(tid)

    # the rest are disconnected: fold by outer product, smallest first
    rest = [(lab, ent) for lab, ent in zip(labels, entries) if ent is not None]
    rest.sort(key=lambda t: len(t[1]))
    out = rest[0]
    for t in rest[1:]:
        out = _contract_pair(*out, *t)
    return out


def interp(d: Diagram, mode: InterpMode = EXACT, slot: Optional[Mapping] = None) -> Matrix:
    """The matrix denoted by `d`: 2^{n_out} x 2^{n_in}, exact or float.
    Every phase variable of `d` needs its exponent slot in `slot`; the
    entries are then Laurent polynomials (see `_contract_diagram`)."""
    exact = isinstance(mode, Exact)
    coords = _contract_diagram(d, exact, slot or {})
    return Matrix(coords, 1 << d.n_out, 1 << d.n_in, Cyclo(0) if exact else 0j)


def _contract_diagram(d: Diagram, exact: bool, slot: Mapping[str, int]) -> dict:
    """Contract the tensor network of `d`, exact or float, to a map from
    (row, col) to the nonzero entries of its matrix.  A phase with
    variables, which must all be in `slot`, enters as a Laurent monomial
    (`_phase_factor`); every other entry stays a bare ring element.

    Every wire end is labelled by one rule.  A wire between two distinct
    nodes, or between a node and the boundary, is one label, its edge
    index.  A wire whose ends both lie on the boundary or both on one node
    gives its second end a fresh label and adds a 2-leg identity tensor
    joining the two, so a bare wire is an identity and a self-loop a trace.
    Closed loops are one 0-leg tensor worth 2^loops, added when there are
    loops or no other tensors.

    An X spider enters as its definition: a Z tensor, then one Hadamard
    per leg in port order, port 0 on the leg's wire and port 1 on the Z
    tensor's leg.  Up to arity 4 that network is contracted once per
    generator object and call, and the spider enters as one tensor: its
    2^k entries are then no more than the network's 2 + 4k.  A wider X
    spider enters as the network itself, a Z tensor on fresh labels of its
    own and a Hadamard per leg, so that the greedy order can merge each
    Hadamard into a neighbour instead of building 2^k entries."""
    m, n = d.n_out, d.n_in
    one = Cyclo(1) if exact else 1 + 0j
    tensors = []
    port_labels = [[None] * g.arity for g in d.nodes]
    weight = {}  # each boundary label's weight in the row-major index row * 2^n + col
    fresh = len(d.edges)  # fresh labels count on from the last wire index
    identity = {(0, 0): one, (1, 1): one}
    for idx, (a, b) in enumerate(d.edges):
        lab_b = idx
        if a[0] != "n" != b[0] or a[:2] == b[:2]:  # both ends on the boundary, or on one node
            lab_b, fresh = fresh, fresh + 1
            tensors.append(((idx, lab_b), identity))
        for end, lab in ((a, idx), (b, lab_b)):
            if end[0] == "n":
                port_labels[end[1]][end[2]] = lab
            else:
                weight[lab] = 1 << (n - 1 - end[1] if end[0] == "i" else n + m - 1 - end[1])
    # each generator object's tensor (a wide X spider's: its Z tensor) is
    # built once; keyed by identity, as hashing a Gen's phase costs more
    # than rebuilding the few equal generators that are distinct objects
    built: dict = {}

    def tensor(g: Gen) -> dict:
        ent = built.get(id(g))
        if ent is None:
            if g.kind != X:
                ent = _gen_entries(g, exact, slot)
            else:
                ent = _gen_entries(Gen(Z, g.n_in, g.n_out, g.phase), exact, slot)
                k = g.arity
                if k <= 4:
                    # leg i's Hadamard takes label i and leaves k + i as the
                    # last leg, so the legs end in port order
                    legs = tuple(range(k))
                    for i in range(k):
                        legs, ent = _contract_pair(legs, ent, (k + i, i), tensor(_HADAMARD))
            built[id(g)] = ent
        return ent

    for i, g in enumerate(d.nodes):
        if g.kind != X or g.arity <= 4:
            tensors.append((tuple(port_labels[i]), tensor(g)))
            continue
        legs = tuple(range(fresh, fresh + g.arity))
        fresh += g.arity
        tensors.append((legs, tensor(g)))
        for lab, lab_in in zip(port_labels[i], legs):
            tensors.append(((lab, lab_in), tensor(_HADAMARD)))
    if d.loops or not tensors:
        tensors.append(((), {(): one * 2**d.loops}))

    labels, entries = _contract_all(tensors)
    assert weight.keys() == set(labels)
    weights = [weight[lab] for lab in labels]
    return {divmod(sum(map(mul, key, weights)), 1 << n): val for key, val in entries.items()}


# -- equality -------------------------------------------------------------------


def eq_semantic(d1: Diagram, d2: Diagram, mode: Optional[InterpMode] = None) -> bool:
    """Equality of the interpretations of two variable-free diagrams:
    `eq_linear`'s verdict, in `mode` (exact, or float within its `tol`)
    or, by default, exactly when every constant is in the ring."""
    free = d1.free_variables() | d2.free_variables()
    if free:
        raise SemanticsError(f"free phase variables {sorted(free)}")
    exact = None if mode is None else isinstance(mode, Exact)
    tol = mode.tol if isinstance(mode, Float) else FLOAT.tol
    return eq_linear(d1, d2, tol=tol, exact=exact).equal


@dataclass(frozen=True)
class LinearEqResult:
    """Outcome of an equality check on two diagrams or diagram families.

    `proved` is True when the two exact interpretations are identical as
    polynomials in the phases, which holds for every real valuation;
    otherwise a True `equal` is evidence from the valuations checked.  A
    False `equal` carries the entries of the difference at `witness`."""

    equal: bool
    witness: Optional[Mapping[str, object]]  # falsifying valuation, if any
    valuations_checked: int
    proved: bool = False
    difference: tuple = field(default=(), repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.equal

    def largest_difference(self) -> float:
        """The largest modulus among `difference`: NaN when some entry is
        NaN; OverflowError when an exact entry is beyond a float."""
        sizes = [math.hypot(z.real, z.imag) for z in map(complex, self.difference)]
        return math.nan if any(map(math.isnan, sizes)) else max(sizes, default=0.0)


def eq_linear(
    d1: Diagram,
    d2: Diagram,
    samples: int = 100,
    seed: Optional[int] = None,
    tol: float = 1e-9,
    exact: Optional[bool] = None,
) -> LinearEqResult:
    """Equality of two diagrams, or of two families over their pooled
    phase variables: the one equality decision.

    Each side is interpreted once as a matrix of Laurent polynomials in
    z_v = e^{iv}, exactly if `exact` (by default: if every constant is in
    the ring), else in float.  Their difference is checked by `vanishes_at`
    on every valuation of the pi/4 grid (subsampled beyond 4096), then at
    `samples` random valuations; a pair with no variables has one.  A False
    verdict is always right and carries the first falsifying valuation as
    its witness.  A True verdict is `proved` for every real valuation when
    the exact difference is zero, else evidence from the valuations checked.
    """
    check_tol(tol)
    check_count("samples", samples)
    if d1.shape != d2.shape:
        raise ArityMismatch(f"cannot compare {d1.shape} with {d2.shape}")
    names = sorted(d1.free_variables() | d2.free_variables())
    if exact is None:
        exact = constants_exact(d1) and constants_exact(d2)
    rng = random.Random(seed)
    total = 8 ** len(names)
    if total <= 4096:
        combos = range(total)
    else:
        combos = sorted(rng.sample(range(total), 4096))
    diff, grid = laurent_difference(d1, d2, names, exact)
    # in exact mode an empty `grid` decides the whole grid at once; the
    # scan only finds the first witness
    if grid:
        for checked, combo in enumerate(combos, 1):
            rs = [combo // 8**i % 8 for i in range(len(names))]
            if not vanishes_at(grid, rs, tol):
                witness = {v: Fraction(r, 4) for v, r in zip(names, rs)}
                values = tuple(_values_at(grid, rs))
                return LinearEqResult(False, witness, checked, difference=values)
    checked = len(combos)
    for _ in range(samples if names else 0):
        val = {v: rng.uniform(0.0, 2.0 * cmath.pi) for v in names}
        point = [cmath.exp(1j * val[v]) for v in names]
        checked += 1
        if diff and not vanishes_at(diff, point, tol):
            values = tuple(_values_at(diff, point))
            return LinearEqResult(False, val, checked, difference=values)
    return LinearEqResult(True, None, checked, exact and not diff)


def _values_at(grid: list, point: list):
    """The values of the polynomials of `grid` at `point` (see `vanishes_at`)."""
    if all(x.__class__ is int for x in point):
        return (e.at_omega(point) for e in grid)
    return (e.at(point) for e in grid)


def vanishes_at(grid: list, point: list, tol: float) -> bool:
    """True when every polynomial of `grid` is zero at `point`.  A point
    of ints r_v is z_v = omega^{r_v}, decided exactly for ring coefficients
    and within `tol` for float ones; a point of complex values z_v (e^{iv}
    for a phase variable, the value of a ring parameter) within `tol`.  A
    float value is within `tol` when its modulus, by `math.hypot`, is at
    most `tol`: an infinite or NaN value never is."""
    values = _values_at(grid, point)
    return all(is_zero(x) if isinstance(x, (Cyclo, int)) else math.hypot(x.real, x.imag) <= tol
               for x in values)


def laurent_difference(
    d1: Diagram, d2: Diagram, names: list, exact: bool, params: tuple = ()
) -> tuple:
    """The nonzero entries of `d1` minus `d2`, exact or float, as Laurent
    polynomials in z_v = e^{iv} with one exponent slot per phase variable
    in `names`, then one per ring parameter in `params`, the slots of the
    diagrams' `Laurent` node parameters; and the entries that stay
    nonzero on the pi/4 grid.  Each side is contracted once by `interp`,
    in its ring extended by the phases and parameters with variables, and
    an entry with no variable becomes a constant polynomial.  Entries that
    are `==`, equal infinities included, have no difference.

    In exact mode the second list holds the entries that are nonzero mod
    z_v^8 - 1 in the phase slots: as the 8-point DFT over Z[1/2][omega] is
    invertible, an entry vanishes at every z_v = omega^r exactly when that
    remainder is zero.  A parameter slot is never reduced.  In float mode
    the second list is the first."""
    slot = {v: i for i, v in enumerate([*names, *params])}
    m1, m2 = (interp(d, EXACT if exact else FLOAT, slot).entries for d in (d1, d2))
    base = (0,) * len(slot)
    pairs = ((m1.get(k, 0), m2.get(k, 0)) for k in m1.keys() | m2.keys())
    diff = (a - b for a, b in pairs if a != b)  # so equal infinities have no difference
    diff = [e if isinstance(e, Laurent) else Laurent({base: e}) for e in diff]
    diff = [e for e in diff if not e.is_zero()]
    grid = [e for e in (e.mod_z8(len(names)) for e in diff) if not e.is_zero()] if exact else diff
    return diff, grid
