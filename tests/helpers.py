"""Shared test utilities: random diagram generation, and matrices as
numpy arrays for the oracles that compare against them."""

import random
from fractions import Fraction

import numpy as np

from zxzw.diagrams import Diagram, Gen
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Cyclo

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


def as_array(m) -> np.ndarray:
    """A `Matrix` as a complex ndarray, every entry filled in."""
    return np.array(
        [[x.to_complex() if isinstance(x, Cyclo) else complex(x) for x in row] for row in m.to_rows()],
        dtype=complex,
    )


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b, exact for exact entries: numpy multiplies the
    object arrays of the entries with their own + and *."""
    product = np.array(a.to_rows(), dtype=object) @ np.array(b.to_rows(), dtype=object)
    return Matrix.from_rows(product.tolist(), a.zero)
