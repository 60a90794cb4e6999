"""Small dense matrices over Z[1/2][omega] or over complex floats.

A map with n inputs and m outputs denotes a 2^m x 2^n matrix; the row index
enumerates output bit-strings (first output bit most significant) and the
column index input bit-strings.  Exact-mode matrices hold Cyclo entries,
float-mode matrices hold complex numbers; the two meet in `close`, which
compares via the complex embedding.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .rings import Cyclo, is_zero


def _to_complex(x) -> complex:
    if isinstance(x, Cyclo):
        return x.to_complex()
    return complex(x)


class Matrix:
    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: Iterable[Sequence]):
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(n: int, one=1) -> "Matrix":
        zero = one - one
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int, zero=0) -> "Matrix":
        return Matrix([[zero] * cols for _ in range(rows)])

    @staticmethod
    def scalar(value) -> "Matrix":
        return Matrix([[value]])

    @staticmethod
    def column(entries: Sequence) -> "Matrix":
        return Matrix([[e] for e in entries])

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ot = list(zip(*other.data))
        return Matrix(
            [
                [_dot(row, col) for col in ot]
                for row in self.data
            ]
        )

    def kron(self, other: "Matrix") -> "Matrix":
        out = []
        for r1 in self.data:
            for r2 in other.data:
                out.append([a * b for a in r1 for b in r2])
        return Matrix(out)

    def scale(self, k) -> "Matrix":
        return Matrix([[k * x for x in row] for row in self.data])

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def conj(self) -> "Matrix":
        return Matrix(
            [
                [x.conj() if isinstance(x, Cyclo) else _to_complex(x).conjugate() for x in row]
                for row in self.data
            ]
        )

    # -- inspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def numpy(self) -> np.ndarray:
        return np.array(
            [[_to_complex(x) for x in row] for row in self.data], dtype=complex
        )

    def is_exact(self) -> bool:
        return all(isinstance(x, (Cyclo, int)) for row in self.data for x in row)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        for r1, r2 in zip(self.data, other.data):
            for a, b in zip(r1, r2):
                if not _entries_equal(a, b):
                    return False
        return True

    def __hash__(self):
        return hash(self.data)

    def close(self, other: "Matrix", tol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.numpy(), other.numpy(), rtol=0, atol=tol))

    def max_abs_diff(self, other: "Matrix") -> float:
        return float(np.max(np.abs(self.numpy() - other.numpy()), initial=0.0))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"Matrix[{self.rows}x{self.cols}]({body})"


class SparseMatrix:
    """Coordinate-list matrix for boundary sizes where dense storage would
    not fit (beyond 64x64); only nonzero entries are kept, and `zero` (the
    scalar ring's zero: Cyclo(0) or 0j) stands for every other entry."""

    __slots__ = ("entries", "rows", "cols", "zero")

    def __init__(self, entries: dict, rows: int, cols: int, zero):
        self.entries = {
            k: v for k, v in entries.items() if not is_zero(v)
        }
        self.rows = rows
        self.cols = cols
        self.zero = zero

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, idx):
        return self.entries.get(idx, self.zero)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(_entries_equal(v, other.entries[k]) for k, v in self.entries.items())

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries)))

    def close(self, other, tol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(
            abs(_to_complex(self[k]) - _to_complex(other[k])) <= tol for k in keys
        )

    def to_dense(self) -> Matrix:
        data = [[self.zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return Matrix(data)

    def __repr__(self):
        return f"SparseMatrix[{self.rows}x{self.cols}]({len(self.entries)} nonzero)"


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _entries_equal(a, b) -> bool:
    if isinstance(a, Cyclo) or isinstance(b, Cyclo):
        ca = a if isinstance(a, Cyclo) else _int_cyclo(a)
        cb = b if isinstance(b, Cyclo) else _int_cyclo(b)
        if ca is not None and cb is not None:
            return ca == cb
        return _to_complex(a) == _to_complex(b)
    return a == b


def _int_cyclo(x):
    if isinstance(x, int):
        return Cyclo(x)
    return None
