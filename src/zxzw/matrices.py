"""Matrices over Z[1/2][omega] or over complex floats, in coordinate form.

A map with n inputs and m outputs denotes a 2^m x 2^n matrix; the row index
enumerates output bit-strings (first output bit most significant) and the
column index input bit-strings.  A `Matrix` keeps only its nonzero entries,
keyed by (row, column), and the scalar ring's zero stands for every other
one, so the storage grows with the nonzeros and not with 2^(m+n).
Exact-mode matrices hold Cyclo entries, float-mode matrices hold complex
numbers; the two meet in `close`, which compares via the complex embedding.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .rings import Cyclo, is_zero


def _to_complex(x) -> complex:
    if isinstance(x, Cyclo):
        return x.to_complex()
    return complex(x)


def _abs(z: complex) -> float:
    """|z| by the C hypot, as numpy takes it.  `abs` raises OverflowError
    where that is inf (and, with errno left over, on NaN), where
    `math.hypot` does not."""
    try:
        return abs(z)
    except OverflowError:
        return math.hypot(z.real, z.imag)


class Matrix:
    """A rows x cols matrix: `entries` maps (row, col) to the nonzero
    entries, and `zero` (the scalar ring's zero: Cyclo(0) or 0j) is every
    entry not in it."""

    __slots__ = ("entries", "rows", "cols", "zero")

    def __init__(self, entries: dict, rows: int, cols: int, zero):
        self.entries = {k: v for k, v in entries.items() if not is_zero(v)}
        self.rows = rows
        self.cols = cols
        self.zero = zero

    @staticmethod
    def from_rows(data: Iterable[Sequence], zero=0) -> "Matrix":
        rows = [list(row) for row in data]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix rows")
        entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
        return Matrix(entries, len(rows), cols, zero)

    # -- inspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, idx):
        return self.entries.get(idx, self.zero)

    def to_rows(self) -> list:
        """Every entry, row by row, with `zero` where none is stored."""
        data = [[self.zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    # -- test oracles --------------------------------------------------------

    def kron(self, other: "Matrix") -> "Matrix":
        entries = {
            (i1 * other.rows + i2, j1 * other.cols + j2): a * b
            for (i1, j1), a in self.entries.items()
            for (i2, j2), b in other.entries.items()
        }
        return Matrix(entries, self.rows * other.rows, self.cols * other.cols, self.zero)

    def transpose(self) -> "Matrix":
        entries = {(j, i): v for (i, j), v in self.entries.items()}
        return Matrix(entries, self.cols, self.rows, self.zero)

    # -- comparison --------------------------------------------------------

    def _nonzero_keys(self, other: "Matrix"):
        return self.entries.keys() | other.entries.keys()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(_entries_equal(self[k], other[k]) for k in self._nonzero_keys(other))

    def close(self, other: "Matrix", tol: float = 1e-9) -> bool:
        """Entry-wise |a - b| <= tol, decided as np.allclose(self, other,
        rtol=0, atol=tol) decides it: equal entries (equal infinities
        included) are close, NaN never is, and nothing is close to an
        entry of `other` whose modulus is not finite unless equal to it."""
        if self.shape != other.shape:
            return False
        for k in self._nonzero_keys(other):
            a, b = _to_complex(self[k]), _to_complex(other[k])
            if not (a == b or (_abs(a - b) <= tol and _abs(b) < math.inf)):
                return False
        return True

    def max_abs_diff(self, other: "Matrix") -> float:
        """The largest |a - b| over all entries: 0.0 for equal matrices,
        NaN when some difference is NaN."""
        diffs = [
            _abs(_to_complex(self[k]) - _to_complex(other[k]))
            for k in self._nonzero_keys(other)
        ]
        return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)

    def __repr__(self):
        return f"Matrix[{self.rows}x{self.cols}]({len(self.entries)} nonzero)"


class SparseMatrix(Matrix):
    """No longer a second storage form: every `Matrix` is in coordinate
    form.  The benchmark's tracer wraps the comparison methods of this name
    as well as of `Matrix`; an alias would have them wrapped twice and
    every comparison counted twice.  Drop it when the tracer drops it."""

    __slots__ = ()


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
