"""Matrices in coordinate form: equality and closeness decided entry by
entry, as numpy decided them on the filled-in arrays, and the equality
decision's verdict and difference on two diagrams with these matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_array
from zxzw import semantics
from zxzw.diagrams import Diagram
from zxzw.matrices import Matrix
from zxzw.rings import Cyclo

INF, NAN = math.inf, math.nan


def _verdict(a: Matrix, b: Matrix, tol: float = 1e-9):
    """`eq_linear`'s float verdict on two diagrams whose interpretations
    are `a` and `b`: `semantics.interp` is the one contraction entry point
    of the decision, so it is the place to substitute them."""
    d1, d2 = Diagram.identity(), Diagram.identity()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "interp", lambda d, *rest: a if d is d1 else b)
        return semantics.eq_linear(d1, d2, tol=tol, exact=False)


def test_entry_nonzero_on_one_side_only():
    a = Matrix.from_rows([[Cyclo(1), Cyclo(0)], [Cyclo(0), Cyclo(1)]], Cyclo(0))
    b = Matrix.from_rows([[Cyclo(1), Cyclo(0)], [Cyclo(0), Cyclo(0)]], Cyclo(0))
    assert (1, 1) in a.entries and (1, 1) not in b.entries
    assert a != b and b != a
    assert not a.close(b) and not b.close(a)
    assert _verdict(a, b).largest_difference() == _verdict(b, a).largest_difference() == 1.0
    tiny = Matrix.from_rows([[1, 0], [0, 1e-12]], 0j)
    zero = Matrix.from_rows([[1, 0], [0, 0]], 0j)
    assert tiny != zero and tiny.close(zero) and zero.close(tiny)
    assert _verdict(zero, tiny) and _verdict(zero, tiny, 0.0).largest_difference() == 1e-12


def test_rows_view_fills_in_zero():
    m = Matrix({(1, 0): Cyclo(2)}, 2, 3, Cyclo(0))
    assert m.to_rows() == [[Cyclo(0)] * 3, [Cyclo(2), Cyclo(0), Cyclo(0)]]
    assert m[0, 2] == Cyclo(0) and m[1, 0] == Cyclo(2)
    assert m.transpose().shape == (3, 2) and m.transpose()[0, 1] == Cyclo(2)


ENTRIES = st.sampled_from(
    [0j, 1 + 0j, 1 + 1e-10j, -1 + 0j, 1e-9 + 0j, complex(INF, 0), complex(-INF, 0),
     complex(0, INF), complex(NAN, 0), 1.5e308 + 1.5e308j]
)
SQUARES = st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(SQUARES, SQUARES, st.sampled_from([0.0, 1e-9, 1e-3]))
def test_close_and_max_abs_diff_agree_with_numpy(rows_a, rows_b, tol):
    a, b = Matrix.from_rows(rows_a, 0j), Matrix.from_rows(rows_b, 0j)
    with np.errstate(all="ignore"):
        arr_a, arr_b = as_array(a), as_array(b)
        want_close = bool(np.allclose(arr_a, arr_b, rtol=0, atol=tol))
        # equal entries, equal infinities included, have no difference
        want_diff = float(np.max(np.abs(np.where(arr_a == arr_b, 0, arr_a - arr_b)), initial=0.0))
    assert a.close(b, tol) == want_close
    res = _verdict(a, b, tol)
    assert res.equal == want_close
    if not res.equal:  # a False verdict carries the difference at its witness
        got_diff = res.largest_difference()
        assert got_diff == want_diff or (math.isnan(got_diff) and math.isnan(want_diff))
