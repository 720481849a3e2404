import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from agfem.sparse import CSR

values = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def csr_arrays(draw, n_cols=None, max_rows=6):
    """(data, indices, indptr, shape) of a CSR matrix with empty rows,
    repeated and unsorted columns allowed, and int64 index arrays."""
    n_cols = draw(st.integers(1, 7)) if n_cols is None else n_cols
    lens = draw(st.lists(st.integers(0, 4), max_size=max_rows))
    nnz = sum(lens)
    indices = np.array(draw(st.lists(st.integers(0, n_cols - 1),
                                     min_size=nnz, max_size=nnz)),
                       dtype=np.int64)
    data = np.array(draw(st.lists(values, min_size=nnz, max_size=nnz)),
                    dtype=np.float64)
    indptr = np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])
    return data, indices, indptr, (len(lens), n_cols)


def _same(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _pair(arrays):
    data, indices, indptr, shape = arrays
    return (CSR(data, indices, indptr, shape),
            sp.csr_matrix((data, indices, indptr), shape=shape))


@settings(max_examples=200, deadline=None)
@given(arrays=csr_arrays(), x=st.data())
def test_csr_record_equals_scipy_bitwise(arrays, x):
    A, S = _pair(arrays)
    # int32 indices wherever they fit, as scipy's constructor makes them
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert _same(A.indices, S.indices) and _same(A.indptr, S.indptr)
    assert A.shape == S.shape and A.nnz == S.nnz
    v = np.array(x.draw(st.lists(values, min_size=A.shape[1],
                                 max_size=A.shape[1])), dtype=np.float64)
    assert _same(A @ v, S @ v)
    M, N = A.shape
    # into a buffer that holds stale values, as the solver's does
    out = np.full(M, np.nan)
    assert A.matvec(v, out) is out and _same(out, S @ v)
    for k in range(-M - 1, N + 2):
        assert _same(A.diagonal(k), S.diagonal(k))
    coo = sp.coo_matrix(S)
    assert _same(A.rows(), coo.row) and _same(A.indices, coo.col) \
        and _same(A.data, coo.data)
    assert _same(A.toarray(), S.toarray())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(csr_arrays(n_cols=n, max_rows=4), min_size=1,
                       max_size=4)))
def test_csr_vstack_equals_scipy_bitwise(blocks):
    # blocks with zero rows stand for subdomains that own no row
    records, matrices = zip(*map(_pair, blocks))
    A = CSR.vstack(list(records))
    S = sp.vstack(list(matrices)).tocsr()
    assert A.shape == S.shape
    for name in ("data", "indices", "indptr"):
        assert _same(getattr(A, name), getattr(S, name)), name


def test_csr_of_shares_a_scipy_matrix_and_rejects_other_formats():
    S = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 3.0]]))
    A = CSR.of(S)
    assert A.data is S.data and A.indices is S.indices
    assert CSR.of(A) is A
    with pytest.raises(TypeError, match="expected a CSR matrix"):
        CSR.of(S.tocsc())
    with pytest.raises(TypeError, match="expected a CSR matrix"):
        CSR.of(S.toarray())


def test_csr_checks_its_arrays_and_operands():
    with pytest.raises(ValueError, match="3 row offsets"):
        CSR(np.ones(2), np.zeros(2), np.array([0, 1, 2]), (3, 2))
    A = CSR(np.ones(2), np.array([0, 1]), np.array([0, 1, 2]), (2, 2))
    with pytest.raises(ValueError, match=r"times a vector of shape \(3,\)"):
        A @ np.ones(3)
    with pytest.raises(ValueError, match="different column counts"):
        CSR.vstack([A, CSR(np.ones(0), np.zeros(0), np.zeros(1), (0, 3))])


def test_csr_indices_widen_only_past_int32():
    big = np.iinfo(np.int32).max + 1
    A = CSR(np.ones(1), np.array([big - 1]), np.array([0, 1]), (1, big))
    assert A.indices.dtype == A.indptr.dtype == np.int64
    S = sp.csr_matrix((np.ones(1), np.array([big - 1]), np.array([0, 1])),
                      shape=(1, big))
    assert S.indices.dtype == np.int64
