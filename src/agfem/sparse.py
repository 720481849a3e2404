"""Compressed sparse row matrices on scipy's compiled kernels.

``CSR`` holds the four arrays of a CSR matrix and calls the routines of
the extension module ``scipy.sparse._sparsetools`` that scipy's own
``csr_matrix`` calls: ``A @ x`` (or ``A.matvec(x, out)`` into a
caller's buffer) is ``csr_matvec``, ``A.matmat(B)`` ``csr_matmat``,
``A.transpose()`` ``csr_tocsc``, ``A.diagonal(k)`` ``csr_diagonal`` and
``A.toarray()`` ``csr_todense``, on the same arrays, so every result is
bitwise scipy's.  The extension is loaded on its own, from scipy's
``sparse/`` directory: importing the ``scipy.sparse`` package would also
run ``scipy._lib.array_api_compat``, which imports every numpy
submodule, ``numpy.f2py`` and ``numpy.testing`` included, and costs more
than a small solve.

Index arrays are int32 wherever the shape and the number of stored
entries fit, as scipy's constructor makes them: the product is slower on
int64 indices (about 4.0 against 3.1 ms for the 2.7M entries of the
circle at level 10).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

_EXTENSION = "scipy.sparse._sparsetools"


def _load_sparsetools():
    """The extension module ``scipy.sparse._sparsetools``, loaded without
    running ``scipy/__init__.py`` or ``scipy/sparse/__init__.py``."""
    if _EXTENSION in sys.modules:
        return sys.modules[_EXTENSION]
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        _EXTENSION, [os.path.join(p, "sparse")
                     for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"agfem needs scipy's compiled sparse kernels "
                          f"({_EXTENSION}); install scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_EXTENSION] = module
    return module


_sparsetools = _load_sparsetools()


def _index_dtype(shape, nnz):
    """int32 when every index and offset of a valid CSR matrix of this
    shape and entry count fits in it, else int64."""
    return np.int32 if max(*shape, nnz) < 2 ** 31 \
        else np.int64


@dataclass(eq=False)
class CSR:
    """A CSR matrix: row i holds the columns ``indices[indptr[i]:indptr[i
    + 1]]`` with values ``data`` at the same positions, in stored order.
    The index arrays are converted to ``_index_dtype``, sharing memory
    where they already have it, and ``data`` to float64."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self):
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.data = np.asarray(self.data, dtype=np.float64)
        dtype = _index_dtype(self.shape, self.data.size)
        self.indices = np.asarray(self.indices, dtype=dtype)
        self.indptr = np.asarray(self.indptr, dtype=dtype)
        if self.indptr.shape != (self.shape[0] + 1,) \
                or self.indices.shape != self.data.shape:
            raise ValueError(
                f"CSR of shape {self.shape}: {self.indptr.size} row offsets, "
                f"{self.indices.size} columns and {self.data.size} values")

    @classmethod
    def of(cls, A) -> "CSR":
        """``A`` itself, or a record on the arrays of a matrix in CSR
        format, such as scipy's ``csr_matrix``."""
        if isinstance(A, cls):
            return A
        if getattr(A, "format", None) != "csr":
            raise TypeError(f"expected a CSR matrix, got {type(A).__name__}")
        return cls(A.data, A.indices, A.indptr, A.shape)

    @classmethod
    def vstack(cls, blocks) -> "CSR":
        """The blocks' rows one after another; every block has the same
        number of columns."""
        cols = {A.shape[1] for A in blocks}
        if len(cols) != 1:
            raise ValueError(f"blocks have different column counts {cols}")
        ends = np.cumsum([0] + [A.nnz for A in blocks])
        indptr = np.concatenate(
            [A.indptr[:-1] + e for A, e in zip(blocks, ends)] + [ends[-1:]])
        return cls(np.concatenate([A.data for A in blocks]),
                   np.concatenate([A.indices for A in blocks]), indptr,
                   (sum(A.shape[0] for A in blocks), cols.pop()))

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.indptr[-1])

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"matrix of shape {self.shape} times a vector "
                             f"of shape {x.shape}")
        return self.matvec(
            x, np.empty(self.shape[0], dtype=np.result_type(self.data, x)))

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``self @ x`` written into ``out`` and returned, with no check and
        no allocation: ``x`` and ``out`` are float64 vectors of the column
        and row counts.  ``csr_matvec`` adds into ``out``, so it is zeroed
        first, and every row sums as in ``@``."""
        out.fill(0.0)
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices,
                                self.data, x, out)
        return out

    def diagonal(self, k: int = 0) -> np.ndarray:
        """Entries (i, i + k), duplicates summed."""
        M, N = self.shape
        if k <= -M or k >= N:
            return np.empty(0)
        y = np.empty(min(M + min(k, 0), N - max(k, 0)))
        _sparsetools.csr_diagonal(k, M, N, self.indptr, self.indices,
                                  self.data, y)
        return y

    def rows(self) -> np.ndarray:
        """The row of every stored entry, in stored order: with
        ``indices`` and ``data``, the matrix in coordinate form."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indptr.dtype),
                         np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """The dense matrix, duplicates summed in stored order."""
        out = np.zeros(self.shape)
        _sparsetools.csr_todense(*self.shape, self.indptr, self.indices,
                                 self.data, out)
        return out

    def transpose(self) -> "CSR":
        """The transpose, each row's columns ascending, as ``csr_tocsc``
        gives them: entry (i, j) stays a separate entry (j, i)."""
        M, N = self.shape
        dtype = _index_dtype((N, M), self.nnz)
        indptr = np.empty(N + 1, dtype=dtype)
        indices = np.empty(self.nnz, dtype=dtype)
        data = np.empty(self.nnz)
        _sparsetools.csr_tocsc(M, N, self.indptr.astype(dtype, copy=False),
                               self.indices.astype(dtype, copy=False),
                               self.data, indptr, indices, data)
        return CSR(data, indices, indptr, (N, M))

    def matmat(self, B: "CSR") -> "CSR":
        """``self @ B`` as ``csr_matmat`` forms it: row i sums v * B's row
        j over the stored entries (j, v) of row i in stored order, starting
        from 0, each column in one running sum; sums equal to zero are not
        stored, and a row's columns are in no set order."""
        (M, K), (K2, N) = self.shape, B.shape
        if K != K2:
            raise ValueError(f"matrix of shape {self.shape} times one of "
                             f"shape {B.shape}")
        dtype = np.result_type(self.indptr, B.indptr)
        args = [a.astype(dtype, copy=False)
                for a in (self.indptr, self.indices, B.indptr, B.indices)]
        nnz = _sparsetools.csr_matmat_maxnnz(M, N, *args)
        dtype = np.result_type(dtype, _index_dtype((M, N), nnz))
        args = [a.astype(dtype, copy=False) for a in args]
        indptr = np.empty(M + 1, dtype=dtype)
        indices = np.empty(nnz, dtype=dtype)
        data = np.empty(nnz)
        _sparsetools.csr_matmat(M, N, *args[:2], self.data, *args[2:], B.data,
                                indptr, indices, data)
        # room the zero sums left, handed back in place: the arrays are ours
        for a in (indices, data):
            a.resize(int(indptr[-1]), refcheck=False)
        return CSR(data, indices, indptr, (M, N))
