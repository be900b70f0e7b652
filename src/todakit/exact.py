"""Exact rational matrices: the reference tools of the exact layer.

Rational values are ``fractions.Fraction`` (arbitrary-precision, always
stored in lowest terms with a positive denominator).  Matrices are numpy
object arrays whose entries are Fractions, so ``@`` on them and the
inverse below are exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(ArithmeticError):
    """A matrix required to be invertible is singular; ``index`` locates it in a stack."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


def rational_matrix(rows) -> np.ndarray:
    """Build a rational matrix (object ndarray of Fractions) from nested data."""
    data = [[Fraction(entry) for entry in row] for row in rows]
    ncols = {len(row) for row in data}
    if len(ncols) != 1:
        raise ShapeError("rows have unequal lengths")
    out = np.empty((len(data), ncols.pop()), dtype=object)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            out[i, j] = entry
    return out


def rzeros(nrows: int, ncols: int) -> np.ndarray:
    out = np.empty((nrows, ncols), dtype=object)
    out[:, :] = Fraction(0)
    return out


def rmat_inverse(a: np.ndarray) -> np.ndarray:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting.

    The pivot is the largest entry by absolute value in the current column;
    ties are broken by the lowest row index, so the elimination order is
    deterministic.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix of shape {a.shape} is not square")
    n = a.shape[0]
    work = a.copy()
    inv = rzeros(n, n)
    np.fill_diagonal(inv, Fraction(1))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: (abs(work[r, col]), -r))
        if work[pivot_row, col] == 0:
            raise SingularMatrixError("matrix is singular over the rationals")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        pivot = work[col, col]
        work[col] = work[col] / pivot
        inv[col] = inv[col] / pivot
        for row in range(n):
            if row != col and work[row, col] != 0:
                factor = work[row, col]
                work[row] = work[row] - factor * work[col]
                inv[row] = inv[row] - factor * inv[col]
    return inv


def rmat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact entrywise equality."""
    return a.shape == b.shape and bool(np.all(a == b))
