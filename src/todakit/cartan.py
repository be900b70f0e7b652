"""Exact Cartan matrices of the classical series and their inverses.

Conventions follow the block-matrix realizations used throughout this
package: the B-series matrix carries the -2 in its last column (row r-1),
the C-series matrix is its transpose, and the D-series matrix has the
fork in its last two rows.  The closed-form inverse entries are validated
against exact Gauss-Jordan inversion in the test suite rather than trusted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import rmat_inverse, rzeros
from .liealg import SeriesTag


@dataclass(frozen=True)
class CartanMatrix:
    """Exact Cartan matrix and its exact inverse."""

    tag: SeriesTag
    matrix: np.ndarray
    inverse: np.ndarray


@functools.lru_cache(maxsize=None)
def cartan_matrix(tag: SeriesTag) -> CartanMatrix:
    """Assemble the series' Cartan matrix and invert it exactly.

    The result is computed once per tag and cached, so every call with an
    equal tag returns the same object.  Its ``matrix`` and ``inverse`` are
    read-only; a caller that needs to change one should ``.copy()`` it first.
    """
    r = tag.rank
    k = rzeros(r, r)
    for i in range(r):
        k[i, i] = Fraction(2)
        if i + 1 < r:
            k[i, i + 1] = Fraction(-1)
            k[i + 1, i] = Fraction(-1)
    if tag.series == "B" and r >= 2:
        k[r - 2, r - 1] = Fraction(-2)
    elif tag.series == "C" and r >= 2:
        k[r - 1, r - 2] = Fraction(-2)
    elif tag.series == "D":
        k[r - 2, r - 1] = Fraction(0)
        k[r - 1, r - 2] = Fraction(0)
        k[r - 3, r - 1] = Fraction(-1)
        k[r - 1, r - 3] = Fraction(-1)
    inverse = rmat_inverse(k)
    k.setflags(write=False)
    inverse.setflags(write=False)
    return CartanMatrix(tag, k, inverse)


def cartan_inverse_closed_form(tag: SeriesTag, i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse Cartan matrix, 1-based, in closed form."""
    r = tag.rank
    if not (1 <= i <= r and 1 <= j <= r):
        raise IndexError(f"indices ({i}, {j}) out of range for rank {r}")
    if tag.series == "A":
        return Fraction(min(i, j) * (r + 1 - max(i, j)), r + 1)
    if tag.series == "B":
        return Fraction(min(i, j)) if i < r else Fraction(j, 2)
    if tag.series == "C":
        return Fraction(min(i, j)) if j < r else Fraction(i, 2)
    # D series
    if i <= r - 2 and j <= r - 2:
        return Fraction(min(i, j))
    if i <= r - 2:
        return Fraction(i, 2)
    if j <= r - 2:
        return Fraction(j, 2)
    return Fraction(r, 4) if i == j else Fraction(r - 2, 4)
