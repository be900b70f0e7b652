"""Concrete matrix realizations of the classical Lie algebras.

Series A is realized on gl(r+1) (sl via the trace predicate), series B and D
on the orthogonal algebras defined by the antidiagonal bilinear form, and
series C on the symplectic algebra for the antidiagonal symplectic form;
``invariant_form`` gives each series' form and ``t_transpose`` the twist.
All indices in the public API are 1-based, matching the unit matrices
e_{i,j}; matrices built here carry exact integer entries and promote to
complex automatically in floating computations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exact import ShapeError, SingularMatrixError

_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}


def _integers(values, what: str, error: type[ValueError] = ValueError) -> tuple[int, ...]:
    """The iterable ``values`` as a tuple of ints, or ``error`` naming ``what``.

    The one check of a caller's integers: anything with ``__index__`` but a bool.
    """
    try:
        items = tuple(values)
        if not any(isinstance(v, bool) for v in items):
            return tuple(map(operator.index, items))
    except TypeError:
        pass
    raise error(f"{what} must be integers, got {values!r}")


@dataclass(frozen=True)
class SeriesTag:
    """One of the four classical series at a given rank."""

    series: str
    rank: int

    def __post_init__(self):
        if not isinstance(self.series, str) or self.series not in _MIN_RANK:
            raise ValueError(f"unknown series {self.series!r}; expected A, B, C or D")
        (rank,) = _integers((self.rank,), "rank")
        object.__setattr__(self, "rank", rank)
        if self.rank < _MIN_RANK[self.series]:
            raise ValueError(
                f"series {self.series} requires rank >= {_MIN_RANK[self.series]}, got {self.rank}"
            )

    @property
    def ambient_dim(self) -> int:
        """Size of the defining matrix representation."""
        r = self.rank
        return {"A": r + 1, "B": 2 * r + 1, "C": 2 * r, "D": 2 * r}[self.series]

    @property
    def algebra_dim(self) -> int:
        n = self.ambient_dim
        if self.series == "A":
            return n * n  # gl(r+1)
        if self.series == "C":
            return n * (n + 1) // 2
        return n * (n - 1) // 2


class Membership(NamedTuple):
    """Verdict of an algebra/group membership test."""

    member: bool
    defect: float


def basis_unit(i: int, j: int, n: int) -> np.ndarray:
    """Unit matrix e_{i,j} (1-based) of size n."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for size {n}")
    out = np.zeros((n, n), dtype=np.int64)
    out[i - 1, j - 1] = 1
    return out


def antidiag_unit(n: int) -> np.ndarray:
    """Antidiagonal unit matrix; squares to the identity."""
    if n < 1:
        raise ValueError("size must be positive")
    return np.fliplr(np.eye(n, dtype=np.int64))


def symplectic_form(r: int) -> np.ndarray:
    """2r x 2r antidiagonal symplectic form; squares to minus the identity."""
    if r < 1:
        raise ValueError("rank must be positive")
    tilde = antidiag_unit(r)
    zero = np.zeros((r, r), dtype=np.int64)
    return np.block([[zero, tilde], [-tilde, zero]])


def invariant_form(series: str, n: int) -> np.ndarray | None:
    """The bilinear form F on the n-dimensional defining space of a series.

    None for A (no form), the antidiagonal unit for B/D and the symplectic
    form for C (n even).  The group preserves F (g^t F g = F) and the algebra
    is skew with respect to it (x^t F + F x = 0).
    """
    if series == "A":
        return None
    return symplectic_form(n // 2) if series == "C" else antidiag_unit(n)


def form_defect(form: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g^t F g - F; vanishes exactly when g (or each matrix of a stack) preserves F."""
    return block_matmul(np.swapaxes(g, -1, -2), block_matmul(form, g)) - form


# Below this many matrices in a factor, numpy's per-matrix products are cheaper.
_SMALL_STACK = 16


def block_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of small blocks, without one BLAS call per matrix.

    numpy's batched matmul calls gemm once per matrix of a stack, which for
    blocks this small costs more than the arithmetic once a factor holds
    ``_SMALL_STACK`` matrices.  Such a stack times a 2-D factor on either
    side therefore takes one reshaped 2-D product, and a stack times a stack
    with inner size at most 3 a sum of broadcast outer products; anything
    else (shorter stacks, larger blocks, mismatched shapes) is ``a @ b``.
    """
    if max(math.prod(a.shape[:-2]), math.prod(b.shape[:-2])) < _SMALL_STACK:
        return a @ b
    if a.ndim == 2:
        return np.swapaxes(block_matmul(np.swapaxes(b, -1, -2), a.T), -1, -2)
    if b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    if a.shape[-1] > 3 or a.shape[-1] != b.shape[-2]:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for i in range(1, a.shape[-1]):
        out += a[..., :, i:i + 1] * b[..., i:i + 1, :]
    return out


def batched_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack: a plain reciprocal for 1 x 1 matrices
    and, on stacks of at least ``_SMALL_STACK`` 2 x 2 matrices, the
    adjugate over the determinant.

    This is the one inverse of block samples.  On an exactly singular matrix
    it raises ``SingularMatrixError`` whose ``index`` locates the first such
    matrix in row-major order of the leading axes.  A 2 x 2 stack whose
    determinant or its reciprocal is not finite (a zero, an overflow or an
    underflow) takes the general path, which decides.
    """
    if values.shape[-2:] == (1, 1):
        if values.all():
            return 1.0 / values
    else:
        if values.shape[-2:] == (2, 2) and math.prod(values.shape[:-2]) >= _SMALL_STACK:
            a, b, c, d = values[..., 0, 0], values[..., 0, 1], values[..., 1, 0], values[..., 1, 1]
            with np.errstate(all="ignore"):
                det = a * d - b * c
                inv_det = 1.0 / det
            if np.isfinite(det).all() and np.isfinite(inv_det).all():
                out = np.empty(values.shape, inv_det.dtype)
                out[..., 0, 0], out[..., 0, 1] = d * inv_det, -b * inv_det
                out[..., 1, 0], out[..., 1, 1] = -c * inv_det, a * inv_det
                return out
        try:
            return np.linalg.inv(values)
        except np.linalg.LinAlgError:
            pass
    for index in np.ndindex(values.shape[:-2]):
        try:
            np.linalg.inv(values[index])
        except np.linalg.LinAlgError:
            raise SingularMatrixError(f"singular block sample at {index}", index) from None
    raise SingularMatrixError("singular block sample")


def t_transpose(a: np.ndarray) -> np.ndarray:
    """Antidiagonal-twisted transpose: flip both axes, then transpose.

    Equals I~_{k2} a^t I~_{k1} for a k1 x k2 matrix; an involution on square
    matrices, with (ab)^T = b^T a^T.  Acts on the last two axes of a stack
    and, like ``ndarray.T``, returns a view: copy it before writing to it.
    """
    if a.ndim < 2:
        raise ShapeError("expected a matrix or a stack of matrices")
    return np.swapaxes(a[..., ::-1, ::-1], -1, -2)


def _max_abs(a):
    """Largest entry magnitude; exact for object arrays, 0 for an empty array."""
    if a.size == 0:
        return 0.0
    if a.dtype == object:
        return max(abs(entry) for entry in a.flat)
    return float(np.abs(a).max())


def _is_exact(a: np.ndarray) -> bool:
    return a.dtype == object or np.issubdtype(a.dtype, np.integer)


def _resolve_tol(a: np.ndarray, tol) -> float:
    if tol is not None:
        return tol
    return 0 if _is_exact(a) else 1e-10


def algebra_membership(tag: SeriesTag, x: np.ndarray, tol=None, *, general_linear: bool = False) -> Membership:
    """Test membership of x in the series' Lie algebra.

    Series A checks the sl condition (zero trace) unless ``general_linear``
    is set, in which case every square matrix of the right size passes.
    B, C and D check x^t F + F x = 0 for the series' ``invariant_form``.
    With ``tol=None`` the tolerance defaults to 0 for exact (integer or
    Fraction) inputs and 1e-10 for floating ones.
    """
    n = tag.ambient_dim
    if x.shape != (n, n):
        raise ShapeError(f"expected a {n} x {n} matrix, got {x.shape}")
    tol = _resolve_tol(x, tol)
    form = invariant_form(tag.series, n)
    if form is None:
        defect = 0 if general_linear else abs(x.trace())
    else:
        defect = _max_abs(x.T @ form + form @ x)
    return Membership(bool(defect <= tol), defect)


def group_membership(tag: SeriesTag, g: np.ndarray, tol=None) -> Membership:
    """Test membership of g in the series' matrix group.

    Series A is the GL test: the verdict is invertibility (|det g| > tol)
    and the defect is 0 for members.  B, C and D check that g preserves the
    series' ``invariant_form``; the defect is max|g^t F g - F|.
    """
    n = tag.ambient_dim
    if g.shape != (n, n):
        raise ShapeError(f"expected a {n} x {n} matrix, got {g.shape}")
    tol = _resolve_tol(g, tol)
    form = invariant_form(tag.series, n)
    if form is None:
        det = np.linalg.det(np.asarray(g, dtype=complex))
        ok = abs(det) > tol
        return Membership(bool(ok), 0.0 if ok else math.inf)
    defect = _max_abs(form_defect(form, g))
    return Membership(bool(defect <= tol), defect)


def cartan_generators(tag: SeriesTag) -> list[np.ndarray]:
    """Diagonal Cartan generators h_1..h_r as int64 matrices."""
    r, n = tag.rank, tag.ambient_dim
    gens = []

    def diag_matrix(pairs):
        h = np.zeros((n, n), dtype=np.int64)
        for idx, val in pairs:
            h[idx - 1, idx - 1] = val
        return h

    if tag.series == "A":
        for i in range(1, r + 1):
            gens.append(diag_matrix([(i, 1), (i + 1, -1)]))
        return gens

    for i in range(1, r):
        mirror = n - i  # position 2r+1-i for B, 2r-i for C/D
        gens.append(diag_matrix([(i, 1), (i + 1, -1), (mirror, 1), (mirror + 1, -1)]))
    if tag.series == "B":
        gens.append(diag_matrix([(r, 2), (r + 2, -2)]))
    elif tag.series == "C":
        gens.append(diag_matrix([(r, 1), (r + 1, -1)]))
    else:
        gens.append(diag_matrix([(r - 1, 1), (r, 1), (r + 1, -1), (r + 2, -1)]))
    return gens


def dr_automorphism(r: int) -> np.ndarray:
    """Permutation matrix implementing the outer automorphism of the D series.

    Swaps rows r and r+1 of 2r; an involution whose conjugation preserves
    the orthogonal algebra.
    """
    if r < 3:
        raise ValueError("D series requires rank >= 3")
    a = np.eye(2 * r, dtype=np.int64)
    a[[r - 1, r]] = a[[r, r - 1]]
    return a


def dr_conjugate(r: int, x: np.ndarray) -> np.ndarray:
    """Apply the D-series automorphism x -> a x a^{-1} (a is an involution)."""
    a = dr_automorphism(r)
    return a @ x @ a


def _mirror_sign(i: int, r: int) -> int:
    """Sign carried by position i (1-based) in the symplectic form, +1 on the first half."""
    return 1 if i <= r else -1


def algebra_basis_with_positions(tag: SeriesTag) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """Deterministic basis of the algebra with each element's defining position.

    Elements are exact 0/+-1 integer matrices, ordered lexicographically by
    the defining (row, column) pair.  For B/D the element at (i, j) is
    e_{ij} - e_{n+1-j, n+1-i} over pairs strictly above the antidiagonal;
    for C the twisted-symmetrized analogue, plus the bare antidiagonal
    units, which are symplectic on their own.
    """
    n, r = tag.ambient_dim, tag.rank
    basis = []
    if tag.series == "A":
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                basis.append((basis_unit(i, j, n), (i, j)))
        return basis
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j > n + 1:
                continue
            if i + j == n + 1:
                if tag.series == "C":
                    basis.append((basis_unit(i, j, n), (i, j)))
                continue
            elem = basis_unit(i, j, n)
            mirror = basis_unit(n + 1 - j, n + 1 - i, n)
            if tag.series == "C":
                sign = _mirror_sign(i, r) * _mirror_sign(j, r)
                elem = elem - sign * mirror
            else:
                elem = elem - mirror
            basis.append((elem, (i, j)))
    return basis


def algebra_basis(tag: SeriesTag) -> list[np.ndarray]:
    """Deterministic basis of the series' Lie algebra (exact 0/+-1 matrices)."""
    return [elem for elem, _ in algebra_basis_with_positions(tag)]


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x
