"""Integer gradations of the classical algebras in explicit block form.

A gradation is selected by nonnegative integer labels on the simple roots.
The resulting grading operator is diagonal with one exact rational level per
block, given in closed form by the block sizes and the integer steps between
adjacent blocks; these determine everything else (graded subspaces,
block-diagonal subgroup type, Toda systems downstream).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cartan import cartan_matrix
from .liealg import SeriesTag, _integers, algebra_basis_with_positions, cartan_generators

__all__ = [
    "GradationError",
    "DynkinLabels",
    "BlockStructure",
    "GradingOperator",
    "GradedDecomposition",
    "LeviType",
    "operator_matrix_from_labels",
    "operator_from_labels",
    "labels_to_block_structure",
    "block_structure_to_labels",
    "canonical_block_operator",
    "block_degree",
    "graded_decomposition",
    "levi_type",
    "exact_span_contains",
]


class GradationError(ValueError):
    """Invalid labels or block data for a gradation."""


def _check_tag(tag):
    if not isinstance(tag, SeriesTag):
        raise GradationError(f"tag must be a SeriesTag, got {type(tag).__name__}")


@dataclass(frozen=True)
class DynkinLabels:
    """Nonnegative integer labels selecting a gradation; not all zero."""

    tag: SeriesTag
    labels: tuple[int, ...]

    def __post_init__(self):
        _check_tag(self.tag)
        object.__setattr__(self, "labels", _integers(self.labels, "labels", GradationError))
        if len(self.labels) != self.tag.rank:
            raise GradationError(
                f"expected {self.tag.rank} labels, got {len(self.labels)}"
            )
        if any(q < 0 for q in self.labels):
            raise GradationError("labels must be nonnegative")
        if not any(self.labels):
            raise GradationError("all-zero labels give the trivial, degenerate gradation")

    def normalized(self) -> "DynkinLabels":
        """Canonical representative: for series D, sort the last label pair.

        The gradations for swapped last labels are related by the outer
        automorphism, so the representative with labels[r-2] <= labels[r-1]
        is used for block extraction.
        """
        if self.tag.series == "D" and self.labels[-2] > self.labels[-1]:
            swapped = self.labels[:-2] + (self.labels[-1], self.labels[-2])
            return DynkinLabels(self.tag, swapped)
        return self


@dataclass(frozen=True)
class BlockStructure:
    """Block partition (sizes k_1..k_p) with integer steps m_1..m_{p-1}."""

    tag: SeriesTag
    sizes: tuple[int, ...]
    steps: tuple[int, ...]

    def __post_init__(self):
        _check_tag(self.tag)
        object.__setattr__(self, "sizes", _integers(self.sizes, "block sizes", GradationError))
        object.__setattr__(self, "steps", _integers(self.steps, "steps", GradationError))
        p = len(self.sizes)
        if p < 2:
            raise GradationError("a gradation needs at least two blocks")
        if len(self.steps) != p - 1:
            raise GradationError(f"expected {p - 1} steps for {p} blocks")
        if any(k <= 0 for k in self.sizes) or any(m <= 0 for m in self.steps):
            raise GradationError("block sizes and steps must be positive")
        if sum(self.sizes) != self.tag.ambient_dim:
            raise GradationError(
                f"block sizes sum to {sum(self.sizes)}, expected {self.tag.ambient_dim}"
            )
        if self.tag.series in ("B", "C", "D"):
            if self.sizes != self.sizes[::-1]:
                raise GradationError(f"series {self.tag.series} requires palindromic block sizes")
            if self.steps != self.steps[::-1]:
                raise GradationError(f"series {self.tag.series} requires symmetric steps")
            if self.tag.series == "C" and p % 2 == 1 and self.sizes[p // 2] % 2 != 0:
                raise GradationError("series C with an odd block count needs an even central block")

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative sizes K_1..K_p (1-based positions of block ends)."""
        return tuple(itertools.accumulate(self.sizes))

    def block_of_index(self, i: int) -> int:
        """1-based block containing matrix index i (1-based)."""
        if not (1 <= i <= self.tag.ambient_dim):
            raise IndexError(f"index {i} out of range")
        return int(np.searchsorted(np.asarray(self.boundaries), i)) + 1

    def slices(self) -> list[slice]:
        """0-based row/column slices of the p diagonal blocks."""
        ends = self.boundaries
        starts = (0,) + ends[:-1]
        return [slice(a, b) for a, b in zip(starts, ends)]


@dataclass(frozen=True)
class GradingOperator:
    """Diagonal grading operator: one exact rational level per block."""

    blocks: BlockStructure
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        drops = tuple(a - b for a, b in zip(self.levels, self.levels[1:]))
        if len(self.levels) != self.blocks.count or drops != self.blocks.steps:
            raise GradationError("need one level per block, falling by the block steps")

    @property
    def tag(self) -> SeriesTag:
        return self.blocks.tag

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        """The n diagonal entries: each block's level repeated over the block."""
        return tuple(
            level for size, level in zip(self.blocks.sizes, self.levels) for _ in range(size)
        )


def operator_matrix_from_labels(labels: DynkinLabels) -> np.ndarray:
    """Exact diagonal matrix sum_{i,j} h_i (k^{-1})_{ij} q_j, unnormalized.

    This is the definition; the tests hold the closed form of
    :func:`canonical_block_operator` against it.  For series D with unequal last labels the diagonal is not sorted; use
    :func:`operator_from_labels` for the canonical block form.
    """
    tag = labels.tag
    kinv = cartan_matrix(tag).inverse
    gens = cartan_generators(tag)
    n = tag.ambient_dim
    diag = [Fraction(0)] * n
    for i in range(tag.rank):
        coeff = sum(
            (kinv[i, j] * labels.labels[j] for j in range(tag.rank)), Fraction(0)
        )
        if coeff == 0:
            continue
        hdiag = gens[i].diagonal().tolist()
        for m in range(n):
            if hdiag[m]:
                diag[m] += coeff * hdiag[m]
    mat = np.empty((n, n), dtype=object)
    mat[:, :] = Fraction(0)
    for m in range(n):
        mat[m, m] = diag[m]
    return mat


def operator_from_labels(labels: DynkinLabels) -> GradingOperator:
    """Grading operator in canonical block form (D labels normalized first)."""
    return canonical_block_operator(labels_to_block_structure(labels))


def _drops(labels: DynkinLabels) -> list[int]:
    """The n - 1 drops h_i - h_{i+1} of the grading diagonal, from normalized labels.

    Label q_j is the simple root alpha_j on the grading operator, which is the
    drop across gap j.  For B, C and D gap n - j mirrors gap j and the last
    root sets the middle gap: q_r for C and q_r - q_{r-1} for D (for B the
    two gaps around the zero middle entry drop by q_r each).
    """
    q = list(labels.labels)
    series = labels.tag.series
    if series == "A":
        return q
    if series == "B":
        return q + q[::-1]
    middle = q[-1] - q[-2] if series == "D" else q[-1]
    return q[:-1] + [middle] + q[-2::-1]


def labels_to_block_structure(labels: DynkinLabels) -> BlockStructure:
    """The blocks are the runs of zero drops, the steps the nonzero drops."""
    labels = labels.normalized()
    drops = _drops(labels)
    ends = [i for i, d in enumerate(drops, start=1) if d]
    sizes = [b - a for a, b in zip([0, *ends], [*ends, labels.tag.ambient_dim])]
    return BlockStructure(labels.tag, tuple(sizes), tuple(d for d in drops if d))


def block_structure_to_labels(blocks: BlockStructure) -> DynkinLabels:
    """Labels whose gradation has the given block structure (D normalized):
    each step is the drop at its block's end, and ``_drops`` is inverted."""
    tag = blocks.tag
    drops = [0] * (tag.ambient_dim - 1)
    for end, step in zip(blocks.boundaries, blocks.steps):
        drops[end - 1] = step
    q = drops[:tag.rank]
    if tag.series == "D":
        q[-1] += q[-2]
    return DynkinLabels(tag, tuple(q))


def _depths(blocks: BlockStructure) -> tuple[int, ...]:
    """How far each block's level sits below the first: 0, m_1, m_1 + m_2, ..."""
    return (0, *itertools.accumulate(blocks.steps))


def canonical_block_operator(blocks: BlockStructure) -> GradingOperator:
    """Grading operator from the closed-form per-block diagonal levels.

    The level falls by m_a from block a to block a + 1 and the diagonal is
    traceless.  Block a sits D_a = m_1 + ... + m_{a-1} below the first, so
    level_a = sum_b k_b D_b / n - D_a: for series A this is
    (sum_{b>=a} m_b (n - K_b) - sum_{b<a} m_b K_b) / n, and for the
    palindromic B, C and D partitions (sum_{b>=a} m_b - sum_{b<a} m_b) / 2.
    """
    depths = _depths(blocks)
    top = Fraction(sum(k * d for k, d in zip(blocks.sizes, depths)), blocks.tag.ambient_dim)
    return GradingOperator(blocks, tuple(top - d for d in depths))


def block_degree(a: int, b: int, blocks: BlockStructure) -> int:
    """Signed gradation degree of the (a, b) block: positive above the diagonal."""
    p = blocks.count
    if not (1 <= a <= p and 1 <= b <= p):
        raise IndexError(f"block indices ({a}, {b}) out of range for {p} blocks")
    depths = _depths(blocks)
    return depths[b - 1] - depths[a - 1]


@dataclass(frozen=True)
class GradedDecomposition:
    """Bases of the graded subspaces, keyed by integer degree.

    The operator determines the subspaces, so equality and hashing use it alone.
    """

    operator: GradingOperator
    subspaces: dict[int, list[np.ndarray]] = field(compare=False)

    def dimension(self, degree: int) -> int:
        return len(self.subspaces.get(degree, []))

    @property
    def degrees(self) -> list[int]:
        return sorted(self.subspaces)

    @property
    def total_dimension(self) -> int:
        return sum(len(v) for v in self.subspaces.values())


def graded_decomposition(op: GradingOperator) -> GradedDecomposition:
    """Bucket a deterministic algebra basis by adjoint eigenvalue.

    Every basis element is supported on a single block position (plus its
    mirror for B/C/D), so its degree is that of the block, as in
    :func:`block_degree`: the depth of its column's block less its row's.
    """
    depth = [d for size, d in zip(op.blocks.sizes, _depths(op.blocks)) for _ in range(size)]
    subspaces: dict[int, list[np.ndarray]] = {}
    for elem, (i, j) in algebra_basis_with_positions(op.tag):
        subspaces.setdefault(depth[j - 1] - depth[i - 1], []).append(elem)
    return GradedDecomposition(op, subspaces)


@dataclass(frozen=True)
class LeviType:
    """Isomorphism type of the block-diagonal subgroup."""

    factors: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        return " x ".join(f"{kind}({size})" for kind, size in self.factors)


def levi_type(blocks: BlockStructure) -> LeviType:
    """Block-diagonal subgroup type: GL factors plus one SO/Sp factor when p is odd."""
    tag = blocks.tag
    p = blocks.count
    if tag.series == "A":
        return LeviType(tuple(("GL", k) for k in blocks.sizes))
    s = p // 2
    factors = [("GL", k) for k in blocks.sizes[:s]]
    if p % 2 == 1:
        central = blocks.sizes[s]
        kind = "Sp" if tag.series == "C" else "SO"
        factors.append((kind, central))
    return LeviType(tuple(factors))


def _to_sparse(mat: np.ndarray) -> dict[tuple[int, int], Fraction]:
    rows, cols = np.nonzero(mat)
    return {(i, j): Fraction(mat[i, j]) for i, j in zip(rows.tolist(), cols.tolist())}


def _reduce_against(vec: dict, pivots: dict) -> dict:
    while True:
        hit = None
        for pos in sorted(vec):
            if pos in pivots:
                hit = pos
                break
        if hit is None:
            return vec
        coeff = vec[hit]
        for pos, val in pivots[hit].items():
            new = vec.get(pos, Fraction(0)) - coeff * val
            if new == 0:
                vec.pop(pos, None)
            else:
                vec[pos] = new


def exact_span_contains(basis: list[np.ndarray], mat: np.ndarray) -> bool:
    """Exact rational test of membership of mat in the span of basis.

    Gaussian elimination over Fractions on sparse coordinate vectors; no
    floating point is involved.  The matrices may be integer arrays, object
    arrays of ``Fraction`` (or ints) or float arrays; each float is taken at
    its exact binary value.  Only the nonzero entries are read, so the cost
    is proportional to the nonzero entries, not to the matrix size.
    """
    pivots: dict[tuple[int, int], dict] = {}
    for b in basis:
        row = _reduce_against(_to_sparse(b), pivots)
        if row:
            lead = min(row)
            lead_val = row[lead]
            pivots[lead] = {pos: val / lead_val for pos, val in row.items()}
    return not _reduce_against(_to_sparse(mat), pivots)
