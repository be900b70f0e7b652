import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todakit.exact import rmat_equal
from todakit.grading import (
    BlockStructure,
    DynkinLabels,
    GradationError,
    GradingOperator,
    block_degree,
    block_structure_to_labels,
    canonical_block_operator,
    exact_span_contains,
    graded_decomposition,
    labels_to_block_structure,
    levi_type,
    operator_from_labels,
    operator_matrix_from_labels,
)
from todakit.liealg import (
    _MIN_RANK,
    SeriesTag,
    algebra_basis_with_positions,
    algebra_membership,
    commutator,
    dr_automorphism,
)


def _random_labels(tag, rng):
    while True:
        labels = tuple(int(q) for q in rng.integers(0, 3, size=tag.rank))
        if any(labels):
            return DynkinLabels(tag, labels)


def _cartan_diagonal(labels):
    """Diagonal of the Cartan-inverse definition sum_{i,j} h_i (K^{-1})_{ij} q_j."""
    return tuple(operator_matrix_from_labels(labels.normalized()).diagonal())


def test_operator_values():
    for tag, labels, want in [
        (SeriesTag("A", 2), (1, 0), ["2/3", "-1/3", "-1/3"]),
        (SeriesTag("B", 2), (1, 0), ["1", "0", "0", "0", "-1"]),
        (SeriesTag("D", 4), (0, 0, 0, 1), ["1/2"] * 4 + ["-1/2"] * 4),
    ]:
        labels = DynkinLabels(tag, labels)
        op = operator_from_labels(labels)
        assert [str(q) for q in op.diagonal] == want
        assert op.diagonal == _cartan_diagonal(labels)


def test_grading_operator_equality_and_hash():
    labels = DynkinLabels(SeriesTag("D", 4), (0, 0, 1, 0))
    op = operator_from_labels(labels)
    same = canonical_block_operator(BlockStructure(SeriesTag("D", 4), (4, 4), (1,)))
    other = operator_from_labels(DynkinLabels(SeriesTag("D", 4), (1, 0, 0, 0)))
    assert op == same and hash(op) == hash(same)
    assert op != other
    assert len({op, same, other}) == 2


def test_graded_decomposition_equality_and_hash():
    labels = DynkinLabels(SeriesTag("A", 2), (1, 0))
    dec = graded_decomposition(operator_from_labels(labels))
    same = graded_decomposition(operator_from_labels(labels))
    other = graded_decomposition(operator_from_labels(DynkinLabels(SeriesTag("A", 2), (0, 1))))
    assert dec == same and hash(dec) == hash(same)
    assert dec != other
    assert len({dec, same, other}) == 2


def test_grading_operator_rejects_levels_off_the_steps():
    blocks = BlockStructure(SeriesTag("A", 2), (1, 2), (1,))
    with pytest.raises(GradationError):
        GradingOperator(blocks, (Fraction(2, 3), Fraction(-4, 3)))
    with pytest.raises(GradationError):
        GradingOperator(blocks, (Fraction(2, 3),))


@pytest.mark.parametrize("make", [
    lambda: DynkinLabels(SeriesTag("A", 2), (1.9, 0)),
    lambda: DynkinLabels(SeriesTag("A", 2), (1, 0.0)),
], ids=["fractional", "float-zero"])
def test_labels_reject_non_integers(make):
    with pytest.raises(GradationError, match="labels must be integers"):
        make()


@pytest.mark.parametrize("sizes, steps", [((1.5, 1.5), (1,)), ((1, 2), (2.7,))],
                         ids=["sizes", "steps"])
def test_block_structure_rejects_non_integers(sizes, steps):
    with pytest.raises(GradationError, match="must be integers"):
        BlockStructure(SeriesTag("A", 2), sizes, steps)


def test_integer_like_labels_are_accepted():
    labels = DynkinLabels(SeriesTag("A", 2), np.array([1, 0]))
    assert labels.labels == (1, 0) and all(type(q) is int for q in labels.labels)


def test_all_zero_labels_rejected():
    with pytest.raises(GradationError):
        DynkinLabels(SeriesTag("A", 2), (0, 0))
    with pytest.raises(GradationError):
        DynkinLabels(SeriesTag("B", 2), (1,))
    with pytest.raises(GradationError):
        DynkinLabels(SeriesTag("B", 2), (1, -1))


def test_labels_to_block_structure_examples():
    bs = labels_to_block_structure(DynkinLabels(SeriesTag("A", 4), (0, 1, 0, 1)))
    assert bs.sizes == (2, 2, 1) and bs.steps == (1, 1)
    bs = labels_to_block_structure(DynkinLabels(SeriesTag("A", 2), (1, 1)))
    assert bs.sizes == (1, 1, 1) and bs.steps == (1, 1)
    bs = labels_to_block_structure(DynkinLabels(SeriesTag("B", 3), (0, 1, 0)))
    assert bs.sizes == (2, 3, 2) and bs.steps == (1, 1)


def test_canonical_levels():
    cb = canonical_block_operator(BlockStructure(SeriesTag("A", 2), (1, 2), (1,)))
    assert cb.levels == (Fraction(2, 3), Fraction(-1, 3))
    cb = canonical_block_operator(BlockStructure(SeriesTag("A", 2), (1, 1, 1), (1, 1)))
    assert cb.levels == (Fraction(1), Fraction(0), Fraction(-1))
    cb = canonical_block_operator(BlockStructure(SeriesTag("D", 4), (1, 6, 1), (1, 1)))
    assert cb.levels == (Fraction(1), Fraction(0), Fraction(-1))


def test_block_structure_validation():
    with pytest.raises(GradationError):
        BlockStructure(SeriesTag("D", 3), (1, 2, 3), (1, 1))
    with pytest.raises(GradationError):
        BlockStructure(SeriesTag("A", 2), (1, 1), (1,))  # wrong total
    with pytest.raises(GradationError):
        BlockStructure(SeriesTag("B", 2), (2, 1, 2), (1, 2))  # asymmetric steps


@pytest.mark.parametrize("series, rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_operator_equals_canonical(series, rank, rng):
    tag = SeriesTag(series, rank)
    for d in range(1, rank + 1):
        labels = DynkinLabels(tag, tuple(1 if i == d - 1 else 0 for i in range(rank)))
        op = operator_from_labels(labels)
        assert op.blocks == labels_to_block_structure(labels)
        assert op.diagonal == _cartan_diagonal(labels)
    for _ in range(10):
        labels = _random_labels(tag, rng)
        op = operator_from_labels(labels)
        assert op.diagonal == _cartan_diagonal(labels)


def test_d_series_normalization_via_automorphism():
    tag = SeriesTag("D", 4)
    swapped = DynkinLabels(tag, (0, 0, 1, 0))
    plain = DynkinLabels(tag, (0, 0, 0, 1))
    assert labels_to_block_structure(swapped) == labels_to_block_structure(plain)
    raw = operator_matrix_from_labels(swapped)
    target = operator_matrix_from_labels(plain)
    a = dr_automorphism(4)
    assert rmat_equal(a @ raw @ a, target)


def test_labels_block_round_trip():
    # every label vector in {0,1,2}^r, r <= 5: the blocks are the runs of the
    # Cartan-inverse diagonal, the steps and block degrees its level differences
    for series, low in sorted(_MIN_RANK.items()):
        for rank in range(low, 6):
            tag = SeriesTag(series, rank)
            for q in itertools.product(range(3), repeat=rank):
                if not any(q):
                    continue
                labels = DynkinLabels(tag, q)
                blocks = labels_to_block_structure(labels)
                assert block_structure_to_labels(blocks) == labels.normalized()
                runs = [(level, len(list(run))) for level, run in itertools.groupby(_cartan_diagonal(labels))]
                levels = [level for level, _ in runs]
                assert blocks.sizes == tuple(size for _, size in runs)
                assert blocks.steps == tuple(a - b for a, b in zip(levels, levels[1:]))
                for a, b in itertools.product(range(1, blocks.count + 1), repeat=2):
                    assert block_degree(a, b, blocks) == levels[a - 1] - levels[b - 1]
    # D with boundaries at both r-1 and r: the last two labels couple
    blocks = BlockStructure(SeriesTag("D", 4), (3, 1, 1, 3), (1, 1, 1))
    labels = block_structure_to_labels(blocks)
    assert labels.labels == (0, 0, 1, 2)
    assert labels_to_block_structure(labels) == blocks


def test_block_degree():
    blocks = BlockStructure(SeriesTag("A", 4), (2, 2, 1), (1, 1))
    assert block_degree(1, 3, blocks) == 2
    assert block_degree(2, 2, blocks) == 0
    blocks2 = BlockStructure(SeriesTag("A", 6), (2, 2, 3), (1, 2))
    assert block_degree(3, 1, blocks2) == -3
    with pytest.raises(IndexError):
        block_degree(0, 1, blocks)


def test_decomposition_dimensions():
    op = operator_from_labels(DynkinLabels(SeriesTag("A", 2), (1, 0)))
    dec = graded_decomposition(op)
    assert {m: dec.dimension(m) for m in dec.degrees} == {-1: 2, 0: 5, 1: 2}
    op = operator_from_labels(DynkinLabels(SeriesTag("B", 2), (1, 0)))
    dec = graded_decomposition(op)
    assert {m: dec.dimension(m) for m in dec.degrees} == {-1: 3, 0: 4, 1: 3}
    assert dec.total_dimension == 10


@pytest.mark.parametrize("series, rank", [("A", 3), ("B", 3), ("C", 2), ("D", 4)])
def test_gradation_axioms(series, rank, rng):
    tag = SeriesTag(series, rank)
    labels = _random_labels(tag, rng)
    op = operator_from_labels(labels)
    dec = graded_decomposition(op)
    # direct-sum completeness and degree symmetry
    assert dec.total_dimension == tag.algebra_dim
    for m in dec.degrees:
        assert dec.dimension(m) == dec.dimension(-m)
    # commutator closure, exact rational span test
    degrees = dec.degrees
    for _ in range(25):
        m, n = rng.choice(degrees, size=2)
        x = dec.subspaces[m][rng.integers(len(dec.subspaces[m]))]
        y = dec.subspaces[n][rng.integers(len(dec.subspaces[n]))]
        z = commutator(x, y)
        target = dec.subspaces.get(m + n, [])
        if np.all(z == 0):
            continue
        assert exact_span_contains(target, z)
    # graded pieces stay inside the ambient algebra
    if series != "A":
        for m in degrees:
            for elem in dec.subspaces[m]:
                assert algebra_membership(tag, elem, tol=0).member


def test_zero_degree_contains_diagonals():
    op = operator_from_labels(DynkinLabels(SeriesTag("D", 3), (1, 0, 0)))
    dec = graded_decomposition(op)
    diagonals = [elem for degree in dec.degrees for elem in dec.subspaces[degree]
                 if np.all(elem == np.diag(np.diagonal(elem)))]
    assert diagonals
    for elem in diagonals:
        assert exact_span_contains(dec.subspaces[0], elem)


def test_a_series_dimension_formula(rng):
    tag = SeriesTag("A", 4)
    labels = DynkinLabels(tag, (1, 1, 0, 1))
    op = operator_from_labels(labels)
    dec = graded_decomposition(op)
    sizes = op.blocks.sizes
    p = len(sizes)
    for m in dec.degrees:
        expected = sum(
            sizes[a] * sizes[b]
            for a in range(p)
            for b in range(p)
            if b - a == m
        )
        assert dec.dimension(m) == expected


def test_unit_step_level_formulas(rng):
    # With every step equal to 1 the diagonal levels have simple closed forms.
    for _ in range(10):
        parts = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
        rank = sum(parts) - 1
        if rank < 1:
            continue
        blocks = BlockStructure(SeriesTag("A", rank), tuple(parts), (1,) * (len(parts) - 1))
        op = canonical_block_operator(blocks)
        n = rank + 1
        weighted = sum((b + 1) * k for b, k in enumerate(parts))
        for a, level in enumerate(op.levels, start=1):
            assert level == Fraction(weighted, n) - a
    for sizes in [(1, 3, 1), (2, 3, 2)]:
        blocks = BlockStructure(SeriesTag("B", sum(sizes) // 2), sizes, (1,) * (len(sizes) - 1))
        op = canonical_block_operator(blocks)
        p = len(sizes)
        for a, level in enumerate(op.levels, start=1):
            assert level == Fraction(p + 1, 2) - a


def test_levi_types():
    assert str(levi_type(BlockStructure(SeriesTag("A", 4), (2, 3), (1,)))) == "GL(2) x GL(3)"
    assert str(levi_type(BlockStructure(SeriesTag("B", 3), (2, 3, 2), (1, 1)))) == "GL(2) x SO(3)"
    assert str(levi_type(BlockStructure(SeriesTag("C", 3), (1, 4, 1), (1, 1)))) == "GL(1) x Sp(4)"
    assert str(levi_type(BlockStructure(SeriesTag("D", 4), (4, 4), (1,)))) == "GL(4)"
    assert str(levi_type(BlockStructure(SeriesTag("C", 2), (2, 2), (1,)))) == "GL(2)"


def test_span_helper():
    basis = [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [1, 0]])]
    assert exact_span_contains(basis, np.array([[2, 3], [3, 0]]))
    assert not exact_span_contains(basis, np.array([[0, 1], [0, 0]]))


def _stacked_rank(mats) -> int:
    if not mats:
        return 0
    return int(np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]).astype(float)))


_small_int_matrix = st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(
    lambda entries: np.array(entries, dtype=np.int64).reshape(2, 3)
)


@settings(max_examples=150, deadline=None)
@given(basis=st.lists(_small_int_matrix, max_size=5), target=_small_int_matrix)
def test_span_contains_agrees_with_rank(basis, target):
    expected = _stacked_rank(basis + [target]) == _stacked_rank(basis)
    assert exact_span_contains(basis, target) == expected


def test_span_fraction_and_float_inputs():
    def unit(i, j, value):
        mat = np.empty((3, 3), dtype=object)
        mat[:, :] = Fraction(0)
        mat[i, j] = Fraction(value)
        return mat

    basis = [unit(0, 1, Fraction(3, 2)) + unit(2, 0, Fraction(-2, 7)), unit(1, 2, Fraction(5, 3))]
    inside = Fraction(1, 3) * basis[0] + 7 * basis[1]
    assert exact_span_contains(basis, inside)
    assert not exact_span_contains(basis, unit(0, 1, Fraction(1, 9)))

    floats = [np.array([[0.5, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.25], [0.75, 0.0]])]
    assert exact_span_contains(floats, np.array([[1.5, -0.5], [-1.5, 0.0]]))
    assert not exact_span_contains(floats, np.array([[0.0, 0.25], [0.5, 0.0]]))


def test_span_empty_basis_and_zero_target():
    zero = np.zeros((2, 2), dtype=np.int64)
    assert exact_span_contains([], zero)
    assert not exact_span_contains([], np.array([[0, 1], [0, 0]]))
    assert exact_span_contains([np.array([[0, 1], [0, 0]])], zero)


def _reference_decomposition(op) -> dict:
    """Degrees looked up block by block, one searchsorted per index."""
    subspaces: dict = {}
    for elem, (i, j) in algebra_basis_with_positions(op.tag):
        a = op.blocks.block_of_index(i)
        b = op.blocks.block_of_index(j)
        subspaces.setdefault(int(op.levels[a - 1] - op.levels[b - 1]), []).append(elem)
    return subspaces


@pytest.mark.parametrize("series", ["A", "B", "C", "D"])
def test_decomposition_matches_block_lookup(series):
    for rank in range({"A": 1, "B": 2, "C": 1, "D": 3}[series], 6):
        tag = SeriesTag(series, rank)
        for d in range(rank):
            labels = DynkinLabels(tag, tuple(int(i == d) for i in range(rank)))
            op = operator_from_labels(labels)
            got = graded_decomposition(op).subspaces
            expected = _reference_decomposition(op)
            assert list(got) == list(expected), labels
            for degree, elems in expected.items():
                assert len(got[degree]) == len(elems)
                for x, y in zip(got[degree], elems):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
