from fractions import Fraction

import numpy as np
import pytest

from todakit.cartan import cartan_inverse_closed_form, cartan_matrix
from todakit.exact import rational_matrix, rmat_equal
from todakit.liealg import SeriesTag


def _ranks(series):
    lo = {"A": 1, "B": 2, "C": 1, "D": 3}[series]
    return range(lo, 13)


def test_a2_matrix():
    km = cartan_matrix(SeriesTag("A", 2))
    assert km.matrix.tolist() == [[2, -1], [-1, 2]]


def test_b2_matrix_convention():
    km = cartan_matrix(SeriesTag("B", 2))
    assert km.matrix.tolist() == [[2, -2], [-1, 2]]


def test_c2_matrix_is_b2_transpose():
    kb = cartan_matrix(SeriesTag("B", 2)).matrix
    kc = cartan_matrix(SeriesTag("C", 2)).matrix
    assert rmat_equal(kc, kb.T)


def test_d3_fork():
    km = cartan_matrix(SeriesTag("D", 3))
    assert km.matrix.tolist() == [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]


@pytest.mark.parametrize(
    "series, i, j, expected",
    [
        ("A", 1, 1, Fraction(2, 3)),
        ("B", 2, 1, Fraction(1, 2)),
        ("C", 1, 2, Fraction(1, 2)),
    ],
)
def test_closed_form_rank2_examples(series, i, j, expected):
    assert cartan_inverse_closed_form(SeriesTag(series, 2), i, j) == expected


def test_closed_form_index_error():
    with pytest.raises(IndexError):
        cartan_inverse_closed_form(SeriesTag("A", 2), 0, 1)
    with pytest.raises(IndexError):
        cartan_inverse_closed_form(SeriesTag("A", 2), 1, 3)


@pytest.mark.parametrize("series", ["A", "B", "C", "D"])
def test_exact_inverse_and_closed_form(series):
    for r in _ranks(series):
        tag = SeriesTag(series, r)
        km = cartan_matrix(tag)
        assert rmat_equal(km.matrix @ km.inverse, rational_matrix(np.eye(r, dtype=int)))
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                assert km.inverse[i - 1, j - 1] == cartan_inverse_closed_form(tag, i, j)
                assert km.inverse[i - 1, j - 1] > 0


@pytest.mark.parametrize("r", [2, 4, 8])
def test_c_is_transpose_of_b(r):
    kb = cartan_matrix(SeriesTag("B", r))
    kc = cartan_matrix(SeriesTag("C", r))
    assert rmat_equal(kc.matrix, kb.matrix.T)
    assert rmat_equal(kc.inverse, kb.inverse.T)


def test_low_rank_edges():
    assert cartan_matrix(SeriesTag("A", 1)).matrix.tolist() == [[2]]
    assert cartan_matrix(SeriesTag("C", 1)).matrix.tolist() == [[2]]
    assert cartan_inverse_closed_form(SeriesTag("C", 1), 1, 1) == Fraction(1, 2)


def test_cached_per_tag_and_read_only():
    km = cartan_matrix(SeriesTag("B", 3))
    assert cartan_matrix(SeriesTag("B", 3)) is km
    with pytest.raises(ValueError):
        km.matrix[0, 0] = Fraction(5)
    with pytest.raises(ValueError):
        km.inverse[0, 0] = Fraction(5)
    assert km.matrix[0, 0] == 2 and km.inverse[0, 0] == 1
