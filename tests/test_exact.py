from fractions import Fraction

import numpy as np
import pytest

from todakit.exact import ShapeError, SingularMatrixError, rational_matrix, rmat_equal, rmat_inverse


def _eye(n):
    return rational_matrix(np.eye(n, dtype=int))


def test_identity_product():
    eye = _eye(2)
    assert rmat_equal(eye @ eye, eye)


def test_cartan_pair_product_is_identity():
    a = rational_matrix([[2, -1], [-1, 2]])
    b = rational_matrix([["2/3", "1/3"], ["1/3", "2/3"]])
    assert rmat_equal(a @ b, _eye(2))


def test_nilpotent_square_is_zero():
    n = rational_matrix([[0, 1], [0, 0]])
    assert rmat_equal(n @ n, rational_matrix([[0, 0], [0, 0]]))


def test_ragged_rows_shape_error():
    with pytest.raises(ShapeError):
        rational_matrix([[1, 2], [3]])


def test_inverse_identity():
    assert rmat_equal(rmat_inverse(_eye(3)), _eye(3))


def test_inverse_symmetric_tridiagonal():
    a = rational_matrix([[2, -1], [-1, 2]])
    want = rational_matrix([["2/3", "1/3"], ["1/3", "2/3"]])
    assert rmat_equal(rmat_inverse(a), want)


def test_inverse_asymmetric_tail():
    a = rational_matrix([[2, -2], [-1, 2]])
    want = rational_matrix([[1, 1], ["1/2", 1]])
    assert rmat_equal(rmat_inverse(a), want)


def test_inverse_errors():
    with pytest.raises(ShapeError):
        rmat_inverse(rational_matrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(SingularMatrixError):
        rmat_inverse(rational_matrix([[1, 2], [2, 4]]))


def test_random_inverse_roundtrip():
    rng = np.random.default_rng(7)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 9))
        a = rational_matrix(rng.integers(-5, 6, size=(n, n)))
        try:
            inv = rmat_inverse(a)
        except SingularMatrixError:
            continue
        assert rmat_equal(a @ inv, _eye(n))
        assert rmat_equal(inv @ a, _eye(n))
        done += 1


def test_mul_associative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dims = rng.integers(1, 6, size=4)
        a = rational_matrix(rng.integers(-5, 6, size=(dims[0], dims[1])))
        b = rational_matrix(rng.integers(-5, 6, size=(dims[1], dims[2])))
        c = rational_matrix(rng.integers(-5, 6, size=(dims[2], dims[3])))
        assert rmat_equal((a @ b) @ c, a @ (b @ c))


def test_canonical_form():
    half, zero = rational_matrix([["2/4", 0]])[0]
    assert half == Fraction(1, 2)
    assert half.numerator == 1 and half.denominator == 2
    assert zero == Fraction(0, 1) and isinstance(zero, Fraction)
