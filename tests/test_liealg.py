import numpy as np
import pytest
from scipy.linalg import expm

from todakit.exact import ShapeError, rational_matrix
from todakit.liealg import (
    SeriesTag,
    algebra_basis,
    algebra_membership,
    _SMALL_STACK,
    antidiag_unit,
    basis_unit,
    block_matmul,
    cartan_generators,
    commutator,
    dr_automorphism,
    dr_conjugate,
    form_defect,
    group_membership,
    symplectic_form,
    t_transpose,
)

from conftest import random_complex

ALL_TAGS = [SeriesTag("A", 3), SeriesTag("B", 2), SeriesTag("C", 2), SeriesTag("D", 3)]


def test_series_tag_validation():
    with pytest.raises(ValueError):
        SeriesTag("E", 6)
    with pytest.raises(ValueError):
        SeriesTag("D", 2)
    with pytest.raises(ValueError):
        SeriesTag("B", 1)
    assert SeriesTag("B", 2).ambient_dim == 5
    assert SeriesTag("C", 3).ambient_dim == 6
    assert SeriesTag("A", 4).ambient_dim == 5


@pytest.mark.parametrize("rank", [2.0, True, "2", None])
def test_series_tag_rejects_non_integral_rank(rank):
    with pytest.raises(ValueError):
        SeriesTag("A", rank)


def test_series_tag_rank_is_a_python_int():
    tag = SeriesTag("A", np.int64(2))
    assert type(tag.rank) is int and tag.ambient_dim == 3


def test_basis_unit():
    assert basis_unit(1, 2, 2).tolist() == [[0, 1], [0, 0]]
    assert basis_unit(2, 2, 2).tolist() == [[0, 0], [0, 1]]
    m = basis_unit(3, 1, 3)
    assert m[2, 0] == 1 and m.sum() == 1
    with pytest.raises(IndexError):
        basis_unit(0, 1, 3)
    with pytest.raises(IndexError):
        basis_unit(1, 4, 3)


def test_antidiag_unit():
    assert antidiag_unit(1).tolist() == [[1]]
    assert antidiag_unit(2).tolist() == [[0, 1], [1, 0]]
    for n in (1, 2, 3, 5):
        tilde = antidiag_unit(n)
        assert np.array_equal(tilde @ tilde, np.eye(n, dtype=np.int64))


def test_symplectic_form():
    assert symplectic_form(1).tolist() == [[0, 1], [-1, 0]]
    assert symplectic_form(2).tolist() == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ]
    for r in (1, 2, 3, 4):
        form = symplectic_form(r)
        assert np.array_equal(form @ form, -np.eye(2 * r, dtype=np.int64))


def test_t_transpose_values():
    assert t_transpose(np.array([[1, 2], [3, 4]])).tolist() == [[4, 2], [3, 1]]
    assert np.array_equal(t_transpose(np.eye(4)), np.eye(4))
    assert t_transpose(np.array([[5, 7]])).tolist() == [[7], [5]]
    stack = np.arange(2 * 3 * 2 * 4).reshape(2, 3, 2, 4)
    twisted = t_transpose(stack)
    assert twisted.shape == (2, 3, 4, 2) and np.shares_memory(twisted, stack)
    for index in np.ndindex(2, 3):
        assert np.array_equal(twisted[index], t_transpose(stack[index]))
        assert np.array_equal(twisted[index], antidiag_unit(4) @ stack[index].T @ antidiag_unit(2))
    with pytest.raises(ShapeError):
        t_transpose(np.arange(3))


def test_t_transpose_involution_and_antimultiplicative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k1, k2 = rng.integers(1, 6, size=2)
        a = rng.integers(-4, 5, size=(k1, k2))
        assert np.array_equal(t_transpose(t_transpose(a)), a)
        b = rng.integers(-4, 5, size=(k2, k1))
        assert np.array_equal(t_transpose(a @ b), t_transpose(b) @ t_transpose(a))
    for _ in range(50):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert np.max(np.abs(t_transpose(a @ b) - t_transpose(b) @ t_transpose(a))) < 1e-12


def test_algebra_membership_examples():
    tag_b = SeriesTag("B", 2)
    x = basis_unit(1, 1, 5) - basis_unit(5, 5, 5)
    verdict = algebra_membership(tag_b, x)
    assert verdict.member and verdict.defect == 0

    tag_d = SeriesTag("D", 3)
    verdict = algebra_membership(tag_d, np.eye(6))
    assert not verdict.member

    tag_c = SeriesTag("C", 1)
    verdict = algebra_membership(tag_c, basis_unit(1, 2, 2))
    assert verdict.member and verdict.defect == 0


def test_algebra_membership_sl_and_gl_modes():
    tag = SeriesTag("A", 2)
    x = basis_unit(1, 1, 3)
    assert not algebra_membership(tag, x).member  # nonzero trace
    assert algebra_membership(tag, x, general_linear=True).member
    assert algebra_membership(tag, basis_unit(1, 2, 3)).member


def test_group_membership_examples(rng):
    for tag in ALL_TAGS:
        assert group_membership(tag, np.eye(tag.ambient_dim)).member

    for tag in (SeriesTag("B", 2), SeriesTag("D", 3)):
        n = tag.ambient_dim
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = 0.3 * (raw - t_transpose(raw))
        assert algebra_membership(tag, x, tol=1e-12).member
        assert group_membership(tag, expm(x), tol=1e-10).member

    g = np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 0.5])
    assert group_membership(SeriesTag("D", 3), g).member

    assert group_membership(SeriesTag("A", 2), np.eye(3)).member
    assert not group_membership(SeriesTag("A", 2), np.zeros((3, 3))).member


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.series}{t.rank}")
def test_cartan_generators_exact(tag):
    gens = cartan_generators(tag)
    assert len(gens) == tag.rank
    for h in gens:
        verdict = algebra_membership(tag, h, tol=0)
        assert verdict.member and verdict.defect == 0
    for hi in gens:
        for hj in gens:
            assert np.all(hi @ hj == hj @ hi)


def test_cartan_generator_values():
    a_gens = cartan_generators(SeriesTag("A", 2))
    assert [str(x) for x in a_gens[0].diagonal()] == ["1", "-1", "0"]
    b_gens = cartan_generators(SeriesTag("B", 2))
    assert [str(x) for x in b_gens[1].diagonal()] == ["0", "2", "0", "-2", "0"]
    d_gens = cartan_generators(SeriesTag("D", 3))
    assert [str(x) for x in d_gens[2].diagonal()] == ["0", "1", "1", "-1", "-1", "0"]
    c_gens = cartan_generators(SeriesTag("C", 2))
    assert [str(x) for x in c_gens[1].diagonal()] == ["0", "1", "-1", "0"]


@pytest.mark.parametrize("series", ["B", "D"])
def test_commutator_closure_exact(series, rng):
    tag = SeriesTag(series, 3)
    basis = algebra_basis(tag)
    idx = rng.integers(0, len(basis), size=(40, 2))
    for i, j in idx:
        z = commutator(basis[i], basis[j])
        verdict = algebra_membership(tag, z, tol=0)
        assert verdict.member and verdict.defect == 0


def test_algebra_basis_dimensions():
    for tag in ALL_TAGS:
        assert len(algebra_basis(tag)) == tag.algebra_dim


def test_dr_automorphism():
    a = dr_automorphism(3)
    expected = np.eye(6, dtype=np.int64)
    expected[[2, 3]] = expected[[3, 2]]
    assert np.array_equal(a, expected)
    assert np.array_equal(a @ a, np.eye(6, dtype=np.int64))

    rng = np.random.default_rng(5)
    tag = SeriesTag("D", 4)
    raw = rational_matrix(rng.integers(-3, 4, size=(8, 8)))
    x = raw - t_transpose(raw)
    assert algebra_membership(tag, x, tol=0).member
    sx = dr_conjugate(4, x)
    assert algebra_membership(tag, sx, tol=0).member
    assert np.all(dr_conjugate(4, sx) == x)


@pytest.mark.parametrize("length", [_SMALL_STACK - 1, _SMALL_STACK], ids=["short", "long"])
@pytest.mark.parametrize("inner", [1, 2, 3, 4])
@pytest.mark.parametrize("lead_a, lead_b", [
    ((None,), (None,)),  # stack @ stack
    ((), (None,)),  # a 2-D factor on the left
    ((None,), ()),  # a 2-D factor on the right
    ((), ()),
    ((4, 1), (1, None)),  # leading axes that broadcast
    ((3, None), (None,)),
], ids=["stacks", "const-left", "const-right", "two-const", "broadcast", "broadcast-short"])
def test_block_matmul_is_matmul(length, inner, lead_a, lead_b, rng):
    lead_a, lead_b = ([length if n is None else n for n in lead] for lead in (lead_a, lead_b))
    # non-square factors, like the couplings between blocks of different sizes
    a = random_complex(rng, (*lead_a, 2, inner))
    b = random_complex(rng, (*lead_b, inner, 3))
    for x, y in ((a, b), (np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2))):  # also views
        want = np.matmul(x, y)
        got = block_matmul(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("length", [_SMALL_STACK - 1, _SMALL_STACK], ids=["short", "long"])
def test_block_matmul_rejects_mismatched_blocks(length, rng):
    with pytest.raises(ValueError):
        block_matmul(random_complex(rng, (length, 2, 2)), random_complex(rng, (length, 3, 2)))


def test_form_defect_of_a_stack(rng):
    form = symplectic_form(2)
    g = np.eye(4) + 0.1 * random_complex(rng, (2, _SMALL_STACK, 4, 4))
    want = np.swapaxes(g, -1, -2) @ form @ g - form
    assert np.max(np.abs(form_defect(form, g) - want)) <= 1e-14
