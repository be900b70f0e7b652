import numpy as np
import pytest
from scipy.linalg import expm

import todakit as tk
from todakit import equations, toda
from todakit.liealg import algebra_membership, group_membership, t_transpose
from todakit.solver import liouville_field, liouville_system
from todakit.toda import ConstraintError, central_defect

from conftest import (
    ALL_CASES,
    SYSTEM_CASES,
    build_case,
    central_generator,
    line_couplings,
    random_complex,
    random_couplings,
    smooth_closure,
    unit_step_cases,
)


def test_build_system_classification():
    system = build_case("A", 2, (1, 2))
    assert system.constraint_set == "A-none"
    assert system.independent_beta_count == 2 and system.independent_c_count == 1

    system = build_case("D", 4, (1, 3, 3, 1))
    assert system.constraint_set == "BD-evenp"
    assert system.independent_beta_count == 2

    system = build_case("C", 2, (1, 2, 1))
    assert system.constraint_set == "C-oddp"
    assert system.independent_beta_count == 2


def test_build_system_rejects_bad_blocks():
    with pytest.raises(Exception):
        build_case("D", 3, (1, 2, 2))  # not palindromic
    with pytest.raises(Exception):
        build_case("A", 2, (1, 1))  # wrong total
    with pytest.raises(ConstraintError):
        tk.TodaSystem(tk.BlockStructure(tk.SeriesTag("A", 3), (2, 2), (2,)))


def test_build_system_rejects_fractional_sizes():
    # (1.5, 1.5) used to be truncated to the valid A1 partition (1, 1)
    with pytest.raises(tk.GradationError, match="block sizes must be integers"):
        build_case("A", 1, (1.5, 1.5))


@pytest.mark.parametrize("args", [
    (0.0, 0.0, 0.1, 0.1, 5.5, 5),
    (0.0, 0.0, 0.1, 0.1, 5, 5.0),
    (0.0, 0.0, float("nan"), 0.1, 5, 5),
    (0.0, 0.0, 0.1, float("inf"), 5, 5),
    (float("nan"), 0.0, 0.1, 0.1, 5, 5),
    (0.0, 0.0, "0.1", 0.1, 5, 5),
    (0.0, 0.0, True, 0.1, 5, 5),
    (0.0, False, 0.1, 0.1, 5, 5),
], ids=["fractional-n-minus", "float-n-plus", "nan-h-minus", "inf-h-plus", "nan-z-minus-start",
        "string-h-minus", "bool-h-minus", "bool-z-plus-start"])
def test_grid_spec_rejects_non_integer_counts_and_non_finite_spacing(args):
    with pytest.raises(ValueError):
        tk.GridSpec(*args)


def test_make_c_blocks_rejects_non_finite_coupling():
    system = build_case("A", 1, (1, 1))
    with pytest.raises(ValueError, match="non-finite"):
        tk.make_c_blocks(system, [np.array([[np.nan]])], [np.array([[1.0]])])
    with pytest.raises(ValueError, match="non-finite"):
        tk.make_c_blocks(system, [np.array([[-1.0]])], [np.full((3, 1, 1), np.inf)])


def test_grid_spec_keeps_integer_like_counts():
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, np.int64(5), 6)
    assert type(spec.n_minus) is int and spec.z_minus.shape == (5,)


def test_assemble_c_single_block():
    system = build_case("A", 1, (1, 1))
    c = tk.make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    full = tk.assemble_c(system, c, "-")
    assert full.tolist() == [[0, 0], [-1, 0]]
    full = tk.assemble_c(system, c, "+")
    assert full.tolist() == [[0, 1], [0, 0]]
    line = tk.make_c_blocks(system, [np.full((3, 1, 1), -1.0)], [np.array([[1.0]])])
    with pytest.raises(ValueError, match="constant couplings only"):
        tk.assemble_c(system, line, "-")


def test_assemble_c_completion_and_membership(rng):
    tag = tk.SeriesTag("D", 3)
    system = build_case("D", 3, (1, 4, 1))
    cm1 = random_complex(rng, (4, 1))
    c = tk.make_c_blocks(system, [cm1], [random_complex(rng, (1, 4))])
    assert np.max(np.abs(c.minus[1] + t_transpose(cm1))) == 0
    for sign in "+-":
        verdict = algebra_membership(tag, tk.assemble_c(system, c, sign))
        assert verdict.member and verdict.defect <= 1e-12


def test_assemble_c_scalar_symmetric_automatic():
    system = build_case("C", 1, (1, 1))
    c = tk.make_c_blocks(system, [np.array([[2.5 + 1j]])], [np.array([[-0.5]])])
    verdict = algebra_membership(tk.SeriesTag("C", 1), tk.assemble_c(system, c, "-"))
    assert verdict.member


def test_c_blocks_validation_of_full_lists(rng):
    system = build_case("B", 2, (1, 3, 1))
    cm1 = random_complex(rng, (3, 1))
    cp1 = random_complex(rng, (1, 3))
    good_minus = [cm1, -t_transpose(cm1)]
    good_plus = [cp1, -t_transpose(cp1)]
    tk.make_c_blocks(system, good_minus, good_plus)
    with pytest.raises(ConstraintError):
        tk.make_c_blocks(system, [cm1, t_transpose(cm1)], good_plus)


@pytest.mark.parametrize("case", unit_step_cases(4), ids=lambda case: f"{case[0]}{case[1]}-{case[2]}")
def test_c_relations_complete_validate_round_trip(case, rng):
    system = build_case(*case)
    p, s = system.blocks.count, system.blocks.count // 2
    want = system.independent_c_count
    seed = random_couplings(system, rng)
    c = tk.make_c_blocks(system, seed.minus[:want], seed.plus[:want])
    assert len(c.minus) == len(c.plus) == p - 1
    for sign in "-+":  # the completed blocks lie in the algebra
        assert algebra_membership(system.tag, tk.assemble_c(system, c, sign)).member
    again = tk.make_c_blocks(system, c.minus, c.plus)
    for got, sent in zip(again.minus + again.plus, c.minus + c.plus):
        assert np.array_equal(got, sent)

    perturbed = list(range(want + 1, p))  # the dependent entries
    central = system.tag.series != "A" and p % 2 == 0
    # a 1 x 1 block is always T-symmetric, so a scalar C-evenp centre has no relation to break
    if central and not (system.constraint_set == "C-evenp" and system.blocks.sizes[s] == 1):
        perturbed.append(s)
    for sign in "-+":
        for a in perturbed:
            entries = list(c.minus if sign == "-" else c.plus)
            entries[a - 1] = entries[a - 1] + 1e-6 * random_complex(rng, entries[a - 1].shape)
            for count in {p - 1, want} if a <= want else {p - 1}:
                minus = entries[:count] if sign == "-" else c.minus[:count]
                plus = entries[:count] if sign == "+" else c.plus[:count]
                with pytest.raises(ConstraintError):
                    tk.make_c_blocks(system, minus, plus)


def test_assemble_gamma_examples(rng):
    system = build_case("A", 1, (1, 1))
    gamma = tk.assemble_gamma(system, [np.array([[2.0]]), np.array([[5.0]])])
    assert np.array_equal(gamma, np.diag([2.0 + 0j, 5.0]))

    system = build_case("D", 3, (1, 4, 1))
    raw = random_complex(rng, (4, 4))
    central = expm(0.3 * (raw - t_transpose(raw)))
    gamma = tk.assemble_gamma(system, [np.array([[3.0]]), central])
    assert abs(gamma[-1, -1] - 1.0 / 3.0) < 1e-14
    assert group_membership(tk.SeriesTag("D", 3), gamma).member


def test_scalar_central_block_constrained():
    system = build_case("B", 2, (2, 1, 2))
    eye2 = np.eye(2, dtype=complex)
    tk.assemble_gamma(system, [eye2, np.array([[-1.0]])])
    with pytest.raises(ConstraintError):
        tk.assemble_gamma(system, [eye2, np.array([[2.0]])])


def test_chiral_only_field_residual_vanishes(rng):
    system = liouville_system()
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 9, 9)
    line = np.exp(0.3 * spec.z_minus + 0.1j * spec.z_minus**2)
    b1 = np.broadcast_to(line[:, None, None, None], (9, 9, 1, 1)).copy()
    b2 = 1.0 / b1
    field = tk.GridField(spec, (b1.astype(complex), b2.astype(complex)))
    c = tk.make_c_blocks(system, [np.array([[3.0]])], [np.array([[0.0]])])
    rep = tk.residual_full(system, field, c)
    assert rep.max_norm <= 1e-12


def test_constant_non_solution_residual():
    system = liouville_system()
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    ones = np.ones((5, 5, 1, 1), dtype=complex)
    field = tk.GridField(spec, (ones, ones.copy()))
    c = tk.make_c_blocks(system, [np.array([[1.0]])], [np.array([[1.0]])])
    rep = tk.residual_full(system, field, c)
    assert np.allclose(rep.grids[0], 1.0) and np.allclose(rep.grids[1], -1.0)
    assert rep.max_norm == 1.0
    assert rep.full_grid.shape == (3, 3, 2, 2)


def test_l2_norm_stays_finite_for_large_finite_residuals():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    grid = np.zeros((5, 5, 1, 1), dtype=complex)
    grid[2, 3] = 5e299
    report = tk.ResidualReport(spec, ("beta_1", "beta_2"), (grid, np.zeros_like(grid)))
    assert report.l2_norms == (1.25e299, 0.0)
    assert report.l2_norm == 1.25e299
    assert report.max_norm == 5e299


def test_liouville_residual_second_order():
    norms = []
    for n in (17, 33, 65):
        spec = tk.GridSpec(0.0, 4.0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)
        lv = liouville_field(spec)
        norms.append(tk.residual_full(lv.system, lv.field, lv.c).max_norm)
    order = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(norms), 1)[0]
    assert 1.8 <= order <= 2.2


@pytest.mark.parametrize(
    "case", ALL_CASES, ids=lambda c: f"{c[0]}{c[1]}-{'_'.join(map(str, c[2]))}"
)
def test_block_full_equivalence(case, rng):
    series, rank, sizes = case
    system = build_case(series, rank, sizes)
    spec = tk.GridSpec(0.0, 0.0, 0.11, 0.13, 6, 6)
    for _ in range(3):
        closure = smooth_closure(system, rng)
        field = tk.field_from_closure(system, spec, closure)
        c = random_couplings(system, rng)
        for couplings in (c, line_couplings(system, c, spec)):
            rb = tk.block_residuals(system, field, couplings)
            rf = tk.residual_full(system, field, couplings)
            for a, grid in enumerate(rb.grids):
                scale = max(np.max(np.abs(rf.grids[a])), 1e-30)
                assert np.max(np.abs(grid - rf.grids[a])) <= 1e-13 * scale


def test_connection_identities():
    system = liouville_system()
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    ones = np.ones((5, 5, 1, 1), dtype=complex)
    field = tk.GridField(spec, (ones, ones.copy()))
    c = tk.make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    om, op_ = tk.connection(system, field, c)
    assert np.allclose(om, tk.assemble_c(system, c, "-"))
    assert np.allclose(op_, tk.assemble_c(system, c, "+"))
    czero = tk.make_c_blocks(system, [np.array([[0.0]])], [np.array([[0.0]])])
    om, op_ = tk.connection(system, field, czero)
    assert np.max(np.abs(op_)) == 0.0


def test_curvature_constant_commuting():
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 5, 5)
    base = np.diag([1.0, 2.0]).astype(complex)
    om = np.broadcast_to(base, (5, 5, 2, 2)).copy()
    op_ = np.broadcast_to(2 * base, (5, 5, 2, 2)).copy()
    rep = tk.curvature_residual(om, op_, spec)
    assert rep.max_norm == 0.0


def test_curvature_tracks_residual_on_solution():
    spec = tk.GridSpec(0.0, 4.0, 1.0 / 32, 1.0 / 32, 33, 33)
    lv = liouville_field(spec)
    resid = tk.residual_full(lv.system, lv.field, lv.c)
    om, op_ = tk.connection(lv.system, lv.field, lv.c)
    curv = tk.curvature_residual(om, op_, spec)
    ratio = curv.max_norm / resid.max_norm
    assert 1 / 3 <= ratio <= 3


def test_curvature_lower_bound_on_random_fields(rng):
    system = liouville_system()
    spec = tk.GridSpec(0.0, 2.0, 0.08, 0.09, 9, 9)
    for _ in range(5):
        closure = smooth_closure(system, rng)
        field = tk.field_from_closure(system, spec, closure)
        c = random_couplings(system, rng)
        resid = tk.residual_full(system, field, c)
        om, op_ = tk.connection(system, field, c)
        curv = tk.curvature_residual(om, op_, spec)
        assert curv.max_norm >= resid.max_norm / 3


def test_dependent_block_residual_mirror(rng):
    system = build_case("D", 3, (1, 4, 1))
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 5, 5)
    raw = random_complex(rng, (4, 4))
    central = expm(0.2 * (raw - t_transpose(raw)))
    b1 = np.broadcast_to(np.array([[1.7 - 0.3j]]), (5, 5, 1, 1)).copy()
    b2 = np.broadcast_to(central, (5, 5, 4, 4)).copy()
    field = tk.GridField(spec, (b1, b2))
    c = random_couplings(system, rng)
    rep = tk.residual_full(system, field, c)
    mirrored = t_transpose(rep.grids[0][0, 0])
    assert np.max(np.abs(mirrored + rep.grids[-1][0, 0])) <= 1e-12


@pytest.mark.parametrize("constraint_class", ["BD-oddp", "BD-evenp", "C-oddp", "C-evenp"])
def test_reduction_property(constraint_class, rng):
    series, rank, sizes = SYSTEM_CASES[constraint_class][0]
    system = build_case(series, rank, sizes)
    spec = tk.GridSpec(0.0, 0.0, 0.12, 0.1, 6, 6)
    for _ in range(3):
        closure = smooth_closure(system, rng, affine=True)
        field = tk.field_from_closure(system, spec, closure)
        c = random_couplings(system, rng)
        rep = tk.residual_full(system, field, c)
        full = rep.full_grid
        if system.tag.series == "C":
            form = tk.symplectic_form(system.tag.rank).astype(complex)
            defect = np.max(np.abs(form @ np.swapaxes(full, -1, -2) @ form - full))
        else:
            twisted = np.swapaxes(full[..., ::-1, ::-1], -1, -2)
            defect = np.max(np.abs(twisted + full))
        assert defect <= 1e-10


def test_gauge_identity_and_scalar_invariance():
    spec = tk.GridSpec(0.0, 2.0, 1 / 16, 1 / 16, 17, 17)
    lv = liouville_field(spec)
    base = tk.residual_full(lv.system, lv.field, lv.c).max_norm

    eye = np.eye(1)
    field_id, c_id = tk.gauge_transform(lv.system, lv.field, lv.c, [eye, eye], [eye, eye])
    assert all(np.array_equal(a, b) for a, b in zip(field_id.betas, lv.field.betas))
    assert np.array_equal(c_id.minus[0], lv.c.minus[0])

    lam = np.array([[1.7]])
    field_g, c_g = tk.gauge_transform(lv.system, lv.field, lv.c, [lam, lam], [lam * 0.4, lam * 0.4])
    after = tk.residual_full(lv.system, field_g, c_g).max_norm
    assert abs(after - base) <= 1e-12 * max(1.0, base) + 1e-12


def test_gauge_scales_couplings():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    lam = 2.5
    xi_minus = [np.array([[lam]]), np.array([[1.0]])]
    xi_plus = [np.eye(1), np.eye(1)]
    _, c_new = tk.gauge_transform(lv.system, lv.field, lv.c, xi_minus, xi_plus)
    assert np.allclose(c_new.minus[0], lam * lv.c.minus[0])
    assert np.allclose(c_new.plus[0], lv.c.plus[0])


def test_gauge_covariance_bound(rng):
    system = build_case("A", 3, (2, 2))
    spec = tk.GridSpec(0.0, 0.0, 1 / 16, 1 / 16, 17, 17)
    closure = smooth_closure(system, rng)
    field = tk.field_from_closure(system, spec, closure)
    c = random_couplings(system, rng, scale=0.3)
    eps = tk.residual_full(system, field, c).max_norm
    xi_m = [expm(random_complex(rng, (2, 2), 0.3)) for _ in range(2)]
    xi_p = [expm(random_complex(rng, (2, 2), 0.3)) for _ in range(2)]
    field_g, c_g = tk.gauge_transform(system, field, c, xi_m, xi_p)
    after = tk.residual_full(system, field_g, c_g).max_norm
    kappa = max(np.linalg.cond(x) for x in xi_m + xi_p)
    assert after <= eps * kappa**2 + 5 * spec.h_minus**2


def test_gauge_on_constrained_series(rng):
    system = build_case("B", 2, (1, 3, 1))
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 7, 7)
    field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
    c = random_couplings(system, rng)
    raw = random_complex(rng, (3, 3), 0.3)
    central_xi = expm(raw - t_transpose(raw))
    xi_m = [np.array([[1.4 + 0.2j]]), central_xi]
    raw_p = random_complex(rng, (3, 3), 0.3)
    xi_p = [np.array([[0.8]]), expm(raw_p - t_transpose(raw_p))]
    field_g, c_g = tk.gauge_transform(system, field, c, xi_m, xi_p)
    # transformed couplings still satisfy the constraint relations
    for sign in "+-":
        verdict = algebra_membership(system.tag, tk.assemble_c(system, c_g, sign))
        assert verdict.member and verdict.defect <= 1e-10
    # transformed field still assembles to a group-valued element
    gamma = tk.assemble_gamma(system, [b[0, 0] for b in field_g.betas])
    assert group_membership(system.tag, gamma, tol=1e-9).member
    # block and full residuals still agree on the transformed data
    rb = tk.block_residuals(system, field_g, c_g)
    rf = tk.residual_full(system, field_g, c_g)
    for a, grid in enumerate(rb.grids):
        scale = max(np.max(np.abs(rf.grids[a])), 1e-30)
        assert np.max(np.abs(grid - rf.grids[a])) <= 1e-12 * scale


def test_each_independent_block_is_inverted_once(rng, monkeypatch):
    """A mirrored block is the twisted transpose of an independent block's
    inverse, and its inverse that of the block itself: neither is inverted."""
    system = build_case("D", 4, (1, 3, 3, 1))
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 6, 6)
    field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
    c = random_couplings(system, rng)
    calls = []

    def counting(values):
        calls.append(values.shape)
        return np.linalg.inv(values)

    monkeypatch.setattr(toda, "batched_inverse", counting)
    monkeypatch.setattr(equations, "batched_inverse", counting)
    for evaluate in (tk.residual_full, tk.connection, tk.block_residuals):
        calls.clear()
        evaluate(system, field, c)
        assert calls == [beta.shape for beta in field.betas]  # 2 = independent_beta_count
    factors = [expm(random_complex(rng, (k, k), 0.3)) for k in (1, 3)]
    lines = [np.broadcast_to(x, (spec.n_minus,) + x.shape) for x in factors]
    calls.clear()
    tk.gauge_transform(system, field, c, lines, factors)
    assert calls == [line.shape for line in lines] + [x.shape for x in factors]


def test_gauge_rejects_offmanifold_central(rng):
    system = build_case("B", 2, (1, 3, 1))
    spec = tk.GridSpec(0.0, 0.0, 0.1, 0.1, 7, 7)
    field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
    c = random_couplings(system, rng)
    bad_central = np.eye(3) * 2.0
    with pytest.raises(ConstraintError):
        tk.gauge_transform(system, field, c, [np.eye(1), bad_central], [np.eye(1), np.eye(3)])


def test_gauge_couplings_are_constant_exactly_where_the_factors_are():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    lam = np.array([[2.5]])
    flat = np.broadcast_to(lam, (5, 1, 1))  # a line whose samples are all equal
    _, c_const = tk.gauge_transform(lv.system, lv.field, lv.c, [lam, 1 / lam], [lam, 1 / lam])
    assert c_const.minus[0].shape == c_const.plus[0].shape == (1, 1)
    _, c_line = tk.gauge_transform(lv.system, lv.field, lv.c, [flat, 1 / flat], [lam, 1 / lam])
    assert c_line.minus[0].shape == (5, 1, 1) and c_line.plus[0].shape == (1, 1)
    assert np.array_equal(c_line.minus[0], np.broadcast_to(c_const.minus[0], (5, 1, 1)))
    _, c_line = tk.gauge_transform(lv.system, lv.field, lv.c, [lam, 1 / lam], [flat, 1 / flat])
    assert c_line.minus[0].shape == (1, 1) and c_line.plus[0].shape == (5, 1, 1)


def test_gauge_rejects_a_line_of_the_wrong_length():
    lv = liouville_field(tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 7))
    line = np.ones((7, 1, 1))
    with pytest.raises(tk.ShapeError):
        tk.gauge_transform(lv.system, lv.field, lv.c, [line, line], [np.eye(1), np.eye(1)])


@pytest.mark.parametrize("minus, plus", [(3, 2), (2, 3), (1, 2)])
def test_gauge_rejects_wrong_block_count(minus, plus):
    lv = liouville_field(tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5))
    with pytest.raises(tk.ShapeError):
        tk.gauge_transform(lv.system, lv.field, lv.c, [np.eye(1)] * minus, [np.eye(1)] * plus)


def test_conformal_identity_translation_scaling():
    from todakit.solver import liouville_closure

    spec = tk.GridSpec(0.0, 2.0, 1 / 16, 1 / 16, 17, 17)
    lv = liouville_field(spec)
    base = tk.residual_full(lv.system, lv.field, lv.c).max_norm
    closure = liouville_closure()

    ident = (lambda z: z, lambda z: 1.0)
    same = tk.conformal_transform(lv.system, closure, ident, ident, spec=spec)
    assert all(np.array_equal(a, b) for a, b in zip(same.betas, lv.field.betas))

    shift = (lambda z: z + 0.1, lambda z: 1.0)
    moved = tk.conformal_transform(lv.system, closure, shift, shift, spec=spec)
    after = tk.residual_full(lv.system, moved, lv.c).max_norm
    assert after <= 5 * base

    double = (lambda z: 2 * z, lambda z: 2.0)
    scaled = tk.conformal_transform(lv.system, closure, double, double, spec=spec)
    after = tk.residual_full(lv.system, scaled, lv.c).max_norm
    assert after <= 5 * base


def test_conformal_rejects_decreasing_map():
    from todakit.solver import liouville_closure

    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    bad = (lambda z: -z, lambda z: -1.0)
    good = (lambda z: z, lambda z: 1.0)
    with pytest.raises(tk.DomainError):
        tk.conformal_transform(liouville_system(), liouville_closure(), bad, good, spec=spec)
    with pytest.raises(tk.DomainError):
        tk.conformal_transform(liouville_system(), liouville_closure(), good, bad, spec=spec)


def test_chiral_line_couplings_accepted(rng):
    system = liouville_system()
    spec = tk.GridSpec(0.0, 2.0, 0.1, 0.1, 7, 7)
    lv = liouville_field(spec)
    minus_line = (1.0 + 0.2 * np.sin(spec.z_minus))[:, None, None] * np.array([[[-1.0]]])
    plus_line = (1.0 + 0.1 * spec.z_plus)[:, None, None] * np.array([[[1.0]]])
    c = tk.CBlocks(system, (minus_line.astype(complex),), (plus_line.astype(complex),))
    rep = tk.residual_full(system, lv.field, c)
    assert np.isfinite(rep.max_norm)
    rep_b = tk.block_residuals(system, lv.field, c)
    for a in range(2):
        scale = max(np.max(np.abs(rep.grids[a])), 1e-30)
        assert np.max(np.abs(rep_b.grids[a] - rep.grids[a])) <= 1e-13 * scale


def test_central_defect_reporting(rng):
    system = build_case("C", 2, (1, 2, 1))
    good = expm(0.3 * (lambda raw: 0.5 * (raw + tk.symplectic_form(1) @ raw.T @ tk.symplectic_form(1)))(random_complex(rng, (2, 2))))
    assert central_defect(system, good) <= 1e-12
    assert central_defect(system, 2 * np.eye(2, dtype=complex)) > 1.0


@pytest.mark.parametrize("case", SYSTEM_CASES["BD-oddp"] + SYSTEM_CASES["C-oddp"], ids=str)
def test_central_defect_matches_series_formula(case, rng):
    system = build_case(*case)
    k = system.blocks.sizes[system.blocks.count // 2]
    eye = np.eye(k)
    on_manifold = np.stack([expm(central_generator(system, rng)) for _ in range(4)])
    for g in (on_manifold, random_complex(rng, (4, k, k), 0.5)):
        if system.tag.series == "C":
            form = tk.symplectic_form(k // 2)
            explicit = np.max(np.abs(form @ np.swapaxes(g, -1, -2) @ form @ g + eye))
        else:
            explicit = np.max(np.abs(np.stack([t_transpose(x) for x in g]) @ g - eye))
        assert central_defect(system, g) == pytest.approx(explicit, rel=1e-12, abs=1e-15)
