import numpy as np
import pytest

import todakit as tk
from todakit import solver
from todakit.equations import StationPlan
from todakit.exact import ShapeError, SingularMatrixError
from todakit.liealg import _SMALL_STACK
from todakit.solver import (
    BlowUpError,
    CharacteristicData,
    ConvergenceError,
    convergence_study,
    liouville_boundary,
    liouville_closure,
    liouville_field,
    liouville_system,
    _cayley,
    _health_fault,
    _project_central,
    _prefix_products,
    _staggered_log_derivative,
    march,
)
from todakit.toda import central_defect

from conftest import (
    ALL_CASES,
    SYSTEM_CASES,
    boundary_from_closure,
    build_case,
    random_complex,
    random_couplings,
    singular_station_case,
    smooth_closure,
)


def _liouville_spec(n, z0=2.0):
    return tk.GridSpec(0.0, z0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)


def test_boundary_lines_copied_bit_for_bit():
    spec = _liouville_spec(17)
    lv = liouville_field(spec)
    data = liouville_boundary(spec)
    result = march(lv.system, lv.c, data)
    for a in range(2):
        assert np.array_equal(result.field.betas[a][:, 0], data.left[a])
        assert np.array_equal(result.field.betas[a][0, :], data.bottom[a])


def test_march_recovers_closed_form():
    spec = _liouville_spec(65)
    lv = liouville_field(spec)
    result = march(lv.system, lv.c, liouville_boundary(spec))
    err = max(
        float(np.max(np.abs(result.field.betas[a] - lv.field.betas[a]))) for a in range(2)
    )
    assert err <= 5e-4
    assert max(result.corrector_iterations) <= 25


def test_march_order_two():
    closure = liouville_closure()
    system = liouville_system()

    def make_case(spec):
        lv = liouville_field(spec)
        return liouville_boundary(spec), lv.c

    specs = [_liouville_spec(n) for n in (17, 33, 65)]
    study = convergence_study(system, make_case, specs, exact=closure)
    assert 1.7 <= study.order <= 2.3
    errors = [row[1] for row in study.rows]
    assert 3.2 <= errors[0] / errors[1] <= 5.0
    assert 3.2 <= errors[1] / errors[2] <= 5.0


def test_chiral_constant_extension_exact():
    system = liouville_system()
    spec = tk.GridSpec(0.0, 2.0, 1 / 16, 1 / 16, 17, 17)
    left1 = (1.5 + 0.3 * np.sin(spec.z_minus)).reshape(-1, 1, 1).astype(complex)
    left2 = (2.0 + 0.2 * np.cos(spec.z_minus)).reshape(-1, 1, 1).astype(complex)
    bottom1 = np.repeat(left1[:1], 17, axis=0)
    bottom2 = np.repeat(left2[:1], 17, axis=0)
    c = tk.make_c_blocks(system, [np.array([[0.0]])], [np.array([[0.0]])])
    result = march(system, c, CharacteristicData(spec, (left1, left2), (bottom1, bottom2)))
    for a, line in enumerate((left1, left2)):
        extension = np.broadcast_to(line[:, None], (17, 17, 1, 1))
        assert np.max(np.abs(result.field.betas[a] - extension)) <= 1e-12


def test_symplectic_scalar_liouville():
    system = build_case("C", 1, (1, 1))
    spec = _liouville_spec(33)
    c = tk.make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    left = (spec.z_plus[0] - spec.z_minus).reshape(-1, 1, 1).astype(complex)
    bottom = (spec.z_plus - spec.z_minus[0]).reshape(-1, 1, 1).astype(complex)
    result = march(system, c, CharacteristicData(spec, (left,), (bottom,)))
    exact = spec.z_plus[None, :] - spec.z_minus[:, None]
    err = np.max(np.abs(result.field.betas[0][:, :, 0, 0] - exact))
    assert err <= 2e-4


@pytest.mark.parametrize(
    "constraint_class", ["BD-oddp", "BD-evenp", "C-oddp", "C-evenp"]
)
def test_march_preserves_constraints(constraint_class, rng):
    series, rank, sizes = SYSTEM_CASES[constraint_class][0]
    system = build_case(series, rank, sizes)
    spec = tk.GridSpec(0.0, 0.0, 1 / 16, 1 / 16, 17, 17)
    closure = smooth_closure(system, rng, scale=0.3)
    data = boundary_from_closure(system, spec, closure)
    c = random_couplings(system, rng, scale=0.4)
    result = march(system, c, data)
    if system.blocks.count % 2 == 1:
        central = result.field.betas[-1].reshape(-1, *result.field.betas[-1].shape[-2:])
        assert central_defect(system, central) <= 1e-9
    assert np.isfinite(result.residual.max_norm)


@pytest.mark.parametrize("case", ALL_CASES, ids=str)
def test_boundary_from_closure_is_the_field_edge(case, rng):
    system = build_case(*case)
    spec = tk.GridSpec(0.1, 0.2, 1 / 8, 1 / 16, 9, 17)
    closure = smooth_closure(system, rng)
    data = boundary_from_closure(system, spec, closure)
    field = tk.field_from_closure(system, spec, closure)
    for a, beta in enumerate(field.betas):
        assert np.array_equal(data.left[a], beta[:, 0])
        assert np.array_equal(data.bottom[a], beta[0, :])


def test_determinant_tracking():
    spec = _liouville_spec(33)
    lv = liouville_field(spec)
    result = march(lv.system, lv.c, liouville_boundary(spec))
    gamma = tk.assemble_gamma(lv.system, result.field.betas)
    dets = np.linalg.det(gamma)
    assert np.max(np.abs(dets - 1.0)) <= 1e-8


def test_non_finite_boundary_is_invalid_input():
    # non-finite data is invalid input (exit 2), not a blow-up in march (exit 4)
    spec = _liouville_spec(9)
    data = liouville_boundary(spec)
    left = [line.copy() for line in data.left]
    left[0][3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        CharacteristicData(spec, tuple(left), data.bottom)


def _march_over_pole(offset, ratio, n, location):
    # beta_1 = offset - z+ - z- vanishes on the line z- + z+ = offset, inside the
    # grid; the corrector leaves the data's range at the last row of the column
    # the pole line first crosses
    system = liouville_system()
    c = tk.make_c_blocks(system, [np.array([[1.0]])], [np.array([[1.0]])])
    spec = tk.GridSpec(0.0, 0.0, 1 / (n - 1), ratio / (n - 1), n, n)

    def anti(zm, zp):
        return (offset - zp) - zm

    left1 = np.array([[[anti(zm, 0.0)]] for zm in spec.z_minus], dtype=complex)
    bottom1 = np.array([[[anti(0.0, zp)]] for zp in spec.z_plus], dtype=complex)
    data = CharacteristicData(spec, (left1, 1 / left1), (bottom1, 1 / bottom1))
    with pytest.raises(BlowUpError) as info:
        march(system, c, data)
    assert info.value.location == location
    assert str(info.value).startswith(f"block 1 left the invertible range at row {location[0]} (")


def test_blowup_detection_over_pole():
    _march_over_pole(1.5, 0.9, 17, (16, 9))


@pytest.mark.parametrize("offset, ratio, n, location", [
    pytest.param(1.2, 0.9, 33, (32, 7), id="1.2-0.9-n33"),
    pytest.param(1.65, 0.95, 33, (32, 22), id="1.65-0.95-n33"),
    pytest.param(1.8, 0.8, 65, (64, 64), id="1.8-0.8-n65"),
])
def test_blowup_location_over_pole_line(offset, ratio, n, location):
    _march_over_pole(offset, ratio, n, location)


def _poisoned_projection(monkeypatch, column, later_failure):
    """Make the central block's projected sample at row 5 of ``column`` zero; with
    ``later_failure``, the first Cayley transfer after it is singular."""
    projected = []

    def project(form, g):
        projected.append(g)
        g = _project_central(form, g)
        if len(projected) == column:
            g[4] = 0.0
        return g

    def cayley(half):
        if later_failure and len(projected) >= column:
            raise SingularMatrixError("singular sample", (2,))
        return _cayley(half)

    monkeypatch.setattr(solver, "_project_central", project)
    monkeypatch.setattr(solver, "_cayley", cayley)


def test_degenerate_column_before_a_failure_is_reported(rng, monkeypatch):
    # column 3 is accepted with a zero sample, then column 4 fails: the report is
    # the one a check after column 3 gives, chained from the later failure
    system = build_case(*SYSTEM_CASES["BD-oddp"][1])
    spec = tk.GridSpec(0.0, 0.0, 1 / 8, 1 / 8, 9, 9)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    c = random_couplings(system, rng, scale=0.4)
    _poisoned_projection(monkeypatch, 3, later_failure=True)
    with pytest.raises(BlowUpError) as info:
        march(system, c, data)
    assert info.value.location == (5, 3)
    assert str(info.value).startswith("block 2 degenerated at row 5, column 3 (condition bound inf")
    assert isinstance(info.value.__cause__, BlowUpError)
    assert info.value.__cause__.location == (2, 4)
    assert str(info.value.__cause__) == "singular implicit step"


def test_degenerate_last_column_is_reported(rng, monkeypatch):
    # a march that otherwise finishes still reports its degenerate sample
    system = build_case(*SYSTEM_CASES["BD-oddp"][1])
    spec = tk.GridSpec(0.0, 0.0, 1 / 8, 1 / 8, 9, 9)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    c = random_couplings(system, rng, scale=0.4)
    _poisoned_projection(monkeypatch, 8, later_failure=False)
    with pytest.raises(BlowUpError) as info:
        march(system, c, data)
    assert info.value.location == (5, 8)
    assert str(info.value).startswith("block 2 degenerated at row 5, column 8 (condition bound inf")
    assert info.value.__cause__ is None


def test_singular_half_point_is_a_blow_up_at_its_sample():
    system, c, data = singular_station_case()
    with pytest.raises(BlowUpError) as info:
        march(system, c, data)
    assert info.value.location == (0, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_singular_cayley_transfer_names_its_sample(k):
    for rows in (5, _SMALL_STACK):  # short and long stacks take different inverses
        half = np.zeros((rows, k, k), dtype=complex)
        half[3] = np.eye(k)  # I - H = 0 at row 3
        with pytest.raises(SingularMatrixError) as info:
            _cayley(half)
        assert info.value.index == (3,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cayley_transfer_is_the_implicit_midpoint_step(k, rng):
    half = 0.2 * random_complex(rng, (4, 6, k, k))
    eye = np.eye(k)
    want = np.linalg.solve(eye - half, eye + half)
    assert np.max(np.abs(_cayley(half) - want)) <= 1e-14 * np.max(np.abs(want))


def test_non_convergence_on_coarse_stiff_grid():
    system = liouville_system()
    c = tk.make_c_blocks(system, [np.array([[100.0]])], [np.array([[100.0]])])
    spec = tk.GridSpec(0.0, 2.0, 0.5, 0.5, 5, 5)
    ones = np.ones((5, 1, 1), dtype=complex)
    data = CharacteristicData(spec, (ones, ones.copy()), (ones.copy(), ones.copy()))
    with pytest.raises(ConvergenceError):
        march(system, c, data)


def test_singular_boundary_rejected():
    system = liouville_system()
    c = tk.make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    line = np.ones((5, 1, 1), dtype=complex)
    singular = line.copy()
    singular[2] = 0.0
    with pytest.raises(ValueError):
        march(system, c, CharacteristicData(spec, (singular, line.copy()),
                                            (line.copy(), line.copy())))


def test_corner_consistency_enforced():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    left = np.ones((5, 1, 1), dtype=complex)
    bottom = np.ones((5, 1, 1), dtype=complex)
    bottom[0] = 2.0
    with pytest.raises(ValueError):
        CharacteristicData(spec, (left, left.copy()), (bottom, bottom.copy()))


def test_bad_line_shapes_rejected():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    with pytest.raises(ShapeError):
        CharacteristicData(
            spec,
            (np.ones((4, 1, 1), dtype=complex),),
            (np.ones((5, 1, 1), dtype=complex),),
        )


def test_left_and_bottom_lines_must_pair_up():
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    line = np.ones((5, 1, 1), dtype=complex)
    with pytest.raises(ShapeError):
        CharacteristicData(spec, (line, line.copy()), (line.copy(),))
    with pytest.raises(ShapeError):  # a 1 x 1 corner would broadcast against a 2 x 2 one
        CharacteristicData(spec, (np.ones((5, 2, 2), dtype=complex),), (line,))


@pytest.mark.parametrize("lines", [1, 3])
def test_march_rejects_wrong_boundary_line_count(lines):
    spec = _liouville_spec(17)
    lv = liouville_field(spec)
    data = liouville_boundary(spec)
    left = (data.left * 2)[:lines]
    bottom = (data.bottom * 2)[:lines]
    with pytest.raises(ShapeError):
        march(lv.system, lv.c, CharacteristicData(spec, left, bottom))


def test_march_rejects_boundary_blocks_of_wrong_size():
    spec = _liouville_spec(17)
    lv = liouville_field(spec)
    line = np.broadcast_to(np.eye(2, dtype=complex), (17, 2, 2))
    with pytest.raises(ShapeError):
        march(lv.system, lv.c, CharacteristicData(spec, (line, line), (line, line)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 65, 257])
def test_prefix_products_match_sequential_loop(k, n):
    rng = np.random.default_rng(100 * k + n)
    # near-identity factors, like the implicit midpoint transfers of a column
    factors = np.eye(k) + 0.05 * (rng.standard_normal((n, k, k))
                                  + 1j * rng.standard_normal((n, k, k)))
    before = factors.copy()
    expected = np.empty_like(factors)
    acc = np.eye(k, dtype=complex)
    for i in range(n):
        acc = acc @ factors[i]
        expected[i] = acc
    got = _prefix_products(factors)
    assert np.array_equal(factors, before)
    assert got.shape == factors.shape
    scale = np.max(np.abs(expected), axis=(-1, -2))
    assert np.max(np.max(np.abs(got - expected), axis=(-1, -2)) / scale) <= 1e-13
    # a leading block axis scans every block on its own (k = 1 by cumprod)
    stacked = np.stack([factors, factors.conj(), np.swapaxes(factors, -1, -2)])
    got = _prefix_products(stacked)
    assert got.shape == stacked.shape
    for block, line in zip(got, stacked):
        want = _prefix_products(line)
        assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(want))
    if k == 1:
        assert np.array_equal(got, np.cumprod(stacked, axis=-3))


def test_liouville_domain_guard():
    with pytest.raises(tk.DomainError):
        liouville_field(tk.GridSpec(0.0, 0.5, 0.25, 0.25, 5, 5))


def test_gauge_transformed_liouville_still_solves():
    spec = _liouville_spec(17)
    lv = liouville_field(spec)
    lam = np.array([[3.0]])
    field_g, c_g = tk.gauge_transform(lv.system, lv.field, lv.c, [lam, lam], [lam, lam])
    base = tk.residual_full(lv.system, lv.field, lv.c).max_norm
    after = tk.residual_full(lv.system, field_g, c_g).max_norm
    assert after <= base * (1 + 1e-10) + 1e-12


def test_convergence_study_guards():
    system = liouville_system()

    def make_case(spec):
        lv = liouville_field(spec)
        return liouville_boundary(spec), lv.c

    with pytest.raises(ValueError):
        convergence_study(system, make_case, [_liouville_spec(17)] * 2)
    with pytest.raises(ValueError):
        convergence_study(system, make_case, [_liouville_spec(17)] * 3)
    # sample counts that double, on grids that do not nest
    unrelated = [tk.GridSpec(0.01 * i, 2.0 + 0.03 * i, 0.1 / 1.7 ** i, 0.1 / 1.3 ** i,
                             4 * 2 ** i + 1, 4 * 2 ** i + 1) for i in range(3)]
    shifted = [_liouville_spec(9), _liouville_spec(17, z0=2.5), _liouville_spec(33, z0=2.5)]
    stretched = [_liouville_spec(9), tk.GridSpec(0.0, 2.0, 1 / 16, 1 / 12, 17, 17), _liouville_spec(33)]
    for specs in (unrelated, shifted, stretched):
        with pytest.raises(ValueError, match="refine"):
            convergence_study(system, make_case, specs)


def test_march_with_chiral_couplings_from_gauge():
    # A z-minus-dependent gauge line turns the constant couplings into a
    # sampled coupling line; the transformed field must still solve, and
    # marching with those couplings must reproduce it at second order.
    spec = tk.GridSpec(0.0, 2.0, 1 / 32, 1 / 32, 33, 33)
    lv = liouville_field(spec)
    base = tk.residual_full(lv.system, lv.field, lv.c).max_norm
    line = np.exp(0.4 * np.sin(spec.z_minus))[:, None, None] * np.eye(1)
    xi_m = [line.astype(complex), (1.0 / line).astype(complex)]
    xi_p = [np.eye(1), np.eye(1)]
    field_g, c_g = tk.gauge_transform(lv.system, lv.field, lv.c, xi_m, xi_p)
    assert c_g.minus[0].ndim == 3  # genuinely line-varying
    transformed = tk.residual_full(lv.system, field_g, c_g).max_norm
    assert transformed <= 3 * base
    left = tuple(field_g.betas[a][:, 0] for a in range(2))
    bottom = tuple(field_g.betas[a][0, :] for a in range(2))
    result = march(lv.system, c_g, CharacteristicData(spec, left, bottom))
    err = max(
        float(np.max(np.abs(result.field.betas[a] - field_g.betas[a]))) for a in range(2)
    )
    assert err <= 5e-4


@pytest.mark.parametrize("sign", "-+")
def test_march_rejects_coupling_line_of_wrong_length(sign):
    spec = _liouville_spec(17)
    lv = liouville_field(spec)
    short = np.ones((16, 1, 1))
    c = tk.make_c_blocks(lv.system, [short if sign == "-" else -np.eye(1)],
                         [short if sign == "+" else np.eye(1)])
    with pytest.raises(ShapeError):
        march(lv.system, c, liouville_boundary(spec))


def test_march_with_chiral_line_couplings_is_second_order():
    # Gauge lines along both coordinates make C_- and C_+ sampled lines, so
    # the march evaluates both at their half-points.
    residuals, errors = [], []
    for n in (17, 33, 65):
        spec = _liouville_spec(n)
        lv = liouville_field(spec)
        xi_m = np.exp(0.4 * np.sin(spec.z_minus))[:, None, None] * np.eye(1)
        xi_p = np.exp(0.3 * np.cos(spec.z_plus))[:, None, None] * np.eye(1)
        field_g, c_g = tk.gauge_transform(lv.system, lv.field, lv.c, [xi_m, 1 / xi_m],
                                          [xi_p, 1 / xi_p])
        assert c_g.minus[0].ndim == 3 and c_g.plus[0].ndim == 3
        data = CharacteristicData(spec, tuple(b[:, 0] for b in field_g.betas),
                                  tuple(b[0, :] for b in field_g.betas))
        result = march(lv.system, c_g, data)
        residuals.append(result.residual.max_norm)
        errors.append(max(float(np.max(np.abs(result.field.betas[a] - field_g.betas[a])))
                          for a in range(2)))
    assert 3.2 <= residuals[1] / residuals[2] <= 5.0
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 5.0


def test_convergence_study_self_reference():
    system = liouville_system()

    def make_case(spec):
        lv = liouville_field(spec)
        return liouville_boundary(spec), lv.c

    specs = [_liouville_spec(n) for n in (9, 17, 33)]
    study = convergence_study(system, make_case, specs)
    assert 1.6 <= study.order <= 2.4


@pytest.mark.parametrize("case", [("A", 3, (2, 1, 1)), ("B", 3, (2, 3, 2)), ("C", 3, (1, 1, 2, 1, 1)),
                                  ("D", 4, (1, 3, 3, 1)), ("C", 2, (2, 2))],
                         ids=lambda case: f"{case[0]}{case[1]}-{case[2]}")
def test_constrained_march_order_two(case, rng):
    # one system per constraint class; each grid is measured against the next
    # finer one, which reads 2.0 for a second-order scheme (see the three-grid
    # test below)
    system = build_case(*case)
    closure = smooth_closure(system, rng)
    c = random_couplings(system, rng)

    def make_case(spec):
        return boundary_from_closure(system, spec, closure), c

    specs = [tk.GridSpec(0.0, 0.0, 1 / (n - 1), 1 / (n - 1), n, n) for n in (9, 17, 33, 65)]
    study = convergence_study(system, make_case, specs)
    assert 1.7 <= study.order <= 2.3


def test_convergence_study_three_grids_unbiased():
    # the window excludes log2(5) = 2.32, what a finest-grid reference reads here
    rng = np.random.default_rng(5)
    system = build_case(*SYSTEM_CASES["C-oddp"][1])
    closure = smooth_closure(system, rng)
    c = random_couplings(system, rng)

    def make_case(spec):
        return boundary_from_closure(system, spec, closure), c

    specs = [tk.GridSpec(0.0, 0.0, 1 / (n - 1), 1 / (n - 1), n, n) for n in (17, 33, 65)]
    study = convergence_study(system, make_case, specs)
    assert 1.8 <= study.order <= 2.2


def _healthy_grids(sizes, n=9, columns=11):
    """One grid per block, near-identity samples."""
    rng = np.random.default_rng(7)
    return [np.eye(k) + 0.1 * rng.standard_normal((n, columns, k, k)) for k in sizes]


# per defect: the block and row reported, and the message
_HEALTH_REPORTS = {
    "singular": (2, 6, "block 3 degenerated at row 6, column 9 (condition bound inf, magnitude 4.000e+00)"),
    "ill-conditioned": (2, 6, "block 3 degenerated at row 6, column 9 "
                              "(condition bound 1.000e+13, magnitude 1.000e+00)"),
    "far-scaled": (2, 6, "block 3 degenerated at row 6, column 9 (condition bound 1.000e+20, magnitude 1.000e-180)"),
    "non-finite": (2, 6, "non-finite sample in block 3"),
    "scalar zero": (1, 4, "block 2 degenerated at row 4, column 9 (condition bound inf, magnitude 0.000e+00)"),
    "tiny but healthy": (2, 8, "block 3 degenerated at row 8, column 9 "
                               "(condition bound inf, magnitude 0.000e+00)"),
}


@pytest.mark.parametrize("defect", list(_HEALTH_REPORTS))
def test_health_check_flags_the_degenerate_sample(defect):
    # blocks of sizes 2, 1, 2, scanned in column order, then block order, then row order
    grids = _healthy_grids((2, 1, 2))
    assert _health_fault(grids, 9) is None
    block, row, message = _HEALTH_REPORTS[defect]
    sample = grids[block][row if defect != "tiny but healthy" else 6, 9]
    if defect == "singular":
        sample[:] = [[1.0, 2.0], [2.0, 4.0]]
    elif defect == "ill-conditioned":
        sample[:] = np.diag([1.0, 1e-13])  # cond_2 = 1e13
    elif defect == "far-scaled":
        sample[:] = np.diag([1e-200, 1e-180])  # cond_2 = 1e20; its unscaled norms under- and overflow
    elif defect == "non-finite":
        sample[1, 0] = np.nan
    elif defect == "scalar zero":
        sample[:] = 0.0
    else:
        sample[:] = 1e-200 * np.eye(2)  # cond_2 = 1: passes, so the later sample is flagged
    grids[2][8, 9] = 0.0  # a later sample, in block order, that is singular too
    grids[0][:, 0] = grids[0][:, 10] = np.nan  # the boundary column and those after `last` are not checked
    fault = _health_fault(grids, 9)
    assert (fault.location, str(fault)) == ((row, 9), message)
    grids[1][8, 5] = np.inf  # an earlier column wins over any block and row
    fault = _health_fault(grids, 9)
    assert (fault.location, str(fault)) == ((8, 5), "non-finite sample in block 2")


def _cond_reference(samples):
    """||beta||_F ||beta^{-1}||_F of each scaled sample, through its inverse."""
    scaled = samples / np.abs(samples).max(axis=(-2, -1), keepdims=True)
    return np.array([np.linalg.norm(s) * np.linalg.norm(np.linalg.inv(s)) for s in scaled])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_condition_bound_goes_through_the_inverse_at_every_block_size(k, rng):
    # well-conditioned samples, and for k = 2 near-singular ones of determinant
    # delta = 1e-1..1e-11 (dyadic entries: their determinant and LU factors are
    # exact, so the inverse-based bound is accurate too), at scales 2^-600..2^600
    samples = np.eye(k) + 0.3 * random_complex(rng, (40, k, k))
    if k == 2:
        x, y = (rng.integers(-512, 512, 40) / 1024 for _ in range(2))
        delta = 10.0 ** -rng.uniform(1, 11, 40)
        near = np.stack([np.stack([np.ones(40), x], -1), np.stack([y, x * y + delta], -1)], -2)
        samples = np.concatenate([samples, near.astype(complex)])
    samples *= 2.0 ** rng.integers(-600, 600, len(samples))[:, None, None]
    got = solver._cond_bound(samples, np.abs(samples).max(axis=(-2, -1)))
    want = _cond_reference(samples)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    if k == 1:
        assert np.max(np.abs(got - 1.0)) <= 4 * np.finfo(float).eps  # 1 to rounding
    # an exactly singular sample reads inf, and so does every later sample in
    # row-major order of the leading axes; a zero one too
    samples[7] = 0.0 if k == 1 else np.diag([1.0] * (k - 1) + [0.0])
    samples[11] = 0.0
    for shape in ((len(samples),), (len(samples) // 4, 4)):  # flat, and (column, row) as the health check has it
        stack = samples.reshape(shape + (k, k))
        got = solver._cond_bound(stack, np.abs(stack).max(axis=(-2, -1))).reshape(-1)
        assert np.flatnonzero(np.isinf(got)).tolist() == list(range(7, len(samples)))
        assert np.max(np.abs(got[:7] - want[:7]) / want[:7]) <= 1e-12


def test_corrector_sweeps_per_column(rng):
    spec = tk.GridSpec(0.0, 2.0, 1 / 32, 1 / 32, 33, 33)
    lv = liouville_field(spec)
    result = march(lv.system, lv.c, liouville_boundary(spec))
    assert result.corrector_iterations == (5, 4, 4) + (3,) * 17 + (2,) * 12
    system = build_case(*SYSTEM_CASES["C-oddp"][1])
    spec = tk.GridSpec(0.0, 0.0, 1 / 32, 1 / 32, 33, 33)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    result = march(system, random_couplings(system, rng, scale=0.4), data)
    assert result.corrector_iterations == (4, 4, 3, 3) + (2,) * 28


def test_slow_contraction_keeps_sweeping():
    # close to the pole z+ = z- on a coarse grid the corrector contracts slowly,
    # so the contraction estimate must not stop it after the minimum two sweeps
    spec = tk.GridSpec(0.0, 1.25, 1 / 8, 1 / 8, 9, 9)
    lv = liouville_field(spec)
    result = march(lv.system, lv.c, liouville_boundary(spec))
    assert max(result.corrector_iterations) > 2
    err = max(
        float(np.max(np.abs(result.field.betas[a] - lv.field.betas[a]))) for a in range(2)
    )
    assert err <= 1.5e-2  # 1.403e-2 when every column sweeps until delta <= tol


def test_one_right_hand_side_per_sweep(rng, monkeypatch):
    # every column starts from the polynomial through the last columns, so the
    # march evaluates its right-hand sides once per corrector sweep
    class CountedPlan(StationPlan):
        calls = 0

        def evaluate(self, *args):
            CountedPlan.calls += 1
            return super().evaluate(*args)

    monkeypatch.setattr(solver, "StationPlan", CountedPlan)
    system = build_case(*SYSTEM_CASES["BD-oddp"][1])
    spec = tk.GridSpec(0.0, 0.0, 1 / 32, 1 / 32, 33, 33)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    result = march(system, random_couplings(system, rng, scale=0.4), data)
    assert len(result.corrector_iterations) == 32
    assert CountedPlan.calls == sum(result.corrector_iterations)


def test_smooth_columns_take_one_sweep(rng):
    # couplings of spectral norm about 0.3, as in the benchmark's inputs: the
    # quartic starting value is within the first-sweep test's reach, so most
    # columns stop after one sweep (at norm about 1.2 they take two)
    system = build_case(*SYSTEM_CASES["BD-oddp"][1])
    spec = tk.GridSpec(0.0, 0.0, 1 / 64, 1 / 64, 65, 65)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    sweeps = march(system, random_couplings(system, rng, scale=0.1), data).corrector_iterations
    assert sum(sweeps) <= 1.25 * len(sweeps)


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("constraint_set", sorted(SYSTEM_CASES))
def test_march_is_at_its_fixed_point(constraint_set, n, rng, monkeypatch):
    # columns accepted after one sweep are as close to the corrector's fixed
    # point as those that sweep until the change is at round-off
    system = build_case(*SYSTEM_CASES[constraint_set][-1])
    spec = tk.GridSpec(0.0, 0.0, 1 / (n - 1), 1 / (n - 1), n, n)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=0.3))
    c = random_couplings(system, rng, scale=0.4)
    field = march(system, c, data).field
    monkeypatch.setattr(solver, "_FP_TOL", 1e-15)
    tight = march(system, c, data).field
    for got, want in zip(field.betas, tight.betas):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("factor, error", [(10.0, BlowUpError), (1.01, ConvergenceError)])
def test_sweep_cap_classifies_the_widest_iterate(factor, error, monkeypatch):
    # the first sweep of column 1 (its two transfers) is scaled by `factor` per
    # row, the second is not, so the corrector neither diverges nor contracts
    # within a cap of two sweeps: the outcome depends on whether the widest
    # iterate left the data's range
    calls = []

    def scaled(half):
        calls.append(half)
        return factor * _cayley(half) if len(calls) in (1, 2) else _cayley(half)

    monkeypatch.setattr(solver, "_cayley", scaled)
    monkeypatch.setattr(solver, "_MAX_CORRECTORS", 2)
    spec = _liouville_spec(9)
    lv = liouville_field(spec)
    with pytest.raises(error) as info:
        march(lv.system, lv.c, liouville_boundary(spec))
    assert len(calls) == 4
    if error is BlowUpError:
        assert info.value.location[1] == 1
    else:
        assert "within 2 sweeps at column 1" in str(info.value)


def test_jump_classifies_the_widest_iterate(monkeypatch):
    # the first three sweeps of column 1 (two transfers each) are scaled by 10,
    # 9.9 and 1 per row: the third jumps back into the data's range, but the
    # first had left it
    factors = (10.0, 10.0, 9.9, 9.9)
    calls = []

    def scaled(half):
        calls.append(half)
        return (factors[len(calls) - 1] if len(calls) <= 4 else 1.0) * _cayley(half)

    monkeypatch.setattr(solver, "_cayley", scaled)
    monkeypatch.setattr(solver, "_MAX_CORRECTORS", 3)
    spec = _liouville_spec(9)
    lv = liouville_field(spec)
    with pytest.raises(BlowUpError) as info:
        march(lv.system, lv.c, liouville_boundary(spec))
    assert len(calls) == 6
    assert info.value.location == (8, 1)


@pytest.mark.parametrize("block", [0, 1])
def test_non_finite_iterate_is_a_blow_up_at_its_row(block, monkeypatch):
    # a NaN transfer at row 3 in the second sweep of column 1 makes rows 4 on
    # of that block's iterate non-finite; in either block it fails that sweep
    calls = []

    def poisoned(half):
        calls.append(half)
        transfer = _cayley(half)
        if len(calls) == 3 + block:
            transfer[3] = np.nan
        return transfer

    monkeypatch.setattr(solver, "_cayley", poisoned)
    spec = _liouville_spec(9)
    lv = liouville_field(spec)
    with pytest.raises(BlowUpError, match="lost finiteness") as info:
        march(lv.system, lv.c, liouville_boundary(spec))
    assert info.value.location == (4, 1)
    assert f"block {block + 1}" in str(info.value)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cayley_inverts_the_staggered_log_derivative(k, rng):
    h = 0.125
    eye = np.eye(k)
    beta = eye + 0.3 * random_complex(rng, (9, k, k))
    want = np.linalg.solve(beta[:-1], beta[1:])
    got = _cayley((0.5 * h) * _staggered_log_derivative(beta, h))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
