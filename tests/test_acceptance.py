"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time
from fractions import Fraction

import numpy as np

import todakit as tk
from todakit.cartan import cartan_inverse_closed_form, cartan_matrix
from todakit.exact import rational_matrix, rmat_equal
from todakit.grading import (
    DynkinLabels,
    exact_span_contains,
    graded_decomposition,
    labels_to_block_structure,
    operator_from_labels,
    operator_matrix_from_labels,
)
from todakit.liealg import (
    SeriesTag,
    algebra_membership,
    commutator,
    dr_automorphism,
    dr_conjugate,
    group_membership,
)
from todakit.solver import liouville_boundary, liouville_closure, liouville_field, march
from todakit.toda import assemble_gamma

from conftest import (
    SYSTEM_CASES,
    boundary_from_closure,
    build_case,
    random_couplings,
    smooth_closure,
)

MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}


def _report(number: int, text: str, started: float):
    print(f"ACCEPTANCE {number}: PASS - {text} ({time.perf_counter() - started:.2f} s)")


def _sweep_cases(max_rank: int, per_series: int, seed: int = 42):
    """Single-label cases for every valid (series, rank, d), plus random labels."""
    rng = np.random.default_rng(seed)
    cases = []
    for series in "ABCD":
        for rank in range(MIN_RANK[series], max_rank + 1):
            for d in range(1, rank + 1):
                labels = tuple(1 if i == d - 1 else 0 for i in range(rank))
                cases.append(DynkinLabels(SeriesTag(series, rank), labels))
        for _ in range(per_series):
            rank = int(rng.integers(MIN_RANK[series], max_rank + 1))
            while True:
                labels = tuple(int(q) for q in rng.integers(0, 3, size=rank))
                if any(labels):
                    break
            cases.append(DynkinLabels(SeriesTag(series, rank), labels))
    return cases


def test_criterion_1_cartan_exactness():
    started = time.perf_counter()
    for series in "ABCD":
        for rank in range(MIN_RANK[series], 13):
            tag = SeriesTag(series, rank)
            km = cartan_matrix(tag)
            assert rmat_equal(km.matrix @ km.inverse, rational_matrix(np.eye(rank, dtype=int)))
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    assert km.inverse[i - 1, j - 1] == cartan_inverse_closed_form(tag, i, j)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, "Cartan matrices exact and closed forms match up to rank 12", started)


def test_criterion_2_display_fidelity_rank_4():
    started = time.perf_counter()
    f = Fraction

    ka = cartan_matrix(SeriesTag("A", 4))
    for (i, j), val in {(1, 1): 2, (1, 2): -1, (2, 3): -1, (4, 3): -1, (1, 4): 0,
                        (4, 4): 2}.items():
        assert ka.matrix[i - 1, j - 1] == val
    for (i, j), val in {(1, 1): f(4, 5), (1, 4): f(1, 5), (2, 2): f(6, 5),
                        (2, 3): f(4, 5), (3, 2): f(4, 5), (4, 4): f(4, 5)}.items():
        assert ka.inverse[i - 1, j - 1] == val

    kb = cartan_matrix(SeriesTag("B", 4))
    for (i, j), val in {(3, 4): -2, (4, 3): -1, (1, 2): -1, (2, 2): 2, (1, 4): 0,
                        (4, 4): 2}.items():
        assert kb.matrix[i - 1, j - 1] == val
    for (i, j), val in {(1, 1): 1, (1, 4): 1, (2, 3): 2, (3, 3): 3, (4, 1): f(1, 2),
                        (4, 4): 2}.items():
        assert kb.inverse[i - 1, j - 1] == val

    kd = cartan_matrix(SeriesTag("D", 4))
    for (i, j), val in {(2, 3): -1, (2, 4): -1, (3, 4): 0, (4, 3): 0, (1, 2): -1,
                        (3, 3): 2}.items():
        assert kd.matrix[i - 1, j - 1] == val
    for (i, j), val in {(1, 1): 1, (1, 3): f(1, 2), (2, 4): 1, (3, 3): 1,
                        (3, 4): f(1, 2), (4, 4): 1}.items():
        assert kd.inverse[i - 1, j - 1] == val

    kc = cartan_matrix(SeriesTag("C", 4))
    for (i, j), val in {(3, 4): -1, (4, 3): -2, (1, 2): -1, (2, 1): -1, (1, 4): 0,
                        (4, 4): 2}.items():
        assert kc.matrix[i - 1, j - 1] == val
    for (i, j), val in {(1, 1): 1, (1, 4): f(1, 2), (2, 4): 1, (4, 1): 1, (3, 3): 3,
                        (4, 4): 2}.items():
        assert kc.inverse[i - 1, j - 1] == val

    _report(2, "rank-4 Cartan matrices and inverses match the reference displays", started)


def test_criterion_3_operator_equality():
    started = time.perf_counter()
    for labels in _sweep_cases(max_rank=8, per_series=25):
        op = operator_from_labels(labels)
        assert op.blocks == labels_to_block_structure(labels)
        # the closed-form levels against the Cartan-inverse definition
        assert op.diagonal == tuple(operator_matrix_from_labels(labels.normalized()).diagonal())
        if labels.tag.series == "D" and labels.labels[-2] != labels.labels[-1]:
            raw = operator_matrix_from_labels(labels)
            swapped = DynkinLabels(
                labels.tag, labels.labels[:-2] + (labels.labels[-1], labels.labels[-2])
            )
            a = dr_automorphism(labels.tag.rank)
            assert rmat_equal(a @ raw @ a, operator_matrix_from_labels(swapped))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, "closed-form block operators equal the Cartan-inverse definition across the sweep", started)


def test_criterion_4_gradation_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for labels in _sweep_cases(max_rank=8, per_series=25):
        tag = labels.tag
        op = operator_from_labels(labels)
        dec = graded_decomposition(op)
        assert dec.total_dimension == tag.algebra_dim
        for m in dec.degrees:
            assert dec.dimension(m) == dec.dimension(-m)
        if tag.series == "A" and all(m == 1 for m in op.blocks.steps):
            sizes = op.blocks.sizes
            p = len(sizes)
            for m in dec.degrees:
                expected = sum(sizes[a] * sizes[b] for a in range(p) for b in range(p)
                               if b - a == m)
                assert dec.dimension(m) == expected
        degrees = dec.degrees
        for _ in range(12):
            m, n = (int(x) for x in rng.choice(degrees, size=2))
            x = dec.subspaces[m][int(rng.integers(len(dec.subspaces[m])))]
            y = dec.subspaces[n][int(rng.integers(len(dec.subspaces[n])))]
            z = commutator(x, y)
            if np.all(z == 0):
                continue
            assert exact_span_contains(dec.subspaces.get(m + n, []), z)
    _report(4, "direct sum, degree symmetry, dimension formula and closure hold", started)


def test_criterion_5_d_series_automorphism():
    started = time.perf_counter()
    for r in range(3, 7):
        tag = SeriesTag("D", r)
        q_r = operator_matrix_from_labels(
            DynkinLabels(tag, tuple(0 for _ in range(r - 1)) + (1,))
        )
        q_rm1 = operator_matrix_from_labels(
            DynkinLabels(tag, tuple(0 for _ in range(r - 2)) + (1, 0))
        )
        a = dr_automorphism(r)
        assert rmat_equal(a @ q_r @ a, q_rm1)
        rng = np.random.default_rng(r)
        from todakit.liealg import algebra_basis

        for elem in algebra_basis(tag)[:: max(1, len(algebra_basis(tag)) // 25)]:
            conj = dr_conjugate(r, elem)
            verdict = algebra_membership(tag, conj, tol=0)
            assert verdict.member and verdict.defect == 0
    _report(5, "outer automorphism swaps the two end gradations and preserves the algebra", started)


def test_criterion_6_block_full_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    spec = tk.GridSpec(0.0, 0.0, 0.11, 0.13, 6, 6)
    for constraint_class, cases in SYSTEM_CASES.items():
        series, rank, sizes = cases[0]
        system = build_case(series, rank, sizes)
        for _ in range(20):
            field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
            c = random_couplings(system, rng)
            rb = tk.block_residuals(system, field, c)
            rf = tk.residual_full(system, field, c)
            for a, grid in enumerate(rb.grids):
                scale = max(np.max(np.abs(rf.grids[a])), 1e-30)
                assert np.max(np.abs(grid - rf.grids[a])) <= 1e-13 * scale
    _report(6, "block equations match the diagonal of the full residual to 1e-13", started)


def test_criterion_7_zero_curvature_consistency():
    started = time.perf_counter()
    resid_norms, curv_norms = [], []
    for n in (17, 33, 65):
        spec = tk.GridSpec(0.0, 4.0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)
        lv = liouville_field(spec)
        resid_norms.append(tk.residual_full(lv.system, lv.field, lv.c).max_norm)
        om, op_ = tk.connection(lv.system, lv.field, lv.c)
        curv_norms.append(tk.curvature_residual(om, op_, spec).max_norm)
    log_h = np.log([1 / 16, 1 / 32, 1 / 64])
    resid_order = float(np.polyfit(log_h, np.log(resid_norms), 1)[0])
    curv_order = float(np.polyfit(log_h, np.log(curv_norms), 1)[0])
    assert 1.8 <= resid_order <= 2.2
    assert 1.8 <= curv_order <= 2.2

    rng = np.random.default_rng(19)
    system = build_case("A", 1, (1, 1))
    spec = tk.GridSpec(0.0, 2.0, 0.08, 0.09, 9, 9)
    for _ in range(20):
        field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
        c = random_couplings(system, rng)
        resid = tk.residual_full(system, field, c)
        om, op_ = tk.connection(system, field, c)
        curv = tk.curvature_residual(om, op_, spec)
        assert curv.max_norm >= resid.max_norm / 3
    _report(7, "curvature and residual share second-order decay and stay comparable", started)


def test_criterion_8_exact_solution_reproduction():
    started = time.perf_counter()
    errors = []
    for n in (17, 33, 65):
        spec = tk.GridSpec(0.0, 2.0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)
        lv = liouville_field(spec)
        result = march(lv.system, lv.c, liouville_boundary(spec))
        err = max(
            float(np.max(np.abs(result.field.betas[a] - lv.field.betas[a])))
            for a in range(2)
        )
        errors.append(err)
    assert errors[-1] <= 5e-4
    order = float(np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errors), 1)[0])
    assert 1.7 <= order <= 2.3
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(8, "marching reproduces the closed-form solution at second order", started)


def test_criterion_9_constraint_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    spec = tk.GridSpec(0.0, 0.0, 1 / 16, 1 / 16, 17, 17)
    for constraint_class in ("BD-oddp", "BD-evenp", "C-oddp", "C-evenp"):
        series, rank, sizes = SYSTEM_CASES[constraint_class][0]
        system = build_case(series, rank, sizes)
        closure = smooth_closure(system, rng, scale=0.3)
        c = random_couplings(system, rng, scale=0.4)
        for sign in "+-":
            verdict = algebra_membership(system.tag, tk.assemble_c(system, c, sign))
            assert verdict.member and verdict.defect <= 1e-12
        result = march(system, c, boundary_from_closure(system, spec, closure))
        gamma = assemble_gamma(system, result.field.betas)
        flat = gamma.reshape(-1, *gamma.shape[-2:])
        worst = max(
            group_membership(system.tag, g, tol=np.inf).defect for g in flat
        )
        assert worst <= 1e-9
    _report(9, "marched fields stay on the constraint manifold; couplings stay in the algebra", started)


def test_criterion_10_symmetry_suite():
    started = time.perf_counter()
    spec = tk.GridSpec(0.0, 2.0, 1 / 16, 1 / 16, 17, 17)
    lv = liouville_field(spec)
    base = tk.residual_full(lv.system, lv.field, lv.c).max_norm

    lam = np.array([[1.8]])
    mu = np.array([[0.7]])
    field_g, c_g = tk.gauge_transform(lv.system, lv.field, lv.c, [lam, lam], [mu, mu])
    assert tk.residual_full(lv.system, field_g, c_g).max_norm <= 5 * base

    shift = (lambda z: z + 0.1, lambda z: 1.0)
    moved = tk.conformal_transform(lv.system, liouville_closure(), shift, shift, spec=spec)
    assert tk.residual_full(lv.system, moved, lv.c).max_norm <= 5 * base

    rng = np.random.default_rng(29)
    small = tk.GridSpec(0.0, 0.0, 0.12, 0.1, 6, 6)
    for constraint_class in ("BD-oddp", "BD-evenp"):
        for case in SYSTEM_CASES[constraint_class]:
            system = build_case(*case)
            for _ in range(4):
                field = tk.field_from_closure(
                    system, small, smooth_closure(system, rng, affine=True)
                )
                c = random_couplings(system, rng)
                full = tk.residual_full(system, field, c).full_grid
                twisted = np.swapaxes(full[..., ::-1, ::-1], -1, -2)
                assert np.max(np.abs(twisted + full)) <= 1e-10
    _report(10, "gauge, conformal and reduction symmetries hold at their tolerances", started)
