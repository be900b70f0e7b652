import warnings
from functools import reduce

import numpy as np
import pytest

import todakit as tk
from todakit import equations
from todakit.equations import StationPlan, evaluate_rhs, independent_equations
from todakit.exact import SingularMatrixError
from todakit.liealg import _SMALL_STACK, antidiag_unit, batched_inverse, symplectic_form, t_transpose
from todakit.toda import ConstraintError, emit_equations

from conftest import (
    ALL_CASES, build_case, line_couplings, random_complex, random_couplings, smooth_closure, unit_step_cases,
)


def test_two_block_chain_equations():
    system = build_case("A", 2, (1, 2))
    text = emit_equations(system, "text")
    lines = [line for line in text.splitlines() if line]
    assert lines[0] == "d_+(beta_1^{-1} d_- beta_1) = -beta_1^{-1} C_{+1} beta_2 C_{-1}"
    assert lines[1] == "d_+(beta_2^{-1} d_- beta_2) = C_{-1} beta_1^{-1} C_{+1} beta_2"


def test_middle_equation_has_both_terms():
    system = build_case("A", 3, (2, 1, 1))
    eqs = independent_equations(system)
    assert len(eqs) == 3
    assert len(eqs[1].terms) == 2
    assert eqs[1].terms[0].sign == -1 and eqs[1].terms[1].sign == 1


def test_d_even_folded_equation():
    system = build_case("D", 4, (2, 2, 2, 2))
    text = emit_equations(system, "text")
    assert "beta_2^{-1T}" in text
    assert "C_{+2}^T = -C_{+2} and C_{-2}^T = -C_{-2}" in text
    eqs = independent_equations(system)
    assert eqs[-1].block == 2
    folded = eqs[-1].terms[0].factors
    assert folded[2].twist == "T" and folded[2].inverse


def test_c_odd_twisted_equation():
    system = build_case("C", 2, (1, 2, 1))
    text = emit_equations(system, "text")
    assert "Jtilde_1" in text
    assert "beta_1^{-1t}" in text
    eqs = independent_equations(system)
    central = eqs[-1]
    assert central.terms[0].sign == 1  # the twisted term enters with a plus
    kinds = [f.base for f in central.terms[0].factors]
    assert kinds.count("form") == 2


def test_b_odd_central_transposes():
    system = build_case("B", 2, (1, 3, 1))
    text = emit_equations(system, "text")
    assert "-beta_2^{T} C_{+1}^{T} beta_1^{-1T} C_{-1}^{T}" in text
    assert "beta_2^T = beta_2^{-1}" in text


def test_latex_format():
    system = build_case("A", 1, (1, 1))
    text = emit_equations(system, "latex")
    assert r"\partial_+\left(\beta_{1}^{-1} \partial_- \beta_{1}\right)" in text
    assert r"\beta_{2}" in text


def test_structured_format_is_machine_readable():
    system = build_case("C", 2, (1, 2, 1))
    doc = emit_equations(system, "structured")
    assert doc["series"] == "C" and doc["constraint_set"] == "C-oddp"
    assert [eq["block"] for eq in doc["equations"]] == [1, 2]
    term = doc["equations"][0]["terms"][0]
    assert term["sign"] == -1
    assert term["factors"][0] == {
        "base": "beta", "index": 1, "sign": "", "inverse": True, "twist": None,
    }
    import json

    json.dumps(doc)  # must be serializable as-is


def test_unknown_format_rejected():
    system = build_case("A", 1, (1, 1))
    with pytest.raises(ValueError):
        emit_equations(system, "html")


def test_p2_single_equation_even_series():
    system = build_case("C", 1, (1, 1))
    eqs = independent_equations(system)
    assert len(eqs) == 1
    assert len(eqs[0].terms) == 1  # no left neighbour term for s = 1
    text = emit_equations(system, "text")
    assert "C_{+1}^T = C_{+1}" in text


@pytest.mark.parametrize("series, rank, sizes, pair_line", [
    ("C", 1, (1, 1), None),
    ("C", 2, (2, 2), None),
    ("C", 3, (1, 2, 2, 1),
     "C_{+a}^T = -C_{+(4-a)} and C_{-a}^T = -C_{-(4-a)} for a = 1..1"),
], ids=["C1-p2", "C2-p2", "C3-p4"])
def test_c_even_mirror_pairs_exclude_the_centre(series, rank, sizes, pair_line, rng):
    # the centre is symmetric, C_s^T = C_s; a mirror range through s would add
    # C_s^T = -C_s and with it force C_s = 0
    system = build_case(series, rank, sizes)
    p, s = len(sizes), len(sizes) // 2
    lines = equations.constraint_descriptions(system)
    pairs = [line for line in lines if "-a)}" in line]
    assert pairs == ([pair_line] if pair_line else [])
    assert f"C_{{+{s}}}^T = C_{{+{s}}} and C_{{-{s}}}^T = C_{{-{s}}}" in lines

    c = random_couplings(system, rng)  # completed from the independent couplings
    for entries in (c.minus, c.plus):
        for a in range(1, s):
            assert np.array_equal(entries[p - a - 1], -t_transpose(entries[a - 1]))
    raw = random_complex(rng, (sizes[s], sizes[s]))
    antisymmetric = raw - t_transpose(raw)  # 0 for a 1 x 1 centre, which is its own T
    for sign in "-+":
        minus, plus = list(c.minus[:s]), list(c.plus[:s])
        (minus if sign == "-" else plus)[s - 1] = antisymmetric
        if sizes[s] == 1:
            tk.make_c_blocks(system, minus, plus)
        else:
            with pytest.raises(ConstraintError):
                tk.make_c_blocks(system, minus, plus)


def _reference_rhs(eq, get_beta, get_c):
    """The equation's right-hand side factor by factor: one np.linalg.inv per
    inverted factor, twists spelled out, products by reduce(np.matmul)."""
    total = 0
    for term in eq.terms:
        mats = []
        for f in term.factors:
            if f.base == "form":
                mats.append(symplectic_form(f.index).astype(complex))
                continue
            value = get_beta(f.index) if f.base == "beta" else get_c(f.sign, f.index)
            if f.inverse:
                value = np.linalg.inv(value)
            if f.twist is not None:
                value = np.swapaxes(value, -1, -2)
            if f.twist == "T":
                value = antidiag_unit(value.shape[-2]) @ value @ antidiag_unit(value.shape[-1])
            mats.append(value)
        total = total + term.sign * reduce(np.matmul, mats)
    return total


@pytest.mark.parametrize("lines", [False, True], ids=["constant", "line"])
@pytest.mark.parametrize("case", ALL_CASES, ids=str)
def test_station_plan_matches_reference_evaluator(case, lines, rng):
    system = build_case(*case)
    spec = tk.GridSpec(0.1, 0.2, 1 / 8, 1 / 8, 6, 7)
    field = tk.field_from_closure(system, spec, smooth_closure(system, rng))
    c = random_couplings(system, rng)
    if lines:
        c = line_couplings(system, c, spec)

    def get_beta(a):
        return field.betas[a - 1]

    def get_c(sign, a):
        entry = (c.minus if sign == "-" else c.plus)[a - 1]
        if entry.ndim == 2:
            return entry
        return entry[:, None] if sign == "-" else entry[None, :]

    eqs = independent_equations(system)
    plan = StationPlan(eqs)
    got_all = plan.evaluate(field.betas, [np.linalg.inv(beta) for beta in field.betas],
                            *([get_c(sign, a + 1) for a in range(len(c.minus))] for sign in "-+"))
    for eq, got in zip(eqs, got_all):
        want = _reference_rhs(eq, get_beta, get_c)
        scale = np.max(np.abs(want))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        single = evaluate_rhs(eq, get_beta, get_c)
        assert np.max(np.abs(single - want)) <= 1e-13 * scale


@pytest.mark.parametrize("case", ALL_CASES, ids=str)
def test_station_plan_inverts_each_distinct_field_once(case, rng):
    system = build_case(*case)
    eqs = independent_equations(system)
    inverted = {f.index for eq in eqs for t in eq.terms for f in t.factors if f.inverse}
    betas = [np.eye(k) + 0.1 * rng.standard_normal((5, k, k)) for k in system.blocks.sizes]
    c = random_couplings(system, rng)
    plan = StationPlan(eqs)
    assert sorted(plan.inverted) == sorted(inverted)
    # a dict of exactly the inverses the plan names: asking for any other fails
    plan.evaluate(betas, {a - 1: np.linalg.inv(betas[a - 1]) for a in plan.inverted}, c.minus, c.plus)


def test_station_plan_lists_its_inverted_blocks_in_first_use_order():
    for case in unit_step_cases(4):
        eqs = independent_equations(build_case(*case))
        order = []
        for f in (f for eq in eqs for term in eq.terms for f in term.factors):
            if f.inverse and f.index not in order:
                order.append(f.index)
        assert StationPlan(eqs).inverted == tuple(order), case


@pytest.mark.parametrize("case, shared, multiplied_out", [
    (("A", 3, (2, 1, 1)), 8, 12),
    (("B", 3, (2, 3, 2)), 4, 9),
    (("C", 3, (1, 1, 2, 1, 1)), 12, 17),
    (("D", 4, (1, 3, 3, 1)), 7, 9),
    (("C", 2, (2, 2)), 3, 3),
    (("A", 1, (1, 1)), 4, 6),
], ids=str)
def test_station_plan_forms_each_shared_product_once(case, shared, multiplied_out):
    # the omega_+ blocks X_a = beta_a^{-1} C_{+a} beta_{a+1} once each, the odd-p
    # B/D centre as the twisted transpose of C_{-s} X_s, and the C odd-p centre's
    # terms sharing beta_s^{-1} C_{+s} and C_{-s} beta_s^{-1} C_{+s}
    eqs = independent_equations(build_case(*case))
    assert sum(len(t.factors) - 1 for eq in eqs for t in eq.terms) == multiplied_out
    assert len(StationPlan(eqs)._products) == shared


def test_station_plan_never_multiplies_more_than_the_terms():
    for case in unit_step_cases(4):
        eqs = independent_equations(build_case(*case))
        assert len(StationPlan(eqs)._products) <= sum(len(t.factors) - 1 for eq in eqs for t in eq.terms), case


@pytest.mark.parametrize("case", ALL_CASES, ids=str)
def test_evaluate_rhs_asks_only_for_the_blocks_its_equation_names(case, rng):
    system = build_case(*case)
    betas = [np.eye(k) + 0.1 * rng.standard_normal((5, k, k)) for k in system.blocks.sizes]
    c = random_couplings(system, rng)
    calls = []

    def get_beta(a):
        calls.append(("", a))
        return betas[a - 1]

    def get_c(sign, a):
        calls.append((sign, a))
        return (c.minus if sign == "-" else c.plus)[a - 1]

    for eq in independent_equations(system):
        calls.clear()
        evaluate_rhs(eq, get_beta, get_c)
        named = {(f.sign, f.index) for t in eq.terms for f in t.factors if f.base != "form"}
        assert sorted(calls) == sorted(named)  # each named block once, and no other


def test_batched_inverse_scalar_path():
    values = np.array([[[2.0 + 1.0j]], [[-0.5]]])
    assert np.allclose(batched_inverse(values), np.linalg.inv(values), rtol=1e-15)
    with pytest.raises(SingularMatrixError) as info:
        batched_inverse(np.array([[[1.0]], [[0.0]]]))
    assert info.value.index == (1,)


def test_batched_inverse_two_by_two(rng):
    values = random_complex(rng, (3, _SMALL_STACK, 2, 2))  # long enough for the adjugate
    for stack in (values, values.real, values[:, :4], values[0, 0]):
        want = np.linalg.inv(stack)
        scale = np.linalg.norm(stack, axis=(-2, -1)) * np.linalg.norm(want, axis=(-2, -1)) ** 2
        err = np.max(np.abs(batched_inverse(stack) - want), axis=(-2, -1))
        assert np.all(err <= 1e-15 * scale)  # within round-off of the condition number
    # exactly singular samples at (1, 2) and (2, 0): the first in row-major order is named
    values[1, 2] = [[1.0, 2.0], [2.0, 4.0]]
    values[2, 0] = 0.0
    for stack in (values, values[:, :4]):
        with pytest.raises(SingularMatrixError) as info:
            batched_inverse(stack)
        assert info.value.index == (1, 2)


@pytest.mark.parametrize("scale", [1e-158, 1e160])
def test_batched_inverse_two_by_two_far_from_unit_scale(scale, rng):
    # the determinant (or its reciprocal) leaves the floating range; LAPACK does not
    values = np.eye(2) + 0.3 * random_complex(rng, (_SMALL_STACK, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = batched_inverse(scale * values)
    want = np.linalg.inv(values)
    assert np.max(np.abs(scale * got - want)) <= 1e-14 * np.max(np.abs(want))


def _batched_inverse_by_loop(values):
    """``batched_inverse`` as it was with a per-sample search: once LAPACK refuses the
    stack, each sample is inverted alone until one fails.  The reference for the search."""
    if values.shape[-2:] == (1, 1):
        if values.all():
            return 1.0 / values
    else:
        if values.shape[-2:] == (2, 2) and np.prod(values.shape[:-2]) >= _SMALL_STACK:
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


def _outcome(inverse, values):
    """The inverse, or the index and message of the ``SingularMatrixError`` raised instead."""
    try:
        return inverse(values)
    except SingularMatrixError as exc:
        return exc.index, str(exc)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("axes", [1, 2])
def test_batched_inverse_finds_the_singular_sample_the_loop_finds(axes, k, rng):
    # random stacks with one or two leading axes (2 x 2 ones often long enough
    # for the adjugate), each with a few defects among: an exactly singular
    # sample (zero or rank-deficient), a NaN or inf entry, and 1e-120 I, whose
    # determinant underflows to 0 although LAPACK inverts it
    defects = 0
    for _ in range(40):
        shape = tuple(rng.integers(1, 7 if axes == 2 else 40, axes))
        values = np.eye(k) + 0.5 * random_complex(rng, shape + (k, k))
        if rng.random() < 0.3:
            values = values.real.copy()
        flat = values.reshape(-1, k, k)
        for _ in range(rng.integers(0, 4)):
            at, kind = rng.integers(len(flat)), rng.integers(5)
            if kind == 0:
                flat[at] = 0.0
            elif kind == 1 and k > 1:
                flat[at, -1] = flat[at, 0]
            elif kind in (1, 2):
                flat[at, rng.integers(k), rng.integers(k)] = (np.nan, np.inf, -np.inf)[rng.integers(3)]
            else:
                flat[at] = 1e-120 * np.eye(k)
        with np.errstate(all="ignore"):  # a reciprocal of a non-finite sample warns on both
            got, want = _outcome(batched_inverse, values), _outcome(_batched_inverse_by_loop, values)
        if isinstance(want, tuple):
            assert got == want and all(type(i) is int for i in got[0])
            defects += 1
        else:
            np.testing.assert_array_equal(got, want)
    assert defects >= 5  # the search is exercised, not only the inverses


def test_batched_inverse_searches_a_refused_stack_in_one_call(monkeypatch):
    # one singular sample near the end of a long 3 x 3 stack: the search is one
    # LU of the stack (slogdet), not a per-sample inverse of every sample before it
    values = np.eye(3) + 0.1 * np.random.default_rng(0).standard_normal((4096, 3, 3))
    values[4090] = 0.0
    calls = []
    inv = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    with pytest.raises(SingularMatrixError) as info:
        batched_inverse(values)
    assert info.value.index == (4090,) and calls == [(4096, 3, 3)]
    tiny = np.stack([1e-120 * np.eye(3), np.zeros((3, 3))])  # the first one's determinant underflows to 0
    assert _outcome(batched_inverse, tiny) == ((1,), "singular block sample at (1,)")


def test_equation_without_terms_is_rejected():
    with pytest.raises(ValueError, match="no terms"):
        evaluate_rhs(equations.Equation(1, ()), lambda a: None, lambda sign, a: None)
