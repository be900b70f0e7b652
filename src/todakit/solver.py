"""Characteristic marching for Toda systems and closed-form test fields.

The governing equation is hyperbolic in the two grid coordinates, so data on
the two boundary characteristics determines the solution.  The scheme keeps
the logarithmic derivative u_a = beta_a^{-1} d_- beta_a as a companion
variable: each column step advances u_a with a midpoint rule (right-hand
side at the averaged field, iterated to a fixed point) and then recovers
beta_a along the first coordinate with an implicit midpoint rule that is
solvable in closed form: beta_a on the column is its boundary sample times
a prefix product of per-row transfer matrices, taken with a pairwise scan.
The iteration of column j + 1 starts from the polynomial through the
corrector's fixed points of the last min(j, 4) + 1 columns (the previous
column for the first), so every right-hand side evaluated is one corrector
sweep, and on smooth data most columns take one.
Self-paired central blocks are re-projected onto their constraint manifold
after every accepted column; the starting values use the unprojected points.

The march holds one array per independent block and loops over the blocks
at every step of a column.  The right-hand sides come from a
``StationPlan`` compiled once per march; every product of block samples
goes through ``liealg.block_matmul`` and every inverse through
``liealg.batched_inverse`` (a reciprocal for 1 x 1 blocks, the adjugate
for long stacks of 2 x 2 ones); the Cayley transfer is 2 (I - a)^{-1} - I
and 1 x 1 prefix products a cumulative product.  An exactly singular
sample met on the way (at the half-point initialisation, a station or a
Cayley transfer) is a blow-up at that sample's own (row, column).  The
health check of an accepted column bounds the condition number by
||beta||_F ||beta^{-1}||_F >= cond_2; the bound is exact for 1 x 1 blocks
and at most k times cond_2 for k x k blocks, so it can flag a blow-up
earlier, never later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equations import StationPlan, independent_equations
from .exact import SingularMatrixError
from .liealg import SeriesTag, _max_abs, batched_inverse, block_matmul, form_defect
from .toda import (
    CBlocks,
    DomainError,
    GridField,
    GridSpec,
    ResidualReport,
    TodaSystem,
    _block_arrays,
    _c_samples,
    _check_inputs,
    _sample_closure,
    block_residuals,
    build_system,
    field_from_closure,
    make_c_blocks,
)

__all__ = [
    "BlowUpError",
    "ConvergenceError",
    "CharacteristicData",
    "SolveResult",
    "ConvergenceStudy",
    "march",
    "liouville_system",
    "liouville_closure",
    "liouville_field",
    "liouville_boundary",
    "boundary_from_closure",
    "convergence_study",
]

# corrector sweeps allowed per column, their fixed-point tolerance (relative
# to the column's largest entry; met by the last change, or by the distance
# to the fixed point that the contraction rate predicts) and the largest
# admissible condition number bound or magnitude of a block sample
_MAX_CORRECTORS = 25
_FP_TOL = 1e-12
_COND_LIMIT = 1e12


class BlowUpError(RuntimeError):
    """A block sample lost invertibility during marching."""

    def __init__(self, message: str, location: tuple[int, int]):
        super().__init__(message)
        self.location = location


class ConvergenceError(RuntimeError):
    """The corrector fixed point failed to contract."""


@dataclass(frozen=True)
class CharacteristicData:
    """Boundary samples on the two characteristic lines.

    ``left`` holds, per independent block, the samples along the first
    coordinate at the initial second coordinate (n_minus entries);
    ``bottom`` the samples along the second coordinate at the initial first
    coordinate (n_plus entries).  The corner sample must agree.
    """

    spec: GridSpec
    left: tuple[np.ndarray, ...]
    bottom: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.spec, GridSpec):
            raise ValueError(f"spec must be a GridSpec, got {type(self.spec).__name__}")
        left = _block_arrays(self.left, None, "left line", ((self.spec.n_minus,),))
        bottom = _block_arrays(self.bottom, [line.shape[1:] for line in left], "bottom line",
                               ((self.spec.n_plus,),))
        object.__setattr__(self, "left", tuple(left))
        object.__setattr__(self, "bottom", tuple(bottom))
        for a, (lft, bot) in enumerate(zip(left, bottom), start=1):
            if _max_abs(lft[0] - bot[0]) > 1e-12 * (1.0 + _max_abs(lft[0])):
                raise ValueError(f"corner samples of block {a} disagree")


@dataclass(frozen=True)
class SolveResult:
    field: GridField
    residual: ResidualReport
    corrector_iterations: tuple[int, ...]


def _staggered_log_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """beta^{-1} d beta at the half-points of a sample line.

    The inverse of ``_cayley``: (2/h)(I - 2 (I + T)^{-1}) with T_i the
    one-step transfer beta_i^{-1} beta_{i+1}, so the implicit midpoint
    recovery step reproduces the line; a second-order midpoint value.
    """
    eye = np.eye(values.shape[-1])
    transfer = block_matmul(batched_inverse(values[:-1]), values[1:])
    return (2.0 / h) * (eye - 2.0 * batched_inverse(eye + transfer))


def _cayley(half: np.ndarray) -> np.ndarray:
    """The implicit midpoint transfers (I + H)(I - H)^{-1} of a stack of H.

    The two factors commute, so the transfer is 2 (I - H)^{-1} - I; raises
    ``SingularMatrixError`` where I - H is singular.
    """
    eye = np.eye(half.shape[-1])
    return 2.0 * batched_inverse(eye - half) - eye


def _prefix_products(factors: np.ndarray) -> np.ndarray:
    """Inclusive prefix products F_0, F_0 F_1, ..., F_0 F_1 ... F_{n-1} along axis -3.

    Leading axes are a batch.  1 x 1 factors take a cumulative product;
    larger ones the pairwise scan of ``_scan_pairs``.
    """
    if factors.shape[-2:] == (1, 1):
        return np.cumprod(factors, axis=-3)
    out = np.array(factors)
    _scan_pairs(out)
    return out


def _scan_pairs(out: np.ndarray):
    """Prefix products along axis -3, in place, by a work-efficient (Brent-Kung) scan.

    Each odd entry absorbs its left neighbour, the odd entries are scanned
    recursively, then each even entry takes the product to its left: about
    2 log2 n batched matmuls over 2n matrices, where a doubling scan
    multiplies n log2 n.  With tiny matrices each matrix of a batched
    matmul costs more than the call, so the count of matrices sets the time.
    """
    odd = out[..., 1::2, :, :]
    if odd.shape[-3] == 0:
        return
    odd[...] = block_matmul(out[..., : 2 * odd.shape[-3] : 2, :, :], odd)
    _scan_pairs(odd)
    even = out[..., 2::2, :, :]
    even[...] = block_matmul(out[..., 1 : 2 * even.shape[-3] : 2, :, :], even)


def _project_central(form: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton steps toward the manifold g^t F g = F of the central block.

    Both invariant forms are signed permutations, so F^{-1} = F^t.
    """
    eye = np.eye(g.shape[-1])
    for _ in range(3):
        defect = form_defect(form, g)
        if _max_abs(defect) < 1e-14 * (1.0 + _max_abs(g)):
            break
        g = block_matmul(g, eye - 0.5 * block_matmul(form.T, defect))
    return g


def march(system: TodaSystem, c: CBlocks, data: CharacteristicData) -> SolveResult:
    """Fill the grid column by column from characteristic boundary data.

    The corrector of column j + 1 starts from the polynomial through the
    last m + 1 = min(j, 4) + 1 fixed points, weights (-1)^q C(m + 1, q + 1),
    as in Hairer & Wanner, *Solving ODEs II*, sec. IV.8: the previous column
    for j = 0, the line through two for j = 1.  A column's
    corrector stops once its last change delta_k is within the fixed-point
    tolerance, or once the predicted distance to the fixed point, delta_k
    eta with eta = theta / (1 - theta) and theta = delta_k / delta_{k-1} < 1,
    is (ibid.); a first sweep uses delta_1 eta^0.8 with the eta last
    measured (a theta >= 1 clears it), the first-iteration test of Radau5.

    Raises :class:`BlowUpError` at the first sample that is singular or
    whose condition number bound or magnitude degenerates, and
    :class:`ConvergenceError` if the corrector diverges or does not reach
    its fixed point within 25 sweeps, unless the column's widest iterate
    is not finite or left the range of the boundary data (then a blow-up).
    """
    if not isinstance(data, CharacteristicData):
        raise ValueError(f"march needs a CharacteristicData, got {type(data).__name__}")
    _check_inputs(system, c, data.left, "boundary line")
    spec = data.spec
    ni, nj = spec.n_minus, spec.n_plus
    hm, hp = spec.h_minus, spec.h_plus
    # one equation per independent block, in block order
    plan = StationPlan(independent_equations(system))

    data_mag, data_inv = [], []
    for a, lines in enumerate(zip(data.left, data.bottom), start=1):
        try:
            data_inv.append(max(_max_abs(batched_inverse(line)) for line in lines))
        except SingularMatrixError as exc:
            raise ValueError(f"boundary data of block {a} is not invertible: {exc}") from exc
        data_mag.append(max(_max_abs(line) for line in lines))

    # one (n_minus, n_plus, k, k) grid per independent block
    grids = [np.empty((ni, nj) + left.shape[1:], dtype=complex) for left in data.left]
    for grid, left, bottom in zip(grids, data.left, data.bottom):
        grid[:, 0] = left
        grid[0, :] = bottom
    form = system.central_form()
    form = None if form is None else form.astype(complex)

    # couplings at the stations: C_- lines at the row half-points, C_+ lines at
    # the column midpoints (picked by column in rhs_half)
    c_minus, c_plus = ([0.5 * (e[:-1] + e[1:]) for e in _c_samples(c, sign, lines)]
                       for sign, lines in (("-", ni), ("+", nj)))

    def rhs_half(beta_cols: list[np.ndarray], j: int) -> list[np.ndarray]:
        """Right-hand sides at the (row half-point, column midpoint) stations."""
        half = [0.5 * (col[:-1] + col[1:]) for col in beta_cols]
        try:
            inverses = {a - 1: batched_inverse(half[a - 1]) for a in plan.inverted}
        except SingularMatrixError as exc:
            raise BlowUpError("singular half-point average at a station", (exc.index[0], j)) from exc
        return plan.evaluate(half, inverses, c_minus, [e[j] for e in c_plus])

    def integrate_lines(u_half: list[np.ndarray], j: int) -> list[np.ndarray]:
        """Solve d_- beta = beta u along column j + 1 with the implicit midpoint rule:
        the column is the prefix products of its bottom sample and the Cayley transfers."""
        out = []
        for grid, u in zip(grids, u_half):
            try:
                transfer = _cayley((0.5 * hm) * u)
            except SingularMatrixError as exc:
                raise BlowUpError("singular implicit step", (exc.index[0], j + 1)) from exc
            out.append(_prefix_products(np.concatenate([grid[None, 0, j + 1], transfer])))
        return out

    try:
        u_cur = [_staggered_log_derivative(grid[:, 0], hm) for grid in grids]
    except SingularMatrixError as exc:
        raise BlowUpError("singular half-point average on the left line", (exc.index[0], 0)) from exc
    fixed = [[grid[:, 0] for grid in grids]]  # the corrector's last fixed points, before projection
    iterations, eta = [], None  # eta = theta / (1 - theta) of the last contraction measured
    for j in range(nj - 1):
        # the polynomial through the last m + 1 columns, from the bottom sample
        m = min(j, 4)
        beta_next = [sum((-1) ** q * math.comb(m + 1, q + 1) * fixed[-1 - q][a] for q in range(m + 1))
                     for a in range(len(grids))]
        for grid, start in zip(grids, beta_next):
            start[0] = grid[0, j + 1]
        prev_delta, widest, failure = None, (0.0, None), None
        for sweep in range(_MAX_CORRECTORS):
            beta_mid = [0.5 * (grid[:, j] + nxt) for grid, nxt in zip(grids, beta_next)]
            u_next = [u + hp * r for u, r in zip(u_cur, rhs_half(beta_mid, j))]
            candidate = integrate_lines(u_next, j)
            delta = _largest([new - old for new, old in zip(candidate, beta_next)])
            beta_next = candidate
            scale = 1.0 + _largest(beta_next)
            if not scale <= widest[0]:  # a NaN scale wins, and its delta fails the corrector
                widest = (scale, beta_next)
            if not np.isfinite(delta) or (prev_delta is not None and delta > 4.0 * prev_delta
                                          and delta > _FP_TOL * scale):
                failure = f"corrector diverged at column {j + 1} (delta {delta:.3e})"
                break
            if prev_delta is not None and delta > 0.0:  # an exact repeat measures no rate
                theta = delta / prev_delta
                eta = theta / (1.0 - theta) if theta < 1.0 else None
            if delta <= _FP_TOL * scale or (
                    eta is not None and delta * eta ** (0.8 if prev_delta is None else 1.0) <= _FP_TOL * scale):
                break
            prev_delta = delta
        else:
            failure = f"corrector did not contract within {_MAX_CORRECTORS} sweeps at column {j + 1}"
        if failure:  # a blow-up if the column's widest iterate says so
            _classify_divergence(widest[1], data_mag, data_inv, j + 1)
            raise ConvergenceError(failure)
        iterations.append(sweep + 1)
        fixed = fixed[-4:] + [beta_next]
        for grid, column in zip(grids, beta_next):
            grid[:, j + 1] = column
        if form is not None:
            grids[-1][1:, j + 1] = _project_central(form, beta_next[-1][1:])
        _check_health([grid[:, j + 1] for grid in grids], j + 1)
        u_cur = u_next
    field = GridField(spec, tuple(grids))
    residual = block_residuals(system, field, c)
    return SolveResult(field, residual, tuple(iterations))


def _largest(arrays) -> float:
    """Largest entry magnitude over some arrays; NaN if any entry is (``max`` would skip it)."""
    return max((float(np.abs(a).max()) for a in arrays), key=lambda v: math.inf if math.isnan(v) else v)


def _classify_divergence(columns, data_mag, data_inv, j: int):
    """Tell a genuine blow-up from a mere non-contracting corrector.

    A diverging fixed point whose iterates leave the magnitude range of the
    boundary data by a wide factor signals loss of invertibility along a
    characteristic (a pole of the solution), not a step-size problem.
    """
    for a, column in enumerate(columns):
        i = _nonfinite_row(column)
        if i is not None:
            raise BlowUpError(f"block {a + 1} lost finiteness while diverging", (i, j))
        magnitude = np.abs(column).max(axis=(-1, -2))
        try:
            inv_mag = np.abs(batched_inverse(column)).max(axis=(-1, -2))
        except SingularMatrixError as exc:
            raise BlowUpError(f"block {a + 1} became singular while diverging",
                              (exc.index[0], j)) from exc
        excess = np.maximum(magnitude / (1.0 + data_mag[a]), inv_mag / (1.0 + data_inv[a]))
        if np.max(excess) > 10.0:
            i = int(np.argmax(excess))
            raise BlowUpError(
                f"block {a + 1} left the invertible range at row {i} "
                f"(magnitude {magnitude[i]:.3e}, inverse {inv_mag[i]:.3e})",
                (i, j),
            )


def _nonfinite_row(column: np.ndarray) -> int | None:
    """Index of the first sample along a column with a non-finite entry, if any."""
    finite = np.isfinite(column).all(axis=(-1, -2))
    return None if finite.all() else int(np.argmin(finite))


def _cond_bound(column: np.ndarray) -> np.ndarray:
    """||beta||_F ||beta^{-1}||_F >= cond_2 of each sample of a finite column;
    inf from its first singular sample on."""
    norm = np.linalg.norm(column, axis=(-2, -1))
    try:
        return norm * np.linalg.norm(batched_inverse(column), axis=(-2, -1))
    except SingularMatrixError as exc:
        i = exc.index[0]
    bound = np.full(norm.shape, np.inf)
    bound[:i] = _cond_bound(column[:i])
    return bound


def _check_health(columns: list[np.ndarray], j: int):
    """Raise BlowUpError at the first sample of accepted column j, in block
    order, that is non-finite or whose magnitude or condition bound is too large."""
    for a, column in enumerate(columns):
        i = _nonfinite_row(column)
        if i is not None:
            raise BlowUpError(f"non-finite sample in block {a + 1}", (i, j))
        cond = _cond_bound(column)
        magnitude = np.abs(column).max(axis=(-1, -2))
        bad = (cond > _COND_LIMIT) | (magnitude > _COND_LIMIT)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BlowUpError(
                f"block {a + 1} degenerated at row {i}, column {j} "
                f"(condition bound {cond[i]:.3e}, magnitude {magnitude[i]:.3e})",
                (i, j),
            )


# ---------------------------------------------------------------------------
# closed-form oracle


def liouville_system() -> TodaSystem:
    """Scalar two-block system whose equation has a rational closed-form solution."""
    return build_system(SeriesTag("A", 1), (1, 1))


def liouville_closure():
    """beta_1 = z^+ - z^-, beta_2 its reciprocal; solves the system exactly."""

    def closure(zm, zp):
        delta = zp - zm
        return [np.array([[delta]], dtype=complex), np.array([[1.0 / delta]], dtype=complex)]

    return closure


def _check_liouville_domain(spec: GridSpec):
    delta = spec.z_plus[None, :] - spec.z_minus[:, None]
    if np.min(delta) <= 0:
        raise DomainError("domain touches the diagonal z+ = z-, where the field has a pole")


@dataclass(frozen=True)
class LiouvilleData:
    system: TodaSystem
    field: GridField
    c: CBlocks


def liouville_field(spec: GridSpec) -> LiouvilleData:
    """Exact solution samples plus couplings C_{+1} = 1, C_{-1} = -1."""
    _check_liouville_domain(spec)
    system = liouville_system()
    field = field_from_closure(system, spec, liouville_closure())
    c = make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    return LiouvilleData(system, field, c)


def liouville_boundary(spec: GridSpec) -> CharacteristicData:
    """Characteristic data sampled from the closed form."""
    _check_liouville_domain(spec)
    return boundary_from_closure(liouville_system(), spec, liouville_closure())


def boundary_from_closure(system: TodaSystem, spec: GridSpec, closure) -> CharacteristicData:
    """Characteristic data: ``closure(z_minus, z_plus) -> [independent blocks]``
    sampled on the lines z_plus = z_plus[0] (left) and z_minus = z_minus[0] (bottom)."""
    return CharacteristicData(
        spec,
        _sample_closure(system, closure, spec.z_minus, spec.z_plus[0]),
        _sample_closure(system, closure, spec.z_minus[0], spec.z_plus),
    )


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[tuple[float, float], ...]  # (h, error)
    order: float


def convergence_study(system: TodaSystem, make_case, specs, exact=None) -> ConvergenceStudy:
    """March on a refining sequence of grids and fit the error order.

    ``make_case(spec)`` returns (CharacteristicData, CBlocks) for each grid;
    ``exact(z_minus, z_plus)`` returns the independent block values of the
    reference solution.  Without a reference, each grid is measured against
    the next finer one restricted to it, so an error C h^p reads
    (1 - 2^-p) C h^p on every row and the fitted order is unbiased.  The
    grids must nest: the even-numbered coordinates of each grid are those of
    the previous one.
    """
    specs = list(specs)
    if len(specs) < 3:
        raise ValueError("need at least three grids")
    for a, b in zip(specs, specs[1:]):
        for coarse, fine, h in ((a.z_minus, b.z_minus, a.h_minus), (a.z_plus, b.z_plus, a.h_plus)):
            if len(fine) - 1 != 2 * (len(coarse) - 1) or np.max(np.abs(fine[::2] - coarse)) > 1e-9 * h:
                raise ValueError("each grid must refine the previous one by a factor of 2: "
                                 "the same origin and half the spacing")
    results = []
    for spec in specs:
        data, c = make_case(spec)
        results.append(march(system, c, data))
    rows = []
    if exact is not None:
        for spec, res in zip(specs, results):
            ref = field_from_closure(system, spec, exact)
            err = max(_max_abs(b - r) for b, r in zip(res.field.betas, ref.betas))
            rows.append((max(spec.h_minus, spec.h_plus), err))
    else:
        for spec, coarse, fine in zip(specs, results, results[1:]):
            err = max(_max_abs(f[::2, ::2] - b) for b, f in zip(coarse.field.betas, fine.field.betas))
            rows.append((max(spec.h_minus, spec.h_plus), err))
    log_h = np.log([r[0] for r in rows])
    log_e = np.log([max(r[1], 1e-300) for r in rows])
    order = float(np.polyfit(log_h, log_e, 1)[0])
    return ConvergenceStudy(tuple(rows), order)
