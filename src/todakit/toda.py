"""Nonabelian Toda systems on a rectangular characteristic grid.

A system is fixed by a series tag and a block partition with unit steps.
Fields are block-diagonal (independent blocks stored, dependent blocks
reconstructed from the series constraints, whose twisted transpose and
invariant forms come from ``liealg``), the couplings sit on the block
sub/superdiagonals, and residuals of the governing matrix equation are
evaluated with centered second-order differences on the grid interior.
A coupling entry is one constant block or one sample per line of its
chirality; ``_c_samples`` is the one place that tells the two apart.
Block lists from a caller (couplings, diagonal blocks, gauge factors,
boundary lines, the samples of a closure and the blocks of a ``GridField``)
are coerced and checked in ``_block_arrays`` only, an evaluator's couplings
and field are checked against its system in ``_check_inputs`` only, and
completed blocks and their inverses come from ``_completed`` only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .equations import StationPlan, emit_equations, independent_equations
from .exact import ShapeError
from .grading import BlockStructure, GradationError, canonical_block_operator
from .liealg import (
    SeriesTag, _integers, _max_abs, batched_inverse, block_matmul, form_defect, invariant_form, t_transpose,
)

__all__ = [
    "ConstraintError",
    "DomainError",
    "TodaSystem",
    "CBlocks",
    "GridSpec",
    "GridField",
    "ResidualReport",
    "build_system",
    "make_c_blocks",
    "assemble_c",
    "assemble_gamma",
    "field_from_closure",
    "residual_full",
    "block_residuals",
    "connection",
    "curvature_residual",
    "gauge_transform",
    "conformal_transform",
    "emit_equations",
]


class ConstraintError(ValueError):
    """Supplied blocks violate the system's constraint relations."""


class DomainError(ValueError):
    """Evaluation left the sampled domain or hit an excluded locus."""


@dataclass(frozen=True)
class TodaSystem:
    """A Toda system: block partition with unit steps plus its constraint class."""

    blocks: BlockStructure

    def __post_init__(self):
        if any(m != 1 for m in self.blocks.steps):
            raise ConstraintError("Toda systems require all gradation steps equal to 1")

    @property
    def tag(self) -> SeriesTag:
        return self.blocks.tag

    @property
    def constraint_set(self) -> str:
        series = self.tag.series
        if series == "A":
            return "A-none"
        parity = "oddp" if self.blocks.count % 2 == 1 else "evenp"
        return ("C-" if series == "C" else "BD-") + parity

    @property
    def independent_beta_count(self) -> int:
        p = self.blocks.count
        if self.tag.series == "A":
            return p
        return p // 2 + (p % 2)

    @property
    def independent_c_count(self) -> int:
        p = self.blocks.count
        return p - 1 if self.tag.series == "A" else p // 2

    def central_form(self) -> np.ndarray | None:
        """``invariant_form`` of the central block when the block count is odd, else None."""
        p = self.blocks.count
        return invariant_form(self.tag.series, self.blocks.sizes[p // 2]) if p % 2 else None


def build_system(tag: SeriesTag, sizes) -> TodaSystem:
    """Validate block sizes for the series and wrap them in a TodaSystem."""
    sizes = _integers(sizes, "block sizes", GradationError)
    return TodaSystem(BlockStructure(tag, sizes, (1,) * (len(sizes) - 1)))


def _block_arrays(values, shapes, what: str, leads, counts=None) -> list[np.ndarray]:
    """A caller's list of per-block matrices as complex arrays, checked.

    ``values`` is a list or tuple whose entry a has shape ``lead + shapes[a]``
    for a ``lead`` in ``leads`` (None in a lead matches any length, and
    ``leads=None`` any leading axes).  It holds ``len(shapes)`` entries, or
    any number in ``counts`` (taking the first shapes); ``shapes=None`` takes
    any number of square blocks.  A wrong type, count or shape raises
    ShapeError and a non-finite entry ValueError.  This is the one place
    where block input from a caller is coerced and checked.
    """
    if not isinstance(values, (list, tuple)):
        raise ShapeError(f"{what}s must be a list or tuple, got {type(values).__name__}")
    counts = counts or ({len(values)} if shapes is None else {len(shapes)})
    if len(values) not in counts:
        raise ShapeError(f"expected {' or '.join(map(str, sorted(counts)))} {what}s, got {len(values)}")
    out = []
    for a, value in enumerate(values, start=1):
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):  # ragged nesting, say
            arr = None
        if arr is None or arr.dtype.kind not in "iufc":
            raise ShapeError(f"{what} {a} must be a numeric array, got {type(value).__name__}")
        block = arr.shape[-1:] * 2 if shapes is None else tuple(shapes[a - 1])
        lead = arr.shape[:arr.ndim - len(block)]
        fits = leads is None or any(len(want) == len(lead) and all(w in (None, n) for w, n in zip(want, lead))
                                    for want in leads)
        if arr.shape[len(lead):] != block or not fits:
            axes = "" if leads is None else " under leading axes " + " or ".join(
                "(" + ", ".join("n" if w is None else str(w) for w in want) + ")" for want in leads)
            raise ShapeError(f"{what} {a} has shape {arr.shape}; expected a {block} block{axes}")
        arr = arr.astype(complex, copy=False)
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} {a} holds a non-finite entry")
        out.append(arr)
    return out


# ---------------------------------------------------------------------------
# coupling blocks


@dataclass(frozen=True)
class CBlocks:
    """Sub/superdiagonal coupling blocks C_{-a}, C_{+a}, a = 1..p-1.

    Entries are complex matrices; an entry may carry a leading sample axis
    when the coupling varies along its own chirality line (C_{-a} along the
    first coordinate, C_{+a} along the second).
    """

    system: TodaSystem
    minus: tuple[np.ndarray, ...]
    plus: tuple[np.ndarray, ...]


def _shape_of_c(system: TodaSystem, sign: str, a: int) -> tuple[int, int]:
    sizes = system.blocks.sizes
    if sign == "-":
        return (sizes[a], sizes[a - 1])
    return (sizes[a - 1], sizes[a])


def _mirror_c(system: TodaSystem, signs: np.ndarray, sign: str, a: int, x: np.ndarray) -> np.ndarray:
    """C_{sign(p-a)} from C_{sign a} = ``x``: the algebra condition x^t F + F x = 0
    read block by block, x -> -F^{-1} x^t F for the antidiagonal invariant form F.

    ``signs`` are F's antidiagonal entries (all +1 for B/D, +1 then -1 for C);
    they enter as one sign per entry, and where it is +1 the image is exactly -x^T.
    """
    slices = system.blocks.slices()
    rows, cols = (slices[a], slices[a - 1]) if sign == "-" else (slices[a - 1], slices[a])
    twisted = t_transpose(x)
    return np.where(np.multiply.outer(signs[cols][::-1], signs[rows][::-1]) > 0, -twisted, twisted)


def make_c_blocks(system: TodaSystem, minus, plus, tol: float = 1e-12) -> CBlocks:
    """Build coupling blocks from either the independent or the full ones.

    Given only the independent blocks (all of them for series A, the first
    half otherwise), each dependent block C_{p-a} is completed as the mirror
    image of C_a under the invariant form (``_mirror_c``) and a self-paired
    central block (a = p - a) is checked to 1e-12; given all p-1 blocks,
    every mirror relation is validated to ``tol``.
    """
    p = system.blocks.count
    form = invariant_form(system.tag.series, system.tag.ambient_dim)
    signs = None if form is None else np.fliplr(form).diagonal()
    out = {}
    for sign, entries in (("-", minus), ("+", plus)):
        full = _block_arrays(entries, [_shape_of_c(system, sign, a) for a in range(1, p)],
                             f"C_{sign} block", ((), (None,)), {system.independent_c_count, p - 1})
        complete = len(full) == p - 1
        scale = 1.0 + max((_max_abs(e) for e in full), default=0.0)
        full += [None] * (p - 1 - len(full))
        for a in [] if signs is None else range(1, p // 2 + 1):  # series A has no form
            mate = p - a
            image = _mirror_c(system, signs, sign, a, full[a - 1])
            if not complete and a != mate:
                full[mate - 1] = image
                continue
            bound = tol * scale if complete else 1e-12 * (1.0 + _max_abs(full[a - 1]))
            if _max_abs(full[mate - 1] - image) > bound:
                raise ConstraintError(f"coupling constraint violated: C_{{{sign}{mate}}} "
                                      f"is not the invariant-form mirror of C_{{{sign}{a}}}")
        out[sign] = full
    return CBlocks(system, tuple(out["-"]), tuple(out["+"]))


def _place_blocks(system: TodaSystem, blocks, offset: int) -> np.ndarray:
    """n x n matrices with ``blocks`` on the block diagonal (offset 0), the
    block subdiagonal (-1) or the block superdiagonal (+1).

    Blocks may carry leading axes, which broadcast against each other.
    """
    slices = system.blocks.slices()
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    n = system.tag.ambient_dim
    out = np.zeros(lead + (n, n), dtype=complex)
    for a, block in enumerate(blocks):
        out[..., slices[a + (offset < 0)], slices[a + (offset > 0)]] = block
    return out


def _c_samples(c: CBlocks, sign: str, count: int) -> tuple[np.ndarray, ...]:
    """One coupling family as ``count`` samples per entry along its chirality line.

    A line entry must hold ``count`` samples; a constant entry comes back as a
    read-only broadcast view of its one block.
    """
    entries = c.minus if sign == "-" else c.plus
    for a, entry in enumerate(entries, start=1):
        if entry.ndim == 3 and entry.shape[0] != count:
            raise ShapeError(
                f"coupling C_{{{sign}{a}}} has {entry.shape[0]} samples, grid needs {count}"
            )
    return tuple(np.broadcast_to(e, (count,) + e.shape[-2:]) for e in entries)


def assemble_c(system: TodaSystem, c: CBlocks, sign: str) -> np.ndarray:
    """Full n x n coupling matrix with the blocks of C_- (``sign`` "-") on the
    block subdiagonal or of C_+ ("+") on the superdiagonal.

    Takes constant couplings only and raises ValueError on an entry that
    varies along its line; ``connection`` samples such couplings on the grid.
    """
    if sign not in ("-", "+"):
        raise ValueError("sign must be '-' or '+'")
    entries = c.minus if sign == "-" else c.plus
    if any(e.ndim == 3 for e in entries):
        raise ValueError(f"C_{sign} varies along the grid; assemble_c takes constant couplings only")
    return _place_blocks(system, entries, -1 if sign == "-" else 1)


# ---------------------------------------------------------------------------
# block-diagonal fields


def central_defect(system: TodaSystem, central: np.ndarray) -> float:
    """Constraint defect max|g^t F g - F| of the self-paired central block (odd block count).

    F = ``central_form()`` is a signed permutation, so this equals the
    series' own formula: max|J g^t J g + I| for C, max|g^T g - I| for B/D.
    """
    form = system.central_form()
    if form is None:
        raise ValueError("system has no central block")
    return _max_abs(form_defect(form, central))


def _completed(system: TodaSystem, values, check_tol: float | None) -> tuple[list, list]:
    """All p diagonal blocks and their inverses, from one batched inverse per
    checked independent block: a mirrored block (beta_a^T)^{-1} is the twisted
    transpose of beta_a^{-1}, and its inverse that of beta_a (views).  This is
    g -> F^{-1} g^{-t} F on a block that lies inside one half of the index
    range, where F's antidiagonal signs are constant and cancel.  With
    ``check_tol`` the central block's self-constraint is checked first."""
    p = system.blocks.count
    series_a = system.tag.series == "A"
    if not series_a and p % 2 == 1 and check_tol is not None:
        defect = central_defect(system, values[-1])
        if defect > check_tol:
            raise ConstraintError(f"central block violates its self-constraint (defect {defect:.3e})")
    inverses = [batched_inverse(v) for v in values]
    mirrored = [] if series_a else range(p // 2 - 1, -1, -1)
    return ([*values, *(t_transpose(inverses[a]) for a in mirrored)],
            [*inverses, *(t_transpose(values[a]) for a in mirrored)])


def _independent_shapes(system: TodaSystem) -> list[tuple[int, int]]:
    return [(k, k) for k in system.blocks.sizes[:system.independent_beta_count]]


def assemble_gamma(system: TodaSystem, betas) -> np.ndarray:
    """Block-diagonal group element from independent block values at one point."""
    values = _block_arrays(betas, _independent_shapes(system), "independent block", leads=None)
    return _place_blocks(system, _completed(system, values, 1e-10)[0], 0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid in the two characteristic coordinates."""

    z_minus_start: float
    z_plus_start: float
    h_minus: float
    h_plus: float
    n_minus: int
    n_plus: int

    def __post_init__(self):
        n_minus, n_plus = _integers((self.n_minus, self.n_plus), "n_minus and n_plus")
        object.__setattr__(self, "n_minus", n_minus)
        object.__setattr__(self, "n_plus", n_plus)
        if self.n_minus < 3 or self.n_plus < 3:
            raise ValueError("need at least 3 samples per direction for the interior stencil")
        coords = (self.z_minus_start, self.z_plus_start, self.h_minus, self.h_plus)
        real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in coords)
        if not (real and np.isfinite(np.array(coords, float)).all()):
            raise ValueError(f"grid origin and spacings must be finite real numbers, got {coords}")
        if self.h_minus <= 0 or self.h_plus <= 0:
            raise ValueError("grid spacings must be positive")

    @property
    def z_minus(self) -> np.ndarray:
        return self.z_minus_start + self.h_minus * np.arange(self.n_minus)

    @property
    def z_plus(self) -> np.ndarray:
        return self.z_plus_start + self.h_plus * np.arange(self.n_plus)


@dataclass(frozen=True)
class GridField:
    """Samples of the independent diagonal blocks over the grid."""

    spec: GridSpec
    betas: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.spec, GridSpec):
            raise ValueError(f"spec must be a GridSpec, got {type(self.spec).__name__}")
        betas = _block_arrays(self.betas, None, "GridField beta", ((self.spec.n_minus, self.spec.n_plus),))
        object.__setattr__(self, "betas", tuple(betas))


def _check_inputs(system: TodaSystem, c, field, what: str = "field") -> None:
    """A caller's couplings and field checked against ``system``.

    ``c`` must be the system's CBlocks (ValueError) with p - 1 numeric entries
    per family, each a block of the shape ``_shape_of_c`` gives or a line of
    them (ShapeError: ``CBlocks`` itself checks nothing), and ``field`` a
    GridField with one (k, k) block per independent block (ShapeError);
    ``march`` passes its boundary lines as ``field``, with ``what`` naming
    them.  Only shapes are compared: GridField and the boundary data checked
    their entries.
    """
    if not (isinstance(c, CBlocks) and c.system == system):
        raise ValueError(f"couplings must be the CBlocks of the system, got {type(c).__name__}")
    p = system.blocks.count
    for sign, entries in (("-", c.minus), ("+", c.plus)):
        if not isinstance(entries, (list, tuple)) or len(entries) != p - 1:
            got = len(entries) if isinstance(entries, (list, tuple)) else type(entries).__name__
            raise ShapeError(f"couplings must hold {p - 1} C_{sign} blocks, got {got}")
        for a, entry in enumerate(entries, start=1):
            shape = _shape_of_c(system, sign, a)
            if not (isinstance(entry, np.ndarray) and entry.dtype.kind in "iufc"
                    and entry.ndim in (2, 3) and entry.shape[-2:] == shape):
                raise ShapeError(f"coupling C_{{{sign}{a}}} must be a numeric {shape} block "
                                 f"or a line of them, got {getattr(entry, 'shape', type(entry).__name__)}")
    if what == "field":
        if not isinstance(field, GridField):
            raise ShapeError(f"field must be a GridField, got {type(field).__name__}")
        field = field.betas
    got, want = [b.shape[-2:] for b in field], _independent_shapes(system)
    if got != want:
        raise ShapeError(f"{what} blocks have shapes {got}; the system's independent blocks are {want}")


def _sample_closure(system: TodaSystem, closure, z_minus, z_plus) -> tuple[np.ndarray, ...]:
    """Independent blocks of ``closure(z_minus, z_plus)`` at broadcast coordinate pairs.

    The closure is called once per pair, in row-major order of the broadcast
    shape, and returns a list of the independent blocks at that pair.
    """
    zm, zp = np.broadcast_arrays(z_minus, z_plus)
    count = system.independent_beta_count
    samples = [[] for _ in range(count)]  # per block, its value at each pair
    for index in np.ndindex(zm.shape):
        values = closure(zm[index], zp[index])
        if not isinstance(values, (list, tuple)) or len(values) != count:
            raise ShapeError(f"closure must return a list of {count} blocks, got {values!r}")
        for sample, value in zip(samples, values):
            sample.append(value)
    stacks = _block_arrays(samples, _independent_shapes(system), "closure block", ((zm.size,),))
    return tuple(stack.reshape(zm.shape + stack.shape[1:]) for stack in stacks)


def field_from_closure(system: TodaSystem, spec: GridSpec, closure) -> GridField:
    """Sample ``closure(z_minus, z_plus) -> [independent blocks]`` on the grid."""
    return GridField(spec, _sample_closure(system, closure, spec.z_minus[:, None], spec.z_plus[None, :]))


# ---------------------------------------------------------------------------
# residual reports


@dataclass(frozen=True)
class ResidualReport:
    """Interior residual grids per block with max and L2 norms."""

    spec: GridSpec
    labels: tuple[str, ...]
    grids: tuple[np.ndarray, ...]
    full_grid: np.ndarray | None = dataclass_field(default=None, repr=False)

    @property
    def max_norms(self) -> tuple[float, ...]:
        return tuple(_max_abs(g) for g in self.grids)

    @property
    def l2_norms(self) -> tuple[float, ...]:
        """sqrt(h_minus h_plus sum |entry|^2) per grid, summed with the entries
        scaled by their maximum so that it stays finite whenever the maximum is."""
        weight = self.spec.h_minus * self.spec.h_plus
        norms = []
        for g, top in zip(self.grids, self.max_norms):
            if top == 0.0 or not math.isfinite(top):
                norms.append(top)
            else:
                norms.append(top * math.sqrt(weight * float(np.sum(np.abs(g / top) ** 2))))
        return tuple(norms)

    @property
    def max_norm(self) -> float:
        return max(self.max_norms)

    @property
    def l2_norm(self) -> float:
        return math.hypot(*self.l2_norms)


def _log_derivative(values: np.ndarray, inverses: np.ndarray, h: float) -> np.ndarray:
    """beta^{-1} d_- beta over the grid: second-order differences along the first
    axis, centered inside and one-sided on the edge rows."""
    d = np.empty_like(values)
    d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return block_matmul(inverses, d)


def _interior_dplus(u: np.ndarray, h_plus: float) -> np.ndarray:
    """Centered d_+ of a log-derivative grid on the grid interior."""
    return (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h_plus)


def _connection_parts(system: TodaSystem, field: GridField, c: CBlocks):
    """gamma^{-1} d_- gamma, the C_- lines and gamma^{-1} c_+ gamma over the grid."""
    _check_inputs(system, c, field)
    spec = field.spec
    gamma, gamma_inv = (_place_blocks(system, blocks, 0) for blocks in _completed(system, field.betas, None))
    cm = _place_blocks(system, _c_samples(c, "-", spec.n_minus), -1)
    cp = _place_blocks(system, _c_samples(c, "+", spec.n_plus), 1)
    return _log_derivative(gamma, gamma_inv, spec.h_minus), cm, gamma_inv @ cp[None, :] @ gamma


def residual_full(system: TodaSystem, field: GridField, c: CBlocks) -> ResidualReport:
    """Residual of the full matrix equation on the grid interior.

    R = d_+(gamma^{-1} d_- gamma) - [c_-, gamma^{-1} c_+ gamma], with the
    nested derivative formed by differencing the logarithmic-derivative grid,
    so each block of R matches the blockwise evaluation stencil for stencil.
    """
    u, cm, w = _connection_parts(system, field, c)
    spec = field.spec
    w_int = w[1:-1, 1:-1]
    cm_int = cm[1:-1][:, None]
    residual = _interior_dplus(u, spec.h_plus) - (cm_int @ w_int - w_int @ cm_int)
    slices = system.blocks.slices()
    grids = tuple(residual[..., sl, sl] for sl in slices)
    labels = tuple(f"block_{a}" for a in range(1, system.blocks.count + 1))
    return ResidualReport(spec, labels, grids, full_grid=residual)


def block_residuals(system: TodaSystem, field: GridField, c: CBlocks) -> ResidualReport:
    """Residuals of the independent block equations (folded boundary forms)."""
    _check_inputs(system, c, field)
    spec = field.spec
    betas = field.betas
    inverses = _completed(system, betas, None)[1]
    plan = StationPlan(independent_equations(system))
    values = plan.evaluate([b[1:-1, 1:-1] for b in betas], [x[1:-1, 1:-1] for x in inverses],
                           [e[1:-1, None] for e in _c_samples(c, "-", spec.n_minus)],
                           [e[None, 1:-1] for e in _c_samples(c, "+", spec.n_plus)])
    grids, labels = [], []
    for eq, rhs in zip(plan.equations, values):
        a = eq.block
        u = _log_derivative(betas[a - 1], inverses[a - 1], spec.h_minus)
        dpu = _interior_dplus(u, spec.h_plus)
        grids.append(dpu - np.broadcast_to(rhs, dpu.shape))
        labels.append(f"beta_{a}")
    return ResidualReport(spec, tuple(labels), tuple(grids))


def connection(system: TodaSystem, field: GridField, c: CBlocks):
    """Connection components (omega_minus, omega_plus) sampled on the full grid."""
    u, cm, w = _connection_parts(system, field, c)
    return u + cm[:, None], w


def curvature_residual(omega_minus: np.ndarray, omega_plus: np.ndarray, spec: GridSpec) -> ResidualReport:
    """Flatness defect d_- omega_+ - d_+ omega_- + [omega_-, omega_+] on the interior."""
    if omega_minus.shape != omega_plus.shape:
        raise ShapeError("connection components must share one grid shape")
    dm_plus = (omega_plus[2:] - omega_plus[:-2]) / (2.0 * spec.h_minus)
    dp_minus = (omega_minus[:, 2:] - omega_minus[:, :-2]) / (2.0 * spec.h_plus)
    om_int = omega_minus[1:-1, 1:-1]
    op_int = omega_plus[1:-1, 1:-1]
    curv = dm_plus[:, 1:-1] - dp_minus[1:-1] + om_int @ op_int - op_int @ om_int
    return ResidualReport(spec, ("curvature",), (curv,), full_grid=curv)


# ---------------------------------------------------------------------------
# symmetry transforms


def gauge_transform(system: TodaSystem, field: GridField, c: CBlocks, xi_minus, xi_plus):
    """Apply gamma -> xi_+^{-1} gamma xi_- with chiral block-diagonal factors.

    ``xi_minus`` (``xi_plus``) supplies one matrix or one line of samples along
    its own coordinate per independent block.  Returns the transformed field
    together with the conjugated coupling blocks, which stay constant where
    the factors they meet are constant.
    """
    _check_inputs(system, c, field)
    spec = field.spec
    shapes = _independent_shapes(system)
    (xi_m, xi_m_inv), (xi_p, xi_p_inv) = (
        _completed(system, _block_arrays(xi, shapes, f"{name} block", ((), (n,))), 1e-10)
        for xi, name, n in ((xi_minus, "xi_minus", spec.n_minus), (xi_plus, "xi_plus", spec.n_plus)))
    new_betas = tuple(xp_inv @ beta @ xm[..., None, :, :]
                      for beta, xm, xp_inv in zip(field.betas, xi_m, xi_p_inv))
    p = system.blocks.count
    new_minus = [xi_m_inv[a] @ c.minus[a - 1] @ xi_m[a - 1] for a in range(1, p)]
    new_plus = [xi_p_inv[a - 1] @ c.plus[a - 1] @ xi_p[a] for a in range(1, p)]
    return GridField(spec, new_betas), make_c_blocks(system, new_minus, new_plus, tol=1e-10)


def _line_values(values, z: np.ndarray, what: str) -> np.ndarray:
    """What F or dF returned on the grid line ``z``, checked: finite real
    numbers, one per sample or one for the whole line."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting, say
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must return real numbers, got {type(values).__name__}")
    try:
        arr = np.broadcast_to(arr, z.shape)
    except ValueError:
        raise ShapeError(f"{what} returned shape {arr.shape}; expected {z.shape} or a scalar") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} returned a non-finite value")
    return arr


def conformal_transform(system: TodaSystem, closure, f_minus, f_plus, spec: GridSpec) -> GridField:
    """Reparametrize by (F^-, F^+) and compensate with the grading weights.

    ``f_minus`` and ``f_plus`` are (F, dF) pairs of callables, each called
    once on the grid line of its coordinate (a 1-D array; a constant may come
    back as a scalar) and returning finite real numbers, with dF > 0 on the
    grid; ``closure(z_minus, z_plus)`` returns the independent block values.
    The new field is sampled on ``spec``.
    """
    lines = []
    for sign, name, pair, z in (("-", "f_minus", f_minus, spec.z_minus), ("+", "f_plus", f_plus, spec.z_plus)):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(callable, pair))):
            raise ValueError(f"{name} must be an (F, dF) pair of callables, got {type(pair).__name__}")
        f, df = pair
        d = _line_values(df(z), z, f"dF^{sign}")
        if not np.all(d > 0):
            raise DomainError(f"dF^{sign} must be positive on the grid; its least value is {np.min(d)}")
        lines.append((_line_values(f(z), z, f"F^{sign}"), d))
    (fm, dm), (fp, dp) = lines
    betas = _sample_closure(system, closure, fm[:, None], fp[None, :])
    weight = np.multiply.outer(dm, dp)[..., None, None]
    levels = canonical_block_operator(system.blocks).levels
    return GridField(spec, tuple(weight ** -float(level) * beta for level, beta in zip(levels, betas)))
