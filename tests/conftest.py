"""Shared generators for random constrained systems and fields."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

import todakit as tk
from todakit.liealg import symplectic_form, t_transpose
from todakit.solver import boundary_from_closure  # noqa: F401 (the tests import it from here)

# One representative per constraint class, plus size variety.
SYSTEM_CASES = {
    "A-none": [("A", 1, (1, 1)), ("A", 2, (1, 2)), ("A", 3, (2, 1, 1))],
    "BD-oddp": [("B", 2, (1, 3, 1)), ("B", 3, (2, 3, 2)), ("D", 3, (1, 4, 1))],
    "BD-evenp": [("D", 3, (3, 3)), ("D", 4, (1, 3, 3, 1))],
    "C-oddp": [("C", 2, (1, 2, 1)), ("C", 3, (1, 1, 2, 1, 1))],
    "C-evenp": [("C", 1, (1, 1)), ("C", 2, (2, 2))],
}

ALL_CASES = [case for cases in SYSTEM_CASES.values() for case in cases]


def build_case(series: str, rank: int, sizes) -> tk.TodaSystem:
    return tk.build_system(tk.SeriesTag(series, rank), sizes)


DIMENSION = {"A": lambda r: r + 1, "B": lambda r: 2 * r + 1, "C": lambda r: 2 * r, "D": lambda r: 2 * r}


def _compositions(n: int):
    """Every ordered partition of n into positive parts."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def unit_step_cases(max_rank: int) -> list[tuple]:
    """Every (series, rank, sizes) with rank <= ``max_rank`` that ``build_system``
    accepts: any block partition for series A, a palindromic one for B, C and D."""
    cases = []
    for series, dim in DIMENSION.items():
        for rank in range(1, max_rank + 1):
            for sizes in _compositions(dim(rank)):
                if series != "A" and sizes != sizes[::-1]:
                    continue
                try:
                    build_case(series, rank, sizes)
                except ValueError:
                    continue
                cases.append((series, rank, sizes))
    return cases


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def central_generator(system: tk.TodaSystem, rng, scale=0.4) -> np.ndarray:
    """Random element of the central block's constraint algebra."""
    p = system.blocks.count
    k = system.blocks.sizes[p // 2]
    raw = random_complex(rng, (k, k), scale)
    if system.tag.series == "C":
        form = symplectic_form(k // 2).astype(complex)
        return 0.5 * (raw + form @ raw.T @ form)
    return 0.5 * (raw - t_transpose(raw))


def smooth_closure(system: tk.TodaSystem, rng, *, affine=False, scale=0.35):
    """Closure producing smooth constraint-respecting independent blocks.

    Each block is the exponential of one fixed generator times a scalar
    field, so central blocks stay on their group manifold.  With ``affine``
    the scalar fields are affine-linear, which keeps the sampled field
    compatible with centered differencing to machine precision.
    """
    count = system.independent_beta_count
    sizes = system.blocks.sizes
    p = system.blocks.count
    gens, coeffs = [], []
    for a in range(count):
        central = system.tag.series != "A" and p % 2 == 1 and a == count - 1
        gen = central_generator(system, rng, scale) if central \
            else random_complex(rng, (sizes[a], sizes[a]), scale)
        gens.append(gen)
        coeffs.append(rng.uniform(-0.6, 0.6, size=4))

    def closure(zm, zp):
        out = []
        for gen, (c0, c1, c2, c3) in zip(gens, coeffs):
            if affine:
                f = c0 + c1 * zm + c2 * zp
            else:
                f = c0 + c1 * np.sin(zm) + c2 * np.cos(zp) + c3 * zm * zp
            out.append(expm(gen * f))
        return out

    return closure


def random_couplings(system: tk.TodaSystem, rng, scale=0.5) -> tk.CBlocks:
    """Random independent coupling blocks, centrally projected where required."""
    sizes = system.blocks.sizes
    p = system.blocks.count
    s = p // 2
    cs = system.constraint_set
    minus, plus = [], []
    for a in range(1, system.independent_c_count + 1):
        cm = random_complex(rng, (sizes[a], sizes[a - 1]), scale)
        cp = random_complex(rng, (sizes[a - 1], sizes[a]), scale)
        if a == s and cs == "BD-evenp":
            cm, cp = 0.5 * (cm - t_transpose(cm)), 0.5 * (cp - t_transpose(cp))
        elif a == s and cs == "C-evenp":
            cm, cp = 0.5 * (cm + t_transpose(cm)), 0.5 * (cp + t_transpose(cp))
        minus.append(cm)
        plus.append(cp)
    return tk.make_c_blocks(system, minus, plus)


def line_couplings(system: tk.TodaSystem, c: tk.CBlocks, spec: tk.GridSpec) -> tk.CBlocks:
    """``c`` varied along the grid: each independent entry times a scalar
    profile on its chirality line (C_- along z_minus, C_+ along z_plus), the
    dependent entries completed by ``make_c_blocks``."""
    want = system.independent_c_count
    minus = [(1.0 + 0.3 * np.sin(spec.z_minus + a))[:, None, None] * e
             for a, e in enumerate(c.minus[:want])]
    plus = [(1.0 + 0.2 * np.cos(2.0 * spec.z_plus - a))[:, None, None] * e
            for a, e in enumerate(c.plus[:want])]
    return tk.make_c_blocks(system, minus, plus)


def singular_station_case():
    """A2 (2,1) on a 5 x 5 grid whose k = 2 left line alternates diag(1, 1) and
    diag(1, -1), so every half-point average of block 1 is singular.

    Returns (system, couplings, boundary data).
    """
    system = build_case("A", 2, (2, 1))
    c = tk.make_c_blocks(system, [np.array([[0.5, 0.25]])], [np.array([[0.5], [0.25]])])
    spec = tk.GridSpec(0.0, 0.0, 0.25, 0.25, 5, 5)
    left = np.array([np.diag([1.0, (-1.0) ** i]) for i in range(5)], dtype=complex)
    bottom = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2))
    ones = np.ones((5, 1, 1), dtype=complex)
    return system, c, tk.CharacteristicData(spec, (left, ones), (bottom, ones))


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
