"""Seeded inputs for the benchmark workloads.

Everything the program sees is generated here from the workload seed.  The
constrained-system generators follow the same recipe as the test-suite
helpers (exponentials of fixed generators times smooth scalar fields,
random couplings projected where a constraint requires it, boundary lines
sampled from the closure), so the benchmark never imports the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

import todakit as tk
from todakit.grading import DynkinLabels
from todakit.liealg import SeriesTag, symplectic_form, t_transpose
from todakit.solver import CharacteristicData, liouville_boundary, liouville_system

# One system per constraint class; C3 (1,1,2,1,1) has the most inverse
# factors per station, C2 (2,2) the smallest per-column work.
CONSTRAINED_CASES = (
    ("A", 3, (2, 1, 1)),
    ("B", 3, (2, 3, 2)),
    ("C", 3, (1, 1, 2, 1, 1)),
    ("D", 4, (1, 3, 3, 1)),
    ("C", 2, (2, 2)),
)
VERIFY_CASE = ("D", 4, (1, 3, 3, 1))
MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}
RANK_SEED = 11  # fixed stream for the ranks of the random gradations


def liouville_case(rng, n: int):
    """Closed-form two-block Liouville data on a seeded shift of [0,1] x [2,3]."""
    spec = tk.GridSpec(rng.uniform(0.0, 0.05), 2.0 + rng.uniform(0.0, 0.05),
                       1.0 / (n - 1), 1.0 / (n - 1), n, n)
    system = liouville_system()
    c = tk.make_c_blocks(system, [np.array([[-1.0]])], [np.array([[1.0]])])
    return system, c, liouville_boundary(spec)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_norm(mat: np.ndarray, norm: float) -> np.ndarray:
    """Rescale to a fixed spectral norm, so the seed picks directions, not sizes."""
    return mat * (norm / np.linalg.norm(mat, 2))


def _central_generator(system: tk.TodaSystem, rng) -> np.ndarray:
    """Random element of the central block's constraint algebra."""
    k = system.blocks.sizes[system.blocks.count // 2]
    raw = _random_complex(rng, (k, k))
    if system.tag.series == "C":
        form = symplectic_form(k // 2).astype(complex)
        return 0.5 * (raw + form @ raw.T @ form)
    return 0.5 * (raw - t_transpose(raw))


def _smooth_closure(system: tk.TodaSystem, rng, scale=0.3):
    """Closure exp(gen_a f_a(z-, z+)) with smooth scalar fields f_a.

    A central block keeps one generator in its constraint algebra, so its
    samples stay on the group manifold.  Generators of a fixed norm keep the
    corrector at the same sweep count for every seed (3 per column at n=65).
    """
    count = system.independent_beta_count
    sizes = system.blocks.sizes
    odd_central = system.tag.series != "A" and system.blocks.count % 2 == 1
    gens, coeffs = [], []
    for a in range(count):
        if odd_central and a == count - 1:
            gen = _central_generator(system, rng)
        else:
            gen = _random_complex(rng, (sizes[a], sizes[a]))
        gens.append(_with_norm(gen, scale))
        coeffs.append(rng.uniform(-0.6, 0.6, size=4))

    def closure(zm, zp):
        return [expm(gen * (c0 + c1 * np.sin(zm) + c2 * np.cos(zp) + c3 * zm * zp))
                for gen, (c0, c1, c2, c3) in zip(gens, coeffs)]

    return closure


def _random_couplings(system: tk.TodaSystem, rng, scale=0.3) -> tk.CBlocks:
    """Random independent couplings, centrally (anti)symmetrized where required."""
    sizes = system.blocks.sizes
    s = system.blocks.count // 2
    cs = system.constraint_set
    minus, plus = [], []
    for a in range(1, system.independent_c_count + 1):
        cm = _random_complex(rng, (sizes[a], sizes[a - 1]))
        cp = _random_complex(rng, (sizes[a - 1], sizes[a]))
        if a == s and cs == "BD-evenp":
            cm, cp = 0.5 * (cm - t_transpose(cm)), 0.5 * (cp - t_transpose(cp))
        elif a == s and cs == "C-evenp":
            cm, cp = 0.5 * (cm + t_transpose(cm)), 0.5 * (cp + t_transpose(cp))
        minus.append(_with_norm(cm, scale))
        plus.append(_with_norm(cp, scale))
    return tk.make_c_blocks(system, minus, plus)


def _boundary_from_closure(system: tk.TodaSystem, spec: tk.GridSpec, closure) -> CharacteristicData:
    count = system.independent_beta_count
    left = [closure(zm, spec.z_plus[0]) for zm in spec.z_minus]
    bottom = [closure(spec.z_minus[0], zp) for zp in spec.z_plus]
    return CharacteristicData(
        spec,
        tuple(np.array([values[a] for values in left], dtype=complex) for a in range(count)),
        tuple(np.array([values[a] for values in bottom], dtype=complex) for a in range(count)),
    )


def constrained_case(rng, case, n: int):
    """(system, couplings, boundary data) for one seeded constrained system."""
    series, rank, sizes = case
    system = tk.build_system(SeriesTag(series, rank), sizes)
    closure = _smooth_closure(system, rng)
    c = _random_couplings(system, rng)
    spec = tk.GridSpec(0.0, 0.0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)  # the unit square
    return system, c, _boundary_from_closure(system, spec, closure)


def grading_cases(rng, max_rank: int = 8, random_per_series: int = 25) -> list[DynkinLabels]:
    """The criterion-4 mix: every single-label gradation up to ``max_rank``,
    plus ``random_per_series`` random labels (entries 0..2) per series.

    As in the acceptance test, the random labels come at random ranks from
    the series' smallest up to ``max_rank``.  The ranks come from a fixed
    stream per series and only the labels from the workload seed, so the seed
    changes the sweep's inputs but not the sizes of its algebras.
    """
    cases = []
    for index, series in enumerate("ABCD"):
        for rank in range(MIN_RANK[series], max_rank + 1):
            for d in range(rank):
                labels = tuple(int(i == d) for i in range(rank))
                cases.append(DynkinLabels(SeriesTag(series, rank), labels))
        ranks = np.random.default_rng((RANK_SEED, index)).integers(
            MIN_RANK[series], max_rank + 1, size=random_per_series)
        for rank in ranks:
            labels = (0,) * rank
            while not any(labels):
                labels = tuple(int(q) for q in rng.integers(0, 3, size=rank))
            cases.append(DynkinLabels(SeriesTag(series, int(rank)), labels))
    return cases
