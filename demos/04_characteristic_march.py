#!/usr/bin/env python3
"""Solve the two-block system from boundary data on two characteristics.

Data on the lines z+ = z+_0 and z- = z-_0 determines the field on the
whole rectangle; the marching scheme recovers the closed form at second
order.  A second run marches an orthogonal three-block system and reports
how far the central block drifts from its group manifold (it should stay
at roundoff thanks to per-column reprojection).
"""

import numpy as np
from scipy.linalg import expm

from todakit import GridSpec, SeriesTag, build_system, make_c_blocks, t_transpose
from todakit.solver import boundary_from_closure, liouville_boundary, liouville_field, march
from todakit.toda import central_defect


def liouville_run():
    print("marching the closed-form field on z- in [0,1], z+ in [2,3]")
    print(f"{'n':>4} {'max error':>12} {'ratio':>8}")
    prev = None
    for n in (17, 33, 65):
        spec = GridSpec(0.0, 2.0, 1.0 / (n - 1), 1.0 / (n - 1), n, n)
        lv = liouville_field(spec)
        result = march(lv.system, lv.c, liouville_boundary(spec))
        err = max(
            float(np.max(np.abs(result.field.betas[a] - lv.field.betas[a])))
            for a in range(2)
        )
        ratio = "" if prev is None else f"{prev / err:8.2f}"
        print(f"{n:>4} {err:>12.3e} {ratio:>8}")
        prev = err
    print("   (a ratio near 4 is the second-order signature)\n")


def orthogonal_run():
    rng = np.random.default_rng(5)
    tag = SeriesTag("B", 2)
    system = build_system(tag, (1, 3, 1))
    spec = GridSpec(0.0, 0.0, 1 / 16, 1 / 16, 17, 17)

    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gen_central = 0.4 * (raw - t_transpose(raw))
    gen_scalar = np.array([[0.3 - 0.1j]])

    def closure(zm, zp):
        return [expm(gen_scalar * (0.2 * zm - 0.1 * zp)),
                expm(gen_central * (0.12 * zm + 0.3 * zp))]

    c = make_c_blocks(
        system,
        [0.4 * (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))],
        [0.4 * (rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3)))],
    )
    result = march(system, c, boundary_from_closure(system, spec, closure))
    central = result.field.betas[1].reshape(-1, 3, 3)
    print("orthogonal three-block system, random boundary data:")
    print(f"   block residual max      {result.residual.max_norm:.3e}")
    print(f"   central manifold defect {central_defect(system, central):.3e}")
    print(f"   corrector sweeps (max)  {max(result.corrector_iterations)}")


def main():
    liouville_run()
    orthogonal_run()


if __name__ == "__main__":
    main()
