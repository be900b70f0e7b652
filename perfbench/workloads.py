"""The four benchmark workloads.

Each workload has the same shape:

- ``setup(seed)`` generates the seeded inputs, writes the input files and
  warms the code paths up on a small case; run.py repeats it.
- An untraced end-to-end call through the public entry points is made of
  ``units``: one solve of one case, one verify, or one gradation of the
  sweep; ``call_unit(u)`` runs one of them and returns its wall time in
  seconds.  ``attempted`` and ``failed``
  count units (a failure is a nonzero exit, an exception or a wrong output).
- ``replay_unit(spans, u)`` runs unit ``u`` again inside a root span, with
  a span around each public step it takes, and ``layer_metrics(spans)``
  turns the spans plus exact counts into the per-layer figures.
- ``finish()`` runs the checks that need the library as a reference and
  returns (all outputs correct, extra end-to-end figures for the text report).

Everything runs in one thread of one process, so no layer waits on another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from todakit import cli
from todakit.cartan import cartan_matrix
from todakit.equations import evaluate_rhs, independent_equations
from todakit.grading import exact_span_contains, graded_decomposition, operator_from_labels
from todakit.liealg import commutator
from todakit.solver import liouville_closure, march
from todakit.toda import block_residuals, connection, curvature_residual, residual_full

import inputs

# Accuracy bounds fixed from runs of the seed code over seeds 0-29 (worst
# seen: Liouville error 7.3e-7, constrained residual 5.8e-6, verify full
# residual 5.1e-7), with headroom for seeds not tried.
LIOUVILLE_ERR_BOUND = 2e-6
CONSTRAINED_RESIDUAL_BOUND = 5e-5
VERIFY_TOL = 1e-5
# Relative agreement required between a verify report and direct library calls.
ROUND_OFF = 1e-9


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    """cli.main with stdout captured; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def _write_doc(path: Path, doc: dict):
    path.write_text(cli.dumps_deterministic(doc) + "\n", encoding="utf-8")


def _write_inputs(work: Path, stem: str, system, c, data) -> tuple[Path, Path]:
    """System and boundary files for one case; returns their paths."""
    sys_path, bnd_path = work / f"{stem}_system.json", work / f"{stem}_boundary.json"
    _write_doc(sys_path, cli.system_to_document(system, c))
    _write_doc(bnd_path, cli.boundary_to_document(system, data))
    return sys_path, bnd_path


def _solve_argv(sys_path: Path, bnd_path: Path, out_path: Path) -> list[str]:
    return ["solve", "--system", str(sys_path), "--boundary", str(bnd_path), "--out", str(out_path)]


# The public steps of `todakit solve` and `todakit verify`, as cli.main
# calls them, and the layer each belongs to.
SOLVE_STEPS = {
    "_load_json": "cli.read",
    "system_from_document": "cli.read",
    "boundary_from_document": "cli.read",
    "march": "solver.march",
    "grid_to_document": "cli.write",
    "dumps_deterministic": "cli.write",
    "_write_text": "cli.write",
}
VERIFY_STEPS = {
    "_load_json": "cli.read",
    "system_from_document": "cli.read",
    "grid_from_document": "cli.read",
    "block_residuals": "toda.block_residuals",
    "residual_full": "toda.residual_full",
    "connection": "toda.connection",
    "curvature_residual": "toda.curvature",
}


class Spans:
    """In-memory span records: (request, name, start, end, parent index)."""

    def __init__(self):
        self.records: list[tuple[int, str, float, float, int | None]] = []
        self.request = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append((self.request, name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records[index] = (self.request, name, start, end, parent)

    def totals(self, name: str) -> dict[int, float]:
        """Per request: total duration of the spans called ``name``."""
        out: dict[int, float] = {}
        for request, span_name, start, end, _ in self.records:
            if span_name == name:
                out[request] = out.get(request, 0.0) + end - start
        return out

    def median_total(self, name: str) -> float:
        values = self.totals(name).values()
        return statistics.median(values) if values else 0.0

    def covered(self, root: str) -> dict[int, float]:
        """Per request: seconds covered by the direct children of ``root`` spans."""
        roots = {i for i, rec in enumerate(self.records) if rec[1] == root}
        out: dict[int, float] = {}
        for request, _, start, end, parent in self.records:
            if parent in roots:
                out[request] = out.get(request, 0.0) + end - start
        return out

    @contextlib.contextmanager
    def around(self, module, steps: dict[str, str]):
        """Wrap ``module``'s public step functions in spans while the block runs.

        ``steps`` maps a function name in ``module`` to its span name.  Only
        steps taken directly under the root span get a span; a step called
        from inside another step (``dumps_deterministic`` recursing, say)
        runs unwrapped.
        """
        saved = {name: getattr(module, name) for name in steps}

        def wrap(name, fn, span_name):
            def step(*args, **kwargs):
                if len(self._open) != 1:
                    return fn(*args, **kwargs)
                setattr(module, name, fn)
                try:
                    with self.span(span_name):
                        return fn(*args, **kwargs)
                finally:
                    setattr(module, name, step)
            return step

        for name, span_name in steps.items():
            setattr(module, name, wrap(name, saved[name], span_name))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def dump(self) -> list[dict]:
        return [
            {"request": r, "name": n, "start": s, "end": e, "parent": p}
            for r, n, s, e, p in self.records
        ]


class Workload:
    name = ""
    cells = 0  # grid cells per call (n_minus * n_plus * systems); 0 for no grid
    root = ""  # name of the root span of one replayed unit
    units = (0,)

    def __init__(self, work: Path):
        self.work = work
        self.failed = 0
        self.attempted = 0


# ---------------------------------------------------------------------------
# solve: Liouville at n=257 and five constrained systems at n=65


class SolveWorkload(Workload):
    """`todakit solve` on each case; a call solves every case once."""

    root = "solve"
    rhs_reps = 10

    def __init__(self, work: Path, n: int):
        super().__init__(work)
        self.n = n
        self.cases = []  # (system, c, data, system path, boundary path, out path)
        self.ref_hash: dict[int, str] = {}
        self.march_results = []  # SolveResult of each case's step replay
        self.solution_err = 0.0

    @staticmethod
    def make_cases(rng, n: int) -> list:
        raise NotImplementedError

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for k, (system, c, data) in enumerate(self.make_cases(rng, self.n)):
            paths = _write_inputs(self.work, f"case{k}", system, c, data)
            self.cases.append((system, c, data, *paths, self.work / f"case{k}_solved.json"))
        self.cells = self.n * self.n * len(self.cases)
        self.units = range(len(self.cases))
        self.march_results = [None] * len(self.cases)
        # Warm-up: every case once on a 9 x 9 grid, through the same CLI path.
        for k, (system, c, data) in enumerate(self.make_cases(np.random.default_rng(seed), 9)):
            paths = _write_inputs(self.work, f"warm{k}", system, c, data)
            _run_cli(_solve_argv(*paths, self.work / f"warm{k}_solved.json"))

    def _argv(self, k: int) -> list[str]:
        return _solve_argv(*self.cases[k][3:]) + ["--grid", str(self.n)]

    def call_unit(self, k: int) -> float:
        self.attempted += 1
        try:
            code, _, elapsed = _run_cli(self._argv(k))
        except Exception as exc:  # a traceback is a failed call, not a crash of the run
            print(f"# solve case {k} raised {exc!r}")
            self.failed += 1
            return 0.0
        if code != 0 or not self._same_bytes(k, _sha(self.cases[k][5])):
            print(f"# solve case {k}: exit {code} or output differs from the first call")
            self.failed += 1
        return elapsed

    def _accurate(self, err: float, bound: float) -> tuple[bool, dict]:
        self.solution_err = err
        if err > bound:
            print(f"# solution error {err:.3e} exceeds {bound:.1e}")
        return err <= bound, {"solution_err": err}

    def _same_bytes(self, k: int, digest: str) -> bool:
        """Determinism: every solve of case k writes the bytes of the first one."""
        return self.ref_hash.setdefault(k, digest) == digest

    def replay_unit(self, spans: Spans, k: int) -> float:
        """cli.main again, with spans around cli read -> solver.march -> cli write."""
        self.attempted += 1
        system, c, *_, out_path = self.cases[k]
        start = time.perf_counter()
        with spans.span(self.root), spans.around(cli, SOLVE_STEPS):
            code, _, _ = _run_cli(self._argv(k))
        elapsed = time.perf_counter() - start
        if code != 0 or not self._same_bytes(k, _sha(out_path)):
            print(f"# traced solve of case {k}: exit {code} or output differs from the first call")
            self.failed += 1
        if self.march_results[k] is None:
            self.march_results[k] = self._step_replay(k)
        # Side timings, outside the replayed unit: block_residuals again on
        # the marched field (march ends with it), and evaluate_rhs on a column.
        field = self.march_results[k].field
        with spans.span("toda.block_residuals"):
            block_residuals(system, field, c)
        with spans.span("equations.evaluate_rhs"):
            self._replay_rhs(system, c, field, self.rhs_reps)
        return elapsed

    def _step_replay(self, k: int):
        """The public steps of cmd_solve, by hand: they must write cli.main's bytes."""
        _, _, _, sys_path, bnd_path, out_path = self.cases[k]
        replay_path = out_path.with_name(f"case{k}_replay.json")
        self.attempted += 1
        system, c = cli.system_from_document(cli._load_json(str(sys_path)))
        data = cli.boundary_from_document(cli._load_json(str(bnd_path)), system)
        result = march(system, c, data)
        text = cli.dumps_deterministic(cli.grid_to_document(system, result.field))
        cli._write_text(str(replay_path), text)
        if not self._same_bytes(k, _sha(replay_path)):
            print(f"# the public steps of solve case {k} wrote other bytes than cli.main")
            self.failed += 1
        return result

    @staticmethod
    def _replay_rhs(system, c, field, reps: int):
        """evaluate_rhs at the row half-points of the middle column, as march does."""
        j = field.spec.n_plus // 2
        halves = [0.5 * (b[:-1, j] + b[1:, j]) for b in field.betas]

        def get_c(sign, a):
            return (c.minus if sign == "-" else c.plus)[a - 1]

        equations = independent_equations(system)
        for _ in range(reps):
            for eq in equations:
                evaluate_rhs(eq, lambda a: halves[a - 1], get_c)

    def layer_metrics(self, spans: Spans) -> dict:
        equations = [independent_equations(system) for system, *_ in self.cases]
        sweeps = sum(sum(r.corrector_iterations) for r in self.march_results)
        columns = sum(len(r.corrector_iterations) for r in self.march_results)
        inverted = [
            [f.index for eq in eqs for t in eq.terms for f in t.factors if f.inverse]
            for eqs in equations
        ]
        march_s = spans.median_total("solver.march")
        residuals_s = spans.median_total("toda.block_residuals")
        return {
            "cli.read_s": spans.median_total("cli.read"),
            "cli.bytes_read": sum(p.stat().st_size for *_, sp, bp, _ in self.cases for p in (sp, bp)),
            "cli.write_s": spans.median_total("cli.write"),
            "cli.bytes_written": sum(out.stat().st_size for *_, out in self.cases),
            "solver.march_s": march_s,
            "solver.march_self_s": march_s - residuals_s,
            "solver.columns": columns,
            "solver.corrector_sweeps": sweeps,
            "solver.sweeps_per_column": sweeps / columns,
            # summed over the systems: one station of each
            "equations.evaluate_rhs_us_per_station":
                1e6 * spans.median_total("equations.evaluate_rhs") / (self.rhs_reps * (self.n - 1)),
            "equations.rhs_evals": sum(
                (sum(r.corrector_iterations) + len(r.corrector_iterations)) * len(eqs)
                for r, eqs in zip(self.march_results, equations)
            ),
            "equations.inverses_per_station": sum(len(idx) for idx in inverted),
            "equations.distinct_inverses_per_station": sum(len(set(idx)) for idx in inverted),
            "toda.block_residuals_s": residuals_s,
            "solver.solution_err": self.solution_err,
        }


class LiouvilleSolve(SolveWorkload):
    name = "solve-liouville"

    def __init__(self, work: Path):
        super().__init__(work, n=257)

    @staticmethod
    def make_cases(rng, n):
        return [inputs.liouville_case(rng, n)]

    def finish(self) -> tuple[bool, dict]:
        """Max abs error of the solved grid against the closed form."""
        system, _, data, _, _, out_path = self.cases[0]
        field = cli.grid_from_document(cli._load_json(str(out_path)), system)
        zm, zp = np.meshgrid(data.spec.z_minus, data.spec.z_plus, indexing="ij")
        exact = [np.moveaxis(v, (0, 1), (-2, -1)) for v in liouville_closure()(zm, zp)]
        err = max(float(np.max(np.abs(b - e))) for b, e in zip(field.betas, exact))
        return self._accurate(err, LIOUVILLE_ERR_BOUND)


class ConstrainedSolve(SolveWorkload):
    name = "solve-constrained"

    def __init__(self, work: Path):
        super().__init__(work, n=65)

    @staticmethod
    def make_cases(rng, n):
        return [inputs.constrained_case(rng, case, n) for case in inputs.CONSTRAINED_CASES]

    def finish(self) -> tuple[bool, dict]:
        """Largest achieved block residual over the systems, from the written grids."""
        worst = 0.0
        for system, c, _, _, _, out_path in self.cases:
            field = cli.grid_from_document(cli._load_json(str(out_path)), system)
            worst = max(worst, block_residuals(system, field, c).max_norm)
        return self._accurate(worst, CONSTRAINED_RESIDUAL_BOUND)


# ---------------------------------------------------------------------------
# verify: the D4 (1,3,3,1) field at n=129 that setup solves


class VerifyGrid(Workload):
    name = "verify-grid"
    root = "verify"
    n = 129

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        system, c, data = inputs.constrained_case(rng, inputs.VERIFY_CASE, self.n)
        self.cells = self.n * self.n
        self.texts: set[str] = set()
        self.sys_path, bnd_path = _write_inputs(self.work, "case", system, c, data)
        self.grid_path = self.work / "case_grid.json"
        # Solved in a child process, so this process's peak memory covers
        # the inputs and the timed verify calls, not the solve.
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "todakit.cli", *_solve_argv(self.sys_path, bnd_path, self.grid_path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup solve exited with {proc.returncode}: {proc.stderr[-2000:]}")
        # Warm-up: verify a 9 x 9 solve of the same kind of system.
        system, c, data = inputs.constrained_case(np.random.default_rng(seed), inputs.VERIFY_CASE, 9)
        warm_sys, warm_bnd = _write_inputs(self.work, "warm", system, c, data)
        warm_grid = self.work / "warm_grid.json"
        _run_cli(_solve_argv(warm_sys, warm_bnd, warm_grid))
        _run_cli(["verify", "--system", str(warm_sys), "--grid", str(warm_grid),
                  "--format", "structured"])

    def _argv(self) -> list[str]:
        return ["verify", "--system", str(self.sys_path), "--grid", str(self.grid_path),
                "--tol", str(VERIFY_TOL), "--format", "structured"]

    def call_unit(self, _unit) -> float:
        self.attempted += 1
        try:
            code, text, elapsed = _run_cli(self._argv())
        except Exception as exc:
            print(f"# verify raised {exc!r}")
            self.failed += 1
            return 0.0
        if code != 0:
            print(f"# verify exited with {code}")
            self.failed += 1
        self.texts.add(text)
        return elapsed

    def _library_report(self) -> dict:
        """The residual norms of a verify report, from direct library calls."""
        system, c = cli.system_from_document(cli._load_json(str(self.sys_path)))
        field = cli.grid_from_document(cli._load_json(str(self.grid_path)), system)
        blocks = block_residuals(system, field, c)
        full = residual_full(system, field, c)
        curv = curvature_residual(*connection(system, field, c), field.spec)
        return {
            "block_residuals": {
                label: {"max": m, "l2": l}
                for label, m, l in zip(blocks.labels, blocks.max_norms, blocks.l2_norms)
            },
            "full_residual": {"max": full.max_norm, "l2": full.l2_norm},
            "curvature": {"max": curv.max_norm, "l2": curv.l2_norm},
        }

    def replay_unit(self, spans: Spans, _unit) -> float:
        """cli.main again, with spans around cli read -> toda residuals -> connection/curvature."""
        self.attempted += 1
        start = time.perf_counter()
        with spans.span(self.root), spans.around(cli, VERIFY_STEPS):
            code, text, _ = _run_cli(self._argv())
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"# traced verify exited with {code}")
            self.failed += 1
        self.texts.add(text)
        return elapsed

    def finish(self) -> tuple[bool, dict]:
        """Every verify report says pass and matches direct library calls to round-off."""
        library = self._library_report()
        bad = 0
        for text in self.texts:
            doc = json.loads(text)
            if doc.pop("verdict") != "pass" or not _close(doc, library):
                print("# a verify report disagrees with the library residuals")
                bad += 1
        return bad == 0, {"solution_err": library["full_residual"]["max"]}

    def layer_metrics(self, spans: Spans) -> dict:
        return {
            "cli.read_s": spans.median_total("cli.read"),
            "cli.bytes_read": self.sys_path.stat().st_size + self.grid_path.stat().st_size,
            "toda.block_residuals_s": spans.median_total("toda.block_residuals"),
            "toda.residual_full_s": spans.median_total("toda.residual_full"),
            "toda.connection_s": spans.median_total("toda.connection"),
            "toda.curvature_s": spans.median_total("toda.curvature"),
        }


def _close(report: dict, library: dict) -> bool:
    """Norms in a verify report equal the library's to round-off; extra keys ignored."""
    if isinstance(library, dict):
        return all(key in report and _close(report[key], value) for key, value in library.items())
    return abs(report - library) <= ROUND_OFF * max(abs(library), 1e-300) + 1e-15


# ---------------------------------------------------------------------------
# grading sweep: the exact layer


class GradingSweep(Workload):
    """Criterion-4 sweep: decompose each gradation and span-test sampled brackets.

    Twelve pairs of basis elements are drawn per gradation; each nonzero
    bracket must lie in the subspace of the summed degree.  The pairs of
    each gradation come from a fixed stream rather than the workload seed:
    which degrees get drawn sets the size of each span test, and a fixed
    draw keeps the sweep's work the same from seed to seed.  A unit is one
    gradation, a call one pass over all of them.
    """

    name = "grading-sweep"
    root = "sweep"
    pairs_per_gradation = 12
    pair_seed = 7

    def setup(self, seed: int):
        self.cases = inputs.grading_cases(np.random.default_rng(seed))
        self.units = range(len(self.cases))
        self.counts = None
        for index in range(3):  # warm-up: A1, A2 (1,0), A2 (0,1)
            self._gradation(index, _no_span)

    def _gradation(self, index: int, span, tests: list | None = None) -> bool:
        """Decompose gradation ``index`` and test its brackets; True when every check holds.

        ``tests`` collects (bracket, basis) of each span test, to be counted
        outside the timed unit.
        """
        labels = self.cases[index]
        rng = np.random.default_rng((self.pair_seed, index))
        with span("grading.operator_from_labels"):
            op = operator_from_labels(labels)
        with span("grading.graded_decomposition"):
            dec = graded_decomposition(op)
        ok = dec.total_dimension == labels.tag.algebra_dim
        degrees = dec.degrees
        for _ in range(self.pairs_per_gradation):
            # The sweep's own step: draw a pair and bracket it (liealg).
            with span("sweep.bracket"):
                m, n = (int(x) for x in rng.choice(degrees, size=2))
                x = dec.subspaces[m][int(rng.integers(len(dec.subspaces[m])))]
                y = dec.subspaces[n][int(rng.integers(len(dec.subspaces[n])))]
                z = commutator(x, y)
            if not z.any():
                continue
            basis = dec.subspaces.get(m + n, [])
            with span("grading.exact_span_contains"):
                ok &= exact_span_contains(basis, z)
            if tests is not None:
                tests.append((z, basis))
        return bool(ok)

    def call_unit(self, index: int) -> float:
        self.attempted += 1
        start = time.perf_counter()
        ok = self._gradation(index, _no_span)
        elapsed = time.perf_counter() - start
        if not ok:
            print(f"# gradation {self.cases[index]}: a graded dimension sum or a span test failed")
            self.failed += 1
        return elapsed

    def replay_unit(self, spans: Spans, index: int) -> float:
        self.attempted += 1
        if index == 0:
            self.counts = {"span_tests": 0, "entries": 0, "nonzero": 0}
        tests = []
        start = time.perf_counter()
        with spans.span(self.root):
            ok = self._gradation(index, spans.span, tests)
        elapsed = time.perf_counter() - start
        if not ok:
            self.failed += 1
        for z, basis in tests:
            self.counts["span_tests"] += 1
            self.counts["entries"] += z.size * (len(basis) + 1)
            self.counts["nonzero"] += np.count_nonzero(z) + sum(np.count_nonzero(b) for b in basis)
        # operator_from_labels calls cartan_matrix inside its own span, so
        # the Cartan layer is timed on its own, outside the replayed unit.
        with spans.span("cartan.cartan_matrix"):
            cartan_matrix(self.cases[index].tag)
        return elapsed

    def finish(self) -> tuple[bool, dict]:
        return True, {}

    def layer_metrics(self, spans: Spans) -> dict:
        counts = self.counts
        return {
            "grading.operator_from_labels_s": spans.median_total("grading.operator_from_labels"),
            "grading.graded_decomposition_s": spans.median_total("grading.graded_decomposition"),
            "grading.exact_span_contains_s": spans.median_total("grading.exact_span_contains"),
            "cartan.cartan_matrix_s": spans.median_total("cartan.cartan_matrix"),
            "grading.span_tests": counts["span_tests"],
            "grading.dense_entries_scanned": counts["entries"],
            "grading.nonzero_fraction": counts["nonzero"] / counts["entries"],
        }


def _no_span(_name):
    return contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (LiouvilleSolve, ConstrainedSolve, VerifyGrid, GradingSweep)}
