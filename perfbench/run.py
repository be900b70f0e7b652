"""Benchmark runner for todakit: one workload per run, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload solve-liouville --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times untraced end-to-end calls and prints the end-to-end
metrics; ``--trace 1`` follows each unit of an untraced call with a replay
of it that has a span around each public step, and prints the per-layer
metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report the run context and every metric by name and unit.  Spans are kept
in memory and written to ``.perfbench/`` when a traced run ends.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; every workload is one closed-loop client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("solve-liouville", "solve-constrained", "verify-grid", "grading-sweep")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_SAMPLES = 3
MIN_TRACED = 4
MIN_SPAN_COVERAGE = 0.9

END_TO_END = {"setup_s": "s", "wall_s.p50": "s", "peak_rss_mb": "MB"}
# Counts marked computed are derived from formulas or array sizes, not
# counted inside the program.  A layer a workload does not reach reports 0.
PER_LAYER = {
    "cli.read_s": "s",
    "cli.bytes_read": "B",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "solver.march_s": "s",
    "solver.march_self_s": "s",  # estimate: march_s minus a separate block_residuals
    "solver.columns": "count",
    "solver.corrector_sweeps": "count",
    "solver.sweeps_per_column": "ratio",
    "solver.solution_err": "abs",
    "equations.evaluate_rhs_us_per_station": "us",
    "equations.rhs_evals": "count",
    "equations.inverses_per_station": "count",
    "equations.distinct_inverses_per_station": "count",
    "toda.block_residuals_s": "s",
    "toda.residual_full_s": "s",
    "toda.connection_s": "s",
    "toda.curvature_s": "s",
    "grading.operator_from_labels_s": "s",
    "grading.graded_decomposition_s": "s",
    "grading.exact_span_contains_s": "s",
    "cartan.cartan_matrix_s": "s",
    "grading.span_tests": "count",
    "grading.dense_entries_scanned": "count",
    "grading.nonzero_fraction": "ratio",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}
COMPUTED = {"equations.rhs_evals", "grading.dense_entries_scanned"}


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: shows machine drift, normalises nothing."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds() -> float:
    """Median seconds to import numpy, scipy and todakit, each time in a fresh interpreter."""
    code = "import time; s = time.perf_counter(); import workloads; print(time.perf_counter() - s)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (value, percentile)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def context(seed: int, calibration: list[float]) -> dict:
    import numpy
    import scipy

    threads = "?"
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = line.split()[1]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "seed": seed,
        "calibration_s": calibration,
    }


def measure(wl, seconds: float) -> tuple[list[float], dict]:
    """Closed loop, one client: the next call starts when the last one ends.

    Returns the wall time of each call and, per unit, of each of its runs.
    """
    samples: list[float] = []
    per_unit: dict = {unit: [] for unit in wl.units}
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start + samples[-1] <= seconds:
        call = 0.0
        for unit in wl.units:
            elapsed = wl.call_unit(unit)
            per_unit[unit].append(elapsed)
            call += elapsed
        samples.append(call)
    return samples, per_unit


def median_call(per_unit: dict) -> float:
    """Median wall time of one call, as the sum of each unit's median time.

    Summing per-unit medians uses every run of every unit, so one slow
    spell of the host moves the figure less than it moves a median of
    whole calls.
    """
    return sum(statistics.median(times) for times in per_unit.values())


def measure_traced(wl, spans, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced calls, each unit followed at once by its traced replay.

    Call ``i`` and its replay (span request ``i + 1``) run unit by unit, so
    the two sides of each unit meet the host in the same state.
    """
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while len(traced) < MIN_TRACED or time.perf_counter() - start + last <= seconds:
        pair = time.perf_counter()
        spans.request += 1
        call = replay = 0.0
        for unit in wl.units:
            call += wl.call_unit(unit)
            replay += wl.replay_unit(spans, unit)
        untraced.append(call)
        traced.append(replay)
        last = time.perf_counter() - pair
    return untraced, traced


def span_coverage(spans, root: str) -> list[float]:
    """Per request: seconds in the layer spans over seconds in the root spans.

    A root span holds the whole unit as the untraced call runs it (all of
    ``cli.main`` on the CLI workloads), so work it does outside the public
    steps shows as a low share.  Both sides come from the same calls, so the
    host's slow and fast spells, which last seconds, do not enter the ratio.
    """
    covered = spans.covered(root)
    return [covered.get(request, 0.0) / total for request, total in spans.totals(root).items()]


def print_metric(name: str, value, unit: str, note: str = ""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:42s} {shown:>14s} {unit}{'  ' + note if note else ''}")


def run_one(args) -> int:
    if not (ROOT / "src" / "todakit" / "__init__.py").is_file():
        print(f"perfbench: no todakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, scipy and todakit

    import_s = import_seconds()
    calibration = [calibrate()]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work)
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            wl.setup(args.seed)
            setups.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            spans = workloads.Spans()
            samples, traced = measure_traced(wl, spans, args.seconds)
            p50 = statistics.median(samples)
        else:
            samples, per_unit = measure(wl, args.seconds)
            p50 = median_call(per_unit)
        peak = peak_rss_mb()
        ok, extra = wl.finish()
        calibration.append(calibrate())
        ctx = context(args.seed, calibration)
        failed = wl.failed if ok else wl.attempted

        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("# context " + json.dumps(ctx, sort_keys=True))
        if args.trace:
            layers = dict.fromkeys(PER_LAYER, 0)
            layers.update(wl.layer_metrics(spans))
            layers["trace.overhead_s"] = statistics.median(traced) - p50
            ratios = span_coverage(spans, wl.root)
            coverage = statistics.median(ratios)
            layers["trace.span_coverage"] = coverage
            print("# span coverage per replay " + json.dumps([round(r, 4) for r in ratios]))
            if coverage < MIN_SPAN_COVERAGE:
                print(f"# layer spans cover {coverage:.1%} of the traced calls, "
                      f"under {MIN_SPAN_COVERAGE:.0%}")
                failed = wl.attempted
            print(f"# {len(traced)} traced replays, {len(samples)} untraced calls; "
                  "single-threaded, so no layer waits on another")
            for name, unit in PER_LAYER.items():
                print_metric(name, layers[name], unit, "computed" if name in COMPUTED else "")
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"context": ctx, "spans": spans.dump()}))
        else:
            values = {"setup_s": setup_s, "wall_s.p50": p50, "peak_rss_mb": peak}
            for name, unit in END_TO_END.items():
                print_metric(name, values[name], unit,
                             f"sum of unit medians, n={len(samples)}" if name == "wall_s.p50" else "")
            print("# samples_s " + json.dumps(samples))
            high = tail(samples)
            if high:
                print_metric("wall_s.tail", high[0], "s", f"p{high[1]:.0f} of n={len(samples)}")
            else:
                print_metric("wall_s.tail", "n/a", "s", f"needs 11 samples, have {len(samples)}")
            if wl.cells:
                print_metric("us_per_cell", 1e6 * p50 / wl.cells, "us", f"{wl.cells} cells per call")
            print_metric("failed_ratio", failed / wl.attempted, "ratio", f"{failed} of {wl.attempted}")
            if "solution_err" in extra:
                print_metric("solution_err", extra["solution_err"], "abs")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(json.dumps({"correct": failed == 0, "attempted": wl.attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other; merged result last."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
