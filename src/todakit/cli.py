"""Command-line front end: grade, equations, verify, solve, selftest.

File formats are JSON with sorted keys and exactly ``json.dumps``'s floats:
``repr``, the shortest text that reads back to the same double (orjson
produces the digits), so identical inputs serialize to identical bytes.
Every complex array is stored as one flat row-major list of interleaved re,
im floats; its shape comes from the document header (block sizes and grid
size); a document being written holds it as a flat float64 array, which takes
one line, while every other list takes one item per line.  Exit codes: 0 ok,
1 verification failed, 2 invalid input, 3 numeric degeneracy (or a reported
norm out of range), 4 blow-up, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np
import orjson

from .cartan import cartan_matrix
from .exact import SingularMatrixError
from .grading import DynkinLabels, graded_decomposition, levi_type, operator_from_labels
from .liealg import SeriesTag, _max_abs
from .solver import (
    BlowUpError,
    CharacteristicData,
    ConvergenceError,
    liouville_boundary,
    liouville_field,
    liouville_system,
    march,
)
from .toda import (
    CBlocks,
    GridField,
    GridSpec,
    TodaSystem,
    _c_shapes,
    _independent_shapes,
    block_residuals,
    build_system,
    connection,
    curvature_residual,
    emit_equations,
    make_c_blocks,
    residual_full,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_BLOWUP = 4
EXIT_NO_CONVERGENCE = 5


# ---------------------------------------------------------------------------
# deterministic JSON


_CHUNK = 4096  # floats per orjson call: one call per list raised the peak memory


def _float_list(values: np.ndarray, out: list[str]):
    """Append ``json.dumps(values.tolist())`` for a flat float64 array to ``out``: orjson's
    digits for each run of values between those that ``repr`` writes with an exponent
    (nonzero |x| < 1e-4 and |x| >= 1e16, which orjson spells otherwise), and ``repr`` there."""
    out.append("[")
    sep = ""
    for start in range(0, len(values), _CHUNK):
        chunk = values[start:start + _CHUNK]
        if not np.isfinite(chunk).all():  # orjson would write null
            raise ValueError("non-finite float in output document")
        mag = np.abs(chunk)
        run = 0  # the first value not yet written
        for i in np.flatnonzero(((mag < 1e-4) & (mag > 0)) | (mag >= 1e16)).tolist() + [len(chunk)]:
            if i > run:
                text = orjson.dumps(chunk[run:i], option=orjson.OPT_SERIALIZE_NUMPY)
                out += (sep, text[1:-1].replace(b",", b", ").decode())
                sep = ", "
            if i < len(chunk):
                out += (sep, repr(float(chunk[i])))
                sep = ", "
            run = i + 1
    out.append("]")


def _write(obj, indent: int, out: list[str]):
    """Append the text of ``obj`` to ``out``, nested ``indent`` levels deep."""
    if isinstance(obj, dict):
        items, brackets = [(json.dumps(str(key)) + ": ", obj[key]) for key in sorted(obj)], "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = [("", item) for item in obj], "[]"
    elif isinstance(obj, np.ndarray) and obj.dtype == float and obj.ndim == 1:
        _float_list(obj, out)
        return
    else:  # a scalar
        try:
            out.append(json.dumps(obj, allow_nan=False))
        except ValueError:
            raise ValueError("non-finite float in output document") from None
        return
    if not items:
        out.append(brackets)
        return
    inner = "\n" + "  " * (indent + 1)
    for i, (label, item) in enumerate(items):
        out += ((brackets[0] if i == 0 else ",") + inner, label)
        _write(item, indent + 1, out)
    out.append("\n" + "  " * indent + brackets[1])


def dumps_deterministic(obj) -> str:
    """JSON text with sorted keys and ``repr`` floats; a flat float64 array takes one
    line, and a list one item per line.  The pieces are joined once."""
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def matrix_to_json(arr: np.ndarray) -> np.ndarray:
    """A new flat row-major float64 array of interleaved re, im parts."""
    return np.array(arr, complex, order="C").view(float).ravel()


def json_to_matrix(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The complex array of ``shape`` that ``matrix_to_json`` stored as ``data``."""
    size = 2 * math.prod(shape)
    if type(data) is not list or len(data) != size or not set(map(type, data)) <= {float, int}:
        raise ValueError(f"{what}: expected a flat row-major list of {size} re, im numbers")
    try:
        arr = np.array(data, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what}: number out of range") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: non-finite value")
    return arr.view(complex).reshape(shape)


# ---------------------------------------------------------------------------
# file formats


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               list: "a list", dict: "an object"}


def _typed(doc: dict, key: str, kind: type, what: str):
    """``doc[key]``, checked to be there and to have the JSON type ``kind``.

    ``kind=float`` takes any finite JSON number and returns it as a float; a
    bool is never a number.
    """
    if key not in doc:
        raise ValueError(f"{what}: missing key {key!r}")
    value = doc[key]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ValueError(f"{what}: {key} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def _int_list(doc: dict, key: str, what: str) -> list[int]:
    """``doc[key]`` checked to be a list of JSON integers."""
    values = _typed(doc, key, list, what)
    if not all(type(v) is int for v in values):
        raise ValueError(f"{what}: {key} must list integers")
    return values


def _arrays(doc: dict, key: str, shapes, what: str, counts=None) -> list[np.ndarray]:
    """``doc[key]``: a list of stored arrays, read back with ``shapes``.

    It holds ``len(shapes)`` entries, or any number in ``counts`` (taking the
    first shapes).
    """
    raw = _typed(doc, key, list, what)
    counts = sorted(counts or {len(shapes)})
    if len(raw) not in counts:
        raise ValueError(f"{what}: {key} must list {' or '.join(map(str, counts))} blocks, got {len(raw)}")
    return [json_to_matrix(entry, shape, f"{key}[{a}]") for a, (entry, shape) in enumerate(zip(raw, shapes))]


# GridSpec fields as stored in the "grid" object of grid and boundary documents
_GRID_FLOATS = ("z_minus_start", "z_plus_start", "h_minus", "h_plus")
_GRID_INTS = ("n_minus", "n_plus")


def _header(kind: str, system: TodaSystem, spec: GridSpec | None = None) -> dict:
    """The keys every document starts with: kind, series, rank, blocks and, for
    grid and boundary documents, the grid."""
    doc = {
        "kind": kind,
        "series": system.tag.series,
        "rank": system.tag.rank,
        "blocks": list(system.blocks.sizes),
    }
    if spec is not None:
        doc["grid"] = {key: float(getattr(spec, key)) for key in _GRID_FLOATS}
        doc["grid"].update((key, int(getattr(spec, key))) for key in _GRID_INTS)
    return doc


def _checked_header(doc: dict, kind: str, system: TodaSystem) -> GridSpec:
    """The grid of a grid or boundary document, after checking that its kind is
    ``kind`` and that its series, rank and blocks are those of ``system``."""
    if doc.get("kind") != kind:
        raise ValueError(f"not a {kind} document")
    name = kind.removeprefix("toda-")
    if (_typed(doc, "series", str, kind) != system.tag.series
            or _typed(doc, "rank", int, kind) != system.tag.rank):
        raise ValueError(f"{name} file does not match the system file's series/rank")
    if _int_list(doc, "blocks", kind) != list(system.blocks.sizes):
        raise ValueError(f"{name} file block sizes do not match the system file")
    grid = _typed(doc, "grid", dict, kind)
    return GridSpec(
        *(_typed(grid, key, float, "grid") for key in _GRID_FLOATS),
        *(_typed(grid, key, int, "grid") for key in _GRID_INTS),
    )


def system_to_document(system: TodaSystem, c: CBlocks) -> dict:
    """The system file of ``system`` and its couplings, which must be constant."""
    doc = _header("toda-system", system)
    for key, entries in (("c_minus", c.minus), ("c_plus", c.plus)):
        for a, entry in enumerate(entries):
            if entry.ndim != 2:
                raise ValueError(f"{key}[{a}] varies along its line; system files hold constant couplings")
        doc[key] = [matrix_to_json(entry) for entry in entries]
    return doc


def system_from_document(doc: dict) -> tuple[TodaSystem, CBlocks]:
    what = "toda-system"
    if doc.get("kind") != what:
        raise ValueError("not a toda-system document")
    tag = SeriesTag(_typed(doc, "series", str, what), _typed(doc, "rank", int, what))
    system = build_system(tag, _int_list(doc, "blocks", what))
    counts = {system.independent_c_count, system.blocks.count - 1}
    minus, plus = (_arrays(doc, key, _c_shapes(system, sign), what, counts)
                   for key, sign in (("c_minus", "-"), ("c_plus", "+")))
    return system, make_c_blocks(system, minus, plus)


def grid_to_document(system: TodaSystem, field: GridField) -> dict:
    doc = _header("toda-grid", system, field.spec)
    doc["block_index"] = list(range(1, system.independent_beta_count + 1))
    doc["betas"] = [matrix_to_json(b) for b in field.betas]
    return doc


def grid_from_document(doc: dict, system: TodaSystem) -> GridField:
    what = "toda-grid"
    spec = _checked_header(doc, what, system)
    count = system.independent_beta_count
    if _int_list(doc, "block_index", what) != list(range(1, count + 1)):
        raise ValueError(f"{what}: block_index must list 1..{count}")
    shapes = [(spec.n_minus, spec.n_plus, *shape) for shape in _independent_shapes(system)]
    return GridField(spec, tuple(_arrays(doc, "betas", shapes, what)))


def boundary_to_document(system: TodaSystem, data: CharacteristicData) -> dict:
    doc = _header("toda-boundary", system, data.spec)
    doc["left"] = [matrix_to_json(line) for line in data.left]
    doc["bottom"] = [matrix_to_json(line) for line in data.bottom]
    return doc


def boundary_from_document(doc: dict, system: TodaSystem) -> CharacteristicData:
    what = "toda-boundary"
    spec = _checked_header(doc, what, system)
    left, bottom = (_arrays(doc, key, [(n, *shape) for shape in _independent_shapes(system)], what)
                    for key, n in (("left", spec.n_minus), ("bottom", spec.n_plus)))
    return CharacteristicData(spec, tuple(left), tuple(bottom))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")  # text + "\n" would copy the whole document


# ---------------------------------------------------------------------------
# subcommands


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list") from exc


def cmd_grade(args) -> int:
    tag = SeriesTag(args.series, args.rank)
    labels = DynkinLabels(tag, _parse_csv_ints(args.labels, "--labels"))
    op = operator_from_labels(labels)
    decomp = graded_decomposition(op)
    levi = levi_type(op.blocks)
    diagonal = [str(q) for q in op.diagonal]
    dims = {str(m): decomp.dimension(m) for m in decomp.degrees}
    if args.format == "structured":
        doc = {
            "series": tag.series,
            "rank": tag.rank,
            "labels": list(labels.labels),
            "diagonal": diagonal,
            "levels": [str(level) for level in op.levels],
            "block_sizes": list(op.blocks.sizes),
            "steps": list(op.blocks.steps),
            "degree_dimensions": dims,
            "levi_type": str(levi),
        }
        print(dumps_deterministic(doc))
        return EXIT_OK
    diag = ", ".join(diagonal)
    if args.format == "latex":
        print(rf"q = \mathrm{{diag}}({diag})")
        print(rf"% blocks {op.blocks.sizes}, steps {op.blocks.steps}, G_0 \cong {levi}")
        return EXIT_OK
    print(f"series {tag.series} rank {tag.rank}, labels {labels.labels}")
    print(f"q = diag({diag})")
    print(f"block sizes {op.blocks.sizes}, steps {op.blocks.steps}")
    print("degree dimensions: " + ", ".join(f"{m}: {dims[str(m)]}" for m in decomp.degrees))
    print(f"G0 = {levi}")
    return EXIT_OK


def _system_from_args(args) -> tuple[TodaSystem, CBlocks | None]:
    if getattr(args, "system", None):
        return system_from_document(_load_json(args.system))
    if None in (args.series, args.rank, args.blocks):
        raise ValueError("provide --system FILE or all of --series/--rank/--blocks")
    tag = SeriesTag(args.series, args.rank)
    system = build_system(tag, _parse_csv_ints(args.blocks, "--blocks"))
    return system, None


def cmd_equations(args) -> int:
    system, _ = _system_from_args(args)
    result = emit_equations(system, args.format)
    print(dumps_deterministic(result) if args.format == "structured" else result)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    system, c = system_from_document(_load_json(args.system))
    field = grid_from_document(_load_json(args.grid), system)
    with np.errstate(all="ignore"):  # a norm out of range is reported below
        blocks = block_residuals(system, field, c)
        full = residual_full(system, field, c)
        om, op_ = connection(system, field, c)
        curv = curvature_residual(om, op_, field.spec)
    if not all(map(math.isfinite, (*blocks.max_norms, *blocks.l2_norms, full.max_norm, full.l2_norm,
                                   curv.max_norm, curv.l2_norm))):
        raise FloatingPointError("residual or curvature norm is not finite")
    verdict = full.max_norm <= args.tol
    if args.format == "structured":
        doc = {
            "block_residuals": {
                label: {"max": m, "l2": l}
                for label, m, l in zip(blocks.labels, blocks.max_norms, blocks.l2_norms)
            },
            "full_residual": {"max": full.max_norm, "l2": full.l2_norm},
            "curvature": {"max": curv.max_norm, "l2": curv.l2_norm},
            "tolerance": args.tol,
            "verdict": "pass" if verdict else "fail",
        }
        print(dumps_deterministic(doc))
    else:
        print("block residuals (max | l2):")
        for label, m, l in zip(blocks.labels, blocks.max_norms, blocks.l2_norms):
            print(f"  {label}: {m:.6e} | {l:.6e}")
        print(f"full residual max: {full.max_norm:.6e}")
        print(f"curvature max:     {curv.max_norm:.6e}")
        print(f"verdict: {'PASS' if verdict else 'FAIL'} (tol {args.tol:g})")
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_solve(args) -> int:
    system, c = system_from_document(_load_json(args.system))
    data = boundary_from_document(_load_json(args.boundary), system)
    if args.grid is not None and (data.spec.n_minus != args.grid or data.spec.n_plus != args.grid):
        raise ValueError(
            f"--grid {args.grid} does not match the boundary file "
            f"({data.spec.n_minus} x {data.spec.n_plus})"
        )
    result = march(system, c, data)
    res = result.residual
    if not (math.isfinite(res.max_norm) and math.isfinite(res.l2_norm)):
        raise FloatingPointError(f"achieved residual is not finite (max {res.max_norm}, l2 {res.l2_norm})")
    _write_text(args.out, dumps_deterministic(grid_to_document(system, result.field)))
    print(f"wrote {args.out}")
    print(f"achieved residual max {res.max_norm:.6e} (l2 {res.l2_norm:.6e})")
    print(
        "hint: the scheme is second order; halving the step should shrink "
        "the residual by about a factor of 4"
    )
    return EXIT_OK


def cmd_selftest(args) -> int:
    del args
    checks: list[tuple[str, bool]] = []

    from .exact import rational_matrix, rmat_equal, rmat_inverse

    a = rational_matrix([[2, -1], [-1, 2]])
    checks.append(("exact inverse roundtrip",
                   rmat_equal(a @ rmat_inverse(a), rational_matrix(np.eye(2, dtype=int)))))

    km = cartan_matrix(SeriesTag("B", 2))
    checks.append(("cartan B2 inverse", str(km.inverse[1, 0]) == "1/2"))

    tag = SeriesTag("A", 2)
    op = operator_from_labels(DynkinLabels(tag, (1, 0)))
    checks.append(("grading A2 (1,0)", str(op.diagonal[0]) == "2/3"))

    spec_c = GridSpec(0.0, 5.0, 1.0 / 16, 1.0 / 16, 17, 17)
    spec_f = GridSpec(0.0, 5.0, 1.0 / 32, 1.0 / 32, 33, 33)
    coarse = liouville_field(spec_c)
    fine = liouville_field(spec_f)
    rc = residual_full(coarse.system, coarse.field, coarse.c).max_norm
    rf = residual_full(fine.system, fine.field, fine.c).max_norm
    order = math.log2(rc / rf)
    checks.append(("residual order ~ 2", 1.6 < order < 2.4))

    system = liouville_system()
    data = liouville_boundary(spec_c)
    result = march(system, coarse.c, data)
    err = max(_max_abs(result.field.betas[a] - coarse.field.betas[a]) for a in range(2))
    checks.append(("march reproduces closed form", err < 1e-3))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's rule: "-" then a digit is a value, so "--labels -1,0,0" reaches the label check
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # a usage error is invalid input: one line, exit 2
        raise ValueError(message)


@functools.cache  # one parser per process: building it costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="todakit",
        description="Block gradations of classical Lie algebras and nonabelian Toda systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grade = sub.add_parser("grade", help="grading operator and block data from labels")
    grade.add_argument("--series", required=True, choices=list("ABCD"))
    grade.add_argument("--rank", required=True, type=int)
    grade.add_argument("--labels", required=True, help="comma-separated nonnegative integers")
    grade.add_argument("--format", default="text", choices=["text", "latex", "structured"])
    grade.set_defaults(handler=cmd_grade)

    eqs = sub.add_parser("equations", help="emit the independent block equations")
    eqs.add_argument("--system", help="toda-system JSON file")
    eqs.add_argument("--series", choices=list("ABCD"))
    eqs.add_argument("--rank", type=int)
    eqs.add_argument("--blocks", help="comma-separated block sizes")
    eqs.add_argument("--format", default="text", choices=["text", "latex", "structured"])
    eqs.set_defaults(handler=cmd_equations)

    verify = sub.add_parser("verify", help="residual and curvature report for a sampled field")
    verify.add_argument("--system", required=True)
    verify.add_argument("--grid", required=True)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--format", default="text", choices=["text", "structured"])
    verify.set_defaults(handler=cmd_verify)

    solve = sub.add_parser("solve", help="march characteristic boundary data across the grid")
    solve.add_argument("--system", required=True)
    solve.add_argument("--boundary", required=True)
    solve.add_argument("--grid", type=int, help="expected grid size (consistency check)")
    solve.add_argument("--out", required=True)
    solve.set_defaults(handler=cmd_solve)

    selftest = sub.add_parser("selftest", help="run a quick built-in verification battery")
    selftest.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (OSError, ValueError) as exc:  # JSON, shape, constraint, gradation, domain errors too
        print(f"todakit: error[input]: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (SingularMatrixError, FloatingPointError) as exc:  # a non-finite reported norm too
        print(f"todakit: error[degenerate]: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BlowUpError as exc:
        print(f"todakit: error[blow-up]: {exc} at {exc.location}", file=sys.stderr)
        return EXIT_BLOWUP
    except ConvergenceError as exc:
        print(f"todakit: error[no-convergence]: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
