import argparse
import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import todakit as tk
from todakit.cli import (
    boundary_to_document,
    dumps_deterministic,
    grid_to_document,
    json_to_matrix,
    main,
    matrix_to_json,
    system_to_document,
)
from todakit.solver import liouville_boundary, liouville_field
from todakit.toda import emit_equations

from conftest import boundary_from_closure, random_couplings, singular_station_case, smooth_closure

GOLDEN = Path(__file__).parent / "golden"


def write_json(path: Path, doc) -> str:
    text = dumps_deterministic(doc) + "\n"
    path.write_text(text)
    return text


def test_golden_files_are_reproducible():
    spec5 = tk.GridSpec(0.0, 8.0, 0.25, 0.25, 5, 5)
    lv5 = liouville_field(spec5)
    assert (GOLDEN / "system_liouville.json").read_text() == \
        dumps_deterministic(system_to_document(lv5.system, lv5.c)) + "\n"
    assert (GOLDEN / "grid_liouville_5x5.json").read_text() == \
        dumps_deterministic(grid_to_document(lv5.system, lv5.field)) + "\n"
    spec9 = tk.GridSpec(0.0, 8.0, 0.125, 0.125, 9, 9)
    assert (GOLDEN / "boundary_liouville_9x9.json").read_text() == \
        dumps_deterministic(boundary_to_document(lv5.system, liouville_boundary(spec9))) + "\n"
    sys_c = tk.build_system(tk.SeriesTag("C", 2), (1, 2, 1))
    assert (GOLDEN / "equations_C2_121_structured.json").read_text() == \
        dumps_deterministic(emit_equations(sys_c, "structured")) + "\n"


def test_grade_text(capsys):
    assert main(["grade", "--series", "A", "--rank", "2", "--labels", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "q = diag(2/3, -1/3, -1/3)" in out
    assert "G0 = GL(1) x GL(2)" in out


def test_grade_structured_uses_exact_strings(capsys):
    assert main(["grade", "--series", "B", "--rank", "3", "--labels", "0,1,0",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["block_sizes"] == [2, 3, 2]
    assert doc["levi_type"] == "GL(2) x SO(3)"
    assert all("/" in level or level.lstrip("-").isdigit() for level in doc["levels"])


def test_grade_rejects_zero_labels(capsys):
    assert main(["grade", "--series", "D", "--rank", "3", "--labels", "0,0,0"]) == 2
    assert "error[input]" in capsys.readouterr().err


def test_equations_inline_and_invalid(capsys):
    assert main(["equations", "--series", "C", "--rank", "2", "--blocks", "1,2,1"]) == 0
    out = capsys.readouterr().out
    assert "Jtilde_1" in out
    assert main(["equations", "--series", "D", "--rank", "3", "--blocks", "1,2,2"]) == 2
    assert "error[input]" in capsys.readouterr().err


def test_equations_rank_zero_names_the_rank_rule(capsys):
    assert main(["equations", "--series", "A", "--rank", "0", "--blocks", "1,1"]) == 2
    assert capsys.readouterr().err == "todakit: error[input]: series A requires rank >= 1, got 0\n"


def test_main_reuses_one_parser(capsys, monkeypatch):
    argv = ["grade", "--series", "B", "--rank", "3", "--labels", "0,1,0"]
    assert main(argv) == 0  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0
    assert built == []


@pytest.mark.parametrize("argv", [
    ["grade", "--series", "E", "--rank", "2", "--labels", "1,0"],
    ["grade", "--series", "A", "--rank", "x", "--labels", "1,0"],
    ["grade", "--series", "A", "--rank", "3", "--labels", "-1,0,0"],
    ["verify", "--system", "system.json", "--grid", "grid.json", "--tol", "abc"],
    ["verify", "--system", "system.json"],
    ["grade", "--series", "A", "--rank", "2", "--labels", "1,0", "--extra"],
    [],
], ids=["series", "rank", "labels", "tol", "missing-flag", "unknown-flag", "no-command"])
def test_usage_error_is_one_input_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("todakit: error[input]: ")


def test_negative_label_reaches_the_label_check(capsys):
    # "-1,0,0" is a value, not an option: "-" followed by a digit, as in Python 3.13's argparse
    assert main(["grade", "--series", "B", "--rank", "3", "--labels", "-1,0,0"]) == 2
    assert capsys.readouterr().err == "todakit: error[input]: labels must be nonnegative\n"


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["grade", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: todakit grade")


def test_equations_from_system_file(tmp_path, capsys):
    spec = tk.GridSpec(0.0, 8.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    system_file = tmp_path / "system.json"
    write_json(system_file, system_to_document(lv.system, lv.c))
    assert main(["equations", "--system", str(system_file), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constraint_set"] == "A-none"


def test_verify_pass_and_fail(tmp_path, capsys):
    spec = tk.GridSpec(0.0, 7.0, 1.0 / 64, 1.0 / 64, 65, 65)
    lv = liouville_field(spec)
    system_file = tmp_path / "system.json"
    grid_file = tmp_path / "grid.json"
    write_json(system_file, system_to_document(lv.system, lv.c))
    write_json(grid_file, grid_to_document(lv.system, lv.field))
    assert main(["verify", "--system", str(system_file), "--grid", str(grid_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # constant non-solution: unit field with unit couplings
    bad_system = tk.build_system(tk.SeriesTag("A", 1), (1, 1))
    bad_c = tk.make_c_blocks(bad_system, [np.array([[1.0]])], [np.array([[1.0]])])
    spec_small = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    ones = np.ones((5, 5, 1, 1), dtype=complex)
    bad_field = tk.GridField(spec_small, (ones, ones.copy()))
    write_json(system_file, system_to_document(bad_system, bad_c))
    write_json(grid_file, grid_to_document(bad_system, bad_field))
    assert main(["verify", "--system", str(system_file), "--grid", str(grid_file),
                 "--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    assert abs(doc["full_residual"]["max"] - 1.0) < 1e-12


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_verify_reports_a_huge_finite_residual_as_failure(tmp_path, capsys, fmt):
    doc = json.loads((GOLDEN / "grid_liouville_5x5.json").read_text())
    doc["betas"][0][0] = 1e300  # real part of beta_1 at the corner sample
    grid_file = tmp_path / "grid.json"
    write_json(grid_file, doc)
    assert main(["verify", "--system", str(GOLDEN / "system_liouville.json"),
                 "--grid", str(grid_file), "--format", fmt]) == 1
    if fmt == "structured":
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"
        assert np.isfinite(out["full_residual"]["l2"]) and out["full_residual"]["max"] > 1e299


def test_verify_mismatched_blocks(tmp_path, capsys):
    spec = tk.GridSpec(0.0, 8.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    other = tk.build_system(tk.SeriesTag("A", 2), (1, 2))
    other_c = tk.make_c_blocks(other, [np.zeros((2, 1))], [np.zeros((1, 2))])
    system_file = tmp_path / "system.json"
    grid_file = tmp_path / "grid.json"
    write_json(system_file, system_to_document(other, other_c))
    write_json(grid_file, grid_to_document(lv.system, lv.field))
    assert main(["verify", "--system", str(system_file), "--grid", str(grid_file)]) == 2
    assert "error[input]" in capsys.readouterr().err


def test_solve_verify_round_trip(tmp_path, capsys):
    spec = tk.GridSpec(0.0, 8.0, 1.0 / 32, 1.0 / 32, 33, 33)
    lv = liouville_field(spec)
    system_file = tmp_path / "system.json"
    boundary_file = tmp_path / "boundary.json"
    out_file = tmp_path / "solved.json"
    write_json(system_file, system_to_document(lv.system, lv.c))
    write_json(boundary_file, boundary_to_document(lv.system, liouville_boundary(spec)))
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(out_file), "--grid", "33"]) == 0
    capsys.readouterr()
    assert main(["verify", "--system", str(system_file), "--grid", str(out_file),
                 "--tol", "1e-4"]) == 0
    capsys.readouterr()

    # byte determinism of the solve output
    first = out_file.read_bytes()
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_bytes() == first


def test_solve_singular_corner(tmp_path, capsys):
    spec = tk.GridSpec(0.0, 2.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    data = liouville_boundary(spec)
    doc = boundary_to_document(lv.system, data)
    doc["left"][0][4:6] = [0.0, 0.0]  # kill one 1 x 1 sample (re, im of sample 2)
    system_file = tmp_path / "system.json"
    boundary_file = tmp_path / "boundary.json"
    write_json(system_file, system_to_document(lv.system, lv.c))
    write_json(boundary_file, doc)
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "error[input]" in err and "not invertible" in err


def test_solve_blowup_exit_code(tmp_path, capsys):
    system = tk.build_system(tk.SeriesTag("A", 1), (1, 1))
    c = tk.make_c_blocks(system, [np.array([[1.0]])], [np.array([[1.0]])])
    spec = tk.GridSpec(0.0, 0.0, 1.0 / 16, 0.9 / 16, 17, 17)
    anti = lambda zm, zp: (1.5 - zp) - zm
    left1 = np.array([[[anti(zm, 0.0)]] for zm in spec.z_minus], dtype=complex)
    bottom1 = np.array([[[anti(0.0, zp)]] for zp in spec.z_plus], dtype=complex)
    data = tk.CharacteristicData(spec, (left1, 1 / left1), (bottom1, 1 / bottom1))
    system_file = tmp_path / "system.json"
    boundary_file = tmp_path / "boundary.json"
    write_json(system_file, system_to_document(system, c))
    write_json(boundary_file, boundary_to_document(system, data))
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(tmp_path / "x.json")]) == 4
    assert "error[blow-up]" in capsys.readouterr().err


def test_solve_singular_station_exit_code(tmp_path, capsys):
    system, c, data = singular_station_case()
    system_file = tmp_path / "system.json"
    boundary_file = tmp_path / "boundary.json"
    write_json(system_file, system_to_document(system, c))
    write_json(boundary_file, boundary_to_document(system, data))
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(tmp_path / "x.json")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[blow-up]"), err


def test_verify_singular_sample_exit_code(tmp_path, capsys):
    doc = json.loads((GOLDEN / "grid_liouville_5x5.json").read_text())
    doc["betas"][0][24:26] = [0.0, 0.0]  # beta_1 at sample (2, 2) of the 5 x 5 grid
    grid_file = tmp_path / "grid.json"
    write_json(grid_file, doc)
    assert main(["verify", "--system", str(GOLDEN / "system_liouville.json"),
                 "--grid", str(grid_file)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[degenerate]"), err


def test_solve_non_convergence_exit_code(tmp_path, capsys):
    system = tk.build_system(tk.SeriesTag("A", 1), (1, 1))
    c = tk.make_c_blocks(system, [np.array([[100.0]])], [np.array([[100.0]])])
    spec = tk.GridSpec(0.0, 2.0, 0.5, 0.5, 5, 5)
    ones = np.ones((5, 1, 1), dtype=complex)
    data = tk.CharacteristicData(spec, (ones, ones.copy()), (ones.copy(), ones.copy()))
    system_file = tmp_path / "system.json"
    boundary_file = tmp_path / "boundary.json"
    write_json(system_file, system_to_document(system, c))
    write_json(boundary_file, boundary_to_document(system, data))
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(tmp_path / "x.json")]) == 5
    assert "error[no-convergence]" in capsys.readouterr().err


def _block_1_samples(value):
    def mutate(doc):
        for key in ("left", "bottom"):
            doc[key][0] = [value, 0.0] * 9
    return mutate


@pytest.mark.parametrize("name, mutate, code", [
    ("boundary_liouville_9x9.json", lambda doc: doc["grid"].update(h_minus=1e-300, h_plus=1e-300), 3),
    ("grid_liouville_5x5.json", lambda doc: doc["grid"].update(h_minus=1e-320), 3),
    ("boundary_liouville_9x9.json", lambda doc: doc["grid"].update(h_minus=1e300, h_plus=1e300), 4),
    ("boundary_liouville_9x9.json", _block_1_samples(1e300), 4),
    ("boundary_liouville_9x9.json", _block_1_samples(1e-300), 4),
], ids=["solve-h-1e-300", "verify-h-1e-320", "solve-h-1e300", "solve-samples-1e300", "solve-samples-1e-300"])
def test_extreme_finite_input_is_one_error_line(tmp_path, capsys, name, mutate, code):
    # finite input whose residual norms or samples leave the float range: one
    # error line, no numpy warning and no file written
    doc = json.loads((GOLDEN / name).read_text())
    mutate(doc)
    doc_file, out_file = tmp_path / name, tmp_path / "out.json"
    doc_file.write_text(json.dumps(doc))
    system = str(GOLDEN / "system_liouville.json")
    argv = (["verify", "--system", system, "--grid", str(doc_file)] if name.startswith("grid")
            else ["solve", "--system", system, "--boundary", str(doc_file), "--out", str(out_file)])
    assert main(argv) == code
    captured = capsys.readouterr()
    kind = "degenerate" if code == 3 else "blow-up"
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith(f"todakit: error[{kind}]"), err
    assert not out_file.exists()


def _drop_grid(doc):
    del doc["grid"]
    return doc


def _short_left(doc):
    doc["left"] = doc["left"][:1]
    return doc


def _nan_sample(doc):
    doc["left"][0][4] = float("nan")  # re of sample 2
    return doc


@pytest.mark.parametrize("mutate", [
    _drop_grid,
    lambda doc: [doc],
    _short_left,
    _nan_sample,
], ids=["missing-grid", "top-level-array", "short-left", "nan-sample"])
def test_solve_malformed_boundary_is_invalid_input(tmp_path, capsys, mutate):
    doc = mutate(json.loads((GOLDEN / "boundary_liouville_9x9.json").read_text()))
    boundary_file = tmp_path / "boundary.json"
    boundary_file.write_text(json.dumps(doc))
    assert main(["solve", "--system", str(GOLDEN / "system_liouville.json"),
                 "--boundary", str(boundary_file), "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[input]"), err


@pytest.mark.parametrize("key, value", [("series", "C"), ("rank", 5), ("rank", None), ("blocks", 5)])
def test_solve_rejects_boundary_of_another_system(tmp_path, capsys, key, value):
    system = tk.build_system(tk.SeriesTag("D", 4), (1, 3, 3, 1))
    c = tk.make_c_blocks(system, [np.zeros((3, 1)), np.zeros((3, 3))],
                         [np.zeros((1, 3)), np.zeros((3, 3))])
    spec = tk.GridSpec(0.0, 0.0, 0.25, 0.25, 5, 5)
    lines = tuple(np.broadcast_to(np.eye(k, dtype=complex), (5, k, k)) for k in (1, 3))
    boundary = boundary_to_document(system, tk.CharacteristicData(spec, lines, lines))
    boundary[key] = value
    system_file, boundary_file = tmp_path / "system.json", tmp_path / "boundary.json"
    write_json(system_file, system_to_document(system, c))
    write_json(boundary_file, boundary)
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[input]"), err


def _one_input_error(capsys) -> str:
    """The single stderr line, checked to be an input error."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[input]"), err
    return err[0]


@pytest.mark.parametrize("key, value", [
    ("rank", None), ("rank", 1.5), ("blocks", None), ("blocks", [1.5, 1.5]),
    ("c_minus", 5), ("c_minus", [{}]),
])
def test_malformed_system_is_invalid_input(tmp_path, capsys, key, value):
    doc = json.loads((GOLDEN / "system_liouville.json").read_text())
    doc[key] = value
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps(doc))
    assert main(["equations", "--system", str(system_file)]) == 2
    _one_input_error(capsys)


def test_deeply_nested_document_is_invalid_input(tmp_path, capsys):
    # json.load raises RecursionError on this document, not a ValueError
    system_file = tmp_path / "deep.json"
    system_file.write_text("[" * 200000 + "]" * 200000)
    assert main(["equations", "--system", str(system_file)]) == 2
    assert "nested too deeply" in _one_input_error(capsys)


@pytest.mark.parametrize("key, value", [("h_minus", None), ("n_minus", [9]), ("n_minus", 9.5)])
def test_malformed_boundary_grid_is_invalid_input(tmp_path, capsys, key, value):
    doc = json.loads((GOLDEN / "boundary_liouville_9x9.json").read_text())
    doc["grid"][key] = value
    boundary_file = tmp_path / "boundary.json"
    boundary_file.write_text(json.dumps(doc))
    assert main(["solve", "--system", str(GOLDEN / "system_liouville.json"),
                 "--boundary", str(boundary_file), "--out", str(tmp_path / "x.json")]) == 2
    _one_input_error(capsys)


def test_solve_rejects_old_nested_layout(tmp_path, capsys):
    doc = json.loads((GOLDEN / "boundary_liouville_9x9.json").read_text())
    for key in ("left", "bottom"):  # the former layout: nested rows of [re, im] pairs
        doc[key] = [np.reshape(flat, (9, 1, 1, 2)).tolist() for flat in doc[key]]
    boundary_file = tmp_path / "boundary.json"
    boundary_file.write_text(json.dumps(doc))
    assert main(["solve", "--system", str(GOLDEN / "system_liouville.json"),
                 "--boundary", str(boundary_file), "--out", str(tmp_path / "x.json")]) == 2
    assert "flat row-major list" in _one_input_error(capsys)


def _sites(node, path=()):
    """Paths to every value inside ``node``; of a list of numbers only the two ends."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        numbers = all(type(item) in (int, float) for item in node)
        keys = sorted({0, len(node) - 1}) if numbers else range(len(node))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _sites(node[key], path + (key,))


_DROP = object()


def _mutants(doc):
    """Copies of ``doc`` with one value dropped or swapped for null, another
    JSON type, a list of the wrong length or (for an integer) a fraction."""
    for path in _sites(doc):
        value = doc
        for key in path:
            value = value[key]
        swaps = [None, True, "x", {}, []]
        swaps += [value[:-1], value + value[-1:]] if isinstance(value, list) else [[value]]
        swaps += [1.5] if type(value) is int else []
        for swap in [_DROP] + swaps:
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if swap is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = swap
            yield f"{path} -> {'dropped' if swap is _DROP else json.dumps(swap)}", mutant


# each golden document, and the command that reads it
_READERS = pytest.mark.parametrize("name, argv", [
    ("system_liouville.json", ["equations", "--system", "{file}"]),
    ("boundary_liouville_9x9.json", ["solve", "--system", str(GOLDEN / "system_liouville.json"),
                                     "--boundary", "{file}", "--out", "{out}"]),
    ("grid_liouville_5x5.json", ["verify", "--system", str(GOLDEN / "system_liouville.json"),
                                 "--grid", "{file}"]),
], ids=["system", "boundary", "grid"])


@_READERS
def test_mutated_golden_documents_are_invalid_input(tmp_path, capsys, name, argv):
    doc_file, out_file = tmp_path / name, tmp_path / "out.json"
    args = [arg.format(file=doc_file, out=out_file) for arg in argv]
    mutants = list(_mutants(json.loads((GOLDEN / name).read_text())))
    failures = []
    for label, mutant in mutants:
        doc_file.write_text(json.dumps(mutant))
        code = main(args)
        err = capsys.readouterr().err.splitlines()
        if code != 2 or len(err) != 1 or not err[0].startswith("todakit: error[input]"):
            failures.append((label, code, err))
    assert len(mutants) > 100 and not failures, failures


# the first number of the first float list, and that whole list
_FIRST_NUMBER = re.compile(rb"(?m)^(\s*\[)-?[0-9][0-9.]*")
_FIRST_FLOATS = re.compile(rb"(?m)^(\s*)\[-?[0-9][^\]\n]*\]")


def _in_place_of(pattern: re.Pattern, text: bytes):
    """The edit of a document that writes ``text`` over the first match of ``pattern``."""
    return lambda raw: pattern.sub(lambda m: m[1] + text, raw, count=1)


_LEXICAL_CORRUPTIONS = {
    "literal-NaN": _in_place_of(_FIRST_NUMBER, b"NaN"),
    "literal-Infinity": _in_place_of(_FIRST_NUMBER, b"Infinity"),
    "literal--Infinity": _in_place_of(_FIRST_NUMBER, b"-Infinity"),
    "1e400": _in_place_of(_FIRST_NUMBER, b"1e400"),
    "lone-surrogate": lambda raw: raw.replace(b'"series": "A"', rb'"series": "\ud800"'),
    "400-digit-float": _in_place_of(_FIRST_NUMBER, b"9" * 400),
    "30-digit-rank": lambda raw: raw.replace(b'"rank": 1', b'"rank": ' + b"9" * 30),
    "400-digit-rank": lambda raw: raw.replace(b'"rank": 1', b'"rank": ' + b"9" * 400),
    "not-utf8": lambda raw: raw.replace(b'"kind"', b'"kind\xff"'),
    "trailing-comma": lambda raw: raw.replace(b'"series": "A"', b'"series": "A",'),
    "leading-zero": _in_place_of(_FIRST_NUMBER, b"01.5"),
    "nested-2000": _in_place_of(_FIRST_FLOATS, b"[" * 2000 + b"]" * 2000),
    "nested-200000": _in_place_of(_FIRST_FLOATS, b"[" * 200000 + b"]" * 200000),
}


def _run_on_bytes(tmp_path, name, argv, raw: bytes):
    """(exit code, stdout, stderr lines) of ``argv`` reading ``raw`` as the document."""
    doc_file, out_file = tmp_path / name, tmp_path / "out.json"
    doc_file.write_bytes(raw)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(file=doc_file, out=out_file) for arg in argv])
    return code, stdout.getvalue(), stderr.getvalue().splitlines()


@_READERS
@pytest.mark.parametrize("corruption", list(_LEXICAL_CORRUPTIONS))
def test_lexically_corrupt_documents_are_invalid_input(tmp_path, name, argv, corruption):
    raw = (GOLDEN / name).read_bytes()
    bad = _LEXICAL_CORRUPTIONS[corruption](raw)
    assert bad != raw
    code, out, err = _run_on_bytes(tmp_path, name, argv, bad)
    assert code == 2 and out == "" and len(err) == 1 and err[0].startswith("todakit: error[input]"), err


def test_thirty_digit_integer_in_a_float_list_is_valid(tmp_path):
    raw = (GOLDEN / "system_liouville.json").read_bytes()
    code, out, err = _run_on_bytes(tmp_path, "system.json", ["equations", "--system", "{file}"],
                                   _in_place_of(_FIRST_NUMBER, b"9" * 30)(raw))
    assert code == 0 and out and err == []


@_READERS
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_golden_document_cut_short_is_invalid_input(tmp_path, name, argv, data):
    raw = (GOLDEN / name).read_bytes().rstrip()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")  # short of the closing brace
    code, out, err = _run_on_bytes(tmp_path, name, argv, raw[:cut])
    assert code == 2 and out == "" and len(err) == 1 and err[0].startswith("todakit: error[input]"), err


def test_missing_file_exit_code(capsys):
    assert main(["verify", "--system", "/nonexistent.json", "--grid", "/also-nope.json"]) == 2
    assert "error[input]" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_non_finite_or_negative_tolerance(capsys, tol):
    assert main(["verify", "--system", str(GOLDEN / "system_liouville.json"),
                 "--grid", str(GOLDEN / "grid_liouville_5x5.json"), "--tol", tol]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[input]")


@pytest.mark.parametrize("argv", [
    ["equations", "--system", str(GOLDEN)],
    ["solve", "--system", str(GOLDEN / "system_liouville.json"),
     "--boundary", str(GOLDEN / "boundary_liouville_9x9.json"), "--out", "{dir}"],
], ids=["read", "write"])
def test_directory_in_place_of_a_file_is_invalid_input(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("todakit: error[input]")


def test_system_writer_rejects_line_couplings():
    lv = liouville_field(tk.GridSpec(0.0, 8.0, 0.25, 0.25, 5, 5))
    c = tk.make_c_blocks(lv.system, [np.full((5, 1, 1), -1.0)], lv.c.plus)
    with pytest.raises(ValueError, match=r"c_minus\[0\].*constant couplings"):
        system_to_document(lv.system, c)


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  exact inverse roundtrip",
        "PASS  cartan B2 inverse",
        "PASS  grading A2 (1,0)",
        "PASS  residual order ~ 2",
        "PASS  march reproduces closed form",
    ]


# ---------------------------------------------------------------------------
# dumps_deterministic against the element-by-element writer


def _reference_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float in output document")
        return repr(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _element_by_element(values) -> str:
    return "[" + ", ".join(_reference_scalar(item) for item in values) + "]"


def _is_float_array(obj) -> bool:
    return isinstance(obj, np.ndarray)


def _is_float_list(obj) -> bool:
    """The rule of the writer before documents held arrays: a nonempty list of
    floats takes one line."""
    return isinstance(obj, list) and bool(obj) and all(type(item) is float for item in obj)


def _reference_dumps(obj, indent: int = 0, float_list=_element_by_element, one_line=_is_float_array) -> str:
    """The recursive writer, one call per list and per scalar; what ``one_line``
    picks (a float64 array) on one line, written by ``float_list``, and every
    other list one item per line."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_reference_dumps(obj[key], indent + 1, float_list, one_line)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if one_line(obj):
        return float_list(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_reference_dumps(item, indent + 1, float_list, one_line)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _reference_scalar(obj)


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e17, 0.1]),
)
_ints = st.one_of(st.integers(), st.sampled_from([10**17, -(10**17), 2**63, 10**30]))
_scalars = st.one_of(_floats, _ints, st.booleans(), st.none(), st.text(max_size=5))


@st.composite
def _float_arrays(draw, min_depth=1, max_depth=5):
    """A rectangular nested list of floats, as ``ndarray.tolist`` returns."""
    shape = draw(st.lists(st.integers(1, 3), min_size=min_depth, max_size=max_depth))
    flat = draw(st.lists(_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=float).reshape(shape).tolist()


def _leaf_paths(obj, path=()):
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaf_paths(item, path + (i,))
    else:
        yield path


def _leaf_slot(draw, arr):
    """(innermost list, index) of a leaf of ``arr`` picked with ``draw``."""
    *head, last = draw(st.sampled_from(list(_leaf_paths(arr))))
    for i in head:
        arr = arr[i]
    return arr, last


@st.composite
def _broken_arrays(draw):
    """A float array with one leaf replaced or one innermost list cut short."""
    arr = draw(_float_arrays(min_depth=2))
    parent, last = _leaf_slot(draw, arr)
    if draw(st.booleans()):
        parent[last] = draw(st.one_of(_ints, st.none(), st.booleans(), st.just((1.5,)), st.just([])))
    else:
        del parent[last]
    return arr


# a stored array, as ``matrix_to_json`` returns it
_flat_arrays = st.lists(_floats, max_size=6).map(lambda xs: np.array(xs, dtype=float))

_documents = st.recursive(
    st.one_of(_scalars, _flat_arrays, _float_arrays(min_depth=2), _broken_arrays(),
              st.lists(st.one_of(_ints, _floats), max_size=6),
              st.lists(st.lists(_floats, max_size=3), max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(doc=_documents, indent=st.integers(0, 2))
def test_dumps_matches_element_by_element_writer(doc, indent):
    assert dumps_deterministic(doc, indent) == _reference_dumps(doc, indent)


@settings(max_examples=100, deadline=None)
@given(arr=_float_arrays(), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_dumps_rejects_non_finite_float_in_array(arr, bad, data):
    parent, last = _leaf_slot(data.draw, arr)
    parent[last] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dumps_deterministic({"betas": [arr]})


# ---------------------------------------------------------------------------
# float lists: json.dumps's bytes from orjson's digits
#
# These pin the writer to ``json.dumps`` byte for byte, so they also catch an
# orjson release that lays out its floats differently.


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(_floats, max_size=40))
def test_float_list_is_json_dumps(xs):
    assert dumps_deterministic(np.array(xs, dtype=float)) == json.dumps(xs)


def _below(x: float) -> float:
    """The next float towards zero."""
    return float(np.nextafter(x, 0.0))


# repr switches to exponent form below 1e-4 and from 1e16 on
_EDGE_FLOATS = [
    v for x in (1e-4, 1e16) for v in (x, -x, _below(x), -_below(x))
] + [
    v for x in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308) for v in (x, -x)
] + [0.0, -0.0, 1.0]


def test_float_list_is_json_dumps_on_bit_patterns_and_edges():
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float)
    xs = bits[np.isfinite(bits)].tolist() + _EDGE_FLOATS
    assert dumps_deterministic(np.array(xs, dtype=float)) == json.dumps(xs)
    for x in _EDGE_FLOATS:
        assert dumps_deterministic(np.array([x])) == json.dumps([x])
    # lists around the 4096-float chunk, with edge values at the seams
    for size in (4095, 4096, 4097):
        ys = (rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)).tolist()
        for at in (0, size - 2, size - 1):
            ys[at] = _EDGE_FLOATS[at % len(_EDGE_FLOATS)]
        assert dumps_deterministic(np.array(ys)) == json.dumps(ys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 4095, 4096, 4196])
def test_float_list_rejects_non_finite_anywhere(bad, at):
    xs = np.full(4197, 0.5)
    xs[at] = bad
    with pytest.raises(ValueError, match="^non-finite float in output document$"):
        dumps_deterministic(xs)


_EXPONENT_FORM = re.compile(r"\de[-+]\d")


def test_solve_writes_json_dumps_bytes_with_exponent_form_floats(tmp_path, capsys):
    # C3 (1,1,2,1,1) at n = 9 from boundary data near the identity, so the
    # imaginary parts (about 1e-5) are written in exponent form
    rng = np.random.default_rng(25)
    system = tk.build_system(tk.SeriesTag("C", 3), (1, 1, 2, 1, 1))
    spec = tk.GridSpec(0.0, 0.0, 1 / 8, 1 / 8, 9, 9)
    data = boundary_from_closure(system, spec, smooth_closure(system, rng, scale=1e-5))
    c = random_couplings(system, rng, scale=0.4)
    system_file, boundary_file, out_file = (tmp_path / f"{name}.json" for name in ("s", "b", "out"))
    write_json(system_file, system_to_document(system, c))
    write_json(boundary_file, boundary_to_document(system, data))
    assert main(["solve", "--system", str(system_file), "--boundary", str(boundary_file),
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    text = out_file.read_text()
    assert _EXPONENT_FORM.search(text)
    lists = [line.strip().rstrip(",") for line in text.splitlines() if line.strip().startswith("[")]
    assert len(lists) == system.independent_beta_count
    for line in lists:
        assert line == json.dumps(json.loads(line))
    # the writer before orjson and arrays: json.dumps for each list of floats
    assert text == _reference_dumps(json.loads(text), float_list=json.dumps, one_line=_is_float_list) + "\n"


# ---------------------------------------------------------------------------
# matrix_to_json / json_to_matrix


_complex_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308]),
)
_matrix_shapes = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.integers(1, 3).flatmap(lambda k: st.tuples(st.integers(1, 4), st.just(k), st.just(k))),
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(k), st.just(k))
    ),
)


@settings(max_examples=150, deadline=None)
@given(shape=_matrix_shapes, data=st.data())
def test_matrix_json_round_trip_is_bit_exact(shape, data):
    size = 2 * math.prod(shape)
    parts = data.draw(st.lists(_complex_parts, min_size=size, max_size=size))
    arr = np.array(parts, dtype=float).view(complex).reshape(shape)
    # a column-major copy must still be written in row-major order
    text = dumps_deterministic({"betas": [matrix_to_json(np.asfortranarray(arr))]})
    back = json_to_matrix(json.loads(text)["betas"][0], shape, "betas[0]")
    assert back.shape == shape and back.tobytes() == arr.tobytes()


def test_editing_a_document_leaves_its_field_unchanged():
    spec = tk.GridSpec(0.0, 8.0, 0.25, 0.25, 5, 5)
    lv = liouville_field(spec)
    data = liouville_boundary(spec)
    before = [a.copy() for a in (*lv.c.minus, *lv.c.plus, *lv.field.betas, *data.left, *data.bottom)]
    docs = (system_to_document(lv.system, lv.c), grid_to_document(lv.system, lv.field),
            boundary_to_document(lv.system, data))
    for doc in docs:
        for key in ("c_minus", "c_plus", "betas", "left", "bottom"):
            for entry in doc.get(key, []):
                entry += 1.0
    after = (*lv.c.minus, *lv.c.plus, *lv.field.betas, *data.left, *data.bottom)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after, strict=True))
