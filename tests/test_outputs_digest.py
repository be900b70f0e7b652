"""The paper's tables as a committed digest.

``grade`` over every label vector in {0,1,2}^r and ``equations`` over every
unit-step system, for series A-D and rank r <= 5, each in text, latex and
structured output, run through ``cli.main``.  One sha256 per (command,
series, rank) covers the argv, exit code, stdout and stderr of its cases, so
a failure names the groups that differ.  ``tests/golden/outputs_digest.json``
holds the digests; after a deliberate change of output, rewrite it with

    PYTHONPATH=src python tests/test_outputs_digest.py
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from todakit import cli
from todakit.liealg import _MIN_RANK

from conftest import unit_step_cases

GOLDEN = Path(__file__).parent / "golden" / "outputs_digest.json"
FORMATS = ("text", "latex", "structured")
MAX_RANK = 5


def _groups() -> dict[str, list[list[str]]]:
    """The argv of every case, grouped under "command series rank"."""
    groups = {}
    for series, low in sorted(_MIN_RANK.items()):
        for rank in range(low, MAX_RANK + 1):
            groups[f"grade {series} {rank}"] = [
                ["grade", "--series", series, "--rank", str(rank), "--labels", ",".join(labels), "--format", fmt]
                for labels in itertools.product("012", repeat=rank) for fmt in FORMATS]
    for series, rank, sizes in unit_step_cases(MAX_RANK):
        blocks = ",".join(map(str, sizes))
        groups.setdefault(f"equations {series} {rank}", []).extend(
            ["equations", "--series", series, "--rank", str(rank), "--blocks", blocks, "--format", fmt]
            for fmt in FORMATS)
    return groups


def digests() -> dict[str, str]:
    """sha256 of each group's cases: argv, exit code, stdout and stderr."""
    out = {}
    for group, cases in _groups().items():
        digest = hashlib.sha256()
        for argv in cases:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            digest.update(json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()]).encode())
        out[group] = digest.hexdigest()
    return out


def test_outputs_match_the_committed_digest():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    differ = sorted(group for group in want.keys() | got.keys() if want.get(group) != got.get(group))
    assert not differ, f"outputs differ from {GOLDEN.name} in: {', '.join(differ)}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
