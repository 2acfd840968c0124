"""Replay of the benchmark's recorded ops, every workload.

`bench/digests.json` holds the exit code and report SHA-256 of the first
ops of each benchmark workload at the default seed (a report digest only
where the op exits 0), and the SHA-256 of each set-up artifact.  This test
builds each workload's artifacts from `bench/workloads.json` into a
temporary directory, runs every recorded op of that workload in-process and
compares both, so a change to a report byte or an exit code fails here
before the benchmark reports it.  Both files are only read.
"""

import hashlib
import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from dyadlab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]
RECORDED = json.loads((BENCH / "digests.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv: list[str]) -> int:
    with redirect_stdout(StringIO()):
        return main(argv)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_ops_replay_byte_for_byte(tmp_path, name):
    workload = WORKLOADS[name]
    art = tmp_path / "art"
    art.mkdir()
    for argv in workload["setup"]:
        assert _run([a.format(art=art) for a in argv]) == 0, argv
    assert {p.name: _sha256(p) for p in art.iterdir()} == RECORDED["artifacts"][name]

    # an op key is its template's argv with the seed filled in and {art} left as is
    templates = [
        re.compile(re.escape(" ".join(tpl["argv"])).replace(re.escape("{seed}"), r"\d+")) for tpl in workload["pass"]
    ]
    ops = {key: want for key, want in RECORDED["ops"].items() if any(t.fullmatch(key) for t in templates)}
    assert all(any(t.fullmatch(key) for key in ops) for t in templates)
    report = tmp_path / "report.json"
    wrong = []
    for key, want in ops.items():
        report.unlink(missing_ok=True)
        got = {"exit": _run(key.replace("{art}", str(art)).split(" ") + ["--report", str(report)])}
        if got["exit"] == 0:
            got["sha256"] = _sha256(report)
        if got != want:
            wrong.append((key, got, want))
    assert not wrong
