"""thm33, thm31 and universal construction mutants and the claims that kill them.

Each thm33 mutant edits one of the blocks `build_thm33` writes, decade 3's
coarse or fine block, by wrapping `interior_gap.GapBlock`; the decade runs
and every sum are read off those blocks, so the edit reaches every suite.
Each mutant runs through every thm33 suite at jmax 6 with --samples 3, and
`KILLS` records, per suite, the exit code and the claims that print FAIL
(`converge` exits 1 with no FAIL line when its certificate for all of
[4,5] fails).  A claim that stops killing a mutant, or starts to, fails
here.  This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978) aimed at the claims.

`artifact-matches-construction` compares a --seq artifact with the build,
so it kills every mutant and would hide what the other claims catch: it
is counted apart, against the artifact of the unmutated construction.

Each thm31 mutant edits the windows of every item `dense_divergence.build_thm31`
returns, and the item's fine-window table with them.  It runs through the
five thm31 suites at jmax 12 with --samples 10, at seeds 0 to 4, and
`KILLS31` records the one cell every seed gives per suite.

Each universal mutant edits one block, or the origin, of a `construct
universal --limit 2,4` artifact, and runs through every universal suite
that reads one, with --seq at limit 2,4 and --samples 3; `KILLSU` records
the cells.  Both readers of the combs, `series` and `escape`, see the
edit.  `lemma` reads no built data, nor does `escape`'s
`borel-cantelli-partial`: no construction mutant can reach them, so they
are data-free (`DATA_FREE`), not blind.
"""

import contextlib
import dataclasses
import io
import json

import pytest

from dyadlab import dense_divergence as dd
from dyadlab import interior_gap as ig
from dyadlab.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from dyadlab.exactnum import ONE, Dyadic
from dyadlab.lattice import RunSums

HALF = Dyadic(1, -1)

# name -> (tag of the block edited, its new (gap, count))
MUTANTS = {
    "coarse-count-halved": ("decade-3:coarse", lambda gap, count: (gap, count // 2)),
    "fine-count-halved": ("decade-3:fine", lambda gap, count: (gap, count // 2)),
    "coarse-gap-doubled": ("decade-3:coarse", lambda gap, count: (gap * 2, count)),
    "coarse-gap-halved": ("decade-3:coarse", lambda gap, count: (gap * HALF, count)),
}

SUITES = ("gaps", "diverge", "converge", "probe")

PASS = (EXIT_PASS, ())
# mutant -> suite -> (exit code, claims that FAIL); the unmutated build passes every suite
KILLS = {
    "coarse-count-halved": {"gaps": PASS, "diverge": PASS, "converge": (EXIT_FAIL, ()), "probe": (EXIT_FAIL, ("thm34-probe",))},
    "fine-count-halved": {"gaps": PASS, "diverge": PASS, "converge": (EXIT_FAIL, ()), "probe": PASS},
    "coarse-gap-doubled": {"gaps": (EXIT_FAIL, ("gap-monotonicity",)), "diverge": PASS, "converge": (EXIT_FAIL, ()), "probe": PASS},
    "coarse-gap-halved": {"gaps": PASS, "diverge": PASS, "converge": (EXIT_FAIL, ()), "probe": (EXIT_FAIL, ("thm34-probe",))},
}


def _mutate(monkeypatch, name: str) -> None:
    tag, change = MUTANTS[name]
    real = ig.GapBlock

    def block(gap, count, block_tag=""):
        if block_tag == tag:
            gap, count = change(gap, count)
        return real(gap, count, block_tag)

    monkeypatch.setattr(ig, "GapBlock", block)


def _run(*argv: str) -> tuple[int, tuple[str, ...]]:
    """The exit code of `verify` with argv and the sorted names (sample
    suffix dropped) of the claims that print FAIL."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *argv])
    failed = {line.split()[1].split("/")[0] for line in out.getvalue().splitlines() if line.startswith("FAIL ")}
    return code, tuple(sorted(failed))


def _verify(suite: str, *extra: str) -> tuple[int, tuple[str, ...]]:
    return _run("thm33", "--suite", suite, "--jmax", "6", "--samples", "3", *extra)


@pytest.mark.parametrize("suite", SUITES)
def test_the_unmutated_build_passes_every_suite(suite):
    assert _verify(suite) == PASS


@pytest.mark.parametrize("name", MUTANTS)
def test_kill_matrix(monkeypatch, name):
    """Each mutant's row, in which some claim other than the artifact's kills it."""
    _mutate(monkeypatch, name)
    row = {suite: _verify(suite) for suite in SUITES}
    assert row == KILLS[name]
    assert any(code == EXIT_FAIL for code, _ in row.values())


@pytest.mark.parametrize("name", MUTANTS)
def test_the_artifact_claim_kills_every_mutant(monkeypatch, tmp_path, name):
    """Against the artifact of the unmutated construction, the artifact
    claim fails alone: gap monotonicity reads the artifact, not the build."""
    art = tmp_path / "thm33.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "thm33", "--jmax", "6", "--out", str(art)]) == EXIT_PASS
    _mutate(monkeypatch, name)
    assert _verify("gaps", "--seq", str(art)) == (EXIT_FAIL, ("artifact-matches-construction",))


def _refine_coarse_10(j, lam1, lam2):
    """Tent 10's coarse window re-cut on its span with step 2^-(2^10+2),
    a quarter of the tent's plateau: several of its points meet the tent."""
    if j != 10:
        return lam1, lam2
    fine = Dyadic(1, -(2**j) - 2)
    return lam1, lam2._replace(start=lam2.start - lam2.step + fine, step=fine, count=lam2.count << 2**j + 2 - j)


# name -> the edit of item j's (fine window, coarse window or None)
MUTANTS31 = {
    "fine-last-two-dropped": lambda j, lam1, lam2: (lam1._replace(count=lam1.count - 2), lam2),
    "fine-last-dropped": lambda j, lam1, lam2: (lam1._replace(count=lam1.count - 1), lam2),
    "fine-half-step-shift": lambda j, lam1, lam2: (lam1._replace(start=lam1.start + lam1.step * HALF), lam2),
    "coarse-lengthened": lambda j, lam1, lam2: (lam1, lam2 and lam2._replace(count=lam2.count + (4 << j))),
    "coarse-10-refined": _refine_coarse_10,
}

SUITES31 = ("lower", "outside", "cross", "density", "tail")

# mutant -> suite -> (exit code, claims that FAIL) at each of seeds 0-4; the
# unmutated build passes every suite.  Dropping one fine point and shifting
# the fine windows by half a step survive every claim; whether the shifted
# build is an equivalent mutant is not checked.
KILLS31 = {
    "fine-last-two-dropped": {"lower": (EXIT_FAIL, ("thm31-lower",))},
    "fine-last-dropped": {},
    "fine-half-step-shift": {},
    "coarse-lengthened": {"density": (EXIT_FAIL, ("thm31-density",))},
    "coarse-10-refined": {"density": (EXIT_FAIL, ("thm31-density", "thm31-lam2hits"))},
}


def _mutate31(monkeypatch, name: str) -> None:
    edit, real = MUTANTS31[name], dd.build_thm31

    def build(jmax):
        items = []
        for it in real(jmax).items:
            lam1, lam2 = edit(it.j, it.lam1, it.lam2)
            items.append(dataclasses.replace(it, lam1=lam1, lam2=lam2, lam1_sums=RunSums(it.tent, [lam1])))
        return dd.Thm31Construction(jmax, tuple(items))

    monkeypatch.setattr(dd, "build_thm31", build)


def _row31() -> dict:
    """suite -> its one cell at seeds 0-4, or every seed's cell when they differ."""
    row = {}
    for suite in SUITES31:
        cells = {_run("thm31", "--suite", suite, "--jmax", "12", "--samples", "10", "--seed", str(seed)) for seed in range(5)}
        row[suite] = cells.pop() if len(cells) == 1 else cells
    return row


def test_the_unmutated_thm31_build_passes_every_suite():
    assert _row31() == dict.fromkeys(SUITES31, PASS)


@pytest.mark.parametrize("name", MUTANTS31)
def test_thm31_kill_matrix(monkeypatch, name):
    _mutate31(monkeypatch, name)
    assert _row31() == {suite: KILLS31[name].get(suite, PASS) for suite in SUITES31}


def _edit_block(tag: str, change):
    """An artifact edit: the block tagged `tag` gets change(gap, count)."""

    def edit(data: dict) -> None:
        (block,) = (b for b in data["blocks"] if b["tag"] == tag)
        gap, count = change(Dyadic.parse(block["gap"]), int(block["count"]))
        block.update(gap=str(gap), count=str(count))

    return edit


def _move_origin(data: dict) -> None:
    data["origin"] = str(Dyadic.parse(data["origin"]) + ONE)


# name -> its edit of the artifact's JSON; 2^-18 is the unit of step (1,2)'s
# wide gap (2^6 - 1)*2^-18, and a half count off by one moves every later step
MUTANTSU = {
    "wide-count-short": _edit_block("1,2:wide", lambda gap, count: (gap, count - 1)),
    "half-count-up": _edit_block("1,2:half", lambda gap, count: (gap, count + 1)),
    "half-count-down": _edit_block("1,2:half", lambda gap, count: (gap, count - 1)),
    "wide-gap-widened": _edit_block("1,2:wide", lambda gap, count: (gap + Dyadic(1, -18), count)),
    "origin-moved": _move_origin,
}

SUITESU = ("gaps", "integrality", "covering", "escape", "series")
DATA_FREE = ("lemma",)

# mutant -> suite -> (exit code, claims that FAIL); a suite left out passes.
# `gaps` compares the artifact with the build, so it kills every mutant.
ARTIFACT = {"gaps": (EXIT_FAIL, ("artifact-matches-construction",))}
KILLSU = {
    "wide-count-short": {**ARTIFACT, "integrality": (EXIT_FAIL, ("integrality",)), "escape": (EXIT_FAIL, ("escape-measure",))},
    "half-count-up": {**ARTIFACT, "escape": (EXIT_FAIL, ("escape-measure",))},
    "half-count-down": {**ARTIFACT, "escape": (EXIT_FAIL, ("escape-measure",))},
    "wide-gap-widened": {**ARTIFACT, "covering": (EXIT_FAIL, ("covering",)), "escape": (EXIT_FAIL, ("escape-measure",))},
    "origin-moved": {
        **ARTIFACT,
        "covering": (EXIT_FAIL, ("covering",)),
        "escape": (EXIT_FAIL, ("escape-measure",)),
        "series": (EXIT_FAIL, ("series",)),
    },
}


@pytest.fixture(scope="module")
def universal_artifact(tmp_path_factory) -> dict:
    """The JSON of a `construct universal --limit 2,4` artifact."""
    path = tmp_path_factory.mktemp("universal") / "u24.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "universal", "--limit", "2,4", "--out", str(path)]) == EXIT_PASS
    return json.loads(path.read_text())


def _universal_row(data: dict, path) -> dict:
    """suite -> its cell against the artifact `data`, written to `path`."""
    path.write_text(json.dumps(data))
    argv = ("--limit", "2,4", "--samples", "3", "--seq", str(path))
    return {suite: _run("universal", "--suite", suite, *argv) for suite in SUITESU}


def test_the_unmutated_universal_artifact_passes_every_suite(universal_artifact, tmp_path):
    assert _universal_row(universal_artifact, tmp_path / "u24.json") == dict.fromkeys(SUITESU, PASS)


@pytest.mark.parametrize("suite", DATA_FREE)
def test_a_data_free_suite_reads_no_artifact(universal_artifact, tmp_path, suite):
    path = tmp_path / "u24.json"
    path.write_text(json.dumps(universal_artifact))
    assert _run("universal", "--suite", suite, "--limit", "2,4", "--seq", str(path)) == (EXIT_USAGE, ())
    assert _run("universal", "--suite", suite, "--limit", "2,4") == PASS


@pytest.mark.parametrize("name", MUTANTSU)
def test_universal_kill_matrix(universal_artifact, tmp_path, name):
    data = json.loads(json.dumps(universal_artifact))
    MUTANTSU[name](data)
    assert _universal_row(data, tmp_path / f"{name}.json") == {suite: KILLSU[name].get(suite, PASS) for suite in SUITESU}
