"""thm33 construction mutants and the claims that kill them.

Each mutant edits one of the blocks `build_thm33` writes, decade 3's coarse
or fine block, by wrapping `interior_gap.GapBlock`; the decade runs and
every sum are read off those blocks, so the edit reaches every suite.  Each
mutant runs through every thm33 suite at jmax 6 with --samples 3, and
`KILLS` records, per suite, the exit code and the claims that print FAIL
(`converge` exits 1 with no FAIL line when its certificate for all of
[4,5] fails).  A claim that stops killing a mutant, or starts to, fails
here.  This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978) aimed at the claims.

`artifact-matches-construction` compares a --seq artifact with the build,
so it kills every mutant and would hide what the other claims catch: it
is counted apart, against the artifact of the unmutated construction.
"""

import contextlib
import io

import pytest

from dyadlab import interior_gap as ig
from dyadlab.cli import EXIT_FAIL, EXIT_PASS, main
from dyadlab.exactnum import Dyadic

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


def _verify(suite: str, *extra: str) -> tuple[int, tuple[str, ...]]:
    """The exit code and the sorted names (sample suffix dropped) of the
    claims that print FAIL."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "thm33", "--suite", suite, "--jmax", "6", "--samples", "3", *extra])
    failed = {line.split()[1].split("/")[0] for line in out.getvalue().splitlines() if line.startswith("FAIL ")}
    return code, tuple(sorted(failed))


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
