"""Byte-level contract of the command line: exit codes and output digests.

One small configuration per `verify` suite, plus `construct` and `eval` for
every construction.  Each case records the exit code and the SHA-256 of the
file it writes (report, artifact or CSV) followed by its stdout, so any
change to a report byte, an artifact byte or a printed claim line shows up
here.  When a change is meant to alter output, re-record the table and say so.
"""

import hashlib
import json

import pytest

from dyadlab import interior_gap as ig
from dyadlab.cli import EXIT_FAIL, main
from dyadlab.universal import IndexJK

G_THM31 = ["(-4*2^0,4*2^0)"]

# name -> argv; "{out}" is the file the case writes, "{G}" an open-set JSON
CASES = {
    "verify-universal-lemma": ["verify", "universal", "--suite", "lemma", "--limit", "3,0", "--report", "{out}"],
    "verify-universal-gaps": ["verify", "universal", "--suite", "gaps", "--limit", "2,3", "--report", "{out}"],
    "verify-universal-integrality": ["verify", "universal", "--suite", "integrality", "--limit", "2,3", "--report", "{out}"],
    "verify-universal-covering": ["verify", "universal", "--suite", "covering", "--limit", "2,3", "--report", "{out}"],
    "verify-universal-escape": ["verify", "universal", "--suite", "escape", "--limit", "1,3", "--report", "{out}"],
    "verify-universal-series": ["verify", "universal", "--suite", "series", "--limit", "2,5", "--samples", "2", "--report", "{out}"],
    "verify-thm31-lower": ["verify", "thm31", "--suite", "lower", "--jmax", "11", "--samples", "4", "--report", "{out}"],
    "verify-thm31-outside": ["verify", "thm31", "--suite", "outside", "--jmax", "11", "--samples", "4", "--report", "{out}"],
    "verify-thm31-cross": ["verify", "thm31", "--suite", "cross", "--jmax", "11", "--report", "{out}"],
    "verify-thm31-density": ["verify", "thm31", "--suite", "density", "--jmax", "11", "--samples", "4", "--report", "{out}"],
    "verify-thm31-tail": ["verify", "thm31", "--suite", "tail", "--jmax", "11", "--samples", "4", "--report", "{out}"],
    "verify-thm33-gaps": ["verify", "thm33", "--suite", "gaps", "--jmax", "4", "--report", "{out}"],
    "verify-thm33-diverge": ["verify", "thm33", "--suite", "diverge", "--jmax", "4", "--samples", "5", "--report", "{out}"],
    "verify-thm33-converge": ["verify", "thm33", "--suite", "converge", "--jmax", "4", "--samples", "5", "--report", "{out}"],
    "verify-thm33-probe": ["verify", "thm33", "--suite", "probe", "--jmax", "4", "--samples", "5", "--report", "{out}"],
    # the --seq read path: each reads the artifact `construct universal --limit 2,3` wrote
    "verify-universal-covering-seq": ["verify", "universal", "--suite", "covering", "--limit", "2,3", "--seq", "{seq}", "--report", "{out}"],
    "verify-universal-integrality-seq": ["verify", "universal", "--suite", "integrality", "--limit", "2,3", "--seq", "{seq}", "--report", "{out}"],
    "verify-universal-gaps-seq": ["verify", "universal", "--suite", "gaps", "--limit", "2,3", "--seq", "{seq}", "--report", "{out}"],
    "construct-universal": ["construct", "universal", "--limit", "2,3", "--out", "{out}"],
    "construct-thm31-G": ["construct", "thm31", "--jmax", "10", "--G", "{G}", "--out", "{out}"],
    "construct-thm33": ["construct", "thm33", "--jmax", "3", "--out", "{out}"],
    "eval-universal": ["eval", "universal", "--limits", "1,1", "1,3", "--xs", "0.75", "1.5", "--out", "{out}"],
    "eval-thm31": ["eval", "thm31", "--jmaxes", "8", "10", "--xs", "0", "0.5", "3", "--G", "{G}", "--out", "{out}"],
    # x = -1 carries points two windows share onto tents 2 (jmax 2) and 10
    "eval-thm31-shared": ["eval", "thm31", "--jmaxes", "2", "10", "--xs", "-1", "-0.9375", "--out", "{out}"],
    "eval-thm33": ["eval", "thm33", "--jmaxes", "1", "3", "--xs", "0", "0.5", "2", "--out", "{out}"],
}

# name -> (exit code, sha256 of output file bytes + stdout bytes)
EXPECTED = {
    "construct-thm31-G": (0, "e61dce66f3edff9e9c316f9c9154cd436b2c0caf24e4da9e4daa5d6e87dadc83"),
    "construct-thm33": (0, "5d5dd366202344ab95382de9e592cd4ac24ea556a965183b708b8f4b5625f4c5"),
    "construct-universal": (0, "0a48dd50b7eab11c6066436072540e5513e69b1aa6373d0840b247b50b732046"),
    "eval-thm31": (0, "fc241dc59a8f99a8074dab132a1da47258430241d5d9f8d1d16a6d83d6261589"),
    "eval-thm31-shared": (0, "03135725359960bc13b71fe20ee1e616a8bc0b706610a49c9fb7c2e61287a576"),
    "eval-thm33": (0, "d5f5d235ad405889c8104b7d977926c229eae10a783f6ef2dc91b7a85f7ec65f"),
    "eval-universal": (0, "c90cfb48d950823b7f9c4dbe910c28754ff854fb4b894a85a0d0a6b8c607b194"),
    "verify-thm31-cross": (0, "ffee79d96d9241711f70ca2d794cbf4add6723160a72d04e73920a82428dd69b"),
    "verify-thm31-density": (0, "9134cc9fa9a98c1a697f3b5151c4e7e4840300e98e725a5612a4ec9c36c7cd6a"),
    "verify-thm31-lower": (0, "a6673e9c0b91e6479b031c5fd9c4131351f5d371875f16c0c1f1d5ab25af1070"),
    "verify-thm31-outside": (0, "f793974b4098e6fe6d80a1d4e0190574ab88457d212c03c7eec54fceee032767"),
    "verify-thm31-tail": (0, "2f4a10a6cc07ba1cdecf5a75ffe35b0cc69bae6428c4babb9ca961600c2e0c32"),
    "verify-thm33-converge": (0, "17b09d32c3bae5c59e71305c01ae325bd22a3b0cfb5303bb09316d71a3ec4cbb"),
    "verify-thm33-diverge": (0, "e2f8fb217ad7202413e6582aeb2f79eafa78014def5b3446c09f15325b2f33b0"),
    "verify-thm33-gaps": (0, "a5436862e8c2e5260e880b48f8e1c08de6ff07ce7a1941c89527d928e00245b2"),
    "verify-thm33-probe": (0, "648e0b45bbbfecc0fd80143c5e3a19ae7e935e04cd2365277e8d2d9698e4a5df"),
    "verify-universal-covering": (0, "9d838d6e6d90039db60a91b81b9d90ecf694310b523c3718632cf48e8dcf6731"),
    "verify-universal-covering-seq": (0, "9d838d6e6d90039db60a91b81b9d90ecf694310b523c3718632cf48e8dcf6731"),
    "verify-universal-escape": (0, "53e662acecb67bf24bce7e51d054fb85865887f4ffe11e106d659974eba70da9"),
    "verify-universal-gaps": (0, "1156a8b74c1eee5d358a77df31c590e15a2832dd08bf2d4106d60b6d8dadc07c"),
    "verify-universal-gaps-seq": (0, "1156a8b74c1eee5d358a77df31c590e15a2832dd08bf2d4106d60b6d8dadc07c"),
    "verify-universal-integrality": (0, "eb30394ece4fe7340ca60ebfc5bf50461a82c40f33c401970f3ebb3f1751c753"),
    "verify-universal-integrality-seq": (0, "eb30394ece4fe7340ca60ebfc5bf50461a82c40f33c401970f3ebb3f1751c753"),
    "verify-universal-lemma": (0, "d984d1cbd0c3b1cbf4d1f16d9166044bdb6c97913fec475a7553b24e356df4d0"),
    "verify-universal-series": (0, "93c5cd756b62fecaa23f98916d35e48e884bb67cdf1c3790eda6aaec6abb48c7"),
}


def run_case(name, tmp_path, capsys):
    out = tmp_path / "out"
    g = tmp_path / "g.json"
    g.write_text(json.dumps(G_THM31))
    seq = tmp_path / "seq.json"
    if "{seq}" in CASES[name]:
        assert main(["construct", "universal", "--limit", "2,3", "--out", str(seq)]) == 0
        capsys.readouterr()
    argv = [a.format(out=out, G=g, seq=seq) for a in CASES[name]]
    code = main(argv)
    stdout = capsys.readouterr().out
    return code, hashlib.sha256(out.read_bytes() + stdout.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == EXPECTED[name]


def test_converge_whose_table_fails_to_certify_is_a_violation(tmp_path, capsys, monkeypatch):
    """If [4,5] fails to certify, the run stops with one stderr line, exit 1
    and no report: there is no second path."""
    monkeypatch.setattr(ig, "shift_invariant_decade_sums", lambda *a: None)
    out = tmp_path / "out"
    code = main(["verify", "thm33", "--suite", "converge", "--jmax", "4", "--report", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL and captured.out == "" and not out.exists()
    assert captured.err.startswith("claim violation: ") and len(captured.err.splitlines()) == 1


def test_converge_reads_the_certified_table_alone(tmp_path, capsys, monkeypatch):
    """converge never sums the decades at a sample's own x."""

    def per_x(*a):
        raise AssertionError("decade_sums called")

    monkeypatch.setattr(ig, "decade_sums", per_x)
    assert run_case("verify-thm33-converge", tmp_path, capsys) == EXPECTED["verify-thm33-converge"]


def test_covering_fails_where_a_wide_block_is_cut_short(tmp_path, capsys):
    """An artifact whose step (1,2) wide block holds half its points: from
    that step on some sampled witnesses leave their step, and each prints
    FAIL with its x and error; the run exits 1."""
    seq, out = tmp_path / "seq.json", tmp_path / "out"
    assert main(["construct", "universal", "--limit", "2,3", "--out", str(seq)]) == 0
    capsys.readouterr()
    data = json.loads(seq.read_text())
    wide = data["blocks"][2 * IndexJK(1, 2).position()]
    assert wide["tag"] == "1,2:wide"
    wide["count"] = str(int(wide["count"]) // 2)
    seq.write_text(json.dumps(data))
    argv = ["verify", "universal", "--suite", "covering", "--limit", "2,3", "--samples", "3", "--seq", str(seq), "--report", str(out)]
    code = main(argv)
    stdout = capsys.readouterr().out
    report = json.loads(out.read_text())
    failed = [r for r in report if not r["pass"] and "/sample" in r["claim"]]
    assert failed and all(set(r["params"]) == {"x", "error"} for r in failed)
    assert any(r["claim"] == "covering/1,1" and r["pass"] for r in report)
    digest = hashlib.sha256(out.read_bytes() + stdout.encode()).hexdigest()
    assert (code, digest) == (EXIT_FAIL, "365c45bd02bedf7c86c2a0b62ef691418b3de64175ebe436259f4f6e4f0c1fe8")
