"""End-to-end command-line checks: artifacts, suites, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dyadlab import cli, lattice
from dyadlab import universal as uv
from dyadlab.cli import EXIT_FAIL, EXIT_PASS, EXIT_SKIP, EXIT_USAGE, SUITES, build_parser, main
from dyadlab.dense_divergence import build_thm31
from dyadlab.exactnum import ONE, ZERO, Dyadic, GuardExceeded, PiecewiseLinear, set_span_guard, span_guard
from oracles import cum_values_dyadic, fmt_count_by_str, sample_in_dyadic, seq_from_json_checked, step_at


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_universal_1_1(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        code, stdout, _ = run(capsys, "construct", "universal", "--limit", "1,1", "--out", str(out))
        assert code == EXIT_PASS
        assert "2 blocks" in stdout and "total points 8309" in stdout
        data = json.loads(out.read_text())
        assert data["origin"] == "15*2^0"
        assert len(data["blocks"]) == 2

    def test_thm33_jmax1(self, tmp_path, capsys):
        out = tmp_path / "c33.json"
        code, stdout, _ = run(capsys, "construct", "thm33", "--jmax", "1", "--out", str(out))
        assert code == EXIT_PASS
        assert "2 blocks" in stdout
        data = json.loads(out.read_text())
        assert len(data["seq"]["blocks"]) == 2

    def test_thm31(self, tmp_path, capsys):
        out = tmp_path / "c31.json"
        code, stdout, _ = run(capsys, "construct", "thm31", "--jmax", "10", "--out", str(out))
        assert code == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["jmax"] == 10

    def test_thm31_with_G_records_selection(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(["(-4*2^0,4*2^0)"]))
        out = tmp_path / "c31.json"
        code, _, _ = run(
            capsys, "construct", "thm31", "--jmax", "10", "--G", str(g), "--out", str(out)
        )
        assert code == EXIT_PASS
        data = json.loads(out.read_text())
        assert 1 in data["selected_js"]
        assert all(isinstance(j, int) for j in data["selected_js"])

    def test_invalid_limit_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "construct", "universal", "--limit", "1,4", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("k", [39, 40, 41, 42, 100, 19732])
    def test_a_count_prints_as_its_full_decimal_does(self, k):
        # 10^k - 1 has k digits and 10^k has k + 1: in full up to 40 digits,
        # abbreviated from 41; random counts of k and k + 1 digits besides
        rng = random.Random(k)
        ns = [10**k - 1, 10**k, 10**k + 1, rng.randrange(10 ** (k - 1), 10**k), rng.randrange(10**k, 10 ** (k + 1))]
        for n in ns:
            assert cli._fmt_count(n) == fmt_count_by_str(n), n
        assert [cli._fmt_count(n).endswith(" digits)") for n in ns[:2]] == [k > 40, k >= 40]

    def test_thm31_jmax_16_count_prints_as_its_full_decimal_does(self, tmp_path, capsys):
        cons = build_thm31(16)
        n = sum(w.count for w in cons.lambda_windows()) - sum(w.count for w in cons.lambda_overlaps())
        code, stdout, _ = run(capsys, "construct", "thm31", "--jmax", "16", "--out", str(tmp_path / "c31.json"))
        assert code == EXIT_PASS
        assert stdout == f"thm31 through j=16: 16 tents, lattice points {fmt_count_by_str(n)}\n"
        assert fmt_count_by_str(n) == "3.282e+19732 (19733 digits)"


class TestVerify:
    def test_lemma_sweep(self, capsys, tmp_path):
        rep = tmp_path / "r.json"
        code, stdout, _ = run(
            capsys, "verify", "universal", "--suite", "lemma", "--limit", "3,0", "--report", str(rep)
        )
        assert code == EXIT_PASS
        assert "0 failures" in stdout
        data = json.loads(rep.read_text())
        assert all(r["pass"] for r in data)

    def test_gaps_roundtrip_and_tamper(self, capsys, tmp_path):
        art = tmp_path / "seq.json"
        run(capsys, "construct", "universal", "--limit", "2,3", "--out", str(art))
        code, _, _ = run(
            capsys, "verify", "universal", "--suite", "gaps", "--limit", "2,3", "--seq", str(art)
        )
        assert code == EXIT_PASS
        data = json.loads(art.read_text())
        data["blocks"][1]["gap"] = "3*2^-9"  # perturb one gap
        art.write_text(json.dumps(data))
        code, _, _ = run(
            capsys, "verify", "universal", "--suite", "gaps", "--limit", "2,3", "--seq", str(art)
        )
        assert code == EXIT_FAIL

    def test_integrality(self, capsys):
        code, _, _ = run(capsys, "verify", "universal", "--suite", "integrality", "--limit", "2,2")
        assert code == EXIT_PASS

    def test_covering_small(self, capsys):
        code, stdout, _ = run(
            capsys,
            "verify", "universal", "--suite", "covering", "--limit", "1,2", "--samples", "5", "--seed", "7",
        )
        assert code == EXIT_PASS

    def test_escape_at_j1_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "universal", "--suite", "escape", "--limit", "1,2")
        assert code == EXIT_PASS

    def test_escape_passes_at_j2(self, capsys):
        code, stdout, _ = run(capsys, "verify", "universal", "--suite", "escape", "--limit", "2,1")
        assert code == EXIT_PASS
        assert "PASS escape-measure/2,0 " in stdout
        assert stdout.endswith("6 claims, 0 failures\n")

    def test_escape_budget_skip_is_counted(self, capsys, monkeypatch):
        # (1,0)-(1,2) each list 3 residues over 3 families and sum 4 pieces
        # (13); (1,3), the last step of row 1, lists 1 residue over 2 families
        # and sums 6 pieces (8)
        monkeypatch.setattr(uv, "ESCAPE_BUDGET", 12)
        code, stdout, _ = run(capsys, "verify", "universal", "--suite", "escape", "--limit", "2,0")
        assert code == EXIT_SKIP
        assert "PASS escape-measure/1,3 " in stdout
        assert "SKIP escape-measure/1,0 lhs= rhs=\n" in stdout
        assert stdout.endswith("5 claims, 0 failures, 3 skipped\n")

    def test_escape_verifies_all_of_row_2(self, capsys):
        code, stdout, _ = run(capsys, "verify", "universal", "--suite", "escape", "--limit", "2,6")
        assert code == EXIT_PASS
        assert "PASS escape-measure/2,5 lhs=17592181850113*2^-62 rhs=11*2^-21\n" in stdout
        assert stdout.endswith("11 claims, 0 failures\n")

    def test_escape_verifies_through_3_0(self, capsys):
        code, stdout, _ = run(capsys, "verify", "universal", "--suite", "escape", "--limit", "3,1")
        assert code == EXIT_PASS
        assert "PASS escape-measure/3,0 " in stdout
        assert stdout.endswith("22 claims, 0 failures\n")

    def test_series(self, capsys):
        code, _, _ = run(
            capsys, "verify", "universal", "--suite", "series", "--limit", "1,2", "--samples", "3"
        )
        assert code == EXIT_PASS

    def test_series_at_first_index_is_usage_error(self, capsys):
        # the series prefixes start at (1,1); (1,0) has no prefix to count over
        code, stdout, stderr = run(capsys, "verify", "universal", "--suite", "series", "--limit", "1,0")
        assert code == EXIT_USAGE
        assert stdout == "" and len(stderr.strip().splitlines()) == 1

    def test_thm31_lower(self, capsys):
        code, _, _ = run(
            capsys, "verify", "thm31", "--suite", "lower", "--jmax", "8", "--samples", "10"
        )
        assert code == EXIT_PASS

    def test_thm31_all_suites(self, capsys):
        for suite in ("outside", "cross", "density", "tail"):
            code, _, _ = run(
                capsys, "verify", "thm31", "--suite", suite, "--jmax", "11", "--samples", "4"
            )
            assert code == EXIT_PASS, suite

    def test_thm33_suites(self, capsys):
        for suite in ("gaps", "diverge", "converge", "probe"):
            code, _, _ = run(
                capsys, "verify", "thm33", "--suite", suite, "--jmax", "4", "--samples", "5"
            )
            assert code == EXIT_PASS, suite

    def test_thm33_tampered_artifact(self, capsys, tmp_path):
        art = tmp_path / "c33.json"
        run(capsys, "construct", "thm33", "--jmax", "3", "--out", str(art))
        data = json.loads(art.read_text())
        data["seq"]["blocks"][0]["count"] = "33"
        art.write_text(json.dumps(data))
        code, _, _ = run(
            capsys, "verify", "thm33", "--suite", "gaps", "--jmax", "3", "--seq", str(art)
        )
        assert code == EXIT_FAIL

    @pytest.mark.parametrize("construction", ["universal", "thm33"])
    @pytest.mark.parametrize(
        "content",
        [
            '{"origin": "15*2^0"}',
            "[1, 2]",
            '{"blocks": []}',
            '{"seq": {"blocks": []}}',
            '{"origin": "15*2^0", "blocks": [5]}',
            '{"origin": 0, "blocks": []}',
            '{"origin": "0", "blocks": [{"gap": 1, "count": "3"}]}',
            '{"origin": "0", "blocks": [{"gap": "1", "count": 3.5}]}',
            '{"origin": "0", "blocks": [{"gap": "1", "count": "3", "tag": 7}]}',
            # int() reads each of these counts as 160; the format takes only [0-9]+
            *(
                '{"origin": "0", "blocks": [{"gap": "1", "count": "%s"}]}' % count
                for count in ("16_0", " 160", "160 ", "+160", "\\u0661\\u0666\\u0660")
            ),
        ],
    )
    def test_malformed_artifact_is_usage_error(self, capsys, tmp_path, construction, content):
        art = tmp_path / "bad.json"
        art.write_text(content)
        size = ["--limit", "1,1"] if construction == "universal" else ["--jmax", "1"]
        code, stdout, stderr = run(
            capsys, "verify", construction, "--suite", "gaps", *size, "--seq", str(art)
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert len(stderr.strip().splitlines()) == 1 and "not a gap-block artifact" in stderr

    @pytest.mark.parametrize("content", ["[1]", '[""]', '["[1,2,3]"]', "5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "universal", "--suite", "series", "--limit", "1,1", "--samples", "1"],
            ["eval", "thm31", "--jmaxes", "1", "--xs", "0"],
        ],
    )
    def test_malformed_open_set_is_usage_error(self, capsys, tmp_path, content, argv):
        g = tmp_path / "G.json"
        g.write_text(content)
        code, stdout, stderr = run(capsys, *argv, "--G", str(g))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert len(stderr.strip().splitlines()) == 1
        assert "cannot parse interval from" in stderr or str(g) in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "universal", "--suite", "series", "--limit", "1,1", "--samples", "1"],
            ["construct", "thm31", "--jmax", "3", "--out", "{out}"],
            ["eval", "thm31", "--jmaxes", "3", "--xs", "0"],
        ],
        ids=["verify", "construct", "eval"],
    )
    def test_open_set_with_a_closed_part_is_usage_error(self, capsys, tmp_path, argv):
        # the theorem covers open G only, so a part that is not open is refused
        g, out = tmp_path / "G.json", tmp_path / "out.json"
        g.write_text('["[0,1]"]')
        argv = [a.format(out=out) for a in argv]
        code, stdout, stderr = run(capsys, *argv, "--G", str(g))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert stderr == "error: open-set part [0*2^0,1*2^0] is not an open interval\n"
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["integrality", "covering", "escape", "series"])
    def test_short_artifact_is_usage_error(self, capsys, tmp_path, suite):
        art = tmp_path / "u11.json"
        run(capsys, "construct", "universal", "--limit", "1,1", "--out", str(art))
        code, stdout, stderr = run(
            capsys, "verify", "universal", "--suite", suite, "--limit", "1,3", "--seq", str(art)
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert stderr.strip().splitlines() == [f"error: {art}: 2 blocks, --limit (1,3) needs 6"]

    def test_series_reads_the_artifact(self, capsys, tmp_path):
        art, built, read = tmp_path / "u25.json", tmp_path / "built.json", tmp_path / "read.json"
        run(capsys, "construct", "universal", "--limit", "2,5", "--out", str(art))
        argv = ["verify", "universal", "--suite", "series", "--limit", "2,5", "--samples", "2"]
        assert run(capsys, *argv, "--report", str(built))[0] == EXIT_PASS
        code, stdout, _ = run(capsys, *argv, "--seq", str(art), "--report", str(read))
        assert code == EXIT_PASS and stdout.endswith("12 claims, 0 failures\n")
        assert read.read_bytes() == built.read_bytes()
        data = json.loads(art.read_text())
        data["origin"] = "1000"  # every point moves past the combs
        art.write_text(json.dumps(data))
        assert run(capsys, *argv, "--seq", str(art))[0] == EXIT_FAIL

    def test_series_reads_a_longer_artifact_through_its_limit(self, capsys, tmp_path):
        # the blocks past 2*position(limit) add no count: an artifact built
        # through (2,15) and read at 2,5 gives the bytes of the build through 2,5
        art, built, read = tmp_path / "u215.json", tmp_path / "built.json", tmp_path / "read.json"
        run(capsys, "construct", "universal", "--limit", "2,15", "--out", str(art))
        argv = ["verify", "universal", "--suite", "series", "--limit", "2,5", "--samples", "2"]
        assert run(capsys, *argv, "--report", str(built))[0] == EXIT_PASS
        assert run(capsys, *argv, "--seq", str(art), "--report", str(read))[0] == EXIT_PASS
        assert read.read_bytes() == built.read_bytes()

    @pytest.mark.parametrize("seq", [False, True], ids=["build", "artifact"])
    def test_series_reads_the_prefix_once_per_op(self, capsys, monkeypatch, tmp_path, seq):
        """The prefix's runs do not depend on the sample: one op lists them
        once, whatever --samples is."""
        calls = []
        segments = lattice.GapBlockSeq.segments_in_range
        monkeypatch.setattr(
            lattice.GapBlockSeq, "segments_in_range", lambda self, *a: calls.append(a) or segments(self, *a)
        )
        argv = ["verify", "universal", "--suite", "series", "--limit", "2,5"]
        if seq:
            run(capsys, "construct", "universal", "--limit", "2,7", "--out", str(tmp_path / "u27.json"))
            argv += ["--seq", str(tmp_path / "u27.json")]
        for samples, code in (("0", EXIT_SKIP), ("1", EXIT_PASS), ("5", EXIT_PASS)):
            calls.clear()
            assert run(capsys, *argv, "--samples", samples)[0] == code
            assert len(calls) == 1, samples

    @pytest.mark.parametrize(
        "option, construction, suite",
        [
            pytest.param("--seq", construction, suite, id=f"{construction}-{suite}")
            for construction, suite in [("universal", "lemma"), ("thm33", "diverge"), ("thm33", "converge"), ("thm33", "probe")]
        ]
        + [
            pytest.param("--G", "universal", suite, id=f"G-universal-{suite}")
            for suite in ("lemma", "gaps", "integrality", "covering", "escape")
        ],
    )
    def test_seq_on_a_suite_that_ignores_it_is_usage_error(self, capsys, option, construction, suite):
        """So is --G on any universal suite but series; neither file is read."""
        code, stdout, stderr = run(capsys, "verify", construction, "--suite", suite, option, "/nonexistent.json")
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == f"error: {option} is not read by the {construction} {suite} suite\n"

    @pytest.mark.parametrize(
        "construction, suite",
        [("universal", "covering"), ("thm31", "tail"), ("thm33", "converge"), ("thm33", "probe")],
    )
    def test_negative_samples_is_usage_error(self, capsys, construction, suite):
        code, stdout, stderr = run(capsys, "verify", construction, "--suite", suite, "--samples", "-1")
        assert code == EXIT_USAGE
        assert stdout == ""
        assert len(stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "thm33", "--suite", "converge", "--samples", "abc"], "dyadlab verify thm33: error: argument --samples"),
            (["verify", "universal", "--suite", "lemma", "--limit", "1"], "dyadlab verify universal: error: argument --limit"),
            (["construct", "universal", "--limit", "1,4", "--out", "x.json"], "dyadlab construct universal: error:"),
            (["eval", "thm33", "--jmaxes"], "dyadlab eval thm33: error:"),
            (["verify"], "dyadlab verify: error:"),
            (["bogus"], "dyadlab: error:"),
            # a token that starts like a negative number is a value, so its own converter names the fault
            (["verify", "universal", "--suite", "lemma", "--limit", "-1,0"], "dyadlab verify universal: error: argument --limit: bad index '-1,0': j must be >= 1, got -1\n"),
            (["eval", "universal", "--limits", "1,1", "-1,0"], "dyadlab eval universal: error: argument --limits: bad index '-1,0': j must be >= 1, got -1\n"),
            (["eval", "thm31", "--jmaxes", "3", "--xs", "-1x"], "dyadlab eval thm31: error: argument --xs: cannot parse dyadic scalar from '-1x'\n"),
            (["eval", "thm33", "--jmaxes", "1", "--xs", "0", "-.5"], "dyadlab eval thm33: error: argument --xs: cannot parse dyadic scalar from '-.5'\n"),
        ],
    )
    def test_argparse_rejection_is_one_line(self, capsys, argv, message):
        code, stdout, stderr = run(capsys, *argv)
        assert code == EXIT_USAGE and stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith(message)

    @staticmethod
    def _thm33_argv(command, jmax, tmp_path):
        return {
            "verify": ["verify", "thm33", "--suite", "gaps", "--jmax", jmax],
            "construct": ["construct", "thm33", "--jmax", jmax, "--out", str(tmp_path / "c33.json")],
            "eval": ["eval", "thm33", "--jmaxes", jmax, "--xs", "0"],
        }[command]

    @pytest.mark.parametrize("jmax", ["19", "20"])
    @pytest.mark.parametrize("command", ["verify", "construct", "eval"])
    def test_guard_message_abbreviates_wide_operands(self, capsys, tmp_path, command, jmax):
        # decade 19's fine count alone is 2^20 + 2 bits, past the default
        # guard: the build refuses it before computing it
        code, stdout, stderr = run(capsys, *self._thm33_argv(command, jmax, tmp_path))
        assert code == EXIT_SKIP and stdout == ""
        assert len(stderr.splitlines()) == 1 and len(stderr) < 1024
        assert stderr.startswith("guard: decade 19 fine block count needs 1048578 bits")

    @pytest.mark.parametrize("command", ["verify", "construct", "eval"])
    def test_wide_table_is_refused_in_one_line(self, capsys, tmp_path, command):
        # at jmax 18 every count fits a 524293-bit guard, but the table's
        # grid 2^-524288, set by the last decade's fine total, does not hold 178
        code, stdout, stderr = run(capsys, "--span-guard", "524293", *self._thm33_argv(command, "18", tmp_path))
        assert code == EXIT_SKIP and stdout == ""
        assert stderr == "guard: gap-block table needs 524296 bits on the grid 2^-524288 (guard 524293)\n"

    def test_wide_guard_operand_prints_by_width(self, capsys, tmp_path):
        # the table of this artifact, on the grid 2^0, fits a 5020-bit guard;
        # the series suite's Dyadic sum of a sample x on the grid 2^-49 and
        # the first point 2^5000 + 16 does not, and that point's 4997-bit
        # mantissa is printed by its width
        data = {"origin": "15*2^0", "blocks": [
            {"gap": f"{2**5000 + 1}*2^0", "count": "1", "tag": "1,0:wide"},
            {"gap": "1*2^0", "count": "1", "tag": "1,0:half"},
        ]}
        art = tmp_path / "wide.json"
        art.write_text(json.dumps(data))
        argv = ["verify", "universal", "--suite", "series", "--limit", "1,1", "--samples", "1", "--seq", str(art)]
        code, stdout, stderr = run(capsys, "--span-guard", "5020", *argv)
        assert code == EXIT_SKIP and stdout == ""
        assert len(stderr.splitlines()) == 1 and len(stderr) < 1024
        assert stderr.startswith("guard: aligned mantissa would need 5050 bits (guard 5020): ")
        assert stderr.endswith(" + <4997-bit mantissa>*2^4\n")

    def test_help_still_prints_usage(self, capsys):
        code, stdout, stderr = run(capsys, "verify", "thm33", "--help")
        assert code == EXIT_PASS and stderr == ""
        assert stdout.startswith("usage: dyadlab verify thm33") and "--suite" in stdout

    @pytest.mark.parametrize("bits", ["100", "4096", "10"])
    def test_span_guard_applies_to_one_invocation(self, capsys, bits):
        before = span_guard()
        code, _, stderr = run(
            capsys, "--span-guard", bits, "verify", "universal", "--suite", "lemma", "--limit", "1,1"
        )
        assert span_guard() == before
        if bits == "10":
            assert code == EXIT_USAGE and len(stderr.strip().splitlines()) == 1

    def test_determinism_byte_identical(self, capsys, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["verify", "thm33", "--suite", "converge", "--jmax", "3", "--samples", "8", "--seed", "42"]
        assert main(argv + ["--report", str(r1)]) == EXIT_PASS
        assert main(argv + ["--report", str(r2)]) == EXIT_PASS
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_different_seed_changes_samples(self, capsys, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base = ["verify", "thm33", "--suite", "converge", "--jmax", "3", "--samples", "4"]
        main(base + ["--seed", "1", "--report", str(r1)])
        main(base + ["--seed", "2", "--report", str(r2)])
        capsys.readouterr()
        assert r1.read_bytes() != r2.read_bytes()


class TestEval:
    def test_universal_counts_nondecreasing(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run(
            capsys,
            "eval", "universal",
            "--limits", "1,1", "1,2", "1,3",
            "--xs", "0.75",
            "--out", str(out),
        )
        assert code == EXIT_PASS
        import csv as _csv

        from dyadlab.exactnum import Dyadic

        with out.open() as fh:
            rows = list(_csv.reader(fh))
        assert rows[0] == ["x", "limit", "sum_dyadic", "sum_decimal", "error"]
        counts = [Dyadic.parse(r[2]).as_integer() for r in rows[1:]]
        assert counts == sorted(counts)
        assert counts[-1] >= 1

    def test_thm33_strictly_increasing(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run(
            capsys,
            "eval", "thm33", "--jmaxes", "1", "2", "3", "4", "--xs", "0", "--out", str(out),
        )
        assert code == EXIT_PASS
        lines = out.read_text().strip().splitlines()[1:]
        from dyadlab.exactnum import Dyadic

        sums = [Dyadic.parse(l.split(",")[2]) for l in lines]
        assert all(a < b for a, b in zip(sums, sums[1:]))
        # x=0, one decade: exactly 3/32
        assert sums[0] == Dyadic(3, -5)
        assert lines[0].split(",")[3] == "0.09375"

    def test_empty_xs_header_only(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "eval", "thm33", "--jmaxes", "1", "--out", str(out))
        assert code == EXIT_PASS
        assert out.read_text().strip() == "x,limit,sum_dyadic,sum_decimal,error"

    def test_error_column(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "eval", "thm33", "--jmaxes", "1", "--xs", "2", "--out", str(out)
        )
        assert code == EXIT_PASS
        row = out.read_text().strip().splitlines()[1]
        assert "outside [0, 1]" in row

    @pytest.mark.parametrize("argv", [["thm31", "--jmaxes", "3"], ["thm33", "--jmaxes", "1"], ["universal", "--limits", "1,1"]])
    def test_negative_dyadic_x_matches_decimal(self, capsys, argv):
        code, stdout, stderr = run(capsys, "eval", *argv, "--xs", "0", "-1*2^-1", "-0.5")
        assert code == EXIT_PASS and stderr == ""
        header, zero, dyadic, decimal = stdout.splitlines()
        assert dyadic == decimal and dyadic.startswith("-1*2^-1,")


_SMALLEST_SIZES = {
    "universal": [("--limit", "1,1"), ("--limit", "1,2")],
    "thm31": [("--jmax", "1"), ("--jmax", "2")],
    "thm33": [("--jmax", "1"), ("--jmax", "2")],
}


@pytest.mark.parametrize(
    "construction, suite, size",
    [(c, s, size) for c, s in sorted(SUITES) for size in _SMALLEST_SIZES[c]],
    ids=lambda v: "=".join(v) if isinstance(v, tuple) else v,
)
def test_every_suite_passes_at_its_smallest_sizes(capsys, construction, suite, size):
    """thm31 cross, density and tail assert no claim through j = 10; thm31
    outside none at jmax 1, whose one tripled interval covers [-1, 1]; and
    thm33 diverge none with one decade: they exit 3."""
    code, stdout, stderr = run(capsys, "verify", construction, "--suite", suite, *size, "--samples", "2")
    no_claim = {("thm31", "cross"), ("thm31", "density"), ("thm31", "tail")}
    one = {("thm31", "outside", ("--jmax", "1")), ("thm33", "diverge", ("--jmax", "1"))}
    if (construction, suite) in no_claim or (construction, suite, size) in one:
        assert code == EXIT_SKIP and stdout.endswith(", no claim asserted\n"), stdout
    else:
        assert code == EXIT_PASS, stdout
    assert stderr == "" and "Traceback" not in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["thm31", "--suite", "cross", "--jmax", "9"],
        ["thm31", "--suite", "density", "--jmax", "1"],
        ["thm31", "--suite", "outside", "--jmax", "1", "--samples", "2"],
        ["thm31", "--suite", "outside", "--jmax", "11", "--samples", "0"],
        ["thm31", "--suite", "tail", "--jmax", "10", "--samples", "3"],
        ["thm33", "--suite", "converge", "--samples", "0"],
        ["universal", "--suite", "covering", "--limit", "1,3", "--samples", "0"],
        ["thm33", "--suite", "probe", "--samples", "0"],
        ["thm33", "--suite", "diverge", "--jmax", "1", "--samples", "1"],
        ["universal", "--suite", "integrality", "--limit", "1,0"],
    ],
)
def test_a_run_that_asserts_no_claim_is_incomplete(capsys, argv):
    """Only informational reports, or none, pass nothing: exit 3."""
    code, stdout, stderr = run(capsys, "verify", *argv)
    assert code == EXIT_SKIP and stderr == ""
    assert "FAIL" not in stdout and stdout.endswith(" 0 failures, no claim asserted\n"), stdout
    assert "PASS " not in stdout, "an informational report prints INFO"


def test_converge_sums_each_decade_once_whatever_the_samples(capsys, monkeypatch):
    """The decade sums are certified once for all of [4,5] off the jmax
    decade tables, so neither the tables built nor their `at` reads grow
    with --samples, and the tables' checked path is never taken."""
    built, reads, checked = [], [], []
    init, at, slow = lattice.RunSums.__init__, lattice.RunSums.at, lattice.RunSums._checked
    monkeypatch.setattr(lattice.RunSums, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(lattice.RunSums, "at", lambda self, x: reads.append(x) or at(self, x))
    monkeypatch.setattr(lattice.RunSums, "_checked", lambda self, *a: checked.append(a) or slow(self, *a))
    counts = []
    for samples in ("5", "100"):
        built.clear()
        reads.clear()
        code, _, _ = run(capsys, "verify", "thm33", "--suite", "converge", "--jmax", "8", "--samples", samples)
        assert code == EXIT_PASS
        counts.append((len(built), len(reads)))
    assert counts[0] == counts[1] and counts[0][0] == 8 and counts[0][1] > 0 and checked == []


_FEW_MANY_SAMPLES = (["--samples", "5"], ["--samples", "40"])


@pytest.mark.parametrize(
    "argv, few_many, tables",
    [
        (["verify", "thm33", "--suite", "diverge", "--jmax", "8"], _FEW_MANY_SAMPLES, 8),
        (["verify", "thm33", "--suite", "probe", "--jmax", "8"], _FEW_MANY_SAMPLES, 8),
        (["verify", "thm31", "--suite", "lower", "--jmax", "16"], _FEW_MANY_SAMPLES, 16),
        (["verify", "thm31", "--suite", "outside", "--jmax", "16"], _FEW_MANY_SAMPLES, 16),
        (["verify", "thm31", "--suite", "tail", "--jmax", "16"], _FEW_MANY_SAMPLES, 32),
        # one table per item, and one per (j0, j) pair: 7*15 asserted, 1 informational
        (["verify", "thm31", "--suite", "cross", "--jmax", "16"], _FEW_MANY_SAMPLES, 16 + 106),
        # one per item, and per tent one over Λ's windows and one over their shared points
        (
            ["eval", "thm31", "--jmaxes", "16"],
            (["--xs", "0", "-3*2^-2"], ["--xs", "0", "-3*2^-2", "1", "5*2^-3", "-16", "3*2^-48", "1*2^4", "-7*2^-1"]),
            48,
        ),
    ],
    ids=["diverge", "probe", "lower", "outside", "tail", "cross", "eval-thm31"],
)
def test_each_run_table_is_built_once_whatever_the_samples(capsys, monkeypatch, argv, few_many, tables):
    """One `RunSums` table per thm33 decade or thm31 item is built per op,
    and for tail one more per tent over the coarse runs, for cross one per
    pair of a tent and a fine window, and for `eval thm31` two per tent.
    Every sum the run asks for is read off those tables on their fast
    path: more samples or xs mean more `at` calls (cross reads no sample,
    so as many), not more tables, and no call of the tables' checked path
    at all."""
    built, reads, checked = [], [], []
    init, at, slow = lattice.RunSums.__init__, lattice.RunSums.at, lattice.RunSums._checked
    monkeypatch.setattr(lattice.RunSums, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(lattice.RunSums, "at", lambda self, x: reads.append(x) or at(self, x))
    monkeypatch.setattr(lattice.RunSums, "_checked", lambda self, *a: checked.append(a) or slow(self, *a))
    counts = []
    for extra in few_many:
        built.clear()
        reads.clear()
        code, _, _ = run(capsys, *argv, *extra)
        assert code == EXIT_PASS
        counts.append((len(built), len(reads)))
    assert counts[0][0] == counts[1][0] == tables
    if "cross" in argv:
        assert 0 < counts[0][1] == counts[1][1] and checked == []
    else:
        assert 0 < counts[0][1] < counts[1][1] and checked == []


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab", "verify", "universal", "--suite", "lemma", "--limit", "1,1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert proc.stdout.endswith("2 claims, 0 failures\n")


def test_the_parser_is_built_once_and_reused_unchanged(capsys):
    """main builds its parser on the first call and reuses it: a run, a
    usage error and the same run again print the same bytes as fresh
    calls, and so do a repeated usage error and a repeated --help."""
    ok = ["verify", "thm33", "--suite", "diverge", "--jmax", "2", "--samples", "1"]
    bad = ["verify", "thm33", "--suite", "diverge", "--jmax", "two"]
    first = run(capsys, *ok)
    usage = run(capsys, *bad)
    assert usage[0] == EXIT_USAGE and usage[1] == ""
    assert usage[2].startswith("dyadlab verify thm33: error: argument --jmax: invalid int value: 'two'")
    assert run(capsys, *ok) == first and first[0] == EXIT_PASS
    assert run(capsys, *bad) == usage
    helps = [run(capsys, "verify", "thm31", "--help") for _ in range(2)]
    assert helps[0] == helps[1] and helps[0][0] == EXIT_PASS and "--jmax" in helps[0][1]
    assert build_parser() is build_parser()


def test_a_run_builds_only_the_parsers_on_its_path(capsys, monkeypatch):
    """A fresh process builds the root parser and then one parser per
    command word it parses; a later call in the process builds none."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        argv = ["verify", "universal", "--suite", "lemma", "--limit", "1,1"]
        assert run(capsys, *argv)[0] == EXIT_PASS
        assert built == ["dyadlab", "dyadlab verify", "dyadlab verify universal"]
        assert run(capsys, *argv)[0] == EXIT_PASS
        assert len(built) == 3
    finally:
        build_parser.cache_clear()


# stdout of each --help at 80 columns: SHA-256 of the bytes the parser
# printed when it still built all thirteen parsers up front
HELP_SHA256 = {
    "": "badbdedafd8270910af840bac6a38f77f9d1717af92e630ba97d5e545e271b30",
    "construct": "b543d36f00c3e983ce29711e6787a657b1ca9375b13fcc0e35a3b3e0e8548d39",
    "verify": "ef41df6e36dc6e2be047a393426649afa9a605faafc162ed0d4d4b48029ace21",
    "eval": "85b09c1a33f812ec6aa91df32cf33364491db3d1c97869a015a7e7a15d0be4c9",
    "construct universal": "6347234006ea907c9cd1cbd659bf896e5ef0a24bf12838565378cb2d85b7e2de",
    "construct thm31": "bcef5818c4254b2063d013763340fca674f8739367c594f7ad636be7f9f8357d",
    "construct thm33": "dfd81c49e631262bb8b398638a0a4d0d9d68552789e3a0ba2b1ccc0fcb4b1a58",
    "verify universal": "f7fd5971677312e458aef463757a651f9e64032b705175abbb1af06059fe8730",
    "verify thm31": "8ab9ed657d2978bf1c1fba93a827be3fb10dc5305d79478ec3aa530a7716fadc",
    "verify thm33": "04cd3da100e982c1437cc2274a671b121e78d24057c761db47ebcc2550094b36",
    "eval universal": "0127987a57dc479a4f9308c5a682abebdffa13b1b76b93627ea998101c0d0abe",
    "eval thm31": "f9731db13f551fc98ccbbccb23b5dde004523ab88bcf8b1117a1606d6a171717",
    "eval thm33": "46cba7b5e05a7788b1a4c16f2f1f369c3a9752450dd965d5c11e162727a7a4a6",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256), ids=lambda c: c or "dyadlab")
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = run(capsys, *command.split(), "--help")
    assert code == EXIT_PASS and stderr == ""
    assert hashlib.sha256(stdout.encode()).hexdigest() == HELP_SHA256[command]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "dyadlab: error: argument command: invalid choice: 'bogus' (choose from 'construct', 'verify', 'eval')"),
        (["verify", "bogus"], "dyadlab verify: error: argument construction: invalid choice: 'bogus' (choose from 'universal', 'thm31', 'thm33')"),
        (["verify", "universal", "--suite", "bogus"], "dyadlab verify universal: error: argument --suite: invalid choice: 'bogus' (choose from 'lemma', 'gaps', 'integrality', 'covering', 'escape', 'series')"),
        (["--span-guard", "abc", "verify", "universal", "--suite", "lemma"], "dyadlab: error: argument --span-guard: invalid int value: 'abc'"),
        (["construct", "universal", "--out", "x.json"], "dyadlab construct universal: error: the following arguments are required: --limit"),
        (["verify", "thm33", "--suite", "gaps", "--jmax", "two"], "dyadlab verify thm33: error: argument --jmax: invalid int value: 'two'"),
        ([], "dyadlab: error: the following arguments are required: command"),
        (["eval"], "dyadlab eval: error: the following arguments are required: construction"),
    ],
)
def test_usage_error_bytes_are_pinned(capsys, argv, message):
    assert run(capsys, *argv) == (EXIT_USAGE, "", message + "\n")


@functools.cache
def _u11_artifact() -> str:
    """The text `construct universal --limit 1,1` writes."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(d, "u11.json")
        assert main(["construct", "universal", "--limit", "1,1", "--out", path]) == EXIT_PASS
        return Path(path).read_text()


# values of the wrong type or form, and well-formed values far from the build's
_JUNK = st.one_of(
    st.sampled_from(
        [
            None, True, False, 0, -1, 1.5, -2.0, [], ["15*2^0"], {},
            "0", "-5", "0.1", "abc", "", "16_0", "2,0:wide",
            "1*2^99999999999", "1*2^-99999999999",
        ]
    ),
    st.sampled_from(["1*2^-40", "3*2^-9", "1", "7", 3, "99999999999999999999", "1,0:wide"]),
)


@st.composite
def _mutated_artifacts(draw):
    """A `construct universal --limit 1,1` artifact with keys dropped, values
    replaced by junk, or `blocks` turned into a dict or a string; bare or
    wrapped as {"seq": ...}."""
    data = json.loads(_u11_artifact())
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 5)) == 0:
            data["blocks"] = draw(st.sampled_from([{"gap": "1*2^-9", "count": "3"}, "blocks"]))
            continue
        blocks = data.get("blocks")
        targets = [data, *(b for b in blocks if isinstance(b, dict))] if isinstance(blocks, list) else [data]
        target = draw(st.sampled_from(targets))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_JUNK)
    return {"seq": data} if draw(st.booleans()) else data


def _far_gaps(first: str, second: str, wrapped: bool = False) -> dict:
    """A `--limit 1,1` artifact whose two gaps are `first` and `second`."""
    data = {"origin": "15*2^0", "blocks": [
        {"gap": first, "count": "160", "tag": "1,0:wide"},
        {"gap": second, "count": "8148", "tag": "1,0:half"},
    ]}
    return {"seq": data} if wrapped else data


@settings(max_examples=150, deadline=None)
@given(_mutated_artifacts())
@example(_far_gaps("1*2^99999999999", "1*2^-99999999999"))
@example(_far_gaps("1*2^-99999999999", "1*2^99999999999", wrapped=True))
def test_fuzzed_artifact_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as d:
        art = os.path.join(d, "art.json")
        Path(art).write_text(json.dumps(data))
        runs = [
            ["verify", "universal", "--suite", suite, "--limit", "1,1", "--samples", "1", "--seq", art]
            for suite in ("integrality", "covering", "escape", "gaps")
        ]
        runs.append(["verify", "thm33", "--suite", "gaps", "--jmax", "1", "--seq", art])
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_SKIP), argv
            assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


@pytest.mark.parametrize("gaps", [("1*2^99999999999", "1*2^-99999999999"), ("1*2^-99999999999", "1*2^99999999999")])
def test_gaps_far_apart_are_refused_before_any_wide_int(capsys, tmp_path, gaps):
    # the block totals lie ~2*10^11 bits apart: the loader checks their widths
    # on the common grid before shifting any int and refuses in one line,
    # where the Dyadic loop refuses too
    data = _far_gaps(*gaps)
    art = tmp_path / "far.json"
    art.write_text(json.dumps(data))
    blocks = [lattice.GapBlock(Dyadic.parse(b["gap"]), int(b["count"])) for b in data["blocks"]]
    with pytest.raises(GuardExceeded):
        cum_values_dyadic(Dyadic(15), blocks)
    terms = [Dyadic(15)] + [b.gap * b.count for b in blocks]
    g = min(t.e for t in terms)
    width = max(t.m.bit_length() + t.e for t in terms) - g
    line = f"guard: gap-block table needs {width} bits on the grid 2^{g} (guard {span_guard()})\n"
    for suite in ("integrality", "covering", "escape", "gaps"):
        code, stdout, stderr = run(capsys, "verify", "universal", "--suite", suite, "--limit", "1,1", "--seq", str(art))
        assert (code, stdout, stderr) == (EXIT_SKIP, "", line), suite


def _loaded_or_refusal(load, data):
    try:
        seq = load(data)
    except Exception as exc:  # every refusal the loader can raise: its type and message must match
        return type(exc), str(exc)
    return seq, seq.cum_ints, seq.grid


@settings(max_examples=150, deadline=None)
@given(_mutated_artifacts(), st.sampled_from([64, 100, 1 << 20]))
@example(_far_gaps("1*2^99999999999", "1*2^-99999999999"), 1 << 20)
@example(_far_gaps("1*2^-40", "0*2^0"), 1 << 20)
def test_one_pass_loader_matches_the_checked_constructors(data, guard):
    # `from_json_dict` checks each block's input format, then builds it
    # through `GapBlock`: the same sequence and table, or the same refusal
    data = data["seq"] if "seq" in data else data
    old = set_span_guard(guard)
    try:
        got = _loaded_or_refusal(lattice.GapBlockSeq.from_json_dict, data)
        want = _loaded_or_refusal(seq_from_json_checked, data)
    finally:
        set_span_guard(old)
    assert got == want


@pytest.mark.parametrize("block, message", [
    ({"gap": "0*2^0", "count": "160"}, "gap must be positive, got 0*2^0"),
    ({"gap": "-1*2^-8", "count": "160"}, "gap must be positive, got -1*2^-8"),
    ({"gap": "1*2^-8", "count": "0"}, "count must be >= 1, got 0"),
    ({"gap": "1*2^-8", "count": 0}, "count must be >= 1, got 0"),
    ({"gap": "1*2^-8", "count": "1_0"}, "block count must be a decimal string or integer, got '1_0'"),
    ({"gap": "1*2^-8", "count": True}, "block count must be a decimal string or integer, got True"),
    ({"gap": "1*2^-8", "count": 1.0}, "block count must be a decimal string or integer, got 1.0"),
])
def test_a_bad_block_is_a_one_line_refusal(capsys, tmp_path, block, message):
    if message.startswith(("gap must", "count must")):
        # the loader's refusal is the constructor's own
        with pytest.raises(ValueError) as exc:
            lattice.GapBlock(Dyadic.parse(block["gap"]), int(block["count"]), "1,0:wide")
        assert str(exc.value) == message
    data = json.loads(_u11_artifact())
    data["blocks"][0] = {**block, "tag": "1,0:wide"}
    art = tmp_path / "bad.json"
    art.write_text(json.dumps(data))
    for suite in ("integrality", "covering", "gaps"):
        got = run(capsys, "verify", "universal", "--suite", suite, "--limit", "1,1", "--seq", str(art))
        assert got == (EXIT_USAGE, "", f"error: {art}: not a gap-block artifact (ValueError: {message})\n"), suite


_DYADICS = st.one_of(
    st.just(Dyadic(0)),
    st.builds(Dyadic, st.integers(-(2**80), 2**80), st.integers(-100, 100)),
)


@settings(max_examples=400, deadline=None)
@given(_DYADICS, _DYADICS, st.sampled_from([64, 65, 80, 100, 130, 200, 1 << 20]), st.integers(0, 2**32))
def test_sample_in_matches_the_dyadic_form(lo, hi, guard, seed):
    # the same draw and the same value, or GuardExceeded: exactly when an
    # operand may need more than the guard's bits on the grid 2^(e-48), e
    # the finer exponent of lo and hi, and so wherever the Dyadic form refuses
    e = min(lo.e, hi.e)
    width = max(lo.m.bit_length() + lo.e, hi.m.bit_length() + hi.e) + 49 - e
    outcomes = []
    for sample in (cli._sample_in, sample_in_dyadic):
        rng = random.Random(seed)
        old = set_span_guard(guard)
        try:
            outcomes.append((sample(rng, lo, hi), rng.getstate()))
        except GuardExceeded:
            outcomes.append(GuardExceeded)
        finally:
            set_span_guard(old)
    got, want = outcomes
    assert got == (GuardExceeded if width > guard else want)


_U11 = uv.build_universal(uv.IndexJK(1, 1))
_FAR_ORIGIN_U11 = lattice.GapBlockSeq(Dyadic(1, 60), _U11.blocks)
_HAT = PiecewiseLinear([(-ONE, ZERO), (ZERO, ONE), (ONE, ZERO)])


@pytest.mark.parametrize(
    "what, refused",
    [
        # the origin 2^80 needs 88 bits on the grid 2^-7 of (1,0)'s wide total
        ("gap-block table", lambda: lattice.GapBlockSeq(Dyadic(1, 80), _U11.blocks)),
        # the run 2^2000, 2^2000 + 1 needs 2001 bits on its own grid
        ("aligned run", lambda: lattice.RunSums(_HAT, [(Dyadic(1, 2000), ONE, 2)]).at(ZERO)),
        # x = 1 and E^3 = 2^-12 fit on the grid 2^-12, the far origin 2^60 (v0) does not
        ("covering witness at (1,0)", lambda: uv.covering_witness(ONE, step_at(_FAR_ORIGIN_U11, uv.IndexJK(1, 0)))),
        # 2^20 beside 2^-60 needs 21 + 48 + 61 bits on the grid 2^-108
        ("sampled point", lambda: cli._sample_in(random.Random(0), Dyadic(1, -60), Dyadic(1, 20))),
        # (2,15)'s comb, base 2^31 and width 2^-93, needs 126 bits on the grid 2^-93
        ("comb count", lambda: lattice.count_ap_in_periodic(ONE, ONE, 1, uv.IndexJK(2, 15).scale_exp())),
    ],
    ids=["table", "run", "witness", "sample", "comb"],
)
def test_every_int_kernel_refusal_has_one_shape(what, refused):
    old = set_span_guard(64)
    try:
        with pytest.raises(GuardExceeded) as exc:
            refused()
    finally:
        set_span_guard(old)
    shape = re.fullmatch(r"(.+) needs (\d+) bits on the grid 2\^(-?\d+) \(guard (\d+)\)", str(exc.value))
    assert shape, str(exc.value)
    assert shape[1] == what and int(shape[2]) > int(shape[4]) == 64


def test_artifact_loads_equal_to_the_build_at_every_block_start(capsys, tmp_path):
    art = tmp_path / "u30.json"
    assert run(capsys, "construct", "universal", "--limit", "3,0", "--out", str(art))[0] == EXIT_PASS
    loaded, built = cli._load_seq(str(art)), uv.build_universal(uv.IndexJK(3, 0))
    assert loaded == built
    starts = range(len(built.blocks) + 1)
    assert [loaded.block_start(b) for b in starts] == [built.block_start(b) for b in starts]


def test_covering_and_integrality_read_no_point_by_index(capsys, tmp_path, monkeypatch):
    # both suites read each step's start off `block_start`; `value_at`
    # (a bisection and a wide multiply-add) is left to refusals and other suites
    art = tmp_path / "u30.json"
    assert run(capsys, "construct", "universal", "--limit", "3,0", "--out", str(art))[0] == EXIT_PASS
    calls = []
    value_at = lattice.GapBlockSeq.value_at
    monkeypatch.setattr(lattice.GapBlockSeq, "value_at", lambda seq, n: calls.append(n) or value_at(seq, n))
    assert cli._load_seq(str(art)).value_at(1) and calls == [1]  # the wrapper counts
    calls.clear()
    for suite, samples in (("covering", ["--samples", "2"]), ("integrality", [])):
        argv = ["verify", "universal", "--suite", suite, "--limit", "3,0", *samples, "--seq", str(art)]
        assert run(capsys, *argv)[0] == EXIT_PASS
    assert calls == []


def test_covering_and_integrality_form_no_block_start(capsys, tmp_path, monkeypatch):
    # both suites read each step's values off the int table as (m, e) pairs
    # (`start_pair`); `block_start` and its Dyadic are left to other queries
    art = tmp_path / "u30.json"
    assert run(capsys, "construct", "universal", "--limit", "3,0", "--out", str(art))[0] == EXIT_PASS
    calls = []
    block_start = lattice.GapBlockSeq.block_start
    monkeypatch.setattr(lattice.GapBlockSeq, "block_start", lambda seq, b: calls.append(b) or block_start(seq, b))
    assert cli._load_seq(str(art)).last_value and calls == [len(uv.build_universal(uv.IndexJK(3, 0)).blocks)]
    calls.clear()
    for suite, samples in (("covering", ["--samples", "2"]), ("integrality", [])):
        argv = ["verify", "universal", "--suite", suite, "--limit", "3,0", *samples, "--seq", str(art)]
        assert run(capsys, *argv)[0] == EXIT_PASS
    assert calls == []


_ENDPOINTS = st.sampled_from(
    ["0", "1", "-1", "2", "-3", "0.5", "1*2^-3", "", "abc",
     "1*2^99999999999", "-1*2^99999999999", "1*2^-99999999999", "-1*2^-99999999999"]
)
_INTERVAL_TEXTS = st.builds(
    lambda lb, lo, hi, rb: f"{lb}{lo},{hi}{rb}", st.sampled_from("[("), _ENDPOINTS, _ENDPOINTS, st.sampled_from("])")
)
# lists of interval strings (degenerate and reversed ones among them) and
# junk, values that are not lists, and lists nested past the parser's depth
_OPEN_SET_FILES = st.one_of(
    st.lists(st.one_of(_INTERVAL_TEXTS, _INTERVAL_TEXTS, _JUNK), max_size=4).map(json.dumps),
    _JUNK.map(json.dumps),
    st.sampled_from([1_000, 200_000]).map(lambda d: "[" * d + "]" * d),
)


def _exits_cleanly(argv) -> int:
    """main(argv)'s exit code, asserting it is 0-3 with at most one stderr
    line, and exactly one on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = len(err.getvalue().splitlines())
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_SKIP), argv
    assert lines <= 1 and (lines == 1 or code != EXIT_USAGE), (argv, err.getvalue())
    return code


@settings(max_examples=100, deadline=None)
@given(_OPEN_SET_FILES)
def test_fuzzed_open_set_exits_cleanly(content):
    with tempfile.TemporaryDirectory() as d:
        g = os.path.join(d, "G.json")
        Path(g).write_text(content)
        _exits_cleanly(["verify", "universal", "--suite", "series", "--limit", "1,3", "--samples", "1", "--G", g])
        _exits_cleanly(["eval", "thm31", "--jmaxes", "3", "--xs", "0", "--G", g])


@pytest.mark.parametrize("bits", ["63", "7200000000", str(10**14)])
def test_span_guard_out_of_range_is_usage_error(bits):
    # above about 7.13e9 bits the interpreter's int->str cap cannot follow
    before = span_guard()
    assert _exits_cleanly(["--span-guard", bits, "verify", "universal", "--suite", "lemma", "--limit", "1,1"]) == EXIT_USAGE
    assert span_guard() == before


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
@pytest.mark.parametrize(
    "jmax, code", [("0", EXIT_USAGE), ("-1", EXIT_USAGE), ("19", EXIT_SKIP), ("20", EXIT_SKIP), ("40", EXIT_SKIP), (str(10**6), EXIT_SKIP)]
)
def test_thm33_jmax_extremes_exit_cleanly(jmax, code):
    # under a 2 GB address-space limit a block count computed before the
    # guard check would end in MemoryError, not in an exhausted machine
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab", "verify", "thm33", "--suite", "gaps", "--jmax", jmax],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr, proc.stderr


def _limit_argv(command, limit):
    return {
        "verify": ["verify", "universal", "--suite", "lemma", "--limit", limit],
        "construct": ["construct", "universal", "--limit", limit, "--out", os.devnull],
        "eval": ["eval", "universal", "--limits", "1,1", limit, "--xs", "0"],
    }[command]


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
@pytest.mark.parametrize("limit, bits", [
    ("14,65536", "needs 1048577"),
    ("30,0", "needs more than 2^32"),
    ("99999999999,0", "needs more than 2^100000000001"),
])
@pytest.mark.parametrize("command", ["verify", "construct", "eval"])
def test_limit_past_span_guard_is_refused_up_front(command, limit, bits):
    # (14,65536) is the first index whose b = 2^s + 2^-s outgrows the default
    # guard; a walk or build through any of these would outlast the timeout,
    # and forming 2^j for j = 99999999999 would exceed the address-space limit
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab", *_limit_argv(command, limit)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert proc.returncode == EXIT_SKIP and proc.stdout == "", proc.stderr
    assert proc.stderr.splitlines() == [f"guard: limit ({limit}): b = 2^s + 2^-s {bits} bits (guard 1048576)"]


def test_refused_limit_wins_over_short_artifact(capsys, tmp_path):
    art = tmp_path / "u.json"
    run(capsys, "construct", "universal", "--limit", "1,1", "--out", str(art))
    code, stdout, stderr = run(capsys, "verify", "universal", "--suite", "covering", "--limit", "14,65536", "--seq", str(art))
    assert code == EXIT_SKIP and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("guard: limit (14,65536)")


def test_span_guard_override_moves_the_refusal(capsys):
    code, stdout, stderr = run(capsys, "--span-guard", "64", "verify", "universal", "--suite", "lemma", "--limit", "3,0")
    assert code == EXIT_SKIP and stdout == ""
    assert stderr == "guard: limit (3,0): b = 2^s + 2^-s needs 97 bits (guard 64)\n"
    code, _, _ = run(capsys, "--span-guard", "64", "verify", "universal", "--suite", "lemma", "--limit", "2,14")
    assert code == EXIT_PASS


_COVERING_GUARDS = [
    ("64", EXIT_SKIP, "guard: gap-block table needs 89 bits on the grid 2^-59 (guard 64)"),
    ("100", EXIT_SKIP, "guard: covering witness at (2,9) needs 101 bits on the grid 2^-75 (guard 100)"),
    ("130", EXIT_PASS, None),
]


@pytest.mark.parametrize("bits, code, guard_line", _COVERING_GUARDS)
def test_covering_witness_meets_the_span_guard(capsys, bits, code, guard_line):
    # the comb end of (2,15) needs 63 bits: a 64-bit guard refuses the build's table,
    # 100 bits the witness of (2,9) on its grid 2^-75 (aligned before any int
    # is formed), and 130 bits leave room for every step through (2,14)
    got, stdout, stderr = run(
        capsys, "--span-guard", bits, "verify", "universal", "--suite", "covering", "--limit", "2,15", "--samples", "1"
    )
    assert got == code
    if guard_line:
        assert stdout == "" and stderr.splitlines() == [guard_line]
    else:
        assert stderr == "" and stdout.endswith("19 claims, 0 failures\n")


@pytest.mark.parametrize("bits, code, guard_line", _COVERING_GUARDS)
def test_covering_witness_meets_the_span_guard_on_an_artifact(capsys, tmp_path, bits, code, guard_line):
    # the same lines from a (2,15) artifact written at the default guard: at
    # 64 bits loading its table meets the check the build met, at 100 bits the
    # witness of (2,9) reads v0 off the table with the exponent the build had
    art = tmp_path / "u215.json"
    assert run(capsys, "construct", "universal", "--limit", "2,15", "--out", str(art))[0] == EXIT_PASS
    argv = ["verify", "universal", "--suite", "covering", "--limit", "2,15", "--samples", "1", "--seq", str(art)]
    got, stdout, stderr = run(capsys, "--span-guard", bits, *argv)
    assert got == code
    if guard_line:
        assert stdout == "" and stderr.splitlines() == [guard_line]
    else:
        assert stderr == "" and stdout.endswith("19 claims, 0 failures\n")


@pytest.mark.parametrize("seed", range(4))
def test_covering_samples_are_the_points_sample_in_draws(capsys, monkeypatch, seed):
    # the covering suite forms each sample as one int on its window's grid:
    # at every step through (5,319) it is the point `_sample_in` draws from
    # a twin Random, and the witness kernel gets it with its own step
    limit, drawn, witness = uv.IndexJK(5, 319), [], uv.covering_witness
    monkeypatch.setattr(uv, "covering_witness", lambda x, step: drawn.append((str(step), x)) or witness(x, step))
    argv = ["verify", "universal", "--suite", "covering", "--limit", "5,319", "--samples", "2", "--seed", str(seed)]
    assert run(capsys, *argv)[0] == EXIT_PASS
    twin = random.Random(seed)
    assert drawn == [(str(i), cli._sample_in(twin, i.aI, i.bI)) for i in uv.steps_before(limit) for _ in range(2)]


def test_covering_samples_fit_every_guard_that_admits_their_step():
    # `_sample_in` refuses a point wider than the span guard; the covering
    # suite leaves that check out, since a guard that admits a limit past
    # step i (64 bits at least, and 2s' + 1 for s' the scale of i's
    # successor, by `require_span`) fits every point of i's window: through
    # row 7 by drawing one, past it by the bound j + bitlen(j) + 49 on its width
    rng = random.Random(7)
    for i in uv.indices_through(uv.IndexJK(7, 0)):
        old = set_span_guard(max(64, 2 * i.successor().scale_exp() + 1))
        try:
            cli._sample_in(rng, i.aI, i.bI)
        finally:
            set_span_guard(old)
    assert all(j + j.bit_length() + 49 < 4 * j * 2**j + 3 for j in range(3, 200))


@pytest.mark.parametrize("seed", range(4))
def test_covering_at_the_least_guard(capsys, seed):
    # at 64 bits the largest limit the covering suite admits is (2,0): all
    # of row 1 passes, and past it the first refusal is the witness's own
    argv = ["verify", "universal", "--suite", "covering", "--samples", "3", "--seed", str(seed), "--limit"]
    code, stdout, stderr = run(capsys, "--span-guard", "64", *argv, "2,0")
    assert (code, stderr) == (EXIT_PASS, "") and stdout.endswith("4 claims, 0 failures\n")
    code, stdout, stderr = run(capsys, "--span-guard", "64", *argv, "2,1")
    assert (code, stdout) == (EXIT_SKIP, "")
    assert stderr == "guard: covering witness at (2,0) needs 67 bits on the grid 2^-50 (guard 64)\n"


@pytest.mark.parametrize("limit, bits", [("2,15", "90"), ("3,5", "155")])
def test_an_artifact_refuses_at_the_guard_its_build_refuses(capsys, tmp_path, limit, bits):
    # at these guards only the prefix's last value, the start of `limit`,
    # is too wide for the table's grid: loading the artifact for the
    # integrality suite meets the same table check as the build
    art = tmp_path / "u.json"
    assert run(capsys, "construct", "universal", "--limit", limit, "--out", str(art))[0] == EXIT_PASS
    built = run(capsys, "--span-guard", bits, "construct", "universal", "--limit", limit, "--out", str(tmp_path / "x.json"))
    argv = ["verify", "universal", "--suite", "integrality", "--limit", limit, "--seq", str(art)]
    loaded = run(capsys, "--span-guard", bits, *argv)
    assert loaded == built
    assert loaded[0] == EXIT_SKIP and loaded[2].startswith("guard: gap-block table needs ") and len(loaded[2].splitlines()) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "universal", "--suite", "integrality", "--limit", "1,1"], "--seq"),
        (["eval", "thm31", "--jmaxes", "3", "--xs", "0"], "--G"),
    ],
)
def test_deeply_nested_json_is_usage_error(tmp_path, argv, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert _exits_cleanly([*argv, flag, str(deep)]) == EXIT_USAGE


@pytest.mark.parametrize("content", [b"", b"not json", b"\xff\xfe"], ids=["empty", "not-json", "not-utf8"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "universal", "--suite", "gaps", "--limit", "1,1"], "--seq"),
        (["verify", "thm33", "--suite", "gaps", "--jmax", "2"], "--seq"),
        (["verify", "universal", "--suite", "series", "--limit", "1,1"], "--G"),
        (["eval", "thm31", "--jmaxes", "3", "--xs", "0"], "--G"),
    ],
)
def test_a_json_file_that_does_not_parse_is_named(capsys, tmp_path, content, argv, flag):
    """Empty, not JSON or not UTF-8: one usage-error line that names the file."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, stdout, stderr = run(capsys, *argv, flag, str(bad))
    assert (code, stdout) == (EXIT_USAGE, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith(f"error: {bad}: "), stderr
