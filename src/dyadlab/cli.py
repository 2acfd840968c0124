"""Command-line front end: construct artifacts, run verification suites, and
tabulate exact partial sums.

Exit codes: 0 all asserted claims pass, 1 at least one claim failed, 2 usage
error, 3 a guard or budget skip left the requested coverage incomplete, or
the run asserted no claim at all (every report informational, or none).
All sampling is seeded and every sampled point is recorded in the report, so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import random
import re
import sys
from typing import Callable, Sequence

from . import dense_divergence as dd
from . import interior_gap as ig
from . import universal as uv
from .exactnum import (
    Dyadic,
    DyInterval,
    GuardExceeded,
    IntervalUnion,
    NotExact,
    grid_error,
    set_span_guard,
    span_guard,
)
from .lattice import GapBlockSeq
from .report import BudgetExceeded, OutOfInterval, Violation, WitnessReport, write_reports

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SKIP = 3


def _fmt_count(n: int) -> str:
    s = str(n)
    if len(s) <= 40:
        return s
    return f"{s[0]}.{s[1:4]}e+{len(s) - 1} ({len(s)} digits)"


def _parse_limit(text: str) -> uv.IndexJK:
    try:
        j_s, k_s = text.split(",")
        return uv.IndexJK(int(j_s), int(k_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index {text!r}: {exc}")


def _parse_x(text: str) -> Dyadic:
    try:
        return Dyadic.parse(text)
    except (ValueError, NotExact) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_json(path: str):
    """The JSON value in `path`; a file that is not UTF-8 JSON, or nests
    too deeply to parse, is a ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not UTF-8 JSON ({exc})") from None


def _load_G(path: str | None, default: IntervalUnion) -> IntervalUnion:
    if path is None:
        return default
    data = _read_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: open-set JSON must be a list of interval strings")
    return IntervalUnion.from_json(data)


def _sample_in(rng: random.Random, lo: Dyadic, hi: Dyadic) -> Dyadic:
    """lo + (hi - lo)*r*2^-48 for one 48-bit draw r, as one int expression on
    the grid 2^(e-48), e the finer exponent of lo and hi.  Every operand is
    below 2^(t+1), t the larger magnitude exponent, so it needs at most
    t + 49 - e bits on that grid; past the span guard that is GuardExceeded,
    raised before r is drawn."""
    e = min(lo.e, hi.e)
    width = max(lo.m.bit_length() + lo.e, hi.m.bit_length() + hi.e) + 49 - e
    if width > span_guard():
        raise grid_error("sampled point", width, e - 48)
    L = lo.m << lo.e - e
    return Dyadic((L << 48) + ((hi.m << hi.e - e) - L) * rng.getrandbits(48), e - 48)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one stderr line and which hands
    any token that starts like a negative number (`-1,0`, `-1*2^-1`, `-.5`)
    to its type converter, not the option matcher; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Pending:
    """A subcommand's parser, made and filled on first use.

    It stands in a subparsers action's name -> parser map (`parser_class` of
    `add_subparsers`), whose names alone give the choices, help and error
    messages; argparse asks the parser of a name only when parsing reaches
    it, through `parse_known_args`."""

    def __init__(self, fill: Callable[[_Parser], None], **kwargs):
        self._fill, self._kwargs, self._parser = fill, kwargs, None

    def parse_known_args(self, args, namespace):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._fill(self._parser)
        return self._parser.parse_known_args(args, namespace)


def _subcommands(parser: _Parser, dest: str, fills: dict[str, Callable[[_Parser], None]], helps: dict[str, str]) -> None:
    """Register each name of `fills` (with its help, if any) as a required
    subcommand of `parser`; its parser is built when parsing reaches it."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Pending)
    for name, fill in fills.items():
        sub.add_parser(name, fill=fill, **({"help": helps[name]} if name in helps else {}))


def _constructions(fill: Callable[[str, _Parser], None]) -> Callable[[_Parser], None]:
    """A command parser's fill: one subcommand per construction, each filled by `fill`."""
    return lambda parser: _subcommands(
        parser, "construction", {c: functools.partial(fill, c) for c in ("universal", "thm31", "thm33")}, {}
    )


def _fill_construct(construction: str, cp: _Parser) -> None:
    if construction == "universal":
        cp.add_argument("--limit", type=_parse_limit, required=True, metavar="j,k")
    else:
        cp.add_argument("--jmax", type=int, required=True)
    if construction == "thm31":
        cp.add_argument("--G", default=None, help="open-set JSON; records the selected tent indices")
    cp.add_argument("--out", required=True)


def _fill_verify(construction: str, vp: _Parser) -> None:
    """The construction's suites, and each file option one of them reads (`SUITES`)."""
    reads = {option for (c, _), (_, files) in SUITES.items() if c == construction for option in files}
    vp.add_argument("--suite", required=True, choices=[s for c, s in SUITES if c == construction])
    vp.add_argument("--samples", type=int, default=10)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--report", default=None)
    if "seq" in reads:
        vp.add_argument("--seq", default=None, help="artifact JSON to verify instead of an in-process build")
    if construction == "universal":
        vp.add_argument("--limit", type=_parse_limit, default=uv.IndexJK(2, 15), metavar="j,k")
    else:
        vp.add_argument("--jmax", type=int, default=12 if construction == "thm31" else 6)
    if "G" in reads:
        vp.add_argument("--G", default=None, help="open-set JSON for the series suite")


def _fill_eval(construction: str, ep: _Parser) -> None:
    ep.add_argument("--xs", type=_parse_x, nargs="*", default=[])
    ep.add_argument("--out", default="-")
    if construction == "universal":
        ep.add_argument("--limits", type=_parse_limit, nargs="+", required=True, metavar="j,k")
    else:
        ep.add_argument("--jmaxes", type=int, nargs="+", required=True)
    if construction != "thm33":
        ep.add_argument("--G", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The root parser, built on the first `main` call and reused by every
    later one in the process; parsing leaves it unchanged.  Every command and
    construction is registered by name, and its parser is built the first
    time parsing reaches it, so a run builds only the parsers on its path."""
    p = _Parser(prog="dyadlab", description=__doc__)
    p.add_argument("--span-guard", type=int, default=None, help="mantissa bit budget override")
    _subcommands(
        p,
        "command",
        {
            "construct": _constructions(_fill_construct),
            "verify": _constructions(_fill_verify),
            "eval": _constructions(_fill_eval),
        },
        {
            "construct": "build an artifact and write it as JSON",
            "verify": "run a verification suite",
            "eval": "tabulate exact partial sums as CSV",
        },
    )
    return p


# ----------------------------- construct ---------------------------------


def _seq_summary(seq: GapBlockSeq) -> str:
    return f"{len(seq.blocks)} blocks, last value {seq.last_value}, total points {_fmt_count(seq.total_count)}"


def _cmd_construct(args) -> int:
    if args.construction == "universal":
        seq = uv.build_universal(args.limit)
        data = seq.to_json_dict()
        summary = f"universal through {args.limit}: {_seq_summary(seq)}"
    elif args.construction == "thm31":
        cons = dd.build_thm31(args.jmax)
        data = cons.to_json_dict()
        if args.G:
            data["selected_js"] = dd.selected_js(cons, _load_G(args.G, IntervalUnion()))
        npoints = sum(w.count for w in cons.lambda_windows()) - sum(w.count for w in cons.lambda_overlaps())
        summary = f"thm31 through j={args.jmax}: {len(cons.items)} tents, lattice points {_fmt_count(npoints)}"
    else:
        cons = ig.build_thm33(args.jmax)
        data = {"jmax": cons.jmax, "seq": cons.seq.to_json_dict(), "f": cons.f.to_json()}
        summary = f"thm33 through decade {args.jmax}: {_seq_summary(cons.seq)}"
    with open(args.out, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
    print(summary)
    return EXIT_PASS


# ------------------------------ verify -----------------------------------
#
# Each suite is one op `(args, rng) -> reports`.  An op signals incomplete
# coverage by holding a report with params["skipped"]; that maps to exit 3.


def _load_seq(path: str) -> GapBlockSeq:
    """A gap-block artifact, bare or wrapped as {"seq": ...} by `construct thm33`."""
    data = _read_json(path)
    try:
        return GapBlockSeq.from_json_dict(data["seq"] if "seq" in data else data)
    except (KeyError, TypeError, ValueError, NotExact) as exc:
        raise ValueError(f"{path}: not a gap-block artifact ({type(exc).__name__}: {exc})") from None


def check_monotone_gaps(seq: GapBlockSeq) -> WitnessReport:
    """Gaps must be non-increasing across the whole sequence."""
    blocks = seq.blocks
    for i, (a, b) in enumerate(zip(blocks, blocks[1:])):
        if a.gap < b.gap:
            params = {"block": i, "tag": a.tag, "next_tag": b.tag, "first_violating_index": seq.cum_counts[i] + 1}
            return WitnessReport("gap-monotonicity", params, str(a.gap), str(b.gap), passed=False)
    ends = (str(blocks[0].gap), str(blocks[-1].gap)) if blocks else ("", "")
    return WitnessReport("gap-monotonicity", {"blocks": len(blocks)}, *ends, passed=True)


def _gaps(args, built: GapBlockSeq, **key) -> list[WitnessReport]:
    """Gap monotonicity of the artifact (or the build) and its match with the build."""
    seq = _load_seq(args.seq) if args.seq else built
    return [
        check_monotone_gaps(seq),
        WitnessReport(
            claim="artifact-matches-construction",
            params={**key, "blocks": len(seq.blocks)},
            lhs=str(seq.last_value),
            rhs=str(built.last_value),
            passed=seq == built,
        ),
    ]


def _universal_seq(args) -> GapBlockSeq:
    """The prefix through --limit: the --seq artifact, or a build."""
    if not args.seq:
        return uv.build_universal(args.limit)
    seq = _load_seq(args.seq)
    need = 2 * args.limit.position()
    if len(seq.blocks) < need:
        raise ValueError(f"{args.seq}: {len(seq.blocks)} blocks, --limit {args.limit} needs {need}")
    return seq


def _universal_lemma(args, rng) -> list[WitnessReport]:
    return [uv.check_lemma_useful(i) for i in uv.indices_through(args.limit)]


def _universal_gaps(args, rng) -> list[WitnessReport]:
    return _gaps(args, uv.build_universal(args.limit), limit=str(args.limit))


def _universal_integrality(args, rng) -> list[WitnessReport]:
    return [uv.check_integrality(_universal_seq(args), args.limit)]


def _universal_covering(args, rng) -> list[WitnessReport]:
    """A report per step before --limit, and one per failed sample.  A sample
    is `_sample_in`'s point in the step's window, formed as one int: ((J-1)*2^48
    + r)*2^(-j-48), r one 48-bit draw.  Its guard check is left out: in [-j, j]
    it needs j + bitlen(j) + 49 bits at most, below 64 for j <= 2, and below the
    4j*2^j + 3 bits `uv.require_span` asks of a limit past a row j >= 3."""
    seq = _universal_seq(args)
    params, rhs = {"samples": args.samples, "seed": args.seed}, str(args.samples)
    if not args.samples:
        params["informational"] = True  # no sample, nothing asserted
    reports = []
    for step in uv.step_walk(seq, args.limit):
        claim, low, e, ok = f"covering/{step.j},{step.k}", (step.J - 1) << 48, -step.j - 48, 0
        for n in range(args.samples):
            x = Dyadic(low + rng.getrandbits(48), e)
            try:
                uv.covering_witness(x, step)
                ok += 1
            except (Violation, IndexError) as exc:
                reports.append(WitnessReport(f"{claim}/sample{n}", {"x": str(x), "error": str(exc)}, passed=False))
        reports.append(WitnessReport(claim, params, str(ok), rhs, ok == args.samples))
    return reports


def _universal_escape(args, rng) -> list[WitnessReport]:
    jmax = max(args.limit.j, 2)
    partial, tail = uv.borel_cantelli_partial(jmax)
    reports = [
        WitnessReport(
            claim="borel-cantelli-partial",
            params={"jmax": jmax},
            lhs=str(partial),
            rhs=str(partial + tail),
            passed=partial + tail < Dyadic(2),
        )
    ]
    seq = _universal_seq(args)
    for i in uv.steps_before(args.limit):
        try:
            reports.append(uv.escape_measure(i, seq)[1])
        except BudgetExceeded as exc:
            reports.append(
                WitnessReport(
                    claim=f"escape-measure/{i.j},{i.k}",
                    params={"skipped": True, "reason": str(exc)},
                    passed=True,
                )
            )
    return reports


def _universal_series(args, rng) -> list[WitnessReport]:
    """fG counts over the prefixes through (1,1), ..., limit, all read off one
    sequence (the --seq artifact or a build): the prefix through index i is
    its first 2*position(i) blocks."""
    limit: uv.IndexJK = args.limit
    if limit == uv.IndexJK(1, 0):
        raise ValueError("--limit 1,0 leaves no prefix to count: prefixes start at 1,1")
    G = _load_G(args.G, IntervalUnion([DyInterval.open(0, 2)]))
    uG = uv.build_uG(G, limit)
    seq = _universal_seq(args)
    ends = [2 * i.position() for i in uv.indices_through(limit)][1:]
    reports = []
    for jk, _ in uG:
        lo, hi = jk.aI, jk.bI
        for s in range(args.samples):
            x = _sample_in(rng, lo, hi)
            sums = uv.fG_prefix_sums(x, uG, seq)
            counts = [sums[n] for n in ends]
            reports.append(
                WitnessReport(
                    claim=f"series/{jk.j},{jk.k}/sample{s}",
                    params={"x": str(x), "counts": [str(c) for c in counts]},
                    lhs=str(counts[-1]),
                    rhs=">=1, nondecreasing",
                    passed=counts == sorted(counts) and counts[-1] >= 1,
                )
            )
    return reports


def _thm31_lower(args, rng) -> list[WitnessReport]:
    cons = dd.build_thm31(args.jmax)
    return [
        dd.lower_bound_check(cons, it.j, _sample_in(rng, it.interval.lo, it.interval.hi))
        for it in cons.items
        for _ in range(args.samples)
    ]


def _thm31_outside(args, rng) -> list[WitnessReport]:
    """A report per sample drawn outside a tent's tripled interval, and one
    per tent whose tripled interval covers [-j, j]; those are informational
    when no tent drew a sample."""
    cons = dd.build_thm31(args.jmax)
    reports, empty = [], []
    for it in cons.items:
        jd = Dyadic(it.j)
        if it.tripled.lo <= -jd and it.tripled.hi >= jd:
            empty.append(it.j)
            continue
        done = 0
        attempts = 0
        while done < args.samples and attempts < args.samples * 200:
            attempts += 1
            x = _sample_in(rng, -jd, jd)
            if it.tripled.contains(x):
                continue
            reports.append(dd.outside_zero_check(cons, it.j, x))
            done += 1
    vacuous = {} if reports else {"informational": True}
    note = "domain empty: tripled interval covers [-j, j]"
    return reports + [WitnessReport(f"thm31-outside/{j}", {"j": j, "note": note, **vacuous}) for j in empty]


def _thm31_cross(args, rng) -> list[WitnessReport]:
    cons = dd.build_thm31(args.jmax)
    reports = [
        dd.cross_term_zero_check(cons, j0, j)
        for j0 in range(dd.LAMBDA2_MIN_J, cons.jmax + 1)
        for j in range(1, cons.jmax + 1)
        if j != j0
    ]
    if cons.jmax >= 2:
        reports.append(dd.cross_term_zero_check(cons, 1, 2))  # informational
    return reports


def _thm31_density(args, rng) -> list[WitnessReport]:
    cons = dd.build_thm31(args.jmax)
    js = range(dd.LAMBDA2_MIN_J, cons.jmax + 1)
    reports = [dd.density_window_check(cons, j) for j in js]
    reports.append(dd.find_gap_increase(cons))
    for j in js:
        for _ in range(max(1, args.samples // 2)):
            reports.append(dd.lambda2_hit_count(cons, j, _sample_in(rng, Dyadic(-j), Dyadic(j))))
    return reports


def _thm31_tail(args, rng) -> list[WitnessReport]:
    cons = dd.build_thm31(args.jmax)
    jd = Dyadic(cons.jmax)
    return [dd.lambda2_total_check(cons, _sample_in(rng, -jd, jd)) for _ in range(args.samples)]


def _thm33_gaps(args, rng) -> list[WitnessReport]:
    return _gaps(args, ig.build_thm33(args.jmax).seq, jmax=args.jmax)


def _thm33_diverge(args, rng) -> list[WitnessReport]:
    """Partial sums through decades 1..jmax, as running sums of one decade_sums call per x.
    With one decade there are no two partial sums to compare: each report
    is informational."""
    cons = ig.build_thm33(args.jmax)
    vacuous = {"informational": True} if cons.jmax == 1 else {}
    reports = []
    for xs in ("0", "1*2^-1", "1"):
        partials = list(itertools.accumulate(ig.decade_sums(cons, Dyadic.parse(xs))))
        reports.append(
            WitnessReport(
                claim=f"thm33-diverge/x={xs}",
                params={"partials": [str(p) for p in partials], **vacuous},
                lhs=str(partials[0]),
                rhs=str(partials[-1]),
                passed=all(a < b for a, b in zip(partials, partials[1:])),
            )
        )
    for s in range(args.samples):
        x = Dyadic(rng.getrandbits(40), -40)
        partials = list(itertools.accumulate(ig.decade_sums(cons, x)))
        v1 = partials[-2] if cons.jmax > 1 else None
        v2 = partials[-1]
        reports.append(
            WitnessReport(
                claim=f"thm33-diverge/sample{s}",
                params={"x": str(x), **vacuous},
                lhs=str(v1) if v1 is not None else "",
                rhs=str(v2),
                passed=v1 is None or v2 > v1,
            )
        )
    return reports


def _thm33_converge(args, rng) -> list[WitnessReport]:
    """Every sample reads one report built from the decade sums certified
    once for all of [4,5], with only its x and claim name changed; a table
    that fails to certify is a claim violation."""
    cons = ig.build_thm33(args.jmax)
    certified = ig.shift_invariant_decade_sums(cons, Dyadic(4), Dyadic(5))
    if certified is None:
        raise Violation(f"decade sums through {cons.jmax} not certified for all x in [4, 5]")
    shared = ig.convergence_tail_check(cons, Dyadic(4), certified)
    reports = []
    for s in range(args.samples):
        x = Dyadic(4) + Dyadic(rng.getrandbits(40), -40)
        params = {**shared.params, "x": str(x)}
        reports.append(WitnessReport(f"thm33-converge/sample{s}", params, shared.lhs, shared.rhs, shared.passed))
    return reports


def _thm33_probe(args, rng) -> list[WitnessReport]:
    return [ig.thm34_probe(ig.build_thm33(args.jmax), Dyadic.parse("4.5"), args.samples, args.seed)]


# each suite's op and the file options it reads; every other suite refuses them
SUITES = {
    ("universal", "lemma"): (_universal_lemma, ()),
    ("universal", "gaps"): (_universal_gaps, ("seq",)),
    ("universal", "integrality"): (_universal_integrality, ("seq",)),
    ("universal", "covering"): (_universal_covering, ("seq",)),
    ("universal", "escape"): (_universal_escape, ("seq",)),
    ("universal", "series"): (_universal_series, ("seq", "G")),
    ("thm31", "lower"): (_thm31_lower, ()),
    ("thm31", "outside"): (_thm31_outside, ()),
    ("thm31", "cross"): (_thm31_cross, ()),
    ("thm31", "density"): (_thm31_density, ()),
    ("thm31", "tail"): (_thm31_tail, ()),
    ("thm33", "gaps"): (_thm33_gaps, ("seq",)),
    ("thm33", "diverge"): (_thm33_diverge, ()),
    ("thm33", "converge"): (_thm33_converge, ()),
    ("thm33", "probe"): (_thm33_probe, ()),
}


def _cmd_verify(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    op, reads = SUITES[args.construction, args.suite]
    for option in ("seq", "G"):
        if vars(args).get(option) and option not in reads:
            raise ValueError(f"--{option} is not read by the {args.construction} {args.suite} suite")
    reports = sorted(op(args, random.Random(args.seed)), key=lambda r: r.claim)
    failures = [r for r in reports if not r.passed]
    skipped = sum(1 for r in reports if r.params.get("skipped"))
    asserted = any(not r.params.get("informational") for r in reports)
    lines = []
    for r in reports:
        status = "SKIP" if r.params.get("skipped") else "INFO" if r.params.get("informational") else "PASS"
        lines.append(f"{status if r.passed else 'FAIL'} {r.claim} lhs={r.lhs} rhs={r.rhs}\n")
    summary = f"{len(reports)} claims, {len(failures)} failures" + (f", {skipped} skipped" if skipped else "")
    sys.stdout.write("".join(lines) + summary + ("" if asserted else ", no claim asserted") + "\n")
    if args.report:
        write_reports(args.report, reports)
    if failures:
        return EXIT_FAIL
    if skipped or not asserted:
        return EXIT_SKIP
    return EXIT_PASS


# ------------------------------- eval ------------------------------------


def _universal_sum(G: IntervalUnion, limit: uv.IndexJK):
    uG, seq = uv.build_uG(G, limit), uv.build_universal(limit)
    return lambda x: Dyadic(uv.fG_prefix_sums(x, uG, seq)[-1])


def _cmd_eval(args) -> int:
    """One CSV row per (size, x); sizes are built lazily, one at a time."""
    if args.construction == "thm33":
        sums = ((str(j), functools.partial(ig.divergence_partial, ig.build_thm33(j))) for j in args.jmaxes)
    else:
        G = _load_G(args.G, IntervalUnion([DyInterval.open(-1000, 1000)]))
        if args.construction == "universal":
            sums = ((str(limit), _universal_sum(G, limit)) for limit in args.limits)
        else:
            sums = ((str(j), functools.partial(dd.fG_sum_partial_31, dd.build_thm31(j), G=G)) for j in args.jmaxes)
    rows = []
    for size, fsum in sums:
        for x in args.xs:
            try:
                s = fsum(x)
                rows.append([str(x), size, str(s), s.to_decimal() or "", ""])
            except (GuardExceeded, NotExact, OutOfInterval) as exc:
                rows.append([str(x), size, "", "", str(exc)])

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        w = csv.writer(fh)
        w.writerow(["x", "limit", "sum_dyadic", "sum_decimal", "error"])
        w.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return EXIT_PASS


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    old_guard = span_guard()
    try:
        if args.span_guard is not None:
            set_span_guard(args.span_guard)
        for limit in vars(args).get("limits") or [vars(args).get("limit")]:
            if limit is not None:
                uv.require_span(limit)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_eval(args)
    except Violation as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (GuardExceeded, BudgetExceeded) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_SKIP
    except (NotExact, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_span_guard(old_guard)


if __name__ == "__main__":
    sys.exit(main())
