"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every numeric target here is exact; there are no tolerances to tune.  Run as
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random
import time

import pytest

from dyadlab.exactnum import Dyadic, ZERO, ONE
from dyadlab.lattice import (
    GapBlock,
    GapBlockSeq,
    RunSums,
    count_ap_in_periodic,
)
from dyadlab.exactnum import PiecewiseLinear
from dyadlab import dense_divergence as dd
from dyadlab import interior_gap as ig
from dyadlab import universal as uv
from dyadlab.cli import EXIT_PASS, check_monotone_gaps, main
from oracles import comb, comb_contains, step_at, step_indices

_T0 = time.monotonic()


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def seq_2_15():
    return uv.build_universal(uv.IndexJK(2, 15))


@pytest.fixture(scope="module")
def seq_2_0():
    return uv.build_universal(uv.IndexJK(2, 0))


@pytest.fixture(scope="module")
def seq_3_0():
    return uv.build_universal(uv.IndexJK(3, 0))


def test_criterion_1_lemma_sweep():
    t0 = time.monotonic()
    multipliers = {}
    ok = True
    for j in range(1, 5):
        for k in range(uv.row_width(j)):
            rep = uv.check_lemma_useful(uv.IndexJK(j, k))
            ok = ok and rep.passed
            multipliers[(j, k)] = rep.params["multiplier"]
    # row-crossing multipliers are 2^(4*2^j); within-row ones are 1
    for j in range(1, 5):
        assert multipliers[(j, uv.row_width(j) - 1)] == str(2 ** (4 * 2**j))
        assert multipliers[(j, 0)] == "1"
    elapsed = time.monotonic() - t0
    _report(1, f"lemma sweep j<=4, {len(multipliers)} indices in {elapsed:.2f}s", ok and elapsed < 10)


def test_criterion_2_gap_monotonicity(seq_2_15):
    ok = check_monotone_gaps(seq_2_15).passed
    ok = ok and check_monotone_gaps(ig.build_thm33(6).seq).passed
    blocks = list(seq_2_15.blocks)
    blocks[5] = GapBlock(blocks[5].gap * 4, blocks[5].count, blocks[5].tag)
    ok = ok and not check_monotone_gaps(GapBlockSeq(seq_2_15.origin, blocks)).passed
    _report(2, "gap monotonicity through (2,15) and thm33(6); negative control fails", ok)


def test_criterion_3_integrality(seq_2_15):
    rep = uv.check_integrality(seq_2_15, uv.IndexJK(2, 15))
    _report(3, f"integrality at {rep.params.get('steps')} steps, zero inexact divisions", rep.passed)


def test_criterion_4_covering(seq_3_0):
    rng = random.Random(20260810)
    total = failures = 0
    for j in (1, 2):
        for k in range(uv.row_width(j)):
            i = uv.IndexJK(j, k)
            _, n1 = step_indices(seq_3_0, i)
            ps, step = comb(i), step_at(seq_3_0, i)
            for _ in range(1000):
                x = i.aI + (i.bI - i.aI) * Dyadic(rng.getrandbits(48), -48)
                total += 1
                try:
                    w = uv.covering_witness(x, step)
                    if not (comb_contains(ps, x + seq_3_0.value_at(w.nxp)) and w.nx <= n1 and w.nxp <= n1):
                        failures += 1
                except (uv.Violation, IndexError):
                    failures += 1

    # spot brute force on the j=1 steps, whose wide blocks hold <= 10^4 points
    spot_ok = True
    for k in range(4):
        i = uv.IndexJK(1, k)
        n0, n1 = step_indices(seq_3_0, i)
        a, e3 = i.a, comb(i).width
        lam = seq_3_0.value_at(n0)
        gap = seq_3_0.blocks[2 * i.position()].gap
        pts = [lam]
        for _ in range(n1 - n0):
            lam = lam + gap
            pts.append(lam)
        assert len(pts) <= 10_001
        for frac_bits in (3, 4, 5):
            x = i.aI + (i.bI - i.aI) * Dyadic(1, -frac_bits)
            w = uv.covering_witness(x, step_at(seq_3_0, i))
            nx_brute = n0 + next(t for t, v in enumerate(pts) if x + v > a)
            q_brute = (x + pts[nx_brute - n0] - a) // e3
            spot_ok = spot_ok and w.nx == nx_brute and w.nxp == nx_brute + q_brute
    _report(4, f"covering witnesses: {total - failures}/{total} pass, brute-force spots agree", failures == 0 and spot_ok)


def test_criterion_5_escape(seq_2_0):
    ok = True
    for k in range(4):
        i = uv.IndexJK(1, k)
        measure, rep = uv.escape_measure(i, seq_2_0)
        ok = ok and (measure, rep) == uv.escape_measure_bruteforce(i, seq_2_0)
        bound = Dyadic(7, -4 - k)
        assert rep.rhs == str(bound)
        ok = ok and rep.passed and ZERO < measure <= bound
        ok = ok and rep.params["translates"] > 0
        ok = ok and rep.params["prefix_covers_range"]
    p1, t1 = uv.borel_cantelli_partial(1)
    p2, t2 = uv.borel_cantelli_partial(2)
    ok = ok and p1 == Dyadic(14, -3) and p2 - p1 == Dyadic(44, -14)
    tails = [uv.borel_cantelli_partial(j)[1] for j in range(1, 6)]
    ok = ok and all(a > b for a, b in zip(tails, tails[1:]))
    _report(5, "escape measures under (4j+3)E at j=1, equal to the brute force; tail majorant decreasing", ok)


def _random_periodic_case(rng):
    """The comb of scale sc = 1-3 as ints on the grid 2^-10 (base 2^sc,
    period 2^-2sc, width 2^-3sc, 2^sc components), a start from one comb
    extent 2^-sc before its base to two past it, and a step of 1-64 units."""
    e, sc = -10, rng.randint(1, 3)
    base, per, w, cnt = 1 << sc - e, 1 << -2 * sc - e, 1 << -3 * sc - e, 1 << sc
    a0 = base + rng.randint(-(1 << -sc - e), 2 << -sc - e)
    s = rng.randint(1, 2**6)
    count = int(2 ** (rng.random() * 13.2877))
    return e, sc, base, per, w, cnt, a0, s, min(count, 10_000)


def test_criterion_6_oracle_equivalence():
    rng = random.Random(123456789)
    mismatch = 0
    for _ in range(10_000):
        e, sc, base, per, w, cnt, a0, s, count = _random_periodic_case(rng)
        got = count_ap_in_periodic(Dyadic(a0, e), Dyadic(s, e), count, sc)
        expect = 0
        for k in range(count):
            d = a0 + k * s - base
            if d < 0:
                continue
            i, r = divmod(d, per)
            if i < cnt and r <= w:
                expect += 1
        if got != expect:
            mismatch += 1

    for _ in range(10_000):
        # power-of-two segment widths so the integer oracle stays exact
        nseg = rng.randint(1, 4)
        ms = [rng.randint(3, 7) for _ in range(nseg)]  # width exponents at scale 2^-8
        x0 = rng.randint(-(2**10), 2**10)
        xs = [x0]
        for m in ms:
            xs.append(xs[-1] + (1 << m))
        vs = [0] + [rng.randint(0, 2**9) for _ in range(nseg - 1)] + [0]
        f = PiecewiseLinear([(Dyadic(x, -8), Dyadic(v, -8)) for x, v in zip(xs, vs)])
        a0 = rng.randint(-(2**12), 2**12)
        s = 1 << rng.randint(0, 6)  # a run's step is a power of two
        count = int(2 ** (rng.random() * 13.2877))
        count = min(count, 10_000)
        got = RunSums(f, [(Dyadic(a0, -8), Dyadic(s, -8), count)]).at(ZERO)
        mmax = max(ms)
        acc = 0  # value * 2^mmax, at coordinate scale 2^-8
        for k in range(count):
            p = a0 + k * s
            for seg in range(nseg):
                if xs[seg] <= p < xs[seg + 1]:
                    dv = vs[seg + 1] - vs[seg]
                    acc += (vs[seg] << mmax) + ((dv * (p - xs[seg])) << (mmax - ms[seg]))
                    break
        if got != Dyadic(acc, -8 - mmax):
            mismatch += 1
    _report(6, "20000 randomized instances against exhaustive enumeration", mismatch == 0)


def test_criterion_7_thm31_skeleton():
    cons = dd.build_thm31(12)
    rng = random.Random(777)
    ok = True
    for it in cons.items:
        for _ in range(10):
            x = it.interval.lo + (it.interval.hi - it.interval.lo) * Dyadic(rng.getrandbits(48), -48)
            rep = dd.lower_bound_check(cons, it.j, x)
            ok = ok and rep.passed and Dyadic.parse(rep.lhs) >= ONE
        jd = Dyadic(it.j)
        if it.tripled.lo <= -jd and it.tripled.hi >= jd:
            continue  # no points of [-j, j] lie outside the tripled interval
        done = 0
        while done < 10:
            x = -jd + jd * 2 * Dyadic(rng.getrandbits(48), -48)
            if it.tripled.contains(x):
                continue
            rep = dd.outside_zero_check(cons, it.j, x)
            ok = ok and rep.passed and Dyadic.parse(rep.lhs) == ZERO
            done += 1
    for xs in ("0", "0.5", "-2", "5.125", "11"):
        rep = dd.lambda2_total_check(cons, Dyadic.parse(xs))
        ok = ok and rep.passed
    _report(7, "thm31: lower bounds >= 1, outside sums = 0, coarse tail bounded", ok)


def test_criterion_8_thm33_skeleton():
    cons = ig.build_thm33(6)
    ok = next(itertools.accumulate(ig.decade_sums(cons, ZERO))) == Dyadic(3, -5)
    for xs in ("0", "0.5", "1"):
        x = Dyadic.parse(xs)
        prev = None
        for s in itertools.accumulate(ig.decade_sums(cons, x)):
            if prev is not None:
                ok = ok and s > prev
            prev = s
    rep4 = ig.convergence_tail_check(cons, Dyadic(4), ig.decade_sums(cons, Dyadic(4)))
    ok = ok and rep4.passed
    ok = ok and Dyadic.parse(rep4.params["per_decade"][0]["sum"]) == Dyadic(5, -4)
    ok = ok and Dyadic.parse(rep4.params["per_decade"][0]["bound"]) == Dyadic(1, -1)
    rng = random.Random(20260810)
    for _ in range(100):
        x = Dyadic(4) + Dyadic(rng.getrandbits(48), -48)
        ok = ok and ig.convergence_tail_check(cons, x, ig.decade_sums(cons, x)).passed
    _report(8, "thm33: strict growth on [0,1], per-decade bounds on [4,5], anchors 3/32 and 5/16", ok)


def test_criterion_9_smoothing(seq_2_0):
    uG = [uv.IndexJK(1, 0)]
    rep = uv.smoothing_measure(uG, seq_2_0)
    ok = rep.passed
    for row in rep.params["windows"].values():
        ok = ok and Dyadic.parse(row["added"]) < Dyadic.parse(row["bound"])
    _report(9, "smoothing adds measure strictly below the per-window power-of-two budget", ok)


def test_criterion_10_determinism(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "thm33", "--suite", "converge", "--jmax", "4", "--samples", "10", "--seed", "11"]
    ok = main(argv + ["--report", str(r1)]) == EXIT_PASS
    ok = ok and main(argv + ["--report", str(r2)]) == EXIT_PASS
    ok = ok and r1.read_bytes() == r2.read_bytes()
    argv2 = ["verify", "universal", "--suite", "covering", "--limit", "1,3", "--samples", "25", "--seed", "3"]
    r3, r4 = tmp_path / "r3.json", tmp_path / "r4.json"
    ok = ok and main(argv2 + ["--report", str(r3)]) == EXIT_PASS
    ok = ok and main(argv2 + ["--report", str(r4)]) == EXIT_PASS
    ok = ok and r3.read_bytes() == r4.read_bytes()
    elapsed = time.monotonic() - _T0
    ok = ok and elapsed < 300
    _report(10, f"byte-identical seeded reports; acceptance wall clock {elapsed:.1f}s < 300s", ok)
