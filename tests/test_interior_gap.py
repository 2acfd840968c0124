"""Checks for the decreasing-gap divergence/convergence construction."""

import itertools
import json
import random

import pytest

from dyadlab.cli import check_monotone_gaps
from dyadlab.exactnum import Dyadic, ZERO
from dyadlab.interior_gap import (
    build_thm33,
    convergence_tail_check,
    decade_sums,
    divergence_partial,
    shift_invariant_decade_sums,
    thm34_probe,
)
from dyadlab.universal import OutOfInterval
from oracles import iter_points, pl_eval, report_json_dict


def dy(s: str) -> Dyadic:
    return Dyadic.parse(s)


@pytest.fixture(scope="module")
def cons6():
    return build_thm33(6)


def partials(cons, x) -> list[Dyadic]:
    """Entry m-1 is the sum over decades 1..m."""
    return list(itertools.accumulate(decade_sums(cons, x)))


class TestBuild:
    def test_blocks_jmax2(self):
        cons = build_thm33(2)
        gaps = [(str(b.gap), b.count, b.tag) for b in cons.seq.blocks]
        assert gaps == [
            ("1*2^-2", 32, "decade-1:coarse"),
            ("1*2^-4", 32, "decade-1:fine"),
            ("1*2^-4", 128, "decade-2:coarse"),
            ("1*2^-8", 511, "decade-2:fine"),
        ]
        assert cons.seq.last_value == Dyadic(20) - Dyadic(1, -8)

    def test_blocks_jmax1(self):
        cons = build_thm33(1)
        assert len(cons.seq.blocks) == 2
        assert cons.seq.total_count == 64
        assert cons.seq.last_value == Dyadic(10) - Dyadic(1, -4)

    def test_monotone_gaps_up_to_6(self):
        for jmax in range(1, 7):
            assert check_monotone_gaps(build_thm33(jmax).seq).passed

    def test_perturbed_control_fails(self, cons6):
        from dyadlab.lattice import GapBlock, GapBlockSeq

        blocks = list(cons6.seq.blocks)
        blocks[2] = GapBlock(blocks[2].gap * 4, blocks[2].count, blocks[2].tag)
        assert not check_monotone_gaps(GapBlockSeq(ZERO, blocks)).passed

    def test_function_values(self, cons6):
        f = cons6.f
        assert pl_eval(f, Dyadic(10) + Dyadic(1, -1)) == Dyadic(1, -4)
        for j in range(1, 7):
            assert pl_eval(f, Dyadic(10 * j) - Dyadic(1, -2)) == ZERO
            assert pl_eval(f, Dyadic(10 * j)) == Dyadic(1, -(2 ** (j + 1)))
        # identically zero between decades
        assert pl_eval(f, Dyadic(15)) == ZERO
        assert pl_eval(f, Dyadic(10) + Dyadic(5, -2) + Dyadic(1, -10)) == ZERO

    def test_heights_strictly_decreasing_to_zero(self, cons6):
        hs = [Dyadic(1, -(2 ** (j + 1))) for j in range(1, 7)]
        for a, b in zip(hs, hs[1:]):
            assert a > b
        assert hs[-1] == Dyadic(1, -(2**7))

    def test_decade_runs(self, cons6):
        total = 0
        for j in range(1, 7):
            # decade j: 8*2^(2^j) coarse points from 10j-10, then 2*2^(2^(j+1)) fine ones below 10j
            n = 8 * 2 ** (2**j) + 2 * 2 ** (2 ** (j + 1))
            runs = cons6.tables[j - 1].runs
            assert sum(count for _, _, count in runs) == n
            (first, _, _), (start, gap, count) = runs[0], runs[-1]
            assert first == Dyadic(10 * (j - 1))
            assert start + gap * (count - 1) == Dyadic(10 * j) - Dyadic(1, -(2 ** (j + 1)))
            total += n
        assert total == cons6.seq.total_count

    @pytest.mark.parametrize("jmax", range(1, 19))
    def test_two_runs_per_decade(self, jmax):
        """The runs read off the blocks are the closed forms in j and X at
        every size the default guard builds: one coarse run, its first point
        10j-10 (the origin for decade 1) joined to the coarse block at the
        same gap, then one fine run: the points of `segments_in_range`, in
        the same order."""
        cons = build_thm33(jmax)
        for j in range(1, jmax + 1):
            X = 2 ** (2**j)
            coarse, fine = Dyadic(1, -(2**j)), Dyadic(1, -(2 ** (j + 1)))
            assert cons.tables[j - 1].runs == (
                (Dyadic(10 * j - 10), coarse, 8 * X + 1),
                (Dyadic(10 * j - 2) + fine, fine, 2 * X * X - 1),
            )
        head = cons.seq.segments_in_range(0, cons.seq.cum_counts[1] - 1)
        assert [(first, count) for first, _, count in head[:2]] == [(ZERO, 1), (Dyadic(1, -2), 32)]

    @pytest.mark.parametrize("jmax", [1, 2])
    def test_decade_runs_enumerate_the_decade(self, jmax):
        """The runs of decade j list exactly the points of `seq`
        in [10j-10, 10j), in order."""
        cons = build_thm33(jmax)
        points = list(iter_points(cons.seq))
        for j in range(1, jmax + 1):
            runs = cons.tables[j - 1].runs
            got = [first + gap * k for first, gap, count in runs for k in range(count)]
            assert got == [p for p in points if Dyadic(10 * j - 10) <= p < Dyadic(10 * j)], j


class TestDivergence:
    def test_anchor_x0(self, cons6):
        assert partials(cons6, ZERO)[0] == Dyadic(3, -5)  # 3/32

    def test_anchor_x1(self, cons6):
        assert partials(cons6, Dyadic(1))[0] == Dyadic(35, -5)

    def test_anchor_x1_jmax2_gains_a_unit(self, cons6):
        s1, s2 = partials(cons6, Dyadic(1))[:2]
        assert s2 >= s1 + 1

    def test_enumeration_oracle_jmax1(self, cons6):
        rng = random.Random(606)
        small = build_thm33(1)
        pts = list(iter_points(small.seq))
        assert len(pts) == 64
        for _ in range(20):
            x = Dyadic(rng.getrandbits(20), -20)
            brute = ZERO
            for v in pts:
                brute = brute + pl_eval(small.f, x + v)
            assert divergence_partial(small, x) == brute
            assert partials(cons6, x)[0] == brute
            assert decade_sums(small, x) == [brute]

    def test_decade_sums_enumeration_oracle_jmax2(self):
        """Every decade_sums entry against a brute sum over iter_points, at
        shifts in [0,1], in [4,5], and beyond both."""
        rng = random.Random(2024)
        cons = build_thm33(2)
        pts = list(iter_points(cons.seq))
        assert len(pts) == 704
        decades = [[v for v in pts if Dyadic(10 * (j - 1)) <= v < Dyadic(10 * j)] for j in (1, 2)]
        assert sum(map(len, decades)) == len(pts)
        anchors = [Dyadic(k) for k in (-11, -1, 0, 1, 2, 4, 5, 7, 10)]
        for lo, hi in ((0, 1), (4, 5), (-12, 0), (1, 4), (5, 22)):
            for _ in range(6):
                anchors.append(Dyadic(lo) + Dyadic(hi - lo) * Dyadic(rng.getrandbits(20), -20))
        for x in anchors:
            brute = []
            for dec in decades:
                s = ZERO
                for v in dec:
                    s = s + pl_eval(cons.f, x + v)
                brute.append(s)
            assert decade_sums(cons, x) == brute, x
            if Dyadic(0) <= x <= Dyadic(1):
                assert partials(cons, x) == [brute[0], brute[0] + brute[1]]
                assert divergence_partial(cons, x) == brute[0] + brute[1]

    def test_strictly_increasing_in_decades(self, cons6):
        for xs in ("0", "0.5", "1"):
            x = dy(xs)
            prev = None
            for s in partials(cons6, x):
                if prev is not None:
                    assert s > prev
                prev = s

    def test_increment_floors_positive(self, cons6):
        rng = random.Random(777)
        floors = {m: None for m in range(1, 6)}
        for _ in range(100):
            x = Dyadic(rng.getrandbits(30), -30)
            vals = partials(cons6, x)
            for m in range(1, 6):
                inc = vals[m] - vals[m - 1]
                assert inc > ZERO
                if floors[m] is None or inc < floors[m]:
                    floors[m] = inc
        for m, fl in floors.items():
            assert fl > ZERO

    def test_partial_is_running_sum_of_decade_sums(self, cons6):
        """The sum through decade m is the whole sum of the jmax = m build,
        as `eval thm33 --jmaxes 1 .. 6` tabulates it."""
        for xs in ("0", "0.375", "1"):
            x = dy(xs)
            assert [divergence_partial(build_thm33(m), x) for m in range(1, 7)] == partials(cons6, x)

    def test_domain_guard(self, cons6):
        with pytest.raises(OutOfInterval):
            divergence_partial(cons6, Dyadic(2))


class TestConvergence:
    def test_anchor_x4_decade1(self, cons6):
        rep = convergence_tail_check(cons6, Dyadic(4), decade_sums(cons6, Dyadic(4)))
        assert rep.passed
        assert rep.params["per_decade"][0]["sum"] == str(Dyadic(5, -4))
        assert rep.params["per_decade"][0]["bound"] == str(Dyadic(1, -1))

    def test_anchor_x5(self, cons6):
        rep = convergence_tail_check(cons6, Dyadic(5), decade_sums(cons6, Dyadic(5)))
        assert rep.passed
        s1 = Dyadic.parse(rep.params["per_decade"][0]["sum"])
        assert s1 <= Dyadic(1, -1)

    def test_anchor_x4_eighth_decade2(self, cons6):
        x = Dyadic(4) + Dyadic(1, -3)
        rep = convergence_tail_check(cons6, x, decade_sums(cons6, x))
        assert rep.passed
        s2 = Dyadic.parse(rep.params["per_decade"][1]["sum"])
        assert s2 <= Dyadic(1, -3)  # 2*2^4*2^-8

    def test_enumeration_oracle_decade1(self, cons6):
        rng = random.Random(321)
        small = build_thm33(1)
        pts = list(iter_points(small.seq))
        for _ in range(15):
            x = Dyadic(4) + Dyadic(rng.getrandbits(20), -20)
            rep = convergence_tail_check(small, x, decade_sums(small, x))
            brute = ZERO
            for v in pts:
                brute = brute + pl_eval(small.f, x + v)
            assert Dyadic.parse(rep.params["per_decade"][0]["sum"]) == brute

    def test_hundred_seeded_points(self, cons6):
        rng = random.Random(20260810)
        for _ in range(100):
            x = Dyadic(4) + Dyadic(rng.getrandbits(40), -40)
            assert convergence_tail_check(cons6, x, decade_sums(cons6, x)).passed

    def test_domain_guard(self, cons6):
        with pytest.raises(OutOfInterval):
            convergence_tail_check(cons6, Dyadic(3), decade_sums(cons6, Dyadic(3)))


def _report_bytes(rep) -> str:
    return json.dumps(report_json_dict(rep), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


class TestShiftInvariantDecadeSums:
    def test_every_decade_certified_over_4_5(self):
        """Every size the default guard builds: jmax 19 is refused at the build."""
        for jmax in range(1, 19):
            got = shift_invariant_decade_sums(build_thm33(jmax), Dyadic(4), Dyadic(5))
            assert got == [Dyadic(5, -(2**j + 2)) for j in range(1, jmax + 1)]

    def test_no_decade_certified_over_0_1(self):
        """Decades 2.. are shift-free there only as the sum of two runs that
        each meet a bump in part; decade 1 depends on x outright."""
        for jmax in range(1, 7):
            assert shift_invariant_decade_sums(build_thm33(jmax), ZERO, Dyadic(1)) is None

    @pytest.mark.parametrize("jmax", range(1, 7))
    def test_converge_reports_from_certified_sums_match_per_x_sums(self, jmax):
        """The suite's sampling, with the certified sums and sums taken at x
        giving the same report bytes."""
        cons = build_thm33(jmax)
        certified = shift_invariant_decade_sums(cons, Dyadic(4), Dyadic(5))
        for seed in range(5):
            rng = random.Random(seed)
            xs = [Dyadic(4), Dyadic(5)] + [Dyadic(4) + Dyadic(rng.getrandbits(40), -40) for _ in range(10)]
            for x in xs:
                per_x = _report_bytes(convergence_tail_check(cons, x, decade_sums(cons, x)))
                assert _report_bytes(convergence_tail_check(cons, x, certified)) == per_x


class TestProbe:
    def test_vacuous(self, cons6):
        rep = thm34_probe(cons6, dy("4.5"), 0, seed=0)
        assert rep.passed

    def test_hundred_samples(self):
        cons = build_thm33(3)
        rep = thm34_probe(cons, dy("4.5"), 100, seed=9)
        assert rep.passed
        assert rep.params["failures"] == []

    def test_control_group_divergence_side(self, cons6):
        # shifts in [0,1] grow without the probe's majorant applying
        s_small = partials(cons6, dy("0.25"))[1]
        s_big = partials(cons6, dy("0.25"))[5]
        assert s_big > s_small

    def test_domain_guard(self, cons6):
        with pytest.raises(OutOfInterval):
            thm34_probe(cons6, Dyadic(4), 1, seed=0)
