"""Checks for the dense union-of-lattices construction."""

import contextlib
import dataclasses
import io
import random
from bisect import bisect_left

import pytest

from dyadlab.exactnum import Dyadic, DyInterval, GuardExceeded, IntervalUnion, ZERO, ONE, set_span_guard
from dyadlab.cli import main
from dyadlab.dense_divergence import (
    LAMBDA2_MIN_J,
    APWindow,
    Thm31Construction,
    _neighbours,
    build_thm31,
    cross_term_zero_check,
    density_window_check,
    enum_intervals,
    fG_sum_partial_31,
    find_gap_increase,
    lambda2_hit_count,
    lambda2_total_check,
    lower_bound_check,
    outside_zero_check,
    selected_js,
    tent,
    tripled,
)
from dyadlab.lattice import sum_pl_over_ap
from dyadlab.universal import OutOfInterval
from oracles import ap_index_range, build_thm31_dyadic, count_ap_in_interval, lambda2_total_check_bisect, lattice_run, pl_eval


def dy(s: str) -> Dyadic:
    return Dyadic.parse(s)


class TestEnumeration:
    def test_first_items(self):
        got = enum_intervals(6)
        assert got[0] == (1, DyInterval.closed(-1, 0))
        assert got[1] == (2, DyInterval.closed(0, 1))
        assert [iv for _, iv in got[2:6]] == [
            DyInterval.closed(-1, dy("-0.5")),
            DyInterval.closed(dy("-0.5"), 0),
            DyInterval.closed(0, dy("0.5")),
            DyInterval.closed(dy("0.5"), 1),
        ]

    def test_emission_guards_hold(self):
        for r, iv in enum_intervals(1000):
            width = iv.hi - iv.lo
            assert width * r >= ONE  # measure >= 1/r, cross-multiplied
            assert iv.lo >= Dyadic(-r) and iv.hi <= Dyadic(r)

    def test_half_unit_interval_appears(self):
        got = enum_intervals(1000)
        target = DyInterval.closed(0, dy("0.5"))
        assert any(iv == target for _, iv in got)

    def test_no_duplicates(self):
        got = enum_intervals(1000)
        keys = {(str(iv.lo), str(iv.hi)) for _, iv in got}
        assert len(keys) == len(got)

    def test_deterministic(self):
        assert enum_intervals(300) == enum_intervals(300)


class TestTent:
    def test_j1_shape(self):
        f = tent(1)
        assert f.xs[0] == Dyadic(2) - Dyadic(1, -4)
        assert pl_eval(f, Dyadic(2)) == dy("0.5")
        assert pl_eval(f, Dyadic(2) + Dyadic(1, -2)) == dy("0.5")
        assert f.xs[-1] == Dyadic(2) + Dyadic(1, -2) + Dyadic(1, -4)

    def test_zero_left_of_support(self):
        for j in (1, 3, 5):
            f = tent(j)
            assert pl_eval(f, Dyadic(1, j) - Dyadic(1, -(2**j) - j)) == ZERO

    def test_tripled(self):
        assert tripled(DyInterval.closed(0, 1)) == DyInterval.closed(-1, 2)
        assert tripled(DyInterval.closed(-1, dy("-0.5"))) == DyInterval.closed(dy("-1.5"), 0)


@pytest.fixture(scope="module")
def cons12():
    return build_thm31(12)


class TestLowerBound:
    def test_j1_midpoint(self, cons12):
        rep = lower_bound_check(cons12, 1, dy("-0.5"))
        assert rep.passed
        assert Dyadic.parse(rep.lhs) == Dyadic(3, -1)

    def test_j1_right_end(self, cons12):
        rep = lower_bound_check(cons12, 1, ZERO)
        assert rep.passed

    def test_j2_midpoint(self, cons12):
        it = cons12.item(2)
        mid = it.interval.lo + Dyadic((it.interval.hi - it.interval.lo).m, (it.interval.hi - it.interval.lo).e - 1)
        rep = lower_bound_check(cons12, 2, mid)
        assert rep.passed

    def test_enumeration_oracle_small_j(self, cons12):
        rng = random.Random(2026)
        for j in (1, 2, 3):
            it = cons12.item(j)
            assert it.lam1.count < 1100
            for _ in range(5):
                x = it.interval.lo + (it.interval.hi - it.interval.lo) * Dyadic(rng.getrandbits(20), -20)
                rep = lower_bound_check(cons12, j, x)
                brute = ZERO
                for k in range(it.lam1.count):
                    brute = brute + pl_eval(it.tent, x + it.lam1.start + it.lam1.step * k)
                assert Dyadic.parse(rep.lhs) == brute
                assert brute >= ONE

    def test_all_j_up_to_12(self, cons12):
        rng = random.Random(99)
        for j in range(1, 13):
            it = cons12.item(j)
            for _ in range(10):
                x = it.interval.lo + (it.interval.hi - it.interval.lo) * Dyadic(rng.getrandbits(30), -30)
                assert lower_bound_check(cons12, j, x).passed

    def test_out_of_interval(self, cons12):
        with pytest.raises(OutOfInterval):
            lower_bound_check(cons12, 1, Dyadic(5))


class TestOutsideZero:
    def test_just_left_of_tripled(self, cons12):
        # I_2 = [0, 1], tripled [-1, 2]: the domain [-2, -1) is nonempty
        rep = outside_zero_check(cons12, 2, dy("-1.5"))
        assert rep.passed

    def test_domain_empty_at_j1(self, cons12):
        # I_1 = [-1, 0] triples to [-2, 1], swallowing all of [-1, 1]
        it = cons12.item(1)
        assert it.tripled.lo <= Dyadic(-1) and it.tripled.hi >= Dyadic(1)
        with pytest.raises(OutOfInterval):
            outside_zero_check(cons12, 1, dy("0.625"))

    def test_sweep_j_up_to_12(self, cons12):
        rng = random.Random(4242)
        for j in range(1, 13):
            it = cons12.item(j)
            if it.tripled.lo <= Dyadic(-j) and it.tripled.hi >= Dyadic(j):
                continue  # nothing lies in [-j, j] outside the tripled interval
            done = 0
            while done < 10:
                x = Dyadic(-j) + Dyadic(2 * j) * Dyadic(rng.getrandbits(30), -30)
                if it.tripled.contains(x):
                    continue
                assert outside_zero_check(cons12, j, x).passed
                done += 1

    def test_enumeration_oracle(self, cons12):
        it = cons12.item(2)
        x = it.tripled.hi + Dyadic(1, -5)
        if x <= Dyadic(2):
            rep = outside_zero_check(cons12, 2, x)
            brute = ZERO
            for k in range(it.lam1.count):
                brute = brute + pl_eval(it.tent, x + it.lam1.start + it.lam1.step * k)
            assert Dyadic.parse(rep.lhs) == brute == ZERO


class TestCrossTerms:
    def test_j0_10_neighbors(self, cons12):
        assert cross_term_zero_check(cons12, 10, 9).passed
        assert cross_term_zero_check(cons12, 10, 11).passed
        for j in (1, 5, 12):
            if j != 10:
                rep = cross_term_zero_check(cons12, 10, j)
                assert rep.passed and Dyadic.parse(rep.lhs) == ZERO

    def test_small_j0_informational(self, cons12):
        rep = cross_term_zero_check(cons12, 1, 2)
        assert rep.passed and rep.params["informational"]
        # value is still exact and reported
        Dyadic.parse(rep.lhs)

    def test_rejects_equal_indices(self, cons12):
        with pytest.raises(ValueError):
            cross_term_zero_check(cons12, 3, 3)


class TestLambda2:
    def test_hit_count_at_most_one(self, cons12):
        for j in (10, 11, 12):
            for xs in ("0", "1", "-3.5", "7.25"):
                rep = lambda2_hit_count(cons12, j, dy(xs))
                assert rep.passed
                assert int(rep.lhs) <= 1

    def test_hit_count_enumeration_oracle(self, cons12):
        it = cons12.item(10)
        rng = random.Random(11)
        for _ in range(5):
            x = Dyadic(rng.randint(-10, 10), 0) + Dyadic(rng.getrandbits(10), -10)
            rep = lambda2_hit_count(cons12, 10, x)
            # clip the enumeration near the tent support to stay fast
            k_lo = max(0, ((it.tent.xs[0] - x - Dyadic(1)) - it.lam2.start) // it.lam2.step)
            k_hi = min(it.lam2.count - 1, ((it.tent.xs[-1] - x + Dyadic(1)) - it.lam2.start) // it.lam2.step)
            brute = 0
            for k in range(k_lo, k_hi + 1):
                if pl_eval(it.tent, x + it.lam2.start + it.lam2.step * k) != ZERO:
                    brute += 1
            assert int(rep.lhs) == brute

    def test_small_j_informational(self, cons12):
        with pytest.raises(ValueError, match="no coarse lattice"):
            lambda2_hit_count(cons12, 3, ZERO)

    def test_tail_bound(self, cons12):
        for xs in ("0", "0.5", "-2", "6.0625"):
            rep = lambda2_total_check(cons12, dy(xs))
            assert rep.passed
            assert Dyadic.parse(rep.lhs) <= Dyadic.parse(rep.rhs)


class TestFGSum:
    def test_empty_G(self, cons12):
        assert fG_sum_partial_31(cons12, ZERO, IntervalUnion()) == ZERO

    def test_selected_js(self, cons12):
        g = IntervalUnion([DyInterval.open(-4, 4)])
        js = selected_js(cons12, g)
        assert 1 in js  # tripled [-2, 1] inside (-4, 4)
        assert all(cons12.item(j).tripled.hi < Dyadic(4) for j in js)

    def test_lower_bound_accumulates(self, cons12):
        g = IntervalUnion([DyInterval.open(-4, 4)])
        x = dy("-0.75")
        js = selected_js(cons12, g)
        hits = [j for j in js if cons12.item(j).interval.contains(x)]
        total = fG_sum_partial_31(cons12, x, g)
        assert total >= Dyadic(len(hits))
        assert len(hits) >= 2

    def test_lambda2_only_is_bounded(self, cons12):
        g = IntervalUnion([DyInterval.open(-4, 4)])
        js = selected_js(cons12, g)

        def family_sum(x, windows):
            terms = (sum_pl_over_ap(cons12.item(j).tent, x + w.start, w.step, w.count) for w in windows for j in js)
            return sum(terms, ZERO)

        lam1 = [it.lam1 for it in cons12.items]
        lam2 = [it.lam2 for it in cons12.items if it.lam2 is not None]
        shared = cons12.lambda_overlaps()
        for xs in ("0", "0.5", "-1"):
            x = dy(xs)
            s2 = family_sum(x, lam2)
            # x = -1 carries the points 3, 25/8, 13/4 of two windows onto tent 2
            assert fG_sum_partial_31(cons12, x, g) == family_sum(x, lam1) + s2 - family_sum(x, shared)
            rep = lambda2_total_check(cons12, x)
            total_all_tents = Dyadic.parse(rep.params["total"])
            assert s2 <= total_all_tents

    def test_overlap_runs_are_disjoint_through_16(self):
        # no point lies in three windows, so subtracting each run once is exact
        spans = sorted((w.start, w.last()) for w in build_thm31(16).lambda_overlaps())
        assert len(spans) == 8
        assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))

    @pytest.mark.parametrize("jmax", [2, 3])
    def test_sum_over_the_set_matches_enumeration(self, jmax):
        cons = build_thm31(jmax)
        windows = cons.lambda_windows()
        points = [w.start + w.step * k for w in windows for k in range(w.count)]
        lam = set(points)
        shared = {w.start + w.step * k for w in cons.lambda_overlaps() for k in range(w.count)}
        assert shared == {p for p in lam if points.count(p) == 2}
        assert not any(points.count(p) > 2 for p in shared)
        g = IntervalUnion([DyInterval.open(-1000, 1000)])
        tents = [cons.item(j).tent for j in selected_js(cons, g)]
        rng = random.Random(4096 + jmax)
        xs = [Dyadic(-1), Dyadic(-15, -4)] + [Dyadic(rng.randint(-48, 48), -4) for _ in range(22)]
        for x in xs:
            brute = sum((pl_eval(f, x + p) for p in lam for f in tents), ZERO)
            assert fG_sum_partial_31(cons, x, g) == brute, x


class TestDensityAndGaps:
    def test_density_windows(self, cons12):
        for j in (10, 11, 12):
            assert density_window_check(cons12, j).passed

    def test_density_windows_through_14(self):
        cons = build_thm31(14)
        for j in range(10, 15):
            assert density_window_check(cons, j).passed

    def test_density_enumeration_oracle_j10(self, cons12):
        it = cons12.item(10)
        win = it.lam2
        # scaled integers: step 2^-10 lattice over the window
        assert win.step == Dyadic(1, -10)
        first = win.start
        assert first == Dyadic(1, 9) + Dyadic(18) + Dyadic(1, -10)
        assert win.last() == Dyadic(1, 10) + Dyadic(20)
        assert win.count == (2**9 + 2) * 2**10

    def test_gap_increase_found(self, cons12):
        rep = find_gap_increase(cons12)
        assert rep.passed
        assert Dyadic.parse(rep.rhs) > Dyadic.parse(rep.lhs)

    @pytest.mark.parametrize("jmax", [1, 2])
    def test_gap_increase_informational_before_jmax_3(self, jmax):
        # only the overlapping j = 1, 2 windows exist: no increase to find
        rep = find_gap_increase(build_thm31(jmax))
        assert rep.passed and rep.params == {"jmax": jmax, "informational": True}

    def test_gap_increase_asserted_from_jmax_3(self):
        rep = find_gap_increase(build_thm31(3))
        assert rep.passed and "informational" not in rep.params
        assert (rep.lhs, rep.rhs) == ("1*2^-6", "71*2^-4")

    def test_gap_increase_location(self, cons12):
        # the fine window at j=2 ends at 4+2^-4 and nothing lives between it
        # and the start of the j=3 window at 8.5
        rep = find_gap_increase(cons12)
        at = Dyadic.parse(rep.params["at"])
        assert at == Dyadic(4) + Dyadic(1, -4)
        nxt = Dyadic.parse(rep.params["next_point"])
        assert nxt == dy("8.5")

    def test_neighbours_match_enumeration(self):
        cons = build_thm31(3)
        pts = sorted({w.start + w.step * k for w in cons.lambda_windows() for k in range(w.count)})
        half = Dyadic(1, -1)
        ts = [pts[0] - ONE, *pts, *((p + q) * half for p, q in zip(pts, pts[1:])), pts[-1] + ONE]
        for t in ts:
            i = bisect_left(pts, t)
            before = pts[i - 1] if i else None
            after_i = i + 1 if i < len(pts) and pts[i] == t else i
            after = pts[after_i] if after_i < len(pts) else None
            assert _neighbours(cons, t) == (before, after)


class TestShiftFormsAgainstTheOracles:
    """Every window step is 2^e, so `lambda_overlaps`, `lambda2_hit_count`
    and `_neighbours` find indices by shifts; the `Dyadic` divmod oracles
    in `tests/oracles.py` must agree at every jmax from 1 to 16."""

    JMAXES = range(1, 17)

    @staticmethod
    def overlaps_by_lattice_run(cons: Thm31Construction) -> list[APWindow]:
        windows, out = cons.lambda_windows(), []
        for n, a in enumerate(windows):
            for b in windows[n + 1:]:
                lo, hi = max(a.start, b.start), min(a.last(), b.last())
                if lo <= hi:
                    try:
                        out.append(APWindow(*lattice_run(DyInterval.closed(lo, hi), max(a.step, b.step))))
                    except ValueError:  # the common span holds no point of the coarser lattice
                        pass
        return out

    @pytest.mark.parametrize("jmax", JMAXES)
    def test_overlaps_are_the_pairs_cut_by_lattice_run(self, jmax):
        cons = build_thm31(jmax)
        assert cons.lambda_overlaps() == self.overlaps_by_lattice_run(cons)

    def test_overlaps_of_spans_that_end_off_the_coarser_lattice(self):
        """Windows 1/4..3 by 1/4, 0..5 by 1 and 1/2..9/2 by 1/2: common spans
        from 1/4 and 1/2 and to 9/2, off the lattice of step 1."""
        wins = [APWindow(Dyadic(1, -2), Dyadic(1, -2), 12), APWindow(ZERO, ONE, 6), APWindow(Dyadic(1, -1), Dyadic(1, -1), 9)]
        cons = Thm31Construction(3, tuple(dataclasses.replace(it, lam1=w) for it, w in zip(build_thm31(3).items, wins)))
        want = [APWindow(ONE, ONE, 3), APWindow(Dyadic(1, -1), Dyadic(1, -1), 6), APWindow(ONE, ONE, 4)]
        assert cons.lambda_overlaps() == self.overlaps_by_lattice_run(cons) == want

    @pytest.mark.parametrize("jmax", JMAXES)
    def test_hit_counts_match_count_ap_in_interval(self, jmax):
        """At random 48-bit x in [-j, j], and at every shift that puts the
        coarse window's first or last point on a support knot, or one unit
        of the tent's grid to either side."""
        cons = build_thm31(jmax)
        rng = random.Random(jmax)
        for j in range(LAMBDA2_MIN_J, jmax + 1):
            it = cons.item(j)
            win, unit = it.lam2, Dyadic(1, it.tent.x_exp)
            xs = [Dyadic(rng.randrange(-j << 48, (j << 48) + 1), -48) for _ in range(6)]
            xs += [knot - p + unit * d for knot in it.tent.xs for p in (win.start, win.last()) for d in (-1, 0, 1)]
            for x in xs:
                want = count_ap_in_interval(win.start, win.step, win.count, DyInterval.open(it.tent.xs[0] - x, it.tent.xs[-1] - x))
                assert lambda2_hit_count(cons, j, x).lhs == str(want), (j, x)

    @pytest.mark.parametrize("jmax", JMAXES)
    def test_neighbours_match_the_oracle_index_range(self, jmax):
        """At each window's first and last point, and one unit finer than
        every step to either side."""
        cons = build_thm31(jmax)
        windows = cons.lambda_windows()
        unit = Dyadic(1, min(w.step.e for w in windows) - 1)

        def oracle(t):
            before, after = [], []
            for w in windows:
                if w.start < t:
                    k = ap_index_range(w.start, w.step, DyInterval(w.start, t, True, False))[1]
                    before.append(w.start + w.step * min(k, w.count - 1))
                if t < w.last():
                    k = ap_index_range(w.start, w.step, DyInterval(t, w.last(), False, True))[0]
                    after.append(w.start + w.step * max(k, 0))
            return max(before, default=None), min(after, default=None)

        for t in [p + unit * d for w in windows for p in (w.start, w.last()) for d in (-1, 0, 1)]:
            assert _neighbours(cons, t) == oracle(t), t

    def test_the_density_run_makes_no_divmod(self, monkeypatch):
        """`verify thm31 --suite density --jmax 16 --samples 10` cuts and
        counts every window by shifts: no `Dyadic.__divmod__` call."""
        calls = []
        real = Dyadic.__divmod__
        monkeypatch.setattr(Dyadic, "__divmod__", lambda a, b: calls.append((a, b)) or real(a, b))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "thm31", "--suite", "density", "--jmax", "16", "--samples", "10"]) == 0
        assert calls == []


class TestJsonRoundtrip:
    def test_serialization_shape(self, cons12):
        d = cons12.to_json_dict()
        assert d["jmax"] == 12
        assert len(d["items"]) == 12
        assert d["items"][9]["lambda2"] is not None
        assert d["items"][0]["lambda2"] is None


class TestClosedFormBuild:
    @pytest.mark.parametrize("jmax", range(1, 17))
    def test_equals_the_dyadic_build(self, jmax):
        """Item by item, the closed form builds what cutting every window by
        `lattice_run` in Dyadic arithmetic builds: the same interval, tripled
        interval, windows, knots, values and int grids."""
        got, want = build_thm31(jmax), build_thm31_dyadic(jmax)
        assert got == want
        for a, b in zip(got.items, want.items):
            assert (a.j, a.interval, a.tripled, a.lam1, a.lam2) == (b.j, b.interval, b.tripled, b.lam1, b.lam2)
            fa, fb = a.tent, b.tent
            assert (fa.xs, fa.vs, fa.x_ints, fa.x_gaps, fa.x_exp, fa.v_ints, fa.v_exp) == (
                fb.xs, fb.vs, fb.x_ints, fb.x_gaps, fb.x_exp, fb.v_ints, fb.v_exp
            )

    @pytest.mark.parametrize("jmax, bits", [(6, 77), (6, 78), (7, 143), (7, 144), (8, 273), (8, 274)])
    def test_refuses_at_the_same_guard_as_the_dyadic_build(self, jmax, bits):
        """Tent j needs 2^j + 2j + 2 bits on its grid: both builds refuse
        below that and build at it."""
        outcomes = []
        old = set_span_guard(bits)
        try:
            for build in (build_thm31, build_thm31_dyadic):
                try:
                    outcomes.append(build(jmax).jmax)
                except GuardExceeded:
                    outcomes.append(GuardExceeded)
        finally:
            set_span_guard(old)
        assert outcomes == [jmax if bits >= 2**jmax + 2 * jmax + 2 else GuardExceeded] * 2

    @pytest.mark.parametrize("build, wide", [(build_thm31, False), (build_thm31_dyadic, True)])
    def test_no_wide_dyadic_arithmetic(self, monkeypatch, build, wide):
        """While `build_thm31(16)` runs, no `Dyadic` +, -, * or divmod takes an
        operand wider than 64 bits, counted on the two operands' common grid
        for a sum or a floor ratio; the Dyadic-arithmetic build, run under
        the same wrappers, does."""
        widest = []

        def as_pair(v):
            return (v.m, v.e) if isinstance(v, Dyadic) else (v, 0)

        def aligned(a, b):
            terms = [p for p in map(as_pair, (a, b)) if p[0]]
            g = min((e for _, e in terms), default=0)
            return max((abs(m).bit_length() + e - g for m, e in terms), default=0)

        def spy(name, width):
            op = getattr(Dyadic, name)
            monkeypatch.setattr(Dyadic, name, lambda a, b: widest.append(width(a, b)) or op(a, b))

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__divmod__"):
            spy(name, aligned)
        for name in ("__mul__", "__rmul__"):
            spy(name, lambda a, b: max(abs(as_pair(v)[0]).bit_length() for v in (a, b)))
        build(16)
        assert widest
        assert (max(widest) > 64) == wide, max(widest)


class TestTailTables:
    @pytest.mark.parametrize("jmax", [1, 9, 10, 11, 16])
    def test_equals_the_bisect_path(self, jmax):
        """The tail report read off the per-tent tables equals the one summed
        over bisected shifted runs: at x = -jmax, 0 (every coarse run puts
        2^j on tent j's plateau), jmax, on tent 10's ramps and plateau end,
        past jmax, and at sampled points of [-jmax, jmax]."""
        cons = build_thm31(jmax)
        rng = random.Random(jmax)
        xs = [Dyadic(-jmax), ZERO, Dyadic(jmax), Dyadic(-1, -(2**10) - 12), Dyadic(1, -(2**10)), Dyadic((1 << 12) + 1, -(2**10) - 12)]
        xs += [Dyadic(2 * jmax + 1), Dyadic(-5, 3)]
        xs += [Dyadic(rng.randrange(-jmax << 48, (jmax << 48) + 1), -48) for _ in range(20)]
        for x in xs:
            assert lambda2_total_check(cons, x) == lambda2_total_check_bisect(cons, x), x
        if jmax >= 10:
            assert Dyadic.parse(lambda2_total_check(cons, ZERO).params["total"]) > ZERO
