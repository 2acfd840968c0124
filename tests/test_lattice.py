"""Gap-block sequences and lattice-counting checks against enumeration oracles."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dyadlab import exactnum
from dyadlab.cli import check_monotone_gaps
from dyadlab.dense_divergence import _floor_steps, build_thm31
from dyadlab.exactnum import Dyadic, DyInterval, GuardExceeded, NotExact, PiecewiseLinear, ONE, ZERO, set_span_guard, span_guard
from dyadlab.interior_gap import build_thm33
from dyadlab.lattice import (
    GapBlock,
    GapBlockSeq,
    PeriodicIntervalSet,
    RunSums,
    count_ap_in_periodic,
    floor_sum,
    sum_pl_over_ap,
    sum_pl_over_runs,
)
from dyadlab.universal import IndexJK, build_universal, indices_through
from oracles import comb_contains, components, count_ap_in_interval, count_ap_in_periodic_dyadic, cum_values_dyadic, iter_points, pl_eval, sum_pl_over_ap_dyadic


def dy(s: str) -> Dyadic:
    return Dyadic.parse(s)


def universal_head() -> GapBlockSeq:
    """First two blocks of the universal sequence: origin 15, then the two
    block shapes produced by its first step."""
    return GapBlockSeq(
        Dyadic(15),
        [
            GapBlock(Dyadic(1, -8) - Dyadic(1, -12), 160, "step-1,0-coarse"),
            GapBlock(Dyadic(1, -9), 8148, "step-1,0-fine"),
        ],
    )


class TestGapBlockSeq:
    def test_value_at_examples(self):
        seq = universal_head()
        assert seq.value_at(0) == Dyadic(15)
        assert seq.value_at(160) == Dyadic(1995, -7)
        assert seq.value_at(8308) == Dyadic(63, -1)
        with pytest.raises(IndexError):
            seq.value_at(8309)
        with pytest.raises(IndexError):
            seq.value_at(-1)

    def test_value_at_matches_enumeration(self):
        seq = universal_head()
        for n, v in enumerate(iter_points(seq)):
            if n > 400:
                break
            assert seq.value_at(n) == v

    def test_count_upto_examples(self):
        seq = universal_head()
        assert seq.count_upto(Dyadic(15)) == 1
        assert seq.count_upto(Dyadic(16)) == 373
        assert seq.count_upto(Dyadic(14)) == 0
        assert seq.count_upto(Dyadic(63, -1)) == 8309

    def test_count_upto_matches_enumeration(self):
        seq = universal_head()
        pts = []
        for n, v in enumerate(iter_points(seq)):
            pts.append(v)
            if n >= 400:
                break
        rng = random.Random(7)
        for _ in range(300):
            x = Dyadic(15) + Dyadic(rng.randint(0, 2**13), -13)
            if x > pts[-1]:
                continue
            assert seq.count_upto(x) == sum(1 for p in pts if p <= x)

    def test_galois_adjunction(self):
        seq = universal_head()
        rng = random.Random(11)
        for _ in range(500):
            x = Dyadic(rng.randint(15 * 2**10, 32 * 2**10), -10)
            c = seq.count_upto(x)
            if c >= 1:
                assert seq.value_at(c - 1) <= x
            if c < seq.total_count:
                assert seq.value_at(c) > x

    def test_monotone_gaps_check(self):
        assert check_monotone_gaps(universal_head()).passed
        bad = GapBlockSeq(ZERO, [GapBlock(Dyadic(1), 1), GapBlock(Dyadic(2), 1)])
        rep = check_monotone_gaps(bad)
        assert not rep.passed
        assert rep.params["first_violating_index"] == 2
        single = GapBlockSeq(ZERO, [GapBlock(Dyadic(1, -3), 5)])
        assert check_monotone_gaps(single).passed

    def test_json_roundtrip(self):
        seq = universal_head()
        again = GapBlockSeq.from_json_dict(seq.to_json_dict())
        assert again.origin == seq.origin
        assert again.blocks == seq.blocks


gap_block_seqs = st.builds(
    GapBlockSeq,
    st.builds(Dyadic, st.integers(-64, 64), st.integers(-3, 1)),
    st.lists(
        st.builds(GapBlock, st.builds(Dyadic, st.integers(1, 16), st.integers(-4, 0)), st.integers(1, 6)),
        min_size=1,
        max_size=12,
    ),
)


@given(gap_block_seqs)
@settings(max_examples=150, deadline=None)
def test_block_lookups_match_enumeration(seq):
    pts = list(iter_points(seq))
    assert seq.total_count == len(pts) and seq.last_value == pts[-1]
    for n, v in enumerate(pts):
        assert seq.value_at(n) == v
    for n in (-1, len(pts)):
        with pytest.raises(IndexError):
            seq.value_at(n)

    # below the origin, on every point (so on every block end), halfway between
    # neighbours, and past the last point
    half = Dyadic(1, -1)
    xs = [pts[0] - ONE, *pts, *((p + q) * half for p, q in zip(pts, pts[1:])), pts[-1] + ONE]
    for x in xs:
        assert seq.count_upto(x) == sum(1 for p in pts if p <= x)

    # indices around every block boundary, plus out-of-range ends
    ends = [0]
    for b in seq.blocks:
        ends.append(ends[-1] + b.count)
    probes = sorted({0, 1, len(pts), len(pts) + 1, *ends, *(n + 1 for n in ends)})
    for n_lo in probes:
        for n_hi in probes:
            segs = seq.segments_in_range(n_lo, n_hi)
            assert all(count >= 1 for _, _, count in segs)
            got = [first + gap * i for first, gap, count in segs for i in range(count)]
            assert got == pts[n_lo : n_hi + 1]
            # the origin is a one-point run listed first; then one slice per
            # block met, so every gap in a slice is the block's own
            origin = [(seq.origin, ONE, 1)] if n_lo <= 0 <= n_hi else []
            assert segs[: len(origin)] == origin
            met = [
                b
                for b in range(len(seq.blocks))
                if max(n_lo, 1, ends[b] + 1) <= min(n_hi, ends[b + 1])
            ]
            assert [gap for _, gap, _ in segs[len(origin) :]] == [seq.blocks[b].gap for b in met]


# origins and gaps spread over wide exponent ranges, counts with many
# trailing zeros: block totals land on grids far apart, as in an artifact
spread_origins = st.one_of(st.just(ZERO), st.builds(Dyadic, st.integers(-(2**40), 2**40), st.integers(-60, 60)))
spread_blocks = st.lists(
    st.builds(
        GapBlock,
        st.builds(Dyadic, st.integers(1, 2**30), st.integers(-80, 80)),
        st.builds(lambda c, t: c << t, st.integers(1, 2**20), st.integers(0, 40)),
    ),
    max_size=8,
)


@given(st.one_of(gap_block_seqs, st.builds(GapBlockSeq, spread_origins, spread_blocks)))
@settings(max_examples=200, deadline=None)
def test_block_start_is_the_point_before_the_block(seq):
    assert seq.block_start(0) == (0, seq.origin)
    for b in range(1, len(seq.blocks) + 1):
        n = seq.cum_counts[b - 1]
        assert seq.block_start(b) == (n, seq.value_at(n))
    assert seq.block_start(len(seq.blocks))[1] == seq.last_value
    for b in (-1, len(seq.blocks) + 1):
        with pytest.raises(IndexError):
            seq.block_start(b)


def _assert_table_matches_the_dyadic_loop(origin: Dyadic, blocks: list[GapBlock], guard: int) -> None:
    """The int table holds the values the Dyadic loop reaches, and refuses
    exactly when the origin, a block total or a value reached (the last
    included) needs more than `guard` bits on the common grid 2^g, g the
    least exponent of the origin and the totals.  Each Dyadic sum checks
    its operands on its own grid, no finer than 2^g, so wherever the loop
    refuses, the table does too."""
    values = cum_values_dyadic(origin, blocks)
    terms = [t for t in [origin, *(b.gap * b.count for b in blocks)] if t]
    g = min((t.e for t in terms), default=0)
    needed = max((t.m.bit_length() + t.e - g for t in terms + values if t), default=0)
    old = set_span_guard(guard)
    try:
        try:
            got = [GapBlockSeq(origin, blocks).block_start(b + 1)[1] for b in range(len(blocks))]
        except GuardExceeded:
            got = GuardExceeded
        try:
            want = cum_values_dyadic(origin, blocks)
        except GuardExceeded:
            want = GuardExceeded
    finally:
        set_span_guard(old)
    assert got == (GuardExceeded if needed > guard else values)
    if want is GuardExceeded:
        assert got is GuardExceeded
    else:
        assert want == values


@given(spread_origins, spread_blocks, st.integers(64, 220))
@settings(max_examples=400, deadline=None)
def test_int_table_matches_the_dyadic_loop(origin, blocks, guard):
    _assert_table_matches_the_dyadic_loop(origin, blocks, guard)


@pytest.mark.parametrize(
    "make, guards",
    [
        (lambda: build_universal(IndexJK(3, 5)), range(64, 200)),
        (lambda: build_thm33(6).seq, range(64, 150)),
    ],
    ids=["universal-3,5", "thm33-6"],
)
def test_int_table_refuses_like_the_dyadic_loop_at_every_small_guard(make, guards):
    seq = make()
    for guard in guards:
        _assert_table_matches_the_dyadic_loop(seq.origin, list(seq.blocks), guard)


def test_values_too_far_apart_for_one_grid_are_refused():
    # -2^K + 2^K = 0, and 0 + 2^-K adds without aligning anything: every
    # Dyadic sum fits the guard, but the origin needs 2K + 1 bits on the grid 2^-K
    K = 600_000
    blocks = [GapBlock(Dyadic(1, K), 1), GapBlock(Dyadic(1, -K), 1)]
    assert cum_values_dyadic(Dyadic(-1, K), blocks) == [ZERO, Dyadic(1, -K)]
    with pytest.raises(GuardExceeded) as exc:
        GapBlockSeq(Dyadic(-1, K), blocks)
    assert str(exc.value) == f"gap-block table needs {2 * K + 1} bits on the grid 2^-{K} (guard {span_guard()})"
    _assert_table_matches_the_dyadic_loop(Dyadic(-1, K), blocks, span_guard())


def test_count_upto_far_from_the_table_forms_no_wide_int():
    seq = universal_head()
    assert seq.count_upto(Dyadic(1, 99999999999)) == seq.total_count
    assert seq.count_upto(Dyadic(-1, 99999999999)) == 0
    assert seq.count_upto(Dyadic(1, -99999999999)) == 0
    # finer than the table's grid: the floor on the grid is a right shift
    assert seq.count_upto(Dyadic((15 << 300) + 1, -300)) == 1


class TestFloorSum:
    def test_brute_force_small(self):
        rng = random.Random(13)
        for _ in range(3000):
            n = rng.randint(0, 40)
            m = rng.randint(1, 30)
            a = rng.randint(-60, 60)
            b = rng.randint(-60, 60)
            assert floor_sum(n, m, a, b) == sum((a + b * i) // m for i in range(n))

    def test_big_values(self):
        n, m, a, b = 10**30, 10**17 + 7, -(10**9), 10**12 + 3
        # spot-check one huge instance against a partial-sum identity:
        # splitting the range must be additive
        k = 10**15
        assert floor_sum(n, m, a, b) == floor_sum(k, m, a, b) + floor_sum(
            n - k, m, a + b * k, b
        )


class TestCountApInInterval:
    def test_examples(self):
        start, step = Dyadic(15), Dyadic(15, -12)
        iv = DyInterval.closed(Dyadic(15) + Dyadic(1, -2), Dyadic(15) + Dyadic(5, -4))
        assert count_ap_in_interval(start, step, 161, iv) == 17
        left = DyInterval.closed(Dyadic(0), Dyadic(1))
        assert count_ap_in_interval(Dyadic(10), Dyadic(1), 5, left) == 0
        point = DyInterval.closed(Dyadic(10), Dyadic(10))
        assert count_ap_in_interval(Dyadic(10), Dyadic(1), 5, point) == 1

    def test_scale_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            start = Dyadic(rng.randint(-500, 500), -3)
            step = Dyadic(rng.randint(1, 40), -3)
            count = rng.randint(0, 80)
            lo = Dyadic(rng.randint(-500, 500), -3)
            iv = DyInterval.closed(lo, lo + Dyadic(rng.randint(0, 200), -3))
            base = count_ap_in_interval(start, step, count, iv)
            for shift in (-7, 4):
                two = Dyadic(1, shift)
                scaled = DyInterval.closed(iv.lo * two, iv.hi * two)
                assert count_ap_in_interval(start * two, step * two, count, scaled) == base

    def test_enumeration_oracle_with_closedness(self):
        rng = random.Random(3)
        for _ in range(2000):
            start = Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 4))
            step = Fraction(rng.randint(1, 24), 2 ** rng.randint(0, 4))
            count = rng.randint(0, 60)
            lo = Fraction(rng.randint(-80, 80), 2 ** rng.randint(0, 3))
            width = Fraction(rng.randint(0, 50), 2 ** rng.randint(0, 3))
            cl, ch = rng.random() < 0.5, rng.random() < 0.5
            if width == 0:
                cl = ch = True
            iv = DyInterval(
                Dyadic(lo.numerator, -lo.denominator.bit_length() + 1),
                Dyadic(lo.numerator, -lo.denominator.bit_length() + 1)
                + Dyadic(width.numerator, -width.denominator.bit_length() + 1),
                cl,
                ch,
            )
            s = Dyadic(start.numerator, -start.denominator.bit_length() + 1)
            d = Dyadic(step.numerator, -step.denominator.bit_length() + 1)
            got = count_ap_in_interval(s, d, count, iv)
            expect = sum(1 for k in range(count) if iv.contains(s + d * k))
            assert got == expect


class TestCountApInPeriodic:
    def test_scaled_integer_example(self):
        ps = PeriodicIntervalSet(ZERO, Dyadic(8), Dyadic(2), 8)
        # points 0,3,6,...,21: residues mod 8 are 0,3,6,1,4,7,2,5 -> three in [0,2]
        assert count_ap_in_periodic(ZERO, Dyadic(3), 8, ps) == 3

    def test_full_cover(self):
        # width = period - step and start = base: every point lands
        ps = PeriodicIntervalSet(Dyadic(5), Dyadic(4), Dyadic(3), 7)
        assert count_ap_in_periodic(Dyadic(5), Dyadic(1), 28, ps) == 28

    def test_universal_block_against_enumeration(self):
        # shifted progression from the universal head against the first target set
        ps = PeriodicIntervalSet(Dyadic(16), Dyadic(1, -8), Dyadic(1, -12), 16)
        x = dy("0.75")
        step = Dyadic(1, -8) - Dyadic(1, -12)
        start = x + Dyadic(15) + step * 69
        count = 160 - 69 + 1
        expect = sum(1 for k in range(count) if comb_contains(ps, start + step * k))
        assert count_ap_in_periodic(start, step, count, ps) == expect
        assert expect >= 1

    def _random_case(self, rng):
        e = rng.randint(-6, 0)
        base = Dyadic(rng.randint(-400, 400), e)
        period = Dyadic(rng.randint(2, 160), e)
        width = Dyadic(rng.randint(0, 1000), e - 3)
        while not width < period:
            width = Dyadic(width.m // 2, width.e)
        pcount = rng.randint(1, 40)
        ps = PeriodicIntervalSet(base, period, width, pcount)
        start = Dyadic(rng.randint(-3000, 3000), e - 1)
        step = Dyadic(rng.randint(1, 250), e - rng.randint(1, 3))
        count = rng.randint(0, 3000)
        return ps, start, step, count

    def test_randomized_enumeration_oracle(self):
        """Expected counts enumerate k on plain ints: every value of a case is
        an integer multiple of 2^e for the least exponent e among them."""
        rng, pick = random.Random(20260810), random.Random(1)
        for _ in range(1500):
            ps, start, step, count = self._random_case(rng)
            vals = (start, step, ps.base, ps.period, ps.width)
            e = min(v.e for v in vals)
            s, d, b, p, w = (v.m << (v.e - e) for v in vals)

            def hit(k):
                q, r = divmod(s + d * k - b, p)
                return 0 <= q < ps.count and r <= w

            for k in {0, count - 1, pick.randrange(count + 1), pick.randrange(count + 1)} - {-1, count}:
                assert hit(k) == comb_contains(ps, start + step * k)
            got = count_ap_in_periodic(start, step, count, ps)
            assert got == sum(1 for k in range(count) if hit(k))

    def test_decomposition_consistency(self):
        rng = random.Random(8)
        for _ in range(300):
            ps, start, step, count = self._random_case(rng)
            total = count_ap_in_periodic(start, step, count, ps)
            by_parts = sum(
                count_ap_in_interval(start, step, count, comp) for comp in components(ps)
            )
            assert total == by_parts

    def test_scale_invariance(self):
        rng = random.Random(9)
        for _ in range(200):
            ps, start, step, count = self._random_case(rng)
            got = count_ap_in_periodic(start, step, count, ps)
            for shift in (-5, 3, 17):
                two = Dyadic(1, shift)
                scaled = PeriodicIntervalSet(
                    ps.base * two, ps.period * two, ps.width * two, ps.count
                )
                assert count_ap_in_periodic(start * two, step * two, count, scaled) == got


def _comb_count_width(start, step, ps):
    """(width, g) as `count_ap_in_periodic` documents them: g the least
    exponent among the nonzero values of start, step, base, period and
    width, and the widest of start, step, base, width and period*count on
    the grid 2^g, plus one bit for the carry of the clip end."""
    terms = [(v.m, v.e) for v in (start, step, ps.base, ps.width) if v.m] + [(ps.period.m * ps.count, ps.period.e)]
    g = min(e for _, e in terms)
    return max(m.bit_length() + e for m, e in terms) - g + 1, g


def _assert_comb_count_matches(case, want, guard) -> bool:
    """Under `guard` the integer kernel refuses exactly when its documented
    width does not fit, in the one refusal shape, and otherwise returns
    `want`, the Dyadic oracle's count at the default guard; returns whether
    it refused."""
    start, step, _, ps = case
    width, g = _comb_count_width(start, step, ps)
    old = set_span_guard(guard)
    try:
        got = count_ap_in_periodic(*case)
    except GuardExceeded as exc:
        got = (GuardExceeded, str(exc))
    finally:
        set_span_guard(old)
    if width > guard:
        want = (GuardExceeded, f"comb count needs {width} bits on the grid 2^{g} (guard {guard})")
    assert got == want, case
    return width > guard


@st.composite
def comb_cases(draw):
    """(start, step, count, comb) shaped like `TestCountApInPeriodic._random_case`,
    with zero widths, starts on a component's edges (or one fine
    unit off them), negative starts, counts whose last point straddles the
    clip end, the whole case scaled by 2^shift, and the start alone moved by
    2^skew so that the common grid is wider than the smallest guards."""
    e = draw(st.integers(-6, 0))
    period = Dyadic(draw(st.integers(2, 160)), e)
    width = Dyadic(draw(st.integers(0, 1000)), e - 3)
    while not width < period:
        width = Dyadic(width.m // 2, width.e)
    pcount = draw(st.integers(1, 40))
    base = Dyadic(draw(st.integers(-400, 400)), e)
    step = Dyadic(draw(st.integers(1, 250)), e - draw(st.integers(1, 3)))
    where = draw(st.sampled_from(["any", "negative", "lo-edge", "hi-edge", "straddle"]))
    if where == "any":
        start = Dyadic(draw(st.integers(-3000, 3000)), e - 1)
    elif where == "negative":
        start = Dyadic(draw(st.integers(-(2**40), -1)), e - draw(st.integers(0, 8)))
    else:
        lo = base + period * draw(st.integers(0, pcount))
        start = (lo + width if where == "hi-edge" else lo) + Dyadic(draw(st.integers(-1, 1)), e - 4)
    count = draw(st.integers(0, 3000))
    if where == "straddle":
        # the last point lands within two steps of the clip end
        count = max(0, (base + period * pcount - start) // step + draw(st.integers(-2, 2)))
    shift, skew = draw(st.integers(-80, 80)), draw(st.sampled_from([0, 0, -120, -70, -40, 40, 70, 120]))
    two = Dyadic(1, shift)
    ps = PeriodicIntervalSet(base * two, period * two, width * two, pcount)
    return Dyadic(start.m, start.e + shift + skew), step * two, count, ps


@given(comb_cases(), st.sampled_from([64, 65, 80, 100, 128, 1 << 20]))
@settings(max_examples=600, deadline=None)
# the start one unit below the base, with width = period - 1: that point's
# residue is in the window, but it lies before the clip
@example((Dyadic(-1), ONE, 10, PeriodicIntervalSet(ZERO, Dyadic(4), Dyadic(3), 2)), 64)
# a zero start on a grid of positive exponents: its exponent 0 sets no grid
@example((ZERO, Dyadic(1, 89), 2100, PeriodicIntervalSet(Dyadic(1, 100), Dyadic(1, 90), Dyadic(1, 88), 4)), 64)
def test_comb_count_matches_the_dyadic_oracle(case, guard):
    _assert_comb_count_matches(case, count_ap_in_periodic_dyadic(*case), guard)


@pytest.fixture(scope="module")
def series_calls():
    """The calls the series suite makes at its operating point: every
    (block, comb) pair of `build_universal(IndexJK(2, 15))`, each block's
    run shifted by 20 sampled x in the comb's own window: 15,600 calls,
    whose starts have mantissas of up to 121 bits."""
    limit = IndexJK(2, 15)
    seq = build_universal(limit)
    runs = seq.segments_in_range(0, seq.total_count - 1)
    rng = random.Random(215)
    calls = []
    for i in indices_through(limit):
        for _ in range(20):
            x = i.aI + (i.bI - i.aI) * Dyadic(rng.getrandbits(48), -48)
            calls += [(x + first, gap, count, i.comb) for first, gap, count in runs]
    return calls


def test_comb_count_at_the_series_operating_point(series_calls):
    # each call's own width and one bit less as a guard, and the ends of the
    # range: the kernel refuses exactly where its documented test says, and
    # everywhere else counts as the oracle does
    refused, widths = {64: 0, 1 << 20: 0}, set()
    for call in series_calls:
        want, width = count_ap_in_periodic_dyadic(*call), _comb_count_width(call[0], call[1], call[3])[0]
        widths.add(width)
        for guard in {64, 1 << 20, max(64, width - 1), max(64, width)}:
            hit = _assert_comb_count_matches(call, want, guard)
            if guard in refused:
                refused[guard] += hit
    # (1,0)'s comb fits 64 bits, (2,15)'s needs 126
    assert 0 < refused[64] < len(series_calls) and refused[1 << 20] == 0 and max(widths) == 126
    assert any(count_ap_in_periodic(*call) for call in series_calls)


def test_comb_count_forms_no_dyadic(series_calls, monkeypatch):
    """The integer kernel builds no `Dyadic` on the series suite's calls:
    neither through the constructor nor through `exactnum._raw`, which the
    operators use."""
    built = []
    init, raw = Dyadic.__init__, exactnum._raw

    def counting_init(self, *args):
        built.append("__init__")
        init(self, *args)

    def counting_raw(m, e):
        built.append("_raw")
        return raw(m, e)

    monkeypatch.setattr(Dyadic, "__init__", counting_init)
    monkeypatch.setattr(exactnum, "_raw", counting_raw)
    hits = sum(count_ap_in_periodic(*call) for call in series_calls)
    assert hits and built == []
    # the counters do see a Dyadic built either way
    assert -Dyadic(3) == Dyadic(-3) and built == ["__init__", "_raw", "__init__"]


class TestSumPlOverAp:
    def ramp(self) -> PiecewiseLinear:
        return PiecewiseLinear(
            [
                (dy("9.75"), ZERO),
                (Dyadic(10), Dyadic(1, -4)),
                (Dyadic(11), Dyadic(1, -4)),
                (dy("11.25"), ZERO),
            ]
        )

    def test_ramp_fixture(self):
        got = sum_pl_over_ap(self.ramp(), dy("9.8125"), Dyadic(1, -4), 3)
        assert got == Dyadic(6, -6)

    def test_zero_and_singleton(self):
        f = self.ramp()
        assert sum_pl_over_ap(f, Dyadic(100), Dyadic(1), 50) == ZERO
        assert sum_pl_over_ap(f, dy("10.5"), Dyadic(1), 1) == pl_eval(f, dy("10.5"))
        assert sum_pl_over_ap(f, dy("10.5"), Dyadic(1), 0) == ZERO

    def test_randomized_term_by_term_oracle(self):
        rng = random.Random(31337)
        for _ in range(400):
            nseg = rng.randint(1, 5)
            # power-of-two segment widths keep every point value dyadic
            x = Dyadic(rng.randint(-40, 40), -2)
            pts = [(x, ZERO)]
            for i in range(nseg):
                x = x + Dyadic(1, rng.randint(-2, 2))
                v = ZERO if i == nseg - 1 else Dyadic(rng.randint(0, 64), -5)
                pts.append((x, v))
            f = PiecewiseLinear(pts)
            start = Dyadic(rng.randint(-300, 300), -4)
            step = Dyadic(1, rng.randint(-4, 1))
            count = rng.randint(0, 500)
            got = sum_pl_over_ap(f, start, step, count)
            expect = ZERO
            for k in range(count):
                expect = expect + pl_eval(f, start + step * k)
            assert got == expect

    def test_sum_over_seq_range(self):
        # the two block shapes of `universal_head`, their gaps powers of two
        seq = GapBlockSeq(Dyadic(15), [GapBlock(Dyadic(1, -8), 160), GapBlock(Dyadic(1, -9), 8148)])
        f = PiecewiseLinear(
            [
                (Dyadic(31, 0), ZERO),
                (Dyadic(125, -2), Dyadic(1, -2)),
                (Dyadic(63, -1), ZERO),
            ]
        )
        lo, hi = 8000, 8308
        got = sum_pl_over_runs(f, seq.segments_in_range(lo, hi), ZERO)
        expect = ZERO
        for n in range(lo, hi + 1):
            expect = expect + pl_eval(f, seq.value_at(n))
        assert got == expect
        # the origin's one-point run is summed like any other
        assert sum_pl_over_runs(f, seq.segments_in_range(0, 200), ZERO) == sum(
            (pl_eval(f, seq.value_at(n)) for n in range(201)), ZERO
        )
        shift = Dyadic(65, -2)  # carries the origin onto the peak of f
        assert pl_eval(f, shift + seq.origin) == Dyadic(1, -2)
        assert sum_pl_over_runs(f, seq.segments_in_range(0, 200), shift=shift) == sum(
            (pl_eval(f, shift + seq.value_at(n)) for n in range(201)), ZERO
        )


@st.composite
def pl_functions(draw):
    """Either 10-40 breakpoints at power-of-two spacings (every point value
    stays dyadic), two thirds of the interior values zero, so runs of zero
    pieces separate the bumps as in the thm33 f; or a tent shaped like
    thm31's, knots from 2^j down to ramps of width 2^-(2^j+j+1), possibly
    mirrored to the negative side.  The knots and the values are then scaled
    by independent powers of two, so they sit on different grids."""
    if draw(st.integers(0, 3)):
        n = draw(st.integers(10, 40))
        x = Dyadic(draw(st.integers(-40, 40)), -2)
        pts = [(x, ZERO)]
        for i in range(1, n):
            x = x + Dyadic(1, draw(st.integers(-2, 1)))
            zero = i == n - 1 or draw(st.integers(0, 2)) > 0
            pts.append((x, ZERO if zero else Dyadic(draw(st.integers(1, 64)), -5)))
    else:
        j = draw(st.integers(1, 4))
        a, h = Dyadic(1, j), Dyadic(draw(st.integers(1, 64)), -j)
        b, pad = a + Dyadic(1, -(2**j)), Dyadic(1, -(2**j) - j - 1)
        pts = [(a - pad, ZERO), (a, h), (b, h), (b + pad, ZERO)]
        if draw(st.booleans()):
            pts = [(-x, v) for x, v in reversed(pts)]
    x_scale, v_scale = (Dyadic(1, draw(st.integers(-6, 6))) for _ in range(2))
    return PiecewiseLinear([(x * x_scale, v * v_scale) for x, v in pts])


@st.composite
def progressions(draw, f):
    """(start, step, count) placed before, inside one piece of, across, or past
    f's support, or with its first or last point on a breakpoint.  start and
    step sit on grids from 8 bits finer to 8 bits coarser than f's knots."""
    lo, hi = f.xs[0], f.xs[-1]
    unit = Dyadic(1, f.x_exp + draw(st.integers(-8, 8)))
    step = unit * (1 << draw(st.integers(0, 5)))
    if draw(st.booleans()):
        while not step > hi - lo:  # wider than the support
            step = step * 2
    count = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 200)))
    offset = Dyadic(1, f.x_exp + draw(st.integers(-8, 8))) * draw(st.integers(0, 200))
    where = draw(st.sampled_from(["before", "inside", "straddle", "past", "first-on-break", "last-on-break"]))
    if where == "before":
        start = lo - step * count - offset
    elif where == "inside":
        i = draw(st.integers(0, len(f.xs) - 2))
        x0, x1 = f.xs[i], f.xs[i + 1]
        start = x0 + (x1 - x0) * Dyadic(draw(st.integers(0, 63)), -6)
        step = (x1 - x0) * Dyadic(1, -draw(st.integers(6, 12)))
        count = min(count, -((start - x1) // step))  # every point below x1
    elif where == "straddle":
        start = lo - offset - unit
        while (hi - start) // step > 1000:  # keep the pointwise oracle small
            step = step * 2
        count = max(count, -((start - hi) // step) + 1)  # last point at or past hi
    elif where == "past":
        start = hi + step + offset
    else:  # on a breakpoint where f is nonzero, so dropping its piece shows
        x = draw(st.sampled_from([x for x, v in zip(f.xs, f.vs) if v] or f.xs))
        start = x if where == "first-on-break" else x - step * max(count - 1, 0)
    return start, step, count


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_pruned_sum_pointwise_oracle(data):
    """The integer kernel equals the sum of f at every point and, bit for
    bit, the Dyadic kernel it replaced."""
    f = data.draw(pl_functions())
    start, step, count = data.draw(progressions(f))
    expect = sum((pl_eval(f, start + step * k) for k in range(count)), ZERO)
    got = sum_pl_over_ap(f, start, step, count)
    assert got == expect
    assert got == sum_pl_over_ap_dyadic(f, start, step, count)


def test_pruned_sum_edge_cases():
    f = PiecewiseLinear(
        [(ZERO, ZERO), (ONE, Dyadic(4)), (Dyadic(2), ZERO), (Dyadic(3), ZERO), (Dyadic(4), Dyadic(2)), (Dyadic(5), ZERO)]
    )
    cases = [
        (Dyadic(-3), ONE, 5),  # last point on the breakpoint 1
        (Dyadic(4), ONE, 3),  # first point on the breakpoint 4
        (Dyadic(-7), Dyadic(8), 3),  # step wider than the support: -7, 1, 9
        (Dyadic(-6), ONE, 4),  # entirely before
        (dy("-0.5"), dy("0.25"), 23),  # straddling the support
    ]
    for start, step, count in cases:
        expect = sum((pl_eval(f, start + step * k) for k in range(count)), ZERO)
        assert sum_pl_over_ap(f, start, step, count) == expect, (start, step, count)


def test_a_piece_of_width_three_divides_last():
    """On a piece of width 3 one point's value, 1/3, is not dyadic: both
    kernels raise NotExact with the same message.  Three points sum to
    0 + 1/3 + 2/3 = 1, which both return exactly."""
    f = PiecewiseLinear([(ZERO, ZERO), (Dyadic(3), ONE), (Dyadic(4), ZERO)])
    messages = []
    for kernel in (sum_pl_over_ap, sum_pl_over_ap_dyadic):
        with pytest.raises(NotExact) as exc:
            kernel(f, ONE, ONE, 1)
        messages.append(str(exc.value))
        assert kernel(f, ZERO, ONE, 3) == ONE
    assert messages[0] == messages[1] == "1*2^0 / 3*2^0 is not a dyadic rational"


def test_a_run_aligned_past_the_span_guard_is_refused():
    """Under a 64-bit guard both kernels raise GuardExceeded, and they agree
    once the guard allows it.  The first two runs and their hats each fit
    on their own grids, but not on the common one: the first run's step,
    aligned to the hat's grid 2^-70, needs 69 bits; the second run is the
    one point 2^-100, on whose grid the hat's knot -1 needs 101.  The third
    run, 2^2000 and 2^2000 + 1, needs 2001 bits on its own grid, before it
    meets f at all."""
    peak = Dyadic(1, -10)
    cases = [
        (
            PiecewiseLinear([(peak - Dyadic(1, -70), ZERO), (peak, ONE), (peak + Dyadic(1, -70), ZERO)]),
            (ZERO, Dyadic(1, -2), 8),
            ZERO,
        ),
        (
            PiecewiseLinear([(-ONE, ZERO), (ZERO, ONE), (ONE, ZERO)]),
            (Dyadic(1, -100), Dyadic(1, -100), 1),
            ONE - Dyadic(1, -100),
        ),
        (PiecewiseLinear([(-ONE, ZERO), (ZERO, ONE), (ONE, ZERO)]), (Dyadic(1, 2000), ONE, 2), ZERO),
    ]
    for f, run, expect in cases:
        old = set_span_guard(64)
        try:
            for kernel in (sum_pl_over_ap, sum_pl_over_ap_dyadic):
                with pytest.raises(GuardExceeded):
                    kernel(f, *run)
        finally:
            set_span_guard(old)
        assert sum_pl_over_ap(f, *run) == sum_pl_over_ap_dyadic(f, *run) == expect


def test_segment_inside_one_piece_tests_one_piece():
    """A segment on the decade-3 plateau [30, 31] of the thm33 f sums one
    piece, not every nonzero piece: the kernel reads the two end values of
    each piece it visits, and only those."""
    f = build_thm33(6).f
    reads = []

    class Reads(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    object.__setattr__(f, "v_ints", Reads(f.v_ints))
    got = sum_pl_over_ap(f, Dyadic(30) + Dyadic(1, -4), Dyadic(1, -8), 200)
    assert got == Dyadic(200, -16)
    assert 0 < len(reads) <= 2 * 2


def _outcome(kernel, *args):
    """A kernel's value, or the type and message of the refusal it raised."""
    try:
        return kernel(*args)
    except (NotExact, GuardExceeded) as exc:
        return type(exc), str(exc)


@st.composite
def wide_grid_cases(draw):
    """(f, start, step, count) with f's knots on a grid from 2^-64 down to
    2^-4096: one or two bumps near a small centre, pieces 1 to 7 grid units
    wide (an odd width past 1 can make a piece's sum not dyadic), and a step
    of 2^-3 to 2^3 grid units.  The run starts up to 2^20 units before f
    (so the start relative to a knot is as wide as the grid), or inside a
    piece; it ends inside a piece, past f, or has one point."""
    g = draw(st.sampled_from([64, 65, 127, 512, 1000, 4096]) | st.integers(64, 4096))
    unit = Dyadic(1, -g)
    x = Dyadic(draw(st.integers(-16, 16)), draw(st.integers(-2, 2)))
    pts = [(x, ZERO)]
    for bump in range(draw(st.integers(1, 2))):
        if bump:
            x = x + unit * draw(st.integers(1, 7))
            pts.append((x, ZERO))
        for _ in range(draw(st.integers(1, 3))):
            x = x + unit * draw(st.integers(1, 7))
            pts.append((x, Dyadic(draw(st.integers(1, 64)), draw(st.integers(-g, 0)))))
        x = x + unit * draw(st.integers(1, 7))
        pts.append((x, ZERO))
    f = PiecewiseLinear(pts)
    step = unit * Dyadic(1, draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        far = Dyadic(draw(st.integers(1, 2**20)), -g + draw(st.integers(0, g + 4)))
        start = f.xs[0] - far - unit * draw(st.integers(0, 7))
    else:
        i = draw(st.integers(0, len(f.xs) - 2))
        start = f.xs[i] + (f.xs[i + 1] - f.xs[i]) * Dyadic(draw(st.integers(0, 63)), -6)
    end = draw(st.sampled_from(["one", "inside", "past"]))
    if end == "one":
        count = 1
    elif end == "inside":
        i = draw(st.integers(0, len(f.xs) - 2))
        x0, x1 = f.xs[i], f.xs[i + 1]
        target = x0 + (x1 - x0) * Dyadic(draw(st.integers(0, 63)), -6)
        count = max(1, (target - start) // step + 1)
    else:
        count = max(1, (f.xs[-1] - start) // step + 1 + draw(st.integers(0, 5)))
    return f, start, step, count


@given(wide_grid_cases(), st.sampled_from([64, 128, 1024, 4100, 4200]))
@settings(max_examples=400, deadline=None)
def test_wide_grid_sum_matches_the_dyadic_kernel(case, guard):
    """On knot grids down to 2^-4096, with runs starting far before f in
    grid units, the integer kernel returns the Dyadic kernel's sum bit for
    bit, or raises the same NotExact with the same message.  Under a tighter
    guard it gives that same outcome or refuses in its one shape, naming a
    width past the guard.  The two kernels' refusals are not compared: the
    Dyadic one refuses a sum of far-apart exponents that the integer one
    forms on a narrow grid, and the integer one refuses a run too wide on
    its own grid before finding that it misses f."""
    want = _outcome(sum_pl_over_ap_dyadic, *case)
    assert _outcome(sum_pl_over_ap, *case) == want
    old = set_span_guard(guard)
    try:
        got = _outcome(sum_pl_over_ap, *case)
    finally:
        set_span_guard(old)
    if got != want:
        kind, message = got
        refusal = re.fullmatch(rf"aligned run needs (\d+) bits on the grid 2\^-?\d+ \(guard {guard}\)", message)
        assert kind is GuardExceeded and refusal and int(refusal[1]) > guard, (got, want)


def _exact_sum(a: Dyadic, b: Dyadic) -> Dyadic:
    """a + b under no span guard."""
    e = min(a.e, b.e)
    return Dyadic((a.m << a.e - e) + (b.m << b.e - e), e)


def _table_outcome_wanted(f, runs, x):
    """What `RunSums(f, runs).at(x)` must give under the guard in force: the
    one-run kernel on each run from the exact start x + first, the first
    refusal winning and the values added exactly."""
    total = Fraction(0)
    for first, step, count in runs:
        got = _outcome(sum_pl_over_ap, f, _exact_sum(x, first), step, count)
        if not isinstance(got, Dyadic):
            return got
        total += Fraction(got.m) * Fraction(2) ** got.e
    return total


@st.composite
def table_cases(draw):
    """(f, runs, shifts): f and one run as `wide_grid_cases` draws them,
    the run moved back by the first shift so that it meets f there, up to
    two more runs moved by small grid multiples, and four shifts: on f's
    grid, coarser, finer, zero, or far below every grid."""
    f, start, step, count = draw(wide_grid_cases())
    g = f.x_exp
    shift = st.one_of(
        st.just(ZERO),
        st.builds(Dyadic, st.integers(-(2**12), 2**12), st.integers(g - 8, 4)),
        st.builds(Dyadic, st.integers(1, 2**60) | st.integers(-(2**60), -1), st.integers(g - 200, g + 200)),
        st.builds(Dyadic, st.sampled_from([1, -1, 3]), st.sampled_from([-(10**6), -5000, 5000])),
    )
    shifts = [draw(shift) for _ in range(4)]
    first = _exact_sum(start, -shifts[0])
    runs = [(first, step, count)]
    for _ in range(draw(st.integers(0, 2))):
        moved = Dyadic(draw(st.integers(-64, 64)), draw(st.integers(g - 4, 2)))
        runs.append((_exact_sum(first, moved), step * draw(st.sampled_from([1, 2, 4])), draw(st.integers(0, 40))))
    return f, runs, shifts


@given(table_cases(), st.sampled_from([64, 128, 1024, 4100, 4200, 1 << 20]))
@settings(max_examples=300, deadline=None)
@example(
    (PiecewiseLinear([(ZERO, ZERO), (ONE, ONE), (Dyadic(2), ZERO)]), [(Dyadic(3, -1), Dyadic(1, -3), 9)], [Dyadic(1, -(10**6))] * 4),
    64,
)
@example(
    (
        PiecewiseLinear([(ZERO, ZERO), (Dyadic(1, -100), ONE), (Dyadic(1, -99), ZERO)]),
        [(ZERO, Dyadic(1, -102), 5)],
        [ZERO, Dyadic(1, 24), Dyadic(1, 25), Dyadic(1, 30)],
    ),
    128,
)
def test_run_table_matches_the_kernel_on_the_exact_start(case, guard):
    """At every shift, one table of f over the runs gives the one-run
    kernel's outcome on the exact start x + first, summed over the runs:
    the same value, NotExact or GuardExceeded message, whether the table is
    lifted, on its fast path or past the guard.  A shift far below every
    grid (2^-10^6) is refused in the kernel's shape before it is formed;
    once a table fits the guard, a shift 2^24, 2^25 or 2^30, 127 to 133
    bits on its grid 2^-102, is summed, is summed or is refused."""
    f, runs, shifts = case
    table = RunSums(f, runs)
    old = set_span_guard(guard)
    try:
        for x in shifts:
            want = _table_outcome_wanted(f, runs, x)
            got = _outcome(table.at, x)
            assert (Fraction(got.m) * Fraction(2) ** got.e if isinstance(got, Dyadic) else got) == want, (x, got, want)
            assert _outcome(sum_pl_over_runs, f, runs, x) == got
    finally:
        set_span_guard(old)


@st.composite
def reach_cases(draw):
    """(f, runs, shifts) for a table's reach and one-point tests.  f is one
    bump on a grid 2^-a, pieces 1 to 5 units wide (a width of 3 or 5 makes
    the slope non-dyadic); each run starts on any grid, and its gap is a
    power of two from 2^-3 units (finer than the knots) to 2^12 units
    (wider than the support, so at most one point of it meets f).  The
    shifts put a drawn run's last point on f's first knot and its
    first point on f's last knot (its reach bounds, where it adds 0), one
    unit of a grid finer than every value inside and outside each, a point
    of the run on a drawn spot of the support and just past it, and the run
    just beyond the support."""
    a = draw(st.sampled_from([0, 3, 64, 200]))
    unit = Dyadic(1, -a)
    x = Dyadic(draw(st.integers(-64, 64)), draw(st.integers(-2, 2)))
    pts = [(x, ZERO)]
    for _ in range(draw(st.integers(1, 3))):
        x = x + unit * draw(st.integers(1, 5))
        pts.append((x, Dyadic(draw(st.integers(1, 16)), draw(st.integers(-4, 0)))))
    x = x + unit * draw(st.integers(1, 5))
    pts.append((x, ZERO))
    f = PiecewiseLinear(pts)
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        gap = unit * Dyadic(1, draw(st.integers(-3, 12)))
        first = Dyadic(draw(st.integers(-(2**12), 2**12)), draw(st.integers(-a - 3, 2)))
        runs.append((first, gap, draw(st.integers(1, 40))))
    first, gap, count = draw(st.sampled_from(runs))
    fine = Dyadic(1, min(-a, first.e, gap.e) - draw(st.integers(1, 3)))
    lo, hi = f.xs[0] - first - gap * (count - 1), f.xs[-1] - first
    spot = f.xs[0] + (f.xs[-1] - f.xs[0]) * Dyadic(draw(st.integers(0, 256)), -8) - first - gap * draw(st.integers(0, count - 1))
    return f, runs, [lo, hi, lo + fine, hi - fine, lo - fine, hi + fine, spot, spot + fine, hi + gap]


@given(reach_cases(), st.sampled_from([64, 128, 1 << 20]))
@settings(max_examples=300, deadline=None)
@example(
    # slope 1/3: the one point the run puts on the ramp has a value that is not dyadic
    (PiecewiseLinear([(ZERO, ZERO), (Dyadic(3), ONE), (Dyadic(6), ZERO)]), [(Dyadic(-100), Dyadic(1, 10), 3)], [Dyadic(101)]),
    1 << 20,
)
@example(
    # a gap of 2^11 across a support 2 wide: the point at 1/2 meets the ramp
    (PiecewiseLinear([(ZERO, ZERO), (ONE, ONE), (Dyadic(2), ZERO)]), [(Dyadic(-100), Dyadic(1, 11), 3)], [dy("100.5"), Dyadic(100), Dyadic(102)]),
    64,
)
def test_run_table_prunes_as_the_kernel_sums(case, guard):
    """At every shift, a table built once and a table built for that shift
    give `sum_pl_over_runs`'s outcome: the same value when a run meets f,
    misses it, or stops exactly at a reach bound; the same NotExact text for
    a non-dyadic sum; and, where the guard is too tight for the table, the
    kernel's own refusal."""
    f, runs, shifts = case
    table = RunSums(f, runs)
    old = set_span_guard(guard)
    try:
        for x in shifts:
            want = _outcome(sum_pl_over_runs, f, runs, x)
            assert _outcome(table.at, x) == want, x
            assert _outcome(RunSums(f, runs).at, x) == want, x
    finally:
        set_span_guard(old)


def test_run_table_refuses_a_non_dyadic_sum_as_the_kernel_does():
    """f(1) = 1/3 on a slope of 1/3, reached by a one-point run and by the
    one point of a sparse run; f(1) + f(2) = 1 is dyadic."""
    f = PiecewiseLinear([(ZERO, ZERO), (Dyadic(3), ONE), (Dyadic(6), ZERO)])
    message = "1*2^0 / 3*2^0 is not a dyadic rational"
    for runs, x in (([(ONE, ONE, 1)], ZERO), ([(Dyadic(-100), Dyadic(1, 10), 3)], Dyadic(101))):
        for call in (RunSums(f, runs).at, lambda x: sum_pl_over_runs(f, runs, x)):
            with pytest.raises(NotExact) as exc:
                call(x)
            assert str(exc.value) == message
    assert RunSums(f, [(ONE, ONE, 2)]).at(ZERO) == ONE


def test_a_far_shift_is_refused_before_it_is_aligned():
    """A shift of 2^-10^9 is refused at once, in the run kernel's shape on
    the start's own grid, by the table and by `sum_pl_over_runs`."""
    f = PiecewiseLinear([(ZERO, ZERO), (ONE, ONE), (Dyadic(2), ZERO)])
    runs = [(Dyadic(1, -1), Dyadic(1, -3), 9)]
    x = Dyadic(1, -(10**9))
    message = f"aligned run needs 1000000000 bits on the grid 2^-1000000000 (guard {span_guard()})"
    for call in (RunSums(f, runs).at, lambda x: sum_pl_over_runs(f, runs, x)):
        with pytest.raises(GuardExceeded) as exc:
            call(x)
        assert str(exc.value) == message


@st.composite
def shift_cases(draw):
    """(f, run, lo, hi) on a grid of step/16.  f's knots sit on a grid of
    step/2^r, r in 0..3, so on the step grid or off it; pieces are 1, 2 or 4
    grid units wide, so ramps can be narrower than a step, and components may
    share a zero knot or sit apart across a zero gap.  The run starts before,
    inside or past f's support, near where a component enters or leaves it as
    x moves, and [lo, hi] is 0 to 4 steps long."""
    step = Dyadic(1, draw(st.integers(-3, 3)))
    unit = step * Dyadic(1, -draw(st.integers(0, 3)))
    x = unit * draw(st.integers(-16, 16))
    pts = [(x, ZERO)]
    for _ in range(draw(st.integers(1, 3))):
        if len(pts) > 1 and draw(st.booleans()):
            x = x + unit * draw(st.sampled_from([1, 2, 4, 8]))
            pts.append((x, ZERO))
        for _ in range(draw(st.integers(1, 3))):
            x = x + unit * draw(st.sampled_from([1, 2, 4]))
            pts.append((x, Dyadic(draw(st.integers(1, 8)), -2)))
        x = x + unit * draw(st.sampled_from([1, 2, 4]))
        pts.append((x, ZERO))
    f = PiecewiseLinear(pts)
    eighth = step * Dyadic(1, -3)
    count = draw(st.integers(1, 4) | st.integers(5, 40))
    lo = eighth * draw(st.integers(-16, 16))
    hi = lo + step * Dyadic(draw(st.integers(0, 64)), -4)
    # within 5 steps of: the run ending at f's start, starting there, starting
    # at an inner knot, or starting at f's end, as seen from lo or hi
    anchor = draw(
        st.sampled_from(
            [f.xs[0] - lo - step * count, f.xs[0] - lo, f.xs[len(f.xs) // 2] - lo, f.xs[0] - hi, f.xs[-1] - hi]
        )
    )
    first = anchor + eighth * draw(st.integers(-40, 40))
    return f, (first, step, count), lo, hi


def _grid_and_random(lo: Dyadic, hi: Dyadic, step: Dyadic, us: list[int]) -> list[Dyadic]:
    """lo, hi, every point of the step/64 grid in [lo, hi], and lo + (hi - lo)*u*2^-20 for u in us."""
    g = step * Dyadic(1, -6)
    ts = [lo, hi] + [g * k for k in range(-((-lo) // g), hi // g + 1)]
    return ts + [lo + (hi - lo) * Dyadic(u, -20) for u in us]


def _area(f: PiecewiseLinear) -> Dyadic:
    """Twice the integral of f."""
    return sum(((x1 - x0) * (v0 + v1) for x0, x1, v0, v1 in zip(f.xs, f.xs[1:], f.vs, f.vs[1:])), ZERO)


@given(shift_cases(), st.lists(st.integers(0, 2**20), max_size=4))
@settings(max_examples=300, deadline=None)
def test_constant_on_one_run_is_the_sum_at_every_shift(case, us):
    """Whenever a one-run table returns a value, it is the sum at lo, at hi,
    at every point of the step/64 grid in [lo, hi] and at random points; and
    a value is returned whenever every knot lies on the step grid and the
    run covers f's whole support, where it is (1/step)*integral(f)."""
    f, run, lo, hi = case
    first, step, count = run
    got = RunSums(f, [run]).constant_on(lo, hi)
    on_grid = all(not (x % step) for x in f.xs)
    covers = f.xs[0] >= hi + first - step and f.xs[-1] <= lo + first + step * count
    if on_grid and covers:
        assert got == _area(f).div_exact(step * 2)
    if got is None:
        return
    for t in _grid_and_random(lo, hi, step, us):
        assert sum_pl_over_ap(f, t + first, step, count) == got, t


@given(
    shift_cases(),
    st.integers(0, 16),
    st.integers(0, 3),
    st.sampled_from([Dyadic(1, -1), Dyadic(1, -2), Dyadic(2)]),
    st.booleans(),
    st.integers(1, 40),
    st.lists(st.integers(0, 2**20), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_constant_on_two_runs(case, back, extra, ratio, after, count2, us):
    """A run that covers f's support, with every knot on its gap's grid,
    plus a run of another gap whose reach misses f: the table certifies
    (1/gap)*integral(f), the table's value at every step/64 grid point of
    [lo, hi] and at random points.  Two covering runs of different gaps are
    refused: their sum is not one periodic function."""
    f, (_, step, _), lo, hi = case
    eighth = step * Dyadic(1, -3)

    def covering(gap: Dyadic) -> tuple[Dyadic, Dyadic, int]:
        """A run whose reach holds f's support for every x in [lo, hi]."""
        first = f.xs[0] - hi - eighth * back
        return first, gap, -((lo + first - f.xs[-1]) // gap) + 1 + extra

    gap2 = step * ratio
    # the second run's reach ends at f's first knot, or starts at its last
    first2 = f.xs[-1] - lo if after else f.xs[0] - hi - gap2 * (count2 - 1)
    runs = [covering(step), (first2, gap2, count2)]
    table = RunSums(f, runs)
    got = table.constant_on(lo, hi)
    if all(not (x % step) for x in f.xs):
        assert got == _area(f).div_exact(step * 2)
    if got is not None:
        for t in _grid_and_random(lo, hi, step, us):
            assert table.at(t) == got, t
    assert RunSums(f, [covering(step), covering(gap2)]).constant_on(lo, hi) is None


@pytest.mark.parametrize(
    "pts, first, lo, hi, moved",
    [
        # the last point (index 3) leaves the hat on [1/4, 1] as x grows
        ([("1*2^-2", "0"), ("3*2^-2", "1"), ("1", "0"), ("7*2^-2", "0")], "-9*2^-2", "-3*2^-1", "1*2^-2", "-7*2^-4"),
        # the first point meets the hat on [1, 9/4] as x grows, and the
        # hat on [13/4, 19/4] is covered
        (
            [("1", "0"), ("5*2^-2", "3"), ("9*2^-2", "0"), ("13*2^-2", "0"), ("17*2^-2", "3"), ("19*2^-2", "0"), ("5", "0")],
            "7*2^-2",
            "0",
            "5*2^-1",
            "9*2^-4",
        ),
        # hats of width 1 peaking at 1/2 and at 3 add up to 1 on every
        # coset; the first point leaves the first hat within the last period
        # of [0, 2], where no kink is evaluated
        ([("0", "0"), ("1*2^-1", "1"), ("1", "0"), ("5*2^-1", "0"), ("3", "1"), ("7*2^-1", "0")], "0", "0", "2", "3*2^-1"),
    ],
)
def test_constant_on_refuses_a_component_the_run_covers_only_in_part(pts, first, lo, hi, moved):
    """The sums at lo, hi and the first kink of each coset agree here, but
    the sum moves at `moved`: only the covering test tells."""
    f = PiecewiseLinear([(dy(x), dy(v)) for x, v in pts])
    run = (dy(first), ONE, 4)
    assert RunSums(f, [run]).constant_on(dy(lo), dy(hi)) is None
    assert sum_pl_over_ap(f, dy(lo) + run[0], ONE, 4) != sum_pl_over_ap(f, dy(moved) + run[0], ONE, 4)


def test_constant_on_refuses_an_empty_interval():
    f = PiecewiseLinear([(ZERO, ZERO), (ONE, ONE), (Dyadic(2), ZERO)])
    with pytest.raises(ValueError, match=r"^empty interval \[1\*2\^0, 0\*2\^0\]$"):
        RunSums(f, [(ZERO, ONE, 3)]).constant_on(ONE, ZERO)


@pytest.mark.parametrize("step", [Dyadic(3, -4), ZERO, Dyadic(-1)])
def test_every_run_kernel_refuses_a_step_not_a_power_of_two(step):
    """Each sum over runs and the thm31 window index read the step as 2^e,
    and refuse any other step in one message; the comb count, general for
    the universal gaps, refuses only a step that is not positive."""
    f = PiecewiseLinear([(ZERO, ZERO), (ONE, ONE), (Dyadic(2), ZERO)])
    calls = [
        lambda: sum_pl_over_ap(f, ZERO, step, 3),
        lambda: RunSums(f, [(ONE, ONE, 2), (ZERO, step, 3)]).constant_on(ZERO, ONE),
        lambda: sum_pl_over_runs(f, [(ONE, ONE, 2), (ZERO, step, 3)], Dyadic(1, -3)),
        lambda: RunSums(f, [(ONE, ONE, 2), (ZERO, step, 3)]).at(Dyadic(1, -3)),
        lambda: _floor_steps(ONE, step),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^step must be a positive power of two, got {re.escape(str(step))}$"):
            call()
    comb = PeriodicIntervalSet(ZERO, ONE, ZERO, 2)
    if step > ZERO:
        assert count_ap_in_periodic(ZERO, step, 3, comb) == 1  # 0, 3/16 and 3/8 meet [0, 0] once
    else:
        with pytest.raises(ValueError, match=r"^step must be positive$"):
            count_ap_in_periodic(ZERO, step, 3, comb)


def test_constant_on_thm33_runs_over_4_5():
    """Every decade-j run of thm33 is certified over [4,5] for jmax 1-12; the
    coarse run alone meets bump j, adding 5*2^-(2^j+2), the fine run adds 0."""
    for jmax in range(1, 13):
        cons = build_thm33(jmax)
        for j, table in enumerate(cons.tables, 1):
            got = [RunSums(cons.f, [run]).constant_on(Dyadic(4), Dyadic(5)) for run in table.runs]
            assert got == [Dyadic(5, -(2**j + 2)), ZERO], (jmax, j, got)


def test_constant_on_refuses_shift_dependent_runs():
    """Over [0,1] each thm33 decade has a run that meets a bump only in
    part; the thm31 lower run's tent ramps are half a lattice step wide, so
    its sum dips once per period (3/2 at x = -1, 1 at x = -15/16 for j = 1)."""
    for jmax in range(1, 7):
        cons = build_thm33(jmax)
        for j, table in enumerate(cons.tables, 1):
            assert table.constant_on(ZERO, ONE) is None, (jmax, j)
            assert any(RunSums(cons.f, [run]).constant_on(ZERO, ONE) is None for run in table.runs), (jmax, j)
    cons = build_thm31(4)
    for it in cons.items:
        assert RunSums(it.tent, [it.lam1]).constant_on(it.interval.lo, it.interval.hi) is None, it.j
    one = cons.item(1)
    assert one.interval.lo == Dyadic(-1)
    lower = [sum_pl_over_ap(one.tent, x + one.lam1.start, one.lam1.step, one.lam1.count) for x in (dy("-1"), dy("-15*2^-4"))]
    assert lower == [dy("3*2^-1"), ONE]


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
@settings(max_examples=300)
def test_floor_sum_property(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a + b * i) // m for i in range(n))
