"""Implicit gap-block sequences and exact lattice counting.

A sequence prefix with 10^hundreds of points is stored as an origin plus a
short list of (gap, count) blocks; every query below works on that closed form.
Counting points of an arithmetic progression inside a periodic family of
intervals runs in O(log) big-integer steps via a Euclidean floor-sum recursion,
never by iterating periods.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

from .exactnum import Dyadic, NotExact, PiecewiseLinear, ONE, ZERO, grid_error, span_guard


class GapBlock(namedtuple("GapBlock", "gap count tag")):
    """`count` consecutive gaps of identical size `gap`, checked on every
    path that builds one: the constructor, and `_make`, which `_replace`
    calls."""

    __slots__ = ()

    def __new__(cls, gap: Dyadic, count: int, tag: str = ""):
        if gap.m <= 0:
            raise ValueError(f"gap must be positive, got {gap}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return tuple.__new__(cls, (gap, count, tag))

    @classmethod
    def _make(cls, iterable) -> "GapBlock":
        return cls(*iterable)


@dataclass(frozen=True, slots=True, repr=False)
class GapBlockSeq:
    """Strictly increasing sequence origin, origin+g1, ... stored by gap blocks.

    Index 0 is the origin; block b contributes indices (N_{b-1}, N_b] where
    N_b is the cumulative gap count.  The value v_b at index N_b is kept as
    the int V_b on one grid: v_b = V_b*2^g, g the least exponent of the
    origin and of every block's total gap*count, checked against the span
    guard by `_cum_table`.  The tables are public and read-only:
    `cum_counts` holds N_1..N_B, `cum_ints` V_1..V_B and `grid` g;
    `block_start` reads (N_{b-1}, v_{b-1}) off them.
    """

    origin: Dyadic
    blocks: tuple[GapBlock, ...]
    cum_counts: list[int] = field(init=False, compare=False)
    cum_ints: list[int] = field(init=False, compare=False)
    grid: int = field(init=False, compare=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        cum_ints, grid = _cum_table(self.origin, [_total(b.gap, b.count) for b in blocks])
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "cum_counts", list(accumulate(b.count for b in blocks)))
        object.__setattr__(self, "cum_ints", cum_ints)
        object.__setattr__(self, "grid", grid)

    @property
    def total_count(self) -> int:
        """Number of points, origin included."""
        return (self.cum_counts[-1] if self.blocks else 0) + 1

    @property
    def last_value(self) -> Dyadic:
        return self.block_start(len(self.blocks))[1]

    def block_start(self, b: int) -> tuple[int, Dyadic]:
        """(index, value) of the point just before block b, 0 <= b <= len(blocks):
        (0, origin) for b = 0, and the last point for b = len(blocks)."""
        pair = self.start_pair(b)
        return (self.cum_counts[b - 1], Dyadic(*pair)) if b else (0, self.origin)

    def start_pair(self, b: int) -> tuple[int, int]:
        """The value just before block b (the origin for b = 0) as the
        canonical (m, e) of m*2^e (m odd, or m = e = 0), read off the table
        without a Dyadic; 0 <= b <= len(blocks), else IndexError."""
        if not 0 <= b <= len(self.blocks):
            raise IndexError(f"block {b} outside [0, {len(self.blocks)}]")
        if not b:
            return self.origin.m, self.origin.e
        V = self.cum_ints[b - 1]
        z = (V & -V).bit_length() - 1
        return (V >> z, self.grid + z) if V else (0, 0)

    def value_at(self, n: int) -> Dyadic:
        """Exact n-th point via block-wise closed form."""
        if n < 0 or n >= self.total_count:
            raise IndexError(f"index {n} outside [0, {self.total_count})")
        if n == 0:
            return self.origin
        b = bisect_left(self.cum_counts, n)
        prev_n, prev_v = self.block_start(b)
        return prev_v + self.blocks[b].gap * (n - prev_n)

    def count_upto(self, x: Dyadic) -> int:
        """#{n : value_at(n) <= x}, exact, by inverting block prefix sums.

        The blocks are bisected in ints: v_b <= x exactly when V_b <= floor(x*2^-g),
        and origin <= x < last_value bounds that floor's width by the table's."""
        if x < self.origin:
            return 0
        if x >= self.last_value:
            return self.total_count
        k = x.e - self.grid
        b = bisect_right(self.cum_ints, x.m << k if k >= 0 else x.m >> -k)
        prev_n, prev_v = self.block_start(b)
        return prev_n + 1 + (x - prev_v) // self.blocks[b].gap

    def segments_in_range(self, n_lo: int, n_hi: int) -> list[tuple[Dyadic, Dyadic, int]]:
        """Runs covering indices [n_lo, n_hi] as (value of first index, gap,
        number of indices), one per block met.

        The origin (index 0) is the one-point run (origin, 1, 1), listed first
        when the range holds it; its gap is a placeholder.
        """
        out = [(self.origin, ONE, 1)] if n_lo <= 0 <= n_hi else []
        for b in range(bisect_left(self.cum_counts, max(n_lo, 1)), len(self.blocks)):
            prev_n, prev_v = self.block_start(b)
            lo = max(n_lo, prev_n + 1)
            hi = min(n_hi, self.cum_counts[b])
            if lo > hi:
                break
            gap = self.blocks[b].gap
            out.append((prev_v + gap * (lo - prev_n), gap, hi - lo + 1))
        return out

    def to_json_dict(self) -> dict:
        return {
            "origin": str(self.origin),
            "blocks": [
                {"gap": str(b.gap), "count": str(b.count), "tag": b.tag}
                for b in self.blocks
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GapBlockSeq":
        """Inverse of to_json_dict; a count is a string of ASCII digits or a
        JSON integer, never a float, and a tag a string.  `GapBlock` checks
        each gap and count."""
        blocks = []
        for b in data["blocks"]:
            count, tag = b["count"], b.get("tag", "")
            # an ASCII str's digits are its bytes' digits, tested without the
            # per-character Unicode lookup of str.isdigit
            if not (type(count) is int or (type(count) is str and count.isascii() and count.encode().isdigit())):
                raise ValueError(f"block count must be a decimal string or integer, got {count!r}")
            if not isinstance(tag, str):
                raise ValueError(f"block tag must be a string, got {tag!r}")
            blocks.append(GapBlock(Dyadic.parse(b["gap"]), int(count), tag))
        return cls(Dyadic.parse(data["origin"]), blocks)


def _total(gap: Dyadic, count: int) -> tuple[int, int]:
    """gap*count as (m, e) with m odd: m*2^e."""
    t = (count & -count).bit_length() - 1
    return gap.m * (count >> t), gap.e + t


def _cum_table(origin: Dyadic, totals: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The values v_1, ..., v_B the blocks reach from the origin, as ints on
    the grid 2^g, and g, the least exponent of the origin and of every
    block's total gap*count m*2^e (`totals`, from `_total`).

    The widths of the origin and of every total on that grid are checked
    against the span guard before any of them is shifted onto it, so no
    huge int is formed; after one `accumulate`, every table value, the last
    included, is checked too.  Either check refuses with GuardExceeded.
    """
    guard = span_guard()
    terms = totals + [(origin.m, origin.e)] if origin.m else totals  # every nonzero operand, as m*2^e
    g = min((e for _, e in terms), default=0)
    width = max((m.bit_length() + e for m, e in terms), default=g) - g
    if width > guard:
        raise grid_error("gap-block table", width, g)
    ints = list(accumulate((m << e - g for m, e in totals), initial=origin.m << origin.e - g if origin.m else 0))[1:]
    width = max(map(abs, ints), default=0).bit_length()
    if width > guard:
        raise grid_error("gap-block table", width, g)
    return ints, g


@dataclass(frozen=True)
class PeriodicIntervalSet:
    """{[base + i*period, base + i*period + width] : 0 <= i < count}, closed."""

    base: Dyadic
    period: Dyadic
    width: Dyadic
    count: int

    def __post_init__(self):
        if not self.period > ZERO:
            raise ValueError("period must be positive")
        if self.width < ZERO or not self.width < self.period:
            raise ValueError("need 0 <= width < period")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a + b*i)/m) for i in [0, n); m > 0, a and b arbitrary.

    Euclidean descent on (m, b): with 0 <= a, b < m the sum counts lattice
    points (i, j), 1 <= j <= (a + b*i)/m, and flipping the count to the j-axis
    swaps the roles of m and b.  O(log) iterations of big-integer arithmetic.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    ans = 0
    sign = 1
    while True:
        if n <= 0:
            return ans
        if a < 0 or a >= m:
            q = a // m
            ans += sign * n * q
            a -= q * m
        if b < 0 or b >= m:
            q = b // m
            ans += sign * q * (n * (n - 1) // 2)
            b -= q * m
        if b == 0:
            return ans
        t = (a + b * (n - 1)) // m
        if t == 0:
            return ans
        ans += sign * n * t
        # subtract the ceiling sum over the j-axis
        n, a, b, m = t, b - 1 + m - a, m, b
        sign = -sign


def count_ap_in_periodic(start: Dyadic, step: Dyadic, count: int, ps: PeriodicIntervalSet) -> int:
    """#{k in [0, count) : start + k*step in ps}, via the floor-sum recursion.

    The work is done in plain ints on one grid 2^g, g the least exponent
    among the nonzero values of start, step and the comb's base, period and
    width.  Before any of them is shifted onto that grid, the span guard is
    checked once against the widest of start, step, base, width and
    period*count there, plus one bit for the carry of the clip end
    base + period*count: GuardExceeded if that does not fit.  Points at or
    beyond the clip end can alias into the residue window without any
    component existing there, so only the k with base <= start + k*step <
    base + period*count are counted: two ceiling divisions relative to the
    start, clipped to [0, count), and 0 at once if none is left.  The rest
    is two floor_sum calls.
    """
    if step.m <= 0:
        raise ValueError("step must be positive")
    base, period, width = ps.base, ps.period, ps.width
    sm, se, dm, de, bm, be, wm, we = start.m, start.e, step.m, step.e, base.m, base.e, width.m, width.e
    span = period.m * ps.count
    # a zero value stands in as the step, so it moves neither g nor the widest
    top = dm.bit_length() + de
    g = min(de, period.e, se if sm else de, be if bm else de, we if wm else de)
    bits = max(
        top,
        span.bit_length() + period.e,
        sm.bit_length() + se if sm else top,
        bm.bit_length() + be if bm else top,
        wm.bit_length() + we if wm else top,
    ) - g + 1
    if bits > span_guard():
        raise grid_error("comb count", bits, g)
    S = sm << se - g if sm else 0
    B = bm << be - g if bm else 0
    D = dm << de - g
    # k_lo = ceil((B - S)/D) and k_hi = ceil((B + P*count - S)/D) - 1, clipped to [0, count)
    r = B - S - 1
    k_lo = r // D + 1 if r >= 0 else 0
    k_hi = min(count - 1, (r + (span << period.e - g)) // D)
    if k_hi < k_lo:
        return 0
    n, a0 = k_hi - k_lo + 1, S + D * k_lo - B
    P = period.m << period.e - g
    W = wm << we - g if wm else 0
    # residue in [0, W]  <=>  floor(a/P) - floor((a - W - 1)/P) == 1
    return floor_sum(n, P, a0, D) - floor_sum(n, P, a0 - W - 1, D)


def step_exponent(step: Dyadic) -> int:
    """e for a run step of 2^e, else ValueError: every sum and every index
    over a run reads its step here, so all the arithmetic after it shifts."""
    if step.m != 1:
        raise ValueError(f"step must be a positive power of two, got {step}")
    return step.e


def sum_pl_over_ap(f: PiecewiseLinear, start: Dyadic, step: Dyadic, count: int) -> Dyadic:
    """Exact sum of f(start + k*step) over k in [0, count): the one run of
    `sum_pl_over_runs` at shift zero, with no table built."""
    return sum_pl_over_runs(f, ((start, step, count),), ZERO)


def sum_pl_over_runs(f: PiecewiseLinear, runs: Iterable[tuple[Dyadic, Dyadic, int]], shift: Dyadic) -> Dyadic:
    """Exact sum of f(shift + first + k*gap) over every run (first, gap,
    count) and k in [0, count), in ints, as one Dyadic.  Each gap is 2^d
    (`step_exponent`).  Each run's start shift + first (`_shifted`) and gap
    must fit the span guard on their own grid 2^er, else GuardExceeded; a
    run that misses the interior of f's support then adds zero before
    anything is aligned to f.  Otherwise its start, gap and last point must
    fit on the grid 2^e, e the least of er and the knot exponent, and
    `_pieces` sums the pieces they visit."""
    guard, X, out = span_guard(), f.x_ints, [0, 0]
    for first, step, count in runs:
        d = step_exponent(step)
        if count < 1:
            continue
        start = _shifted(shift, first, step) if shift.m else first
        er = min(start.e, d)
        width = max(start.m.bit_length() + start.e - er if start.m else 0, d - er + 1)
        if width > guard:
            raise grid_error("aligned run", width, er)
        # (here and below, the `if`: shifting a wide int by 0 still copies it)
        S = start.m << start.e - er if start.e != er else start.m
        L = S + (count - 1 << d - er)
        # a run that misses the interior of f's support adds 0: compare it with
        # the end knots by rounding the finer side, before anything is aligned;
        # then align to the finer grid 2^e, the knots shifted up by `drop`
        k = er - f.x_exp
        if k >= 0:
            if L <= X[0] >> k or S >= -(-X[-1] >> k):
                continue
            S, L, e, drop = S << k, L << k, f.x_exp, 0
        else:
            if -(-L >> -k) <= X[0] or S >> -k >= X[-1]:
                continue
            e, drop = er, -k
        width = max(S.bit_length(), L.bit_length(), d - e + 1)
        if width > guard:
            raise grid_error("aligned run", width, e)
        _pieces(f, X, f.x_gaps, drop, e, S, d - e, L, guard, out)
    return Dyadic(out[0], f.v_exp - out[1])


def _shifted(x: Dyadic, first: Dyadic, step: Dyadic) -> Dyadic:
    """x + first, exactly.  A finer term below half the coarser one's unit
    2^b leaves it the coarser term's top bit, one lower if a borrow reaches
    it, so the run's own width check is made before the sum is formed."""
    if not first.m:
        return x
    am, a, bm, b = (x.m, x.e, first.m, first.e) if x.e <= first.e else (first.m, first.e, x.m, x.e)
    if am.bit_length() < b - a:
        g = min(a, step.e)
        top = b + (abs(bm) - ((am < 0) != (bm < 0))).bit_length()
        width = max(top - g, step.e - g + 1)
        if width > span_guard():
            raise grid_error("aligned run", width, g)
    return Dyadic(am + (bm << b - a), a)


def _pieces(f: PiecewiseLinear, X, W, drop: int, e: int, S: int, s: int, L: int, guard: int | None, out: list) -> None:
    """The one piece loop: add to out = [p, t], the sum p*2^(v_exp - t),
    each nonzero piece of f that the run S, S + 2^s, ..., L visits, in ints
    on the grid 2^e where the knots are X << drop and the piece widths
    W << drop (with a `guard`, a nonzero piece's knots must fit it).  The
    step is 2^s, so every product and quotient by it is a shift.  Each
    piece is summed from delta, the distance from its left knot x0 to the
    first run point at or after it: the start's offset at the first piece,
    reduced mod 2^s by the low bits, then carried across the pieces.  Its
    point count comes from delta and its width, or from L - x0 when L lies
    in it (f is 0 at its last knot, so half-open pieces lose nothing), and
    its sum is an arithmetic series divided last by the odd part of its
    width, NotExact if that fails."""
    V, (p, tp) = f.v_ints, out
    first = max(bisect_right(X, S >> drop if drop else S) - 1, 0)
    end = min(bisect_right(X, L >> drop if drop else L), len(X) - 1)
    x1 = X[first] << drop if drop else X[first]
    mask = (1 << s) - 1
    # (a mask of a negative wide int would copy it)
    delta = S - x1 if S >= x1 else ((S & mask) - (x1 & mask)) & mask
    for i in range(first, end):
        x0, x1 = x1, (X[i + 1] << drop if drop else X[i + 1])
        w = W[i] << drop if drop else W[i]
        # the points in [x0, x1), up to L when the run ends in the piece
        r = (L - x0 if L < x1 else w - 1) - delta
        n = (r >> s) + 1
        v0, v1 = V[i], V[i + 1]
        if v0 or v1:
            if guard is not None and max(x0.bit_length(), x1.bit_length()) > guard:
                raise grid_error("aligned run", max(x0.bit_length(), x1.bit_length()), e)
            if n:
                # n*v0 + (v1-v0)*(n*delta + 2^s*n(n-1)/2)/w, in units of 2^v_exp;
                # w = odd*2^t, and dividing by odd last keeps the sum exact
                # even when the bare slope is not dyadic
                t = (w & -w).bit_length() - 1
                odd = w >> t
                tri = n * (n - 1) >> 1
                rise = (v1 - v0) * (n * delta + (tri << s))
                if odd != 1:
                    q, r = divmod(rise, odd)
                    if r:
                        raise NotExact(f"{Dyadic(rise, f.v_exp + e)} / {Dyadic(w, e)} is not a dyadic rational")
                    rise = q
                q = (n * v0 << t) + rise
                if t > tp:
                    p, tp = (p << t - tp) + q, t
                else:
                    p += q << tp - t
        delta += (n << s) - w
    out[:] = p, tp


class RunSums:
    """f and fixed runs (first, gap, count): `at(x)` is `sum_pl_over_runs(f,
    runs, x)` read off one int table, built once and lifted again only for
    a finer shift.  The runs and the shift lie on a grid 2^c, f's knots and
    piece widths on 2^g, g = min(c, x_exp), and each run keeps its reach:
    the shifts lo < x < hi that carry it into the interior of f's support,
    whose end knots are rounded out onto 2^c.  A shift outside a run's
    reach adds 0 after two comparisons.  Where the knots are finer than the
    runs and no gap is narrower than the rounded support, a run can put at
    most one point in it: the runs stay on their own grid, so the reach and
    that point are narrow ints, and only a run whose point lies in the
    support is aligned to f.  Otherwise c = g, and the runs are aligned
    once.  When every width on 2^g, the shift's too,
    fits the span guard with a bit to spare, no check can refuse and none
    is made; otherwise `at(x)` is `sum_pl_over_runs`.  Every gap is 2^d
    (`step_exponent`, checked when the table is made), so each run is kept
    as its first and last point and the shift s = d - c."""

    __slots__ = ("f", "runs", "_grid", "_width", "_knots", "_gaps", "_ints", "_ends", "_lift_by")

    def __init__(self, f: PiecewiseLinear, runs: Iterable[tuple[Dyadic, Dyadic, int]]):
        self.f, self.runs, self._ints = f, tuple(runs), None
        gaps = [step_exponent(gap) for _, gap, _ in self.runs]
        self._grid = min([first.e for first, _, _ in self.runs if first.m] + gaps, default=f.x_exp)

    def _lift(self, c: int, guard: int) -> bool:
        """Form the table for shifts on the grid 2^c if every width on 2^g,
        bounded first, fits."""
        X, W, xe = self.f.x_ints, self.f.x_gaps, self.f.x_exp
        g = min(c, xe)
        width = max([max(X[0].bit_length(), X[-1].bit_length()) + xe - g] + [
            max(first.m.bit_length() + first.e - g if first.m else 0, gap.e - g + 1 + (count - 1).bit_length()) + 1
            for first, gap, count in self.runs
        ])
        if width + 1 > guard:
            return False
        k = c - xe
        if k > 0:  # the end knots onto 2^c, the first one down, the last one up
            K0, K3 = X[0] >> k, -(-X[-1] >> k)
            if any((1 << gap.e - c) < K3 - K0 for _, gap, _ in self.runs):
                c, k = xe, 0  # a run may put two points in the support: align the runs to the knots once
        if k < 0:
            X, W = tuple(v << -k for v in X), tuple(v << -k for v in W)
        if k <= 0:
            K0, K3 = X[0], X[-1]
        ints = []
        for first, gap, count in self.runs:
            if count > 0:
                F, s = first.m << first.e - c if first.m else 0, gap.e - c
                L = F + (count - 1 << s)
                ints.append((K0 - L, K3 - F, F, s, L))
        self._knots, self._gaps, self._ints, self._ends = X, W, ints, (K0, K3)
        self._grid, self._width, self._lift_by = c, width, max(k, 0)
        return True

    def at(self, x: Dyadic) -> Dyadic:
        guard, f, m, e = span_guard(), self.f, x.m, x.e
        if m and e < self._grid or self._ints is None:
            if not self._lift(min(self._grid, e) if m else self._grid, guard):
                return sum_pl_over_runs(f, self.runs, x)
        c, k = self._grid, self._lift_by
        if max(self._width, m.bit_length() + e - c + k if m else 0) + 1 > guard:
            return sum_pl_over_runs(f, self.runs, x)
        xc, (K0, K3), out = m << e - c if m else 0, self._ends, [0, 0]
        for lo, hi, F, s, L in self._ints:
            if lo < xc < hi:
                S, L = F + xc, L + xc
                if k:  # sparse: the one run point that can lie in the support's interior
                    if (S if S > K0 else S + (((K0 - S) >> s) + 1 << s)) >= min(K3, L + 1):
                        continue
                    S, L = S << k, L << k
                _pieces(f, self._knots, self._gaps, 0, c - k, S, s + k, L, None, out)
        return Dyadic(out[0], f.v_exp - out[1])

    def constant_on(self, lo: Dyadic, hi: Dyadic) -> Dyadic | None:
        """The common exact value of `at(x)` for every x in [lo, hi], or None
        when this certificate cannot prove one.

        f is the sum of its components, the stretches [x_p, x_q] between
        consecutive zero knots.  A component whose open interior misses a
        run's reach [lo + first, hi + first + (count-1)*gap] gets 0 from it
        for every x.  A component inside [hi + first - gap, lo + first +
        count*gap] is covered: every point of x + first + gap*Z in its
        interior has index in [0, count), so the run adds an h-periodic
        (h = gap) piecewise-linear function of x whose kinks lie on the
        cosets x_i - first + hZ of its knots.  Any other component gives
        None, and so do two runs of different gaps that each meet one: only
        runs of one gap sum to one periodic function.  A periodic
        piecewise-linear sum is constant on [lo, hi] exactly when it takes
        one value at lo, at hi and at the first kink of each coset at or
        after lo: linear pieces with equal ends are constant, and once
        [lo, hi] spans a period, periodicity carries [lo, lo + h] to the
        rest.  O(knots met) reads of `at`, whatever the length of [lo, hi].
        """
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        xs, vs = self.f.xs, self.f.vs
        kinks, period = {lo, hi}, None
        for first, step, count in self.runs:
            reach_lo, reach_hi = lo + first, hi + first + step * (count - 1)
            cover_lo, cover_hi = hi + first - step, lo + first + step * count
            # the knots of the pieces whose interior meets the reach, widened to whole components
            a = max(bisect_right(xs, reach_lo) - 1, 0)
            b = min(bisect_left(xs, reach_hi), len(xs) - 1)
            while a > 0 and vs[a]:
                a -= 1
            while b < len(xs) - 1 and vs[b]:
                b += 1
            zeros = [i for i in range(a, b + 1) if not vs[i]]
            for p, q in zip(zeros, zeros[1:]):
                if q == p + 1 or xs[q] <= reach_lo or xs[p] >= reach_hi:
                    continue
                if xs[p] < cover_lo or xs[q] > cover_hi or period not in (None, step):
                    return None
                period = step
                kinks.update(lo + (x - first - lo) % step for x in xs[p : q + 1])
        values = {self.at(t) for t in kinks if t <= hi}
        return values.pop() if len(values) == 1 else None
