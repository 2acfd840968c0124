"""Implicit gap-block sequences and exact lattice counting.

A sequence prefix with 10^hundreds of points is stored as an origin plus a
short list of (gap, count) blocks; every query below works on that closed form.
Counting points of an arithmetic progression inside the comb of scale s (2^s
closed intervals of width 2^-3s, spaced 2^-2s apart from 2^s) runs in O(log)
big-integer steps via a Euclidean floor-sum recursion, never by iterating
periods.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

from .exactnum import Dyadic, NotExact, PiecewiseLinear, ONE, grid_error, span_guard


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


def count_ap_in_periodic(start: Dyadic, step: Dyadic, count: int, s: int) -> int:
    """#{k in [0, count) : start + k*step in the comb of scale s}, via the
    floor-sum recursion.  The comb of scale s >= 1 is the 2^s closed
    intervals [2^s + i*2^-2s, 2^s + i*2^-2s + 2^-3s], 0 <= i < 2^s.

    The work is done in plain ints on one grid 2^g, g the least of step.e,
    -3s and start.e (if start is nonzero).  Before start and step are shifted
    onto that grid, the span guard is checked once against the widest of
    start, step and the comb's base 2^s there, plus one bit for the carry of
    the clip end 2^s + 2^-s: GuardExceeded if that does not fit.  Points at
    or beyond the clip end can alias into the residue window without any
    component existing there, so only the k with 2^s <= start + k*step <
    2^s + 2^-s are counted: two ceiling divisions relative to the start,
    clipped to [0, count), and 0 at once if none is left.  The rest is two
    floor_sum calls.
    """
    if step.m <= 0:
        raise ValueError("step must be positive")
    sm, se, dm, de = start.m, start.e, step.m, step.e
    # a zero start stands in as the step, so it moves neither g nor the widest
    top = dm.bit_length() + de
    g = min(de, -3 * s, se if sm else de)
    bits = max(top, s + 1, sm.bit_length() + se if sm else top) - g + 1
    if bits > span_guard():
        raise grid_error("comb count", bits, g)
    S, D, B = sm << se - g if sm else 0, dm << de - g, 1 << s - g
    # k_lo = ceil((B - S)/D) and k_hi = ceil((B + 2^-s - S)/D) - 1, clipped to [0, count)
    r = B - S - 1
    k_lo = r // D + 1 if r >= 0 else 0
    k_hi = min(count - 1, (r + (1 << -s - g)) // D)
    if k_hi < k_lo:
        return 0
    n, a0 = k_hi - k_lo + 1, S + D * k_lo - B
    P, W = 1 << -2 * s - g, 1 << -3 * s - g
    # residue in [0, W]  <=>  floor(a/P) - floor((a - W - 1)/P) == 1
    return floor_sum(n, P, a0, D) - floor_sum(n, P, a0 - W - 1, D)


def step_exponent(step: Dyadic) -> int:
    """e for a run step of 2^e, else ValueError: every sum and every index
    over a run reads its step here, so all the arithmetic after it shifts."""
    if step.m != 1:
        raise ValueError(f"step must be a positive power of two, got {step}")
    return step.e


def _pieces(f: PiecewiseLinear, X, W, e: int, S: int, s: int, L: int, guard: int | None, out: list) -> None:
    """The one piece loop: add to out = [p, t], the sum p*2^(v_exp - t),
    each nonzero piece of f that the run S, S + 2^s, ..., L visits, in ints
    on the grid 2^e where the knots are X and the piece widths W (with a
    `guard`, a nonzero piece's knots must fit it).  The step is 2^s, so
    every product and quotient by it is a shift.  Each piece is summed
    from delta, the distance from its left knot x0 to the first run point
    at or after it: the start's offset at the first piece, reduced mod 2^s
    by the low bits, then carried across the pieces.  Its point count
    comes from delta and its width, or from L - x0 when L lies in it (f is
    0 at its last knot, so half-open pieces lose nothing), and its sum is
    an arithmetic series divided last by the odd part of its width,
    NotExact if that fails."""
    V, (p, tp) = f.v_ints, out
    first = max(bisect_right(X, S) - 1, 0)
    end = min(bisect_right(X, L), len(X) - 1)
    x1 = X[first]
    mask = (1 << s) - 1
    # (a mask of a negative wide int would copy it)
    delta = S - x1 if S >= x1 else ((S & mask) - (x1 & mask)) & mask
    for i in range(first, end):
        x0, x1, w = x1, X[i + 1], W[i]
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
    """f and fixed runs (first, gap, count): `at(x)` is the exact sum of
    f(x + first + k*gap) over every run and k in [0, count), in ints, as
    one Dyadic.  Every gap is 2^d (`step_exponent`, checked here).  The
    table is laid out once (`_lay_out`), and a read forms nothing that
    replaces what another uses, so reads cost the same in any order.  A
    read whose every width, x's too, fits the span guard with a bit to
    spare makes no check; any other is `_checked`."""

    __slots__ = ("f", "runs", "_table", "_knots")

    def __init__(self, f: PiecewiseLinear, runs: Iterable[tuple[Dyadic, Dyadic, int]]):
        self.f, self.runs, self._table, self._knots = f, tuple(runs), None, {}
        for _, gap, _ in self.runs:
            step_exponent(gap)

    def _lay_out(self, guard: int) -> tuple | None:
        """(top, g, Q, runs) at the first read whose guard the widths fit:
        every int a read forms lies below 2^top on g, the finest grid.  f's
        support is narrower than 2^span: a run of gap 2^span or more is
        sparse, with at most one point inside.  A run with points keeps its
        first and last points and its step 2^s on its grid w: min(first.e,
        d) or, if dense, the knots' when finer, and no coarser than 2^-64, so
        that 40- and 48-bit shifts find it on its grid.  It also keeps its
        reach lo < x < hi, the shifts that can carry a point of it into the
        interior of the support, on the table's grid 2^Q: the finest run
        grid, or the knots' if coarser, a finer run rounded out onto it."""
        f = self.f
        X, xe = f.x_ints, f.x_exp
        span = sum(f.x_gaps).bit_length() + xe  # (no subtraction of wide knots)
        top, runs, finest = max(X[0].bit_length(), X[-1].bit_length()) + xe, [], None
        for first, gap, count in self.runs:
            if count > 0:
                m, d = first.m, gap.e
                w = first.e if m and first.e < d else d
                w = min(w if d >= span or w < xe else xe, -64)
                finest = w if finest is None or w < finest else finest
                top = max(top, d + 1 + count.bit_length(), m.bit_length() + first.e + 1 if m else top)
                F = m << first.e - w if m else 0
                runs.append((F, d - w, F + (count - 1 << d - w if d > w else count - 1), w, d >= span))
        g, Q = (min(xe, finest), max(xe, finest)) if runs else (xe, xe)
        if top - g + 1 > guard:
            return None
        k = Q - xe  # the end knots onto 2^Q, rounded down when coarser: x < x3 - first puts x's floor at most hi
        K0, K3 = (X[0] >> k, X[-1] >> k) if k > 0 else (X[0] << -k, X[-1] << -k)
        for i, (F, s, L, w, sparse) in enumerate(runs):
            k = Q - w  # (a shift by 0 would copy a wide int)
            lo, hi = (K0 + (-L >> k), K3 - (F >> k)) if k > 0 else (K0 - (L << -k if k else L), K3 - (F << -k if k else F))
            runs[i] = lo, hi, w, F, s, L, sparse
        self._table = top, g, Q, runs
        return self._table

    def _knots_on(self, c: int) -> tuple:
        """(K0, K3, X, W) on the grid 2^c, once per grid: f's end knots, rounded
        out onto a coarser grid, and its knots and piece widths on the finer."""
        got = self._knots.get(c)
        if got is None:
            f, k = self.f, self.f.x_exp - c
            X, W = (tuple(v << k for v in f.x_ints), tuple(v << k for v in f.x_gaps)) if k > 0 else (f.x_ints, f.x_gaps)
            got = self._knots[c] = (X[0] >> -k, -(-X[-1] >> -k), X, W) if k < 0 else (X[0], X[-1], X, W)
        return got

    def at(self, x: Dyadic) -> Dyadic:
        guard, m, e = span_guard(), x.m, x.e
        table = self._table or self._lay_out(guard)
        if table is None:
            return self._checked(x, guard)
        top, g, Q, runs = table
        c = e & -64  # x's word
        xt = m.bit_length() + e if m else top  # x's top bit
        if (top if top > xt else xt) - (g if g < c else c) >= guard:
            return self._checked(x, guard)
        f, knots, out, wx = self.f, self._knots, [0, 0], None
        xQ = m >> Q - e if e < Q else m << e - Q  # x rounded down onto 2^Q, a unit more when off it
        xo = xQ + 1 if m and e < Q else xQ
        for lo, hi, w, F, s, L, sparse in runs:
            if xo <= lo or xQ > hi:
                continue
            if c < w:  # onto x's word
                F, L, s, w = F << w - c, L << w - c, s + w - c, c
            if w != wx:  # x and f's knots on the run's grid, kept for the runs after it on that grid
                wx, xc, (K0, K3, X, W) = w, xQ if w == Q else m << e - w, knots.get(w) or self._knots_on(w)
            S, L = F + xc, L + xc
            if sparse:  # cut to its one point inside the support, if any: only that is aligned to f
                S += max(((K0 - S) >> s) + 1, 0) << s
                if S >= K3 or S > L:
                    continue
                if w > f.x_exp:
                    S, w = S << w - f.x_exp, f.x_exp
                L, s = S, 0
            _pieces(f, X, W, w, S, s, L, None, out)
        return Dyadic(out[0], f.v_exp - out[1])

    def _checked(self, x: Dyadic, guard: int) -> Dyadic:
        """`at(x)` checked run by run as the one-run kernel checks it: the
        start x + first and the gap on the start's grid 2^c, c = min(start.e,
        d); for a run that meets the interior of f's support, its points on
        the finer of that grid and the knots', and each nonzero piece's knots."""
        f, m, out = self.f, x.m, [0, 0]
        X, xe = f.x_ints, f.x_exp
        for first, gap, count in self.runs:
            if count < 1:
                continue
            d = gap.e
            am, a, bm, b = (m, x.e, first.m, first.e) if x.e <= first.e else (first.m, first.e, m, x.e)
            if m and first.m and am.bit_length() < b - a:
                # a finer term below half the coarser one's unit leaves the start the coarser
                # term's top bit, one lower after a borrow: its width is checked before it is formed
                c = min(a, d)
                width = max(b + (abs(bm) - ((am < 0) != (bm < 0))).bit_length() - c, d - c + 1)
                if width > guard:
                    raise grid_error("aligned run", width, c)
            start = Dyadic(am + (bm << b - a), a) if m and first.m else x if m else first
            c = min(start.e, d)
            width = max(start.m.bit_length() + start.e - c if start.m else 0, d - c + 1)
            if width > guard:
                raise grid_error("aligned run", width, c)
            S, s, k = start.m << start.e - c, d - c, c - xe
            L = S + (count - 1 << s)
            # a run that misses the interior of f's support adds 0: compare it with
            # the end knots by rounding the finer side, before anything is aligned
            if (L <= X[0] >> k or S >= -(-X[-1] >> k)) if k >= 0 else (-(-L >> -k) <= X[0] or S >> -k >= X[-1]):
                continue
            k = max(k, 0)
            width = max(S.bit_length() + k if S else 0, L.bit_length() + k if L else 0, s + k + 1)
            if width > guard:
                raise grid_error("aligned run", width, c - k)
            if k:
                S, L, s, c = S << k, L << k, s + k, xe
            _pieces(f, [v << xe - c for v in X], [v << xe - c for v in f.x_gaps], c, S, s, L, guard, out)
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
