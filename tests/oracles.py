"""Brute-force enumerations the closed forms in `dyadlab` are checked against.

Each one lists every point or interval explicitly, so it is only usable at
oracle sizes; the library never enumerates.
"""

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import Iterable, Iterator

from dyadlab.dense_divergence import LAMBDA2_MIN_J, APWindow, Thm31Construction, Thm31Item, _floor_steps, enum_intervals, tripled
from dyadlab.exactnum import ONE, ZERO, Dyadic, DyInterval, NotExact, PiecewiseLinear, grid_error, scaled_ints, span_guard
from dyadlab.lattice import GapBlock, GapBlockSeq, RunSums, _pieces, floor_sum, step_exponent
from dyadlab.report import OutOfInterval, Violation, WitnessReport
from dyadlab.universal import CoverWitness, IndexJK, Step, step_walk, steps_before

_DYADIC_RE = re.compile(r"^(-?\d+)(?:\*2\^(-?\d+))?$")
_DECIMAL_RE = re.compile(r"^(-?)(\d+)(?:\.(\d+))?$")


def parse_dyadic_regex(text) -> Dyadic:
    """'m*2^e', a plain integer or an exact decimal, by regular expressions
    alone on the stripped text (so Unicode digits and surrounding whitespace
    pass).  `Dyadic.parse`, with its ASCII fast path, must return the same
    value or raise the same exception type and message."""
    s = text.strip() if isinstance(text, str) else ""
    m = _DYADIC_RE.match(s)
    if m:
        return Dyadic(int(m.group(1)), int(m.group(2) or 0))
    d = _DECIMAL_RE.match(s)
    if d:
        sign = -1 if d.group(1) else 1
        digits = d.group(2) + (d.group(3) or "")
        ndec = len(d.group(3) or "")
        num = sign * int(digits)
        five = 5**ndec
        if num % five:
            raise NotExact(f"{text!r} is not a dyadic rational")
        return Dyadic(num // five, -ndec)
    raise ValueError(f"cannot parse dyadic scalar from {text!r}")


def seq_from_json_checked(data: dict) -> GapBlockSeq:
    """A gap-block artifact read through the checked constructors: each
    block by `GapBlock`, which validates its gap and count, and the table by
    `GapBlockSeq(origin, blocks)`, with every gap parsed by regular
    expressions.  `GapBlockSeq.from_json_dict`, with its ASCII fast paths,
    must return an equal sequence with the same table, or raise the same
    exception type and message."""
    blocks = []
    for b in data["blocks"]:
        count, tag = b["count"], b.get("tag", "")
        if not (type(count) is int or (type(count) is str and count.isascii() and count.isdigit())):
            raise ValueError(f"block count must be a decimal string or integer, got {count!r}")
        if not isinstance(tag, str):
            raise ValueError(f"block tag must be a string, got {tag!r}")
        blocks.append(GapBlock(parse_dyadic_regex(b["gap"]), int(count), tag))
    return GapBlockSeq(parse_dyadic_regex(data["origin"]), blocks)


def iter_points(seq: GapBlockSeq) -> Iterator[Dyadic]:
    """origin, origin + g1, ...: every point of the prefix, one gap at a time."""
    v = seq.origin
    yield v
    for b in seq.blocks:
        for _ in range(b.count):
            v = v + b.gap
            yield v


def step_indices(seq: GapBlockSeq, i: IndexJK) -> tuple[int, int]:
    """Absolute indices (n0, n1) at which step i starts and ends in `seq`,
    located on its own by i's position; `universal.step_walk`, which reads
    every step in one pass, must place it the same, or raise the same."""
    t = i.position()
    if 2 * t >= len(seq.blocks):
        raise IndexError(f"sequence prefix has no step {i}: {len(seq.blocks)} blocks")
    tag = seq.blocks[2 * t].tag
    if tag and not tag.startswith(f"{i.j},{i.k}:"):
        raise ValueError(f"block {2 * t} tagged {tag!r}, expected step {i}")
    n0 = seq.cum_counts[2 * t - 1] if t else 0
    n1 = seq.cum_counts[2 * t]
    return n0, n1


def step_at(seq: GapBlockSeq, i: IndexJK) -> Step:
    """Step i of `seq`, the last one `universal.step_walk` reads before i's successor."""
    *_, step = step_walk(seq, i.successor())
    return step


def cum_values_dyadic(origin: Dyadic, blocks: Iterable[GapBlock]) -> list[Dyadic]:
    """The values v_b = v_{b-1} + gap*count the blocks reach from the
    origin, summed in Dyadic arithmetic: each sum checks the span guard on
    its own operands.  `GapBlockSeq`'s int table must hold the same values,
    and refuse wherever a sum here does: it checks every term and value on
    the common grid, no coarser than any sum's own."""
    v, out = origin, []
    for b in blocks:
        v = v + b.gap * b.count
        out.append(v)
    return out


def build_universal_dyadic(limit: IndexJK) -> GapBlockSeq:
    """The universal prefix through `limit`, stepped in Dyadic arithmetic:
    the running value lam gains each wide block's gap*count, and the half
    block's count is the rest up to the next start a' - bI', divided by its
    gap.  `universal.build_universal`'s closed forms in ints must give the
    same blocks, and raise GuardExceeded at the same span guards: there the
    prefix's int table refuses, its last value a' - bI' included."""
    first = IndexJK(1, 0)
    origin = first.a - first.bI
    blocks: list[GapBlock] = []
    lam = origin
    for i in steps_before(limit):
        ps = comb(i)
        E2 = ps.period
        wide_count = (1 << (i.scale_exp() * 2 - i.j)) + (1 << (i.scale_exp() + 1))
        wide_gap = E2 - ps.width
        blocks.append(GapBlock(wide_gap, wide_count, f"{i.j},{i.k}:wide"))
        lam = lam + wide_gap * wide_count
        nxt = i.successor()
        target = nxt.a - nxt.bI
        half_gap = Dyadic(E2.m, E2.e - 1)
        half_count_d = (target - lam).div_exact(half_gap)
        if not half_count_d.is_integer() or half_count_d.m <= 0:
            raise Violation(f"half-block count at step {i} is not a positive integer")
        blocks.append(GapBlock(half_gap, half_count_d.as_integer(), f"{i.j},{i.k}:half"))
        lam = target
    return GapBlockSeq(origin, blocks)


def check_integrality_dyadic(seq: GapBlockSeq, limit: IndexJK) -> WitnessReport:
    """Every step's end value divides by E^2, and the landing value by E'^2,
    tested by dividing each `block_start` value in Dyadic arithmetic.
    `universal.check_integrality`, which reads exponents off the int table,
    must return an identical report or raise the same exception."""
    checked = 0
    for i in steps_before(limit):
        step_indices(seq, i)
        E, E_next, t = i.E, i.successor().E, i.position()
        q1 = seq.block_start(2 * t + 1)[1].div_exact(E * E)
        q2 = seq.block_start(2 * t + 2)[1].div_exact(E_next * E_next)
        if not (q1.is_integer() and q2.is_integer()):
            return WitnessReport(claim="integrality", params={"failed_step": str(i)}, lhs=str(q1), rhs=str(q2), passed=False)
        checked += 1
    params = {"steps": checked, "limit": str(limit)}
    if not checked:
        params["informational"] = True
    return WitnessReport(claim="integrality", params=params, passed=True)


def sample_in_dyadic(rng, lo: Dyadic, hi: Dyadic) -> Dyadic:
    """lo + (hi - lo)*r*2^-48 for one draw r = rng.getrandbits(48), in Dyadic
    arithmetic; `cli._sample_in` must draw the same r and return the same
    value, or raise GuardExceeded, as it does wherever an operand may pass
    the span guard on the grid of the result, so wherever a sum here does."""
    return lo + (hi - lo) * Dyadic(rng.getrandbits(48), -48)


@dataclass(frozen=True)
class PeriodicIntervalSet:
    """{[base + i*period, base + i*period + width] : 0 <= i < count}, closed:
    the oracles' comb.  `dyadlab` forms no comb object; it reads the comb of
    scale s, `scale_comb(s)`, off s alone."""

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


@cache
def scale_comb(s: int) -> PeriodicIntervalSet:
    """The comb of scale s >= 1: 2^s closed intervals of width 2^-3s, spaced
    2^-2s apart, from 2^s."""
    return PeriodicIntervalSet(Dyadic(1, s), Dyadic(1, -2 * s), Dyadic(1, -3 * s), 1 << s)


def comb(i: IndexJK) -> PeriodicIntervalSet:
    """The comb of step i, of scale s = 2j*2^j + k: base a, spacing E^2, width E^3."""
    return scale_comb(i.scale_exp())


def components(ps: PeriodicIntervalSet) -> Iterator[DyInterval]:
    """The closed intervals [base + i*period, base + i*period + width]."""
    for i in range(ps.count):
        lo = ps.base + ps.period * i
        yield DyInterval.closed(lo, lo + ps.width)


def comb_contains(ps: PeriodicIntervalSet, x: Dyadic) -> bool:
    """Whether x lies in one of the closed intervals of `ps`, by one divmod."""
    if x < ps.base:
        return False
    i, r = divmod(x - ps.base, ps.period)
    return i < ps.count and r <= ps.width


def ap_index_range(start: Dyadic, step: Dyadic, iv: DyInterval) -> tuple[int, int]:
    """All integers k with start + k*step in iv, as [k_lo, k_hi]; unclipped.
    Two `Dyadic` divmods, for any positive step: the reference for the
    shift forms `dense_divergence` uses on power-of-two steps."""
    q, r = divmod(iv.lo - start, step)
    if r:
        k_lo = q + 1
    else:
        k_lo = q if iv.closed_lo else q + 1
    q, r = divmod(iv.hi - start, step)
    if r:
        k_hi = q
    else:
        k_hi = q if iv.closed_hi else q - 1
    return k_lo, k_hi


def lattice_run(iv: DyInterval, step: Dyadic) -> tuple[Dyadic, Dyadic, int]:
    """The points of the lattice step*Z inside iv, as a run (first, step, count)."""
    k_lo, k_hi = ap_index_range(ZERO, step, iv)
    if k_hi < k_lo:
        raise ValueError(f"empty lattice window {iv} step {step}")
    return step * k_lo, step, k_hi - k_lo + 1


def count_ap_in_interval(start: Dyadic, step: Dyadic, count: int, iv: DyInterval) -> int:
    """#{k in [0, count) : start + k*step in iv}, by `ap_index_range`."""
    if step.m <= 0:
        raise ValueError("step must be positive")
    k_lo, k_hi = ap_index_range(start, step, iv)
    return max(0, min(count - 1, k_hi) - max(0, k_lo) + 1)


def count_ap_in_periodic_dyadic(start: Dyadic, step: Dyadic, count: int, ps: PeriodicIntervalSet) -> int:
    """#{k in [0, count) : start + k*step in ps} in Dyadic arithmetic: the
    index range inside the clip [base, base + period*count) by two divmods,
    then the residue test by two floor sums on `scaled_ints` of the first
    point's offset, step, period and width.  The integer kernel
    `lattice.count_ap_in_periodic` must return the same count."""
    if not step > ZERO:
        raise ValueError("step must be positive")
    q, r = divmod(ps.base - start, step)
    k_lo = max(0, q + 1 if r else q)
    q, r = divmod(ps.base + ps.period * ps.count - start, step)
    k_hi = min(count - 1, q if r else q - 1)
    if k_hi < k_lo:
        return 0
    n = k_hi - k_lo + 1
    (a0, s, p, w), _ = scaled_ints((start + step * k_lo - ps.base, step, ps.period, ps.width))
    # residue in [0, w]  <=>  floor(a/p) - floor((a - w - 1)/p) == 1
    return floor_sum(n, p, a0, s) - floor_sum(n, p, a0 - w - 1, s)


def total_length(parts: Iterable[DyInterval]) -> Dyadic:
    """Sum of part lengths: the measure of a union whose parts do not overlap."""
    return sum((p.hi - p.lo for p in parts), ZERO)


def pl_eval(f: PiecewiseLinear, x: Dyadic) -> Dyadic:
    """f at one point, by interpolating its piece; NotExact if that value is
    not dyadic.  The sums over progressions are checked against this."""
    if x < f.xs[0] or x > f.xs[-1]:
        return ZERO
    i = bisect_right(f.xs, x) - 1
    if f.xs[i] == x:
        return f.vs[i]
    x0, v0 = f.xs[i], f.vs[i]
    x1, v1 = f.xs[i + 1], f.vs[i + 1]
    return v0 + ((v1 - v0) * (x - x0)).div_exact(x1 - x0)


def sum_pl_over_ap_dyadic(f: PiecewiseLinear, start: Dyadic, step: Dyadic, count: int) -> Dyadic:
    """Sum of f(start + k*step) over k in [0, count), one piece at a time in
    Dyadic arithmetic: the piece range by floor ratios, its sum as an
    arithmetic series divided last by x1 - x0.  A `lattice.RunSums` table
    of the one run, read at 0, must agree with it bit for bit, NotExact
    included."""
    if not step > ZERO:
        raise ValueError("step must be positive")
    total = ZERO
    first = max(bisect_right(f.xs, start) - 1, 0)
    end = min(bisect_right(f.xs, start + step * (count - 1)), len(f.xs) - 1)
    for i in range(first, end):
        x0, v0 = f.xs[i], f.vs[i]
        x1, v1 = f.xs[i + 1], f.vs[i + 1]
        if not v0 and not v1:
            continue
        # the k with x0 <= start + k*step < x1, clipped to [0, count)
        k_lo = max(0, -((start - x0) // step))
        k_hi = min(count - 1, -((start - x1) // step) - 1)
        if k_hi < k_lo:
            continue
        n = k_hi - k_lo + 1
        ksum = (k_lo + k_hi) * n // 2
        rise = (v1 - v0) * ((start - x0) * n + step * ksum)
        total = total + v0 * n + rise.div_exact(x1 - x0)
    return total


def sum_pl_over_ap(f: PiecewiseLinear, start: Dyadic, step: Dyadic, count: int) -> Dyadic:
    """Exact sum of f(start + k*step) over k in [0, count): the one run of
    `sum_pl_over_runs` at shift zero."""
    return sum_pl_over_runs(f, ((start, step, count),), ZERO)


def sum_pl_over_runs(f: PiecewiseLinear, runs: Iterable[tuple[Dyadic, Dyadic, int]], shift: Dyadic) -> Dyadic:
    """Exact sum of f(shift + first + k*gap) over every run (first, gap,
    count) and k in [0, count), with no table: every call aligns and sums
    each run afresh, and makes every width check.  `lattice.RunSums(f,
    runs).at(shift)` must give the same value, NotExact text and
    GuardExceeded text at every guard.  Each gap is 2^d (`step_exponent`).
    Each run's start shift + first (`_shifted`) and gap must fit the span
    guard on their own grid 2^er, else GuardExceeded; a run that misses the
    interior of f's support then adds zero before anything is aligned to
    f.  Otherwise its start, gap and last point must fit on the grid 2^e, e
    the least of er and the knot exponent, and `_pieces` sums the pieces
    they visit, the knots shifted onto 2^e."""
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
        S = start.m << start.e - er
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
        _pieces(f, [v << drop for v in X], [w << drop for w in f.x_gaps], e, S, d - e, L, guard, out)
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


def covering_witness_dyadic(x: Dyadic, i: IndexJK, seq: GapBlockSeq) -> CoverWitness:
    """The translate index carrying x into the comb at index i, in Dyadic
    arithmetic over the whole prefix: nx by `seq.count_upto(a - x)`, then
    advanced by the floor of the overshoot measured in comb widths.  The
    integer kernel `universal.covering_witness` at `step_at(seq, i)` must
    return the same witness, or raise the same exception type.  The witness
    indices are checked against the step end before the landing point is
    read, so a landing index past a prefix cut short is the kernel's
    Violation.  Past step i's wide block the kernel checks that block
    extended, so where a witness leaves the block its refusal may name
    another check than this; the covering suite reports either as a FAIL."""
    n0, n1 = step_indices(seq, i)
    window = i.window
    if not window.contains(x):
        raise OutOfInterval(f"{x} outside {window} at {i}")
    ps = comb(i)
    a, E2, E3 = ps.base, ps.period, ps.width
    if x + seq.value_at(n0) > a:
        raise Violation(f"start value already past the comb base at {i}, x={x}")
    nx = seq.count_upto(a - x)
    if nx >= seq.total_count:
        raise IndexError(f"prefix too short: no translate beyond comb base for x={x} at {i}")
    overshoot = x + seq.value_at(nx) - a
    if not overshoot > ZERO:
        raise Violation(f"minimality broken: overshoot {overshoot} not positive")
    if overshoot > E2 - E3:
        raise Violation(f"overshoot {overshoot} exceeds one wide gap at {i}")
    comp, _ = divmod(overshoot, E3)
    nxp = nx + comp
    if not (nx <= n1 and nxp <= n1):
        raise Violation(f"witness indices {nx},{nxp} exceed step end {n1} at {i}")
    landing = x + seq.value_at(nxp)
    if not (0 <= comp < ps.count and comb_contains(ps, landing)):
        raise Violation(f"landing {landing} missed component {comp} at {i}")
    return CoverWitness(nx=nx, nxp=nxp, component=comp)


def smoothing_envelope(uG: Iterable[IndexJK], deltas: Iterable[Dyadic]) -> PiecewiseLinear:
    """1 on every component of the comb of each index in uG, 0 beyond a ramp
    of half-width delta at each component edge: four breakpoints per
    component, one delta per comb.  Ramps that meet make the breakpoints
    non-increasing and raise ValueError."""
    pts = []
    for i, delta in zip(uG, deltas, strict=True):
        for comp in components(comb(i)):
            pts += [(comp.lo - delta, ZERO), (comp.lo, ONE), (comp.hi, ONE), (comp.hi + delta, ZERO)]
    return PiecewiseLinear(pts)


def support(f: PiecewiseLinear) -> Iterator[DyInterval]:
    """The pieces of f that are not identically zero."""
    for x0, x1, v0, v1 in zip(f.xs, f.xs[1:], f.vs, f.vs[1:]):
        if v0 or v1:
            yield DyInterval.closed(x0, x1)


def measure_per_window(parts: Iterable[DyInterval]) -> dict[int, Dyadic]:
    """Measure of non-overlapping parts in each unit window [M-1, M] they meet, keyed by M."""
    out: dict[int, Dyadic] = {}
    for p in parts:
        for m in range(p.lo.floor() + 1, p.hi.ceil() + 1):
            lo, hi = max(p.lo, Dyadic(m - 1)), min(p.hi, Dyadic(m))
            if lo < hi:
                out[m] = out.get(m, ZERO) + (hi - lo)
    return out


def escape_cells_by_residue(grid, lo: int, hi: int) -> int:
    """Cells of the escape set whose residue mod the comb period lies in
    [lo, hi), one residue at a time: every segment and cell offset is a
    family of translates, each family's runs of slots at the residue are
    merged and clipped to [-j, aI) and [bI, j).  O((hi - lo) * families);
    `universal._escape_cells` must agree with it on every range."""
    C, pi, kappa = grid.components, grid.period, grid.width
    jneg, aI, bI, jpos = grid.window
    families = []  # (y, g, m, G, P, q, 1/q mod P): cell x = y - g*t + pi*c
    for first, g, m in grid.segments:
        G = gcd(g, pi)
        P, q = pi // G, g // G
        families += [(grid.base - first + d, g, m, G, P, q, pow(q, -1, P)) for d in range(kappa)]
    cells = 0
    for rho in range(lo, hi):
        runs = []
        for y, g, m, G, P, q, inv in families:
            k, off = divmod(y - rho, G)
            if off:
                continue
            t0 = k * inv % P
            if t0 >= m:
                continue
            top = (y - rho - g * t0) // pi + C  # one past the last slot of translate t0
            last = (m - 1 - t0) // P  # translates t0 + P*r for r <= last
            if q <= C:
                runs.append((top - C - q * last, top))
            else:
                runs.extend((top - C - q * r, top - q * r) for r in range(last + 1))
        runs.sort()
        merged: list[list[int]] = []
        for r_lo, r_hi in runs:
            if merged and r_lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], r_hi)
            else:
                merged.append([r_lo, r_hi])
        for lo_x, hi_x in ((jneg, aI), (bI, jpos)):
            # slots s with lo_x <= rho + pi*s < hi_x
            s_lo, s_hi = -((rho - lo_x) // pi), -((rho - hi_x) // pi)
            cells += sum(max(0, min(r_hi, s_hi) - max(r_lo, s_lo)) for r_lo, r_hi in merged)
    return cells


def fmt_count_by_str(n: int) -> str:
    """A count as the CLI prints it, read off its full decimal string: in
    full up to 40 digits, else the first four digits and the digit count.
    `cli._fmt_count`, which converts only the leading digits, must print
    the same bytes."""
    s = str(n)
    if len(s) <= 40:
        return s
    return f"{s[0]}.{s[1:4]}e+{len(s) - 1} ({len(s)} digits)"


def report_json_dict(r: WitnessReport) -> dict:
    """A report as the JSON object its report file holds."""
    return {"claim": r.claim, "params": r.params, "lhs": r.lhs, "rhs": r.rhs, "pass": r.passed}


def write_reports_json(path: str, reports: Iterable[WitnessReport]) -> None:
    """The report file as one `json.dumps` of every report's object, the
    bytes `report.write_reports` must write."""
    text = json.dumps([report_json_dict(r) for r in reports], sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def tent_dyadic(j: int) -> PiecewiseLinear:
    """Tent j by `Dyadic` arithmetic: plateau [a, b] = [2^j, 2^j + 2^-2^j]
    of height 2^-j, each end padded by 2^(-2^j-j-1).  `dense_divergence.tent`
    must give the same knots, values and int grids."""
    a = Dyadic(1, j)
    b = a + Dyadic(1, -(2**j))
    pad = Dyadic(1, -(2**j) - j - 1)
    h = Dyadic(1, -j)
    return PiecewiseLinear([(a - pad, ZERO), (a, h), (b, h), (b + pad, ZERO)])


def build_thm31_dyadic(jmax: int) -> Thm31Construction:
    """thm31 with every window cut by `lattice_run` from its interval in
    `Dyadic` arithmetic: the fine lattice 2^-(2^j+j)Z clipped to
    [2^j - hi, 2^j + 2^-2^j - lo], the coarse 2^-jZ to
    (2^(j-1) + 2(j-1), 2^j + 2j].  `build_thm31`, in closed form, must
    build an equal construction, or refuse at the same span guard."""
    items = []
    for j, iv in enum_intervals(jmax):
        a = Dyadic(1, j)
        b = a + Dyadic(1, -(2**j))
        lam1 = APWindow(*lattice_run(DyInterval.closed(a - iv.hi, b - iv.lo), Dyadic(1, -(2**j) - j)))
        span = DyInterval(Dyadic(1, j - 1) + Dyadic(2 * (j - 1)), Dyadic(1, j) + Dyadic(2 * j), False, True)
        lam2 = APWindow(*lattice_run(span, Dyadic(1, -j))) if j >= LAMBDA2_MIN_J else None
        f = tent_dyadic(j)
        items.append(Thm31Item(j, iv, tripled(iv), f, lam1, lam2, RunSums(f, [lam1])))
    return Thm31Construction(jmax=jmax, items=tuple(items))


def lambda2_total_check_bisect(cons: Thm31Construction, x: Dyadic) -> WitnessReport:
    """The coarse-family tail report with every tent summed over Λ2 shifted
    by x: the coarse windows shifted once, and each tent summed by
    `sum_pl_over_runs` over only the windows whose span meets its support's
    interior, found by bisection.  `lambda2_total_check`, which reads each
    tent's sum off its table, must give an equal report."""
    jmax = cons.jmax
    mx = max(LAMBDA2_MIN_J, abs(x).ceil())
    runs = [(x + w.start, w.step, w.count) for it in cons.items if (w := it.lam2) is not None]
    firsts = [first for first, _, _ in runs]
    lasts = [first + step * (count - 1) for first, step, count in runs]

    def tent_total(j: int) -> Dyadic:
        f = cons.item(j).tent
        lo = bisect_right(lasts, f.xs[0])
        return sum_pl_over_runs(f, runs[lo : bisect_left(firsts, f.xs[-1], lo)], ZERO)

    head = sum((tent_total(j) for j in range(1, min(mx, jmax) + 1)), ZERO)
    tail = [tent_total(j) for j in range(mx + 1, jmax + 1)]
    return WitnessReport(
        claim="thm31-lam2-tail",
        params={
            "x": str(x),
            "head_cutoff": mx,
            "jmax": jmax,
            "head": str(head),
            "total": str(head + sum(tail, ZERO)),
            "unbuilt_tail_majorant": str(Dyadic(1, -jmax)),
            **({"informational": True} if jmax <= LAMBDA2_MIN_J else {}),
        },
        lhs=str(sum(tail, ZERO)),
        rhs=str(sum((Dyadic(1, -j) for j in range(mx + 1, jmax + 1)), ZERO)),
        passed=all(cj <= Dyadic(1, -j) for j, cj in enumerate(tail, mx + 1)),
    )


def lambda2_hits_by_difference(cons: Thm31Construction, j: int, x: Dyadic) -> int:
    """The coarse points of item j that x carries into tent j's open support
    (x0, x3), by floor((x0 - t)/step) < k < ceil((x3 - t)/step), t = x +
    start, each bound read off the `Dyadic` difference of a support end and
    t, formed on the tent's grid.  `lambda2_hit_count`, which decides both
    bounds on the coarse grid, must report the same count."""
    it = cons.item(j)
    win = it.lam2
    t = x + win.start
    k_lo, k_hi = _floor_steps(it.tent.xs[0] - t, win.step) + 1, -_floor_steps(t - it.tent.xs[-1], win.step) - 1
    return max(0, min(win.count - 1, k_hi) - max(0, k_lo) + 1)
