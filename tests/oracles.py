"""Brute-force enumerations the closed forms in `dyadlab` are checked against.

Each one lists every point or interval explicitly, so it is only usable at
oracle sizes; the library never enumerates.
"""

from bisect import bisect_right
from typing import Iterable, Iterator

from dyadlab.exactnum import ONE, ZERO, Dyadic, DyInterval, PiecewiseLinear
from dyadlab.lattice import GapBlockSeq, PeriodicIntervalSet
from dyadlab.universal import IndexJK


def iter_points(seq: GapBlockSeq) -> Iterator[Dyadic]:
    """origin, origin + g1, ...: every point of the prefix, one gap at a time."""
    v = seq.origin
    yield v
    for b in seq.blocks:
        for _ in range(b.count):
            v = v + b.gap
            yield v


def components(ps: PeriodicIntervalSet) -> Iterator[DyInterval]:
    """The closed intervals [base + i*period, base + i*period + width]."""
    for i in range(ps.count):
        lo = ps.base + ps.period * i
        yield DyInterval.closed(lo, lo + ps.width)


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
    arithmetic series divided last by x1 - x0.  The integer kernel
    `lattice.sum_pl_over_ap` must agree with it bit for bit, NotExact included."""
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


def smoothing_envelope(uG: Iterable[tuple[IndexJK, PeriodicIntervalSet]], deltas: Iterable[Dyadic]) -> PiecewiseLinear:
    """1 on every comb component, 0 beyond a ramp of half-width delta at each
    component edge: four breakpoints per component, one delta per comb.
    Ramps that meet make the breakpoints non-increasing and raise ValueError."""
    pts = []
    for (_, ps), delta in zip(uG, deltas, strict=True):
        for comp in components(ps):
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
