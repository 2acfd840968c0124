"""Asymptotically dense union-of-lattices construction with tent functions.

Enumerates all dyadic intervals so that the r-th one is large relative to 1/r
and sits inside [-r, r], pairs each with a tent of height 2^-j far out on the
line, and places two lattice families: a fine one sweeping each tent across
its interval (forcing divergence on the interval) and a coarse dense one whose
contribution stays summable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .exactnum import Dyadic, DyInterval, IntervalUnion, PiecewiseLinear, ZERO, ONE
from .lattice import RunSums, step_exponent
from .report import OutOfInterval, WitnessReport

LAMBDA2_MIN_J = 10
GAP_INCREASE_MIN_J = 3


class APWindow(NamedTuple):
    """A lattice clipped to a window, stored as start + k*step, 0 <= k < count:
    a run, in the (first, gap, count) shape every sum over Λ takes."""

    start: Dyadic
    step: Dyadic
    count: int

    def last(self) -> Dyadic:
        return self.start + self.step * (self.count - 1)

    def to_json_dict(self) -> dict:
        return {"start": str(self.start), "step": str(self.step), "count": str(self.count)}


def enum_intervals(count: int) -> list[tuple[int, DyInterval]]:
    """Deterministic enumeration of dyadic intervals [(k-1)2^-l, k*2^-l].

    Stage t considers all candidates of level l <= t inside [-t, t] in
    (level, left endpoint) order and emits each one the first time both
    emission constraints hold at its would-be 1-based index r:
    containment in [-r, r] and measure 2^-l >= 1/r.  Both constraints relax
    as the index grows, so every dyadic interval is eventually emitted.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    emitted: list[tuple[int, DyInterval]] = []
    seen: set[tuple[int, int]] = set()
    stage = 0
    while len(emitted) < count:
        stage += 1
        for level in range(stage + 1):
            scale = 1 << level
            for k in range(-stage * scale + 1, stage * scale + 1):
                if (level, k) in seen:
                    continue
                r = len(emitted) + 1
                if r < scale or k - 1 < -r * scale or k > r * scale:
                    continue
                seen.add((level, k))
                emitted.append((r, DyInterval.closed(Dyadic(k - 1, -level), Dyadic(k, -level))))
                if len(emitted) == count:
                    return emitted
    return emitted


def tent(j: int) -> PiecewiseLinear:
    """Height 2^-j plateau on [2^j, 2^j + 2^-2^j], ramps of width 2^(-2^j-j-1):
    on the grid 2^-(2^j+j+1) the knots are A - 1, A, A + 2^(j+1) and
    A + 2^(j+1) + 1, A = 2^(2^j+2j+1), written down without aligning them."""
    if j < 1:
        raise ValueError("j must be >= 1")
    g, A, h = -(2**j) - j - 1, 1 << 2**j + 2 * j + 1, Dyadic(1, -j)
    B = A + (2 << j)
    return PiecewiseLinear([(Dyadic(A - 1, g), ZERO), (Dyadic(1, j), h), (Dyadic(B, g), h), (Dyadic(B + 1, g), ZERO)])


def tripled(iv: DyInterval) -> DyInterval:
    """Concentric closed interval of three times the length."""
    w = iv.hi - iv.lo
    return DyInterval.closed(iv.lo - w, iv.hi + w)


@dataclass(frozen=True)
class Thm31Item:
    """Tent j with its windows and `lam1_sums`, the `RunSums` table of the
    tent over its own fine window, left out of `==`."""

    j: int
    interval: DyInterval
    tripled: DyInterval
    tent: PiecewiseLinear
    lam1: APWindow
    lam2: APWindow | None
    lam1_sums: RunSums = field(repr=False, compare=False)


@dataclass(frozen=True)
class Thm31Construction:
    jmax: int
    items: tuple[Thm31Item, ...]

    def item(self, j: int) -> Thm31Item:
        return self.items[j - 1]

    @cached_property
    def tail_tables(self) -> tuple[RunSums, ...]:
        """One `RunSums` per tent over the coarse runs of Λ2, built on first use."""
        runs = [w for it in self.items if (w := it.lam2) is not None]
        return tuple(RunSums(it.tent, runs) for it in self.items)

    @cached_property
    def lambda_tables(self) -> tuple[tuple[RunSums, RunSums], ...]:
        """Per tent, `RunSums` over Λ's windows and over their shared points."""
        windows, shared = self.lambda_windows(), self.lambda_overlaps()
        return tuple((RunSums(it.tent, windows), RunSums(it.tent, shared)) for it in self.items)

    def lambda_windows(self) -> list[APWindow]:
        """All lattice windows of Λ = Λ1 ∪ Λ2, fine and coarse."""
        return [w for it in self.items for w in (it.lam1, it.lam2) if w is not None]

    def lambda_overlaps(self) -> list[APWindow]:
        """The points two windows share, one run per pair that shares any:
        each window is a power-of-two lattice through 0 clipped to an
        interval, so the coarser lattice on the common span [lo, hi] is
        exactly them, k*step for ceil(lo/step) <= k <= floor(hi/step)."""
        spans = [(w.start, w.last(), w.step) for w in self.lambda_windows()]
        out = []
        for n, (lo1, hi1, step1) in enumerate(spans):
            for lo2, hi2, step2 in spans[n + 1:]:
                lo, hi, step = max(lo1, lo2), min(hi1, hi2), max(step1, step2)
                if lo > hi:
                    continue
                k_lo, k_hi = -_floor_steps(-lo, step), _floor_steps(hi, step)
                if k_lo <= k_hi:
                    out.append(APWindow(step * k_lo, step, k_hi - k_lo + 1))
        return out

    def to_json_dict(self) -> dict:
        return {
            "jmax": self.jmax,
            "items": [
                {
                    "j": it.j,
                    "interval": str(it.interval),
                    "tripled": str(it.tripled),
                    "tent": it.tent.to_json(),
                    "lambda1": it.lam1.to_json_dict(),
                    "lambda2": it.lam2.to_json_dict() if it.lam2 else None,
                }
                for it in self.items
            ],
        }


def _coarse_span(j: int) -> DyInterval:
    """(2^(j-1) + 2(j-1), 2^j + 2j]: the window the coarse lattice fills at j."""
    return DyInterval(Dyadic(1, j - 1) + Dyadic(2 * (j - 1)), Dyadic(1, j) + Dyadic(2 * j), False, True)


def build_thm31(jmax: int) -> Thm31Construction:
    """Item j in closed form from j and its interval [lo, hi] of level l:
    the fine window starts at 2^j - hi with step 2^-(2^j+j) and holds
    2^j + 2^(2^j+j-l) + 1 points, one plateau plus the interval's sweep;
    from j = 10 the coarse window holds the (2^(j-1) + 2) * 2^j points of
    step 2^-j after 2^(j-1) + 2(j-1)."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    items = []
    for j, iv in enum_intervals(jmax):
        level = -(iv.hi - iv.lo).e
        lam1 = APWindow(Dyadic(1, j) - iv.hi, Dyadic(1, -(2**j) - j), (1 << j) + (1 << 2**j + j - level) + 1)
        lam2 = None
        if j >= LAMBDA2_MIN_J:
            lam2 = APWindow(Dyadic(((1 << j - 1) + 2 * (j - 1) << j) + 1, -j), Dyadic(1, -j), (1 << j - 1) + 2 << j)
        f = tent(j)
        items.append(Thm31Item(j, iv, tripled(iv), f, lam1, lam2, RunSums(f, [lam1])))
    return Thm31Construction(jmax=jmax, items=tuple(items))


def lower_bound_check(cons: Thm31Construction, j: int, x: Dyadic) -> WitnessReport:
    """The fine lattice carries x across the whole plateau: sum >= 1 exactly."""
    it = cons.item(j)
    if not it.interval.contains(x):
        raise OutOfInterval(f"{x} outside {it.interval} at j={j}")
    s = it.lam1_sums.at(x)
    return WitnessReport(
        claim=f"thm31-lower/{j}",
        params={"j": j, "x": str(x)},
        lhs=str(s),
        rhs=str(ONE),
        passed=s >= ONE,
    )


def outside_zero_check(cons: Thm31Construction, j: int, x: Dyadic) -> WitnessReport:
    """Outside the tripled interval (but within [-j, j]) the fine lattice
    misses the tent entirely."""
    it = cons.item(j)
    jj = Dyadic(j)
    if x < -jj or x > jj or it.tripled.contains(x):
        raise OutOfInterval(f"{x} not in [-{j}, {j}] minus the tripled interval")
    s = it.lam1_sums.at(x)
    return WitnessReport(
        claim=f"thm31-outside/{j}",
        params={"j": j, "x": str(x)},
        lhs=str(s),
        rhs="0*2^0",
        passed=s == ZERO,
    )


def cross_term_zero_check(cons: Thm31Construction, j0: int, j: int) -> WitnessReport:
    """Tent j0 never meets the fine lattice of a different j, unshifted.

    Guaranteed for j0 >= 10; for smaller j0 the exact value is reported
    without asserting (the separation argument needs room).
    """
    if j == j0:
        raise ValueError("cross term needs j != j0")
    s = RunSums(cons.item(j0).tent, [cons.item(j).lam1]).at(ZERO)
    asserted = j0 >= LAMBDA2_MIN_J
    params = {"j0": j0, "j": j, "x": "0*2^0"}
    if not asserted:
        params["informational"] = True
    return WitnessReport(
        claim=f"thm31-cross/{j0}/{j}",
        params=params,
        lhs=str(s),
        rhs="0*2^0",
        passed=(s == ZERO) if asserted else True,
    )


def selected_js(cons: Thm31Construction, G: IntervalUnion) -> list[int]:
    """Indices whose tripled interval sits inside the open union G."""
    return [it.j for it in cons.items if G.contains_interval(it.tripled)]


def fG_sum_partial_31(cons: Thm31Construction, x: Dyadic, G: IntervalUnion) -> Dyadic:
    """Exact sum of the G-selected tents over the set Λ, off `lambda_tables`:
    over every window, less the points two windows share (none lies in three)."""
    tables = [cons.lambda_tables[j - 1] for j in selected_js(cons, G)]
    return sum((windows.at(x) - shared.at(x) for windows, shared in tables), ZERO)


def lambda2_hit_count(cons: Thm31Construction, j: int, x: Dyadic) -> WitnessReport:
    """At most one coarse-lattice translate can meet tent j (support is
    narrower than the coarse step); exact count reported.

    The hits are the k in [0, count) with t + k*2^d inside the open support
    (x0, x3), t = x + start: floor((x0 - t)/2^d) < k < ceil((x3 - t)/2^d).
    Both bounds are decided in ints on the grid 2^c of x, the start and the
    step (`_grid_floor`), so no wide difference is formed: with T = t*2^-c,
    the first is (floor(x0*2^-c) - T) >> (d - c), since x0's remainder below
    2^c adds less than one unit to that numerator; the second is -((T -
    floor(x3*2^-c) - r) >> (d - c)), r the sticky bit of x3's remainder."""
    it = cons.item(j)
    win = it.lam2
    if win is None:
        raise ValueError(f"no coarse lattice at j={j}")
    d, start = step_exponent(win.step), win.start
    c = min(x.e, start.e, d)
    T, s = (x.m << x.e - c) + (start.m << start.e - c), d - c
    (X0, _), (X3, r) = _grid_floor(it.tent.xs[0], c), _grid_floor(it.tent.xs[-1], c)
    k_lo, k_hi = ((X0 - T) >> s) + 1, -((T - X3 - r) >> s) - 1
    hits = max(0, min(win.count - 1, k_hi) - max(0, k_lo) + 1)
    asserted = abs(x) <= Dyadic(j)
    params = {"j": j, "x": str(x)}
    if not asserted:
        params["informational"] = True
    return WitnessReport(
        claim=f"thm31-lam2hits/{j}",
        params=params,
        lhs=str(hits),
        rhs="1",
        passed=(hits <= 1) if asserted else True,
    )


def _grid_floor(v: Dyadic, c: int) -> tuple[int, int]:
    """floor(v*2^-c) and the sticky bit of the remainder: 1 when v is off
    the grid 2^c.  v is canonical (m odd, or zero at e = 0), so that is
    e < c with m nonzero, read without touching v's low bits; a wide v
    is only shifted down."""
    if v.e >= c:
        return v.m << v.e - c, 0
    return v.m >> c - v.e, 1 if v.m else 0


def lambda2_total_check(cons: Thm31Construction, x: Dyadic) -> WitnessReport:
    """Summability skeleton for the coarse family: the per-tent contributions
    beyond max(10, ceil|x|) stay under the geometric bound, term by term.
    Through jmax 10 no tent lies beyond that cutoff, and the report is
    informational."""
    jmax = cons.jmax
    mx = max(LAMBDA2_MIN_J, abs(x).ceil())
    totals = [table.at(x) for table in cons.tail_tables]
    head = sum(totals[: min(mx, jmax)], ZERO)
    tail_actual = ZERO
    tail_bound = ZERO
    ok = True
    for j in range(mx + 1, jmax + 1):
        cj = totals[j - 1]
        tail_actual = tail_actual + cj
        tail_bound = tail_bound + Dyadic(1, -j)
        if cj > Dyadic(1, -j):
            ok = False
    return WitnessReport(
        claim="thm31-lam2-tail",
        params={
            "x": str(x),
            "head_cutoff": mx,
            "jmax": jmax,
            "head": str(head),
            "total": str(head + tail_actual),
            "unbuilt_tail_majorant": str(Dyadic(1, -jmax)),
            **({"informational": True} if jmax <= LAMBDA2_MIN_J else {}),
        },
        lhs=str(tail_actual),
        rhs=str(tail_bound),
        passed=ok,
    )


def density_window_check(cons: Thm31Construction, j: int) -> WitnessReport:
    """Max gap of the merged set restricted to the coarse window is <= 2^-j.

    The merged set contains the full coarse lattice there, whose own gaps are
    exactly 2^-j and whose first/last points land within one step of the
    window ends; extra fine-lattice points only shrink gaps.
    """
    it = cons.item(j)
    if it.lam2 is None:
        raise ValueError(f"no coarse lattice at j={j}")
    win = it.lam2
    span = _coarse_span(j)
    cover_left = win.start - span.lo
    cover_right = span.hi - win.last()
    step = win.step
    ok = cover_left <= step and cover_right == ZERO and step == Dyadic(1, -j)
    return WitnessReport(
        claim=f"thm31-density/{j}",
        params={
            "j": j,
            "window": str(span),
            "points": str(win.count),
            "left_offset": str(cover_left),
        },
        lhs=str(step),
        rhs=str(Dyadic(1, -j)),
        passed=ok,
    )


def _floor_steps(d: Dyadic, step: Dyadic) -> int:
    """floor(d/step) for a step of 2^s (`step_exponent`), by one shift;
    -_floor_steps(-d, step) is the ceiling.  Only a d on a grid coarser
    than the step is shifted up; here such a d lies between two points of
    the construction, which `build_thm31` fit to the span guard on its
    finest grid."""
    k = d.e - step_exponent(step)
    return d.m << k if k >= 0 else d.m >> -k


def _neighbours(cons: Thm31Construction, t: Dyadic) -> tuple[Dyadic | None, Dyadic | None]:
    """The nearest merged-lattice points strictly before and strictly after t."""
    before, after = [], []
    for win in cons.lambda_windows():
        d = t - win.start
        k = min(win.count - 1, -_floor_steps(-d, win.step) - 1)  # ceil((t-start)/step) - 1
        if k >= 0:
            before.append(win.start + win.step * k)
        k = max(0, _floor_steps(d, win.step) + 1)
        if k < win.count:
            after.append(win.start + win.step * k)
    return max(before, default=None), min(after, default=None)


def find_gap_increase(cons: Thm31Construction) -> WitnessReport:
    """Exhibit one place where consecutive merged gaps grow, separating this
    construction from any decreasing-gap sequence."""
    for it in cons.items:
        t = it.lam1.last()
        prv, nxt = _neighbours(cons, t)
        if nxt is None or prv is None:
            continue
        gap_before = t - prv
        gap_after = nxt - t
        if gap_after > gap_before:
            return WitnessReport(
                claim="thm31-gap-increase",
                params={
                    "at": str(t),
                    "previous_point": str(prv),
                    "next_point": str(nxt),
                },
                lhs=str(gap_before),
                rhs=str(gap_after),
                passed=True,
            )
    # below jmax 3, Λ holds only the overlapping j = 1, 2 windows: no increase yet
    asserted = cons.jmax >= GAP_INCREASE_MIN_J
    params = {"jmax": cons.jmax}
    if not asserted:
        params["informational"] = True
    return WitnessReport(claim="thm31-gap-increase", params=params, passed=not asserted)
