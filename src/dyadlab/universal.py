"""The universal decreasing-gap sequence and its target-set machinery.

For each index (j, k) the construction places a comb of tiny closed intervals
far out on the line and extends the sequence with two gap blocks sized so that
every point of the window [j-(k+1)2^-j, j-k2^-j] is carried into the comb by
some translate.  Everything here is exact: block counts come out of divisions
that must be integers, and any remainder is a construction bug, not noise.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from typing import Iterator, Sequence

from .exactnum import (
    Dyadic,
    DyInterval,
    GuardExceeded,
    IntervalUnion,
    ZERO,
    grid_error,
    scaled_ints,
    span_guard,
)
from .lattice import GapBlock, GapBlockSeq, count_ap_in_periodic, floor_sum
from .report import BudgetExceeded, OutOfInterval, Violation, WitnessReport

# Work `escape_measure` may do per index: enumerated residue-families, runs
# listed one per translate, and summed pieces.  Every step through (3,0)
# needs at most 13; an artifact whose fine gaps split a comb component into
# many grid cells can need billions; 4*10^6 take under a second.
ESCAPE_BUDGET = 4_000_000


@dataclass(frozen=True)
class IndexJK:
    """Lexicographic index (j, k) with j >= 1 and 0 <= k < 2j*2^j; it fixes
    its step's window [j - (k+1)2^-j, j - k*2^-j] and scale s = 2j*2^j + k."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"j must be >= 1, got {self.j}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        # k < j*2^(j+1) tested without forming 2^j; on failure row_width(j) <= k
        if self.k >> (self.j + 1) >= self.j:
            raise ValueError(f"k={self.k} outside [0, {row_width(self.j)}) for j={self.j}")

    def successor(self) -> "IndexJK":
        if self.k < row_width(self.j) - 1:
            return IndexJK(self.j, self.k + 1)
        return IndexJK(self.j + 1, 0)

    def position(self) -> int:
        """Indices before this one: rows 1..j-1 hold 2((j-2)*2^j + 2) of them."""
        return 2 * ((self.j - 2) * 2**self.j + 2) + self.k

    def scale_exp(self) -> int:
        """The exponent s with a = 2^s and E = 2^-s at this index."""
        return 2 * self.j * 2**self.j + self.k

    # The step's geometry in closed form: the window [aI, bI] and the scales a = 2^s
    # and E = 2^-s.  Its comb, 2^s closed intervals of width E^3 spaced E^2 from a,
    # is read off s alone (`lattice.count_ap_in_periodic`).

    @property
    def J(self) -> int:
        """bI in units of 2^-j: j*2^j - k."""
        return (self.j << self.j) - self.k

    @property
    def aI(self) -> Dyadic:
        return Dyadic(self.J - 1, -self.j)

    @property
    def bI(self) -> Dyadic:
        return Dyadic(self.J, -self.j)

    @property
    def window(self) -> DyInterval:
        return DyInterval.closed(self.aI, self.bI)

    @property
    def a(self) -> Dyadic:
        return Dyadic(1, self.scale_exp())

    @property
    def E(self) -> Dyadic:
        return Dyadic(1, -self.scale_exp())

    def __str__(self) -> str:
        return f"({self.j},{self.k})"


def row_width(j: int) -> int:
    return 2 * j * 2**j


def require_span(limit: IndexJK) -> None:
    """Refuse a limit whose comb end a + E = 2^s + 2^-s, s = 2j*2^j + k, needs
    more mantissa bits (2s + 1) than the span guard, before any walk reaches it."""
    guard = span_guard()
    if limit.j >= guard.bit_length():  # 2s + 1 > 4j*2^j >= 2^(j+2) > guard; 2^j is never formed
        need = f"more than 2^{limit.j + 2}"
    elif (need := 2 * limit.scale_exp() + 1) <= guard:
        return
    raise GuardExceeded(f"limit {limit}: b = 2^s + 2^-s needs {need} bits (guard {guard})")


def steps_before(limit: IndexJK) -> Iterator[IndexJK]:
    """Indices whose full step the prefix `build_universal(limit)` carries:
    every index before `limit`, row by row."""
    for j in range(1, limit.j):
        for k in range(row_width(j)):
            yield IndexJK(j, k)
    for k in range(limit.k):
        yield IndexJK(limit.j, k)


def indices_through(limit: IndexJK) -> Iterator[IndexJK]:
    """All indices from (1,0) through `limit`, inclusive."""
    yield from steps_before(limit)
    yield limit


class Step(namedtuple("Step", "j k J s b n0 n1 vm ve gap seq")):
    """Step (j, k) of the prefix `seq`, as `step_walk` reads it: window
    [(J-1)*2^-j, J*2^-j], scale s, and wide block b = 2*position of gap `gap`,
    holding the indices (n0, n1] after its start value vm*2^ve (canonical,
    as `start_pair` reads it).  It prints as its index, (j,k)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.j},{self.k})"


def step_walk(seq: GapBlockSeq, limit: IndexJK) -> Iterator[Step]:
    """The steps before `limit`, row by row, each read once off the tables of
    `seq`: IndexError at a step with no block in `seq`, ValueError at one
    whose wide block is tagged as another step."""
    blocks, counts, ints, grid = seq.blocks, seq.cum_counts, seq.cum_ints, seq.grid
    b, n0, vm, ve = 0, 0, seq.origin.m, seq.origin.e
    for j in range(1, limit.j + 1):
        width = row_width(j)
        for k in range(width if j < limit.j else limit.k):
            if b >= len(blocks):
                raise IndexError(f"sequence prefix has no step ({j},{k}): {len(blocks)} blocks")
            gap, tag = blocks[b].gap, blocks[b].tag
            if tag and not tag.startswith(f"{j},{k}:"):
                raise ValueError(f"block {b} tagged {tag!r}, expected step ({j},{k})")
            if b:
                n0, V = counts[b - 1], ints[b - 1]
                z = (V & -V).bit_length() - 1
                vm, ve = (V >> z, grid + z) if V else (0, 0)
            yield Step(j, k, (j << j) - k, width + k, b, n0, counts[b], vm, ve, gap, seq)
            b += 2


def build_universal(limit: IndexJK) -> GapBlockSeq:
    """Gap blocks of all steps below `limit`; the last point is a - bI at `limit`.

    Each step (j,k) appends a wide block (gap E^2 - E^3) long enough to sweep
    its window across the comb, then a half-period block (gap E^2/2) that lands
    exactly on the next step's starting value.

    Both counts are closed forms in plain ints.  Step i (scale s) starts at
    a - bI = 2^s - J*2^-j; its wide block, (2^s - 1)*2^-3s times
    2^(2s-j) + 2^(s+1), ends 2^-(2s+1)*(2^s - 1)(2^(s-j+1) + 4) further on;
    and the half block's count is the rest up to a' - bI' in units of its gap
    2^-(2s+1), which must be positive (Violation otherwise).  The table of
    `GapBlockSeq` checks every value, a - bI at `limit` included, against the span guard.
    """
    first = IndexJK(1, 0)
    blocks: list[GapBlock] = []
    for i in steps_before(limit):
        nxt, s, j = i.successor(), i.scale_exp(), i.j
        s1, r = nxt.scale_exp(), 2 * s + 1
        rest = ((1 << s1) - (1 << s) << r) - (nxt.J << r - nxt.j) + (i.J << r - j)
        half = rest - ((1 << s) - 1) * ((1 << s - j + 1) + 4)
        if half <= 0:
            raise Violation(f"half-block count at step {i} is not a positive integer")
        blocks.append(GapBlock(Dyadic((1 << s) - 1, -3 * s), (1 << 2 * s - j) + (1 << s + 1), f"{j},{i.k}:wide"))
        blocks.append(GapBlock(Dyadic(1, -r), half, f"{j},{i.k}:half"))
    return GapBlockSeq(first.a - first.bI, blocks)


def check_lemma_useful(i: IndexJK) -> WitnessReport:
    """Scale constants halve (at least) from one index to the next, and half
    the old fine scale is an exact integer multiple of the new one."""
    nxt = i.successor()
    a, E, a_next, E_next = i.a, i.E, nxt.a, nxt.E
    ok_a = a <= Dyadic(a_next.m, a_next.e - 1)
    ok_e = E >= E_next * 2
    half_e = Dyadic(E.m, E.e - 1)
    mult = half_e.div_exact(E_next)
    ok_m = mult.is_integer() and mult.m >= 1
    return WitnessReport(
        claim=f"lemma-useful/{i.j},{i.k}",
        params={"index": str(i), "successor": str(i.successor()), "multiplier": str(mult.as_integer() if ok_m else mult)},
        lhs=f"a={a} E={E}",
        rhs=f"a'={a_next} E'={E_next}",
        passed=ok_a and ok_e and ok_m,
    )


def check_integrality(seq: GapBlockSeq, limit: IndexJK) -> WitnessReport:
    """Every step's end value divides by E^2, and the landing value by E'^2:
    E^2 = 2^-2s divides a value m*2^e (`start_pair`) exactly when e >= -2s."""
    checked = 0
    for step in step_walk(seq, limit):
        s, b = step.s, step.b
        s1 = s + 1 if step.k + 1 < row_width(step.j) else row_width(step.j + 1)  # the successor's scale
        (m1, e1), (m2, e2) = seq.start_pair(b + 1), seq.start_pair(b + 2)
        if e1 < -2 * s or e2 < -2 * s1:
            lhs, rhs = str(Dyadic(m1, e1 + 2 * s)), str(Dyadic(m2, e2 + 2 * s1))
            return WitnessReport("integrality", {"failed_step": str(step)}, lhs, rhs, passed=False)
        checked += 1
    params = {"steps": checked, "limit": str(limit)}
    if not checked:
        params["informational"] = True  # no step, nothing asserted
    return WitnessReport(claim="integrality", params=params, passed=True)


class CoverWitness(namedtuple("CoverWitness", "nx nxp component")):
    """Translate nx is the first past the comb base a for x, and translate
    nxp = nx + component carries x onto that comb component."""

    __slots__ = ()


def covering_witness(x: Dyadic, step: Step) -> CoverWitness:
    """The explicit translate index carrying x into the comb of `step`.

    Computed in ints on the grid 2^g, g the least exponent of x, E^3 and the
    step's wide block (gap G from index n0 at value v0, as `step_walk` reads it),
    once the span guard admits their widths: nx = n0 + 1 + floor((a - x - v0)/G)
    is the first translate past the comb base a, and the overshoot in comb
    widths advances it.  Once nx is past the block, IndexError when the
    whole prefix stays at or below a - x; Violation when the overshoot
    exceeds one wide gap, the landing misses the comb or the witness leaves
    the block (read as extended past its end).  A `Dyadic` is formed only
    to word a refusal.
    """
    j, _, J, s, _, n0, n1, vm, ve, G, seq = step
    g = min(x.e, ve, G.e, -3 * s)  # zero has exponent 0 > -3s
    width = max(s + 1, x.m.bit_length() + x.e, vm.bit_length() + ve, G.m.bit_length() + G.e) - g
    if width > span_guard():
        raise grid_error(f"covering witness at {step}", width, g)
    X, V0, W = x.m << x.e - g, vm << ve - g, G.m << G.e - g
    A, E2, E3 = 1 << s - g, 1 << -2 * s - g, 1 << -3 * s - g
    u = -j - g  # bI = J*2^-j = J << u
    if not (J - 1) << u <= X <= J << u:
        raise OutOfInterval(f"{x} outside {IndexJK(j, step.k).window} at {step}")
    if X + V0 > A:
        raise Violation(f"start value already past the comb base at {step}, x={x}")
    q, r = divmod(A - X - V0, W)
    nx, over = n0 + 1 + q, W - r  # the first translate past a, and x + v(nx) - a in (0, G]
    comp = over // E3
    land = over + W * comp  # landing - a
    if nx > n1:
        # past the block, the prefix is too short when x + last_value <= a:
        # compared on the grid 2^g, the last value's side rounded, so no int grows
        lm, le = seq.start_pair(len(seq.blocks))
        k = le - g
        if (lm <= A - X >> k) if k >= 0 else (-(-lm >> -k) <= A - X):
            raise IndexError(f"prefix too short: no translate beyond comb base for x={x} at {step}")
    if over > E2 - E3:
        raise Violation(f"overshoot {Dyadic(over, g)} exceeds one wide gap at {step}")
    if land >= E2 << s or land & E2 - 1 > E3:  # past the comb, or between components
        raise Violation(f"landing {Dyadic(A + land, g)} missed component {comp} at {step}")
    if nx + comp > n1:
        raise Violation(f"witness indices {nx},{nx + comp} exceed step end {n1} at {step}")
    return CoverWitness(nx, nx + comp, comp)


def build_uG(G: IntervalUnion, limit: IndexJK) -> list[IndexJK]:
    """The indices up to `limit` whose window sits in G; u_G is the union of
    their combs.

    The window is closed and G is an open union, so both endpoints must be
    interior to a single part of G.
    """
    return [i for i in indices_through(limit) if G.contains_interval(i.window)]


def fG_prefix_sums(x: Dyadic, uG: Sequence[IndexJK], runs: Sequence[tuple[Dyadic, Dyadic, int]]) -> list[int]:
    """Running counts #{n in prefix : x + value_at(n) lands in the comb of
    some index of uG} over the prefix's runs (first, gap, count), as
    `GapBlockSeq.segments_in_range` lists them; the runs do not depend on x,
    so a caller reads them once for every sample.

    Entry r counts the points of the first r + 1 runs.  Over the runs of the
    indices [0, n] of `build_universal(limit)`, run 0 is the origin and run b
    is block b, so entry 2*i.position() is the count for the prefix
    `build_universal(i)`.  Combs of distinct indices live in disjoint ranges
    [a, a + E], so the per-comb counts add without double counting.
    """
    scales = [i.scale_exp() for i in uG]
    shifted = ((x + first, gap, count) for first, gap, count in runs)
    return list(accumulate(sum(count_ap_in_periodic(start, gap, count, s) for s in scales) for start, gap, count in shifted))


@dataclass(frozen=True)
class _EscapeGrid:
    """The escape measure's inputs as ints on one grid: value v is v*unit*2^e,
    with unit the gcd of all of them.

    `window` is (-j, aI, bI, j); `segments` are the translates that can carry
    the comb into [-j, j], as (first value, gap, count) with gap 0 for a
    one-point segment.
    """

    translates: int
    covers: bool
    unit: int
    e: int
    base: int
    period: int
    width: int
    components: int
    window: tuple[int, int, int, int]
    segments: list[tuple[int, int, int]]


def _escape_grid(i: IndexJK, seq: GapBlockSeq) -> _EscapeGrid:
    """The comb of scale s runs from a = 2^s over its extent
    2^-s - 2^-2s + 2^-3s, one `Dyadic`."""
    s = i.scale_exp()
    base, period, width = Dyadic(1, s), Dyadic(1, -2 * s), Dyadic(1, -3 * s)
    j = Dyadic(i.j)
    lam_lo = base - j - width
    lam_hi = base + Dyadic((1 << 2 * s) - (1 << s) + 1, -3 * s) + j
    n_start = seq.count_upto(lam_lo)
    if n_start > 0 and seq.value_at(n_start - 1) == lam_lo:
        n_start -= 1
    n_end = seq.count_upto(lam_hi) - 1
    segments = seq.segments_in_range(n_start, n_end)

    scale_inputs = [base, period, width, -j, i.aI, i.bI, j]
    for first, gap, _ in segments:
        scale_inputs.extend((first, gap))
    ints, e = scaled_ints(scale_inputs)
    for n, (_, _, count) in enumerate(segments):
        if count == 1:
            ints[8 + 2 * n] = 0
    unit = gcd(*ints)
    ints = [v // unit for v in ints]
    return _EscapeGrid(
        translates=max(0, n_end - n_start + 1),
        # a prefix ending inside the translate range still yields a valid
        # lower bound for the measure, but the report flags the truncation
        covers=bool(seq.last_value >= lam_hi),
        unit=unit,
        e=e,
        base=ints[0],
        period=ints[1],
        width=ints[2],
        components=1 << s,
        window=tuple(ints[3:7]),
        segments=[(ints[7 + 2 * n], ints[8 + 2 * n], count) for n, (_, _, count) in enumerate(segments)],
    )


def _escape_report(i: IndexJK, grid: _EscapeGrid, measure: Dyadic) -> WitnessReport:
    E = i.E
    bound = Dyadic(4 * i.j + 3) * E
    return WitnessReport(
        claim=f"escape-measure/{i.j},{i.k}",
        params={
            "index": str(i),
            "translates": grid.translates,
            "components": grid.components,
            "prefix_covers_range": grid.covers,
            "lattice_term": str(Dyadic(4 * i.j) * E),
            "left_strip": str(Dyadic(2) * E),
            "right_strip": str(E),
        },
        lhs=str(measure),
        rhs=str(bound),
        passed=measure <= bound,
    )


def _residue_cells(rho: int, families: list[tuple], C: int, pi: int, windows: tuple) -> int:
    """Cells rho + pi*s of the escape set that `families` cover, for one
    residue rho: each family's runs of slots s, merged and clipped to the
    windows [-j, aI) and [bI, j)."""
    runs = []
    for y, g, m, G, P, q, inv, _ in families:
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
    if not runs:
        return 0
    runs.sort()
    merged = [list(runs[0])]
    for lo, hi in runs[1:]:
        if lo > merged[-1][1]:
            merged.append([lo, hi])
        elif hi > merged[-1][1]:
            merged[-1][1] = hi
    cells = 0
    for lo_x, hi_x in windows:
        # slots s with lo_x <= rho + pi*s < hi_x
        s_lo, s_hi = -((rho - lo_x) // pi), -((rho - hi_x) // pi)
        for lo, hi in merged:
            cells += max(0, min(hi, s_hi) - max(lo, s_lo))
    return cells


def _summed_cells(family: tuple, C: int, pi: int, windows: tuple, lo: int, hi: int) -> tuple[int, int]:
    """Cells one family (q <= C, q = -1 mod P) covers at its residues in
    [lo, hi), summed over t0 in closed form, and the number of pieces summed.

    Translate t0 + P*r puts the comb on the cells u + pi*s, u = y - g*t0, for
    the slots s in [L, C), L = -q*floor((m-1-t0)/P), since q <= C joins the
    runs.  Its residue (y + G*t0) mod pi steps by G, so [lo, hi) is at most
    two t0 ranges.  A window [A, B) keeps the slots from ha = ceil((A-u)/pi)
    to hb = ceil((B-u)/pi): min(C, hb) - max(L, ha) of them while hb > L and
    ha < C, else none.  L takes at most two values for t0 < P, and ha, hb
    never decrease in t0, so each range splits into a few pieces on which
    the length is one floor-linear form, summed by `floor_sum`.
    """
    y, g, m, G, P, q, _, T = family

    def first(K: int, V: int) -> int:
        """The least t0 with ceil((K + g*t0)/pi) >= V."""
        return -((K - 1 - pi * (V - 1)) // g)

    def ceil_sum(K: int, a: int, n: int) -> int:
        """The sum of ceil((K + g*t0)/pi) over t0 in [a, a + n)."""
        return floor_sum(n, pi, K + pi - 1 + g * a, g)

    yk = y // G % P
    k_lo, k_hi = (min(P, max(0, -((y % G - r) // G))) for r in (lo, hi))
    t_drop = (m - 1) % P + 1  # floor((m-1-t0)/P) drops by one here
    cells = pieces = 0
    for shift in (0, P):
        t_lo, t_hi = max(0, k_lo - yk + shift), min(T, k_hi - yk + shift)
        for u, v in ((t_lo, min(t_hi, t_drop)), (max(t_lo, t_drop), t_hi)):
            if u >= v:
                continue
            L = -q * ((m - 1 - u) // P)
            for A, B in windows:
                KA, KB = A - y, B - y
                to_C, to_ha, live, dead = first(KB, C), first(KA, L), first(KB, L + 1), first(KA, C)
                cuts = sorted({u, v, *(t for t in (to_C, to_ha, live, dead) if u < t < v)})
                for a, b in zip(cuts, cuts[1:]):
                    if live <= a < dead:
                        top = C * (b - a) if a >= to_C else ceil_sum(KB, a, b - a)
                        bottom = ceil_sum(KA, a, b - a) if a >= to_ha else L * (b - a)
                        cells += top - bottom
                        pieces += 1
    return cells, pieces


def _escape_cells(grid: _EscapeGrid, lo: int, hi: int) -> int:
    """Cells of the escape set whose residue mod the comb period lies in [lo, hi).

    In cells of the grid unit, a comb component is kappa cells wide and the
    comb repeats every pi cells.  Fix a segment (first F, gap g, count m) and
    a cell offset d < kappa: one family.  Its translate t puts cell d of a
    component on the residue (y - g*t) mod pi, y = base - F + d, so with
    G = gcd(g, pi) the translates t0 + P*r, P = pi/G, share a residue and
    each next one moves the comb by q = g/G slots: the family hits
    min(P, m) residues, one per t0.

    The family with the most residues among those with q <= C and
    q = -1 mod P (each step's own wide block) is summed in closed form
    (`_summed_cells`).  Every residue another family hits is enumerated, its
    families' runs merged (`_residue_cells`) and the summed family's own run
    there taken back out.  `ESCAPE_BUDGET` bounds the enumerated
    residue-families, the runs listed one per translate and the summed
    pieces; it is checked before any residue is listed.
    """
    C, pi, kappa = grid.components, grid.period, grid.width
    jneg, aI, bI, jpos = grid.window
    windows = ((jneg, aI), (bI, jpos))
    shapes, summable = [], []  # (y at d = 0, g, m, G, P, q, 1/q mod P, residues hit)
    listed = runs = 0
    for first, g, m in grid.segments:
        G = gcd(g, pi)
        P, q = pi // G, g // G
        shapes.append((grid.base - first, g, m, G, P, q, pow(q, -1, P), min(P, m)))
        if g and q <= C and (q + 1) % P == 0:
            summable.append(shapes[-1])
        listed += kappa * min(P, m)
        runs += kappa * m if q > C else 0
    dense = [max(summable, key=lambda s: s[7])] if summable else []
    summed, pieces = _summed_cells(dense[0], C, pi, windows, lo, hi) if dense else (0, 0)

    work = (listed - sum(s[7] for s in dense)) * len(shapes) * kappa + runs + pieces
    # checked before any family is listed: a fine gap makes kappa huge
    if work > ESCAPE_BUDGET:
        raise BudgetExceeded(f"escape work {work} exceeds budget {ESCAPE_BUDGET}")
    families = [(y + d, *rest) for y, *rest in shapes for d in range(kappa)]
    for s in dense:
        families.remove(s)
    hit = {r for y, g, *_, T in families for r in ((y - g * t) % pi for t in range(T)) if lo <= r < hi}
    return summed + sum(
        _residue_cells(rho, families + dense, C, pi, windows) - _residue_cells(rho, dense, C, pi, windows)
        for rho in hit
    )


def escape_measure(i: IndexJK, seq: GapBlockSeq) -> tuple[Dyadic, WitnessReport]:
    """Exact measure of [-j,j] ∩ (comb - prefix) minus the step's own window,
    summed over all residues of the comb period by `_escape_cells`."""
    grid = _escape_grid(i, seq)
    measure = Dyadic(_escape_cells(grid, 0, grid.period) * grid.unit, grid.e)
    return measure, _escape_report(i, grid, measure)


def escape_measure_bruteforce(
    i: IndexJK, seq: GapBlockSeq, budget: int = 6_000_000
) -> tuple[Dyadic, WitnessReport]:
    """Exact measure of [-j,j] ∩ (comb - prefix) minus the step's own window.

    Materializes every translated comb component meeting [-j,j] on a common
    power-of-two grid and sweeps; the test oracle for `escape_measure`,
    feasible at j=1 only, hence the budget guard.
    """
    grid = _escape_grid(i, seq)
    if grid.translates * grid.components > budget:
        raise BudgetExceeded(
            f"{grid.translates} translates x {grid.components} components exceeds budget {budget}"
        )
    a_s, per_s, w_s = grid.base, grid.period, grid.width
    jneg_s, aI_s, bI_s, jpos_s = grid.window

    los: list[int] = []
    for base0, gi, m_count in grid.segments:
        for t in range(m_count):
            left = a_s - (base0 + gi * t)
            for c in range(grid.components):
                los.append(left + per_s * c)

    los.sort()
    measure_s = 0
    for idx, lo in enumerate(los):
        hi = lo + w_s
        if idx + 1 < len(los) and los[idx + 1] < hi:
            hi = los[idx + 1]
        # clip to [-j, aI] u [bI, j]
        measure_s += max(0, min(hi, aI_s) - max(lo, jneg_s))
        measure_s += max(0, min(hi, jpos_s) - max(lo, bI_s))
    measure = Dyadic(measure_s * grid.unit, grid.e)
    return measure, _escape_report(i, grid, measure)


def borel_cantelli_partial(jmax: int) -> tuple[Dyadic, Dyadic]:
    """Partial sum of the per-row escape budgets (8j^2+6j)*2^(-2j*2^j+j) and a
    geometric tail majorant equal to twice the first omitted term.

    The majorant is valid because consecutive terms shrink by more than half:
    the polynomial factor grows by at most 4x while the power drops by at
    least 2^-11; both facts are checked exactly here.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")

    def term(j: int) -> Dyadic:
        return Dyadic(8 * j * j + 6 * j, -2 * j * 2**j + j)

    partial = ZERO
    for j in range(1, jmax + 1):
        partial = partial + term(j)
    for j in range(1, jmax + 2):
        if not term(j + 1) * 2 <= term(j):
            raise Violation(f"tail ratio bound fails at {j}")
    tail = term(jmax + 1) * 2
    return partial, tail


def smoothing_measure(uG: Sequence[IndexJK], seq: GapBlockSeq) -> WitnessReport:
    """Support added per unit window by the continuous envelope of the combs
    of the indices in uG: 1 on every comb component, 0 outside symmetric
    ramps of half-width delta per component edge.

    The comb of scale s, with base a = 2^s and C = 2^s components, adds
    delta to the window [a-1, a] (its first ramp) and delta*(2C-1) to
    [a, a+1].  Each window [M-1, M] must get strictly less than 2^-M / L_M
    with L_M the number of points up to 10M; L_M is replaced by its
    power-of-two upper bound so the comparison stays dyadic (strictly
    stronger than the original requirement).  With c = bitlen(L_{a+1} - 1),
    delta = 2^-(a+1+c+s+2) meets both windows and keeps neighbouring ramps
    apart (2*delta < E^2 - E^3); all three are checked here, and no
    breakpoint is formed.
    """
    added: dict[int, Dyadic] = {}
    bound: dict[int, Dyadic] = {}
    rows = []
    ramps_apart = True
    for i in uG:
        s = i.scale_exp()
        a = C = 1 << s
        if seq.last_value < Dyadic(10 * (a + 1)):
            raise IndexError(f"prefix too short to count points up to {10 * (a + 1)}")
        counts = {m: seq.count_upto(Dyadic(10 * m)) for m in (a, a + 1)}
        for m, lm in counts.items():
            bound[m] = Dyadic(1, -(m + (lm - 1).bit_length()))
        c = (counts[a + 1] - 1).bit_length()
        delta = Dyadic(1, -(a + 1 + c + s + 2))
        ramps_apart = ramps_apart and delta + delta < Dyadic(C - 1, -3 * s)
        added[a] = added.get(a, ZERO) + delta
        added[a + 1] = added.get(a + 1, ZERO) + delta * (2 * C - 1)
        rows.append({"index": str(i), "delta": str(delta), "points_upto_10N": str(counts[a + 1])})

    ms = sorted(added)
    return WitnessReport(
        claim="smoothing-measure",
        params={
            "sets": rows,
            "windows": {str(m): {"added": str(added[m]), "bound": str(bound[m])} for m in ms},
        },
        lhs="; ".join(str(added[m]) for m in ms),
        rhs="; ".join(str(bound[m]) for m in ms),
        passed=ramps_apart and all(added[m] < bound[m] for m in ms),
    )
