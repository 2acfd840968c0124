"""Decreasing-gap dense construction with divergence on [0,1], convergence on [4,5].

Each decade [10j-10, 10j) carries two lattices: a coarse one of step 2^-2^j on
[10j-10, 10j-2) and a fine one of step 2^-2^(j+1) on [10j-2, 10j).  The bump
over [10j, 10j+1] has height 2^-2^(j+1), matched to the fine step, so shifts
from [0,1] collect a full unit of mass per decade while shifts from [4,5] see
only the coarse lattice crossing each bump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .exactnum import Dyadic, DyInterval, GuardExceeded, PiecewiseLinear, ZERO, span_guard
from .lattice import GapBlock, GapBlockSeq, RunSums
from .report import OutOfInterval, WitnessReport


@dataclass(frozen=True)
class Thm33Construction:
    """Decade j is gap blocks 2j-2 (coarse) and 2j-1 (fine); each decade's
    fine block ends on the first point of the next one.  `tables` holds one
    `RunSums` of f over each decade's two runs, left out of `==`."""

    jmax: int
    seq: GapBlockSeq
    f: PiecewiseLinear
    tables: tuple[RunSums, ...] = field(repr=False, compare=False)


def build_thm33(jmax: int) -> Thm33Construction:
    """Decade j, in X = 2^(2^j): 8X gaps 1/X from 10j-10, then 2X^2 gaps
    1/X^2 from 10j-2 (one fewer at j = jmax, so the prefix stops below
    10*jmax), and a bump of height 1/X^2 on the knots 10j - 1/4, 10j,
    10j + 1, 10j + 5/4.  Its points [10j-10, 10j) are two runs read off its
    two blocks: the point before the coarse block and that block's points,
    then the fine block's points less its last when that is the next
    decade's first."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    blocks, knots = [], []
    for j in range(1, jmax + 1):
        # the fine count, the widest, has 2^(j+1) + 2 bits: refuse it before
        # it is computed, not after (at large j it would not fit in memory)
        bits = 2 ** (j + 1) + 2
        if bits > span_guard():
            raise GuardExceeded(f"decade {j} fine block count needs {bits} bits (guard {span_guard()})")
        X = 2 ** (2**j)
        fine = Dyadic(1, -(2 ** (j + 1)))
        blocks.append(GapBlock(Dyadic(1, -(2**j)), 8 * X, f"decade-{j}:coarse"))
        blocks.append(GapBlock(fine, 2 * X * X - (j == jmax), f"decade-{j}:fine"))
        base = Dyadic(10 * j)
        knots += [(base - Dyadic(1, -2), ZERO), (base, fine), (base + 1, fine), (base + Dyadic(5, -2), ZERO)]
    seq = GapBlockSeq(ZERO, blocks)
    f = PiecewiseLinear(knots)
    tables = []
    for b in range(0, len(seq.blocks), 2):
        (coarse, n0, _), (fine, n1, _) = seq.blocks[b : b + 2]
        # one fine gap past the point before the fine block, summed in ints
        m, e = seq.start_pair(b + 1)
        k = min(e, fine.e)
        fine_first = Dyadic((m << e - k) + (fine.m << fine.e - k), k)
        then = b + 2 < len(seq.blocks)  # the fine block's last point opens the next decade
        tables.append(RunSums(f, [(Dyadic(*seq.start_pair(b)), coarse, n0 + 1), (fine_first, fine, n1 - then)]))
    return Thm33Construction(jmax, seq, f, tuple(tables))


def decade_sums(cons: Thm33Construction, x: Dyadic) -> list[Dyadic]:
    """Exact sum of f(x + point) over the points of each decade 1..jmax."""
    return [table.at(x) for table in cons.tables]


def shift_invariant_decade_sums(cons: Thm33Construction, lo: Dyadic, hi: Dyadic) -> list[Dyadic] | None:
    """Every decade's sum, 1..jmax, valid for all x in [lo, hi] at once, or
    None when `RunSums.constant_on` cannot certify one of the tables."""
    sums = [table.constant_on(lo, hi) for table in cons.tables]
    return None if None in sums else sums


def divergence_partial(cons: Thm33Construction, x: Dyadic) -> Dyadic:
    """Exact sum of f(x + point) over every point, decades 1..jmax."""
    if not DyInterval.closed(0, 1).contains(x):
        raise OutOfInterval(f"{x} outside [0, 1]")
    return sum(decade_sums(cons, x), ZERO)


def convergence_tail_check(cons: Thm33Construction, x: Dyadic, sums: list[Dyadic]) -> WitnessReport:
    """Per-decade sums at a shift in [4,5] stay under 2*2^(2^j)*2^(-2^(j+1)).

    Only the coarse lattice of decade j can reach the decade-j bump from
    [4,5], giving at most about 1.5*2^(2^j) hits of height 2^-2^(j+1); the
    factor-2 bound absorbs the ramps.  The unbuilt decades contribute at most
    twice the first omitted bound (terms at least halve).  `sums` are the
    decade sums at x: `decade_sums(cons, x)`, or the table
    `shift_invariant_decade_sums` certifies for all of [4,5].
    """
    if not DyInterval.closed(4, 5).contains(x):
        raise OutOfInterval(f"{x} outside [4, 5]")
    per_decade = []
    total = ZERO
    ok = True
    for j, s in enumerate(sums, 1):
        bound = Dyadic(1, 1 - 2**j)
        per_decade.append({"j": j, "sum": str(s), "bound": str(bound)})
        total = total + s
        if s > bound:
            ok = False
    tail = Dyadic(1, 2 - 2 ** (cons.jmax + 1))
    return WitnessReport(
        claim="thm33-converge",
        params={"x": str(x), "per_decade": per_decade, "total": str(total), "tail_majorant": str(tail)},
        lhs=str(total),
        rhs=str(sum((Dyadic(1, 1 - 2**j) for j in range(1, cons.jmax + 1)), ZERO) + tail),
        passed=ok,
    )


def thm34_probe(cons: Thm33Construction, xc: Dyadic, samples: int, seed: int) -> WitnessReport:
    """Sample shifts to the right of an interior convergence point and verify
    each decade's contribution stays under its summable majorant.

    For any shift right of 13/4 the fine lattice of a decade cannot reach its
    own bump, so decade j contributes at most 2^(1-2^j) through its coarse
    lattice plus 2^(1-2^(j+1)) through its fine lattice hitting later bumps.
    The probe asserts only these upper bounds; divergence can never be
    concluded from a finite prefix, so failures are reported, not asserted.
    """
    if not (Dyadic(4) < xc < Dyadic(5)):
        raise OutOfInterval(f"{xc} not interior to [4, 5]")
    rng = random.Random(seed)
    top = Dyadic(10 * cons.jmax)
    failures = []
    checked = []
    majorants = [Dyadic(1, 1 - 2**j) + Dyadic(1, 1 - 2 ** (j + 1)) for j in range(1, cons.jmax + 1)]
    for s in range(samples):
        y = xc + (top - xc) * Dyadic(rng.getrandbits(40), -40)
        for j, (t, mu) in enumerate(zip(decade_sums(cons, y), majorants), 1):
            if t > mu:
                failures.append({"sample": s, "y": str(y), "j": j, "sum": str(t), "majorant": str(mu)})
        checked.append(str(y))
    params = {"xc": str(xc), "samples": samples, "seed": seed, "failures": failures, "sampled": checked[:10]}
    if not samples:
        params["informational"] = True  # no shift probed, nothing asserted
    return WitnessReport(
        claim="thm34-probe",
        params=params,
        lhs=str(len(failures)),
        rhs="0",
        passed=not failures,
    )
