"""Brute-force enumerations the closed forms in `dyadlab` are checked against.

Each one lists every point or interval explicitly, so it is only usable at
oracle sizes; the library never enumerates.
"""

from typing import Iterable, Iterator

from dyadlab.exactnum import ZERO, Dyadic, DyInterval
from dyadlab.lattice import GapBlockSeq, PeriodicIntervalSet


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
