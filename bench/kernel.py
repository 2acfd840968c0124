"""Fixed pure-Python reference kernel used to normalize timings.

Host speed drifts by up to 2x, and CPU time drifts with it, so raw op times
are not comparable between runs.  On the reference host the speed flips
between a fast and a slow state every few hundred milliseconds, and the share
of slow time itself drifts over seconds, so a kernel run only before and after
a multi-second op says little about the op.  The kernel is therefore short
(a few milliseconds): it brackets every op and also runs as a probe from a
timer inside the op, and the op's time is scaled by the mean of
C_REF / (kernel time) over those runs.  The result reads as seconds on a host
running at reference speed.

The kernel belongs to the benchmark and must never change with the program:
editing it (or C_REF) silently rescales every recorded result.  Its mix
mirrors the program's: big-integer shifts and products of a few hundred bits,
small-int arithmetic, attribute access on slotted objects, method calls, and a
dict and a sort.
"""

from __future__ import annotations

import time

# Kernel seconds on the reference host (2 vCPU Intel Xeon, Python 3.11.7) at
# its typical speed.  Normalized results are in seconds at this speed.
C_REF = 0.0010

_ROUNDS = 180
_WARM_ROUNDS = 30
_CHECKSUM = 0xFFFFFFFFFFFF42D1  # what _work() returns; a mismatch means the kernel changed


class _Num:
    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int):
        if m:
            shift = (m & -m).bit_length() - 1
            m, e = m >> shift, e + shift
        else:
            e = 0
        self.m = m
        self.e = e

    def add(self, other: "_Num") -> "_Num":
        e = min(self.e, other.e)
        return _Num((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def mul(self, other: "_Num") -> "_Num":
        return _Num(self.m * other.m, self.e + other.e)


def _work(rounds: int) -> int:
    acc = _Num(3, -7)
    step = _Num((1 << 257) + 12345, -300)
    table: dict[int, int] = {}
    keys: list[int] = []
    x = 0x9E3779B97F4A7C15
    for i in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        acc = acc.add(step).mul(_Num(x | 1, -64))
        if acc.m.bit_length() > 512:
            acc = _Num(acc.m >> (acc.m.bit_length() - 256), acc.e)
        k = x >> 48
        table[k] = table.get(k, 0) + i
        keys.append(k ^ i)
    keys.sort()
    return (acc.m ^ acc.e ^ sum(keys[::97]) ^ len(table)) & ((1 << 64) - 1)


def run_kernel() -> float:
    """Run the kernel once and return its wall time in seconds.

    A short untimed warm-up comes first: a probe fires inside an op whose
    working set has evicted the kernel's code and data, and the cold-cache
    cost would make the probe's time depend on the program being measured."""
    _work(_WARM_ROUNDS)
    t0 = time.perf_counter()
    check = _work(_ROUNDS)
    dt = time.perf_counter() - t0
    if check != _CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {check:#x} != {_CHECKSUM:#x}")
    return dt

