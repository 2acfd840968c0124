"""Exact dyadic-rational scalars, intervals, interval unions, and piecewise-linear
functions.

Every scalar in this package is a dyadic rational m*2^e with arbitrary-precision
integer mantissa and exponent.  There is no floating point anywhere in the core
and no general rational type: division is only defined where the quotient is
again dyadic, and failure of that is a meaningful signal (a violated
integrality claim), not a rounding event.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# Mantissas and block counts legitimately reach hundreds of thousands of
# decimal digits; the interpreter's int<->str conversion cap (a guard against
# hostile input, default 4300 digits) would break their serialization.  The
# cap is raised to _STR_DIGITS at import and, by set_span_guard, far enough
# for any mantissa under the span guard; it is never lowered.
_STR_DIGITS = 400_000
# Digits allowed beyond the span guard's own width, for the narrower operand
# of a sum; the interpreter's default cap.
_STR_DIGITS_MARGIN = 4300
_MAX_STR_DIGITS = 2**31 - 1  # the cap is a C int


def _allow_str_digits(digits: int) -> None:
    if not hasattr(sys, "get_int_max_str_digits"):
        return
    cap = sys.get_int_max_str_digits()
    if cap and cap < digits:  # 0 means no cap at all
        sys.set_int_max_str_digits(digits)


_allow_str_digits(_STR_DIGITS)


class GuardExceeded(ArithmeticError):
    """An operation would allocate a mantissa above the configured bit limit."""


def grid_error(what: str, width: int, g: int) -> GuardExceeded:
    """The one refusal of every int kernel: `what` needs `width` bits on the grid 2^g."""
    return GuardExceeded(f"{what} needs {width} bits on the grid 2^{g} (guard {_span_guard})")


class NotExact(ArithmeticError):
    """The result of an operation is not a dyadic rational."""


# Additions between scalars whose exponents differ by more than this many bits
# would silently allocate giant mantissas (e.g. adding a 2^-N smoothing slack
# with N in the millions to a unit-scale number).  Such additions raise
# GuardExceeded instead.
_DEFAULT_SPAN_GUARD = 1 << 20
_span_guard = _DEFAULT_SPAN_GUARD


def span_guard() -> int:
    return _span_guard


def set_span_guard(bits: int) -> int:
    """Set the mantissa bit budget; returns the previous value.

    Also raises the interpreter's int<->str digit cap, never lowering it, so
    that any mantissa within the budget can be printed and parsed.  A budget
    whose digit count the cap cannot hold (above about 7.13e9 bits) raises
    ValueError and leaves the guard unchanged.
    """
    global _span_guard
    if bits < 64:
        raise ValueError("span guard below 64 bits is unusable")
    # 30103/100000 > log10(2), so this is at least ceil(bits * log10(2))
    digits = bits * 30103 // 100_000 + 1 + _STR_DIGITS_MARGIN
    if digits > _MAX_STR_DIGITS:
        raise ValueError(f"span guard {bits} bits needs {digits}-digit mantissas, past Python's int->str limit")
    _allow_str_digits(digits)
    old = _span_guard
    _span_guard = bits
    return old


_HASH_MODULUS = sys.hash_info.modulus
# Messages print a mantissa in full only below this bound (40 digits).
_BRIEF_MANTISSA = 10**40

_DYADIC_RE = re.compile(r"^(-?\d+)(?:\*2\^(-?\d+))?$")
# 'm*2^e' in ASCII digits with nothing around it, as `str` writes it: a string
# this matches, _DYADIC_RE matches after strip() with the same groups.
_ASCII_DYADIC = re.compile(r"(-?[0-9]+)\*2\^(-?[0-9]+)")
_DECIMAL_RE = re.compile(r"^(-?)(\d+)(?:\.(\d+))?$")


class Dyadic:
    """Immutable exact number m*2^e, kept canonical (m odd, or m = 0 and e = 0)."""

    __slots__ = ("m", "e")

    def __init__(self, mantissa: int, exponent: int = 0):
        if mantissa == 0:
            _set_m(self, 0)
            _set_e(self, 0)
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            _set_m(self, mantissa >> shift)
            _set_e(self, exponent + shift)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default
        # slot-state restore would go through the raising __setattr__
        return Dyadic, (self.m, self.e)

    # -- constructors ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse 'm*2^e', a plain integer, or an exact decimal like '0.75'."""
        if isinstance(text, str) and (f := _ASCII_DYADIC.fullmatch(text)):
            m = int(f[1])
            return _raw(m, int(f[2])) if m & 1 else cls(m, int(f[2]))
        s = text.strip() if isinstance(text, str) else ""
        m = _DYADIC_RE.match(s)
        if m:
            return cls(int(m.group(1)), int(m.group(2) or 0))
        d = _DECIMAL_RE.match(s)
        if d:
            sign = -1 if d.group(1) else 1
            digits = d.group(2) + (d.group(3) or "")
            ndec = len(d.group(3) or "")
            num = sign * int(digits)
            # num / 10^ndec is dyadic iff 5^ndec divides num
            five = 5**ndec
            if num % five:
                raise NotExact(f"{text!r} is not a dyadic rational")
            return cls(num // five, -ndec)
        raise ValueError(f"cannot parse dyadic scalar from {text!r}")

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.m}*2^{self.e}"

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.e})"

    def to_decimal(self) -> str | None:
        """Exact decimal rendering, offered only when the exponent is >= -64."""
        if self.e < -64:
            return None
        if self.e >= 0:
            return str(self.m << self.e)
        n = -self.e
        scaled = abs(self.m) * 5**n  # |m|*2^e = scaled / 10^n
        digits = str(scaled).rjust(n + 1, "0")
        sign = "-" if self.m < 0 else ""
        return f"{sign}{digits[:-n]}.{digits[-n:]}"

    # -- arithmetic -------------------------------------------------------
    # Every operator takes a `type(other) is Dyadic` fast path and coerces
    # only ints.  Results whose form parity settles (odd times odd is odd;
    # see `_sum` for sums) are built by `_raw` without re-canonicalizing.

    def __add__(self, other) -> "Dyadic":
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not self.m:
            return other
        if not other.m:
            return self
        return _sum(self.m, self.e, other.m, other.e)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return _raw(-self.m, self.e)

    def __sub__(self, other) -> "Dyadic":
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.m:
            return self
        if not self.m:
            return -other
        return _sum(self.m, self.e, -other.m, other.e)

    def __rsub__(self, other) -> "Dyadic":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.m:
            return other
        if not other.m:
            return -self
        return _sum(other.m, other.e, -self.m, self.e)

    def __mul__(self, other) -> "Dyadic":
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        m = self.m * other.m
        if not m:
            return ZERO
        return _raw(m, self.e + other.e)

    __rmul__ = __mul__

    def div_exact(self, other) -> "Dyadic":
        """Exact quotient; raises NotExact when self/other is not dyadic."""
        o = other if type(other) is Dyadic else _coerce(other)
        if o is None:
            raise TypeError(f"cannot divide Dyadic by {type(other).__name__}")
        if not o.m:
            raise ZeroDivisionError("division by zero")
        if not self.m:
            return ZERO
        q, r = divmod(self.m, o.m)
        if r:
            raise NotExact(f"{self} / {o} is not a dyadic rational")
        return _raw(q, self.e - o.e)  # an exact quotient of odd mantissas is odd

    def __divmod__(self, other) -> tuple[int, "Dyadic"]:
        """Floor ratio: (q, r) with self = q*other + r, 0 <= r < other; other > 0."""
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if other.m <= 0:
            raise ValueError("floor ratio requires a positive divisor")
        e = min(self.e, other.e)
        shift_a, shift_b = self.e - e, other.e - e
        if self.m and max(
            self.m.bit_length() + shift_a, other.m.bit_length() + shift_b
        ) > _span_guard:
            raise GuardExceeded(f"floor ratio span too wide: {_brief(self)} vs {_brief(other)}")
        q, r = divmod(self.m << shift_a, other.m << shift_b)
        return q, Dyadic(r, e)

    def __floordiv__(self, other) -> int:
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Dyadic":
        return divmod(self, other)[1]

    def is_integer(self) -> bool:
        return self.e >= 0

    def as_integer(self) -> int:
        """The exact integer value; NotExact when the exponent is negative."""
        if self.e < 0:
            raise NotExact(f"{self} is not an integer")
        return self.m << self.e

    def floor(self) -> int:
        if self.e >= 0:
            return self.m << self.e
        return self.m >> -self.e

    def ceil(self) -> int:
        return -(-self).floor()

    def __abs__(self) -> "Dyadic":
        return self if self.m >= 0 else _raw(-self.m, self.e)

    def __bool__(self) -> bool:
        return self.m != 0

    # -- comparison ---------------------------------------------------------
    # Comparison never aligns mantissas across the full exponent span: the
    # magnitudes 2^(e + bitlen(m)) decide first, so comparing 2^-1000000 with 1
    # is cheap.

    def _cmp(self, other: "Dyadic") -> int:
        am, ae, bm, be = self.m, self.e, other.m, other.e
        if ae == be:  # zero has e = 0, so past here a zero faces a nonzero
            return (am > bm) - (am < bm)
        if am > 0:
            if bm <= 0:
                return 1
            sign = 1
        elif am < 0:
            if bm >= 0:
                return -1
            sign = -1
        else:
            return -1 if bm > 0 else 1
        # same sign: compare magnitude exponents, 2^(bitlen(m)-1) <= |m| < 2^bitlen(m)
        ta = ae + am.bit_length()
        tb = be + bm.bit_length()
        if ta != tb:
            return sign if ta > tb else -sign
        # equal magnitude exponent: the alignment shift is bounded by mantissa widths
        e = min(ae, be)
        a = am << (ae - e)
        b = bm << (be - e)
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.m == other.m and self.e == other.e

    def __lt__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        # Python's numeric hash, m*2^e reduced modulo a Mersenne prime, so an
        # integer-valued Dyadic hashes as the int it equals.
        h = abs(self.m) % _HASH_MODULUS * pow(2, self.e, _HASH_MODULUS) % _HASH_MODULUS
        h = h if self.m >= 0 else -h
        return -2 if h == -1 else h


_new_dyadic = object.__new__
# The slot descriptors write past the immutability guard in `__setattr__`.
_set_m = Dyadic.m.__set__
_set_e = Dyadic.e.__set__


def _raw(m: int, e: int) -> Dyadic:
    """A Dyadic from a pair already canonical (m odd, or m = 0 and e = 0),
    built without `__init__`; the caller vouches for the form."""
    d = _new_dyadic(Dyadic)
    _set_m(d, m)
    _set_e(d, e)
    return d


def _coerce(other) -> Dyadic | None:
    """An int operand as a Dyadic; None for any other type."""
    if isinstance(other, int):
        return Dyadic(other)
    return None


def _sum(am: int, ae: int, bm: int, be: int) -> Dyadic:
    """am*2^ae + bm*2^be for canonical nonzero operands, under the span guard.

    Only a sum of equal exponents (odd plus odd, so even) is re-canonicalized;
    otherwise the odd mantissa of the smaller exponent keeps the sum odd.
    """
    if ae < be:
        shift = be - ae
        if bm.bit_length() + shift > _span_guard or am.bit_length() > _span_guard:
            raise _span_error(am, ae, bm, be)
        return _raw(am + (bm << shift), ae)
    if be < ae:
        shift = ae - be
        if am.bit_length() + shift > _span_guard or bm.bit_length() > _span_guard:
            raise _span_error(am, ae, bm, be)
        return _raw((am << shift) + bm, be)
    if am.bit_length() > _span_guard or bm.bit_length() > _span_guard:
        raise _span_error(am, ae, bm, be)
    m = am + bm
    if not m:
        return ZERO
    shift = (m & -m).bit_length() - 1
    return _raw(m >> shift, ae + shift)


def _span_error(am: int, ae: int, bm: int, be: int) -> GuardExceeded:
    emin = min(ae, be)
    width = max(am.bit_length() + ae - emin, bm.bit_length() + be - emin)
    return GuardExceeded(
        f"aligned mantissa would need {width} bits "
        f"(guard {_span_guard}): {_brief(_raw(am, ae))} + {_brief(_raw(bm, be))}"
    )


ZERO = Dyadic(0)
ONE = Dyadic(1)


def _brief(d: Dyadic) -> str:
    """`d` for a message: in full when its mantissa has at most 40 digits,
    else only its width, so a guard message never converts a wide mantissa."""
    if abs(d.m) < _BRIEF_MANTISSA:
        return str(d)
    return f"{'-' if d.m < 0 else ''}<{d.m.bit_length()}-bit mantissa>*2^{d.e}"


def scaled_ints(values: Sequence[Dyadic]) -> tuple[list[int], int]:
    """Rescale dyadics to integers on a common power-of-two grid.

    Returns (ints, e) with values[i] = ints[i]*2^e; e is the minimum exponent
    among the nonzero inputs (0 if all are zero).
    """
    nonzero = [v.e for v in values if v.m]
    if not nonzero:
        return [0 for _ in values], 0
    e = min(nonzero)
    out = []
    for v in values:
        shift = v.e - e
        if v.m and v.m.bit_length() + shift > _span_guard:
            raise grid_error("common grid", v.m.bit_length() + shift, e)
        out.append(v.m << shift if v.m else 0)
    return out, e


@dataclass(frozen=True, slots=True, repr=False)
class DyInterval:
    """Interval with dyadic endpoints and per-endpoint closedness flags."""

    lo: Dyadic
    hi: Dyadic
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.closed_lo and self.closed_hi):
            raise ValueError("degenerate interval must be closed on both ends")

    @classmethod
    def closed(cls, lo, hi) -> "DyInterval":
        return cls(_as_dyadic(lo), _as_dyadic(hi), True, True)

    @classmethod
    def open(cls, lo, hi) -> "DyInterval":
        return cls(_as_dyadic(lo), _as_dyadic(hi), False, False)

    @classmethod
    def parse(cls, text: str) -> "DyInterval":
        s = text.strip() if isinstance(text, str) else ""
        parts = s[1:-1].split(",")
        if len(parts) != 2 or s[0] not in "[(" or s[-1] not in "])":
            raise ValueError(f"cannot parse interval from {text!r}")
        lo_s, hi_s = parts
        return cls(
            Dyadic.parse(lo_s),
            Dyadic.parse(hi_s),
            closed_lo=s[0] == "[",
            closed_hi=s[-1] == "]",
        )

    def __str__(self) -> str:
        lb = "[" if self.closed_lo else "("
        rb = "]" if self.closed_hi else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"

    __repr__ = __str__

    def contains(self, x: Dyadic) -> bool:
        if self.closed_lo:
            if x < self.lo:
                return False
        elif x <= self.lo:
            return False
        if self.closed_hi:
            return x <= self.hi
        return x < self.hi

    def covers(self, other: "DyInterval") -> bool:
        """True when every point of `other` lies in self (closedness-aware)."""
        if other.lo < self.lo or (other.lo == self.lo and other.closed_lo and not self.closed_lo):
            return False
        if other.hi > self.hi or (other.hi == self.hi and other.closed_hi and not self.closed_hi):
            return False
        return True


def _as_dyadic(x) -> Dyadic:
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x)
    raise TypeError(f"expected Dyadic or int, got {type(x).__name__}")


@dataclass(frozen=True, slots=True, repr=False)
class IntervalUnion:
    """An open set: the ordered union of pairwise-disjoint open intervals.

    Every part must be open (ValueError otherwise).  Overlapping parts are
    merged on construction from any iterable of intervals; parts that only
    share an endpoint, such as (a,b) and (b,c), stay apart, since that point
    belongs to neither.  So the representation is canonical and the total
    measure is a plain sum.
    """

    parts: tuple[DyInterval, ...] = ()

    def __post_init__(self):
        merged: list[DyInterval] = []
        for iv in sorted(self.parts, key=lambda iv: iv.lo):
            if iv.closed_lo or iv.closed_hi:
                raise ValueError(f"open-set part {iv} is not an open interval")
            if merged and iv.lo < merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = DyInterval.open(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        object.__setattr__(self, "parts", tuple(merged))

    def contains_interval(self, iv: DyInterval) -> bool:
        """True when some single part covers `iv` entirely."""
        return any(p.covers(iv) for p in self.parts)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"

    __repr__ = __str__

    @classmethod
    def from_json(cls, items: Iterable[str]) -> "IntervalUnion":
        return cls(DyInterval.parse(s) for s in items)


@dataclass(frozen=True, slots=True, repr=False, init=False)
class PiecewiseLinear:
    """Compactly supported continuous function given by dyadic breakpoints.

    Linear between consecutive breakpoints, zero outside their span; the first
    and last values must be zero and all values nonnegative.  The knots and
    the values are also kept as ints on one power-of-two grid each,
    xs[i] = x_ints[i]*2^x_exp and vs[i] = v_ints[i]*2^v_exp, with the piece
    widths x_gaps[i] = x_ints[i+1] - x_ints[i], each positive, for the
    integer kernels in `lattice`; those fields are left out of `==`.
    """

    xs: tuple[Dyadic, ...]
    vs: tuple[Dyadic, ...]
    x_ints: tuple[int, ...] = field(compare=False)
    x_gaps: tuple[int, ...] = field(compare=False)
    x_exp: int = field(compare=False)
    v_ints: tuple[int, ...] = field(compare=False)
    v_exp: int = field(compare=False)

    def __init__(self, breakpoints: Iterable[tuple[Dyadic, Dyadic]]):
        pts = list(breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        xs = tuple(p[0] for p in pts)
        vs = tuple(p[1] for p in pts)
        if vs[0] or vs[-1]:
            raise ValueError("support must be compact: first and last values must be 0")
        for v in vs:
            if v.m < 0:
                raise ValueError("values must be nonnegative")
        # the order is checked on the int grid: one subtraction per piece
        x_ints, x_exp = scaled_ints(xs)
        x_gaps = tuple(b - a for a, b in zip(x_ints, x_ints[1:]))
        for i, w in enumerate(x_gaps):
            if w <= 0:
                raise ValueError(f"breakpoints not strictly increasing at {xs[i]}")
        v_ints, v_exp = scaled_ints(vs)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "x_ints", tuple(x_ints))
        object.__setattr__(self, "x_gaps", x_gaps)
        object.__setattr__(self, "x_exp", x_exp)
        object.__setattr__(self, "v_ints", tuple(v_ints))
        object.__setattr__(self, "v_exp", v_exp)

    def to_json(self) -> list[list[str]]:
        return [[str(x), str(v)] for x, v in zip(self.xs, self.vs)]
