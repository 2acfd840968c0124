"""Dyadic scalar, interval, union, and piecewise-linear arithmetic checks.

The independent oracle throughout is fractions.Fraction; the core never uses
it, so agreement here is a genuine cross-check.
"""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from dyadlab.exactnum import (
    Dyadic,
    DyInterval,
    GuardExceeded,
    IntervalUnion,
    NotExact,
    PiecewiseLinear,
    ZERO,
    ONE,
    set_span_guard,
    span_guard,
)
from oracles import parse_dyadic_regex, pl_eval, total_length


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.m) * Fraction(2) ** d.e


def dy(s: str) -> Dyadic:
    return Dyadic.parse(s)


def assert_canonical(d: Dyadic) -> None:
    assert type(d.m) is int and type(d.e) is int
    assert d.m & 1 or (d.m, d.e) == (0, 0), (d.m, d.e)


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-64, max_value=64),
)


class TestDyadicBasics:
    def test_canonical_form(self):
        d = Dyadic(12, 3)  # 12*2^3 = 3*2^5
        assert (d.m, d.e) == (3, 5)
        assert (Dyadic(0, 17).m, Dyadic(0, 17).e) == (0, 0)

    def test_add_examples(self):
        assert Dyadic(3, -3) + Dyadic(1, -3) == Dyadic(1, -1)
        x = Dyadic(123, -7)
        assert x + ZERO == x
        # 15 + 160*(2^-8 - 2^-12): repeated-addition oracle over 160 terms
        acc = Dyadic(15)
        term = Dyadic(1, -8) - Dyadic(1, -12)
        for _ in range(160):
            acc = acc + term
        assert acc == Dyadic(1995, -7)
        assert acc == Dyadic(15) + term * 160

    def test_mul_examples(self):
        assert Dyadic(1, -4) * Dyadic(1, -4) == Dyadic(1, -8)
        a = Dyadic(77, -13)
        assert a * ONE == a
        assert Dyadic(4 * 1 + 3) * Dyadic(1, -4) == Dyadic(7, -4)

    def test_div_exact_examples(self):
        # steps of 2^-9 from 15+75/128 up to 31.5
        lhs = dy("63*2^-1") - Dyadic(1995, -7)
        assert lhs.div_exact(Dyadic(1, -9)) == Dyadic(8148)
        assert ZERO.div_exact(Dyadic(5, -3)) == ZERO
        with pytest.raises(NotExact):
            ONE.div_exact(Dyadic(3))
        with pytest.raises(ZeroDivisionError):
            ONE.div_exact(ZERO)

    def test_floor_ratio_examples(self):
        assert divmod(Dyadic(11, -12), Dyadic(1, -12)) == (11, ZERO)
        a, b = Dyadic(3, -5), Dyadic(1, -2)
        assert divmod(a, b) == (0, a)
        assert divmod(Dyadic(7, -3), Dyadic(1, -2)) == (3, Dyadic(1, -3))

    def test_floor_ceil(self):
        assert Dyadic(7, -3).floor() == 0
        assert Dyadic(7, -3).ceil() == 1
        assert Dyadic(-7, -3).floor() == -1
        assert Dyadic(-7, -3).ceil() == 0
        assert Dyadic(5, 1).floor() == 10

    def test_parse_print_roundtrip_identity(self):
        rng = random.Random(20260810)
        for _ in range(500):
            d = Dyadic(rng.randint(-(2**80), 2**80), rng.randint(-200, 200))
            assert Dyadic.parse(str(d)) == d

    def test_parse_decimal(self):
        assert dy("0.75") == Dyadic(3, -2)
        assert dy("-2.5") == Dyadic(-5, -1)
        assert dy("16") == Dyadic(1, 4)
        with pytest.raises(NotExact):
            dy("0.1")

    def test_decimal_rendering(self):
        assert Dyadic(1995, -7).to_decimal() == "15.5859375"
        assert Dyadic(-3, -2).to_decimal() == "-0.75"
        assert Dyadic(5, 2).to_decimal() == "20"
        assert Dyadic(1, -65).to_decimal() is None

    def test_span_guard(self):
        with pytest.raises(GuardExceeded):
            ONE + Dyadic(1, -(1 << 21))
        # representable on its own, and multiplication is span-free
        tiny = Dyadic(1, -(1 << 21))
        assert tiny * tiny == Dyadic(1, -(1 << 22))

    def test_guard_message_prints_operands_up_to_40_digits(self):
        short = Dyadic(10**40 - 1, -200)  # 40 digits: printed in full
        wide = Dyadic(-(10**40 + 1), -200)  # 41 digits: only its width
        brief = f"-<{(10**40 + 1).bit_length()}-bit mantissa>*2^-200"
        old = set_span_guard(64)
        try:
            with pytest.raises(GuardExceeded) as exc:
                Dyadic(3) + short
            assert str(exc.value).endswith(f": 3*2^0 + {short}")
            with pytest.raises(GuardExceeded) as exc:
                Dyadic(3) + wide
            assert str(exc.value).endswith(f": 3*2^0 + {brief}")
            with pytest.raises(GuardExceeded) as exc:
                divmod(wide, Dyadic(3))
            assert str(exc.value) == f"floor ratio span too wide: {brief} vs 3*2^0"
        finally:
            set_span_guard(old)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit cap")
    def test_span_guard_raises_str_digit_cap(self):
        # a 2M-bit guard admits mantissas of ceil(2e6 * log10 2) = 602060 digits
        cap = sys.get_int_max_str_digits()
        old = set_span_guard(2_000_000)
        try:
            assert sys.get_int_max_str_digits() >= math.ceil(2_000_000 * math.log10(2))
            raised = sys.get_int_max_str_digits()
            set_span_guard(64)  # a smaller guard never lowers the cap
            assert sys.get_int_max_str_digits() == raised
            sys.set_int_max_str_digits(0)  # nor turns an absent cap into one
            set_span_guard(3_000_000)
            assert sys.get_int_max_str_digits() == 0
        finally:
            set_span_guard(old)
            sys.set_int_max_str_digits(cap)

    @pytest.mark.parametrize("bits", [7_200_000_000, 10**14])
    def test_span_guard_past_the_str_digit_limit_is_refused(self, bits):
        # its digit count would not fit the C int the interpreter's cap takes
        before = span_guard()
        with pytest.raises(ValueError):
            set_span_guard(bits)
        assert span_guard() == before

    def test_comparison_across_huge_spans(self):
        assert Dyadic(1, -(1 << 30)) < ONE
        assert Dyadic(-1, 1 << 30) < Dyadic(-1, 5)
        assert Dyadic(1, 1 << 30) > ONE

    def test_huge_mantissa_serialization(self):
        # ~20k decimal digits, beyond the interpreter's default str cap
        m = (1 << 65536) + 1
        d = Dyadic(m, -3)
        assert Dyadic.parse(str(d)) == d
        assert len(str(d)) > 19000


class TestDyadicOracle:
    def test_add_mul_agree_with_fraction_oracle(self):
        rng = random.Random(1_000_003)
        for _ in range(10_000):
            a = Dyadic(rng.randint(-(2**64), 2**64), rng.randint(-64, 64))
            b = Dyadic(rng.randint(-(2**64), 2**64), rng.randint(-64, 64))
            assert frac(a + b) == frac(a) + frac(b)
            assert frac(a * b) == frac(a) * frac(b)

    def test_every_operator_agrees_with_fraction_oracle(self):
        # small mantissas and exponents, so equal exponents, zeros,
        # cancellation and carries are all frequent
        rng = random.Random(20261018)
        for _ in range(5_000):
            a = Dyadic(rng.randint(-40, 40), rng.randint(-3, 3))
            b = Dyadic(rng.randint(-40, 40), rng.randint(-3, 3))
            n = rng.randint(-40, 40)
            fa, fb = frac(a), frac(b)
            cases = [
                (a + b, fa + fb),
                (a - b, fa - fb),
                (a * b, fa * fb),
                (-a, -fa),
                (abs(a), abs(fa)),
                (a + n, fa + n),
                (n + a, n + fa),
                (a - n, fa - n),
                (n - a, n - fa),
                (a * n, fa * n),
                (n * a, n * fa),
            ]
            for got, want in cases:
                assert type(got) is Dyadic
                assert frac(got) == want
                assert_canonical(got)

    @pytest.mark.parametrize(
        "a, b, want",
        [
            (Dyadic(3, -5), Dyadic(-3, -5), Dyadic(0)),  # cancels to zero
            (Dyadic(3, -5), Dyadic(5, -5), Dyadic(1, -2)),  # carries two places
            (Dyadic(1, -5), Dyadic(1, -5), Dyadic(1, -4)),
            (Dyadic(-7, 2), Dyadic(-9, 2), Dyadic(-1, 6)),
            (Dyadic(2**64 - 1, -70), Dyadic(1, -70), Dyadic(1, -6)),
        ],
    )
    def test_equal_exponent_sums_recanonicalize(self, a, b, want):
        s = a + b
        assert (s.m, s.e) == (want.m, want.e)
        assert_canonical(s)
        d = a - (-b)
        assert (d.m, d.e) == (want.m, want.e)
        assert_canonical(d)

    def test_floor_ratio_reconstruction(self):
        rng = random.Random(77)
        for _ in range(2_000):
            a = Dyadic(rng.randint(-(2**48), 2**48), rng.randint(-32, 32))
            b = Dyadic(rng.randint(1, 2**48), rng.randint(-32, 32))
            q, r = divmod(a, b)
            assert a == b * q + r
            assert ZERO <= r < b
            assert q == (frac(a) / frac(b)).__floor__()

    @given(dyadics, dyadics)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(dyadics, dyadics, dyadics)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(dyadics, dyadics)
    def test_ordering_matches_oracle(self, a, b):
        assert (a < b) == (frac(a) < frac(b))
        assert (a == b) == (frac(a) == frac(b))
        assert (a != b) == (frac(a) != frac(b))
        # equal numbers hash equal across types, fractional values included
        assert hash(a) == hash(frac(a))

    @given(st.integers(min_value=-(2**80), max_value=2**80), st.integers(min_value=0, max_value=200))
    def test_integer_valued_hash_matches_int(self, n, e):
        d = Dyadic(n, e)
        assert hash(d) == hash(n << e)
        assert len({d, n << e}) == 1
        assert {n << e: "int"}[d] == "int"
        assert d != "text" and not (d == "text")


# (a, b, aligned width of a + b): both integer-valued, so `a.as_integer() - b` reaches
# `__rsub__` with the same pair.  The widths straddle a 64-bit span guard with
# equal exponents, either exponent order, and either operand the wider.
SPAN_BOUNDARY = [
    (Dyadic(2**63 + 1), Dyadic(3), 64),
    (Dyadic(2**64 + 1), Dyadic(3), 65),
    (Dyadic(3), Dyadic(2**63 + 1), 64),
    (Dyadic(3), Dyadic(2**64 + 1), 65),
    (Dyadic(3), Dyadic(1, 63), 64),
    (Dyadic(3), Dyadic(1, 64), 65),
    (Dyadic(1, 63), Dyadic(3), 64),
    (Dyadic(1, 64), Dyadic(3), 65),
    (Dyadic(2**63 + 1), Dyadic(1, 1), 64),
    (Dyadic(2**64 + 1), Dyadic(1, 1), 65),
    (Dyadic(1, 1), Dyadic(2**63 + 1), 64),
    (Dyadic(1, 1), Dyadic(2**64 + 1), 65),
]


class TestSpanGuardBoundary:
    @pytest.fixture(autouse=True)
    def guard_64(self):
        old = set_span_guard(64)
        yield
        set_span_guard(old)

    @pytest.mark.parametrize(
        "op, negates",
        [
            pytest.param(operator.add, False, id="add"),
            pytest.param(operator.sub, True, id="sub"),
            pytest.param(lambda a, b: a.as_integer() - b, True, id="rsub"),
        ],
    )
    @pytest.mark.parametrize("a, b, width", SPAN_BOUNDARY)
    def test_width_64_passes_and_65_raises(self, op, negates, a, b, width):
        addend = -b if negates else b  # a difference is reported as a sum
        if width <= 64:
            got = op(a, b)
            assert frac(got) == frac(a) + frac(addend)
            assert_canonical(got)
            return
        with pytest.raises(GuardExceeded) as exc:
            op(a, b)
        assert str(exc.value) == f"aligned mantissa would need {width} bits (guard 64): {a} + {addend}"

    @pytest.mark.parametrize("x", [Dyadic(1, 1000), Dyadic(-3, -1000), Dyadic(2**100 + 1)])
    def test_zero_operand_never_raises(self, x):
        for zero in (ZERO, 0):
            assert x + zero == x and zero + x == x
            assert x - zero == x and zero - x == -x

    def test_int_operand_is_guarded(self):
        with pytest.raises(GuardExceeded):
            Dyadic(1, -64) + 1
        with pytest.raises(GuardExceeded):
            1 - Dyadic(1, -64)
        assert frac(Dyadic(1, -63) + 1) == 1 + Fraction(1, 2**63)


class TestForeignOperands:
    def test_float_operands_raise_type_error(self):
        with pytest.raises(TypeError):
            Dyadic(1) + 0.5
        with pytest.raises(TypeError):
            Dyadic(1) < 0.5
        with pytest.raises(TypeError):
            0.5 - Dyadic(1)
        with pytest.raises(TypeError):
            Dyadic(1) * Fraction(1, 2)

    def test_equality_with_other_numeric_types_is_false(self):
        assert not Dyadic(1) == 1.0
        assert Dyadic(1) != 1.0
        assert not Fraction(1) == Dyadic(1)
        assert Fraction(1) != Dyadic(1)

    def test_bool_is_an_int(self):
        s = Dyadic(1) + True
        assert s == Dyadic(2)
        assert_canonical(s)
        assert_canonical(ZERO + True)
        assert str(ZERO + True) == "1*2^0"

    def test_immutable(self):
        d = Dyadic(3, -2)
        with pytest.raises(AttributeError):
            d.m = 5
        with pytest.raises(AttributeError):
            d.e = 0
        assert (d.m, d.e) == (3, -2)


@pytest.mark.parametrize("b", [Dyadic(5, -9), Dyadic(-7, -4), Dyadic(-9, -4)])
def test_operators_on_two_dyadics_bypass_init(monkeypatch, b):
    # results whose form parity settles, and equal-exponent sums canonicalized
    # inline, are built without the canonicalizing constructor
    a = Dyadic(7, -4)
    calls = []
    init = Dyadic.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Dyadic, "__init__", counting_init)
    results = [a + b, a - b, a * b, -a, abs(b), a < b, a <= b, a == b]
    assert calls == []
    assert Dyadic(6, -4) == Dyadic(3, -3) and len(calls) == 2  # the patch is live
    for r in results[:5]:
        assert_canonical(r)


def _parsed_or_refusal(parse, text):
    try:
        d = parse(text)
    except (ValueError, NotExact) as exc:
        return type(exc), str(exc)
    assert_canonical(d)
    return d.m, d.e


# near-misses of 'm*2^e': ASCII digits, the signs and separators int() takes
# or the pattern refuses, whitespace, a trailing newline and a non-ASCII digit
_PARSE_CHARS = st.sampled_from(list("0123456789-+*^_. \t\n") + ["\u0661", "*2^"])
_PARSE_TEXTS = st.one_of(
    st.lists(_PARSE_CHARS, max_size=12).map("".join),
    st.builds(
        lambda a, b, m, e: f"{a}{m}*2^{b}{e}",
        st.sampled_from(["", "-", "+", " ", "\u0661", "--"]),
        st.sampled_from(["", "-", "+", "_", "\n"]),
        st.integers(0, 10**30),
        st.integers(0, 10**6),
    ),
    st.builds(str, st.builds(Dyadic, st.integers(-(2**200), 2**200), st.integers(-(10**6), 10**6))),
    st.none(),
    st.integers(),
)


@given(_PARSE_TEXTS)
@example("\u0661*2^-3")
@example(" 5*2^-1 ")
@example("5*2^-1\n")
@example("+1*2^3")
@example("1_0*2^3")
@example("5*2^")
@example("5*2^+1")
@example("-0*2^5")
@example("0.1")
@example("5*2^1_0")
@example("5*2^1 ")
@example("5 *2^1")
def test_parse_matches_the_regex_only_parser(text):
    # the ASCII fast path takes only what the regular expressions take with
    # the same groups: the same value, or the same exception and message
    assert _parsed_or_refusal(Dyadic.parse, text) == _parsed_or_refusal(parse_dyadic_regex, text)


def test_parse_edge_cases():
    assert dy("\u0661*2^-3") == Dyadic(1, -3)
    assert dy(" 5*2^-1 ") == Dyadic(5, -1)
    for text in ("+1*2^3", "1_0*2^3", "5*2^", "5*2^+1"):
        with pytest.raises(ValueError, match=r"^cannot parse dyadic scalar from "):
            dy(text)


class TestDyInterval:
    def test_contains_respects_closedness(self):
        iv = DyInterval(Dyadic(0), Dyadic(1), closed_lo=True, closed_hi=False)
        assert iv.contains(ZERO)
        assert not iv.contains(ONE)
        assert iv.contains(Dyadic(1, -1))

    def test_degenerate_must_be_closed(self):
        DyInterval.closed(1, 1)
        with pytest.raises(ValueError):
            DyInterval(ONE, ONE, True, False)

    def test_parse_roundtrip(self):
        for s in ["[1*2^-1,1*2^0]", "[0*2^0,1*2^0)", "(3*2^-2,7*2^-1]", "(0*2^0,1*2^5)"]:
            assert str(DyInterval.parse(s)) == s

    def test_covers(self):
        g = DyInterval.open(0, 2)
        assert g.covers(DyInterval.closed(dy("0.5"), 1))
        assert not g.covers(DyInterval.closed(0, dy("0.5")))
        assert g.covers(DyInterval(ZERO, ONE, False, True))


_LOWS = st.builds(Dyadic, st.integers(-64, 64), st.integers(-4, 2))
_WIDTHS = st.builds(Dyadic, st.integers(1, 32), st.integers(-4, 1))
_OPEN_PARTS = st.lists(st.builds(lambda lo, w: DyInterval.open(lo, lo + w), _LOWS, _WIDTHS), max_size=10)


def _swept_measure(ivs) -> Fraction:
    """The measure of a union of open intervals, by one sweep over them as fractions."""
    total, reach = Fraction(0), None
    for lo, hi in sorted((frac(iv.lo), frac(iv.hi)) for iv in ivs):
        start = lo if reach is None else max(lo, reach)
        if hi > start:
            total += hi - start
        reach = hi if reach is None else max(reach, hi)
    return total


class TestIntervalUnion:
    def test_insert_examples(self):
        u = IntervalUnion()
        u1 = IntervalUnion([*u.parts, DyInterval.open(0, 1)])
        assert len(u1.parts) == 1
        u2 = IntervalUnion([*u1.parts, DyInterval.open(dy("0.5"), 2)])
        assert len(u2.parts) == 1 and str(u2.parts[0]) == "(0*2^0,1*2^1)"
        piece = DyInterval.open(Dyadic(16) + Dyadic(11, -8), Dyadic(16) + Dyadic(11, -8) + Dyadic(1, -12))
        v = IntervalUnion([*IntervalUnion([*u.parts, piece]).parts, piece])
        assert len(v.parts) == 1
        assert total_length(v.parts) == Dyadic(1, -12)

    def test_open_sets_do_not_merge_at_excluded_point(self):
        u = IntervalUnion([DyInterval.open(ZERO, ONE), DyInterval.open(ONE, Dyadic(2))])
        assert len(u.parts) == 2
        assert total_length(u.parts) == Dyadic(2)

    def test_measure_invariant_under_insertion_order(self):
        rng = random.Random(424242)
        for _ in range(200):
            ivs = []
            for _ in range(rng.randint(1, 12)):
                lo = Dyadic(rng.randint(-64, 64), rng.randint(-4, 2))
                width = Dyadic(rng.randint(1, 32), rng.randint(-4, 1))
                ivs.append(DyInterval.open(lo, lo + width))
            base = IntervalUnion(ivs)
            for _ in range(3):
                rng.shuffle(ivs)
                u = IntervalUnion()
                for iv in ivs:
                    u = IntervalUnion([*u.parts, iv])
                assert total_length(u.parts) == total_length(base.parts)
                assert u == base

    @given(_OPEN_PARTS.flatmap(lambda ivs: st.tuples(st.just(ivs), st.permutations(ivs))))
    def test_measure_against_fraction_sweep_oracle(self, case):
        ivs, shuffled = case
        u = IntervalUnion(ivs)
        assert frac(total_length(u.parts)) == _swept_measure(ivs)
        assert IntervalUnion(shuffled) == u
        assert all(p.hi <= q.lo for p, q in zip(u.parts, u.parts[1:]))

    @given(
        _OPEN_PARTS,
        _LOWS,
        _WIDTHS,
        st.sampled_from([(True, True), (True, False), (False, True)]),
        st.integers(0, 10),
        st.booleans(),
    )
    def test_a_part_that_is_not_open_raises(self, ivs, lo, width, closed, at, point):
        bad = DyInterval(lo, lo, True, True) if point else DyInterval(lo, lo + width, *closed)
        with pytest.raises(ValueError, match=r"^open-set part .* is not an open interval$"):
            IntervalUnion(ivs[:at] + [bad] + ivs[at:])

    def test_contains_interval(self):
        g = IntervalUnion([DyInterval.open(0, 2), DyInterval.open(5, 9)])
        assert g.contains_interval(DyInterval.closed(dy("0.5"), 1))
        assert not g.contains_interval(DyInterval.closed(0, dy("0.5")))
        assert not g.contains_interval(DyInterval.closed(1, 6))
        assert g.contains_interval(DyInterval.closed(6, 7))

    def test_json_roundtrip(self):
        g = IntervalUnion([DyInterval.open(0, 2), DyInterval.open(5, 9)])
        assert IntervalUnion.from_json([str(p) for p in g.parts]) == g


class TestPiecewiseLinear:
    def tent(self):
        # plateau 2^-1 on [2, 2+2^-2], ramps of width 2^-4
        h = Dyadic(1, -1)
        return PiecewiseLinear(
            [
                (Dyadic(2) - Dyadic(1, -4), ZERO),
                (Dyadic(2), h),
                (Dyadic(2) + Dyadic(1, -2), h),
                (Dyadic(2) + Dyadic(1, -2) + Dyadic(1, -4), ZERO),
            ]
        )

    def test_plateau_value(self):
        f = self.tent()
        assert pl_eval(f, Dyadic(2) + Dyadic(1, -5)) == Dyadic(1, -1)

    def test_zero_outside_support(self):
        f = self.tent()
        assert pl_eval(f, ZERO) == ZERO
        assert pl_eval(f, Dyadic(3)) == ZERO
        assert pl_eval(f, Dyadic(2) - Dyadic(1, -4)) == ZERO

    def test_ramp_interpolation(self):
        # ramp from 0 at 9.75 to 2^-4 at 10; slope 2^-2; value at 9.8125 is 2^-6
        f = PiecewiseLinear(
            [
                (dy("9.75"), ZERO),
                (Dyadic(10), Dyadic(1, -4)),
                (Dyadic(11), Dyadic(1, -4)),
                (dy("11.25"), ZERO),
            ]
        )
        assert pl_eval(f, dy("9.8125")) == Dyadic(1, -6)

    def test_eval_matches_fraction_oracle(self):
        f = self.tent()
        rng = random.Random(5)
        xs = [frac(x) for x in f.xs]
        vs = [frac(v) for v in f.vs]
        for _ in range(500):
            x = Dyadic(rng.randint(31000, 37000), -14)
            fx = frac(x)
            expect = Fraction(0)
            for i in range(len(xs) - 1):
                if xs[i] <= fx <= xs[i + 1]:
                    expect = vs[i] + (vs[i + 1] - vs[i]) * (fx - xs[i]) / (xs[i + 1] - xs[i])
                    break
            assert frac(pl_eval(f, x)) == expect

    def test_non_dyadic_interpolant_guard(self):
        # slope 1/3: values at non-breakpoint dyadic x are not dyadic
        f = PiecewiseLinear([(ZERO, ZERO), (Dyadic(3), ONE), (Dyadic(6), ZERO)])
        assert pl_eval(f, Dyadic(3)) == ONE
        with pytest.raises(NotExact):
            pl_eval(f, ONE)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match=r"^support must be compact: first and last values must be 0$"):
            PiecewiseLinear([(ZERO, ONE), (ONE, ZERO)])
        with pytest.raises(ValueError, match=r"^breakpoints not strictly increasing at 1\*2\^0$"):
            PiecewiseLinear([(ONE, ZERO), (ONE, ZERO)])
        with pytest.raises(ValueError, match=r"^values must be nonnegative$"):
            PiecewiseLinear([(ZERO, ZERO), (ONE, Dyadic(-1)), (Dyadic(2), ZERO)])

    def test_order_is_checked_on_the_int_grid(self):
        """The knots are put on one grid before their order is checked, after
        the values: knots out of order and too wide for the guard are refused
        by the guard, and knots out of order whose first value is not 0 by
        the compact-support check."""
        old = set_span_guard(64)
        try:
            with pytest.raises(GuardExceeded, match=r"^common grid needs 101 bits on the grid 2\^-100 \(guard 64\)$"):
                PiecewiseLinear([(ONE, ZERO), (Dyadic(1, -100), ONE), (ONE, ZERO)])
        finally:
            set_span_guard(old)
        with pytest.raises(ValueError, match=r"^support must be compact"):
            PiecewiseLinear([(ZERO, ONE), (ONE, ZERO), (ZERO, ZERO)])
