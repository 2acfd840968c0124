"""Checks for the universal decreasing-gap construction.

Hand-derivable anchors are frozen; everything scale-dependent is cross-checked
against explicit enumeration of the (small) first steps.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dyadlab.cli import check_monotone_gaps
from dyadlab.exactnum import Dyadic, DyInterval, GuardExceeded, IntervalUnion, ZERO, set_span_guard
from dyadlab.lattice import GapBlock, GapBlockSeq
from dyadlab.universal import (
    BudgetExceeded,
    CoverWitness,
    IndexJK,
    OutOfInterval,
    borel_cantelli_partial,
    build_uG,
    build_universal,
    check_integrality,
    check_lemma_useful,
    covering_witness,
    escape_measure,
    escape_measure_bruteforce,
    fG_prefix_sums,
    indices_through,
    row_width,
    smoothing_measure,
    step_walk,
    steps_before,
)
from dyadlab import universal
from dyadlab.universal import _escape_cells, _escape_grid, _escape_report
from oracles import PeriodicIntervalSet, build_universal_dyadic, check_integrality_dyadic, comb, comb_contains, components, covering_witness_dyadic, escape_cells_by_residue, iter_points, measure_per_window, pl_eval, report_json_dict, smoothing_envelope, step_at, step_indices, support, total_length


def dy(s: str) -> Dyadic:
    return Dyadic.parse(s)


class TestIndexJK:
    def test_successor(self):
        assert IndexJK(1, 0).successor() == IndexJK(1, 1)
        assert IndexJK(1, 3).successor() == IndexJK(2, 0)  # row width 2*1*2 = 4
        assert IndexJK(2, 15).successor() == IndexJK(3, 0)

    def test_successor_predecessor_roundtrip(self):
        i = IndexJK(1, 0)
        for _ in range(300):
            assert i.successor().position() == i.position() + 1
            i = i.successor()

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IndexJK(1, 4)
        with pytest.raises(ValueError):
            IndexJK(0, 0)

    def test_position(self):
        assert IndexJK(1, 0).position() == 0
        assert IndexJK(2, 0).position() == 4
        assert IndexJK(3, 0).position() == 4 + 16


def frac(d: Dyadic) -> Fraction:
    return d.m * Fraction(2) ** d.e


class TestStepGeometry:
    def test_at_1_0(self):
        i = IndexJK(1, 0)
        assert i.aI == dy("0.5")
        assert i.bI == Dyadic(1)
        assert i.a == Dyadic(16)
        assert i.E == Dyadic(1, -4)

    def test_at_1_1(self):
        i = IndexJK(1, 1)
        assert i.a == Dyadic(32)
        assert i.E == Dyadic(1, -5)
        assert i.bI == dy("0.5")

    def test_at_2_0(self):
        i = IndexJK(2, 0)
        assert i.a == Dyadic(1, 16)
        assert i.E == Dyadic(1, -16)

    def test_geometry_oracle_through_3_0(self):
        # each property against its definition in (j, k), as Fractions
        for i in indices_through(IndexJK(3, 0)):
            j, k = i.j, i.k
            s = 2 * j * 2**j + k
            assert frac(i.a) == 2**s and frac(i.E) == Fraction(1, 2**s), i
            assert frac(i.aI) == j - Fraction(k + 1, 2**j) and frac(i.bI) == j - Fraction(k, 2**j), i
            assert i.window == DyInterval.closed(i.aI, i.bI), i
            E = i.E
            assert comb(i) == PeriodicIntervalSet(i.a, E * E, E * E * E, 2**s), i

    def test_indices_from_sequence(self):
        seq = build_universal(IndexJK(1, 1))
        assert step_indices(seq, IndexJK(1, 0)) == (0, 160)

    def test_row_walk_is_the_successor_chain(self):
        chain = [IndexJK(1, 0)]
        while chain[-1] != IndexJK(3, 5):  # across the ends of rows 1 and 2
            chain.append(chain[-1].successor())
        for n, limit in enumerate(chain):
            assert list(indices_through(limit)) == chain[: n + 1]
            assert [i.position() for i in steps_before(limit)] == list(range(n))

    def test_steps_before_stops_short_of_the_limit(self):
        assert list(steps_before(IndexJK(1, 0))) == []
        assert list(steps_before(IndexJK(2, 1))) == [*indices_through(IndexJK(1, 3)), IndexJK(2, 0)]
        # the prefix built through a limit holds exactly those steps
        limit = IndexJK(1, 3)
        assert len(build_universal(limit).blocks) == 2 * len(list(steps_before(limit)))


class TestComb:
    def test_at_1_0(self):
        ps = comb(IndexJK(1, 0))
        assert ps.base == Dyadic(16)
        assert ps.period == Dyadic(1, -8)
        assert ps.width == Dyadic(1, -12)
        assert ps.count == 16
        assert total_length(components(ps)) == Dyadic(1, -8)

    def test_contained_in_scale_window(self):
        for i in [IndexJK(1, 0), IndexJK(1, 3), IndexJK(2, 5)]:
            ps = comb(i)
            assert ps.base + ps.period * (ps.count - 1) + ps.width <= i.a + i.E


class TestBuildUniversal:
    def test_blocks_through_1_1(self):
        seq = build_universal(IndexJK(1, 1))
        assert len(seq.blocks) == 2
        assert seq.origin == Dyadic(15)
        assert seq.blocks[0] == GapBlock(Dyadic(1, -8) - Dyadic(1, -12), 160, "1,0:wide")
        assert seq.blocks[1] == GapBlock(Dyadic(1, -9), 8148, "1,0:half")
        assert seq.value_at(8308) == dy("31.5")
        assert seq.total_count == 8309

    def test_step_end_inequalities_at_1_0(self):
        seq = build_universal(IndexJK(1, 1))
        i = IndexJK(1, 0)
        lam_n1 = seq.value_at(step_indices(seq, i)[1])
        assert lam_n1 >= i.a + i.E - i.aI  # reaches past the comb for the whole window
        assert lam_n1 < i.a - i.bI + 1  # but by less than one unit

    def test_step_end_inequalities_sweep(self):
        seq = build_universal(IndexJK(2, 15))
        for i in indices_through(IndexJK(2, 14)):
            lam_n1 = seq.value_at(step_indices(seq, i)[1])
            assert lam_n1 >= i.a + i.E - i.aI
            assert lam_n1 < i.a - i.bI + 1

    def test_step_end_closed_form_sweep(self):
        # block algebra must reproduce a - aI + 2E - 2^-j E - 2E^2 at each step end
        seq = build_universal(IndexJK(2, 15))
        for i in indices_through(IndexJK(2, 14)):
            E = i.E
            expect = i.a - i.aI + E * 2 - Dyadic(1, -i.j) * E - E * E * 2
            assert seq.value_at(step_indices(seq, i)[1]) == expect

    def test_monotone_gaps_through_2_15(self):
        seq = build_universal(IndexJK(2, 15))
        assert check_monotone_gaps(seq).passed
        # and each wide gap strictly exceeds the following half gap
        for a, b in zip(seq.blocks, seq.blocks[1:]):
            assert a.gap > b.gap

    def test_final_value_matches_limit(self):
        for limit in [IndexJK(1, 2), IndexJK(2, 1)]:
            seq = build_universal(limit)
            assert seq.last_value == limit.a - limit.bI

    @pytest.mark.parametrize("limit", [IndexJK(1, 1), IndexJK(2, 15), IndexJK(3, 0), IndexJK(3, 47), IndexJK(5, 319)])
    def test_closed_forms_match_the_dyadic_steps(self, limit):
        assert build_universal(limit) == build_universal_dyadic(limit)

    @pytest.mark.parametrize("limit", [IndexJK(2, 15), IndexJK(3, 5)])
    def test_refuses_like_the_dyadic_steps_at_every_small_guard(self, limit):
        # the same blocks, or GuardExceeded from both
        refused = 0
        for guard in range(64, 240):
            outcomes = []
            for build in (build_universal, build_universal_dyadic):
                old = set_span_guard(guard)
                try:
                    outcomes.append(build(limit).to_json_dict())
                except GuardExceeded:
                    outcomes.append(GuardExceeded)
                finally:
                    set_span_guard(old)
            assert outcomes[0] == outcomes[1], guard
            refused += outcomes[0] is GuardExceeded
        assert refused > 10

    def test_perturbed_control_fails_monotonicity(self):
        seq = build_universal(IndexJK(2, 15))
        blocks = list(seq.blocks)
        bad = GapBlock(blocks[3].gap * 3, blocks[3].count, blocks[3].tag)
        tampered = GapBlockSeq(seq.origin, blocks[:3] + [bad] + blocks[4:])
        assert not check_monotone_gaps(tampered).passed


class TestLemmaAndIntegrality:
    def test_lemma_examples(self):
        r = check_lemma_useful(IndexJK(1, 0))
        assert r.passed and r.params["multiplier"] == "1"
        r = check_lemma_useful(IndexJK(1, 3))
        # row crossing: half the fine scale spans 2^(4*2^j) of the next scale
        assert r.passed and r.params["multiplier"] == str(2 ** (4 * 2))
        r = check_lemma_useful(IndexJK(2, 5))
        assert r.passed and r.params["multiplier"] == "1"

    def test_lemma_sweep_j_le_3(self):
        for j in range(1, 4):
            for k in range(row_width(j)):
                assert check_lemma_useful(IndexJK(j, k)).passed

    def test_integrality_examples(self):
        seq = build_universal(IndexJK(1, 2))
        q = seq.value_at(step_indices(seq, IndexJK(1, 0))[1]).div_exact(comb(IndexJK(1, 0)).period)
        assert q == Dyadic(3990)
        q = seq.value_at(step_indices(seq, IndexJK(1, 1))[0]).div_exact(comb(IndexJK(1, 1)).period)
        assert q == Dyadic(32256)

    def test_integrality_through_2_15(self):
        seq = build_universal(IndexJK(2, 15))
        rep = check_integrality(seq, IndexJK(2, 15))
        assert rep.passed
        assert rep.params["steps"] == IndexJK(2, 15).position()

    def test_integrality_negative_control(self):
        seq = build_universal(IndexJK(1, 2))
        blocks = list(seq.blocks)
        # one extra wide gap shifts every later value off the fine grid's target
        blocks[0] = GapBlock(blocks[0].gap, blocks[0].count + 1, blocks[0].tag)
        rep = check_integrality(GapBlockSeq(seq.origin, blocks), IndexJK(1, 2))
        assert not rep.passed
        assert rep.params["failed_step"] == "(1,0)"


class TestIntegralityOracle:
    """`check_integrality` reads exponents off the int table; the Dyadic
    division oracle must give an identical report, sides included."""

    @pytest.fixture(scope="class")
    def seq30(self):
        return build_universal(IndexJK(3, 0))

    def test_every_built_limit_through_3_0(self, seq30):
        for limit in indices_through(IndexJK(3, 0)):
            for seq in (seq30, build_universal(limit)):
                rep = check_integrality(seq, limit)
                assert rep == check_integrality_dyadic(seq, limit), limit
                assert rep.passed and rep.params["steps"] == limit.position()

    def _outcome(self, fn, seq, limit):
        try:
            return fn(seq, limit)
        except (ArithmeticError, IndexError, ValueError) as exc:
            return type(exc), str(exc)

    def test_tampered_artifacts(self, seq30):
        # a half block one count longer or shorter, or a wide gap tripled, at
        # each step: later steps' scales divide what those shift, so they pass;
        # so does the origin moved by E^2 of step (1,0), which makes that
        # step's quotient odd (exponent exactly -2s); a wide block one count
        # off, or the origin moved by 2^-40, fails
        limit, failed = IndexJK(2, 3), []
        blocks = seq30.blocks[: 2 * limit.position()]
        cases = [GapBlockSeq(seq30.origin + d, blocks) for d in (Dyadic(1, -8), Dyadic(1, -40))]
        for b, blk in enumerate(blocks):
            for tweak in ((blk.gap, blk.count + 1), (blk.gap, blk.count - 1), (blk.gap * 3, blk.count)):
                cases.append(_with_blocks(GapBlockSeq(seq30.origin, blocks), b, [GapBlock(*tweak, blk.tag)]))
        for seq in cases:
            got = self._outcome(check_integrality, seq, limit)
            assert got == self._outcome(check_integrality_dyadic, seq, limit)
            if not got.passed:
                failed.append((got.params["failed_step"], got.lhs, got.rhs))
        # the origin moved by 2^-40 and each wide count fail, with a side that is not an integer
        assert len(failed) == 1 + 2 * limit.position()
        assert all("*2^-" in lhs or "*2^-" in rhs for _, lhs, rhs in failed)

    def test_a_prefix_one_block_short(self, seq30):
        # the last step's landing value is missing: the same IndexError
        limit = IndexJK(2, 3)
        seq = GapBlockSeq(seq30.origin, seq30.blocks[: 2 * limit.position() - 1])
        got = self._outcome(check_integrality, seq, limit)
        assert got == self._outcome(check_integrality_dyadic, seq, limit)
        assert got[0] is IndexError


class TestStepWalk:
    """`step_walk` reads every step in one pass; `step_indices` locates one
    step on its own.  Both must place each step alike, or refuse alike."""

    def test_places_every_step_as_located_one_by_one(self):
        built = build_universal(IndexJK(3, 0))
        v11 = built.block_start(2 * IndexJK(1, 1).position())[1]
        # the origin moved so that step (1,1) starts at exactly zero
        for seq in (built, GapBlockSeq(built.origin - v11, built.blocks)):
            for limit in (IndexJK(1, 0), IndexJK(2, 3), IndexJK(3, 0)):
                steps = list(step_walk(seq, limit))
                assert [str(st) for st in steps] == [str(i) for i in steps_before(limit)]
                for i, st in zip(steps_before(limit), steps):
                    assert (st.n0, st.n1) == step_indices(seq, i), i
                    assert (st.J, st.s, st.b) == (i.J, i.scale_exp(), 2 * i.position()), i
                    assert ((st.vm, st.ve), st.gap, st.seq) == (seq.start_pair(st.b), seq.blocks[st.b].gap, seq), i

    def test_refuses_as_step_indices_does(self):
        seq, limit = build_universal(IndexJK(2, 3)), IndexJK(2, 3)
        wide = seq.blocks[6]  # step (1,3)
        cases = [
            (GapBlockSeq(seq.origin, seq.blocks[:9]), IndexJK(2, 1)),
            (_with_blocks(seq, 6, [GapBlock(wide.gap, wide.count, "1,2:wide")]), IndexJK(1, 3)),
        ]
        for bad, i in cases:
            with pytest.raises((IndexError, ValueError)) as want:
                step_indices(bad, i)
            with pytest.raises(want.type) as got:
                list(step_walk(bad, limit))
            assert str(got.value) == str(want.value)
        # an untagged block is not checked
        assert len(list(step_walk(_with_blocks(seq, 6, [GapBlock(wide.gap, wide.count)]), limit))) == limit.position()


@pytest.fixture(scope="module")
def seq11():
    return build_universal(IndexJK(1, 1))


class TestCoveringWitness:

    def test_x_three_quarters(self, seq11):
        w = witness(dy("0.75"), IndexJK(1, 0), seq11)
        assert (w.nx, w.nxp) == (69, 80)
        assert dy("0.75") + seq11.value_at(w.nxp) == Dyadic(16) + Dyadic(11, -8)
        assert w.component == 11

    def test_x_half(self, seq11):
        w = witness(dy("0.5"), IndexJK(1, 0), seq11)
        assert (w.nx, w.nxp) == (137, 144)
        assert dy("0.5") + seq11.value_at(w.nxp) == Dyadic(16) + Dyadic(7, -8)
        assert w.component == 7

    def test_x_one(self, seq11):
        w = witness(Dyadic(1), IndexJK(1, 0), seq11)
        assert w.nx == 1
        assert w.nxp == 16
        assert comb_contains(comb(IndexJK(1, 0)), Dyadic(1) + seq11.value_at(w.nxp))
        assert w.component == 15

    def test_against_enumeration(self, seq11):
        from fractions import Fraction

        ps = comb(IndexJK(1, 0))
        pts = []
        for n, v in enumerate(iter_points(seq11)):
            pts.append(v)
            if n > 200:
                break
        rng = random.Random(5150)
        a = Dyadic(16)
        e3 = Fraction(1, 2**12)
        for _ in range(50):
            x = dy("0.5") + Dyadic(rng.getrandbits(20), -21)
            w = witness(x, IndexJK(1, 0), seq11)
            nx_brute = next(n for n, v in enumerate(pts) if x + v > a)
            assert w.nx == nx_brute
            overshoot = Fraction((x + pts[nx_brute] - a).m, 2 ** -(x + pts[nx_brute] - a).e)
            nxp_brute = nx_brute + int(overshoot / e3)
            assert w.nxp == nxp_brute
            assert comb_contains(ps, x + seq11.value_at(w.nxp))
            # the advanced index never lands before the first brute-force hit window
            first_hit = next(
                n for n, v in enumerate(pts[nx_brute:], start=nx_brute) if comb_contains(ps, x + v)
            )
            assert first_hit <= w.nxp

    def test_random_sweep_j12(self):
        seq = build_universal(IndexJK(3, 0))
        rng = random.Random(8888)
        for j in (1, 2):
            for k in range(row_width(j)):
                i = IndexJK(j, k)
                _, n1 = step_indices(seq, i)
                ps, step = comb(i), step_at(seq, i)
                for _ in range(20):
                    x = i.aI + (i.bI - i.aI) * Dyadic(rng.getrandbits(40), -40)
                    w = covering_witness(x, step)
                    assert comb_contains(ps, x + seq.value_at(w.nxp))
                    assert w.nx <= n1 and w.nxp <= n1

    def test_out_of_interval(self, seq11):
        with pytest.raises(OutOfInterval):
            witness(Dyadic(2), IndexJK(1, 0), seq11)


def witness(x, i, seq):
    """The integer kernel's witness for x at step i of seq."""
    return covering_witness(x, step_at(seq, i))


def _witness_or_refusal(fn, x, i, seq):
    """fn's witness, or the type and message of the exception it raises."""
    try:
        return fn(x, i, seq)
    except (ArithmeticError, AssertionError, IndexError, ValueError) as exc:
        return type(exc), str(exc)


def _samples_in(i, count, rng):
    return [i.aI + (i.bI - i.aI) * Dyadic(rng.getrandbits(48), -48) for _ in range(count)]


def _with_blocks(seq, b, blocks, keep_rest=True):
    """seq with block b replaced by `blocks`, and the blocks after it dropped unless keep_rest."""
    rest = list(seq.blocks[b + 1 :]) if keep_rest else []
    return GapBlockSeq(seq.origin, list(seq.blocks[:b]) + blocks + rest)


class TestCoveringWitnessOracle:
    """The integer witness against `covering_witness_dyadic`: the same
    CoverWitness, or the same exception type on these prefixes.  Past step
    i's wide block the integer kernel reads the block extended, so its
    message may name another check than the oracle's."""

    @pytest.fixture(scope="class")
    def seq20(self):
        return build_universal(IndexJK(2, 0))

    def test_every_step_through_3_0(self):
        seq = build_universal(IndexJK(3, 0))
        rng = random.Random(4242)
        for i in steps_before(IndexJK(3, 0)):
            for x in [i.aI, i.bI, (i.aI + i.bI) * Dyadic(1, -1)] + _samples_in(i, 8, rng):
                assert witness(x, i, seq) == covering_witness_dyadic(x, i, seq), (i, x)

    def test_every_step_through_5_319(self):
        # the prefix covering-deep loads: 515 steps, one sample each
        limit = IndexJK(5, 319)
        seq = build_universal(limit)
        rng = random.Random(5319)
        for i, step in zip(steps_before(limit), step_walk(seq, limit), strict=True):
            (x,) = _samples_in(i, 1, rng)
            assert covering_witness(x, step) == covering_witness_dyadic(x, i, seq), (i, x)

    def _assert_parity(self, seq, i, xs):
        """Both kernels return the same witness or raise the same exception
        type at every x; returns the integer kernel's refusals."""
        refusals = []
        for x in xs:
            got = _witness_or_refusal(witness, x, i, seq)
            want = _witness_or_refusal(covering_witness_dyadic, x, i, seq)
            if not isinstance(got, CoverWitness):
                assert not isinstance(want, CoverWitness) and got[0] is want[0], (i, x, got, want)
                refusals.append(got)
            else:
                assert got == want, (i, x)
        return refusals

    @pytest.mark.parametrize("which", ["nx", "nxp"])
    @pytest.mark.parametrize("moved", [False, True])
    def test_wide_block_one_count_short(self, seq20, which, moved):
        # the wide block ends one point before the witness's nx (or nxp): the
        # points it loses are dropped, or moved to a block of the same gap
        # right after it so that only the step end moves; either way the
        # witness on the extended block leaves the step
        rng = random.Random(17)
        for i in steps_before(IndexJK(2, 0)):
            n0, _ = step_indices(seq20, i)
            wide = seq20.blocks[2 * i.position()]
            for x in [i.aI] + _samples_in(i, 3, rng):
                short = getattr(witness(x, i, seq20), which) - n0 - 1
                if short < 1:
                    continue
                blocks = [GapBlock(wide.gap, short, wide.tag)]
                if moved:
                    blocks.append(GapBlock(wide.gap, wide.count - short))
                refusals = self._assert_parity(_with_blocks(seq20, 2 * i.position(), blocks), i, [x])
                assert len(refusals) == 1 and refusals[0][1].startswith("witness indices "), (i, x, refusals)

    def test_wide_block_cut_short_before_a_finer_point(self, seq20):
        # the wide block ends one point before the witness's nx, and one
        # point ends the prefix: a half gap on, one 2^-200 further (finer
        # than x's grid), or exactly at a - x or 2^-200 short of it: nx on
        # the block extended lies past it, and wherever x + last_value <= a
        # both kernels raise IndexError, prefix too short, with one message.
        # Elsewhere the witness leaves the step: the kernel says so, and the
        # oracle raises Violation too, before it would read a landing point
        # past the prefix
        rng, too_short, left = random.Random(21), 0, 0
        for i in steps_before(IndexJK(2, 0)):
            n0, _ = step_indices(seq20, i)
            t = 2 * i.position()
            wide, half = seq20.blocks[t], seq20.blocks[t + 1]
            for x in _samples_in(i, 20, rng):
                nx = witness(x, i, seq20).nx
                if nx - n0 - 1 < 1:
                    continue
                rest = i.a - x - seq20.value_at(nx - 1)
                for tail in [half.gap, half.gap + Dyadic(1, -200), rest, rest - Dyadic(1, -200)]:
                    seq = _with_blocks(seq20, t, [GapBlock(wide.gap, nx - n0 - 1, wide.tag), GapBlock(tail, 1, half.tag)], keep_rest=False)
                    got = _witness_or_refusal(witness, x, i, seq)
                    want = _witness_or_refusal(covering_witness_dyadic, x, i, seq)
                    if want[1].startswith("prefix too short"):
                        assert got == want, (i, x, tail)
                        too_short += 1
                    else:
                        assert got[0] is universal.Violation and got[1].startswith("witness indices "), (i, x, tail, got)
                        assert want[0] is got[0], (i, x, tail, want)
                        left += 1
        assert too_short > 200 and left > 60

    def test_start_value_past_the_comb_base(self, seq20):
        i = IndexJK(1, 2)
        half = seq20.blocks[2 * i.position() - 1]
        seq = _with_blocks(seq20, 2 * i.position() - 1, [GapBlock(half.gap, half.count + (1 << 20), half.tag)])
        refusals = self._assert_parity(seq, i, [i.aI, i.bI] + _samples_in(i, 10, random.Random(3)))
        assert len(refusals) == 12
        assert all(msg.startswith("start value already past the comb base at (1,2)") for _, msg in refusals)

    def test_prefix_ending_inside_the_step(self, seq20):
        i = IndexJK(1, 2)
        wide = seq20.blocks[2 * i.position()]
        rng = random.Random(5)
        seq = _with_blocks(seq20, 2 * i.position(), [GapBlock(wide.gap, wide.count // 2, wide.tag)], keep_rest=False)
        refusals = self._assert_parity(seq, i, [i.aI, i.bI] + _samples_in(i, 30, rng))
        assert refusals and all(t is IndexError and msg.startswith("prefix too short") for t, msg in refusals)
        # ending one point into the half block leaves every witness inside the step
        half = seq20.blocks[2 * i.position() + 1]
        seq = _with_blocks(seq20, 2 * i.position() + 1, [GapBlock(half.gap, 1, half.tag)], keep_rest=False)
        assert self._assert_parity(seq, i, [i.aI, i.bI] + _samples_in(i, 10, rng)) == []

    def test_wide_gap_widened_to_the_comb_period(self, seq20):
        i = IndexJK(1, 2)
        wide = seq20.blocks[2 * i.position()]
        seq = _with_blocks(seq20, 2 * i.position(), [GapBlock(comb(i).period, wide.count, wide.tag)])
        # at x = bI the first translate past a overshoots by a whole gap E^2
        refusals = self._assert_parity(seq, i, [i.bI] + _samples_in(i, 30, random.Random(9)))
        assert refusals[0] == (universal.Violation, f"overshoot {comb(i).period} exceeds one wide gap at (1,2)")
        assert len(refusals) > 20 and all(msg.startswith("landing ") for _, msg in refusals[1:])

    def test_tweaked_origins(self, seq20):
        # step (1,0) reads the origin itself, canonical; an origin moved so
        # that step (1,1) starts at exactly zero reads a zero off the table
        rng, t11 = random.Random(23), 2 * IndexJK(1, 1).position()
        v11 = seq20.block_start(t11)[1]
        origins = [seq20.origin + Dyadic(1, -20), seq20.origin - Dyadic(3, -9), ZERO, seq20.origin - v11, Dyadic(1, 300)]
        refused = checked = 0
        for origin in origins:
            seq = GapBlockSeq(origin, seq20.blocks)
            for i in steps_before(IndexJK(2, 0)):
                xs = [i.aI, i.bI] + _samples_in(i, 3, rng)
                refused += len(self._assert_parity(seq, i, xs))
                checked += len(xs)
        assert GapBlockSeq(seq20.origin - v11, seq20.blocks).start_pair(t11) == (0, 0)
        assert GapBlockSeq(ZERO, seq20.blocks).start_pair(0) == (0, 0)
        assert 0 < refused < checked

    @pytest.mark.parametrize("guard", [64, 80, 100, 120])
    def test_lowered_span_guard(self, guard):
        # the width on the grid 2^g, g taken with v0's own exponent (the
        # Dyadic `block_start` reads), decides a refusal and words it exactly;
        # below the guard the witness is the oracle's at the default guard
        # (a far origin makes v0 the widest operand of step (1,0))
        limit, rng, kinds = IndexJK(2, 15), random.Random(guard), set()
        built = build_universal(limit)
        for seq in (built, GapBlockSeq(Dyadic(1, guard - 4), built.blocks)):
            for i in steps_before(limit if seq is built else IndexJK(1, 1)):
                t, s = 2 * i.position(), i.scale_exp()
                v0, G = seq.block_start(t)[1], seq.blocks[t].gap
                for x in [i.aI, i.bI] + _samples_in(i, 2, rng):
                    g = min(x.e, v0.e, G.e, -3 * s)
                    width = max(s + 1, *(d.m.bit_length() + d.e for d in (x, v0, G))) - g
                    want = _witness_or_refusal(covering_witness_dyadic, x, i, seq)
                    old = set_span_guard(guard)
                    try:
                        got = _witness_or_refusal(witness, x, i, seq)
                    finally:
                        set_span_guard(old)
                    if width > guard:
                        want = (GuardExceeded, f"covering witness at {i} needs {width} bits on the grid 2^{g} (guard {guard})")
                    assert got == want, (i, x)
                    kinds.add((seq is built, width > guard))
        # built widths run from 17 to 125 bits; the far origin's step is refused
        assert kinds == {(True, True), (True, False), (False, True)}

    def test_x_outside_the_window(self, seq20):
        i = IndexJK(1, 2)
        xs = [i.aI - Dyadic(1, -60), i.bI + Dyadic(1, -60), Dyadic(100), Dyadic(-100)]
        refusals = self._assert_parity(seq20, i, xs)
        assert [t for t, _ in refusals] == [OutOfInterval] * 4


def all_runs(seq: GapBlockSeq) -> list:
    """The runs of every point of `seq`, origin first, as the series suite reads them."""
    return seq.segments_in_range(0, seq.total_count - 1)


class TestUGAndSeries:
    def test_build_uG_example(self):
        g = IntervalUnion([DyInterval.open(0, 2)])
        got = build_uG(g, IndexJK(1, 3))
        assert got == [IndexJK(1, 0)]

    def test_build_uG_all_and_empty(self):
        wide = IntervalUnion([DyInterval.open(-100, 100)])
        got = build_uG(wide, IndexJK(1, 3))
        assert got == [IndexJK(1, k) for k in range(4)]
        assert build_uG(IntervalUnion(), IndexJK(1, 3)) == []

    def test_partial_sum_against_enumeration(self):
        # prefix through (1,1) keeps the enumeration oracle below 10^4 points
        seq = build_universal(IndexJK(1, 1))
        uG = build_uG(IntervalUnion([DyInterval.open(-100, 100)]), IndexJK(1, 1))
        pts = list(iter_points(seq))
        assert len(pts) == 8309
        runs = all_runs(seq)
        rng = random.Random(31415)
        for _ in range(25):
            x = Dyadic(rng.randint(-3000, 3000), -10)
            brute = sum(1 for v in pts if any(comb_contains(comb(i), x + v) for i in uG))
            assert fG_prefix_sums(x, uG, runs)[-1] == brute
        # targeted points that actually land: window points of (1,0) and (1,1)
        for xs in ("0.75", "0.5", "1", "0.25", "0"):
            x = dy(xs)
            brute = sum(1 for v in pts if any(comb_contains(comb(i), x + v) for i in uG))
            assert fG_prefix_sums(x, uG, runs)[-1] == brute

    def test_covering_implies_hit(self):
        seq = build_universal(IndexJK(1, 1))
        uG = build_uG(IntervalUnion([DyInterval.open(0, 2)]), IndexJK(1, 0))
        assert fG_prefix_sums(dy("0.75"), uG, all_runs(seq))[-1] >= 1

    def test_far_left_point_misses_everything(self):
        seq = build_universal(IndexJK(1, 1))
        uG = build_uG(IntervalUnion([DyInterval.open(-100, 100)]), IndexJK(1, 0))
        assert fG_prefix_sums(Dyadic(-100), uG, all_runs(seq))[-1] == 0

    def test_sum_grows_when_prefix_extends_past_step(self):
        g = IntervalUnion([DyInterval.open(-100, 100)])
        short = build_universal(IndexJK(1, 1))
        longer = build_universal(IndexJK(1, 2))
        uG = build_uG(g, IndexJK(1, 1))
        rng = random.Random(2718)
        for _ in range(10):
            x = dy("0.5") + Dyadic(rng.getrandbits(30), -31)  # inside the (1,0) window
            a = fG_prefix_sums(x, uG, all_runs(short))[-1]
            b = fG_prefix_sums(x, uG, all_runs(longer))[-1]
            assert a >= 1
            assert b >= a

    def test_prefix_sums_match_per_prefix_builds(self):
        # the prefix built through i is the first 2*position(i) blocks of a
        # longer build, so one pass yields every per-prefix count
        limit = IndexJK(2, 5)
        full = build_universal(limit)
        full_runs = all_runs(full)
        prefixes = {i: build_universal(i) for i in indices_through(limit)}
        rng = random.Random(1618)
        for g in (IntervalUnion([DyInterval.open(0, 2)]), IntervalUnion([DyInterval.open(-100, 100)])):
            uG = build_uG(g, limit)
            xs = [dy("0.75"), dy("1.5"), Dyadic(-3)]
            for i in uG:
                xs.append(i.aI + (i.bI - i.aI) * Dyadic(rng.getrandbits(30), -30))
            for x in xs:
                sums = fG_prefix_sums(x, uG, full_runs)
                assert len(sums) == len(full.blocks) + 1
                for i, prefix in prefixes.items():
                    assert sums[2 * i.position()] == fG_prefix_sums(x, uG, all_runs(prefix))[-1], (x, i)
                assert sums[-1] >= 1 or x == Dyadic(-3)


class TestEscape:
    def test_bounds(self):
        # the report's rhs is the bound (4j+3)E, whatever the measure
        seq = build_universal(IndexJK(2, 1))
        for i, bound in ((IndexJK(1, 0), Dyadic(7, -4)), (IndexJK(1, 3), Dyadic(7, -7)), (IndexJK(2, 0), Dyadic(11, -16))):
            assert _escape_report(i, _escape_grid(i, seq), ZERO).rhs == str(bound)

    def test_bruteforce_1_0_under_bound(self):
        seq = build_universal(IndexJK(1, 2))
        measure, rep = escape_measure_bruteforce(IndexJK(1, 0), seq)
        assert rep.passed
        assert measure <= Dyadic(7, -4)
        assert measure > ZERO  # the lattice really does leak outside the window

    def test_bruteforce_matches_interval_union_oracle(self):
        # tiny prefix so the straightforward O(n^2)-ish union stays cheap
        seq = build_universal(IndexJK(1, 1))
        i = IndexJK(1, 0)
        measure, _ = escape_measure_bruteforce(i, seq)
        ps = comb(i)
        pts = list(iter_points(seq))
        # the pieces are taken open, and the zero-length ones dropped: the
        # endpoints they lose have measure zero
        pieces = []
        window = DyInterval.closed(Dyadic(-1), Dyadic(1))
        for v in pts:
            for comp in components(ps):
                lo, hi = comp.lo - v, comp.hi - v
                if hi <= window.lo or lo >= window.hi:
                    continue
                pieces.append(DyInterval.open(max(lo, window.lo), min(hi, window.hi)))
        union = IntervalUnion(pieces)
        inside = IntervalUnion(
            [
                DyInterval.open(max(p.lo, i.aI), min(p.hi, i.bI))
                for p in union.parts
                if not (p.hi <= i.aI or p.lo >= i.bI)
            ]
        )
        assert measure == total_length(union.parts) - total_length(inside.parts)

    def test_budget_guard(self):
        # prefix long enough that translates actually reach the (2,0) comb
        seq = build_universal(IndexJK(2, 1))
        with pytest.raises(BudgetExceeded):
            escape_measure_bruteforce(IndexJK(2, 0), seq)


@st.composite
def _escape_case(draw):
    """A step (1,k) and a short random prefix around its comb: random origin,
    1-4 blocks whose gaps lie on the comb's E^3 grid or 2-4x finer (so a
    component spans several grid cells), below the period, whole multiples of
    it (past the component count too), up to the comb's full span, or
    k*period - 2^a with 2^a < period and k <= 2^a, which move the comb by -1
    mod the number of residues they hit (the closed-form sum's case, like
    each step's own wide block)."""
    i = IndexJK(1, draw(st.integers(0, 2)))
    s = i.scale_exp()
    fine = 3 * s + draw(st.integers(0, 2))  # gaps on the 2^-fine grid
    per = 1 << (fine - 2 * s)  # the period E^2 in those units
    C = 1 << s
    origin = Dyadic(1, s) - Dyadic(5, -2) + Dyadic(draw(st.integers(0, 9 << (3 * s + 2))), -(3 * s + 2))
    gap_units = st.one_of(
        st.integers(1, 2 * per),
        st.integers(1, C + 4).map(lambda r: r * per),
        st.integers(1, C * per),
        st.integers(0, fine - 2 * s - 1).flatmap(lambda a: st.integers(1, 1 << a).map(lambda k: k * per - (1 << a))),
    )
    blocks = draw(
        st.lists(
            st.builds(lambda n, count: GapBlock(Dyadic(n, -fine), count), gap_units, st.integers(1, 30)),
            min_size=1,
            max_size=4,
        )
    )
    return i, GapBlockSeq(origin, blocks)


class TestEscapeMeasure:
    @settings(max_examples=300, deadline=None)
    @given(_escape_case())
    @example((IndexJK(1, 0), GapBlockSeq(Dyadic(15), [GapBlock(Dyadic(1, -14), 25)])))  # 4 cells a component
    @example((IndexJK(1, 1), GapBlockSeq(Dyadic(31), [GapBlock(Dyadic(35, -10), 9)])))  # 35 slots a step
    def test_matches_bruteforce(self, case):
        i, seq = case
        assert escape_measure(i, seq) == escape_measure_bruteforce(i, seq)

    def test_translate_range_starts_at_the_origin(self):
        # at (1,0) the origin 15 already lies within j + E^3 of the comb base
        # 16, so the translates start at index 0: the origin's one-point run
        seq = build_universal(IndexJK(1, 1))
        i = IndexJK(1, 0)
        grid = _escape_grid(i, seq)
        first, gap, count = grid.segments[0]
        assert Dyadic(first * grid.unit, grid.e) == seq.origin and (gap, count) == (0, 1)
        assert sum(c for _, _, c in grid.segments) == grid.translates
        assert escape_measure(i, seq) == escape_measure_bruteforce(i, seq)

    @settings(max_examples=200, deadline=None)
    @given(_escape_case(), st.data())
    @example((IndexJK(1, 0), GapBlockSeq(Dyadic(15), [GapBlock(Dyadic(15, -12), 40)])), None)  # gap -1 mod pi: summed
    # the summed comb passes below bI = 1/2 within its first pi translates
    @example((IndexJK(1, 1), GapBlockSeq(Dyadic(1032685, -15), [GapBlock(Dyadic(31, -15), 70)])), None)
    def test_residue_ranges_match_the_loop(self, case, data):
        i, seq = case
        grid = _escape_grid(i, seq)
        if data is None:
            ranges = [(0, grid.period), (3, 11), (grid.period - 5, grid.period)]
        else:
            lo = data.draw(st.integers(0, grid.period), label="lo")
            ranges = [(lo, data.draw(st.integers(lo, grid.period), label="hi"))]
        for lo, hi in ranges:
            assert _escape_cells(grid, lo, hi) == escape_cells_by_residue(grid, lo, hi)

    @pytest.mark.parametrize("i", [*(IndexJK(1, k) for k in range(4)), *(IndexJK(2, k) for k in range(5))], ids=str)
    def test_closed_form_matches_the_residue_loop(self, i):
        # every residue of the comb period, one at a time: 2^20 of them at (2,4)
        grid = _escape_grid(i, build_universal(i.successor()))
        assert _escape_cells(grid, 0, grid.period) == escape_cells_by_residue(grid, 0, grid.period)

    @pytest.mark.parametrize("i", [IndexJK(2, 15), IndexJK(3, 0)], ids=str)
    def test_residue_ranges_at_large_periods_match_the_loop(self, i):
        # the comb period is 2^31 and 2^48 residues: check ranges around
        # both ends, every residue another family hits, the summed wide
        # block's wrap, and random ranges
        grid = _escape_grid(i, build_universal(i.successor()))
        pi = grid.period
        marks = [0, pi]
        for first, g, m in grid.segments:
            y = grid.base - first
            marks += [(y - g * t) % pi for t in range(min(2, m))]
        rng = random.Random(str(i))
        marks += [rng.randrange(pi) for _ in range(20)]
        for mark in marks:
            lo = max(0, mark - rng.randrange(1, 200))
            hi = min(pi, mark + rng.randrange(1, 200))
            assert _escape_cells(grid, lo, hi) == escape_cells_by_residue(grid, lo, hi), (lo, hi)

    @pytest.mark.parametrize(
        "i, measure",
        [(IndexJK(2, 5), Dyadic(17592181850113, -62)), (IndexJK(2, 6), Dyadic(68169712533505, -65))],
        ids=str,
    )
    def test_default_budget_verifies_2_5_and_2_6(self, i, measure):
        # 13 units of work each; the values were recorded with the residue
        # loop, which needs a budget of 3 * 2^21 and 3 * 2^22 here
        got, rep = escape_measure(i, build_universal(i.successor()))
        assert got == measure and rep.passed and rep.params["prefix_covers_range"]

    def test_budget_counts_residue_families_and_pieces(self, monkeypatch):
        # (1,2) has 3 segments: the previous half block hits 1 residue and its
        # own half block 2, each merged over the 3 families (9); its wide
        # block is summed in 4 pieces (its residues wrap once, so 2 t0 ranges,
        # each one piece per window)
        seq = build_universal(IndexJK(1, 3))
        i = IndexJK(1, 2)
        monkeypatch.setattr(universal, "ESCAPE_BUDGET", 3 * 3 + 4)
        assert escape_measure(i, seq)[1].passed
        monkeypatch.setattr(universal, "ESCAPE_BUDGET", 3 * 3 + 4 - 1)
        with pytest.raises(BudgetExceeded):
            escape_measure(i, seq)

    def test_a_fine_gap_is_refused_before_any_residue_is_listed(self):
        # gaps on a grid 2^40 times finer than E^3 make each component 2^40
        # cells, so 2^40 families at each of the comb's residues
        i = IndexJK(1, 0)
        seq = GapBlockSeq(Dyadic(15), [GapBlock(Dyadic(1, -52), 3), GapBlock(Dyadic(3, -52), 3)])
        with pytest.raises(BudgetExceeded):
            escape_measure(i, seq)


class TestBorelCantelli:
    def test_first_terms(self):
        partial, tail = borel_cantelli_partial(1)
        assert partial == Dyadic(14, -3)
        partial2, tail2 = borel_cantelli_partial(2)
        assert partial2 == Dyadic(14, -3) + Dyadic(44, -14)
        assert tail2 < tail

    def test_total_bounded_and_monotone(self):
        prev = None
        for jmax in range(1, 6):
            partial, tail = borel_cantelli_partial(jmax)
            total = partial + tail
            assert total < Dyadic(2)
            if prev is not None:
                assert total <= prev
            prev = total


# The report for the four j = 1 combs, recorded from the breakpoint envelope
# this closed form replaced; identical for prefixes through (2,0)..(2,4).
SMOOTHING_J1 = (
    '{"claim":"smoothing-measure","lhs":"1*2^-44; 31*2^-44; 1*2^-63; 63*2^-63; 1*2^-98; 127*2^-98; 1*2^-164; 255*2^-164",'
    '"params":{"sets":[{"delta":"1*2^-44","index":"(1,0)","points_upto_10N":"1952161"},'
    '{"delta":"1*2^-63","index":"(1,1)","points_upto_10N":"7195041"},'
    '{"delta":"1*2^-98","index":"(1,2)","points_upto_10N":"17680801"},'
    '{"delta":"1*2^-164","index":"(1,3)","points_upto_10N":"38652321"}],'
    '"windows":{"128":{"added":"1*2^-164","bound":"1*2^-154"},"129":{"added":"255*2^-164","bound":"1*2^-155"},'
    '"16":{"added":"1*2^-44","bound":"1*2^-37"},"17":{"added":"31*2^-44","bound":"1*2^-38"},'
    '"32":{"added":"1*2^-63","bound":"1*2^-55"},"33":{"added":"63*2^-63","bound":"1*2^-56"},'
    '"64":{"added":"1*2^-98","bound":"1*2^-89"},"65":{"added":"127*2^-98","bound":"1*2^-90"}}},'
    '"pass":true,"rhs":"1*2^-37; 1*2^-38; 1*2^-55; 1*2^-56; 1*2^-89; 1*2^-90; 1*2^-154; 1*2^-155"}'
)


def combs(j: int, ks) -> list:
    return [IndexJK(j, k) for k in ks]


class TestSmoothing:
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_j1_report_recorded(self, k):
        rep = smoothing_measure(combs(1, range(4)), build_universal(IndexJK(2, k)))
        assert json.dumps(report_json_dict(rep), sort_keys=True, separators=(",", ":")) == SMOOTHING_J1

    def test_envelope_adds_the_reported_support(self):
        uG = combs(1, range(4))
        rep = smoothing_measure(uG, build_universal(IndexJK(2, 0)))
        g = smoothing_envelope(uG, [Dyadic.parse(row["delta"]) for row in rep.params["sets"]])
        assert max(g.vs) == Dyadic(1)
        for i in uG:
            for comp in components(comb(i)):
                assert pl_eval(g, comp.lo) == pl_eval(g, comp.lo + (comp.hi - comp.lo).div_exact(2)) == Dyadic(1)
        # zero outside the fattened support
        assert pl_eval(g, Dyadic(16) - Dyadic(1, -20)) == ZERO
        assert pl_eval(g, dy("15.5")) == ZERO
        combs_in = measure_per_window(c for i in uG for c in components(comb(i)))
        added = {m: v - combs_in.get(m, ZERO) for m, v in measure_per_window(support(g)).items()}
        assert added == {int(m): Dyadic.parse(row["added"]) for m, row in rep.params["windows"].items()}

    def test_row2_combs(self):
        # 2^16 and more components each: past the envelope's reach
        rep = smoothing_measure(combs(2, range(4)), build_universal(IndexJK(2, 8)))
        assert rep.passed
        assert [row["index"] for row in rep.params["sets"]] == ["(2,0)", "(2,1)", "(2,2)", "(2,3)"]
        assert list(rep.params["windows"]) == [str(m) for a in (1 << 16, 1 << 17, 1 << 18, 1 << 19) for m in (a, a + 1)]
        for row in rep.params["windows"].values():
            assert Dyadic.parse(row["added"]) < Dyadic.parse(row["bound"])

    def test_prefix_must_reach_ten_windows_out(self):
        # (2,0) has a = 2^16; the prefix through (2,1) ends near 2^17 < 10*(a+1)
        with pytest.raises(IndexError):
            smoothing_measure(combs(2, [0]), build_universal(IndexJK(2, 1)))

    def test_empty(self):
        rep = smoothing_measure([], build_universal(IndexJK(1, 1)))
        assert rep.passed
        assert rep.params == {"sets": [], "windows": {}}
