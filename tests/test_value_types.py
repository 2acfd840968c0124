"""The frozen value types: a rebuilt copy compares and hashes equal, and no
field can be assigned."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from dyadlab.exactnum import Dyadic, DyInterval, IntervalUnion, PiecewiseLinear, ZERO
from dyadlab.dense_divergence import build_thm31
from dyadlab.interior_gap import build_thm33
from dyadlab.lattice import GapBlock, GapBlockSeq

dyadics = st.builds(Dyadic, st.integers(-(2**20), 2**20), st.integers(-12, 12))
positive = st.builds(Dyadic, st.integers(1, 2**20), st.integers(-12, 12))


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(dyadics), draw(dyadics)))
    if lo == hi:
        return DyInterval(lo, hi)
    return DyInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def open_intervals(draw):
    lo, hi = sorted((draw(dyadics), draw(dyadics)))
    return DyInterval.open(lo, hi if hi > lo else lo + 1)


@st.composite
def piecewise(draw):
    xs = sorted(set(draw(st.lists(dyadics, min_size=2, max_size=8))))
    if len(xs) < 2:
        xs.append(xs[0] + 1)
    vs = [ZERO] + [abs(draw(dyadics)) for _ in xs[2:]] + [ZERO]
    return PiecewiseLinear(zip(xs, vs))


gap_seqs = st.builds(
    GapBlockSeq,
    dyadics,
    st.lists(st.builds(GapBlock, positive, st.integers(1, 10**30), st.sampled_from(["", "a", "b"])), max_size=6),
)


def _assert_value(a, b, field):
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


@given(intervals())
def test_interval_rebuilt_is_equal(iv):
    _assert_value(iv, DyInterval.parse(str(iv)), "lo")
    _assert_value(iv, DyInterval(iv.lo, iv.hi, iv.closed_lo, iv.closed_hi), "closed_hi")


@given(st.lists(open_intervals(), max_size=8).flatmap(lambda ivs: st.tuples(st.just(ivs), st.permutations(ivs))))
def test_union_is_equal_across_part_orders(case):
    ivs, shuffled = case
    g = IntervalUnion(ivs)
    _assert_value(g, IntervalUnion(shuffled), "parts")
    _assert_value(g, IntervalUnion.from_json([str(p) for p in g.parts]), "parts")


@given(piecewise())
def test_piecewise_rebuilt_is_equal(f):
    _assert_value(f, PiecewiseLinear(zip(f.xs, f.vs)), "vs")


@given(gap_seqs)
def test_gap_seq_rebuilt_is_equal(seq):
    copy = GapBlockSeq.from_json_dict(seq.to_json_dict())
    _assert_value(seq, copy, "blocks")
    _assert_value(seq, GapBlockSeq(seq.origin, list(seq.blocks)), "origin")
    assert (copy.total_count, copy.last_value) == (seq.total_count, seq.last_value)
    with pytest.raises(AttributeError):
        seq.cum_counts = []


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", COPIES)
@given(dyadics, gap_seqs, piecewise())
def test_values_copy_and_pickle_equal(how, d, seq, f):
    """A Dyadic, a GapBlock, a GapBlockSeq (its tables too) and a
    PiecewiseLinear (its int grids too) come back equal from copy, deepcopy
    and a pickle round trip; a Dyadic stays canonical."""
    again = COPIES[how](d)
    assert (again, type(again), again.m, again.e) == (d, Dyadic, d.m, d.e)
    for block in seq.blocks:
        assert COPIES[how](block) == block and type(COPIES[how](block)) is GapBlock
    seq2 = COPIES[how](seq)
    assert seq2 == seq
    assert (seq2.cum_counts, seq2.cum_ints, seq2.grid) == (seq.cum_counts, seq.cum_ints, seq.grid)
    f2 = COPIES[how](f)
    assert f2 == f and (f2.x_ints, f2.x_gaps, f2.x_exp, f2.v_ints, f2.v_exp) == (f.x_ints, f.x_gaps, f.x_exp, f.v_ints, f.v_exp)


@pytest.mark.parametrize("how", COPIES)
def test_thm33_construction_copies_with_its_runs(how):
    cons = build_thm33(3)
    again = COPIES[how](cons)
    assert again == cons
    assert [t.runs for t in again.tables] == [t.runs for t in cons.tables]


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("lifted", [False, True])
def test_constructions_copy_with_their_run_tables(how, lifted):
    """thm33's decade tables and thm31's fine-window tables come back from
    copy, deepcopy and pickle with the same f, runs and sums, before and
    after a shift on a finer grid has lifted them; they are left out of
    `==`."""
    x = Dyadic(3, -50)
    cons, cons31 = build_thm33(3), build_thm31(4)
    tables = list(cons.tables) + [it.lam1_sums for it in cons31.items]
    if lifted:
        for t in tables:
            t.at(x)
    again, again31 = COPIES[how](cons), COPIES[how](cons31)
    assert again == cons and again31 == cons31
    copied = list(again.tables) + [it.lam1_sums for it in again31.items]
    assert [(t.f, t.runs) for t in copied] == [(t.f, t.runs) for t in tables]
    assert [t.at(x) for t in copied] == [t.at(x) for t in tables]
    object.__setattr__(again31.items[0], "lam1_sums", again31.items[1].lam1_sums)
    assert again31 == cons31


def test_gap_block_checks_every_path_that_builds_one():
    block = GapBlock(Dyadic(1), 3, "tag")
    assert block._replace(count=4) == GapBlock(Dyadic(1), 4, "tag")
    assert type(block._replace(tag="")) is GapBlock
    with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
        block._replace(count=0)
    with pytest.raises(ValueError, match=r"^gap must be positive, got -1\*2\^0$"):
        block._replace(gap=Dyadic(-1))
    with pytest.raises(ValueError, match=r"^gap must be positive, got 0\*2\^0$"):
        GapBlock._make([ZERO, 3, "tag"])


def test_unequal_values_differ():
    iv = DyInterval.closed(0, 1)
    assert iv != DyInterval(iv.lo, iv.hi, True, False)
    assert IntervalUnion([DyInterval.open(0, 1)]) != IntervalUnion([DyInterval.open(0, 2)])
    seq = GapBlockSeq(ZERO, [GapBlock(Dyadic(1), 3)])
    assert seq != GapBlockSeq(ZERO, [GapBlock(Dyadic(1), 4)])
    assert seq != GapBlockSeq(ZERO, [GapBlock(Dyadic(1), 3, "tag")])
