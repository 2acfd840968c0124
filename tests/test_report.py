"""Witness reports: the record's value semantics, and the report file
against one `json.dumps` of every report (`oracles.write_reports_json`)."""

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dyadlab.report import WitnessReport, write_reports
from oracles import write_reports_json


def test_report_fields_defaults_and_equality():
    r = WitnessReport("c", {})
    assert (r.claim, r.params, r.lhs, r.rhs, r.passed) == ("c", {}, "", "", True)
    with pytest.raises(TypeError):
        WitnessReport("c")  # every report names its params
    full = WitnessReport("c", {"x": "1"}, "a", "b", passed=False)
    assert full == WitnessReport(claim="c", params={"x": "1"}, lhs="a", rhs="b", passed=False)
    assert full != WitnessReport("c", {"x": "1"}, "a", "b") and tuple(full) == ("c", {"x": "1"}, "a", "b", False)
    with pytest.raises(TypeError):
        hash(full)


@pytest.mark.parametrize("field", ["claim", "params", "lhs", "rhs", "passed", "other"])
def test_report_is_immutable(field):
    r = WitnessReport("c", {"x": "1"})
    with pytest.raises(AttributeError):
        setattr(r, field, None)
    with pytest.raises(AttributeError):
        delattr(r, field)
    assert r == WitnessReport("c", {"x": "1"})


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_report_copies_and_pickles(how):
    r = WitnessReport("c", {"per": [{"j": 1}]}, "a", "b", passed=False)
    again = how(r)
    assert again == r and type(again) is WitnessReport


scalars = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text()
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=2),
    max_leaves=8,
)


@st.composite
def report_lists(draw):
    """Reports whose params dicts, and values inside them, are often one
    shared object: a pool of values, a pool of params built from it, and
    each report taking a pooled params dict or a fresh one.  Text runs over
    Unicode, control characters included; a few fields are not str, and a
    few params dicts have non-str keys."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    keys = st.text(max_size=4) | st.sampled_from(["x", "j", "per_decade"]) | st.integers(-2, 2)
    entry = st.tuples(keys, st.sampled_from(pool) | values)
    params_pool = [dict(draw(st.lists(entry, max_size=4))) for _ in range(draw(st.integers(1, 3)))]
    field = st.text() | st.just("1*2^-3") | st.integers() | st.none()
    reports = []
    for _ in range(draw(st.integers(0, 6))):
        params = draw(st.sampled_from(params_pool) | st.lists(entry, max_size=3).map(dict) | values)
        passed = draw(st.booleans() | st.sampled_from([0, 1, None]))
        reports.append(WitnessReport(draw(field), params, draw(field), draw(field), passed))
    return reports


def _written(writer, path, reports):
    try:
        writer(str(path), reports)
    except TypeError as exc:
        return type(exc)
    return path.read_bytes()


@given(report_lists())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_report_file_is_one_json_dumps_of_every_report(tmp_path, reports):
    """Byte for byte the file one `json.dumps` writes, or the same error
    (a params dict whose keys do not sort)."""
    want = _written(write_reports_json, tmp_path / "want.json", reports)
    assert _written(write_reports, tmp_path / "got.json", reports) == want


def test_report_file_shares_encodings_by_identity(tmp_path, monkeypatch):
    """A params dict shared by every report is encoded once, and so is a
    list shared by every report's own params dict."""
    import dyadlab.report as report

    calls = []
    real = report._encoded
    monkeypatch.setattr(report, "_encoded", lambda v: calls.append(v) or real(v))
    shared = {"samples": 3, "per_decade": [{"j": 1, "sum": "0*2^0"}]}
    per = shared["per_decade"]
    reports = [WitnessReport(f"c{n}", shared) for n in range(50)]
    reports += [WitnessReport(f"d{n}", {"per_decade": per, "x": str(n)}) for n in range(50)]
    write_reports(str(tmp_path / "got.json"), reports)
    write_reports_json(str(tmp_path / "want.json"), reports)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert [v for v in calls if type(v) is not str] == [per, 3] + [True] * 100
