import json
from dataclasses import replace

import pytest

from polycauchy.identities import (
    DEFAULT_GRID,
    Grid,
    GROUPS,
    catalog,
    get_case,
    run_all,
    verify,
)
from polycauchy.identities import registry_core, registry_poly

SMALL = Grid(max_n=5, max_n_double=3, max_k=2, max_r=2, max_a=2, max_n_multi=2)


def test_catalog_contains_named_cases():
    ids = {c.id for c in catalog()}
    assert "G04.int1" in ids
    assert "G05.chen1" in ids
    assert "G09.zhao" in ids
    assert "G06.k-recurrence-sign" in ids


def test_catalog_size_and_uniqueness():
    cases = catalog()
    assert len(cases) >= 60
    ids = [c.id for c in cases]
    assert len(set(ids)) == len(ids)


def test_every_group_nonempty():
    present = {c.group for c in catalog()}
    assert present == set(GROUPS)


def test_case_ids_carry_their_group():
    for case in catalog():
        assert case.id.startswith(case.group + ".")


def test_verify_named_case_point_count():
    report = verify("G04.int1", Grid(max_n=10))
    assert report.ok
    assert report.points == 11


@pytest.mark.parametrize("bound", ["max_n", "max_n_double", "max_k", "max_r", "max_a",
                                   "max_n_multi"])
def test_negative_grid_bound_rejected(bound):
    # a negative bound would empty the grid and let every case pass vacuously;
    # the order k and the shift a start at 1, so 0 empties their cases too
    with pytest.raises(ValueError, match=bound):
        Grid(**{bound: -1})
    with pytest.raises(ValueError, match=bound):
        replace(DEFAULT_GRID, **{bound: -5})
    low = 1 if bound in ("max_k", "max_a") else 0
    if low:
        with pytest.raises(ValueError, match=f"{bound} must be >= 1"):
            Grid(**{bound: 0})
    assert getattr(Grid(**{bound: low}), bound) == low


@pytest.mark.parametrize("points", ["qs", "xs", "ls", "ys_multi"])
def test_empty_grid_list_rejected(points):
    with pytest.raises(ValueError, match=f"{points} must not be empty"):
        Grid(**{points: ()})
    with pytest.raises(ValueError, match=points):
        replace(DEFAULT_GRID, **{points: ()})


def test_verify_zhao():
    report = verify("G09.zhao", Grid(max_n=10))
    assert report.ok
    assert report.points == 11


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        verify("G99.nope", SMALL)


def test_determinism_modulo_elapsed_time():
    a = verify("G05.chen1", SMALL)
    b = verify("G05.chen1", SMALL)
    assert a.fingerprint() == b.fingerprint()


def test_probe_reports_single_surviving_sign():
    report = verify("G06.k-recurrence-sign", SMALL)
    assert report.probe
    assert report.ok  # probes never fail the suite
    assert report.finding.startswith("holds: +(x-n)")
    assert "-(x-n)" in report.finding and "fail" in report.finding


def test_report_json_schema():
    report = verify("G04.int1", SMALL)
    d = report.to_dict()
    assert set(d) == {"id", "group", "points", "failures", "millis"}
    probe = verify("G06.k-recurrence-sign", SMALL).to_dict()
    assert probe["probe"] is True
    assert "finding" in probe


def test_run_all_small_grid():
    result = run_all(SMALL)
    assert result.ok
    assert [r.case_id for r in result.reports] == [c.id for c in catalog()]
    payload = json.loads(result.to_json())
    assert payload["summary"]["failures"] == 0
    assert payload["summary"]["ok"] is True
    assert len(payload["summary"]["groups"]) == 22
    findings = {f["id"] for f in payload["summary"]["findings"]}
    assert "G06.k-recurrence-sign" in findings
    assert "G22.compare-hyp5" in findings


def test_failure_reporting_shape():
    # a deliberately broken case never ships; simulate by checking the
    # failure dict structure through a probe variant that fails
    report = verify("G22.compare-hyp5", SMALL)
    assert report.probe and report.ok
    assert "argument-shifted" in report.finding


def test_grid_overrides():
    g = replace(DEFAULT_GRID, max_n=3)
    assert g.max_n == 3
    assert g.max_k == DEFAULT_GRID.max_k


def test_registry_memos_are_bounded_and_hold_the_default_grid():
    # each memo of an inner sum or of r-Whitney values is bounded, and a
    # default run fills it below its bound, so nothing is evicted and computed again
    memos = (registry_core._s2_values, registry_core._whitney_values, registry_poly._kb_inner,
             registry_poly._bernoulli_moments)
    for memo in memos:
        memo.cache_clear()
    assert run_all(DEFAULT_GRID).ok
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None
        assert 0 < info.currsize < info.maxsize
