import inspect
import json
from dataclasses import fields, replace
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import polycauchy.identities as identities
from polycauchy.identities import (
    DEFAULT_GRID,
    Axis,
    Grid,
    GROUPS,
    IdentityCase,
    SuiteResult,
    catalog,
    get_case,
    run_all,
    verify,
)
from polycauchy.identities import registry
from polycauchy.poly import Poly

# the one scan for package memos, which the deep-grid census reads too
from deep_grid import CONFIG, package_memos
from locks import CATALOGUE, GRIDS, ROOT, SMALL, moved, points_digest, read

# every bound at its least: 19 cases, among them G07.*, G15.whitk* and G20.*, have no point
BARE = Grid(max_n=1, max_n_double=1, max_k=1, max_r=0, max_a=1, max_n_multi=0)


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
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


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


@pytest.mark.parametrize("overrides, field", [
    ({"xs": (0.1,)}, "xs"),
    ({"qs": (0.5,)}, "qs"),
    ({"ys_multi": (0.25,)}, "ys_multi"),
    ({"max_n": 2.5}, "max_n"),
    ({"max_n": True}, "max_n"),
    ({"ls": ((Fraction(0),),)}, "ls"),
    ({"qs": (Fraction(1), Fraction(0))}, "qs must not hold 0"),
], ids=["float-x", "float-q", "float-y", "float-bound", "bool-bound", "zero-weight", "zero-q"])
def test_grid_of_bad_type_rejected_when_built(overrides, field):
    # each of these used to be accepted, then fail part-way through run_all()
    # or, for the bool bound, run as n <= 1
    with pytest.raises(ValueError, match=field):
        replace(DEFAULT_GRID, **overrides)


def test_deep_grid_config_builds():
    grid = Grid.from_text(CONFIG.read_text())
    assert grid.max_n > DEFAULT_GRID.max_n and grid.qs == DEFAULT_GRID.qs


def _field_text(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value[0], tuple):
        return "; ".join(map(_field_text, value))
    return ", ".join(map(str, value))


@pytest.mark.parametrize("name", [f.name for f in fields(Grid)])
def test_grid_text_reads_every_field(name):
    # a field that the text form leaves out could not be set by verify --config
    value = getattr(DEFAULT_GRID, name)
    other = value + 1 if isinstance(value, int) else value[::-1]
    grid = Grid.from_text(f"# one field\n\n {name} = {_field_text(other)}\n")
    assert grid == replace(DEFAULT_GRID, **{name: other})


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


def test_suite_fingerprint_leaves_out_elapsed_time():
    a, b = run_all(SMALL), run_all(SMALL)
    assert a.fingerprint() == b.fingerprint()
    assert [r.millis for r in a.reports] != [r.millis for r in b.reports]
    assert all(isinstance(r.millis, float) for r in a.reports)
    assert list(a.fingerprint()["cases"]) == [r.case_id for r in a.reports]
    assert a.to_dict()["summary"]["fingerprint"] == a.fingerprint()["suite_sha256"]


def test_suite_fingerprint_follows_the_outcome():
    result = run_all(SMALL)
    before = result.fingerprint()
    result.reports[0] = replace(result.reports[0], points=result.reports[0].points + 1)
    after = result.fingerprint()
    first = result.reports[0].case_id
    assert [cid for cid in before["cases"] if before["cases"][cid] != after["cases"][cid]] == [first]
    assert before["suite_sha256"] != after["suite_sha256"]


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
    # a deliberately false case, whose second sides differ at every point, reaches
    # the failure branch and renders each point's parameters and tuple sides
    case = IdentityCase("G00.false", "deliberately false", (Axis("n", 2),),
                        lambda n: ((Fraction(n), Poly([n, 1])), (Fraction(n), Poly([n + 1, 1]))))
    report = identities.run_case(case, DEFAULT_GRID)
    first = {"params": "n=0", "lhs": "(0, x)", "rhs": "(0, 1 + x)"}
    assert not report.ok and len(report.failures) == 3
    assert report.failures[0] == first and report.to_dict()["failures"][0] == first
    assert SuiteResult([report], DEFAULT_GRID).failures == 3


def test_integer_grid_points_and_weights_stay_exact():
    # ints are valid grid points and weights; with them G21.x0's right side was
    # once a float, and 87 of its points failed
    grid = replace(SMALL, qs=(1, 3), ls=((2, 3),), ys_multi=(0, 2), max_n_multi=8)
    for case_id in ("G21.x0-first", "G21.x0-second"):
        assert verify(case_id, grid).ok


def test_every_g21_case_passes_with_a_negative_weight_product():
    # every weight list of the default grid has w > 0; ci/signed-weights.cfg adds one
    # with w = -3/2, on which a sign lost in poly._cube_moments fails G21.shif1/shif2
    # and G21.x0-first/x0-second
    grid = Grid.from_text((ROOT / "ci" / "signed-weights.cfg").read_text())
    assert grid.ls != DEFAULT_GRID.ls and replace(grid, ls=DEFAULT_GRID.ls) == DEFAULT_GRID
    assert min(map(prod, grid.ls)) < 0
    case_ids = [case.id for case in catalog() if case.group == "G21"]
    assert len(case_ids) == 18
    for case_id in case_ids:
        assert verify(case_id, grid).ok, case_id


def test_grid_overrides():
    g = replace(DEFAULT_GRID, max_n=3)
    assert g.max_n == 3
    assert g.max_k == DEFAULT_GRID.max_k


def test_registry_memos_are_bounded_and_hold_the_default_grid():
    # each memo of the library and of the catalogue is bounded, and a default
    # run fills it below its bound, so nothing is evicted and computed again
    memos = package_memos()
    assert "polycauchy.identities.registry._inv_sum" in memos
    assert "polycauchy.stirling.gsn1" in memos
    for memo in memos.values():
        memo.cache_clear()
    assert run_all(DEFAULT_GRID).ok
    for name, memo in memos.items():
        info = memo.cache_info()
        assert info.maxsize is not None, name
        assert 0 < info.currsize < info.maxsize, (name, info)


def _required(fn) -> set:
    return {name for name, param in inspect.signature(fn).parameters.items()
            if param.default is inspect.Parameter.empty}


def test_axes_name_the_parameters_each_check_needs():
    # a call keyword overrides a partial's, so a stray k axis on
    # partial(_pro4, "first", k=1) would test every k in place of k = 1
    for case in catalog():
        names = [axis.name for axis in case.axes]
        assert len(set(names)) == len(names), case.id
        for fn in case.checks.values():
            assert set(names) == _required(fn), case.id


def test_axes_are_declared_not_generated():
    for case in catalog():
        assert isinstance(case.axes, tuple) and all(isinstance(axis, Axis) for axis in case.axes), case.id
    assert "lambda g" not in Path(registry.__file__).read_text()


@pytest.mark.parametrize("name", GRIDS)
def test_every_case_passes_where_the_caps_bite(name):
    # odd n bounds, and k, a, r and multiparameter n below the caps some axes put on them
    result = run_all(GRIDS[name])
    assert [report.case_id for report in result.reports if not report.ok] == []


@pytest.mark.parametrize("name", GRIDS)
def test_points_where_the_caps_bite_are_unchanged(name):
    # the point count and one digest over every point, as the catalogue lock records them
    recorded = {key: value for key, value in read(CATALOGUE)["grids"].items() if key == name}
    lines = moved({"grids": recorded}, {"grids": {name: points_digest(GRIDS[name])}})
    assert not lines, "\n".join(lines)


def test_axis_bounds():
    grid = Grid(max_n=7, max_r=1)
    assert list(Axis("n", "max_n", start=1, per=2).span(grid, {})) == [1, 2, 3]
    assert list(Axis("n", "max_n", less=1).span(grid, {})) == list(range(7))
    assert list(Axis("k", "max_n", start=1, cap=3).span(grid, {})) == [1, 2, 3]
    assert list(Axis("r", "n", cap="max_r").span(grid, {"n": 4})) == [0, 1]
    assert list(Axis("r", values=(-2, 0, 1, 3), cap="max_r").span(grid, {})) == [0, 1]
    assert Axis("y", values="xs").span(grid, {}) == grid.xs
    case = IdentityCase("G99.t", "", (Axis("n", 2), Axis("i", "n", start=1)))
    assert case.points(grid) == [{"n": 1, "i": 1}, {"n": 2, "i": 1}, {"n": 2, "i": 2}]
    assert IdentityCase("G99.t", "", ()).points(grid) == [{}]


def test_case_without_points_is_refused_before_any_check_runs():
    calls = []
    case = IdentityCase("G99.empty", "", (Axis("n", "max_n", start=2),), lambda n: calls.append(n))
    with pytest.raises(ValueError, match="G99.empty has no point"):
        identities.run_case(case, Grid(max_n=1))
    assert not calls
    with pytest.raises(ValueError, match="G03.alt-sum has no point"):
        verify("G03.alt-sum", Grid(max_n=1))
    with pytest.raises(ValueError, match="G15.whitk1 has no point"):
        verify("G15.whitk1", Grid(max_r=0))


def test_run_all_builds_each_cases_points_once(monkeypatch):
    built, points = [], IdentityCase.points
    monkeypatch.setattr(IdentityCase, "points", lambda case, grid: built.append(case.id) or points(case, grid))
    monkeypatch.setattr(identities.engine, "_run", lambda case, points: None)
    run_all(DEFAULT_GRID)
    assert built == [case.id for case in catalog()]


def test_run_all_refuses_a_grid_that_empties_a_case_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(identities.engine, "_run", lambda case, points: ran.append(case.id))
    with pytest.raises(ValueError, match="G03.alt-sum has no point"):
        run_all(BARE)
    assert not ran
    empty = []
    for case in catalog():
        try:
            case.points(BARE)
        except ValueError:
            empty.append(case.id)
    assert len(empty) == 19
