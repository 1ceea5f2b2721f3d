"""``locks.moved`` names every entry that moved, in each layout of lock."""

import copy

import pytest

from locks import moved

# a flat digest map, as the CLI bytes lock and the depth lock are
FLAT = {"G01.a": "a1", "G02.b": "b2", "G03.c": "c3"}
# the deep grid's lock: totals, the suite digest and one digest per case
DEEP = {"totals": {"cases": 3, "points": 9, "failures": 0, "probe_findings": 1}, "suite_sha256": "s",
        "cases": dict(FLAT)}
# the catalogue lock: as the deep grid's, with fields per case and the cap grids
CATALOGUE = {"totals": {"cases": 3, "points": 9, "failures": 0, "probe_findings": 1}, "suite_sha256": "s",
             "cases": {"G01.a": {"points": 2, "values": "v1", "report": "r1"},
                       "G02.b": {"points": 3, "values": "v2", "report": "r2"},
                       "G03.c": {"points": 4, "values": "v3", "report": "r3", "finding": "holds: a"}},
             "grids": {"CAPPED": {"points": 5, "sha256": "g1"}, "SMALL": {"points": 6, "sha256": "g2"}}}
# layout -> (a record, the field that holds its entries, or None for the record itself)
LAYOUTS = {"flat": (FLAT, None), "deep": (DEEP, "cases"), "catalogue": (CATALOGUE, "cases")}

# move -> (an edit of the entries, the entries it names)
MOVES = {
    "added": (lambda entries: {**entries, "G04.d": entries["G01.a"]}, "G04.d"),
    "removed": (lambda entries: {k: v for k, v in entries.items() if k != "G02.b"}, "G02.b"),
    "reordered": (lambda entries: {"G02.b": entries["G02.b"], **entries}, "G01.a G02.b"),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_equal_records_move_nothing(layout):
    record = LAYOUTS[layout][0]
    assert moved(record, copy.deepcopy(record)) == []


@pytest.mark.parametrize("move", MOVES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_added_removed_and_reordered_entries_are_named(layout, move):
    (record, field), (edit, named) = LAYOUTS[layout], MOVES[move]
    computed = copy.deepcopy(record)
    if field:
        computed[field] = edit(computed[field])
    else:
        computed = edit(computed)
    prefix = f"{field} " if field else ""
    assert moved(record, computed) == [f"{prefix}{move}: {named}"]


@pytest.mark.parametrize("record, edit, want", [
    (FLAT, lambda r: r.update({"G02.b": "x"}), ["changed: G02.b"]),
    (DEEP, lambda r: r["cases"].update({"G02.b": "x"}), ["cases changed: G02.b"]),
    (DEEP, lambda r: r.update(suite_sha256="x"), ["changed: suite_sha256"]),
    (DEEP, lambda r: r["totals"].update(points=8, failures=1), ["totals changed: points failures"]),
    (CATALOGUE, lambda r: r["cases"]["G02.b"].update(values="x"), ["cases values changed: G02.b"]),
    (CATALOGUE, lambda r: r["cases"]["G03.c"].pop("finding"), ["cases finding changed: G03.c"]),
    (CATALOGUE, lambda r: [r["cases"][cid].update(report="x", points=0) for cid in ("G01.a", "G03.c")],
     ["cases points changed: G01.a G03.c", "cases report changed: G01.a G03.c"]),
    (CATALOGUE, lambda r: r["grids"]["SMALL"].update(sha256="x"), ["grids sha256 changed: SMALL"]),
    (CATALOGUE, lambda r: r.update(suite_sha256="x", totals={**r["totals"], "cases": 4}),
     ["changed: suite_sha256", "totals changed: cases"]),
], ids=["flat", "deep-case", "deep-suite", "deep-totals", "catalogue-values", "catalogue-finding",
        "catalogue-two-fields", "catalogue-grid", "catalogue-suite-totals"])
def test_changed_entries_are_named_by_field(record, edit, want):
    computed = copy.deepcopy(record)
    edit(computed)
    assert moved(record, computed) == want


def test_a_missing_record_has_every_entry_added():
    assert moved({}, FLAT) == ["added: G01.a G02.b G03.c"]
    assert moved({}, DEEP) == ["added: suite_sha256", "totals added: cases points failures probe_findings",
                               "cases added: G01.a G02.b G03.c"]
