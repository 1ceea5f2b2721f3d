"""Every catalogued check gives the same exact values as when recorded, and
every case the benchmark runs keeps the report it recorded.

Both read the catalogue lock, ``expected_catalogue.json`` (see
``catalogue_lock``).  After a deliberate change to what the catalogue
computes, rewrite every lock from the repository root with

    python ci/record.py
"""

import json
from pathlib import Path

from polycauchy.identities import catalog

from catalogue_lock import read, values_digest

EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "bench" / "expected_verify.json"


def test_check_values_match_recorded():
    expected = {cid: entry["values"] for cid, entry in read()["cases"].items()}
    actual = {case.id: values_digest(case) for case in catalog()}
    assert list(actual) == list(expected), "case ids or their order changed"
    changed = [case_id for case_id in expected if actual[case_id] != expected[case_id]]
    assert not changed, f"check values changed for {changed}"


def test_benchmark_cases_keep_their_recorded_reports():
    # verify_default runs the cases of its own record and compares each report
    # with it, so none of them may leave the catalogue or change its report
    lock = read()["cases"]
    bench = json.loads(EXPECTED_VERIFY.read_text())["cases"]
    assert [cid for cid in bench if cid not in lock] == []
    assert [cid for cid in bench if lock[cid]["report"] != bench[cid]] == []
