"""Every catalogued check gives the same exact values as when recorded, and
every case the benchmark runs keeps the report it recorded.

Both read the catalogue lock, ``expected_catalogue.json`` (``locks.CATALOGUE``
in ``ci/locks.py``), and fail with what ``locks.moved`` names.  After a
deliberate change to what the catalogue computes, rewrite every lock from the
repository root with

    python ci/record.py
"""

from polycauchy.identities import catalog

from locks import CATALOGUE, ROOT, moved, read, values_digest

EXPECTED_VERIFY = ROOT / "bench" / "expected_verify.json"


def test_check_values_match_recorded():
    recorded = {cid: {"values": entry["values"]} for cid, entry in read(CATALOGUE)["cases"].items()}
    lines = moved({"cases": recorded}, {"cases": {case.id: {"values": values_digest(case)} for case in catalog()}})
    assert not lines, "\n".join(lines)


def test_benchmark_cases_keep_their_recorded_reports():
    # verify_default runs the cases of its own record and compares each report
    # with it, so none of them may leave the catalogue or change its report
    lock = read(CATALOGUE)["cases"]
    bench = read(EXPECTED_VERIFY)["cases"]
    lines = moved({"cases": bench}, {"cases": {cid: lock[cid]["report"] for cid in bench if cid in lock}})
    assert not lines, "\n".join(lines)
