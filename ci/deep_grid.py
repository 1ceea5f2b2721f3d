"""Run the identity catalogue on the deep grid and check it against its record.

    python ci/deep_grid.py            # check: exit 1 on a failure or a digest change
    python ci/deep_grid.py --record   # rewrite ci/deep-grid.json from this run

The grid is ``ci/deep-grid.cfg``.  The run is ``polycauchy verify --config
ci/deep-grid.cfg --json`` in a child interpreter under ``timeout 60``, so
``polycauchy`` must be importable (installed, or ``PYTHONPATH=src``).  A case's
digest is the sha256 of ``json.dumps(Report.fingerprint(), sort_keys=True)``,
its report without the elapsed time, and the suite digest hashes every
case's digest in case-id order, as ``bench/workloads.py``'s ``suite_digest``
does for the default grid.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "deep-grid.cfg"
RECORD = HERE / "deep-grid.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run() -> dict:
    command = ["timeout", "60", sys.executable, "-m", "polycauchy.cli",
               "verify", "--config", str(CONFIG), "--json"]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: some identity failed, reported below
        sys.exit(f"deep grid run exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout)
    cases = {}
    for report in result["reports"]:
        report.pop("millis")
        cases[report["id"]] = _sha256(json.dumps(report, sort_keys=True))
    summary = result["summary"]
    return {
        "totals": {key: summary[key] for key in ("cases", "points", "failures")},
        "suite_sha256": _sha256("".join(f"{cid} {d}\n" for cid, d in sorted(cases.items()))),
        "cases": cases,
    }


def main(argv) -> int:
    got = run()
    if argv[1:] == ["--record"]:
        RECORD.write_text(json.dumps(got, indent=1) + "\n")
        return 0
    want = json.loads(RECORD.read_text())
    problems = [f"{cid}: fingerprint differs from the record" for cid, d in sorted(got["cases"].items())
                if want["cases"].get(cid) != d]
    problems += [f"{cid}: recorded case did not run" for cid in sorted(set(want["cases"]) - set(got["cases"]))]
    if got["totals"]["failures"]:
        problems.append(f"{got['totals']['failures']} failing points")
    if got["suite_sha256"] != want["suite_sha256"]:
        problems.append("suite digest differs from the record")
    print(json.dumps(got["totals"]), got["suite_sha256"])
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
