"""The CLI's bytes, request by request, are as when recorded in the CLI bytes
lock (``locks.CLI``, see ``ci/locks.py``).  The large tables of ``locks.TABLES``
are checked one test each in ``test_cli.py``; this test checks every other
request, and the names and order of all.  After a deliberate change to what
the CLI writes, rewrite every lock from the repository root with

    python ci/record.py
"""

from locks import CLI, FAILING_REQUESTS, REQUESTS, TABLES, cli_digests, moved, read


def test_cli_bytes_match_recorded(tmp_path):
    recorded = read(CLI)
    digests = cli_digests(tmp_path, skip=TABLES)
    # a table keeps its recorded digest here, so only its name and place are checked
    computed = {name: digests.get(name, recorded.get(name)) for name in [*REQUESTS, *FAILING_REQUESTS]}
    lines = moved(recorded, computed)
    assert not lines, "\n".join(lines)
