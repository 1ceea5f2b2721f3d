import decimal
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction as F
from math import factorial

import pytest

import polycauchy as pc
from polycauchy import cauchy_poly, cli, stirling
from polycauchy.cli import load_exported_poly, main
from polycauchy.identities import catalog
from locks import CLI, TABLES, moved, outcome, read

needs_int_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int/str digit cap")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_cauchy_numbers(capsys):
    code, out, _ = run(capsys, "table", "cauchy-numbers", "--kind", "first", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tvalue"
    assert lines[-1] == "4\t-19/30"


def test_table_bernoulli(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "--n", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4\t-1/30"


def test_table_n_is_a_second_spelling_of_max_n(capsys):
    # the last of the two given wins, as for any repeated option
    code, out, _ = run(capsys, "table", "bernoulli", "--n", "3", "--max-n", "5")
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == ["0", "1", "2", "3", "4", "5"]
    code, out, _ = run(capsys, "table", "bernoulli", "--max-n", "5", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1] == "3\t0"


def test_table_triangle(capsys):
    code, out, _ = run(capsys, "table", "stirling1", "--max-n", "3")
    assert code == 0
    assert "3\t2\t3" in out.splitlines()


def table_is_locked(tmp_path, family, max_n):
    """`table <family> --max-n <max_n>` exits 0, writes nothing to stderr and
    its bytes are those recorded in the CLI bytes lock; returns its stdout."""
    name = f"table.{family}.n{max_n}"
    code, out, err, digest = outcome(TABLES[name], tmp_path)
    assert (code, err) == (0, "")
    lines = moved({key: value for key, value in read(CLI).items() if key == name}, {name: digest})
    assert not lines, "\n".join(lines)
    return out


@pytest.mark.parametrize("family", sorted(stirling._TRIANGLES))
def test_triangle_table_bytes_are_locked(tmp_path, family):
    out = table_is_locked(tmp_path, family, 40)
    assert len(out.splitlines()) == 1 + 41 * 42 // 2


@pytest.mark.parametrize("family", sorted(stirling._TRIANGLES))
def test_triangle_table_300_bytes_are_locked(tmp_path, family):
    out = table_is_locked(tmp_path, family, 300)
    assert len(out.splitlines()) == 1 + 301 * 302 // 2


def test_hyperharmonic_table_bytes_are_locked(tmp_path):
    for max_n in (120, 300):
        out = table_is_locked(tmp_path, "hyperharmonic", max_n)
        assert len(out.splitlines()) == 1 + max_n + 1


def test_triangle_table_ignores_the_callers_decimal_context(capsys):
    # a caller context that would round every value to 5 digits, and signal
    # nothing, neither reaches the table nor is changed by it
    code, want, err = run(capsys, "table", "central", "--max-n", "120")
    assert (code, err) == (0, "")
    caller = decimal.Context(prec=5, traps=[])
    with decimal.localcontext(caller) as ctx:
        code, out, err = run(capsys, "table", "central", "--max-n", "120")
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding) == (
            caller.prec, caller.Emax, caller.Emin, caller.rounding)
        assert not any(ctx.traps.values()) and not any(ctx.flags.values())
    assert (code, err) == (0, "")
    assert out == want


@needs_int_digit_cap
def test_table_prints_values_past_the_int_str_digit_cap(capsys):
    # central_u(200, 1) = -(199!)^2 has 746 digits, past a cap of 640
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "table", "central", "--max-n", "200")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 201 * 202 // 2
    n, m, value = lines[1 + 200 * 201 // 2 + 1].split("\t")
    assert (n, m, len(value)) == ("200", "1", 1 + 746)
    assert int(value) == pc.central_u(200, 1)
    assert lines[-1].split("\t") == ["200", "200", str(pc.central_u(200, 200))]


@needs_int_digit_cap
def test_sequence_table_prints_values_past_the_int_str_digit_cap(capsys):
    # the numerator of B_460 has 667 digits, past a cap of 640
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "table", "bernoulli", "--max-n", "460")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, err) == (0, "")
    n, value = out.splitlines()[-1].split("\t")
    assert n == "460" and len(value.split("/")[0]) == 1 + 667
    assert F(value) == pc.bernoulli_number(460)


def test_table_leaves_the_triangle_memo_alone(capsys, monkeypatch):
    # a fresh central memo holds row 0 only; the table steps its own rows
    memo = stirling._Triangle("central", stirling._step_u)
    monkeypatch.setitem(stirling._TRIANGLES, "central", memo)
    code, out, err = run(capsys, "table", "central", "--max-n", "120")
    assert (code, err) == (0, "")
    assert len(memo._rows) == 1
    # u(n, 1) = (-1)^(n-1) ((n-1)!)^2
    assert pc.central_u(120, 1) == -factorial(119) ** 2
    last_row = [int(line.split("\t")[2]) for line in out.splitlines()[-121:]]
    assert last_row == [pc.central_u(120, m) for m in range(121)]


@needs_int_digit_cap
def test_eval_x_is_parsed_under_the_int_str_digit_cap(capsys):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "eval", "cauchy", "--n", "3", "--x", "1/" + "7" * 700)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, out) == (2, "")
    assert "argument --x" in err


@needs_int_digit_cap
def test_verify_config_is_parsed_under_the_int_str_digit_cap(tmp_path, capsys):
    # G04.int1 reads max_n, not max_n_multi, so a bound read past the cap
    # runs the case and passes instead of running for ever
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("max_n_multi=" + "9" * 700 + "\n")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "640 digits" in err


def test_table_hyperharmonic(capsys):
    code, out, _ = run(capsys, "table", "hyperharmonic", "--max-n", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2\t1/2,1"


def test_eval_cauchy(capsys):
    code, out, _ = run(capsys, "eval", "cauchy", "--kind", "second", "--n", "2", "--k", "1", "--x", "1")
    assert code == 0
    assert out.strip() == "-1/6"


def test_eval_accepts_fraction_text(capsys):
    code, out, _ = run(capsys, "eval", "cauchy", "--kind", "first", "--n", "4", "--k", "2", "--x", "1/2")
    assert code == 0
    want = cauchy_poly("first", 4, 2)(F(1, 2))
    assert out.strip() == str(want)


def test_eval_other_families(capsys):
    code, out, _ = run(capsys, "eval", "bernoulli-poly", "--n", "2", "--x", "0")
    assert (code, out.strip()) == (0, "1/6")
    code, out, _ = run(capsys, "eval", "euler-poly", "--n", "3", "--x", "0")
    assert (code, out.strip()) == (0, "1/4")
    code, out, _ = run(capsys, "eval", "power-sum", "--n", "2", "--x", "3")
    assert (code, out.strip()) == (0, "14")
    code, out, _ = run(capsys, "eval", "harmonic-poly", "--n", "1", "--x", "0")
    assert (code, out.strip()) == (0, "3/2")


@pytest.mark.parametrize("family, extra, poly", [
    ("cauchy", ["--kind", "second", "--k", "2"], lambda: pc.cauchy_poly("second", 5, 2)),
    ("bernoulli-poly", [], lambda: pc.bernoulli_poly(5)),
    ("gen-bernoulli", ["--alpha", "3"], lambda: pc.gen_bernoulli_poly(5, 3)),
    ("euler-poly", [], lambda: pc.euler_poly(5)),
    ("power-sum", [], lambda: pc.power_sum_poly(5)),
    ("hyperharmonic", [], lambda: pc.hyperharmonic_poly(5)),
    ("harmonic-poly", [], lambda: pc.harmonic_poly(5)),
])
def test_eval_every_family(capsys, family, extra, poly):
    code, out, _ = run(capsys, "eval", family, "--n", "5", "--x", "2/3", *extra)
    assert code == 0
    assert out.strip() == pc.format_rational(poly()(F(2, 3)))


def test_eval_negative_rational_after_space(capsys):
    code, out, _ = run(capsys, "eval", "cauchy", "--n", "3", "--x", "-3/4")
    assert (code, out.strip()) == (0, "-11/64")
    assert out.strip() == str(cauchy_poly("first", 3)(F(-3, 4)))


@pytest.mark.parametrize("gf, extra, series", [
    ("cauchy1", [], lambda: pc.gf_cauchy1(6)),
    ("cauchy2", [], lambda: pc.gf_cauchy2(6)),
    ("gen-bernoulli", ["--alpha", "2"], lambda: pc.gf_gen_bernoulli(2, 6)),
    ("hyperharmonic", [], lambda: pc.gf_hyperharmonic(6)),
    ("harmonic", [], lambda: pc.gf_harmonic_poly(6)),
])
def test_series_every_generating_function(capsys, gf, extra, series):
    code, out, _ = run(capsys, "series", gf, "--order", "6", *extra)
    assert code == 0
    s = series()
    want = ["n\tn!\tcoefficient"] + [f"{n}\t{factorial(n)}\t{s[n]}" for n in range(7)]
    assert out.splitlines() == want


def _export_expected(family, fmt):
    if family in ("cauchy-poly", "hyperharmonic"):
        if family == "cauchy-poly":
            poly, params = pc.cauchy_poly("second", 5, 2), {"kind": "second", "n": 5, "k": 2}
        else:
            poly, params = pc.hyperharmonic_poly(5), {"n": 5}
        coeffs = pc.poly_to_strings(poly)
        if fmt == "json":
            return {"family": family, "params": params, "coefficients": coeffs}
        return ["i\tcoefficient"] + [f"{i}\t{c}" for i, c in enumerate(coeffs)]
    if family == "cauchy-numbers":
        values = [pc.cauchy_number("second", n, 2) for n in range(6)]
        params = {"kind": "second", "k": 2, "max_n": 5}
    else:
        values = [pc.bernoulli_number(n) for n in range(6)]
        params = {"max_n": 5}
    values = [pc.format_rational(v) for v in values]
    if fmt == "json":
        return {"family": family, "params": params, "values": values}
    return ["n\tvalue"] + [f"{n}\t{v}" for n, v in enumerate(values)]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("family", ["cauchy-poly", "cauchy-numbers", "bernoulli", "hyperharmonic"])
def test_export_every_family_and_format(tmp_path, capsys, family, fmt):
    out_path = tmp_path / f"export.{fmt}"
    code, _, _ = run(capsys, "export", "--family", family, "--format", fmt, "--out", str(out_path),
                     "--kind", "second", "--n", "5", "--k", "2", "--max-n", "5")
    assert code == 0
    text = out_path.read_text()
    got = json.loads(text) if fmt == "json" else text.splitlines()
    assert got == _export_expected(family, fmt)


def test_series_subcommand(capsys):
    code, out, _ = run(capsys, "series", "cauchy1", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tn!\tcoefficient"
    assert lines[1].startswith("0\t1\t")
    assert lines[2] == "1\t1\t1/2 - x"


def test_series_negative_order_is_a_usage_error(capsys):
    code, out, err = run(capsys, "series", "cauchy1", "--order", "-1")
    assert (code, out) == (2, "")
    assert err == "error: series order must be >= 0, got -1\n"


@pytest.mark.parametrize("order", [-1, -2])
def test_series_harmonic_negative_order_is_a_usage_error(capsys, order):
    code, out, err = run(capsys, "series", "harmonic", "--order", str(order))
    assert (code, out) == (2, "")
    assert err == f"error: series order must be >= 0, got {order}\n"


# only n past sys.maxsize: those fail at once, while a large n below it would
# first try to build its tables
@pytest.mark.parametrize("verb", [
    ("eval", "cauchy"),
    ("export", "--family", "cauchy-poly", "--format", "json", "--out"),
], ids=["eval", "export"])
def test_n_past_maxsize_is_a_usage_error(tmp_path, capsys, verb):
    huge = "99999999999999999999999"
    assert int(huge) > sys.maxsize
    argv = [*verb, str(tmp_path / "out.json")] if verb[0] == "export" else list(verb)
    code, out, err = run(capsys, *argv, "--n", huge)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("table", "bernoulli", "--max-n", "2", "--out", ""),
    ("series", "cauchy1", "--order", "2", "--out", ""),
    ("export", "--family", "bernoulli", "--format", "tsv", "--out", ""),
    ("verify", "--id", "G04.int1", "--out", ""),
    ("verify", "--id", "G04.int1", "--config", ""),
], ids=["table", "series", "export", "verify-out", "verify-config"])
def test_empty_file_name_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # not the option left out: nothing reaches stdout, and no file is written
    # in the working directory or, through a temporary file, in its parent
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "empty file name" in err
    assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--id", "G04.int1")
    assert code == 0
    assert "G04.int1: pass" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert err == "error: unknown identity case 'bogus'\n"


def test_verify_empty_id_is_an_unknown_case(capsys):
    # an empty id names no case; it does not select the whole catalogue
    code, out, err = run(capsys, "verify", "--id", "")
    assert (code, out) == (2, "")
    assert err == "error: unknown identity case ''\n"


def test_verify_json_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--json", "--max-n", "3", "--max-n-double", "2",
                       "--max-k", "1", "--max-r", "1", "--max-a", "1", "--max-n-multi", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failures"] == 0
    report = payload["reports"][0]
    assert set(report) >= {"id", "group", "points", "failures", "millis"}


def test_verify_text_times(capsys):
    # the full run's table gives each case's time to the microsecond; one case's
    # line keeps whole milliseconds
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--max-n-double", "2",
                       "--max-k", "1", "--max-r", "1", "--max-a", "1", "--max-n-multi", "1")
    assert code == 0
    rows = out.split("\n--\n")[0].splitlines()
    times = [line for line in rows if not line.startswith(" ")]  # not a finding or failure
    assert len(times) == len(catalog())
    assert all(re.search(r" points +\d+\.\d{3} ms$", line) for line in times)
    code, out, _ = run(capsys, "verify", "--id", "G04.int1")
    assert code == 0
    assert re.fullmatch(r"G04\.int1: pass \(\d+ points, \d+ ms\)\n", out)


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("# comment\nmax_n=4\n")
    code, out, _ = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
    assert code == 0
    assert "(5 points" in out


def test_verify_config_sets_weight_lists(tmp_path, capsys):
    # a fourth weight list, with a negative product, adds 60 points to the 180 of the default grid
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("ls=1; 1/2, 2; 1, 1, 1/2; -1/2, 3\n")
    code, out, err = run(capsys, "verify", "--id", "G21.shif1", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out.startswith("G21.shif1: pass (240 points, ")
    code, out, _ = run(capsys, "verify", "--id", "G21.shif1")
    assert out.startswith("G21.shif1: pass (180 points, ")


@pytest.mark.parametrize("line, message", [
    ("ls=", "grid list ls must hold non-empty tuples of nonzero int or Fraction weights, got ()"),
    ("ls=1;", "grid list ls must hold non-empty tuples of nonzero int or Fraction weights, got ()"),
    ("ls=1,,2", "empty item in grid list ls: '1,,2'"),
    ("ls=0", "grid list ls must hold non-empty tuples of nonzero int or Fraction weights, "
             "got (Fraction(0, 1),)"),
    ("xs=1;2", "Invalid literal for Fraction: '1;2'"),  # only ls splits on ";"
    ("max_n=2.5", "invalid literal for int() with base 10: '2.5'"),
])
def test_verify_bad_config_value_is_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "verify", "--id", "G21.shif1", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_bad_config(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("nonsense=1\n")
    code, _, err = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
    assert code == 2
    assert "config" in err or "unknown" in err


def test_usage_error_exit_code(capsys):
    assert main(["table", "not-a-family"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, message", [
    (("eval", "cauchy", "--n", "3", "--k", "0"), "k must be >= 1"),
    (("eval", "euler-poly", "--n", "-1"), "degree must be >= 0"),
    (("eval", "power-sum", "--n", "-1"), "degree must be >= 0"),
    (("table", "cauchy-numbers", "--max-n", "3", "--k", "0"), "k must be >= 1"),
], ids=["cauchy-k0", "euler-poly-n-1", "power-sum-n-1", "table-cauchy-numbers-k0"])
def test_library_value_error_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_table_negative_max_n_is_usage_error(capsys):
    code, out, err = run(capsys, "table", "stirling1", "--max-n", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--max-n" in err
    assert len(err.strip().splitlines()) == 1


def test_table_failing_part_way_leaves_out_file_alone(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "numbers.tsv"
    out_path.write_text("old contents\n")

    def failing_number(kind, n, k=1):
        if n == 3:
            raise ValueError("injected failure at n = 3")
        return pc.cauchy_number(kind, n, k)

    monkeypatch.setattr(pc.cauchy, "cauchy_number", failing_number)
    code, out, err = run(capsys, "table", "cauchy-numbers", "--max-n", "6", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "injected failure" in err
    assert out_path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["numbers.tsv"]


# a child interpreter that cannot dump core, so that SIGQUIT leaves no file behind
_NO_CORE = "import resource; resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"


def _child_env():
    src = os.path.dirname(os.path.dirname(pc.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _signal_mid_write(tmp_path, signum):
    """Start a large table with --out, send signum once its temporary file
    exists, and assert that the signal ended the run and left nothing."""
    # a table of rows 0..1500 takes many seconds to write, so the signal lands mid-write
    out_path = tmp_path / "table.tsv"
    command = [sys.executable, "-c", _NO_CORE + "from polycauchy.cli import console_main; console_main()",
               "table", "stirling1", "--max-n", "1500", "--out", str(out_path)]
    child = subprocess.Popen(command, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".table.tsv.*.tmp")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signum)
        assert child.wait(timeout=60) == -signum
    finally:
        child.kill()
        child.wait()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="SIGTERM ends a process only on POSIX")
def test_sigterm_mid_write_leaves_no_temporary_file(tmp_path):
    _signal_mid_write(tmp_path, signal.SIGTERM)


@pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="SIGHUP is POSIX only")
def test_sighup_mid_write_leaves_no_temporary_file(tmp_path):
    # a closed terminal sends SIGHUP, whose default action also ends the process without unwinding
    _signal_mid_write(tmp_path, signal.SIGHUP)


@pytest.mark.skipif(not hasattr(signal, "SIGQUIT"), reason="SIGQUIT is POSIX only")
def test_sigquit_mid_write_leaves_no_temporary_file(tmp_path):
    _signal_mid_write(tmp_path, signal.SIGQUIT)


# argv: signal number, "open" or "replace", --out path.  The child writes a
# table with --out and sends itself the signal just after the temporary file
# is created, or just after it is renamed over the target.
_SIGNAL_AFTER = _NO_CORE + """\
import os, sys
from polycauchy import cli
signum, hooked, out_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]

def open_then_signal(file, mode="r", *args, **kwargs):
    fh = open(file, mode, *args, **kwargs)
    if mode == "x":
        os.kill(os.getpid(), signum)
    return fh

def replace_then_signal(*args, real=os.replace):
    real(*args)
    os.kill(os.getpid(), signum)

if hooked == "open":
    cli.open = open_then_signal
else:
    os.replace = replace_then_signal
sys.exit(cli.main(["table", "lah", "--max-n", "5", "--out", out_path]))
"""


@pytest.mark.skipif(os.name != "posix", reason="these signals end a process only on POSIX")
@pytest.mark.parametrize("hooked", ["open", "replace"])
@pytest.mark.parametrize("name", ["SIGTERM", "SIGHUP", "SIGQUIT"])
def test_signal_at_either_end_of_the_write_ends_the_run_and_leaves_no_temporary_file(
        tmp_path, capsys, name, hooked):
    # just after the create, the temporary file is removed; just after the
    # rename, the target is complete.  Either way the signal ends the run.
    signum = getattr(signal, name)
    code, out, _ = run(capsys, "table", "lah", "--max-n", "5")
    assert code == 0
    out_path = tmp_path / "lah.tsv"
    child = subprocess.run([sys.executable, "-c", _SIGNAL_AFTER, str(signum), hooked, str(out_path)],
                           env=_child_env(), capture_output=True, timeout=60)
    assert (child.returncode, child.stderr) == (-signum, b"")
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert written == ({} if hooked == "open" else {"lah.tsv": out.encode()})


@pytest.mark.skipif(os.name != "posix", reason="a process ended by a signal has a negative code only on POSIX")
@pytest.mark.parametrize("hooked", ["open", "replace"])
def test_sigint_at_either_end_of_the_write_leaves_no_temporary_file_and_no_false_error(
        tmp_path, capsys, hooked):
    # SIGINT raises KeyboardInterrupt, which unwinds through the write: just
    # after the create, the temporary file is removed and the old target
    # stays; just after the rename, the new target is complete.  Either way
    # the interrupt ends the run, with no exit 2 and no error about the path.
    code, out, _ = run(capsys, "table", "lah", "--max-n", "5")
    assert code == 0
    out_path = tmp_path / "lah.tsv"
    out_path.write_text("old\n")
    child = subprocess.run([sys.executable, "-c", _SIGNAL_AFTER, str(signal.SIGINT), hooked, str(out_path)],
                           env=_child_env(), capture_output=True, timeout=60)
    assert child.returncode == -signal.SIGINT
    assert child.stderr.rstrip().endswith(b"KeyboardInterrupt") and b"error:" not in child.stderr
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert written == {"lah.tsv": b"old\n" if hooked == "open" else out.encode()}


def test_a_taken_temporary_name_is_an_error_and_the_file_holding_it_stays(tmp_path, monkeypatch, capsys):
    # the temporary name is random; a file that already has it is another's
    monkeypatch.setattr(os, "urandom", bytes)
    taken = tmp_path / ".lah.tsv.000000000000.tmp"
    taken.write_text("taken\n")
    code, out, err = run(capsys, "table", "lah", "--max-n", "3", "--out", str(tmp_path / "lah.tsv"))
    assert (code, out) == (2, "") and "File exists" in err
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {taken.name: "taken\n"}


def test_out_into_a_missing_directory_names_the_out_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "export", "--family", "cauchy-poly", "--format", "json",
                         "--out", os.path.join("nodir", "x.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and os.path.join("nodir", "x.json") in err
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_table_out_file_matches_stdout(tmp_path, capsys):
    for family in ("stirling1", "central", "cauchy-numbers"):
        out_path = tmp_path / f"{family}.tsv"
        code, out, _ = run(capsys, "table", family, "--max-n", "12")
        assert code == 0
        assert run(capsys, "table", family, "--max-n", "12", "--out", str(out_path))[:2] == (0, "")
        assert out_path.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cauchy-numbers.tsv", "central.tsv", "stirling1.tsv"]


def test_out_from_a_worker_thread_leaves_signal_handlers_alone(tmp_path, capsys):
    # signal.signal raises outside the main thread, so there --out installs no handler
    out_path = tmp_path / "lah.tsv"
    code, out, _ = run(capsys, "table", "lah", "--max-n", "4")
    before = signal.getsignal(signal.SIGTERM)
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        main(["table", "lah", "--max-n", "4", "--out", str(out_path)])))
    worker.start()
    worker.join()
    assert codes == [code] == [0]
    assert out_path.read_bytes() == out.encode()
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.parametrize("family, max_n", [*((f, 40) for f in stirling._TRIANGLES), ("central", 300)])
def test_triangle_table_out_bytes_equal_stdout(tmp_path, capsys, family, max_n):
    out_path = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "table", family, "--max-n", str(max_n))
    assert code == 0
    assert run(capsys, "table", family, "--max-n", str(max_n), "--out", str(out_path))[:2] == (0, "")
    assert out_path.read_bytes() == out.encode()


def test_out_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    # the temporary file goes beside the target, and the link stays a link
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "table.tsv"
    target.write_text("old\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(os.path.join("data", "table.tsv"))
    code, out, _ = run(capsys, "table", "stirling2", "--max-n", "6")
    assert code == 0
    assert run(capsys, "table", "stirling2", "--max-n", "6", "--out", str(link))[:2] == (0, "")
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "table.tsv")
    assert target.read_text() == out
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.tsv", "table.tsv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="platform has no os.mkfifo")
def test_out_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    code, out, _ = run(capsys, "table", "lah", "--max-n", "30")
    assert code == 0
    got = []
    # a daemon, so a reader left waiting on a FIFO that was never opened
    # for writing cannot hold the test run open
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, "table", "lah", "--max-n", "30", "--out", str(fifo))[:2] == (0, "")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [out.encode()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["table.fifo"]


def test_eval_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "cauchy", "--n", "3", "--x", "1/0")
    assert (code, out) == (2, "")
    assert "argument --x" in err and "'1/0'" in err
    assert "Traceback" not in err


def test_exponent_text_is_a_usage_error(tmp_path, capsys):
    # no int/str digit cap bounds the digits an exponent makes: --x=1e999999 ran
    # past 20 s, so a small exponent keeps a regression quick to see
    code, out, err = run(capsys, "eval", "cauchy", "--n", "2", "--x=1e999")
    assert (code, out) == (2, "")
    assert "argument --x" in err and "'1e999'" in err
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("xs=0,1E999\n")
    code, out, err = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: exponent not accepted in rational text '1E999'\n"


def test_verify_config_zero_denominator_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("xs=0,1/0\n")
    code, out, err = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "zero denominator" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_negative_grid_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "G04.int1", "--max-n", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "max_n must be >= 0" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_empty_config_list_is_usage_error(tmp_path, capsys):
    # "xs=" would leave G04.lm11 with 0 points and a vacuous pass
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("xs=\n")
    code, out, err = run(capsys, "verify", "--id", "G04.lm11", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: grid list xs must not be empty\n"


@pytest.mark.parametrize("items", ["0,,1", "0,1,", ",0"])
def test_verify_empty_config_list_item_is_usage_error(tmp_path, capsys, items):
    # a doubled or trailing comma must not drop a point and run on the rest
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"xs={items}\n")
    code, out, err = run(capsys, "verify", "--id", "G04.lm11", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: empty item in grid list xs: {items!r}\n"


def test_verify_zero_max_k_is_usage_error(capsys):
    # every general-order case starts at k = 1, so --max-k 0 would run none of its points
    code, out, err = run(capsys, "verify", "--id", "G15.diffk1", "--max-k", "0")
    assert (code, out) == (2, "")
    assert err == "error: grid bound max_k must be >= 1, got 0\n"


def test_verify_case_without_points_is_usage_error(capsys):
    # every Whitney r of G15 has |r| > 0, so --max-r 0 would check nothing and pass
    code, out, err = run(capsys, "verify", "--id", "G15.whitk1", "--max-r", "0")
    assert (code, out) == (2, "")
    assert err == "error: case G15.whitk1 has no point on this grid\n"


def test_verify_all_refuses_a_grid_that_empties_a_case(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "1", "--max-n-double", "1", "--max-k", "1",
                         "--max-r", "0", "--max-a", "1", "--max-n-multi", "0")
    assert (code, out) == (2, "")
    assert err == "error: case G03.alt-sum has no point on this grid\n"


def test_verify_zero_q_config_is_refused_before_any_case_runs(tmp_path, capsys, monkeypatch):
    # G21.mpb1-mpb4 cannot read q = 0, so the grid is refused before the run, not at G21
    monkeypatch.setattr(cli, "run_all", lambda grid: pytest.fail("the suite ran"))
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("qs=1,0\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: grid list qs must not hold 0: G21.mpb1-mpb4 read the bivariate "
                   "second-kind values, which need q != 0\n")


def test_verify_negative_grid_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("max_n_double=-1\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "max_n_double must be >= 0" in err
    assert len(err.strip().splitlines()) == 1


def test_export_json_round_trip(tmp_path, capsys):
    out_path = tmp_path / "c4.json"
    code, _, _ = run(capsys, "export", "--family", "cauchy-poly", "--kind", "first",
                     "--n", "4", "--k", "1", "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["family"] == "cauchy-poly"
    assert payload["coefficients"] == ["-19/30", "0", "4", "4", "1"]
    assert load_exported_poly(str(out_path)) == cauchy_poly("first", 4)


@pytest.mark.parametrize("bad, error", [("1e4000", ValueError), (0.1, TypeError),
                                        (True, TypeError)])
def test_exported_poly_with_inexact_coefficient_is_rejected(tmp_path, capsys, bad, error):
    # exponent text would load a 4,001-digit integer, a float or bool its binary value
    out_path = tmp_path / "c4.json"
    run(capsys, "export", "--family", "cauchy-poly", "--n", "4", "--format", "json",
        "--out", str(out_path))
    payload = json.loads(out_path.read_text())
    payload["coefficients"][2] = bad
    out_path.write_text(json.dumps(payload))
    start = time.perf_counter()
    with pytest.raises(error):
        load_exported_poly(str(out_path))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("family, extra", [
    ("cauchy-numbers", ("--kind", "second", "--k", "2")),
    ("bernoulli", ()),
])
def test_export_tsv_equals_table_out(tmp_path, capsys, family, extra):
    # both verbs write a sequence family's rows from one table of entries
    table, export = tmp_path / "table.tsv", tmp_path / "export.tsv"
    assert run(capsys, "table", family, "--max-n", "20", *extra, "--out", str(table))[0] == 0
    assert run(capsys, "export", "--family", family, "--format", "tsv", "--max-n", "20", *extra,
               "--out", str(export))[0] == 0
    assert export.read_bytes() == table.read_bytes()


def test_export_tsv_sequence(tmp_path, capsys):
    out_path = tmp_path / "numbers.tsv"
    code, _, _ = run(capsys, "export", "--family", "cauchy-numbers", "--kind", "first",
                     "--max-n", "6", "--format", "tsv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n\tvalue"
    assert lines[1] == "0\t1"
    assert lines[-1] == "6\t-863/84"


@pytest.mark.parametrize("max_n", ["-1", "-3"])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_export_negative_max_n_is_usage_error(tmp_path, capsys, fmt, max_n):
    # as for table: a negative --max-n is a usage error, not an empty export
    out_path = tmp_path / f"numbers.{fmt}"
    code, out, err = run(capsys, "export", "--family", "bernoulli", "--format", fmt,
                         "--out", str(out_path), "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n must be >= 0, got {max_n}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize("family", ["cauchy-poly", "hyperharmonic"])
def test_export_polynomial_ignores_max_n(tmp_path, capsys, family, fmt):
    # a polynomial export never reads --max-n, so a negative one changes nothing
    plain, flagged = tmp_path / f"plain.{fmt}", tmp_path / f"flagged.{fmt}"
    argv = ("export", "--family", family, "--n", "5", "--format", fmt)
    assert run(capsys, *argv, "--out", str(plain)) == (0, "", "")
    assert run(capsys, *argv, "--max-n", "-1", "--out", str(flagged)) == (0, "", "")
    assert flagged.read_bytes() == plain.read_bytes()


def test_triangle_files_in_env_dir_are_neither_read_nor_written(tmp_path, monkeypatch, capsys):
    # a wrong stirling1(1, 1) and an unparsable central row must not reach the result
    header = "# polycauchy triangle cache v1\n"
    (tmp_path / "stirling1.tsv").write_text(header + "0\t0\t1\n1\t0\t0\n1\t1\t7\n")
    (tmp_path / "central.tsv").write_text(header + "0\t0\tx\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("POLYCAUCHY_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "eval", "cauchy", "--n", "3", "--x", "0")
    assert (code, out.strip()) == (0, "1/4")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_verify_report_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--id", "G09.zhao", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["id"] == "G09.zhao"
    assert payload["failures"] == []


# one process, one request after another: a usage error, help, and requests
# that leave out an option the request before them gave
SHARED_PARSER_REQUESTS = [
    ("eval", "cauchy", "--n", "3", "--x", "not-a-number"),
    ("--help",),
    ("eval", "gen-bernoulli", "--n", "4", "--alpha", "3", "--x", "1/2"),
    ("eval", "gen-bernoulli", "--n", "4", "--x", "1/2"),
    ("verify", "--id", "G04.int1", "--max-n", "4"),
    ("verify", "--id", "G04.int1"),
]


def _answers(capsys, requests):
    """(exit code, stdout, stderr) per request, verify's elapsed time masked."""
    answers = []
    for argv in requests:
        code, out, err = run(capsys, *argv)
        answers.append((code, re.sub(r"\d+ ms\)", "ms)", out), err))
    return answers


def test_shared_parser_answers_as_a_fresh_parser(capsys, monkeypatch):
    shared = _answers(capsys, SHARED_PARSER_REQUESTS)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _answers(capsys, SHARED_PARSER_REQUESTS)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0]
    assert shared[1][1].startswith("usage: polycauchy")
    # the --alpha of the request before does not carry over: the default 1 comes back
    assert shared[2][1].strip() == pc.format_rational(pc.gen_bernoulli_poly(4, 3)(F(1, 2)))
    assert shared[3][1].strip() == pc.format_rational(pc.gen_bernoulli_poly(4, 1)(F(1, 2)))
    assert "(5 points" in shared[4][1] and "(5 points" not in shared[5][1]


def test_main_builds_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    for n in range(50):
        assert main(["eval", "power-sum", "--n", str(n % 5), "--x", "2"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 49)
