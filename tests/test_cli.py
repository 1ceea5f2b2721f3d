import json
from fractions import Fraction as F
from math import factorial

import pytest

import polycauchy as pc
from polycauchy import cauchy_poly
from polycauchy.cli import load_exported_poly, main


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


def test_table_triangle(capsys):
    code, out, _ = run(capsys, "table", "stirling1", "--max-n", "3")
    assert code == 0
    assert "3\t2\t3" in out.splitlines()


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
    want = ["n\tn!\tcoefficient"] + [
        f"{n}\t{factorial(n)}\t{s[n] if isinstance(s[n], pc.Poly) else pc.Poly.const(s[n])}"
        for n in range(7)
    ]
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


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--id", "G04.int1")
    assert code == 0
    assert "G04.int1: pass" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert err == "error: unknown identity case 'bogus'\n"


def test_verify_json_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--json", "--max-n", "3", "--max-n-double", "2",
                       "--max-k", "1", "--max-r", "1", "--max-a", "1", "--max-n-multi", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failures"] == 0
    report = payload["reports"][0]
    assert set(report) >= {"id", "group", "points", "failures", "millis"}


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("# comment\nmax_n=4\n")
    code, out, _ = run(capsys, "verify", "--id", "G04.int1", "--config", str(cfg))
    assert code == 0
    assert "(5 points" in out


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
], ids=["cauchy-k0", "euler-poly-n-1", "power-sum-n-1"])
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


def test_table_out_file_matches_stdout(tmp_path, capsys):
    for family in ("stirling1", "central", "cauchy-numbers"):
        out_path = tmp_path / f"{family}.tsv"
        code, out, _ = run(capsys, "table", family, "--max-n", "12")
        assert code == 0
        assert run(capsys, "table", family, "--max-n", "12", "--out", str(out_path))[:2] == (0, "")
        assert out_path.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cauchy-numbers.tsv", "central.tsv", "stirling1.tsv"]


def test_eval_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "cauchy", "--n", "3", "--x", "1/0")
    assert (code, out) == (2, "")
    assert "argument --x" in err and "'1/0'" in err
    assert "Traceback" not in err


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
