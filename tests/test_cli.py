import json
from fractions import Fraction as F

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
    assert "unknown identity case" in err


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


def test_library_value_error_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "cauchy", "--n", "3", "--k", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "k must be >= 1" in err
    assert len(err.strip().splitlines()) == 1


def test_table_negative_max_n_is_usage_error(capsys):
    code, out, err = run(capsys, "table", "stirling1", "--max-n", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--max-n" in err
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


def test_export_empty_range_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.tsv"
    code, _, _ = run(capsys, "export", "--family", "bernoulli", "--max-n", "-1",
                     "--format", "tsv", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "n\tvalue\n"


def test_cache_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYCAUCHY_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "table", "stirling2", "--max-n", "6")
    assert code == 0
    assert (tmp_path / "stirling2.tsv").exists()
    header = (tmp_path / "stirling2.tsv").read_text().splitlines()[0]
    assert header.startswith("# polycauchy triangle cache")
    # a second run loads the cache without error
    code, _, _ = run(capsys, "table", "stirling2", "--max-n", "4")
    assert code == 0


def test_verify_report_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--id", "G09.zhao", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["id"] == "G09.zhao"
    assert payload["failures"] == []
