import json

import pytest

from powerhyper.cli import main


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda_report(capsys, p3_file):
    code, out, _ = _run(capsys, ["lambda", "--graph", p3_file, "--k", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "lambda"
    assert report["input"] == {"n": "3", "m": "2", "class": "Tree"}
    assert report["results"]["lambda"] == 1.0


def test_multiplicity_k3_exits_2(capsys, p3_file):
    code, out, err = _run(capsys, ["multiplicity", "--graph", p3_file, "--k", "3"])
    assert code == 2
    assert out == ""
    assert err.strip() == "precondition failure: k=3 multiplicity not provided by the method"


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_weakest_edges_bad_tol_exits_2(capsys, p3_file, tol):
    code, out, err = _run(capsys, ["weakest-edges", "--graph", p3_file, "--tol", tol])
    assert code == 2
    assert out == ""
    assert err.startswith("precondition failure: tie tolerance")


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_eigvec_bad_tol_exits_2(capsys, p3_file, tol):
    code, out, err = _run(capsys, ["eigvec", "--graph", p3_file, "--k", "4", "--tol", tol])
    assert code == 2
    assert out == ""
    assert err.startswith("precondition failure: residual tolerance")


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_oracle_bad_tol_exits_2(capsys, p3_file, tol):
    code, out, err = _run(capsys, ["oracle", "--graph", p3_file, "--k", "4", "--tol", tol])
    assert code == 2
    assert out == ""
    assert err.startswith("precondition failure: tol must be finite and positive")


def test_multiplicity_values_as_strings(capsys, k3_file):
    code, out, _ = _run(capsys, ["multiplicity", "--graph", k3_file, "--k", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["am_second"] == "768"
    assert results["am_radius"] == "1024"
    assert results["per_edge"]["0-1"]["contribution"] == "256"


def test_walks_command(capsys, k3_file):
    code, out, _ = _run(capsys, ["walks", "--graph", k3_file, "--d", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["parity"] == "18"
    assert results["covering"] == "0"


def test_unknown_flag_is_usage_error(capsys, p3_file):
    code, _, err = _run(capsys, ["walks", "--graph", p3_file, "--d", "4", "--bogus"])
    assert code == 1
    assert "usage error" in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["analyze", "--graph", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "usage error" in err


def test_bad_graph_content_is_precondition_failure(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n")
    code, _, err = _run(capsys, ["analyze", "--graph", str(path)])
    assert code == 2
    assert "self-loop" in err


def test_analyze_fields(capsys, k3_file):
    code, out, _ = _run(capsys, ["analyze", "--graph", k3_file])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["class"] == "OddUnicyclic"
    assert results["rho"] == pytest.approx(2.0)
    assert results["rho_unbalanced"] is None
    assert results["lambda_min"] == pytest.approx(-1.0)


def test_reports_are_deterministic(capsys, k3_file):
    _, out1, _ = _run(capsys, ["moments", "--graph", k3_file, "--k", "4", "--ell", "4"])
    _, out2, _ = _run(capsys, ["moments", "--graph", k3_file, "--k", "4", "--ell", "4"])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("seconds"), r2.pop("seconds")
    assert r1 == r2
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_json_file_matches_stdout(capsys, p3_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["lambda", "--graph", p3_file, "--k", "4", "--json", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_moments_csv_matches_json(capsys, p3_file, tmp_path):
    csv_path = tmp_path / "moments.csv"
    code, out, _ = _run(
        capsys,
        ["moments", "--graph", p3_file, "--k", "4", "--ell", "3", "--csv", str(csv_path)],
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "ell,d,moment,estimate"
    for row, line in zip(rows, lines[1:]):
        ell, d, moment, estimate = line.split(",")
        assert ell == row["ell"] and d == row["d"]
        assert moment == row["moment"]
        assert estimate == row["estimate"]


def test_walks_ratio_series_csv(capsys, p3_file, tmp_path):
    csv_path = tmp_path / "ratio.csv"
    code, out, _ = _run(
        capsys,
        ["walks", "--graph", p3_file, "--d", "4", "--ell", "3", "--csv", str(csv_path)],
    )
    assert code == 0
    rows = json.loads(out)["results"]["ratio_rows"]
    assert [r["covering"] for r in rows] == ["0", "4", "12"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "ell,length,covering,ratio"
    for row, line in zip(rows, lines[1:]):
        ell, length, covering, ratio = line.split(",")
        assert (ell, length, covering) == (row["ell"], row["length"], row["covering"])
        assert float(ratio) == row["ratio"]


def test_variety_command(capsys):
    code, out, _ = _run(capsys, ["variety", "--k", "4", "--delta", "0", "--mu", "1+1i"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["nonzero_total"] == "16"
    assert results["origin_multiplicity"] == "11"
    assert results["all_nonzero_jacobians_dominant"] is True


def test_oracle_command(capsys, p3_file):
    code, out, _ = _run(capsys, ["oracle", "--graph", p3_file, "--k", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["power_iteration"]["converged_value"] == pytest.approx(2 ** 0.25, abs=1e-6)
    assert results["brute_second_count"] == "32"


def test_eigvec_command(capsys, p3_file):
    code, out, _ = _run(capsys, ["eigvec", "--graph", p3_file, "--k", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["eigenvectors"]) == 2
    first = results["eigenvectors"][0]
    assert first["verified"] is True
    assert first["zero_support"] == ["0", "3", "4"]
