import io
import json
import math
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from powerhyper.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
GOLDEN_GRAPHS = {
    "P3": "0 1\n1 2\n",
    "K3": "0 1\n1 2\n2 0\n",
    "C4": "0 1\n1 2\n2 3\n3 0\n",
    "K13": "0 1\n0 2\n0 3\n",
    "K3+3K1": "6 3\n0 1\n1 2\n2 0\n",  # a triangle and three isolated vertices
}
_PER_GRAPH = {
    "analyze": ["analyze"],
    "lambda-k3": ["lambda", "--k", "3"],
    "lambda-k4": ["lambda", "--k", "4"],
    "weakest-edges": ["weakest-edges"],
    "multiplicity": ["multiplicity", "--k", "4"],
    "moments": ["moments", "--k", "4"],
    "eigvec": ["eigvec", "--k", "4"],
    "walks": ["walks", "--d", "6", "--ell", "4"],
    "oracle-k3": ["oracle", "--k", "3"],
    "oracle-k4": ["oracle", "--k", "4"],
}
GOLDEN_CASES = {
    f"{g}-{label}": [argv[0], "--graph", g, *argv[1:]]
    for g in ("P3", "K3", "C4", "K13")
    for label, argv in _PER_GRAPH.items()
    # C4 at k = 4 exceeds the brute-force phase cap (test_oracle_brute_force_cap)
    if (g, label) != ("C4", "oracle-k4")
}
GOLDEN_CASES.update(
    {f"K3+3K1-walks-d{d}": ["walks", "--graph", "K3+3K1", "--d", str(d)] for d in (4, 6)}
)
GOLDEN_CASES["variety-k4-delta1"] = ["variety", "--k", "4", "--delta", "1", "--mu", "1+1i"]
GOLDEN_CASES["variety-k5-delta0"] = ["variety", "--k", "5", "--delta", "0"]


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", "--graph", "g"], {}),
        (["lambda", "--graph", "g", "--k", "4"], {"k": 4}),
        (["weakest-edges", "--graph", "g"], {"tol": 1e-9}),
        (["multiplicity", "--graph", "g", "--k", "4"], {"k": 4}),
        (["moments", "--graph", "g", "--k", "4"], {"k": 4, "ell": 8, "csv": None}),
        (["eigvec", "--graph", "g", "--k", "4"], {"k": 4, "tol": 1e-10}),
        (["walks", "--graph", "g", "--d", "4"], {"d": 4, "ell": 0, "csv": None}),
        (["oracle", "--graph", "g", "--k", "4"], {"k": 4, "tol": 1e-8}),
    ],
)
def test_flags_and_defaults(argv, expected):
    args = vars(_build_parser().parse_args(argv))
    assert args == {"command": argv[0], "graph": "g", "json": None, **expected}


def test_variety_flags_and_defaults(capsys):
    args = vars(_build_parser().parse_args(["variety", "--k", "4"]))
    assert args == {"command": "variety", "k": 4, "mu": "1", "delta": 1, "json": None}
    code, _, err = _run(capsys, ["variety", "--k", "4", "--delta", "2"])
    assert code == 1 and "invalid choice" in err


@pytest.mark.parametrize(
    "argv", [["analyze"], ["lambda", "--graph", "g"], ["walks", "--graph", "g"], ["variety"]]
)
def test_missing_required_flag_is_usage_error(capsys, argv):
    assert _build_parser() is _build_parser()
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert "required" in err


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


def test_oracle_brute_force_cap(capsys, tmp_path):
    # 4 x 4^9 phase patterns in total: reported as skipped, not run
    path = tmp_path / "c4.txt"
    path.write_text(GOLDEN_GRAPHS["C4"])
    code, out, _ = _run(capsys, ["oracle", "--graph", str(path), "--k", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["brute_second_count"] is None
    assert results["brute_skip_reason"] == "phase enumeration exceeds the 10^6 cap"
    assert results["power_iteration"]["converged_value"] == pytest.approx(2**0.5, abs=1e-6)


def test_eigvec_command(capsys, p3_file):
    code, out, _ = _run(capsys, ["eigvec", "--graph", p3_file, "--k", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results["eigenvectors"]) == 2
    first = results["eigenvectors"][0]
    assert first["verified"] is True
    assert first["zero_support"] == ["0", "3", "4"]


def _golden_report(name, directory):
    """The case's JSON report without `seconds`; graph names become files in directory."""
    for g, text in GOLDEN_GRAPHS.items():
        (directory / f"{g}.txt").write_text(text)
    argv = [str(directory / f"{a}.txt") if a in GOLDEN_GRAPHS else a for a in GOLDEN_CASES[name]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, name
    report = json.loads(out.getvalue())
    del report["seconds"]
    return report


def _assert_matches(actual, expected, where):
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=1e-12), (where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{i}]")
    else:
        assert actual == expected and type(actual) is type(expected), (where, actual, expected)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, tmp_path):
    """Floats agree to 1e-12 relative, everything else exactly."""
    expected = json.loads(GOLDEN.read_text())[name]
    _assert_matches(_golden_report(name, tmp_path), expected, name)


if __name__ == "__main__":
    # Re-record tests/golden/cli.json from the code on PYTHONPATH.
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: _golden_report(name, Path(tmp)) for name in sorted(GOLDEN_CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")


def test_moments_refuses_before_computing_moments(capsys, tmp_path):
    # the connectivity check runs before the first moment, whose weight
    # alone has about 95,000 digits at n = 200,001
    path = tmp_path / "far.txt"
    path.write_text("0 1\n1 200000\n")
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["moments", "--graph", str(path), "--k", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.strip() == "precondition failure: moment estimate requires a connected graph"
    assert peak < 1024 * 1024
