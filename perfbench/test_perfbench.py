"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import copy
import gzip
import json

import pytest

import bench_checks
import bench_inputs
import run
from bench_tracing import Tracer, metric_units


def _run(tmp_path, workload, seed, trace=False, expected=None, sessions=2):
    return run.run(workload, seed, 0, trace, tmp_path, expected=expected, max_sessions=sessions)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 1])
@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_smoke_run_passes_every_check(tmp_path, workload, seed):
    expected = run.load_expected(workload, seed)
    result = _run(tmp_path, workload, seed, expected=expected)
    assert result["failures"] == [] and result["warmup_failures"] == []
    assert result["attempted"] >= 2
    assert result["compared"] == (result["attempted"] if seed == run.DEFAULT_SEED else 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    result = _run(tmp_path, "certify", 1, trace=True)
    assert result["failures"] == []
    assert result["traced_requests"] == 3
    assert set(result["metrics"]) == set(metric_units())
    assert result["metrics"]["power.eigen_residual.calls"] > 0
    assert result["metrics"]["oracle.brute_count_second_eigenvectors.phases"] > 0
    assert result["metrics"]["cli.main.calls"] == 1.0
    path = tmp_path / "spans.tsv.gz"
    result["tracer"].write_spans(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    assert {int(r[0]) for r in rows} == {0, 1, 2}
    assert sum(r[3] == "cli.main" and r[2] == "-1" for r in rows) == 3


def test_wrong_expected_value_fails_requests(tmp_path):
    expected = copy.deepcopy(run.load_expected("deletion", run.DEFAULT_SEED))
    results = expected[0][0][1]["results"]  # multiplicity report of the first session
    results["am_second"] = str(int(results["am_second"]) + 1)
    result = _run(tmp_path, "deletion", run.DEFAULT_SEED, expected=expected, sessions=1)
    assert len(result["failures"]) == 1
    assert "am_second" in result["failures"][0]


def test_seeds_give_different_inputs():
    for workload in bench_inputs.WORKLOADS:
        a = [s.graph for s in bench_inputs.block(workload, 0, 0)]
        b = [s.graph for s in bench_inputs.block(workload, 1, 0)]
        assert a == [s.graph for s in bench_inputs.block(workload, 0, 0)]
        assert a != b


def test_identity_check_catches_a_wrong_report(tmp_path):
    session = bench_inputs.block("deletion", 1, 0)[0]
    argvs = bench_inputs.materialise([session], tmp_path, "t")[0]
    _package, modules = run.import_package()
    reports = [run.request(modules["cli"], argv).report for argv in argvs]
    assert bench_checks.check_session(reports, session.graph) == [None] * len(reports)
    per_edge = reports[1]["results"]["per_edge"]
    first = next(iter(per_edge.values()))
    first["contribution"] = str(int(first["contribution"]) + 1)
    reasons = bench_checks.check_session(reports, session.graph)
    assert reasons[1] is not None and "contribution" in reasons[1]


@pytest.mark.parametrize("workload", ["deletion", "certify"])
def test_tracing_leaves_outputs_unchanged(tmp_path, workload):
    session = bench_inputs.block(workload, 2, 0)[0]
    argvs = bench_inputs.materialise([session], tmp_path, "t")[0]

    def reports(traced):
        package, modules = run.import_package()
        tracer = Tracer(package, modules)
        if traced:
            tracer.install()
        try:
            out = [run.request(modules["cli"], argv).report for argv in argvs]
        finally:
            tracer.uninstall()
        for r in out:
            r.pop("seconds")
        return out, tracer

    plain, _ = reports(False)
    traced, tracer = reports(True)
    assert traced == plain
    assert tracer.metrics(len(argvs))["cli.main.calls"] == 1.0
    assert not tracer.missing


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)


def test_scaled_time_follows_the_probes():
    ref = run.REFERENCE_PROBE_S
    assert run.scaled(0.5, ref, ref) == pytest.approx(0.5)
    assert run.scaled(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert run.scaled(0.5, ref, 4 * ref) == pytest.approx(0.25)
    assert run.probe() > 0
