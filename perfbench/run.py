"""Closed-loop CLI-session benchmark for powerhyper.

Run from the repository root:

    python3 perfbench/run.py --workload deletion --seed 1 --seconds 30 --trace 0

Each request is one in-process call of `powerhyper.cli.main(argv)` on a
generated edge-list file, with stdout captured, parsed and checked.  One
client runs a closed loop in one thread of one fresh process, so the
package's caches live across the commands of a session, as they do for a
library user.  Interpreter start is left out.

A run first sets up several times (generate and write the first block of
inputs, import the package afresh, run a warm-up session on a graph outside
the measured set) and reports the median as `setup_s`.  It then runs block
after block (see bench_inputs) and stops at the first block boundary after
`--seconds` of measured time and at least MIN_REQUESTS requests.  Measured
time is the time spent inside requests, so input generation and output
checks between requests do not count.

The host lends the benchmark a few vCPUs that other tenants slow down by up
to about 40%, in spells of seconds to minutes, so raw wall times of separate
runs spread by up to a third.  Every request is therefore bracketed by a
calibration probe (see probe()), timed before and after it, and its time is
reported as wall time scaled by REFERENCE_PROBE_S over the geometric mean of
the two probes: the time the request would take at the interpreter speed of
the uncontended host.  The probe runs none of the package's code, so a
change to the package moves the scaled times exactly as it moves the raw
ones.  Throughput and both latency percentiles use scaled times, and so does
setup_s (probes before and after each set-up); the summary lines also print
the raw wall-clock figures.  `peak_rss_mb` is the process's peak
resident set size at the first block boundary after MIN_REQUESTS requests:
a fixed amount of work per seed, so the unbounded caches do not look larger
on a run that got through more blocks because the machine was faster.

`--trace 0` reports the end-to-end metrics.  `--trace 1` wraps the public
functions of each module (see bench_tracing) on every other session and
reports per-layer metrics, as means per traced request, plus the tracing
overhead: traced against untraced throughput of the same run.  Spans are
written to .perfbench/spans-<workload>-seed<seed>.tsv.gz.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A request fails on an exception, a nonzero exit code or
a failed output check (bench_checks); with `--seed 0` reports are also
compared with the values recorded in expected_seed0.json.gz.  The exit status
is 0 when the run completes, whatever the checks found, and 2 when the
package cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import bench_checks
import bench_inputs
from bench_tracing import LAYERS, Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
EXPECTED_FILE = HERE / "expected_seed0.json.gz"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# Ten samples beyond the 90th percentile need at least 100 requests.
MIN_REQUESTS = 100
# The calibration probe has two parts, each timed as the best of
# PROBE_REPEATS runs: PROBE_STEPS steps round a random cycle through
# PROBE_CYCLE list slots (pointer chasing in a working set of some 40 KB),
# and building and reading back a dict of PROBE_KEYS tuple keys (the hashing
# and allocation the package's caches do).  The probe's time is their sum,
# about 3 ms of work in all.  On the host below, this pair followed the
# package's slowdowns better than a pure arithmetic loop, and better than a
# walk through a few MB, which contention slowed far more than the package.
# REFERENCE_PROBE_S is the probe's time on that host when uncontended
# (2-vCPU Intel Xeon VM, Python 3.11.7).
PROBE_STEPS = 6000
PROBE_CYCLE = 1000
PROBE_KEYS = 3000
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.6e-3
_cycle_order = list(range(PROBE_CYCLE))
random.Random(0).shuffle(_cycle_order)
_probe_cycle = [0] * PROBE_CYCLE  # slot -> next slot, one cycle through every slot
for _a, _b in zip(_cycle_order, _cycle_order[1:] + _cycle_order[:1]):
    _probe_cycle[_a] = _b
_probe_keys = [(i, i * 7 % 13, i % 5) for i in range(PROBE_KEYS)]

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_package():
    """Import powerhyper afresh from src/; return (package, {layer: module})."""
    for name in [n for n in sys.modules if n == "powerhyper" or n.startswith("powerhyper.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("powerhyper")
    if Path(package.__file__).resolve().parent != (SRC / "powerhyper").resolve():
        raise ImportError(f"powerhyper was imported from {package.__file__}, not from {SRC}")
    return package, {layer: importlib.import_module(f"powerhyper.{layer}") for layer in LAYERS}


@dataclass
class Outcome:
    seconds: float
    report: dict | None
    error: str | None
    stdout_bytes: int
    scaled: float = 0.0  # seconds at the reference interpreter speed


def _walk():
    i = 0
    for _ in range(PROBE_STEPS):
        i = _probe_cycle[i]


def _hash():
    table = {key: key[0] for key in _probe_keys}
    total = 0
    for key in _probe_keys:
        total += table[key]


def _best_time(fn):
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def probe() -> float:
    """Time of the calibration probe, in seconds; it runs nothing of the package."""
    return _best_time(_walk) + _best_time(_hash)


def scaled(seconds, probe_before, probe_after) -> float:
    """Wall time scaled to the reference speed, by the probes taken around it."""
    return seconds * REFERENCE_PROBE_S / math.sqrt(probe_before * probe_after)


def request(cli, argv) -> Outcome:
    """One timed call of cli.main; only the call itself is inside the timer."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this request, not the run
        return Outcome(perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", 0)
    seconds = perf_counter() - t0
    text = out.getvalue()
    if code != 0:
        return Outcome(seconds, None, f"exit {code}: {err.getvalue().strip()}", len(text))
    try:
        return Outcome(seconds, json.loads(text), None, len(text))
    except ValueError:
        return Outcome(seconds, None, "stdout is not one JSON report", len(text))


def run_session(cli, session, argvs, expected=None, on_request=None, calibrate=True):
    """Run one session's requests in order; return (outcomes, failure reason per request).

    With `calibrate`, a probe runs before each request and after the last,
    and each outcome's `scaled` time comes from the two probes around it.
    """
    outcomes = []
    probes = [probe()] if calibrate else []
    for argv in argvs:
        if on_request is not None:
            on_request()
        outcomes.append(request(cli, argv))
        if calibrate:
            probes.append(probe())
    for o, before, after in zip(outcomes, probes, probes[1:]):
        o.scaled = scaled(o.seconds, before, after)
    reasons = bench_checks.check_session([o.report for o in outcomes], session.graph)
    reasons = [o.error or r for o, r in zip(outcomes, reasons)]
    if expected is not None:
        for i, (o, want) in enumerate(zip(outcomes, expected)):
            if reasons[i] is None:
                try:
                    bench_checks.compare(want, bench_checks.essentials(o.report), o.report["command"])
                except bench_checks.CheckFailure as exc:
                    reasons[i] = f"recorded value: {exc}"
    return outcomes, reasons


def load_expected(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with gzip.open(EXPECTED_FILE, "rt", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def _setup(workload, seed, work_dir):
    """Generate and write block 0, import the package, run the warm-up session."""
    sessions = bench_inputs.block(workload, seed, 0)
    argvs = bench_inputs.materialise(sessions, work_dir, "b0")
    warm = bench_inputs.warmup(workload, seed)
    warm_argvs = bench_inputs.materialise([warm], work_dir, "warmup")[0]
    package, modules = import_package()
    _outcomes, reasons = run_session(modules["cli"], warm, warm_argvs, calibrate=False)
    return sessions, argvs, package, modules, [r for r in reasons if r]


def run(workload, seed, seconds, trace, work_dir, expected=None, max_sessions=None):
    """Run one workload; return its counts, samples and metrics.

    `expected` holds recorded essentials per block, session and request;
    `max_sessions` cuts the run short for smoke tests.
    """
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = perf_counter()
        sessions, argvs, package, modules, warm_failures = _setup(workload, seed, work_dir)
        raw_setup_times.append(perf_counter() - t0)
        setup_times.append(scaled(raw_setup_times[-1], before, probe()))
    cli = modules["cli"]
    tracer = Tracer(package, modules) if trace else None

    latencies, raw_latencies, failures = [], [], []
    requests = {False: 0, True: 0}  # keyed by "traced"
    ok = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}  # scaled seconds
    measured = 0.0  # wall-clock seconds inside requests
    compared = done = b = 0
    peak_rss_mb, rss_requests = None, 0
    while True:
        for s, (session, session_argvs) in enumerate(zip(sessions, argvs)):
            traced = tracer is not None and (b + s) % 2 == 1
            want = expected[b][s] if expected is not None and b < len(expected) else None
            compared += len(want or ())
            if traced:
                tracer.install()
            try:
                outcomes, reasons = run_session(cli, session, session_argvs, want,
                                                tracer.begin_request if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            for argv, o, reason in zip(session_argvs, outcomes, reasons):
                latencies.append(o.scaled)
                raw_latencies.append(o.seconds)
                requests[traced] += 1
                busy[traced] += o.scaled
                measured += o.seconds
                if reason is None:
                    ok[traced] += 1
                else:
                    failures.append(f"block {b} session {s} {argv[0]}: {reason}")
                if traced:
                    tracer.counts["cli.main.report_bytes"] += o.stdout_bytes
            done += 1
            if max_sessions is not None and done >= max_sessions:
                break
        b += 1
        if peak_rss_mb is None and len(latencies) >= MIN_REQUESTS:
            peak_rss_mb, rss_requests = _peak_rss_mb(), len(latencies)
        if max_sessions is not None and done >= max_sessions:
            break
        if measured >= seconds and len(latencies) >= MIN_REQUESTS and (tracer is None or b >= 2):
            break
        sessions = bench_inputs.block(workload, seed, b)
        argvs = bench_inputs.materialise(sessions, work_dir, f"b{b}")

    result = {
        "attempted": len(latencies),
        "failures": failures,
        "warmup_failures": warm_failures,
        "blocks": b,
        "sessions": done,
        "compared": compared,
        "measured_s": measured,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "setup_times": setup_times,
        "raw_setup_times": raw_setup_times,
        "traced_requests": requests[True],
        "rss_requests": rss_requests or len(latencies),
        "tracer": tracer,
    }
    if tracer is None:
        result["metrics"] = {
            "throughput_rps": ok[False] / busy[False],
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": _p90(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        return result
    metrics = tracer.metrics(requests[True])
    rps = {side: ok[side] / busy[side] if busy[side] else 0.0 for side in (False, True)}
    metrics["trace.untraced_rps"] = rps[False]
    metrics["trace.traced_rps"] = rps[True]
    metrics["trace.overhead"] = 1.0 - rps[True] / rps[False] if rps[False] else 0.0
    result["metrics"] = metrics
    return result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _p90(samples):
    return statistics.quantiles(samples, n=10)[8]


def _print_summary(workload, seed, trace, result, units):
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {workload} seed {seed} trace {int(trace)}: {result['blocks']} blocks, "
          f"{result['sessions']} sessions, {attempted} requests in {result['measured_s']:.3f} s "
          f"measured, {result['compared']} compared with recorded values")
    for reason in result["warmup_failures"] + result["failures"][:20]:
        print(f"FAILED {reason}")
    print(f"failed_ratio {failed / attempted:.6g} (failed {failed} of {attempted} requests)")
    if not trace:
        beyond = sum(1 for x in result["latencies"] if x * 1e3 > result["metrics"]["latency_p90_ms"])
        print(f"latency samples {attempted}, {beyond} beyond p90")
        raw = result["raw_latencies"]
        print(f"raw wall clock: throughput {(attempted - failed) / result['measured_s']:.6g} 1/s, "
              f"p50 {statistics.median(raw) * 1e3:.6g} ms, p90 {_p90(raw) * 1e3:.6g} ms, "
              f"setup {statistics.median(result['raw_setup_times']):.6g} s; "
              f"scaled / raw time {sum(result['latencies']) / result['measured_s']:.4f}")
    samples = result["traced_requests"] if trace else attempted
    for name, value in result["metrics"].items():
        count = {"setup_s": len(result["setup_times"]),
                 "peak_rss_mb": result["rss_requests"]}.get(name, samples)
        print(f"{name} {value:.6g} {units[name]} (n={count})")
    if trace:
        total = sum(result["metrics"][f"{layer}.self_s"] for layer in LAYERS)
        shares = ", ".join(f"{layer} {result['metrics'][f'{layer}.self_s'] / total:.1%}"
                           for layer in LAYERS) if total else "no spans"
        print(f"self-time share by layer: {shares}")
        if result["tracer"].missing:
            print(f"not found in the package, reported as 0: {', '.join(result['tracer'].missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "powerhyper").is_dir():
        print(f"cannot run: no package source at {SRC / 'powerhyper'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        try:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                         expected=load_expected(args.workload, args.seed))
        except ImportError as exc:
            print(f"cannot run: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = metric_units() if args.trace else END_TO_END
    if args.trace:
        result["tracer"].write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    _print_summary(args.workload, args.seed, args.trace, result, units)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0 and not result["warmup_failures"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
