"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-w1 --seed 1 --seconds 30 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``search-w1``: cold-process NASAIC on W1 (controller, REINFORCE,
  training path and pruning; pricing mostly LRU hits);
- ``mc-w3``: cold-process Monte-Carlo on W3 (uncached pricing: cost
  tables and HAP, no controller);
- ``serve-w3``: a ``repro serve --store`` daemon loaded over two
  connections (wire codec, daemon, store reads and writes).

A run repeats *units* (one measured process lifetime each) until
``--seconds`` have elapsed, checks correctness and that the workload's
mechanism fired, then prints a human summary and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced units and reports the per-layer metrics, the
attribution closure and the tracing overhead, and writes a Chrome
trace (opens in Perfetto) under ``.perfbench/traces/``.  Every run
appends a stamped record to ``.perfbench/results.jsonl``.
``--quick`` shrinks every workload to its smoke size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("search-w1", "mc-w3", "serve-w3")
#: Attribution must close within this share of the traced wall time.
CLOSURE_TOLERANCE = 0.01

END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
              "rtt_p50_ms": "ms", "rtt_p99_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "startup.interp_s": "s", "startup.import_s": "s",
    "setup.construct_s": "s", "driver.self_s": "s",
    "controller.sample_s": "s", "controller.sample_calls": "count",
    "controller.backward_s": "s", "controller.backward_calls": "count",
    "reinforce.self_s": "s", "choices.decode_s": "s",
    "train.self_s": "s", "train.trainings_run": "count",
    "train.trainings_skipped": "count",
    "evalservice.self_s": "s", "evalservice.requests": "count",
    "evalservice.hit_rate": "ratio", "evalservice.store_hits": "count",
    "evaluator.self_s": "s", "problem.build_many_s": "s",
    "problem.build_s": "s", "cost.memo_hit_rate": "ratio",
    "hap.solve_s": "s", "hap.solve_calls": "count",
    "hap.moves_priced": "count", "hap.moves_pruned": "count",
    "hap.moves_resumed": "count", "hap.batched_rounds": "count",
    "store.open_s": "s", "store.get_s": "s", "store.get_calls": "count",
    "store.put_s": "s", "store.put_calls": "count",
    "serialization.checkpoint_s": "s",
    "serialization.checkpoint_calls": "count",
    "serialization.save_result_s": "s",
    "protocol.encode_s": "s", "protocol.decode_s": "s",
    "client.batch_s": "s", "client.retries": "count",
    "server.compute_s": "s", "server.computed": "count",
    "server.coalesced": "count", "server.refused_busy": "count",
    "server.shed": "count",
    "trace.unattributed_s": "s", "trace.wall_s": "s",
    "trace.closure_error": "ratio", "trace.overhead_s": "s",
    "run.failed_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``."""
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100
    low = int(k)
    high = min(low + 1, len(xs) - 1)
    return xs[low] + (xs[high] - xs[low]) * (k - low)


def describe(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it (``None`` when the sample is too small), and the count."""
    if not values:
        return {"value": 0.0, "tail": None, "n": 0}
    tail = None
    for q in (90, 95, 99, 99.9):
        value = percentile(values, q)
        if sum(x > value for x in values) >= 10:
            tail = {"q": q, "value": value}
    return {"value": statistics.median(values), "tail": tail,
            "n": len(values)}


def stamp(workload: str, seed: int, args) -> dict:
    """Who measured what: commit, toolchain, machine, inputs."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "workload": workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick}


def end_to_end(units: list) -> dict:
    """Medians over the run's units; the round-trip percentiles are
    taken over every round trip of the run."""
    measured = [unit for unit in units if unit.wall_s > 0 and unit.rtts_ms]
    rtts = [rtt for unit in measured for rtt in unit.rtts_ms]
    return {
        "setup_s": describe([u.setup_s for u in measured]),
        "wall_s": describe([u.wall_s for u in measured]),
        "evals_per_s": describe([u.evals_per_s for u in measured]),
        "rtt_p50_ms": dict(describe(rtts),
                           value=percentile(rtts, 50) if rtts else 0.0),
        "rtt_p99_ms": dict(describe(rtts),
                           value=percentile(rtts, 99) if rtts else 0.0),
        "peak_rss_mb": describe([u.rss_mb for u in measured]),
    }


def per_layer(units: list, failed_frac: float) -> tuple[dict, list[str]]:
    traced = [u for u in units if u.traced and u.layers]
    untraced = [u for u in units if not u.traced and u.wall_s > 0]
    problems = [f"attribution did not close: layer self times are off by "
                f"{u.layers['trace.closure_error']:.2%} of the traced "
                f"{u.layers['trace.wall_s']:.3f} s wall"
                for u in traced
                if u.layers["trace.closure_error"] > CLOSURE_TOLERANCE]
    values = {name: statistics.median(u.layers.get(name, 0) for u in traced)
              if traced else 0.0 for name in PER_LAYER}
    if traced and untraced:
        values["trace.overhead_s"] = (
            statistics.median(u.wall_s for u in traced)
            - statistics.median(u.wall_s for u in untraced))
    values["run.failed_frac"] = failed_frac
    return values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: every workload at minimal size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    out = Path(".perfbench")
    work = out / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sizes = scenarios.QUICK if args.quick else scenarios.FULL
    recorder = tracing.Recorder()
    recorder.enabled = False
    try:
        origin_ns = time.perf_counter_ns()
        if args.workload == "serve-w3":
            if args.trace:
                layers.install_spans(recorder, layers.CLIENT_SPANS)
            workload = scenarios.ServedStoreWorkload(
                sizes, args.seed, work, origin_ns, recorder)
        else:
            workload = scenarios.ColdProcessWorkload(
                args.workload, sizes, args.seed, work, origin_ns)
        units = []
        started = time.monotonic()
        while (time.monotonic() - started < args.seconds
               or len(units) < (2 if args.trace else 1)):
            # Traced runs alternate traced and untraced units, so the
            # tracing overhead is measured within one run.
            units.append(workload.run_unit(
                len(units), traced=bool(args.trace) and len(units) % 2 == 0))
        workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = workload.mechanism_problems(
        [unit for unit in units if unit.counters])
    attempted = sum(unit.attempted for unit in units)
    failed = min(attempted, sum(len(unit.failures) for unit in units))
    failures = [failure for unit in units for failure in unit.failures]
    record = {"stamp": stamp(args.workload, args.seed, args),
              "units": len(units), "attempted": attempted,
              "failed": failed, "failures": failures[:20],
              "mechanism_problems": problems}
    if args.trace:
        values, closure = per_layer(units, failed / max(attempted, 1))
        problems += closure
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        trace_path = out / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            {"traceEvents": [event for unit in units
                             for event in unit.events]}))
        record["trace_file"] = str(trace_path)
    else:
        detail = end_to_end(units)
        metrics = {name: {"value": detail[name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}
        record["detail"] = detail
        record["units_measured"] = [
            {"setup_s": unit.setup_s, "wall_s": unit.wall_s,
             "evals_per_s": unit.evals_per_s, "rss_mb": unit.rss_mb,
             "rtt_p50_ms": (percentile(unit.rtts_ms, 50)
                            if unit.rtts_ms else None),
             "rtt_p99_ms": (percentile(unit.rtts_ms, 99)
                            if unit.rtts_ms else None)}
            for unit in units]
    record["metrics"] = metrics
    with open(out / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed {args.seed}: {len(units)} units, "
          f"{attempted} attempted, {failed} failed")
    for name, metric in metrics.items():
        line = f"  {name:32s} {metric['value']:.6g} {metric['unit']}"
        if not args.trace:
            info = record["detail"][name]
            tail = info["tail"]
            line += (f"  (n={info['n']}"
                     + (f", p{tail['q']:g}={tail['value']:.6g}" if tail
                        else "") + ")")
        print(line)
    for message in failures + problems:
        print(f"  FAILED: {message}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
