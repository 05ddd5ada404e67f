"""Run one measured ``repro`` CLI process and report its timings.

Usage (spawned by ``run.py``, never by hand)::

    python3 perfbench/launch.py --report R.json --spawn-ns N \\
        [--trace process|daemon] -- <repro CLI arguments>

``--spawn-ns`` is the parent's ``perf_counter_ns`` just before it
spawned this process (the same ``CLOCK_MONOTONIC`` clock on Linux), so
set-up and wall times include interpreter start.  The process installs
the benchmark markers, optionally the layer spans, then runs
``repro.cli.main`` and writes a JSON report: exit code, marker times,
driver round latencies, peak RSS and, when traced, the per-layer
summary, the attribution closure and Chrome trace events.
"""

import time

LAUNCHED_NS = time.perf_counter_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402


def _option(opts: list[str], name: str) -> str | None:
    return opts[opts.index(name) + 1] if name in opts else None


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    report_path = Path(_option(opts, "--report"))
    spawn_ns = int(_option(opts, "--spawn-ns"))
    trace = _option(opts, "--trace")

    recorder = tracing.Recorder()
    root = recorder.add("process", "unattributed", spawn_ns, 0)
    recorder.enter(root)
    recorder.add("startup.interp", "startup", spawn_ns, LAUNCHED_NS, root)
    import_start = time.perf_counter_ns()
    import repro.cli
    import_end = time.perf_counter_ns()
    recorder.add("startup.import", "startup", import_start, import_end,
                 root)

    markers = layers.Markers()
    markers.install()
    if trace:
        layers.install_spans(recorder, layers.DAEMON_SPANS
                             if trace == "daemon" else layers.PROCESS_SPANS)
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    done_ns = time.perf_counter_ns()
    # The result is on disk once save_result returns; a daemon's store
    # is durable once main returns.
    root[tracing.END] = markers.saved_ns or done_ns

    report = {
        "code": code,
        "spawn_ns": spawn_ns,
        "import_s": (import_end - import_start) / 1e9,
        "ready_ns": markers.ready_ns,
        "run_end_ns": markers.run_end_ns,
        "saved_ns": markers.saved_ns,
        "done_ns": done_ns,
        "rounds_ns": markers.rounds_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        summary = tracing.layer_summary(recorder.spans,
                                        threading.get_ident())
        wall_s = (root[tracing.END] - spawn_ns) / 1e9
        attributed = sum(summary["thread_layers"].values())
        summary.update(
            wall_s=wall_s,
            closure_error=abs(attributed - wall_s) / wall_s,
            events=tracing.chrome_events(recorder.spans, 0, spawn_ns))
        report["trace"] = summary
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
