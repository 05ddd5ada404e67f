"""Fuzz-harness benchmark: differential verification throughput.

The fuzz harness (:mod:`repro.core.differential`) is only useful as a
routine gate if a meaningful corpus fits in CI time, so this benchmark
measures **scenarios per second** through the full oracle-pair registry
and gates on two facts:

- every check on the seeded corpus is green (the exactness contracts
  hold on generated workloads — the whole point of the harness), and
- throughput stays above :data:`MIN_CASES_PER_SECOND`, so a regression
  that makes fuzzing impractically slow (e.g. an accidentally quadratic
  check) fails loudly instead of silently shrinking CI coverage.

Machine-readable record: ``benchmarks/results/BENCH_fuzz.json`` with the
case/check counts, per-pair runs and throughput.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src:. python benchmarks/bench_fuzz.py [--quick]

or through pytest (``pytest benchmarks/bench_fuzz.py``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.differential import registered_pairs, run_fuzz

CASES, QUICK_CASES = 40, 10
SEED = 0
#: Generated scenarios are small by construction; anything below this
#: throughput means a check degraded badly (first numbers: ~15/s).
MIN_CASES_PER_SECOND = 1.0


def run_benchmark(quick: bool = False) -> dict:
    cases = QUICK_CASES if quick else CASES
    report = run_fuzz(cases=cases, seed=SEED)
    assert report.ok, "\n".join(
        f"{f.pair} (case seed {f.case_seed}): {f.detail}"
        for f in report.failures)
    return {
        "cases": report.cases,
        "checks": report.checks,
        "pairs": dict(report.pair_runs),
        "wall_s": report.wall_seconds,
        "cases_per_second": (report.cases / report.wall_seconds
                             if report.wall_seconds else float("inf")),
        "gate": f">= {MIN_CASES_PER_SECOND} cases/s, all checks green",
    }


def render(report: dict) -> str:
    lines = [
        "Differential fuzz harness benchmark",
        f"  scenarios:  {report['cases']} "
        f"({len(report['pairs'])} oracle pairs, "
        f"{report['checks']} checks, all green)",
        f"  wall:       {report['wall_s']:.2f}s "
        f"({report['cases_per_second']:.1f} cases/s; "
        f"gate {report['gate']})",
    ]
    return "\n".join(lines)


def test_fuzz_benchmark(benchmark=None):
    """Pytest entry: corpus green + throughput above the gate."""
    if benchmark is not None:
        from benchmarks.conftest import run_once, write_json, write_report

        report = run_once(benchmark, run_benchmark)
        write_report("bench_fuzz", render(report))
        write_json("fuzz", report)
    else:
        report = run_benchmark()
    assert report["cases_per_second"] >= MIN_CASES_PER_SECOND, \
        render(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke tests")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    print(render(report))
    try:
        from benchmarks.conftest import write_json

        write_json("fuzz", report, quick=args.quick)
    except ImportError:  # pragma: no cover - repo root not on sys.path
        pass
    if report["cases_per_second"] < MIN_CASES_PER_SECOND:
        print(f"FAIL: fuzz throughput "
              f"{report['cases_per_second']:.2f} cases/s below the "
              f"{MIN_CASES_PER_SECOND} cases/s gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
