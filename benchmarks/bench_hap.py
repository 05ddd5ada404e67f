"""HAP benchmarks: heuristic quality and uncached single-design pricing.

Two studies share this file:

- **Ablation A** (``test_hap_heuristic_quality``): the paper replaces the
  optimal (ILP) mapper with the heuristic of Shao et al. [29] for speed;
  this quantifies the energy optimality gap against the exact
  branch-and-bound solver on random small instances.  Budgets are drawn
  around each instance's min-latency *makespan* (as the ``exact-gap``
  fuzz pair draws them), where the min-energy assignment usually no
  longer fits, so the heuristic has real trade-offs to get wrong.  The
  study reports the gap distribution and the exact solver's effort
  (leaves scheduled), and fails unless some instance needed more than
  one exact leaf — a study whose every optimum is the unconstrained
  min-energy assignment cannot detect a gap.
- **Pricing speedup** (``test_uncached_pricing_speedup`` / ``main``): the
  acceptance gate.  It prices a trace of sampled joint-workload designs
  end to end (problem build + ``solve_hap``) through two paths:

  - the oracle baseline: ``build(batched=False)`` per design (the
    unmemoised scalar cost oracle, one call per table cell) and
    ``solve_hap(incremental=False)`` (one full ``list_schedule``
    reschedule per trial move),
  - the fast path (the default): ``build_many`` over the whole trace
    (the trace's distinct cells priced in one pass per dataflow, tables
    gathered from them) and delta-resume move pricing with certified
    prune bounds,

  asserts both return **bit-identical** ``HAPResult``\\ s, and gates the
  fast-over-oracle wall-clock ratio at >= 6x.  The gate also fails
  unless the fast path's counters show its mechanism fired (moves
  pruned by certified bounds and delta-resumed, both > 0).  Timing is
  interleaved (each repeat times both paths back to back, minima are
  compared) so shared-runner load hits both paths alike.

Machine-readable record: ``benchmarks/results/BENCH_hap.json`` with keys
``speedup`` (gated, fast path vs oracle), ``baseline_ms`` / ``fast_ms``
(per-trace wall-clock), ``designs``, ``latency_constraint``, ``gate``,
and ``pricing`` (the fast path's counters: ``moves_priced``, ``pruned``,
``resumed``, ``steps_saved``, ``steps_replayed``, ``full_replays`` — see
:class:`repro.mapping.schedule.MoveStats`), so the perf trajectory is
tracked across changes.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src:. python benchmarks/bench_hap.py [--quick]

or through pytest (``pytest benchmarks/bench_hap.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.conftest import run_once, write_json, write_report
from repro.accel import AllocationSpace, ResourceBudget
from repro.cost import CostModel
from repro.mapping import (MappingProblem, MoveStats, list_schedule,
                           solve_exact, solve_hap)
from repro.utils.rng import new_rng, spawn_rng
from repro.utils.tables import format_table
from repro.workloads import w1, w2
from tests.test_schedule import tiny_problem

#: Pricing-trace shape (quick mode shrinks the repeats, not the trace —
#: the ratio depends on the design mix).  The trace prices a joint
#: three-network workload (both W1 tasks plus W2's segmentation task) on
#: sampled 4-slot accelerators under a tight latency budget: deep-chain
#: instances where move pricing, not table building, dominates.
TRACE_DESIGNS = 8
TRACE_LATENCY = 400_000
MIN_SPEEDUP = 6.0
#: Timing repeats per path (min is reported) and attempts before the gate
#: fails: the identity check is deterministic, but wall-clock ratios can
#: flake on shared runners, so a scheduler hiccup gets more chances while
#: a real regression fails every attempt.
TIMING_REPEATS = 5
MAX_ATTEMPTS = 3


# ----------------------------------------------------------------------
# Ablation A: heuristic vs exact
# ----------------------------------------------------------------------
def _random_instance(rng, layers=9, slots=2):
    durations = rng.integers(5, 60, size=(layers, slots)).tolist()
    energies = rng.uniform(1, 25, size=(layers, slots)).tolist()
    half = layers // 2
    chains = [tuple(range(half)), tuple(range(half, layers))]
    return tiny_problem(durations, chains, energies)


#: Ablation A budgets, as multiples of each instance's min-latency
#: makespan: from knife-edge (below it, where only a better-parallelised
#: assignment fits) to slack.
GAP_FACTORS = (0.9, 1.0, 1.2, 1.5)
GAP_SEEDS = 12


def _gap_study():
    """Heuristic vs exact energy on ``GAP_SEEDS`` instances, each under
    every ``GAP_FACTORS`` budget.  Returns the rendered report, the gaps
    of instances both solvers solve, and the exact leaf counts of the
    instances the exact solver fits."""
    rows = []
    gaps = []
    leaves = []
    missed = 0
    for seed in range(GAP_SEEDS):
        prob = _random_instance(np.random.default_rng(seed))
        makespan = list_schedule(prob, prob.min_latency_assignment(),
                                 validate=False).makespan
        for factor in GAP_FACTORS:
            budget = max(1, int(makespan * factor))
            exact = solve_exact(prob, budget)
            heur = solve_hap(prob, budget)
            if exact.feasible:
                leaves.append(exact.explored)
            if not exact.feasible:
                gap_text = "both infeasible"
            elif not heur.feasible:
                missed += 1
                gap_text = "heuristic infeasible"
            else:
                gap = heur.energy_nj / exact.energy_nj - 1.0
                gaps.append(gap)
                gap_text = f"{gap:.1%}"
            rows.append([
                seed, f"{factor:g}", budget,
                f"{exact.energy_nj:.1f}" if exact.feasible else "-",
                f"{heur.energy_nj:.1f}" if heur.feasible else "-",
                gap_text, exact.explored])
    table = format_table(
        ["seed", "LS / makespan", "LS", "exact energy", "heuristic energy",
         "gap", "exact leaves"],
        rows, title="Ablation A: HAP heuristic vs exact")
    summary = (
        f"gap over {len(gaps)} instances both solve: "
        f"mean {np.mean(gaps):.2%}, median {np.median(gaps):.2%}, "
        f"p90 {np.percentile(gaps, 90):.2%}, worst {np.max(gaps):.2%}; "
        f"{sum(g > 1e-9 for g in gaps)} with a gap > 0\n"
        f"heuristic infeasible where the exact solver fits: {missed} of "
        f"{len(rows)} instances\n"
        f"exact leaves over the {len(leaves)} instances it fits: "
        f"median {int(np.median(leaves))}, max {max(leaves)}; "
        f"{sum(n > 1 for n in leaves)} needed more than one")
    return table + "\n" + summary, gaps, leaves


def check_gap_study(gaps, leaves) -> None:
    """The study's own gates: it saw feasible instances, could detect a
    gap (some optimum is not the first min-energy leaf), and found the
    heuristic near-optimal."""
    assert gaps, "expected feasible instances"
    assert any(n > 1 for n in leaves), (
        "every exact solve stopped at its first leaf: the budgets leave "
        "the min-energy assignment feasible, so no gap is detectable")
    assert float(np.mean(gaps)) < 0.15, "heuristic should be near-optimal"


def test_hap_heuristic_quality(benchmark):
    report, gaps, leaves = run_once(benchmark, _gap_study)
    write_report("ablation_hap", report)
    check_gap_study(gaps, leaves)


# ----------------------------------------------------------------------
# Uncached single-design pricing: fast path vs the oracle
# ----------------------------------------------------------------------
def build_design_trace(designs: int, seed: int = 5):
    """Sampled joint-workload (networks, accelerator) designs, as a
    converging search would request them — each priced uncached in this
    benchmark.

    The workload joins both W1 tasks with W2's second task (three
    networks, ~55-60 layers per design) on 4-slot accelerators with at
    least three active sub-accelerators, so the feasibility hill-climb
    under ``TRACE_LATENCY`` does real work in every solve.
    """
    tasks = list(w1().tasks) + list(w2().tasks)[1:]
    alloc = AllocationSpace(
        num_slots=4,
        budget=ResourceBudget(max_pes=4096, max_bandwidth_gbps=64))
    rng = spawn_rng(new_rng(seed), 0)
    pairs = []
    for _ in range(designs):
        networks = tuple(
            task.space.decode(task.space.random_indices(rng))
            for task in tasks)
        accel = alloc.random_design(rng)
        while sum(s.is_active for s in accel.subaccs) < 3:
            accel = alloc.random_design(rng)
        pairs.append((networks, accel))
    return TRACE_LATENCY, pairs


def _price_fast(pairs, latency_constraint, stats=None):
    """Fast path: ``build_many`` over the whole trace (tables gathered
    from its distinct priced cells) + the default delta-resume solver."""
    cost_model = CostModel()
    problems = MappingProblem.build_many(pairs, cost_model)
    return [solve_hap(problem, latency_constraint, stats=stats)
            for problem in problems]


def _price_baseline(pairs, latency_constraint):
    """Oracle pricing: the scalar cost oracle, one call per table cell,
    + one full reschedule per trial."""
    return [solve_hap(
        MappingProblem.build(nets, accel, CostModel(), batched=False),
        latency_constraint, incremental=False)
        for nets, accel in pairs]


def _best_of_interleaved(fns, repeats: int) -> list[float]:
    """Per-path minima over ``repeats`` rounds, each round timing every
    path back to back — runner load perturbs all paths alike instead of
    whichever path a sequential protocol happened to time during it."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def run_benchmark(quick: bool = False) -> dict:
    """Time the fast path and the oracle on the same trace; check that
    both return bit-identical results.

    Quick mode keeps the full design mix (the ratio depends on it) and
    only trims timing repeats.
    """
    designs = TRACE_DESIGNS
    repeats = 2 if quick else TIMING_REPEATS
    latency_constraint, pairs = build_design_trace(designs)

    stats = MoveStats()
    fast = _price_fast(pairs, latency_constraint, stats=stats)
    baseline = _price_baseline(pairs, latency_constraint)
    assert fast == baseline, (
        "fast path diverged from the oracle — bit-identity violated")

    fast_s, baseline_s = _best_of_interleaved(
        [lambda: _price_fast(pairs, latency_constraint),
         lambda: _price_baseline(pairs, latency_constraint)],
        repeats)
    return {
        "designs": designs,
        "latency_constraint": latency_constraint,
        "baseline_ms": baseline_s * 1e3,
        "fast_ms": fast_s * 1e3,
        "speedup": baseline_s / fast_s if fast_s > 0 else float("inf"),
        "gate": MIN_SPEEDUP,
        "pricing": stats.as_dict(),
    }


def gate_failures(report: dict) -> list[str]:
    """Reasons the pricing gate fails: too small a speedup, or counters
    showing the fast path's mechanisms never fired."""
    failures = []
    if report["speedup"] < MIN_SPEEDUP:
        failures.append(f"speedup {report['speedup']:.2f}x below the "
                        f"{MIN_SPEEDUP:.0f}x gate")
    for counter in ("pruned", "resumed"):
        if report["pricing"][counter] <= 0:
            failures.append(f"no moves {counter}: the mechanism the gate "
                            f"credits never fired")
    return failures


def render(report: dict) -> str:
    pricing = report["pricing"]
    steps = pricing["steps_saved"] + pricing["steps_replayed"]
    saved = pricing["steps_saved"] / steps if steps else 0.0
    table = format_table(
        ["path", "wall-clock", "per design"],
        [
            ["oracle (scalar build + full reschedules)",
             f"{report['baseline_ms']:.1f} ms",
             f"{report['baseline_ms'] / report['designs']:.2f} ms"],
            ["fast path (build_many + delta-resume)",
             f"{report['fast_ms']:.1f} ms",
             f"{report['fast_ms'] / report['designs']:.2f} ms"],
        ],
        title=(f"Uncached single-design pricing "
               f"({report['designs']} designs, "
               f"LS={report['latency_constraint']})"))
    return (f"{table}\n"
            f"speedup: {report['speedup']:.1f}x "
            f"(gate: >= {report['gate']:.0f}x)   "
            f"moves: {pricing['moves_priced']} priced, "
            f"{pricing['pruned']} pruned, {pricing['resumed']} resumed "
            f"({saved:.1%} steps skipped)")


def run_gated(quick: bool = False) -> dict:
    """Best report over up to MAX_ATTEMPTS timing runs (early exit once
    the gate is met, so the usual cost is a single run)."""
    best = None
    for _ in range(MAX_ATTEMPTS):
        report = run_benchmark(quick=quick)
        if best is None or report["speedup"] > best["speedup"]:
            best = report
        if not gate_failures(best):
            break
    return best


def test_uncached_pricing_speedup(benchmark=None):
    """Acceptance: >= 6x over the oracle for the fast path with its
    prune and resume counters > 0, identical results (the identity
    assert lives inside run_benchmark)."""
    if benchmark is not None:
        report = run_once(benchmark, run_gated)
        write_report("bench_hap_pricing", render(report))
        write_json("hap", report)
    else:
        report = run_gated()
    assert not gate_failures(report), render(report)


def test_hap_heuristic_speed(benchmark, cost_model=None):
    """Wall-clock of one realistic HAP solve (the search's inner loop)."""
    from repro.arch import cifar10_resnet_space, nuclei_unet_space
    from repro.accel import Dataflow, HeterogeneousAccelerator, SubAccelerator

    cm = CostModel()
    cifar = cifar10_resnet_space()
    unet = nuclei_unet_space()
    nets = (cifar.decode(cifar.indices_of((8, 64, 2, 256, 2, 256, 2))),
            unet.decode((3, 1, 1, 1, 1, 0)))
    accel = HeterogeneousAccelerator((
        SubAccelerator(Dataflow.NVDLA, 2048, 32),
        SubAccelerator(Dataflow.SHIDIANNAO, 1024, 32)))
    problem = MappingProblem.build(nets, accel, cm)

    result = benchmark(lambda: solve_hap(problem, 800_000))
    assert result.feasible


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats for CI smoke runs")
    args = parser.parse_args(argv)
    gap_report, gaps, leaves = _gap_study()
    write_report("ablation_hap", gap_report)
    check_gap_study(gaps, leaves)
    report = run_gated(quick=args.quick)
    print(render(report))
    write_json("hap", report, quick=args.quick)
    failures = gate_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
