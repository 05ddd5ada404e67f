"""Campaign benchmark: shared cross-run cache vs serial ad-hoc loops.

Before the unified driver, multi-scenario studies ran each search loop
with its own freshly built evaluation machinery — nothing learned by
one scenario ever helped the next.  The campaign runner executes the
same grid over shared, context-keyed evaluation services, so scenarios
that revisit designs (budget sweeps, seed restarts, optimiser
comparisons on one workload) answer from the cross-run cache (a
persistent store, when attached, keeps evaluations only; cost cells
live only for the batch that prices them).

This benchmark runs a 4-scenario W1 grid (NASAIC at two budgets with
one seed — the larger budget replays the smaller one's episode prefix —
plus an EA and an MC scenario) twice:

- **serial ad-hoc**: each scenario standalone with private services
  (the pre-campaign formulation), and
- **campaign**: the same grid through one shared-cache campaign,

verifies the two produce **identical search outcomes** (sharing only
changes *when* a pair is priced, never its value), and reports the
cross-scenario hit rate and wall-clock.  The gate is correctness-plus-
reuse: outcomes bit-identical and ``shared_hits > 0``; the wall-clock
ratio is reported (not gated — on these small grids the saved pricing
is real but single-core timing noise can exceed it).

Machine-readable record: ``benchmarks/results/BENCH_campaign.json``
with keys ``scenarios``, ``serial_ms`` / ``campaign_ms``, ``speedup``,
``shared_hits``, ``shared_hit_rate`` (gated > 0), ``hit_rate`` and
``requests``.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src:. python benchmarks/bench_campaign.py [--quick]

or through pytest (``pytest benchmarks/bench_campaign.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import (
    NASAIC,
    NASAICConfig,
    EvolutionConfig,
    EvolutionarySearch,
    monte_carlo_search,
)
from repro.core.campaign import Campaign, CampaignConfig, Scenario
from repro.core.serialization import result_to_dict
from repro.utils.tables import format_table
from repro.workloads import w1

#: Budgets of the two NASAIC scenarios (quick mode shrinks everything).
NASAIC_BUDGETS = (6, 10)
EA_GENERATIONS = 3
EA_POPULATION = 12
MC_RUNS = 120
SEED = 5


def build_grid(quick: bool):
    small, large = ((2, 4) if quick else NASAIC_BUDGETS)
    generations = 2 if quick else EA_GENERATIONS
    population = 8 if quick else EA_POPULATION
    runs = 40 if quick else MC_RUNS
    nasaic_cfgs = [NASAICConfig(episodes=episodes, hw_steps=5, seed=SEED)
                   for episodes in (small, large)]
    ea_cfg = EvolutionConfig(population=population,
                             generations=generations, elite=2, seed=SEED)
    scenarios = tuple(
        [Scenario("W1", "nasaic", cfg.episodes, seed=SEED,
                  options={"config": cfg}) for cfg in nasaic_cfgs]
        + [Scenario("W1", "evolution", generations, seed=SEED,
                    options={"config": ea_cfg}),
           Scenario("W1", "mc", runs, seed=SEED)])
    return scenarios, nasaic_cfgs, ea_cfg, runs


def outcome_shape(result) -> dict:
    """Search outcome facts that must not depend on cache sharing."""
    payload = result_to_dict(result)
    for key in ("cache_hits", "cache_misses", "eval_seconds", "pricing"):
        payload.pop(key)
    return payload


def run_serial_adhoc(nasaic_cfgs, ea_cfg, runs) -> tuple[list, float]:
    """The pre-campaign formulation: isolated services per scenario."""
    started = time.perf_counter()
    results = [NASAIC(w1(), config=cfg).run() for cfg in nasaic_cfgs]
    results.append(EvolutionarySearch(w1(), config=ea_cfg).run())
    results.append(monte_carlo_search(w1(), runs=runs, seed=SEED))
    return results, time.perf_counter() - started


def run_benchmark(quick: bool = False) -> dict:
    scenarios, nasaic_cfgs, ea_cfg, runs = build_grid(quick)
    serial_results, serial_s = run_serial_adhoc(nasaic_cfgs, ea_cfg, runs)
    started = time.perf_counter()
    with Campaign(CampaignConfig(scenarios=scenarios)) as campaign:
        result = campaign.run()
    campaign_s = time.perf_counter() - started
    # Bit-identity: the shared cache may not change a single outcome.
    for outcome, reference in zip(result.outcomes, serial_results):
        got = outcome_shape(outcome.result)
        want = outcome_shape(reference)
        assert got == want, \
            f"campaign outcome diverged for {outcome.scenario.name}"
    cache = result.cache
    return {
        "scenarios": [o.scenario.name for o in result.outcomes],
        "serial_s": serial_s,
        "campaign_s": campaign_s,
        "speedup": serial_s / campaign_s if campaign_s > 0 else
        float("inf"),
        "requests": cache["requests"],
        "hits": cache["hits"],
        "hit_rate": cache["hit_rate"],
        "shared_hits": cache["shared_hits"],
        "shared_hit_rate": cache["shared_hit_rate"],
        "outcomes": result.outcomes,
    }


def render(report: dict) -> str:
    rows = []
    for outcome in report["outcomes"]:
        stats = getattr(outcome.result, "pricing", None)
        rows.append([outcome.scenario.name,
                     stats.requests if stats else 0,
                     stats.hits if stats else 0,
                     stats.shared_hits if stats else 0,
                     f"{outcome.wall_seconds:.2f}"])
    table = format_table(
        ["scenario", "hw reqs", "hits", "shared", "wall/s"],
        rows,
        title=(f"Campaign vs serial ad-hoc loops "
               f"({len(report['scenarios'])} scenarios, identical "
               f"outcomes)"))
    return (f"{table}\n"
            f"serial ad-hoc: {report['serial_s'] * 1e3:.0f} ms   "
            f"campaign (shared cache): "
            f"{report['campaign_s'] * 1e3:.0f} ms   "
            f"speedup: {report['speedup']:.2f}x\n"
            f"cache: {report['hit_rate']:.1%} hits, "
            f"{report['shared_hit_rate']:.1%} cross-scenario "
            f"({report['shared_hits']} shared hits; gate: > 0)")


def to_json(report: dict) -> dict:
    """Flatten into the BENCH_campaign.json schema."""
    return {
        "scenarios": report["scenarios"],
        "serial_ms": report["serial_s"] * 1e3,
        "campaign_ms": report["campaign_s"] * 1e3,
        "speedup": report["speedup"],
        "requests": report["requests"],
        "hits": report["hits"],
        "hit_rate": report["hit_rate"],
        "shared_hits": report["shared_hits"],
        "shared_hit_rate": report["shared_hit_rate"],
        "gate": "shared_hits > 0, outcomes bit-identical",
    }


def test_campaign_shared_cache(benchmark=None):
    """Acceptance: identical outcomes (asserted inside run_benchmark)
    and a strictly positive cross-scenario hit rate."""
    if benchmark is not None:
        from benchmarks.conftest import run_once, write_json, write_report

        report = run_once(benchmark, run_benchmark)
        write_report("bench_campaign", render(report))
        write_json("campaign", to_json(report))
    else:
        report = run_benchmark()
    assert report["shared_hits"] > 0, render(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid for CI smoke runs")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    print(render(report))
    try:
        from benchmarks.conftest import write_json

        write_json("campaign", to_json(report), quick=args.quick)
    except ImportError:  # pragma: no cover - repo root not on sys.path
        pass
    if report["shared_hits"] <= 0:
        print("FAIL: no cross-scenario cache reuse observed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
