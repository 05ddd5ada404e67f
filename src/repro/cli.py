"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``search``      — run NASAIC on a preset workload (W1/W2/W3/Fig1)
- ``evolve``      — run the evolutionary optimiser on a preset workload
- ``nas``         — accuracy-only NAS (per-task, the paper's baseline)
- ``mc``          — joint Monte-Carlo search
- ``campaign``    — a workload x strategy x budget grid over one shared
  evaluation cache (consolidated JSON/table output); ``--generated N``
  adds N generated scenario workloads to the grid
- ``fuzz``        — differential verification: generated scenarios
  through every registered oracle pair, failures shrunk to minimal
  replayable JSON repros
- ``serve``       — the pricing daemon: host the evaluation tier (LRU
  + evaluation store) behind a local Unix socket so many concurrent
  searches share one cache
- ``store``       — offline store maintenance: ``compact`` rewrites a
  store dropping redundant records (answers stay bit-identical),
  ``stats`` prints its scale gauges
- ``experiments`` — regenerate one or all of the paper's tables/figures

Every command prints a human-readable report and can persist the raw
outcome as JSON (``--out``).  All search commands accept ``--seed`` and
thread it verbatim as the run's master seed (see
:mod:`repro.utils.rng`); ``search``/``evolve`` additionally support
``--checkpoint``/``--resume`` for interruptible runs.
``search``/``evolve``/``campaign``/``experiments`` accept ``--store
PATH``: a persistent cross-run evaluation store — repeat invocations
warm-start from every design the store has already priced.  The store
is single-writer (enforced with an advisory lock); to share one
pricing tier across *concurrent* runs, start ``repro serve --store
PATH --socket SOCK`` and point the runs at it with ``--service
unix://SOCK`` (``search``/``evolve``/``mc``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    NASAIC,
    NASAICConfig,
    monte_carlo_search,
    run_nas_per_task,
)
from repro.core.campaign import (
    CampaignConfig,
    Scenario,
    format_campaign,
    run_campaign,
    save_campaign,
)
from repro.core.serialization import save_result
from repro.core.strategies import StrategyNames
from repro.workloads import workload_by_name

__all__ = ["build_parser", "main"]

_WORKLOAD_CHOICES = ["W1", "W2", "W3", "Fig1"]
# Live view over the strategy registry: registering a strategy makes it
# a valid ``--strategies`` token with no CLI change.
_STRATEGY_CHOICES = StrategyNames(campaign_only=True)


def _nonnegative_int(text: str) -> int:
    """Argparse type for counts/capacities: rejects negatives at parse
    time (a negative ``--cache-size`` must die in the parser, not as a
    traceback deep inside the evaluation service)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for durations that must be strictly positive."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NASAIC reproduction: neural architecture / ASIC "
                    "accelerator co-exploration (DAC 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="W3",
                       choices=_WORKLOAD_CHOICES,
                       help="preset workload (default: W3)")
        p.add_argument("--seed", type=int, default=7,
                       help="master seed of the run; every draw derives "
                            "from it (default: 7)")
        p.add_argument("--out", default=None,
                       help="write the run as JSON to this path")

    def add_eval_service(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-size", type=_nonnegative_int, default=4096,
                       help="hardware evaluation LRU capacity "
                            "(0 disables caching; default: 4096)")
        p.add_argument("--store", default=None,
                       help="persistent evaluation store: warm-start "
                            "from designs priced by earlier runs and "
                            "append this run's pricing durably")
        p.add_argument("--service", default=None, metavar="ENDPOINT",
                       help="price through a running 'repro serve' "
                            "daemon (unix://SOCKET) instead of a "
                            "private cache; incompatible with "
                            "--store/--checkpoint/--resume")
        add_service_tuning(p)

    def add_service_tuning(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fallback", default=None, choices=["local"],
                       help="with --service: when the daemon stays "
                            "unreachable past the retry budget, finish "
                            "the run on local pricing (bit-identical; "
                            "the run JSON records degraded=true)")
        p.add_argument("--service-timeout", type=_positive_float,
                       default=600.0, metavar="SECONDS",
                       help="per-reply deadline against the daemon "
                            "(default: 600)")
        p.add_argument("--service-retries", type=_nonnegative_int,
                       default=4, metavar="N",
                       help="reconnect/resubmit attempts per request "
                            "before giving up (default: 4)")

    def add_checkpointing(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint", default=None,
                       help="write a resumable checkpoint to this path "
                            "during the run")
        p.add_argument("--checkpoint-every", type=int, default=10,
                       help="rounds between checkpoints when "
                            "--checkpoint is set (default: 10)")
        p.add_argument("--resume", default=None,
                       help="resume bit-identically from a checkpoint "
                            "written by an identically configured run")

    p_search = sub.add_parser("search", help="run NASAIC")
    add_common(p_search)
    add_eval_service(p_search)
    add_checkpointing(p_search)
    p_search.add_argument("--episodes", type=int, default=200)
    p_search.add_argument("--hw-steps", type=int, default=10)
    p_search.add_argument("--progress", type=int, default=50,
                          help="progress print interval (0 = silent)")

    p_evolve = sub.add_parser("evolve", help="run the evolutionary search")
    add_common(p_evolve)
    add_eval_service(p_evolve)
    add_checkpointing(p_evolve)
    p_evolve.add_argument("--population", type=int, default=30)
    p_evolve.add_argument("--generations", type=int, default=15)

    p_nas = sub.add_parser("nas", help="accuracy-only per-task NAS")
    add_common(p_nas)
    p_nas.add_argument("--episodes", type=int, default=200)

    p_mc = sub.add_parser("mc", help="joint Monte-Carlo search")
    add_common(p_mc)
    p_mc.add_argument("--runs", type=int, default=2000)
    p_mc.add_argument("--service", default=None, metavar="ENDPOINT",
                      help="price through a running 'repro serve' "
                           "daemon (unix://SOCKET)")
    add_service_tuning(p_mc)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a workload x strategy x budget grid over one shared "
             "evaluation cache")
    p_campaign.add_argument("--workloads", default="W3",
                            help="comma-separated presets "
                                 "(default: W3)")
    p_campaign.add_argument("--strategies", default="nasaic,mc",
                            help="comma-separated strategies from "
                                 f"{_STRATEGY_CHOICES} "
                                 "(default: nasaic,mc)")
    p_campaign.add_argument("--budgets", default="50",
                            help="comma-separated budgets (episodes / "
                                 "generations / runs; default: 50)")
    p_campaign.add_argument("--seed", type=int, default=7)
    p_campaign.add_argument("--rho", type=float, default=10.0)
    p_campaign.add_argument("--cache-size", type=_nonnegative_int,
                            default=4096)
    p_campaign.add_argument("--workers", type=_nonnegative_int, default=0,
                            help="scenario-level pool width; > 1 runs "
                                 "scenarios in parallel with isolated "
                                 "caches (default: 0 = sequential, "
                                 "shared cache)")
    p_campaign.add_argument("--store", default=None,
                            help="persistent evaluation store spanning "
                                 "the grid (and any earlier runs that "
                                 "used it)")
    p_campaign.add_argument("--out", default=None,
                            help="write the consolidated campaign JSON "
                                 "to this path")
    p_campaign.add_argument("--generated", type=_nonnegative_int,
                            default=0,
                            help="add this many generated scenario "
                                 "workloads to the grid (seeds "
                                 "--seed .. --seed+N-1; each crosses "
                                 "every strategy and budget; priced by "
                                 "the campaign-wide cost model)")
    p_campaign.add_argument("--generated-classes", default="tiny,small",
                            help="comma-separated size classes the "
                                 "generated workloads cycle through "
                                 "(default: tiny,small)")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential verification: fuzz every exactness contract "
             "on generated scenarios")
    p_fuzz.add_argument("--cases", type=_positive_int, default=None,
                        help="number of generated scenarios (default: 25 "
                             "when --minutes is not given)")
    p_fuzz.add_argument("--minutes", type=_positive_float, default=None,
                        help="wall-clock box: generate scenarios until "
                             "this many minutes have elapsed")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; case i uses seed+i (default: 0)")
    p_fuzz.add_argument("--pairs", default=None,
                        help="comma-separated oracle-pair subset "
                             "(default: all registered pairs)")
    p_fuzz.add_argument("--report", default=None,
                        help="write the fuzz report JSON to this path")
    p_fuzz.add_argument("--repro-dir", default="fuzz-repros",
                        help="directory for shrunk failing-scenario "
                             "repro JSONs (default: fuzz-repros)")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")

    p_serve = sub.add_parser(
        "serve",
        help="run the pricing daemon: one shared evaluation tier "
             "(LRU + evaluation store) behind a local Unix socket")
    p_serve.add_argument("--socket", required=True,
                         help="Unix socket to listen on; clients "
                              "connect with --service unix://SOCKET")
    p_serve.add_argument("--store", default=None,
                         help="persistent evaluation store owned by "
                              "the daemon while it runs (its writer "
                              "lock keeps every other writer out)")
    p_serve.add_argument("--cache-size", type=_nonnegative_int,
                         default=4096,
                         help="LRU capacity of each hosted evaluation "
                              "context (default: 4096)")
    p_serve.add_argument("--status", action="store_true",
                         help="probe the daemon at --socket and print "
                              "its status instead of starting one "
                              "(exit 1 when unreachable)")
    p_serve.add_argument("--read-timeout", type=_positive_float,
                         default=None, metavar="SECONDS",
                         help="shed a connection idle this long "
                              "between requests (default: never)")
    p_serve.add_argument("--write-timeout", type=_positive_float,
                         default=60.0, metavar="SECONDS",
                         help="shed a client whose reply write stalls "
                              "this long (default: 60)")
    p_serve.add_argument("--max-inflight", type=_positive_int,
                         default=256,
                         help="most fresh misses one submit may price "
                              "(the longest a submit holds the "
                              "daemon); a submit with more is refused "
                              "with a retryable error (default: 256)")

    p_store = sub.add_parser(
        "store",
        help="offline maintenance for a persistent evaluation store")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_compact = store_sub.add_parser(
        "compact",
        help="rewrite the store dropping digest-shadowed duplicates "
             "and the cost-memo records older versions wrote "
             "(surviving answers stay bit-identical); takes the writer "
             "lock, so stop any daemon owning the store first")
    p_compact.add_argument("path", help="evaluation store file")
    p_compact.add_argument("--recover", action="store_true",
                           help="quarantine a torn tail to a .corrupt "
                                "sidecar before compacting instead of "
                                "refusing the file")
    p_compact.add_argument("--min-redundant", type=_nonnegative_int,
                           default=0, metavar="N",
                           help="skip (exit 0) unless at least N "
                                "droppable records have accumulated "
                                "(default: 0, always compact)")
    p_stats = store_sub.add_parser(
        "stats",
        help="print a store's scale gauges without rewriting it")
    p_stats.add_argument("path", help="evaluation store file")

    p_exp = sub.add_parser("experiments",
                           help="regenerate paper tables/figures")
    p_exp.add_argument("target", choices=["fig1", "fig6", "table1",
                                          "table2", "all"])
    p_exp.add_argument("--episodes", type=int, default=200)
    p_exp.add_argument("--mc-runs", type=int, default=1500)
    p_exp.add_argument("--seed", type=int, default=41)
    p_exp.add_argument("--store", default=None,
                       help="persistent evaluation store shared by the "
                            "regenerated experiments (fig6/table1/"
                            "table2): repeat regenerations warm-start "
                            "from prior pricing")
    return parser


def _open_store(args: argparse.Namespace):
    """The run's persistent evaluation store, if requested (CLI-owned)."""
    if not getattr(args, "store", None):
        return None
    from repro.core.store import EvalStore

    return EvalStore(args.store)


def _served_context(args: argparse.Namespace, workload, rho: float, *,
                    calibrate: bool = True):
    """Connect ``--service`` after rejecting incompatible flags.

    The daemon prices under the search's *effective* evaluation
    context: for ``search``/``evolve`` that means penalty bounds are
    calibrated here (exactly as the search constructor would) and the
    returned workload must be used with ``calibrate_bounds=False`` —
    otherwise client and daemon would disagree on the context salt and
    the handshake would refuse.  ``mc`` prices uncalibrated, so it
    passes ``calibrate=False``.  Returns ``(workload, cost model,
    remote service)``.
    """
    for flag in ("store", "checkpoint", "resume"):
        if getattr(args, flag, None):
            raise SystemExit(
                f"--service is incompatible with --{flag}: the cache "
                "and store live in the daemon (run 'repro serve' with "
                "--store for persistence; use a local --store for "
                "checkpointable runs)")
    from repro.core.client import RemoteEvalService
    from repro.cost import CostModel

    cost_model = CostModel()
    if calibrate:
        from repro.accel import AllocationSpace
        from repro.core.bounds_calibration import calibrate_penalty_bounds

        bounds = calibrate_penalty_bounds(workload, cost_model,
                                          AllocationSpace())
        workload = workload.with_specs(workload.specs, bounds=bounds)
    remote = RemoteEvalService(
        args.service, workload, cost_model.params, rho,
        timeout=getattr(args, "service_timeout", 600.0),
        retries=getattr(args, "service_retries", 4),
        fallback=getattr(args, "fallback", None))
    return workload, cost_model, remote


def _run_search(args: argparse.Namespace, search_class, config,
                **run_options) -> int:
    """Build a ``search``/``evolve`` run over a local (optionally
    ``--store``-backed) or ``--service`` pricing tier, run it with the
    checkpoint flags and report it; every resource the CLI opened is
    closed on the way out."""
    workload = workload_by_name(args.workload)
    store = remote = None
    if args.service:
        from dataclasses import replace

        workload, cost_model, remote = _served_context(
            args, workload, config.rho)
        search = search_class(
            workload, config=replace(config, calibrate_bounds=False),
            cost_model=cost_model, evalservice=remote)
    else:
        store = _open_store(args)
        search = search_class(workload, config=config, store=store)
    try:
        result = search.run(
            checkpoint_path=args.checkpoint,
            checkpoint_every=(args.checkpoint_every
                              if args.checkpoint else 0),
            resume_from=args.resume, **run_options)
    finally:
        search.close()
        if remote is not None:
            remote.close()
        if store is not None:
            store.close()
    print(result.summary())
    if args.out:
        print(f"saved to {save_result(result, args.out)}")
    return 0 if result.best is not None else 1


def _cmd_search(args: argparse.Namespace) -> int:
    config = NASAICConfig(
        episodes=args.episodes, hw_steps=args.hw_steps, seed=args.seed,
        cache_size=args.cache_size)
    return _run_search(
        args, NASAIC, config,
        progress_every=args.progress if args.progress > 0 else None)


def _cmd_evolve(args: argparse.Namespace) -> int:
    config = EvolutionConfig(
        population=args.population, generations=args.generations,
        seed=args.seed, cache_size=args.cache_size)
    return _run_search(args, EvolutionarySearch, config)


def _generated_scenarios(args: argparse.Namespace,
                         strategies: list[str],
                         budgets: list[int]) -> tuple[Scenario, ...]:
    """Cross ``--generated`` workloads with the strategy/budget grid.

    Generated workloads ride the campaign's shared cost model (their
    spec's cost parameters apply in ``repro fuzz``, not here), so every
    scenario with an equal evaluation context still shares one service.
    """
    from repro.workloads.generator import SIZE_CLASSES, generate_specs

    classes = tuple(c.strip() for c in args.generated_classes.split(",")
                    if c.strip())
    for cls in classes:
        if cls not in SIZE_CLASSES:
            raise SystemExit(f"unknown size class {cls!r} "
                             f"(choose from {list(SIZE_CLASSES)})")
    scenarios = []
    for spec in generate_specs(args.generated, seed=args.seed,
                               size_classes=classes or None):
        generated = spec.materialize()
        surrogate = generated.build_surrogate()
        for strategy in strategies:
            for budget in budgets:
                scenarios.append(Scenario(
                    workload=generated.workload, strategy=strategy,
                    budget=budget, seed=args.seed, rho=generated.rho,
                    options={"allocation": generated.allocation,
                             "surrogate": surrogate}))
    return tuple(scenarios)


def _cmd_campaign(args: argparse.Namespace) -> int:
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    strategies = [s.strip() for s in args.strategies.split(",")
                  if s.strip()]
    budgets = [int(b) for b in args.budgets.split(",") if b.strip()]
    for workload in workloads:
        if workload not in _WORKLOAD_CHOICES:
            raise SystemExit(f"unknown workload {workload!r} "
                             f"(choose from {_WORKLOAD_CHOICES})")
    for strategy in strategies:
        if strategy not in _STRATEGY_CHOICES:
            raise SystemExit(f"unknown strategy {strategy!r} "
                             f"(choose from {_STRATEGY_CHOICES})")
    scenarios = tuple(
        Scenario(workload=workload, strategy=strategy, budget=budget,
                 seed=args.seed, rho=args.rho)
        for workload in workloads
        for strategy in strategies
        for budget in budgets)
    if args.generated:
        scenarios += _generated_scenarios(args, strategies, budgets)
    result = run_campaign(CampaignConfig(
        scenarios=scenarios, cache_size=args.cache_size,
        workers=args.workers, store_path=args.store))
    print(format_campaign(result))
    if args.out:
        print(f"saved to {save_campaign(result, args.out)}")
    ok = all(
        outcome.result.best is not None
        for outcome in result.outcomes
        if hasattr(outcome.result, "best"))
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.differential import (
        registered_pairs,
        run_fuzz,
        save_report,
    )

    pair_names = ([p.strip() for p in args.pairs.split(",") if p.strip()]
                  if args.pairs else None)
    try:
        registered_pairs(pair_names)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    report = run_fuzz(
        cases=args.cases,
        minutes=args.minutes,
        seed=args.seed,
        pairs=pair_names,
        repro_dir=args.repro_dir,
        progress=None if args.quiet else print,
    )
    print(report.summary())
    for failure in report.failures:
        print(f"  {failure.pair} (case seed {failure.case_seed}, "
              f"{failure.size_class}): {failure.detail}")
        if failure.repro_path is not None:
            print(f"    repro: {failure.repro_path}")
    if args.report:
        print(f"report saved to {save_report(report, args.report)}")
    return 0 if report.ok else 1


def _cmd_nas(args: argparse.Namespace) -> int:
    workload = workload_by_name(args.workload)
    result = run_nas_per_task(workload, episodes=args.episodes,
                              seed=args.seed)
    for task, net, acc in zip(workload.tasks, result.best_networks,
                              result.best_accuracies):
        print(f"{task.name}: genotype {net.genotype} accuracy {acc:.4g}")
    print(f"weighted (normalised): {result.best_weighted:.4f}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    workload = workload_by_name(args.workload)
    if args.service:
        workload, cost_model, remote = _served_context(
            args, workload, 10.0, calibrate=False)
        try:
            result = monte_carlo_search(
                workload, cost_model=cost_model, runs=args.runs,
                seed=args.seed, evalservice=remote)
        finally:
            remote.close()
    else:
        result = monte_carlo_search(workload, runs=args.runs,
                                    seed=args.seed)
    print(result.summary())
    if args.out:
        print(f"saved to {save_result(result, args.out)}")
    return 0 if result.best is not None else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.core.results import NoFeasibleSolutionError

    try:
        return _run_experiments(args)
    except NoFeasibleSolutionError as exc:
        print(f"repro experiments: {exc}", file=sys.stderr)
        return 1


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.core import NASAICConfig as Cfg
    from repro.experiments import (
        format_fig1, format_fig6, format_table1, format_table2,
        run_fig1, run_fig6, run_table1, run_table2)
    from repro.workloads import w1, w2, w3

    target = args.target
    store = getattr(args, "store", None)
    if target in ("fig1", "all"):
        print(format_fig1(run_fig1(
            nas_episodes=args.episodes, hw_nas_episodes=args.episodes,
            mc_runs=args.mc_runs, design_sweep_runs=400, seed=args.seed)))
    if target in ("fig6", "all"):
        for wl in (w1(), w2(), w3()):
            print(format_fig6(run_fig6(
                wl, episodes=args.episodes, seed=args.seed,
                store_path=store)))
    if target in ("table1", "all"):
        results = [run_table1(
            wl, nas_episodes=args.episodes, mc_runs=args.mc_runs,
            seed=args.seed,
            nasaic_config=Cfg(episodes=args.episodes, seed=args.seed),
            store_path=store)
            for wl in (w1(), w2())]
        print(format_table1(results))
    if target in ("table2", "all"):
        print(format_table2(run_table2(
            w3(), nas_episodes=args.episodes, seed=args.seed,
            nasaic_config=Cfg(episodes=args.episodes, seed=args.seed),
            store_path=store)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.status:
        return _serve_status(args)
    from repro.core.server import serve

    suffix = f" (store: {args.store})" if args.store else ""
    print(f"pricing daemon listening on unix://{args.socket}{suffix}",
          flush=True)
    server = serve(args.socket, store_path=args.store,
                   cache_size=args.cache_size,
                   read_timeout=args.read_timeout,
                   write_timeout=args.write_timeout,
                   max_inflight=args.max_inflight)
    if server.store is not None and server.store.recovered:
        note = server.store.recovered
        print(f"store recovered on startup: kept {note['kept_bytes']} "
              f"durable bytes, quarantined {note['quarantined_bytes']} "
              f"torn bytes to {note['sidecar']} ({note['detail']})")
    counters = server.counters
    print(f"daemon stopped"
          + (" (forced)" if server.aborted else "")
          + f": {counters['connections']} connections, "
          f"{counters['batches']} batches, "
          f"{counters['computed']} priced, "
          f"{counters['persisted']} persisted"
          + (f", {counters['compute_errors']} compute errors"
             if counters["compute_errors"] else "")
          + (f", {counters['refused_busy']} refused busy"
             if counters["refused_busy"] else "")
          + (f", {counters['shed']} clients shed"
             if counters["shed"] else "")
          + (f", {counters['persist_errors']} persist ERRORS"
             if counters["persist_errors"] else ""))
    return 1 if counters["persist_errors"] else 0


def _serve_status(args: argparse.Namespace) -> int:
    """``repro serve --status``: probe the daemon, print its report."""
    from repro.core.client import probe_status

    try:
        status = probe_status(args.socket)
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"no pricing daemon reachable at {args.socket}: {exc}")
        return 1
    counters = status.get("counters", {})
    print(f"pricing daemon at unix://{args.socket}: up "
          f"{status.get('uptime_seconds', 0.0):.0f}s, "
          f"{status.get('services', 0)} hosted contexts, "
          f"{status.get('persist_queue', 0)} queued appends")
    for salt, ctx in sorted(status.get("contexts", {}).items()):
        print(f"  context {salt[:12]}: {ctx['requests']} requests, "
              f"{ctx['hits']} hits ({ctx['hit_rate']:.1%}, "
              f"{ctx['shared_hits']} shared, "
              f"{ctx['store_hits']} from store)")
    print(f"store: {status.get('store_path') or 'none'} "
          f"({status.get('store_entries', 0)} entries)")
    if status.get("store_recovered"):
        note = status["store_recovered"]
        print(f"store recovered on startup: kept "
              f"{note['kept_bytes']} durable bytes, quarantined "
              f"{note['quarantined_bytes']} to {note['sidecar']}")
    print("counters: " + ", ".join(f"{name}={value}"
                                   for name, value in counters.items()))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.core.store import EvalStore

    path = Path(args.path)
    if not path.exists():
        print(f"no evaluation store at {path}")
        return 1

    if args.store_command == "stats":
        store = EvalStore(path, read_only=True)
        try:
            source = ("offset index" if store.index_used
                      else f"full scan ({store.scanned_records} records)")
            print(f"store {path}: {len(store)} entries, "
                  f"{store.size_bytes} bytes, "
                  f"{store.redundant_records} redundant records "
                  f"(opened via {source})")
        finally:
            store.close()
        return 0

    store = EvalStore(path, recover=args.recover)
    try:
        if store.recovered:
            note = store.recovered
            print(f"recovered before compacting: kept "
                  f"{note['kept_bytes']} durable bytes, quarantined "
                  f"{note['quarantined_bytes']} torn bytes to "
                  f"{note['sidecar']} ({note['detail']})")
        if args.min_redundant and (store.redundant_records
                                   < args.min_redundant):
            print(f"store {path}: {store.redundant_records} redundant "
                  f"records < --min-redundant {args.min_redundant}, "
                  "nothing to do")
            return 0
        report = store.compact()
        reclaimed = report["bytes_before"] - report["bytes_after"]
        print(f"compacted {path}: {report['entries']} entries kept, "
              f"{report['eval_duplicates_dropped']} shadowed "
              f"duplicates and {report['memo_records_dropped']} "
              f"old memo records dropped, "
              f"{report['bytes_before']} -> {report['bytes_after']} "
              f"bytes ({reclaimed} reclaimed)")
    finally:
        store.close()
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "evolve": _cmd_evolve,
    "nas": _cmd_nas,
    "mc": _cmd_mc,
    "campaign": _cmd_campaign,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "experiments": _cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "fallback", None) and not getattr(args, "service",
                                                       None):
        raise SystemExit(
            "--fallback requires --service: a run without --service "
            "already prices locally")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
