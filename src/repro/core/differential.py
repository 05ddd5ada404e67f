"""Differential verification harness: fuzz every exactness contract.

The repo's performance story rests on a stack of *bit-identity
contracts*: the batched cost table equals the scalar oracle (PR 2),
delta-resume HAP equals the full-reschedule oracle (PR 2), cached /
store-warmed pricing equals direct pricing (PR 1/4),
checkpoint-resume equals the uninterrupted run (PR 3), and the HAP
heuristic never undercuts the exact branch-and-bound solver's optimum.
A lockstep controller batch likewise equals sequential single samples.
Each contract was locked down on the three hand-written presets; this
module runs all of them — as registered **oracle pairs** — over
scenarios manufactured by :mod:`repro.workloads.generator`, so the
contracts are exercised on workloads nobody hand-wrote.

Workflow:

- an :class:`OraclePair` names one contract and a ``check(scenario,
  rng)`` callable returning ``None`` (contract holds) or a mismatch
  detail string.  Pairs register into a module registry
  (:func:`register_pair` / :func:`registered_pairs`); future perf PRs
  add their fast-path-vs-oracle pair here and inherit the whole
  generated workload corpus as their correctness gate;
- :func:`run_fuzz` drives generated scenarios through every selected
  pair — bounded by ``cases`` or a wall-clock ``minutes`` box — and
  collects a :class:`FuzzReport`;
- on mismatch, :func:`shrink_spec` greedily minimises the failing
  :class:`~repro.workloads.generator.ScenarioSpec` (drop tasks, shrink
  spaces, collapse slots/options, reset cost params) while the failure
  reproduces, and the minimal spec is persisted as a **replayable JSON
  repro** (:func:`save_repro` / :func:`replay_repro`).

Every check builds its oracles from *fresh* cost models so the two
sides share no memo state — a contamination that could mask real
divergence.  Checks are deterministic: the per-pair RNG derives from
``(spec.seed, pair name)`` (:func:`pair_rng`), so a persisted spec
alone replays the exact failing inputs.
"""

from __future__ import annotations

import json
import tempfile
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.driver import SearchDriver
from repro.core.evaluator import Evaluator
from repro.core.evalservice import EvalService, design_content
from repro.core.serialization import durable_replace, result_to_dict
from repro.core.store import EvalStore
from repro.cost.model import CostModel
from repro.cost.params import CostModelParams
from repro.mapping.exact import solve_exact
from repro.mapping.hap import solve_hap
from repro.mapping.problem import MappingProblem
from repro.mapping.schedule import list_schedule
from repro.train.trainer import SurrogateTrainer
from repro.utils.hashing import stable_hash
from repro.utils.rng import new_rng
from repro.workloads.generator import (
    GeneratedScenario,
    ScenarioSpec,
    generate_spec,
)

__all__ = ["FuzzFailure", "FuzzReport", "OraclePair", "check_spec",
           "pair_rng", "registered_pairs", "register_pair",
           "replay_repro", "run_fuzz", "save_report", "save_repro",
           "shrink_spec"]

REPRO_FORMAT = "repro-fuzz-repro"
REPORT_FORMAT = "repro-fuzz-report"
FUZZ_VERSION = 1

#: Largest branch-and-bound tree the exact-gap pair will solve; bigger
#: instances skip the pair (the generator's ``tiny`` class stays below).
EXACT_LEAVES_CAP = 20_000

#: Relative tolerance (per parameter, against its largest entry) of a
#: k-sample controller backward vs the summed single-sample calls: the
#: weight gradients are BLAS reductions whose summation order depends on
#: k, so they agree to ~2e-15, not bitwise.
BACKWARD_RTOL = 1e-12

#: Latency-constraint factors applied to the min-latency makespan, so
#: checks see infeasible, knife-edge and slack instances alike.
_CONSTRAINT_FACTORS = (0.7, 0.9, 1.0, 1.2, 1.5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OraclePair:
    """One registered exactness contract.

    Attributes:
        name: Stable identifier (CLI ``--pairs``, reports, repro files).
        description: One-line account of the contract.
        check: ``(scenario, rng) -> None | detail`` — builds both sides
            from the scenario and compares; any mismatch detail string
            marks the contract broken on that scenario.
    """

    name: str
    description: str
    check: Callable[[GeneratedScenario, np.random.Generator], str | None]


_REGISTRY: dict[str, OraclePair] = {}


def register_pair(pair: OraclePair, *, replace_existing: bool = False
                  ) -> OraclePair:
    """Add a pair to the registry (future PRs register theirs here)."""
    if pair.name in _REGISTRY and not replace_existing:
        raise ValueError(f"oracle pair {pair.name!r} is already registered")
    _REGISTRY[pair.name] = pair
    return pair


def registered_pairs(names: list[str] | tuple[str, ...] | None = None
                     ) -> tuple[OraclePair, ...]:
    """The selected pairs (all of them when ``names`` is ``None``)."""
    if names is None:
        return tuple(_REGISTRY.values())
    missing = [name for name in names if name not in _REGISTRY]
    if missing:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown oracle pair(s) {missing}; registered: {known}")
    return tuple(_REGISTRY[name] for name in names)


def pair_rng(spec: ScenarioSpec, pair_name: str) -> np.random.Generator:
    """The deterministic RNG one pair uses on one spec.

    Derived from ``(spec.seed, pair name)`` only, so a persisted spec
    replays the exact inputs regardless of case ordering or which other
    pairs ran first.
    """
    return new_rng(stable_hash((spec.seed, pair_name), salt="fuzz-pair"))


def check_spec(pair: OraclePair, spec: ScenarioSpec) -> str | None:
    """Run one pair on one spec; ``None`` means the contract held.

    A check that *crashes* counts as a failure with the exception as
    the detail — a fast-path regression that raises (the class of bug
    :meth:`~repro.accel.allocation.AllocationSpace.random_design` had)
    must produce a shrunk repro, not abort the campaign.
    """
    try:
        scenario = spec.materialize()
    except Exception as exc:
        return f"scenario failed to materialize: {type(exc).__name__}: {exc}"
    try:
        return pair.check(scenario, pair_rng(spec, pair.name))
    except Exception as exc:
        return f"check crashed: {type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Shared check helpers
# ----------------------------------------------------------------------
def _derived_constraint(problem: MappingProblem,
                        rng: np.random.Generator) -> int:
    """A latency constraint near the instance's min-latency makespan."""
    base = list_schedule(problem, problem.min_latency_assignment(),
                         validate=False).makespan
    factor = _CONSTRAINT_FACTORS[int(rng.integers(
        len(_CONSTRAINT_FACTORS)))]
    return max(1, int(base * factor))


def _hap_facts(result) -> tuple:
    return (result.assignment, result.makespan, result.energy_nj,
            result.feasible, result.refinement_energies)


def _normalised_run(result) -> dict[str, Any]:
    """Run record with the only wall-clock field zeroed."""
    result.pricing.miss_seconds = 0.0
    return result_to_dict(result)


# ----------------------------------------------------------------------
# Oracle-pair checks
# ----------------------------------------------------------------------
def _check_batched_tables(scenario: GeneratedScenario,
                          rng: np.random.Generator) -> str | None:
    """Batched cost tables vs the scalar oracle, per design on a fresh
    model and through one shared model in two ``build_many`` batches
    (the second adds geometries and configurations to live columns);
    buffer-sized areas vs the per-layer area oracle."""
    params = scenario.cost_params
    pairs = scenario.sample_pairs(rng, max(2, scenario.spec.design_samples))
    shared = CostModel(params)
    half = len(pairs) // 2
    via_shared = (MappingProblem.build_many(pairs[:half], shared)
                  + MappingProblem.build_many(pairs[half:], shared))
    for index, ((nets, accel), shared_problem) in enumerate(
            zip(pairs, via_shared)):
        oracle = CostModel(params)
        scalar = MappingProblem.build(nets, accel, oracle, batched=False)
        alone = MappingProblem.build(nets, accel, CostModel(params))
        for side, problem in (("batched", alone), ("shared", shared_problem)):
            for name in ("durations", "energies", "working_sets"):
                got, want = getattr(problem, name), getattr(scalar, name)
                if got.shape != want.shape:
                    return (f"design {index}: {side} {name} shape "
                            f"{got.shape} != scalar {want.shape}")
                if not np.array_equal(got, want):
                    row, col = np.argwhere(got != want)[0]
                    return (f"design {index}: {side} {name}[{row},{col}] "
                            f"{got[row, col]!r} != scalar "
                            f"{want[row, col]!r}")
        assignment = tuple(int(pos) for pos in rng.integers(
            scalar.num_slots, size=scalar.num_layers))
        area = shared_problem.mapped_area_um2(assignment, params)
        want_area = oracle.area_um2(
            accel, mapped_layers=scalar.mapped_layers_by_slot(assignment))
        if area != want_area:
            return (f"design {index}: mapped area {area!r} != per-layer "
                    f"oracle {want_area!r}")
    return None


def _check_hap_modes(scenario: GeneratedScenario,
                     rng: np.random.Generator) -> str | None:
    """Delta-resume fast path vs the full-reschedule oracle."""
    for index, (nets, accel) in enumerate(
            scenario.sample_pairs(rng, scenario.spec.design_samples)):
        problem = MappingProblem.build(nets, accel,
                                       CostModel(scenario.cost_params))
        constraint = _derived_constraint(problem, rng)
        fast = _hap_facts(solve_hap(problem, constraint))
        oracle = _hap_facts(solve_hap(problem, constraint,
                                      incremental=False))
        if fast != oracle:
            return (f"design {index} (LS={constraint}): delta-resume "
                    f"{fast[:3]} != oracle {oracle[:3]}")
    return None


def _check_evalservice(scenario: GeneratedScenario,
                       rng: np.random.Generator) -> str | None:
    """Cached and cache-disabled service pricing vs the bare evaluator."""
    pairs = scenario.sample_pairs(rng, scenario.spec.design_samples)
    trace = pairs + pairs[::-1]  # repeats exercise the hit path

    def evaluator() -> Evaluator:
        return Evaluator(scenario.workload, CostModel(scenario.cost_params),
                         trainer=None, rho=scenario.rho)

    direct_eval = evaluator()
    direct = [direct_eval.evaluate_hardware(nets, accel)
              for nets, accel in trace]
    with EvalService(evaluator()) as cached_service:
        cached = cached_service.evaluate_many(trace)
    with EvalService(evaluator(), cache_size=0) as uncached_service:
        uncached = uncached_service.evaluate_many(trace)
    for index, (want, got_cached, got_uncached) in enumerate(
            zip(direct, cached, uncached)):
        if got_cached != want:
            return f"request {index}: cached evaluation != direct"
        if got_uncached != want:
            return f"request {index}: cache-disabled evaluation != direct"
    return None


def _check_store_warm(scenario: GeneratedScenario,
                      rng: np.random.Generator) -> str | None:
    """Store-warmed pricing vs cold pricing, plus full warm coverage."""
    pairs = scenario.sample_pairs(rng, scenario.spec.design_samples)
    trace = pairs + pairs  # repeats inside one session too
    distinct = len({
        (tuple(n.identity() for n in nets), accel)
        for nets, accel in pairs})

    def evaluator() -> Evaluator:
        return Evaluator(scenario.workload, CostModel(scenario.cost_params),
                         trainer=None, rho=scenario.rho)

    with EvalService(evaluator()) as cold_service:
        cold = cold_service.evaluate_many(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.bin"
        with EvalStore(path) as store:
            with EvalService(evaluator(), store=store) as writer:
                written = writer.evaluate_many(trace)
        with EvalStore(path) as store:
            with EvalService(evaluator(), store=store) as warm_service:
                warm = warm_service.evaluate_many(trace)
                store_hits = warm_service.stats.store_hits
                misses = warm_service.stats.misses
    for index, (want, via_writer, via_store) in enumerate(
            zip(cold, written, warm)):
        if via_writer != want:
            return f"request {index}: store-writing evaluation != cold"
        if via_store != want:
            return f"request {index}: store-warmed evaluation != cold"
    if misses or store_hits != distinct:
        return (f"warm session recomputed: {misses} misses, "
                f"{store_hits} store hits for {distinct} distinct designs")
    return None


def _check_store_compact(scenario: GeneratedScenario,
                         rng: np.random.Generator) -> str | None:
    """Compacted store == original store, answer for answer.

    Builds a mixed-format store with real pricing traffic — a version-1
    file (pickled records) that a current writer upgrades and extends
    with codec records — plus the records compaction exists to drop:
    digest-shadowed duplicate evaluations in both record formats and
    the pickled cost-memo records older writers appended.  Then asserts
    that :meth:`EvalStore.compact` drops exactly those records, that
    every surviving evaluation is bit-identical to the uncompacted
    original, both through the live store and through a cold reopen,
    that the compacted file carries the current magic, and that a
    second compaction is a no-op.
    """
    import pickle
    import shutil
    import struct

    from repro.core.store import STORE_MAGIC, _eval_body

    pairs = scenario.sample_pairs(rng, scenario.spec.design_samples)

    def evaluator() -> Evaluator:
        return Evaluator(scenario.workload, CostModel(scenario.cost_params),
                         trainer=None, rho=scenario.rho)

    def v1_body(record: dict) -> bytes:
        return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)

    def memo_body(round_: int) -> bytes:
        """A cost-memo record as writers that persisted the memo
        appended it (its entries are never read back)."""
        return v1_body({"kind": "memo", "params": "cost-params",
                        "entries": {("cell", round_, i): i
                                    for i in range(4)}})

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.bin"
        chunk = max(1, len(pairs) // 3)
        # The opening chunk as a version-1 file, written the way code
        # before the codec records wrote it.
        legacy = EvalService(evaluator())
        opening = pairs[:chunk]
        keys = [design_content(*pair) for pair in opening]
        bodies = [v1_body({"kind": "eval", "salt": legacy.context_salt,
                           "digest": legacy._key_digest(key), "key": key,
                           "evaluation": evaluation})
                  for key, evaluation in zip(keys,
                                             legacy.evaluate_many(opening))]
        bodies.append(memo_body(0))
        memos = 1
        path.write_bytes(b"repro-evalstore v1\n" + b"".join(
            struct.pack("<Q", len(body)) + body for body in bodies))
        with EvalStore(path) as store:
            with EvalService(evaluator(), store=store) as writer:
                # Chunked pricing, a memo record after each chunk — the
                # way checkpoint flushes used to interleave them.
                for start in range(0, len(pairs), chunk):
                    writer.evaluate_many(pairs[start:start + chunk])
                    store._append_bodies([memo_body(memos)])
                    memos += 1
            # Digest-shadowed duplicates: re-append a sample of the
            # records verbatim, bypassing put_many's dedup (as an
            # older or misbehaving writer session would have), half in
            # each record format.
            records = list(store.iter_records())
            duplicates = [records[int(pick)] for pick in
                          rng.integers(len(records),
                                       size=min(4, len(records)))]
            store._append_bodies(
                [_eval_body(record["salt"], record["digest"],
                            record["key"], record["evaluation"])
                 for record in duplicates[::2]]
                + [v1_body(record) for record in duplicates[1::2]])
        # The planted records bypassed the in-memory index, so the
        # sidecar written at close does not count them: drop it, and
        # both opens below rebuild their index from the records.
        store.index_path.unlink()
        original = Path(tmp) / "original.bin"
        shutil.copyfile(path, original)

        with EvalStore(original) as reference, EvalStore(path) as store:
            before = len(store)
            report = store.compact()
            if len(store) != before or len(reference) != before:
                return (f"compaction changed the entry count: "
                        f"{before} -> {len(store)}")
            if report["bytes_after"] >= report["bytes_before"]:
                return (f"compaction reclaimed nothing "
                        f"({report['bytes_before']} -> "
                        f"{report['bytes_after']} bytes) although "
                        f"duplicates were planted")
            dropped = (report["eval_duplicates_dropped"],
                       report["memo_records_dropped"])
            if dropped != (len(duplicates), memos):
                return (f"compaction dropped {dropped} (duplicates, memo "
                        f"records), planted {(len(duplicates), memos)}")
            for record in reference.iter_records():
                got = store.get(record["salt"], record["digest"],
                                record["key"])
                if got != record["evaluation"]:
                    return ("compacted store answer diverges from the "
                            "original for a surviving evaluation")
            second = store.compact()
            if second["bytes_after"] != second["bytes_before"]:
                return "second compaction was not a no-op"
            if not path.read_bytes().startswith(STORE_MAGIC):
                return "compacted store does not carry the current magic"

        # A cold reopen must serve the same bits (the rewritten file
        # and its fresh offset index, not this process's caches).
        with EvalStore(original, read_only=True) as reference, \
                EvalStore(path, read_only=True) as reopened:
            for record in reference.iter_records():
                got = reopened.get(record["salt"], record["digest"],
                                   record["key"])
                if got != record["evaluation"]:
                    return ("cold-reopened compacted store diverges "
                            "from the original")
    return None


def _check_served(scenario: GeneratedScenario,
                  rng: np.random.Generator) -> str | None:
    """Daemon-served pricing vs the bare evaluator (bit-identical).

    Spins a real ``repro serve`` daemon (background thread, temp
    socket + store), prices the trace through two sequential clients —
    the second must be answered entirely from the shared tier — and
    compares every evaluation against the direct evaluator.
    """
    from repro.core.client import RemoteEvalService
    from repro.core.server import serve_in_thread

    pairs = scenario.sample_pairs(rng, scenario.spec.design_samples)
    trace = pairs + pairs[::-1]  # repeats exercise the served hit path
    direct_eval = Evaluator(scenario.workload,
                            CostModel(scenario.cost_params),
                            trainer=None, rho=scenario.rho)
    direct = [direct_eval.evaluate_hardware(nets, accel)
              for nets, accel in trace]
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        store_path = Path(tmp) / "store.bin"
        with serve_in_thread(store_path=store_path) as server:

            def client() -> RemoteEvalService:
                return RemoteEvalService(
                    server.socket_path, scenario.workload,
                    scenario.cost_params, scenario.rho)

            with client() as first:
                served = first.evaluate_many(trace)
            with client() as second:
                reserved = second.evaluate_many(trace)
                recomputed = second.stats.misses
    for index, (want, got_first, got_second) in enumerate(
            zip(direct, served, reserved)):
        if got_first != want:
            return f"request {index}: served evaluation != direct"
        if got_second != want:
            return (f"request {index}: second-client served "
                    f"evaluation != direct")
    if recomputed:
        return (f"second client recomputed {recomputed} designs the "
                f"daemon had already priced")
    return None


def _check_chaos_serve(scenario: GeneratedScenario,
                       rng: np.random.Generator) -> str | None:
    """Fault-injected serving vs the bare evaluator (bit-identical).

    Draws a seeded :class:`~repro.core.faults.FaultPlan` (dropped
    connections, stalled replies, poisoned computes, daemon kill, torn
    store append — or none), threads one injector through daemon,
    client and store, and prices the trace through a retrying client
    with ``fallback="local"``.  The contract: under *any* bounded fault
    schedule the client either completes through retries or degrades to
    local pricing — both bit-identical to the direct evaluator, never a
    silent divergence or a hang.  Afterwards the store is reopened with
    ``recover=True`` and every surviving entry is checked against the
    direct pricing (the durable prefix must stay trustworthy even when
    the daemon died mid-append).
    """
    from repro.core.client import RemoteEvalService
    from repro.core.faults import FaultInjector, FaultPlan
    from repro.core.server import serve_in_thread

    pairs = scenario.sample_pairs(rng, scenario.spec.design_samples)
    trace = pairs + pairs[::-1]  # repeats exercise handle re-registration
    direct_eval = Evaluator(scenario.workload,
                            CostModel(scenario.cost_params),
                            trainer=None, rho=scenario.rho)
    direct = [direct_eval.evaluate_hardware(nets, accel)
              for nets, accel in trace]
    plan = FaultPlan.from_rng(rng)
    injector = FaultInjector(plan)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        store_path = Path(tmp) / "store.bin"
        with warnings.catch_warnings():
            # Degradation warns on purpose; the fuzzer only cares about
            # the bit-identity verdict.
            warnings.simplefilter("ignore", RuntimeWarning)
            with serve_in_thread(store_path=store_path,
                                 fault_injector=injector,
                                 write_timeout=5.0) as server:
                client = RemoteEvalService(
                    server.socket_path, scenario.workload,
                    scenario.cost_params, scenario.rho,
                    timeout=1.0, retries=3, backoff=0.01,
                    backoff_max=0.05, fallback="local",
                    fault_injector=injector)
                try:
                    # Several submits so mid-run faults land between
                    # batches, not only inside the first one.
                    chunk = max(1, len(trace) // 3)
                    served: list = []
                    for start in range(0, len(trace), chunk):
                        served.extend(client.evaluate_many(
                            trace[start:start + chunk]))
                    degraded = client.degraded
                    retries = client.stats.retries
                finally:
                    client.close()
        if len(served) != len(trace):
            return (f"{len(served)} of {len(trace)} evaluations "
                    f"returned under {plan.describe()}")
        for index, (want, got) in enumerate(zip(direct, served)):
            if got != want:
                path = "degraded" if degraded else "served"
                return (f"request {index}: {path} evaluation != "
                        f"direct under {plan.describe()}")
        if degraded and not injector.fired and not retries:
            return (f"client degraded although no fault fired "
                    f"({plan.describe()})")
        # The durable prefix must recover and stay bit-exact.
        if store_path.exists():
            expected = {design_content(*pair): evaluation
                        for pair, evaluation in zip(trace, direct)}
            check_store = EvalStore(store_path, recover=True)
            try:
                for _salt, key, evaluation in (
                        check_store.iter_all_evaluations()):
                    want = expected.get(key)
                    if want is not None and evaluation != want:
                        return (f"recovered store entry diverges "
                                f"from direct pricing under "
                                f"{plan.describe()}")
            finally:
                check_store.close()
    return None


def _check_checkpoint_resume(scenario: GeneratedScenario,
                             rng: np.random.Generator) -> str | None:
    """Kill-and-resume at a random round vs the uninterrupted run.

    The strategy under test is *drawn from the registry*: every
    :class:`~repro.core.strategies.registry.StrategySpec` with a
    ``fuzz_builder`` participates, so a newly registered strategy
    inherits this oracle across the fuzz corpus with zero wiring here.
    """
    from repro.core.strategies.registry import registered_strategies

    specs = [spec for spec in registered_strategies()
             if spec.fuzz_builder is not None]
    spec = specs[int(rng.integers(len(specs)))]

    def build() -> tuple[Any, EvalService]:
        return spec.fuzz_builder(scenario)

    strategy, service = build()
    with service:
        reference = SearchDriver(strategy, service).run()
    total_rounds = strategy.total_rounds
    if total_rounds < 2:
        return None  # nothing to interrupt
    stop_round = int(rng.integers(1, total_rounds))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "run.ckpt"
        strategy, service = build()
        with service:
            driver = SearchDriver(strategy, service)
            for _ in range(stop_round):
                driver.step()
            driver.save_checkpoint(ckpt)
        strategy, service = build()
        with service:
            resumed = SearchDriver(strategy, service).restore(ckpt).run()

    def norm(result):
        # Design sweeps finish with a raw evaluation list, not a
        # SearchResult run record.
        if isinstance(result, list):
            return {"evaluations": result}
        return _normalised_run(result)

    want, got = norm(reference), norm(resumed)
    if want != got:
        keys = [key for key in want if want[key] != got.get(key)]
        return (f"strategy {spec.name!r}: resume at round "
                f"{stop_round}/{total_rounds} diverged in {keys}")
    return None


def _check_controller_batch(scenario: GeneratedScenario,
                            rng: np.random.Generator) -> str | None:
    """Lockstep controller batches vs sequential single trajectories.

    On the scenario's joint space: ``sample(count=k)`` and the NASAIC
    hardware-only batch ``sample(count=k, prefix=joint)`` must equal
    ``k`` sequential single samples bit for bit (actions, probabilities,
    log-probs, entropies and the generator state afterwards), and one
    ``k``-sample ``backward`` must equal the sum of ``k`` single-sample
    calls within :data:`BACKWARD_RTOL`.
    """
    from repro.core.choices import JointSearchSpace
    from repro.core.controller import RNNController

    space = JointSearchSpace(scenario.workload, scenario.allocation)
    controller = RNNController(space.decisions,
                               rng=new_rng(int(rng.integers(1 << 31))))
    k = int(rng.integers(2, 8))
    seed = int(rng.integers(1 << 31))
    mask_fn = space.mask_for

    def sample_facts(sample) -> tuple:
        return (sample.actions, sample.log_probs.tobytes(),
                sample.entropies.tobytes(),
                tuple(step.probs.tobytes() for step in sample.steps))

    batched_rng, single_rng = new_rng(seed), new_rng(seed)
    joint = controller.sample(batched_rng, mask_fn=mask_fn)
    single_joint = controller.sample(single_rng, mask_fn=mask_fn)
    if sample_facts(joint) != sample_facts(single_joint):
        return "joint sample diverged between the two streams"
    forced = {pos: joint.actions[pos] for pos in space.arch_positions}
    cases = (
        ("free", {}, None),
        ("prefix", forced, joint),
    )
    for label, pinned, prefix in cases:
        batch = controller.sample(batched_rng, mask_fn=mask_fn,
                                  forced_actions=pinned, count=k,
                                  prefix=prefix)
        singles = [controller.sample(single_rng, mask_fn=mask_fn,
                                     forced_actions=pinned)
                   for _ in range(k)]
        for row, (got, want) in enumerate(zip(batch, singles)):
            if sample_facts(got) != sample_facts(want):
                return f"{label} batch row {row} != sequential sample"
        if batched_rng.bit_generator.state != single_rng.bit_generator.state:
            return f"{label} batch left the generator in another state"
        weights = rng.normal(size=(k, len(space.decisions)))
        betas = rng.uniform(0.0, 0.2, size=weights.shape)
        got = controller.backward(batch, weights, betas)
        # The singles come from separate step caches: the batch must
        # gather them into the same rows.
        mixed = controller.backward(singles, weights, betas)
        want = {key: np.zeros_like(value)
                for key, value in controller.params.items()}
        for sample, w, b in zip(singles, weights, betas):
            for key, grad in controller.backward(sample, w, b).items():
                want[key] += grad
        for key in want:
            scale = np.abs(want[key]).max()
            for name, grads in (("batch", got), ("gathered", mixed)):
                error = np.abs(grads[key] - want[key]).max()
                if not error <= BACKWARD_RTOL * scale:
                    return (f"{label} {name} backward differs from the "
                            f"summed single backward for {key!r} by "
                            f"{error:.3g} (scale {scale:.3g})")
    return None


def _check_exact_gap(scenario: GeneratedScenario,
                     rng: np.random.Generator) -> str | None:
    """Heuristic HAP vs the exact branch-and-bound on tiny instances.

    Soundness bounds that must hold whenever the exact solver applies:
    a feasible heuristic answer implies a feasible optimum, the
    heuristic's energy never undercuts the optimum, and the optimum
    respects the constraint.  Oversized instances skip (the generator's
    ``tiny`` class is built to fit ``EXACT_LEAVES_CAP``; vacuous passes
    on larger classes are expected —
    ``tests/test_differential.py::test_exact_gap_engages_on_tiny``
    pins that tiny scenarios really are solved).
    """
    for index, (nets, accel) in enumerate(
            scenario.sample_pairs(rng, scenario.spec.design_samples)):
        problem = MappingProblem.build(nets, accel,
                                       CostModel(scenario.cost_params))
        if problem.num_slots ** problem.num_layers > EXACT_LEAVES_CAP:
            continue
        constraint = _derived_constraint(problem, rng)
        exact = solve_exact(problem, constraint)
        heuristic = solve_hap(problem, constraint)
        if exact.feasible and exact.makespan > constraint:
            return (f"design {index}: exact 'optimum' violates its own "
                    f"constraint ({exact.makespan} > {constraint})")
        if heuristic.feasible and not exact.feasible:
            return (f"design {index}: heuristic found a feasible "
                    f"assignment (LS={constraint}) the exact solver "
                    f"claims cannot exist")
        if heuristic.feasible and exact.feasible:
            # The exact optimum is a true lower bound; allow only float
            # summation noise between the two energy accumulations.
            slack = 1e-9 * max(1.0, abs(exact.energy_nj))
            if heuristic.energy_nj < exact.energy_nj - slack:
                return (f"design {index}: heuristic energy "
                        f"{heuristic.energy_nj!r} undercuts the exact "
                        f"optimum {exact.energy_nj!r} (LS={constraint})")
    return None  # vacuous pass when every instance was oversized


for _pair in (
    OraclePair("cost-table",
               "batched and shared-memo cost tables and mapped areas == "
               "scalar oracle (bit-identical)",
               _check_batched_tables),
    OraclePair("hap-modes",
               "delta-resume HAP == full-reschedule oracle",
               _check_hap_modes),
    OraclePair("evalservice",
               "cached / cache-disabled service == direct evaluator",
               _check_evalservice),
    OraclePair("store-warm",
               "store-warmed pricing == cold pricing, fully served",
               _check_store_warm),
    OraclePair("store-compact",
               "compacted store answers bit-identical to the original, "
               "live and after a cold reopen",
               _check_store_compact),
    OraclePair("served",
               "daemon-served pricing == direct evaluator, "
               "second client fully shared",
               _check_served),
    OraclePair("chaos-serve",
               "fault-injected serving completes or falls back, "
               "bit-identical to direct pricing",
               _check_chaos_serve),
    OraclePair("checkpoint-resume",
               "resume at any round == uninterrupted run",
               _check_checkpoint_resume),
    OraclePair("controller-batch",
               "lockstep controller batch == sequential single samples "
               "and summed single-sample backward passes",
               _check_controller_batch),
    OraclePair("exact-gap",
               "heuristic HAP never undercuts the exact optimum (tiny)",
               _check_exact_gap),
):
    register_pair(_pair)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _default_cost_params() -> dict[str, Any]:
    defaults = CostModelParams()
    return {f.name: getattr(defaults, f.name)
            for f in fields(CostModelParams)}


def _shrink_task(task) -> list:
    """Smaller variants of one task spec (most aggressive first)."""
    candidates = []
    if task.backbone == "resnet9":
        if task.num_blocks > 1:
            candidates.append(replace(task, num_blocks=1))
        for attr in ("stem_options", "filter_options", "skip_options"):
            options = getattr(task, attr)
            if len(options) > 1:
                candidates.append(replace(task, **{attr: options[:1]}))
        floor = max(8, 2 ** task.num_blocks)
        if task.input_hw > floor:
            candidates.append(replace(task, input_hw=floor))
    else:  # unet
        if task.max_height > 1:
            candidates.append(replace(task, max_height=1))
        if len(task.base_options) > 1:
            candidates.append(replace(task,
                                      base_options=task.base_options[:1]))
        floor = max(8, 2 ** task.max_height)
        if task.input_hw > floor:
            candidates.append(replace(task, input_hw=floor))
    return candidates


def _shrink_candidates(spec: ScenarioSpec):
    """Yield one-step-smaller specs, most aggressive reductions first."""
    if len(spec.tasks) > 1:
        even = 1.0 / (len(spec.tasks) - 1)
        for drop in range(len(spec.tasks)):
            kept = tuple(replace(task, weight=even)
                         for index, task in enumerate(spec.tasks)
                         if index != drop)
            yield replace(spec, tasks=kept)
    if spec.design_samples > 1:
        yield replace(spec, design_samples=1)
    if spec.mc_runs > 2:
        yield replace(spec, mc_runs=2)
    for index, task in enumerate(spec.tasks):
        for smaller in _shrink_task(task):
            tasks = (spec.tasks[:index] + (smaller,)
                     + spec.tasks[index + 1:])
            yield replace(spec, tasks=tasks)
    if spec.num_slots > 1:
        yield replace(spec, num_slots=spec.num_slots - 1)
    if len(spec.dataflows) > 1:
        yield replace(spec, dataflows=spec.dataflows[:1])
    if spec.cost_params != _default_cost_params():
        yield replace(spec, cost_params=_default_cost_params())
    if spec.max_pes > 2 * spec.pe_step:
        yield replace(spec, max_pes=2 * spec.pe_step)
    if spec.max_bandwidth_gbps > 2 * spec.bw_step:
        yield replace(spec, max_bandwidth_gbps=2 * spec.bw_step)
    if spec.rho != 10.0:
        yield replace(spec, rho=10.0)
    if spec.bounds_factor != 2.0:
        yield replace(spec, bounds_factor=2.0)
    if spec.aggregate != "avg":
        yield replace(spec, aggregate="avg")


def shrink_spec(spec: ScenarioSpec, pair: OraclePair,
                *, max_attempts: int = 150
                ) -> tuple[ScenarioSpec, str]:
    """Greedily minimise a failing spec while the failure reproduces.

    Each accepted candidate restarts the move scan (a smaller spec may
    unlock further reductions); the loop stops at a fixed point or after
    ``max_attempts`` candidate evaluations.  Returns the smallest
    still-failing spec and its mismatch detail.  A check that crashes
    counts as failing (see :func:`check_spec`), so crash bugs shrink
    exactly like mismatch bugs.
    """
    detail = check_spec(pair, spec)
    if detail is None:
        raise ValueError(
            f"spec does not fail pair {pair.name!r}; nothing to shrink")
    current, attempts = spec, 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            try:
                scenario = candidate.materialize()
            except Exception:
                # A shrink move may produce a spec the pipeline rejects
                # for unrelated reasons; skip it, keep shrinking.
                continue
            try:
                smaller_detail = pair.check(
                    scenario, pair_rng(candidate, pair.name))
            except Exception as exc:
                smaller_detail = (f"check crashed: "
                                  f"{type(exc).__name__}: {exc}")
            if smaller_detail is not None:
                current, detail = candidate, smaller_detail
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return current, detail


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
def save_repro(path: str | Path, pair: OraclePair, spec: ScenarioSpec,
               detail: str, *, original: ScenarioSpec | None = None
               ) -> Path:
    """Persist a (shrunk) failing scenario as a replayable JSON repro."""
    payload = {
        "format": REPRO_FORMAT,
        "version": FUZZ_VERSION,
        "pair": pair.name,
        "description": pair.description,
        "detail": detail,
        "spec": spec.to_dict(),
    }
    if original is not None and original != spec:
        payload["original_spec"] = original.to_dict()
    return durable_replace(
        path, json.dumps(payload, indent=2).encode("utf-8"))


def replay_repro(path: str | Path) -> str | None:
    """Re-run a persisted repro; returns the mismatch detail (or
    ``None`` once the underlying bug is fixed)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path} is not a fuzz repro file")
    if payload.get("version") != FUZZ_VERSION:
        raise ValueError(
            f"unsupported repro version {payload.get('version')!r}")
    (pair,) = registered_pairs([payload["pair"]])
    spec = ScenarioSpec.from_dict(payload["spec"])
    return check_spec(pair, spec)


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One broken contract, shrunk and persisted."""

    pair: str
    case_seed: int
    size_class: str
    detail: str
    spec: ScenarioSpec
    repro_path: Path | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "pair": self.pair,
            "case_seed": self.case_seed,
            "size_class": self.size_class,
            "detail": self.detail,
            "spec": self.spec.to_dict(),
            "repro_path": (str(self.repro_path)
                           if self.repro_path is not None else None),
        }


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    seed: int
    cases: int
    checks: int
    failures: list[FuzzFailure]
    pair_runs: dict[str, int]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": REPORT_FORMAT,
            "version": FUZZ_VERSION,
            "seed": self.seed,
            "cases": self.cases,
            "checks": self.checks,
            "pair_runs": dict(self.pair_runs),
            "failures": [failure.to_dict() for failure in self.failures],
            "wall_seconds": self.wall_seconds,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        per_pair = ", ".join(
            f"{name}={count}" for name, count in self.pair_runs.items())
        return (f"fuzz: {self.cases} scenarios, {self.checks} checks "
                f"({per_pair}), {self.wall_seconds:.1f}s — {status}")


def save_report(report: FuzzReport, path: str | Path) -> Path:
    """Write the fuzz report JSON to ``path`` (atomic replace)."""
    return durable_replace(
        path, json.dumps(report.to_dict(), indent=2).encode("utf-8"))


def run_fuzz(*, cases: int | None = None, minutes: float | None = None,
             seed: int = 0, pairs: list[str] | None = None,
             size_classes: tuple[str, ...] | None = None,
             repro_dir: str | Path | None = None,
             progress: Callable[[str], Any] | None = None) -> FuzzReport:
    """Run generated scenarios through every selected oracle pair.

    Args:
        cases: Number of scenarios to generate (scenario ``i`` uses seed
            ``seed + i``).  Mutually completing with ``minutes``: when
            both are ``None``, 25 cases run.
        minutes: Wall-clock box — generation stops once exceeded (the
            scenario in flight completes; at least one case always
            runs).
        seed: Base seed; the whole campaign is a pure function of it.
        pairs: Subset of registered pair names (default: all).
        size_classes: Explicit size-class cycle; ``None`` lets each
            case seed pick its own (weighted toward cheap classes).
        repro_dir: Where failing scenarios are persisted (one JSON per
            failure).  ``None`` records failures in the report only.
        progress: Optional sink for per-case progress lines.

    Returns:
        The consolidated :class:`FuzzReport`.
    """
    if cases is None and minutes is None:
        cases = 25
    if cases is not None and cases < 1:
        raise ValueError("cases must be >= 1")
    if minutes is not None and minutes <= 0:
        raise ValueError("minutes must be positive")
    selected = registered_pairs(pairs)
    if not selected:
        raise ValueError("no oracle pairs selected")
    started = time.perf_counter()
    deadline = (started + minutes * 60.0) if minutes is not None else None
    failures: list[FuzzFailure] = []
    pair_runs = {pair.name: 0 for pair in selected}
    checks = 0
    index = 0
    while True:
        if cases is not None and index >= cases:
            break
        if (deadline is not None and index > 0
                and time.perf_counter() >= deadline):
            break
        case_seed = seed + index
        explicit = (size_classes[index % len(size_classes)]
                    if size_classes else None)
        spec = generate_spec(case_seed, size_class=explicit)
        failures_before = len(failures)
        for pair in selected:
            detail = check_spec(pair, spec)
            pair_runs[pair.name] += 1
            checks += 1
            if detail is None:
                continue
            try:
                shrunk, shrunk_detail = shrink_spec(spec, pair)
            except ValueError:
                # The failure did not reproduce on re-check (a
                # timing-dependent pair, e.g. a chaos fault schedule
                # racing real deadlines).  A flaky contract violation
                # is still a violation: record it unshrunk with the
                # original detail instead of crashing the campaign.
                shrunk, shrunk_detail = spec, (
                    f"{detail} [did not reproduce on re-check — "
                    f"timing-dependent]")
            repro_path = None
            if repro_dir is not None:
                repro_path = save_repro(
                    Path(repro_dir)
                    / f"repro-{pair.name}-case{case_seed}.json",
                    pair, shrunk, shrunk_detail, original=spec)
            failures.append(FuzzFailure(
                pair=pair.name, case_seed=case_seed,
                size_class=spec.size_class, detail=shrunk_detail,
                spec=shrunk, repro_path=repro_path))
            if progress is not None:
                progress(f"FAIL {pair.name} on {spec.name}: "
                         f"{shrunk_detail}")
        if progress is not None and len(failures) == failures_before:
            progress(f"case {index + 1} ({spec.name}) ok")
        index += 1
    return FuzzReport(
        seed=seed,
        cases=index,
        checks=checks,
        failures=failures,
        pair_runs=pair_runs,
        wall_seconds=time.perf_counter() - started,
    )
