"""Fault injection: retry, reconnect, fallback, crash recovery.

The fault-tolerant pricing tier's contract: under any bounded fault
schedule the client either completes through retries or degrades to
local pricing — and either way every answer is **bit-identical** to a
fault-free in-process run, because pricing is deterministic and the
daemon coalesces resubmissions.  These tests drive each fault seam in
isolation (the ``chaos-serve`` oracle pair fuzzes them in combination
on generated scenarios).
"""

from __future__ import annotations

import time
import warnings

import pytest

from suite_helpers import priced_w1_designs, sample_design_pairs
from repro.core import (
    EvalService,
    EvalStore,
    FaultInjector,
    FaultPlan,
    PoisonedDesignError,
    TornWriteError,
)
from repro.core.client import RemoteEvalService
from repro.core.evaluator import Evaluator
from repro.core.server import serve_in_thread
from repro.cost import CostModel
from repro.cost.model import CostModelParams
from repro.utils.rng import new_rng
from repro.workloads import w1

RHO = 10.0


def make_params() -> CostModelParams:
    return CostModelParams()


def make_evaluator(workload):
    return Evaluator(workload, CostModel(make_params()), trainer=None,
                     rho=RHO)


def make_client(server, workload, **kwargs) -> RemoteEvalService:
    return RemoteEvalService(server.socket_path, workload,
                             make_params(), RHO, **kwargs)


@pytest.fixture(scope="module")
def workload():
    return w1()


@pytest.fixture(scope="module")
def pairs(workload):
    return sample_design_pairs(workload, n=4, seed=11)


@pytest.fixture(scope="module")
def want(workload, pairs):
    with EvalService(make_evaluator(workload)) as local:
        return local.evaluate_many(pairs)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_from_rng_is_deterministic(self):
        plans = [FaultPlan.from_rng(new_rng(7)) for _ in range(2)]
        assert plans[0] == plans[1]
        assert FaultPlan.from_rng(new_rng(8)) != plans[0] or True

    def test_corpus_mixes_faulty_and_clean_schedules(self):
        plans = [FaultPlan.from_rng(new_rng(seed)) for seed in range(64)]
        assert any(plan == FaultPlan() for plan in plans)
        assert any(plan.drop_client_frames for plan in plans)
        assert any(plan.poison_computes for plan in plans)
        assert any(plan.kill_after_batches is not None for plan in plans)
        assert any(plan.torn_append_at is not None for plan in plans)

    def test_describe_is_compact(self):
        assert FaultPlan().describe() == "FaultPlan(no faults)"
        assert "kill_after_batches=2" in \
            FaultPlan(kill_after_batches=2).describe()


# ----------------------------------------------------------------------
# Client retry / reconnect
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_dropped_connection_reconnects_bit_identical(
            self, workload, pairs, want):
        """Frame 1 (the first submit) tears the connection down; the
        client must re-handshake, resubmit and match the fault-free
        answers exactly — no fallback involved."""
        injector = FaultInjector(FaultPlan(drop_client_frames=(1,)))
        with serve_in_thread() as server:
            with make_client(server, workload, retries=4, backoff=0.01,
                             fault_injector=injector) as client:
                got = client.evaluate_many(pairs)
                assert client.stats.reconnects >= 1
                assert client.stats.retries >= 1
                assert not client.degraded
        assert injector.fired == ["drop-connection@frame1"]
        assert got == want

    def test_stalled_reply_times_out_and_retries(
            self, workload, pairs, want):
        """A reply stalled past the client deadline forces a timeout;
        the desynchronised connection is dropped and the resubmission
        coalesces with (or re-prices) the same deterministic work."""
        injector = FaultInjector(FaultPlan(stall_replies=(1,),
                                           stall_seconds=1.5))
        with serve_in_thread(fault_injector=injector) as server:
            with make_client(server, workload, timeout=0.3, retries=6,
                             backoff=0.01) as client:
                got = client.evaluate_many(pairs)
                assert client.stats.retries >= 1
                assert not client.degraded
        assert "stall-reply@1" in injector.fired
        assert got == want


# ----------------------------------------------------------------------
# Degradation to local pricing
# ----------------------------------------------------------------------
class TestFallback:
    def test_poisoned_design_degrades_and_daemon_survives(
            self, workload, pairs, want):
        """A poisoned compute is isolated to an error frame: the
        fallback client degrades (bit-identically) while the daemon
        keeps serving other clients unharmed."""
        injector = FaultInjector(FaultPlan(poison_computes=(0,)))
        with serve_in_thread(fault_injector=injector) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with make_client(server, workload, retries=1,
                                 backoff=0.01,
                                 fallback="local") as client:
                    got = client.evaluate_many(pairs)
                    assert client.degraded
                    assert client.stats.degraded == 1
            assert server.counters["compute_errors"] >= 1
            # The daemon survives and still prices for healthy clients
            # (the poison was index 0 only).
            with make_client(server, workload) as healthy:
                assert healthy.evaluate_many(pairs) == want
        assert got == want

    def test_daemon_kill_mid_run_falls_back_bit_identical(
            self, workload, pairs, want):
        injector = FaultInjector(FaultPlan(kill_after_batches=1))
        with serve_in_thread(fault_injector=injector) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with make_client(server, workload, timeout=2.0,
                                 retries=2, backoff=0.01,
                                 fallback="local") as client:
                    got = client.evaluate_many(pairs)
                    assert client.degraded
        assert "daemon-kill@batch1" in injector.fired
        assert server.aborted
        assert got == want

    def test_unreachable_daemon_at_construction_degrades(
            self, tmp_path, workload, pairs, want):
        """``--fallback local`` covers the daemon never being there at
        all: construction degrades instead of raising."""
        with pytest.warns(RuntimeWarning, match="degrading to local"):
            client = RemoteEvalService(tmp_path / "nobody.sock",
                                       workload, make_params(), RHO,
                                       retries=0, fallback="local")
        with client:
            assert client.degraded
            assert client.evaluate_many(pairs) == want

    def test_no_fallback_still_raises(self, tmp_path, workload):
        with pytest.raises(ConnectionError, match="no pricing daemon"):
            RemoteEvalService(tmp_path / "nobody.sock", workload,
                              make_params(), RHO, retries=0)

    def test_stats_delta_preserves_degraded_flag(self):
        """The driver absorbs a start-to-finish stats *delta*; a client
        degraded before the run started (daemon unreachable at
        construction) must still report the run as degraded."""
        from repro.core.evalservice import EvalServiceStats

        start = EvalServiceStats(degraded=1, retries=2)
        end = EvalServiceStats(degraded=1, retries=5)
        diff = end.delta(start)
        assert diff.degraded == 1
        assert diff.retries == 3  # counters stay per-run deltas


# ----------------------------------------------------------------------
# Torn store appends (crash semantics)
# ----------------------------------------------------------------------
class TestTornAppend:
    def test_torn_append_recovers_on_next_open(self, tmp_path):
        injector = FaultInjector(FaultPlan(torn_append_at=0))
        path = tmp_path / "s.bin"
        store = EvalStore(path, fault_injector=injector)
        design = priced_w1_designs()[0]
        with pytest.raises(TornWriteError):
            store.put("s", "d", *design)
        store.close()
        assert injector.fired == ["torn-append@0"]
        with EvalStore(path, recover=True) as recovered:
            assert recovered.recovered is not None
            assert len(recovered) == 0
            assert recovered.put("s", "d", *design)
        assert path.with_name(path.name + ".corrupt").exists()
        assert len(EvalStore(path, read_only=True)) == 1

    def test_durable_prefix_survives_torn_append(self, tmp_path):
        """Records appended before the torn write stay bit-exact."""
        injector = FaultInjector(FaultPlan(torn_append_at=1))
        path = tmp_path / "s.bin"
        store = EvalStore(path, fault_injector=injector)
        (key1, evaluation1), (key2, evaluation2) = priced_w1_designs()[:2]
        store.put("s", "d1", key1, evaluation1)
        prefix = path.read_bytes()
        with pytest.raises(TornWriteError):
            store.put("s", "d2", key2, evaluation2)
        store.close()
        with EvalStore(path, recover=True) as recovered:
            assert recovered.get("s", "d1", key1) == evaluation1
            assert recovered.get("s", "d2", key2) is None
        assert path.read_bytes() == prefix

    def test_daemon_torn_append_is_fatal_and_recoverable(
            self, tmp_path, workload, pairs, want):
        """A torn persist kills the daemon (crash semantics) *after*
        the replies already went out; the next open recovers the
        store instead of rejecting it."""
        store_path = tmp_path / "s.bin"
        injector = FaultInjector(FaultPlan(torn_append_at=0))
        with serve_in_thread(store_path=store_path,
                             fault_injector=injector) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with make_client(server, workload, timeout=2.0,
                                 retries=2, backoff=0.01,
                                 fallback="local") as client:
                    got = client.evaluate_many(pairs)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not server.aborted:
                time.sleep(0.05)
        assert got == want
        assert server.aborted
        assert server.counters["persist_errors"] >= 1
        with EvalStore(store_path, recover=True) as store:
            assert store.recovered is not None

    def test_poisoned_design_error_is_an_injected_fault(self):
        with pytest.raises(PoisonedDesignError):
            FaultInjector(FaultPlan(poison_computes=(0,))).on_compute(())


# ----------------------------------------------------------------------
# Chaos oracle (smoke — CI fuzzes the full corpus)
# ----------------------------------------------------------------------
class TestChaosOracle:
    def test_chaos_serve_holds_on_generated_scenarios(self):
        from repro.core.differential import check_spec, registered_pairs
        from repro.workloads.generator import generate_spec

        (pair,) = [p for p in registered_pairs()
                   if p.name == "chaos-serve"]
        for seed in range(4):
            detail = check_spec(pair, generate_spec(seed))
            assert detail is None, f"seed {seed}: {detail}"
