"""Differential harness: green on clean code, sharp on injected bugs.

Acceptance demonstration (ISSUE 5): an intentionally injected
cost-model perturbation is caught by the batched-vs-scalar oracle pair,
shrunk to a minimal failing scenario, persisted as a replayable JSON
repro — and the replay goes clean once the perturbation is removed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from suite_helpers import sample_design_pairs
from repro.core.differential import (
    EXACT_LEAVES_CAP,
    OraclePair,
    check_spec,
    pair_rng,
    registered_pairs,
    register_pair,
    replay_repro,
    run_fuzz,
    save_report,
    save_repro,
    shrink_spec,
)
from repro.cost.model import CostModel
from repro.mapping.problem import MappingProblem
from repro.workloads import generate_spec
from repro.workloads.generator import ScenarioSpec

EXPECTED_PAIRS = ("cost-table", "hap-modes", "evalservice", "store-warm",
                  "checkpoint-resume", "controller-batch", "exact-gap")


@pytest.fixture
def perturbed_scalar_cost(monkeypatch):
    """Inject a relative 1e-7 energy error into the *scalar* cost path
    only (the batched path prices misses through the vectorised twins),
    so exactly the batched-vs-scalar contract breaks."""
    original = CostModel.layer_cost

    def perturbed(self, layer, sub):
        cost = original(self, layer, sub)
        return dataclasses.replace(
            cost, energy_nj=cost.energy_nj * (1.0 + 1e-7))

    monkeypatch.setattr(CostModel, "layer_cost", perturbed)
    return monkeypatch


class TestRegistry:
    def test_all_contracts_registered(self):
        names = [pair.name for pair in registered_pairs()]
        for expected in EXPECTED_PAIRS:
            assert expected in names

    def test_subset_selection(self):
        (pair,) = registered_pairs(["hap-modes"])
        assert pair.name == "hap-modes"

    def test_unknown_pair_rejected(self):
        with pytest.raises(KeyError, match="no-such-pair"):
            registered_pairs(["no-such-pair"])

    def test_duplicate_registration_rejected(self):
        existing = registered_pairs()[0]
        with pytest.raises(ValueError, match="already registered"):
            register_pair(existing)

    def test_pair_rng_depends_on_spec_and_pair(self):
        spec = generate_spec(0)
        other = generate_spec(1)
        assert pair_rng(spec, "cost-table").integers(1 << 30) \
            == pair_rng(spec, "cost-table").integers(1 << 30)
        assert pair_rng(spec, "cost-table").integers(1 << 30) \
            != pair_rng(other, "cost-table").integers(1 << 30)


class TestCleanRun:
    def test_fuzz_green_on_clean_code(self, tmp_path):
        report = run_fuzz(cases=8, seed=0, repro_dir=tmp_path)
        assert report.ok
        assert report.cases == 8
        assert report.checks == 8 * len(registered_pairs())
        assert not list(tmp_path.iterdir())  # no repro files written

    def test_report_json_round_trips(self, tmp_path):
        report = run_fuzz(cases=2, seed=5, pairs=["cost-table"])
        path = save_report(report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-fuzz-report"
        assert payload["ok"] and payload["cases"] == 2
        assert payload["pair_runs"] == {"cost-table": 2}

    def test_minutes_box_stops(self):
        """A tiny wall-clock box still runs at least one case and stops
        well short of an unbounded sweep."""
        report = run_fuzz(minutes=0.02, seed=0, pairs=["cost-table"])
        assert report.cases >= 1
        assert report.ok

    def test_exact_gap_engages_on_tiny(self):
        """The exact-vs-heuristic pair must actually solve instances on
        tiny scenarios, not skip them all as oversized."""
        spec = generate_spec(3, size_class="tiny")
        scenario = spec.materialize()
        rng = pair_rng(spec, "exact-gap")
        engaged = 0
        for nets, accel in scenario.sample_pairs(rng,
                                                 spec.design_samples):
            problem = MappingProblem.build(
                nets, accel, CostModel(scenario.cost_params))
            if problem.num_slots ** problem.num_layers \
                    <= EXACT_LEAVES_CAP:
                engaged += 1
        assert engaged > 0


class TestInjectedPerturbation:
    """The acceptance demonstration: catch, shrink, persist, replay."""

    def test_caught_shrunk_and_replayable(self, tmp_path,
                                          perturbed_scalar_cost):
        report = run_fuzz(cases=2, seed=0, pairs=["cost-table"],
                          repro_dir=tmp_path)
        assert not report.ok
        assert len(report.failures) == 2  # every scenario exposes it
        failure = report.failures[0]
        assert failure.pair == "cost-table"
        assert "energies" in failure.detail
        # Shrunk to a minimal scenario: one task, one sampled design,
        # one slot, defaults elsewhere.
        assert len(failure.spec.tasks) == 1
        assert failure.spec.design_samples == 1
        assert failure.spec.num_slots == 1
        # Persisted as a replayable JSON repro that still fails...
        assert failure.repro_path is not None and failure.repro_path.exists()
        payload = json.loads(failure.repro_path.read_text())
        assert payload["format"] == "repro-fuzz-repro"
        assert payload["pair"] == "cost-table"
        assert ScenarioSpec.from_dict(payload["spec"]) == failure.spec
        assert replay_repro(failure.repro_path) is not None
        # ... and goes green once the injected bug is removed.
        perturbed_scalar_cost.undo()
        assert replay_repro(failure.repro_path) is None

    def test_only_the_broken_contract_fails(self, perturbed_scalar_cost):
        """The perturbation hits both sides of every other pair equally,
        so the harness points at exactly the broken contract."""
        report = run_fuzz(cases=1, seed=0,
                          pairs=["cost-table", "hap-modes",
                                 "evalservice", "store-warm"])
        assert [f.pair for f in report.failures] == ["cost-table"]

    def test_shrink_requires_a_failing_spec(self):
        (pair,) = registered_pairs(["cost-table"])
        with pytest.raises(ValueError, match="does not fail"):
            shrink_spec(generate_spec(0), pair)

    def test_auto_and_explicit_class_specs_are_identical(self):
        """A failure report's (case_seed, size_class) pair must rebuild
        the exact scenario: the class-pick draw is consumed either way."""
        for seed in range(8):
            spec = generate_spec(seed)
            assert generate_spec(seed, size_class=spec.size_class) == spec


class TestCrashingCheck:
    """A check that *raises* is a failure, not a campaign abort — the
    class of bug the harness's first real find was."""

    def test_crash_recorded_shrunk_and_persisted(self, tmp_path):
        def crashing(scenario, rng):
            if scenario.spec.num_slots >= 1:  # always, on any scenario
                raise RuntimeError("boom on generated input")
            return None

        probe = OraclePair("crash-probe", "test-only crash probe",
                           crashing)
        register_pair(probe)
        try:
            report = run_fuzz(cases=2, seed=0, pairs=["crash-probe"],
                              repro_dir=tmp_path)
            assert not report.ok and len(report.failures) == 2
            failure = report.failures[0]
            assert "check crashed" in failure.detail
            assert "boom on generated input" in failure.detail
            assert len(failure.spec.tasks) == 1  # crash bugs shrink too
            assert "check crashed" in replay_repro(failure.repro_path)
        finally:
            from repro.core import differential

            differential._REGISTRY.pop("crash-probe")

    def test_check_spec_wraps_exceptions(self):
        probe = OraclePair(
            "inline-crash", "not registered",
            lambda scenario, rng: (_ for _ in ()).throw(
                ValueError("bad table")))
        detail = check_spec(probe, generate_spec(0))
        assert detail == "check crashed: ValueError: bad table"


class TestFlakyCheck:
    """A failure that does not reproduce on the shrink re-check must be
    recorded unshrunk, not crash the campaign — timing-dependent pairs
    (chaos schedules racing real deadlines) can flake 1-in-N."""

    def test_flaky_failure_recorded_unshrunk(self, tmp_path):
        calls = []

        def flaky(scenario, rng):
            calls.append(scenario.spec.name)
            return "transient mismatch" if len(calls) == 1 else None

        probe = OraclePair("flaky-probe", "test-only flaky probe",
                           flaky)
        register_pair(probe)
        try:
            report = run_fuzz(cases=2, seed=0, pairs=["flaky-probe"],
                              repro_dir=tmp_path)
            assert not report.ok
            assert len(report.failures) == 1
            failure = report.failures[0]
            assert "transient mismatch" in failure.detail
            assert "did not reproduce on re-check" in failure.detail
            assert failure.spec == generate_spec(0)  # kept unshrunk
            assert failure.repro_path is not None
            assert failure.repro_path.exists()
        finally:
            from repro.core import differential

            differential._REGISTRY.pop("flaky-probe")


class TestCustomPairs:
    def test_registered_pair_joins_the_fuzz(self, tmp_path):
        """Future PRs add their contract here and inherit the corpus;
        a pair that always fails produces a shrunk, persisted repro."""
        probe = OraclePair(
            "always-broken-probe", "test-only probe",
            lambda scenario, rng: "synthetic mismatch")
        register_pair(probe)
        try:
            report = run_fuzz(cases=1, seed=4,
                              pairs=["always-broken-probe"],
                              repro_dir=tmp_path)
            assert [f.pair for f in report.failures] \
                == ["always-broken-probe"]
            spec = report.failures[0].spec
            assert len(spec.tasks) == 1  # shrunk to the floor
            assert replay_repro(report.failures[0].repro_path) \
                == "synthetic mismatch"
        finally:
            from repro.core import differential

            differential._REGISTRY.pop("always-broken-probe")

    def test_save_repro_records_original_spec(self, tmp_path):
        (pair,) = registered_pairs(["cost-table"])
        original = generate_spec(9)
        shrunk = generate_spec(9, size_class="tiny")
        path = save_repro(tmp_path / "r.json", pair, shrunk, "detail",
                          original=original)
        payload = json.loads(path.read_text())
        assert ScenarioSpec.from_dict(payload["original_spec"]) == original


class TestSharedFixturesCompose:
    def test_harness_reuses_suite_builders(self, hw_evaluator_factory,
                                           design_pairs_factory):
        """The hoisted conftest builders work against generated
        workloads, not just presets — the point of sharing them."""
        scenario = generate_spec(1, size_class="tiny").materialize()
        evaluator = hw_evaluator_factory(
            scenario.workload, surrogate=scenario.build_surrogate())
        pairs = design_pairs_factory(scenario.workload,
                                     scenario.allocation, n=2, seed=11)
        evaluation = evaluator.evaluate_hardware(*pairs[0])
        assert evaluation.latency_cycles > 0
        assert pairs == sample_design_pairs(
            scenario.workload, scenario.allocation, n=2, seed=11)
