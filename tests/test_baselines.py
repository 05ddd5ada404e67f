"""Unit tests for the baseline approaches (small-scale runs)."""

import pytest

from repro.accel import AllocationSpace
from repro.core import (
    closest_to_spec_design,
    closest_to_spec_solution,
    hardware_aware_nas,
    monte_carlo_designs,
    monte_carlo_search,
    run_nas,
    run_nas_per_task,
    spec_distance,
    successive_nas_then_asic,
)
from repro.workloads import DesignSpecs


class TestSpecDistance:
    def test_zero_at_spec_point(self):
        specs = DesignSpecs(100, 100, 100)
        assert spec_distance(100, 100, 100, specs) == 0.0

    def test_scale_free(self):
        a = DesignSpecs(100, 100, 100)
        b = DesignSpecs(1000, 1000, 1000)
        assert spec_distance(50, 100, 100, a) == pytest.approx(
            spec_distance(500, 1000, 1000, b))

    def test_symmetric_over_and_under(self):
        specs = DesignSpecs(100, 100, 100)
        assert spec_distance(80, 100, 100, specs) == pytest.approx(
            spec_distance(120, 100, 100, specs))


class TestRunNas:
    @pytest.fixture(scope="class")
    def nas_result(self, ):
        from repro.workloads import w3
        return run_nas(w3(), episodes=60, seed=31)

    def test_accuracy_only_objective(self, nas_result):
        # Even a short NAS run should discover clearly-above-average
        # networks (space mean is ~88%; peak is 94.3%).
        assert nas_result.best_accuracies[0] > 91.0

    def test_history_length(self, nas_result):
        assert len(nas_result.history) == 60

    def test_best_is_running_max(self, nas_result):
        assert nas_result.best_weighted == pytest.approx(
            max(w for _, w in nas_result.history))

    def test_networks_match_tasks(self, nas_result):
        assert len(nas_result.best_networks) == 2
        assert all(n.dataset == "cifar10"
                   for n in nas_result.best_networks)

    def test_zero_episodes_rejected(self):
        from repro.workloads import w3
        with pytest.raises(ValueError, match="episodes"):
            run_nas(w3(), episodes=0)


class TestRunNasPerTask:
    @pytest.fixture(scope="class")
    def per_task(self):
        from repro.workloads import w1
        return run_nas_per_task(w1(), episodes=120, seed=47)

    def test_both_tasks_near_their_peaks(self, per_task):
        """Independent per-task searches avoid the multi-task credit
        assignment problem: each task should approach its own peak
        (94.3% CIFAR, 0.846 IOU)."""
        assert per_task.best_accuracies[0] > 92.0
        assert per_task.best_accuracies[1] > 0.82

    def test_backbones_match_tasks(self, per_task):
        assert per_task.best_networks[0].backbone == "resnet9"
        assert per_task.best_networks[1].backbone == "unet"

    def test_weighted_consistent(self, per_task):
        from repro.core import weighted_normalised_accuracy
        from repro.workloads import w1
        assert per_task.best_weighted == pytest.approx(
            weighted_normalised_accuracy(w1(), per_task.best_accuracies))


class TestMonteCarlo:
    def test_monte_carlo_designs_count(self, workload_w3, cifar_net_small):
        evals = monte_carlo_designs(
            (cifar_net_small, cifar_net_small), workload_w3, runs=20,
            seed=37)
        assert len(evals) == 20

    def test_closest_to_spec_prefers_feasible(self, workload_w3,
                                              cifar_net_small):
        evals = monte_carlo_designs(
            (cifar_net_small, cifar_net_small), workload_w3, runs=30,
            seed=37)
        chosen = closest_to_spec_design(evals, workload_w3.specs)
        if any(e.feasible for e in evals):
            assert chosen.feasible

    def test_closest_to_spec_empty_rejected(self, workload_w3):
        with pytest.raises(ValueError, match="no design"):
            closest_to_spec_design([], workload_w3.specs)

    def test_monte_carlo_search_explores(self, workload_w3):
        result = monte_carlo_search(workload_w3, runs=40, seed=41)
        assert len(result.explored) == 40
        # With 40 random W3 samples some should be feasible.
        assert result.best is not None

    def test_closest_to_spec_solution_feasible(self, workload_w3):
        result = monte_carlo_search(workload_w3, runs=40, seed=41)
        heuristic = closest_to_spec_solution(result.explored,
                                             workload_w3.specs)
        assert heuristic is not None and heuristic.feasible

    def test_closest_solution_none_when_all_infeasible(self, workload_w3):
        assert closest_to_spec_solution([], workload_w3.specs) is None


class TestHardwareAwareNas:
    def test_fixed_design_respected(self, workload_w3):
        allocation = AllocationSpace()
        from repro.accel import Dataflow
        design = allocation.build([(Dataflow.NVDLA, 2048, 32),
                                   (Dataflow.SHIDIANNAO, 1024, 32)])
        result = hardware_aware_nas(workload_w3, design, episodes=25,
                                    seed=43)
        assert len(result.explored) == 25
        for solution in result.explored:
            assert solution.accelerator.describe() == design.describe()

    def test_finds_feasible_on_reasonable_design(self, workload_w3):
        allocation = AllocationSpace()
        from repro.accel import Dataflow
        design = allocation.build([(Dataflow.NVDLA, 2048, 32),
                                   (Dataflow.SHIDIANNAO, 1024, 32)])
        result = hardware_aware_nas(workload_w3, design, episodes=25,
                                    seed=43)
        assert result.best is not None


class TestSuccessivePipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.workloads import w3
        return successive_nas_then_asic(
            w3(), nas_episodes=40, pe_stride=1024, bw_stride=32, seed=47)

    def test_reports_nas_networks(self, pipeline):
        assert len(pipeline.networks) == 2

    def test_nas_accuracy_high(self, pipeline):
        assert pipeline.accuracies[0] > 92.0

    def test_w3_nas_networks_violate_specs(self, pipeline):
        """The paper's central claim: hardware chosen after the fact
        cannot rescue NAS-chosen (maximal) networks on W3's budget."""
        assert not pipeline.hardware.feasible

    def test_solution_view(self, pipeline):
        solution = pipeline.solution
        assert solution.accuracies == pipeline.accuracies
        assert solution.feasible == pipeline.hardware.feasible
