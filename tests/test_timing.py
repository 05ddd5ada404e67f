"""Unit tests for the search-cost timing harness."""

import pytest

from repro.experiments import format_timing, run_timing
from repro.workloads import w3


@pytest.fixture(scope="module")
def timing_report():
    return run_timing(w3(), episodes=12, hw_steps=3, seed=77)


class TestTiming:
    def test_counts_consistent(self, timing_report):
        r = timing_report
        assert r.episodes == 12
        assert r.hardware_evaluations == 12 * 4  # 1 joint + 3 hw steps
        assert r.trainings_run + r.trainings_memoised >= 0

    def test_gpu_time_scales_with_trainings(self, timing_report):
        r = timing_report
        assert r.simulated_gpu_seconds == pytest.approx(
            r.trainings_run * 25.0)

    def test_overlap_bounded_by_naive(self, timing_report):
        r = timing_report
        assert r.overlapped_wall_seconds <= r.naive_wall_seconds + 1e-9

    def test_format_mentions_pruning(self, timing_report):
        text = format_timing(timing_report)
        assert "early pruning" in text
        assert "GPU-hours" in text

