"""Unit tests for search-result serialisation."""

import pytest

from repro.core import NASAIC, NASAICConfig
from repro.core.serialization import (
    load_result,
    result_to_dict,
    save_result,
    solution_to_dict,
)
from repro.workloads import w3


@pytest.fixture(scope="module")
def run():
    return NASAIC(w3(), config=NASAICConfig(
        episodes=6, hw_steps=2, seed=19)).run()


class TestSolutionDict:
    def test_fields_present(self, run):
        assert run.best is not None
        d = solution_to_dict(run.best)
        assert set(d) >= {"networks", "accelerator", "latency_cycles",
                          "energy_nj", "area_um2", "feasible",
                          "accuracies", "weighted_accuracy"}

    def test_network_payload(self, run):
        d = solution_to_dict(run.best)
        net = d["networks"][0]
        assert net["backbone"] == "resnet9"
        assert isinstance(net["genotype"], list)
        assert net["macs"] > 0

    def test_accelerator_payload(self, run):
        d = solution_to_dict(run.best)
        for sub in d["accelerator"]:
            assert sub["dataflow"] in ("shi", "dla", "rs")
            assert sub["pes"] > 0


class TestRoundtrip:
    def test_save_and_load(self, run, tmp_path):
        path = save_result(run, tmp_path / "run.json")
        loaded = load_result(path)
        assert loaded["name"] == run.name
        assert loaded["num_feasible"] == len(run.feasible_solutions)
        assert len(loaded["explored"]) == len(run.explored)

    def test_best_preserved(self, run, tmp_path):
        path = save_result(run, tmp_path / "run.json")
        loaded = load_result(path)
        assert loaded["best"]["weighted_accuracy"] == pytest.approx(
            run.best.weighted_accuracy)

    def test_creates_parent_dirs(self, run, tmp_path):
        path = save_result(run, tmp_path / "deep" / "nested" / "run.json")
        assert path.exists()

    def test_json_is_plain_data(self, run, tmp_path):
        import json
        path = save_result(run, tmp_path / "run.json")
        # Must parse with the stock JSON decoder (no custom types).
        json.loads(path.read_text())


class TestAggregateMin:
    def test_min_aggregate_reward(self):
        from repro.core import weighted_normalised_accuracy
        from repro.workloads.workload import (DesignSpecs, PenaltyBounds,
                                              Task, Workload)
        from repro.arch import cifar10_resnet_space
        specs = DesignSpecs(1, 1, 1)
        wl = Workload(
            "m", (Task("a", cifar10_resnet_space(), 0.5),
                  Task("b", cifar10_resnet_space(), 0.5)),
            specs, PenaltyBounds.from_specs(specs), aggregate="min")
        assert weighted_normalised_accuracy(wl, (90.0, 80.0)) == \
            pytest.approx(0.80)

    def test_min_aggregate_display_units(self):
        from repro.workloads.workload import (DesignSpecs, PenaltyBounds,
                                              Task, Workload)
        from repro.arch import cifar10_resnet_space
        specs = DesignSpecs(1, 1, 1)
        wl = Workload(
            "m", (Task("a", cifar10_resnet_space(), 0.5),
                  Task("b", cifar10_resnet_space(), 0.5)),
            specs, PenaltyBounds.from_specs(specs), aggregate="min")
        assert wl.weighted_accuracy((90.0, 80.0)) == 80.0

    def test_invalid_aggregate_rejected(self):
        from repro.workloads.workload import (DesignSpecs, PenaltyBounds,
                                              Task, Workload)
        from repro.arch import cifar10_resnet_space
        specs = DesignSpecs(1, 1, 1)
        with pytest.raises(ValueError, match="aggregate"):
            Workload("m", (Task("a", cifar10_resnet_space(), 1.0),),
                     specs, PenaltyBounds.from_specs(specs),
                     aggregate="max")


class TestDurableWrites:
    """Checkpoint writes must survive crashes *and* power loss: fsync
    before the atomic replace, and never strand a stale ``.tmp``."""

    def test_checkpoint_fsyncs_before_replace(self, tmp_path, monkeypatch):
        import os

        from repro.core.serialization import save_checkpoint

        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (events.append("replace"),
                          real_replace(a, b))[1])
        save_checkpoint(tmp_path / "ck.ckpt", {"strategy_name": "x"})
        assert "fsync" in events and "replace" in events
        # The data fsync lands before the rename becomes visible.
        assert events.index("fsync") < events.index("replace")

    def test_failed_replace_cleans_up_tmp(self, tmp_path, monkeypatch):
        import os

        from repro.core.serialization import save_checkpoint

        def exploding_replace(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", exploding_replace)
        target = tmp_path / "ck.ckpt"
        with pytest.raises(OSError, match="disk detached"):
            save_checkpoint(target, {"strategy_name": "x"})
        assert not target.exists()
        assert not (tmp_path / "ck.ckpt.tmp").exists(), \
            "a crashed checkpoint must not strand its temp file"

    def test_failed_write_cleans_up_tmp(self, tmp_path, monkeypatch):
        import os

        from repro.core.serialization import durable_replace

        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (_ for _ in ()).throw(OSError("io error")))
        with pytest.raises(OSError, match="io error"):
            durable_replace(tmp_path / "f.bin", b"payload")
        assert not (tmp_path / "f.bin.tmp").exists()

    def test_store_appends_are_fsynced(self, tmp_path, monkeypatch):
        import os

        from repro.core.store import EvalStore
        from suite_helpers import priced_w1_designs

        count = {"fsync": 0}
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (count.__setitem__("fsync", count["fsync"] + 1),
                        real_fsync(fd))[1])
        with EvalStore(tmp_path / "s.bin") as store:
            store.put("s", "d", *priced_w1_designs()[0])
        assert count["fsync"] >= 1
