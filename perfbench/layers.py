"""Where the benchmark hooks into ``repro``: markers and layer spans.

Markers are always installed in a measured process; they time the
moments the end-to-end metrics need (search ready, driver rounds,
result on disk) with one clock read each.  Layer spans are installed
only in traced runs.  Each entry names the module and attribute the
*caller* looks the function up through.
"""

from __future__ import annotations

import importlib
import itertools
import pickle
import time
import types

# (module, class or None for a module function, attribute, span, layer)
PROCESS_SPANS = [
    ("repro.core.search", "NASAIC", "__init__", "setup.nasaic", "setup"),
    ("repro.core.baselines", None, "_build_search_parts",
     "setup.search_parts", "setup"),
    ("repro.core.driver", "SearchDriver", "run", "driver.run", "driver"),
    ("repro.core.driver", "SearchDriver", "step", "driver.step", "driver"),
    ("repro.core.controller", "RNNController", "sample",
     "controller.sample", "controller"),
    ("repro.core.controller", "RNNController", "backward",
     "controller.backward", "controller"),
    ("repro.core.reinforce", "ReinforceTrainer", "apply_episodes",
     "reinforce.apply_episodes", "reinforce"),
    ("repro.core.choices", "JointSearchSpace", "decode",
     "choices.joint_decode", "choices"),
    ("repro.arch.resnet", "ResNetSpace", "decode", "choices.resnet_decode",
     "choices"),
    ("repro.arch.unet", "UNetSpace", "decode", "choices.unet_decode",
     "choices"),
    ("repro.train.trainer", "SurrogateTrainer", "train_and_validate",
     "train.train_and_validate", "train"),
    ("repro.core.evalservice", "EvalService", "evaluate_many",
     "evalservice.evaluate_many", "evalservice"),
    ("repro.core.evalservice", "EvalService", "lookup_tiers",
     "evalservice.lookup_tiers", "evalservice"),
    ("repro.core.evalservice", "EvalService", "admit_miss",
     "evalservice.admit_miss", "evalservice"),
    ("repro.core.evalservice", "EvalService", "flush_store",
     "evalservice.flush_store", "evalservice"),
    ("repro.core.evaluator", "Evaluator", "evaluate_hardware_many",
     "evaluator.evaluate_hardware_many", "evaluator"),
    ("repro.core.evaluator", "Evaluator", "evaluate_hardware",
     "evaluator.evaluate_hardware", "evaluator"),
    ("repro.mapping.problem", "MappingProblem", "build_many",
     "problem.build_many", "problem"),
    ("repro.mapping.problem", "MappingProblem", "build", "problem.build",
     "problem"),
    ("repro.core.evaluator", None, "solve_hap", "hap.solve", "hap"),
    ("repro.core.store", "EvalStore", "__init__", "store.open", "store"),
    ("repro.core.store", "EvalStore", "get", "store.get", "store"),
    ("repro.core.store", "EvalStore", "put_many", "store.put", "store"),
    ("repro.core.store", "EvalStore", "put_memo", "store.put_memo",
     "store"),
    ("repro.core.driver", None, "save_checkpoint",
     "serialization.checkpoint", "serialization"),
    ("repro.cli", None, "save_result", "serialization.save_result",
     "serialization"),
]

# The daemon encodes replies through its own import of encode_frame and
# pickles evaluation blobs in _reply_blob; both ends decode frames
# through protocol._decode_payload.
DAEMON_SPANS = PROCESS_SPANS + [
    ("repro.core.server", None, "encode_frame", "protocol.encode_frame",
     "protocol"),
    ("repro.core.server", "PricingServer", "_reply_blob",
     "protocol.encode_blob", "protocol"),
    ("repro.core.protocol", None, "_decode_payload",
     "protocol.decode_frame", "protocol"),
]

CLIENT_SPANS = [
    ("repro.core.client", "RemoteEvalService", "evaluate_many",
     "client.batch", "client"),
    ("repro.core.protocol", None, "encode_frame", "protocol.encode_frame",
     "protocol"),
    ("repro.core.protocol", None, "_decode_payload",
     "protocol.decode_frame", "protocol"),
]


def _resolve(module: str, owner: str | None):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


def install_spans(recorder, table) -> None:
    """Install one span wrapper per table entry."""
    batches = itertools.count(1)
    # Spans that start a request: a driver round or a client batch.
    requests = {"driver.step": lambda driver: driver.round,
                "client.batch": lambda *_: next(batches)}
    for module, owner, attr, name, layer in table:
        recorder.patch(_resolve(module, owner), attr, name, layer,
                       request=requests.get(name))
    if table is CLIENT_SPANS:
        # The client unpickles each reply's evaluation blobs itself.
        from repro.core import client
        decode = recorder.wrap(pickle.loads, "protocol.decode_blob",
                               "protocol")
        client.pickle = types.SimpleNamespace(loads=decode,
                                              dumps=pickle.dumps)


class Markers:
    """Clock reads the end-to-end metrics need, taken in the measured
    process: search ready (first driver run entered), driver run done,
    run JSON durably written, and each driver round's latency."""

    def __init__(self) -> None:
        self.ready_ns: int | None = None
        self.run_end_ns: int | None = None
        self.saved_ns: int | None = None
        self.rounds_ns: list[int] = []

    def install(self) -> None:
        import repro.cli
        from repro.core.driver import SearchDriver

        markers = self
        run, step, save = (SearchDriver.run, SearchDriver.step,
                           repro.cli.save_result)

        def timed_run(driver, *args, **kwargs):
            if markers.ready_ns is None:
                markers.ready_ns = time.perf_counter_ns()
            try:
                return run(driver, *args, **kwargs)
            finally:
                markers.run_end_ns = time.perf_counter_ns()

        def timed_step(driver):
            started = time.perf_counter_ns()
            try:
                return step(driver)
            finally:
                markers.rounds_ns.append(time.perf_counter_ns() - started)

        def timed_save(*args, **kwargs):
            try:
                return save(*args, **kwargs)
            finally:
                markers.saved_ns = time.perf_counter_ns()

        SearchDriver.run = timed_run
        SearchDriver.step = timed_step
        repro.cli.save_result = timed_save
