"""The explicit wire and store codec: content keys and evaluations.

The served and persisted tiers hold to bit-identity, so the codec must
round-trip every key and every evaluation exactly — across the whole
generated corpus (``stress`` shapes included) and on hand-made edge
values (infeasible results, empty trajectories, ``-0.0``, infinities,
NaN) — and must refuse, never misread, any blob that is not exactly one
encoded value.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    accelerator_from_key,
    decode_evaluation,
    decode_key,
    encode_evaluation,
    encode_key,
)
from repro.core.evaluator import Evaluator, HardwareEvaluation
from repro.core.evalservice import design_content, rebuild_design
from repro.cost import CostModel
from repro.mapping.hap import HAPResult
from repro.utils.rng import new_rng
from repro.workloads import w1
from repro.workloads.generator import SIZE_CLASSES, generate_spec

from suite_helpers import sample_design_pairs


def float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def evaluation_bits(evaluation: HardwareEvaluation) -> tuple:
    """Every field of an evaluation, floats as their IEEE bytes — equal
    tuples mean bit-identical evaluations (NaN included)."""
    hap = evaluation.hap
    return (evaluation.accelerator, evaluation.latency_cycles,
            float_bits(evaluation.energy_nj),
            float_bits(evaluation.area_um2),
            float_bits(evaluation.penalty), evaluation.feasible,
            evaluation.violations, hap.assignment, hap.makespan,
            float_bits(hap.energy_nj), hap.feasible,
            hap.latency_constraint,
            tuple(float_bits(e) for e in hap.refinement_energies))


def assert_round_trips(evaluation: HardwareEvaluation) -> None:
    blob = encode_evaluation(evaluation)
    decoded = decode_evaluation(blob, evaluation.accelerator)
    assert evaluation_bits(decoded) == evaluation_bits(evaluation)
    if not any(math.isnan(v) for v in (
            evaluation.energy_nj, evaluation.area_um2, evaluation.penalty,
            evaluation.hap.energy_nj, *evaluation.hap.refinement_energies)):
        assert decoded == evaluation


@pytest.fixture(scope="module")
def w1_evaluation():
    workload = w1()
    (pair,) = sample_design_pairs(workload, n=1, seed=4)
    evaluator = Evaluator(workload, CostModel(), trainer=None)
    return pair, evaluator.evaluate_hardware(*pair)


class TestCorpusRoundTrip:
    @pytest.mark.parametrize("size_class", SIZE_CLASSES)
    @pytest.mark.parametrize("seed", range(3))
    def test_keys_and_evaluations_round_trip(self, size_class, seed):
        """Every size class of the generated corpus, ``stress`` (the
        widest fields) included."""
        scenario = generate_spec(seed, size_class).materialize()
        pairs = scenario.sample_pairs(new_rng(seed),
                                      scenario.spec.design_samples)
        evaluator = Evaluator(scenario.workload,
                              CostModel(scenario.cost_params),
                              trainer=None, rho=scenario.rho)
        for pair, evaluation in zip(
                pairs, evaluator.evaluate_hardware_many(pairs)):
            key = design_content(*pair)
            assert decode_key(encode_key(key)) == key
            assert accelerator_from_key(key) == pair[1]
            assert rebuild_design(scenario.workload, key) == pair
            assert_round_trips(evaluation)


class TestEdgeValues:
    def test_infeasible_result_with_violations(self, w1_evaluation):
        _pair, evaluation = w1_evaluation
        infeasible = dataclasses.replace(
            evaluation, feasible=False,
            violations=("latency", "energy", "area"),
            hap=dataclasses.replace(evaluation.hap, feasible=False))
        assert_round_trips(infeasible)

    def test_empty_trajectory_and_violations(self, w1_evaluation):
        _pair, evaluation = w1_evaluation
        bare = dataclasses.replace(
            evaluation, feasible=True, violations=(),
            hap=dataclasses.replace(evaluation.hap, refinement_energies=(),
                                    feasible=True))
        assert_round_trips(bare)

    @pytest.mark.parametrize("value", [-0.0, math.inf, -math.inf, math.nan,
                                       5e-324, 1.7976931348623157e308])
    def test_special_floats_keep_their_bits(self, w1_evaluation, value):
        _pair, evaluation = w1_evaluation
        odd = dataclasses.replace(
            evaluation, energy_nj=value, area_um2=value, penalty=value,
            hap=dataclasses.replace(
                evaluation.hap, energy_nj=value,
                refinement_energies=(value, 1.0, value)))
        assert_round_trips(odd)

    def test_nan_payload_survives(self, w1_evaluation):
        _pair, evaluation = w1_evaluation
        (payload,) = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")
        odd = dataclasses.replace(evaluation, penalty=payload)
        blob = encode_evaluation(odd)
        decoded = decode_evaluation(blob, odd.accelerator)
        assert float_bits(decoded.penalty) == float_bits(payload)

    @settings(max_examples=60, deadline=None)
    @given(latency=st.integers(-2 ** 63, 2 ** 63 - 1),
           floats=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=4, max_size=4),
           energies=st.lists(st.floats(allow_nan=True,
                                       allow_infinity=True), max_size=8),
           assignment=st.lists(st.integers(0, 255), max_size=64),
           flags=st.tuples(st.booleans(), st.booleans()),
           violations=st.lists(st.text(max_size=12), max_size=3))
    def test_arbitrary_fields_round_trip(self, w1_evaluation, latency,
                                         floats, energies, assignment,
                                         flags, violations):
        _pair, evaluation = w1_evaluation
        made = HardwareEvaluation(
            accelerator=evaluation.accelerator, latency_cycles=latency,
            energy_nj=floats[0], area_um2=floats[1], penalty=floats[2],
            feasible=flags[0], violations=tuple(violations),
            hap=HAPResult(assignment=tuple(assignment), makespan=latency,
                          energy_nj=floats[3], feasible=flags[1],
                          latency_constraint=-latency - 1,
                          refinement_energies=tuple(energies)))
        assert_round_trips(made)


class TestStrictDecoding:
    def test_every_truncation_and_a_trailing_byte_raise(self,
                                                        w1_evaluation):
        pair, evaluation = w1_evaluation
        for blob, decode in (
                (encode_key(design_content(*pair)), decode_key),
                (encode_evaluation(evaluation),
                 lambda b: decode_evaluation(b, evaluation.accelerator))):
            for cut in range(len(blob)):
                with pytest.raises(ValueError):
                    decode(blob[:cut])
            with pytest.raises(ValueError, match="trailing"):
                decode(blob + b"\x00")
            decode(blob)  # the intact blob still decodes

    def test_wrong_version_and_flags_are_refused(self, w1_evaluation):
        pair, evaluation = w1_evaluation
        key_blob = encode_key(design_content(*pair))
        with pytest.raises(ValueError, match="version"):
            decode_key(b"\x09" + key_blob[1:])
        blob = encode_evaluation(evaluation)
        with pytest.raises(ValueError, match="version"):
            decode_evaluation(b"\x09" + blob[1:], evaluation.accelerator)
        flags_at = struct.calcsize("<Bqddd")
        bad = blob[:flags_at] + b"\x04" + blob[flags_at + 1:]
        with pytest.raises(ValueError, match="flags"):
            decode_evaluation(bad, evaluation.accelerator)

    def test_non_bytes_are_refused(self):
        for junk in (None, 3, "text", [1, 2], ("k",)):
            with pytest.raises(ValueError, match="bytes"):
                decode_key(junk)

    def test_fields_outside_their_width_are_refused(self, w1_evaluation):
        pair, evaluation = w1_evaluation
        networks_key, slots, budget = design_content(*pair)
        with pytest.raises(ValueError):
            encode_key((networks_key, slots, (-1, 64)))
        with pytest.raises(ValueError):
            encode_key((networks_key, slots, (2 ** 32, 64)))
        wide = dataclasses.replace(
            evaluation, hap=dataclasses.replace(evaluation.hap,
                                                assignment=(0, 256)))
        with pytest.raises(ValueError):
            encode_evaluation(wide)


class TestRebuildDesign:
    def test_genotype_outside_the_space_is_refused(self, w1_evaluation):
        pair, _evaluation = w1_evaluation
        (backbone, dataset, genotype), *rest = design_content(*pair)[0]
        _identities, slots, budget = design_content(*pair)
        bad = (((backbone, dataset, (3,) + genotype[1:]), *rest),
               slots, budget)
        with pytest.raises(ValueError):
            rebuild_design(w1(), bad)

    def test_backbone_or_dataset_mismatch_is_refused(self, w1_evaluation):
        pair, _evaluation = w1_evaluation
        identities, slots, budget = design_content(*pair)
        (backbone, dataset, genotype), *rest = identities
        for swapped in (("unet", dataset), (backbone, "stl10")):
            bad = ((swapped + (genotype,), *rest), slots, budget)
            with pytest.raises(ValueError, match="task"):
                rebuild_design(w1(), bad)

    def test_non_canonical_genotype_is_refused(self):
        """A U-Net genotype padded with its unused levels decodes to the
        canonical network, whose content is not the submitted key."""
        workload = w1()
        index = next(i for i, task in enumerate(workload.tasks)
                     if task.space.backbone == "unet")
        space = workload.tasks[index].space
        for seed in range(50):
            (pair,) = sample_design_pairs(workload, n=1, seed=seed)
            identities, slots, budget = design_content(*pair)
            backbone, dataset, genotype = identities[index]
            padded = space.values(space.genotype_indices(genotype))
            if len(padded) > len(genotype):
                break
        else:
            pytest.fail("no sampled U-Net below its full height")
        bad_identities = list(identities)
        bad_identities[index] = (backbone, dataset, padded)
        with pytest.raises(ValueError, match="content"):
            rebuild_design(workload, (tuple(bad_identities), slots, budget))
