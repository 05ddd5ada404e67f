"""Accuracy surrogate — the substitute for GPU training.

The paper trains every sampled architecture from scratch and validates it
(§IV-③, "Training and validating").  This environment has no GPU and no
deep-learning framework, so we replace the trainer with a calibrated
analytic landscape over the *same* hyperparameter space:

``acc(g) = floor + (peak - floor) * (1 - exp(-k * s(g))) / (1 - exp(-k))``

where ``s(g) in [0, 1]`` is a capacity score over the genotype.  The law
is monotone in every capacity dimension with diminishing returns — the
property NAS landscapes empirically show and the only property the search
consumes.

For the ResNet9 spaces the score couples width and depth
*multiplicatively* per residual block::

    s = [w0 * u_stem + sum_i wf_i * u_filters(i)
                          * (c + (1 - c) * u_skips(i))] / (w0 + sum_i wf_i)

so wide blocks only pay off fully when their residual (skip) convolutions
are present.  This keeps the accuracy-maximising region of the space
aligned with the hardware-expensive region (skip convolutions dominate
MAC counts), preserving the accuracy-vs-cost tension the co-exploration
exploits — a purely additive score would let "all width, no depth"
architectures reach high accuracy almost for free, which real CIFAR
training does not.

Calibration (per dataset):

- **cifar10**: parameters least-squares fitted to the six
  architecture-accuracy pairs published in Tables I-II (smallest net
  78.93%, NAS best 94.17%, NASAIC 93.23/91.11%, single 91.45%,
  homogeneous 92.00%); all anchors reproduce to within 0.5%.
- **stl10**: anchored at the published smallest-net 71.57% and NAS-best
  76.50% with the same functional form over 5 blocks.
- **nuclei** (IOU): anchored at the published smallest-net 0.6462 and
  best 0.8394; the U-Net score is ``0.45 * u_height + 0.55 *
  mean(u_filters)`` (width at depth is already hardware-expensive for
  U-Nets, so no extra coupling is needed).

A deterministic architecture-hashed jitter, shaped to vanish at the space
extremes so the published bounds stay exact, emulates run-to-run training
variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.network import NetworkArch
from repro.arch.resnet import ResNetSpace
from repro.arch.space import ArchitectureSpace, Choice
from repro.arch.unet import UNetSpace
from repro.utils.hashing import stable_unit_float

__all__ = [
    "AccuracySurrogate",
    "SurrogateCalibration",
    "default_surrogate",
]


@dataclass(frozen=True)
class SurrogateCalibration:
    """Calibration of the accuracy law for one dataset.

    Attributes:
        floor: Accuracy of the smallest architecture in the space.
        peak: Accuracy of the largest architecture.
        curvature: Saturation rate ``k`` (> 0): larger values mean
            capacity pays off earlier.
        jitter: Half-width of the deterministic training-variance term,
            in the metric's units.
        stem_weight: Score weight of the stem width (ResNet spaces).
        block_weights: Per-residual-block score weights (ResNet spaces);
            length must match the space's block count.
        depth_coupling: The ``c`` of the width x depth coupling
            (ResNet spaces): a block at zero skips realises only ``c`` of
            its width score.
    """

    floor: float
    peak: float
    curvature: float
    jitter: float
    stem_weight: float = 0.0
    block_weights: tuple[float, ...] = ()
    depth_coupling: float = 0.45

    def __post_init__(self) -> None:
        if self.peak <= self.floor:
            raise ValueError("peak must exceed floor")
        if self.curvature <= 0:
            raise ValueError("curvature must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.depth_coupling <= 1.0:
            raise ValueError("depth_coupling must be in [0, 1]")


_DEFAULT_CALIBRATIONS: dict[str, SurrogateCalibration] = {
    # Fitted to the paper's six published CIFAR-10 anchors (see module
    # docstring); max anchor error 0.49%.
    "cifar10": SurrogateCalibration(
        floor=78.93, peak=94.30, curvature=3.5447, jitter=0.22,
        stem_weight=0.0990,
        block_weights=(0.1622, 0.3167, 0.3226),
        depth_coupling=0.45),
    # Anchored at the published 71.57% floor / 76.50% NAS best.
    "stl10": SurrogateCalibration(
        floor=71.57, peak=76.90, curvature=2.8, jitter=0.25,
        stem_weight=0.08,
        block_weights=(0.12, 0.16, 0.20, 0.22, 0.22),
        depth_coupling=0.45),
    # Anchored at the published 0.6462 floor / 0.8394 best IOU.
    "nuclei": SurrogateCalibration(
        floor=0.6462, peak=0.8460, curvature=2.1, jitter=0.0035),
}


def _normalised_level(choice: Choice, value: int) -> float:
    """Map a chosen option value to [0, 1] within its choice.

    Counts (skip layers, heights) scale linearly; filter widths scale
    logarithmically, matching the empirical accuracy-vs-width law.
    """
    lo, hi = min(choice.options), max(choice.options)
    if lo == hi:
        return 1.0
    if lo == 0:  # counts, e.g. skip layers <0,1,2>
        return value / hi
    return math.log2(value / lo) / math.log2(hi / lo)


class AccuracySurrogate:
    """Deterministic accuracy oracle over registered search spaces.

    Args:
        calibrations: Per-dataset calibration overrides; defaults to the
            paper-anchored set.
    """

    def __init__(
        self,
        calibrations: dict[str, SurrogateCalibration] | None = None,
    ) -> None:
        self._calibrations = dict(_DEFAULT_CALIBRATIONS)
        if calibrations:
            self._calibrations.update(calibrations)
        self._spaces: dict[str, ArchitectureSpace] = {}
        self._cache: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_space(self, space: ArchitectureSpace) -> None:
        """Attach the search space a dataset's networks come from.

        The space provides option ranges for normalising genotypes; it
        must be registered before evaluating networks of its dataset.
        """
        if space.dataset not in self._calibrations:
            raise KeyError(
                f"no calibration for dataset {space.dataset!r}; provide one "
                "via the calibrations argument")
        if isinstance(space, ResNetSpace):
            cal = self._calibrations[space.dataset]
            if len(cal.block_weights) != space.num_blocks:
                raise ValueError(
                    f"calibration for {space.dataset!r} has "
                    f"{len(cal.block_weights)} block weights but the space "
                    f"has {space.num_blocks} blocks")
        self._spaces[space.dataset] = space

    def calibration(self, dataset: str) -> SurrogateCalibration:
        """The calibration in effect for ``dataset``."""
        return self._calibrations[dataset]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def capacity_score(self, network: NetworkArch) -> float:
        """Capacity score ``s(g) in [0, 1]``."""
        space = self._space_for(network)
        if isinstance(space, ResNetSpace):
            return self._score_resnet(space, network)
        if isinstance(space, UNetSpace):
            return self._score_unet(space, network)
        raise TypeError(
            f"no scoring rule for space type {type(space).__name__}")

    def accuracy(self, network: NetworkArch) -> float:
        """Validation accuracy (or IOU) of ``network`` after "training"."""
        key = network.identity()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        cal = self._calibrations[network.dataset]
        score = self.capacity_score(network)
        saturating = ((1.0 - math.exp(-cal.curvature * score))
                      / (1.0 - math.exp(-cal.curvature)))
        base = cal.floor + (cal.peak - cal.floor) * saturating
        # Training-variance jitter, shaped to vanish at the extremes so
        # the published floor/peak anchors remain exact.
        noise = (stable_unit_float(key, salt="train") - 0.5) * 2.0
        value = base + noise * cal.jitter * 4.0 * score * (1.0 - score)
        self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _space_for(self, network: NetworkArch) -> ArchitectureSpace:
        space = self._spaces.get(network.dataset)
        if space is None:
            raise KeyError(
                f"no search space registered for dataset "
                f"{network.dataset!r}; call register_space first")
        if space.backbone != network.backbone:
            raise ValueError(
                f"network backbone {network.backbone!r} does not match the "
                f"registered space {space.backbone!r}")
        return space

    def _score_resnet(self, space: ResNetSpace,
                      network: NetworkArch) -> float:
        cal = self._calibrations[network.dataset]
        genotype = network.genotype
        u_stem = _normalised_level(space.choices[0], genotype[0])
        total = cal.stem_weight * u_stem
        for block in range(1, space.num_blocks + 1):
            filters_choice = space.choices[2 * block - 1]
            skips_choice = space.choices[2 * block]
            u_filters = _normalised_level(filters_choice,
                                          genotype[2 * block - 1])
            u_skips = _normalised_level(skips_choice, genotype[2 * block])
            coupling = (cal.depth_coupling
                        + (1.0 - cal.depth_coupling) * u_skips)
            total += cal.block_weights[block - 1] * u_filters * coupling
        denom = cal.stem_weight + sum(cal.block_weights)
        return total / denom

    def _score_unet(self, space: UNetSpace, network: NetworkArch) -> float:
        # Canonical U-Net genotype: (height, fn_1, ..., fn_height).
        height = network.genotype[0]
        filters = network.genotype[1:]
        if len(filters) != height:
            raise ValueError(
                f"U-Net genotype {network.genotype} is not canonical: "
                f"expected {height} filter entries")
        height_choice = space.choices[0]
        u_height = _normalised_level(height_choice, height)
        u_filters = [
            _normalised_level(space.choices[level], fn)
            for level, fn in enumerate(filters, start=1)
        ]
        mean_filters = sum(u_filters) / len(u_filters)
        return 0.45 * u_height + 0.55 * mean_filters


def default_surrogate(
    spaces: list[ArchitectureSpace] | tuple[ArchitectureSpace, ...] = (),
) -> AccuracySurrogate:
    """Build a surrogate with default calibrations and register ``spaces``."""
    surrogate = AccuracySurrogate()
    for space in spaces:
        surrogate.register_space(space)
    return surrogate
