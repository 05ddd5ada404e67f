"""Dataset descriptors for the paper's three evaluation datasets.

The real datasets (CIFAR-10, STL-10, 2018 Data Science Bowl "Nuclei")
enter the co-exploration only through (a) their input geometry, which
shapes the searched networks' layers, and (b) the accuracy each
architecture can reach, which the surrogate models (see
:mod:`repro.train.surrogate`).  A descriptor captures
exactly those observable properties.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DatasetSpec", "DATASETS", "SYNTHETIC_PREFIX", "dataset_spec",
           "synthetic_dataset_spec"]

#: Dataset keys starting with this prefix denote *generated* datasets
#: (see :mod:`repro.workloads.generator`): they resolve to a synthetic
#: descriptor instead of the paper's registry.  The convention is
#: parse-based rather than a mutable registry so pool workers and fresh
#: processes resolve generated keys identically without side channels.
SYNTHETIC_PREFIX = "syn"


@dataclass(frozen=True)
class DatasetSpec:
    """Observable properties of one dataset.

    Attributes:
        key: Registry key (``cifar10`` / ``stl10`` / ``nuclei``).
        task: ``"classification"`` or ``"segmentation"``.
        input_hw: Input resolution fed to the searched networks.
        in_channels: Image channels.
        num_classes: Label count (1 for binary segmentation masks).
        metric: Name of the reported quality metric.
        metric_is_percent: Whether the metric is conventionally shown as a
            percentage (accuracy) rather than a fraction (IOU).
    """

    key: str
    task: str
    input_hw: int
    in_channels: int
    num_classes: int
    metric: str
    metric_is_percent: bool

    def format_metric(self, value: float) -> str:
        """Render a metric value the way the paper's tables do."""
        if self.metric_is_percent:
            return f"{value:.2f}%"
        return f"{value:.4f}"


DATASETS: dict[str, DatasetSpec] = {
    "cifar10": DatasetSpec(
        key="cifar10", task="classification", input_hw=32, in_channels=3,
        num_classes=10, metric="top-1 accuracy", metric_is_percent=True),
    "stl10": DatasetSpec(
        key="stl10", task="classification", input_hw=96, in_channels=3,
        num_classes=10, metric="top-1 accuracy", metric_is_percent=True),
    "nuclei": DatasetSpec(
        key="nuclei", task="segmentation", input_hw=128, in_channels=3,
        num_classes=1, metric="IOU", metric_is_percent=False),
}


def synthetic_dataset_spec(key: str) -> DatasetSpec:
    """Descriptor for a generated dataset key (``syn...``).

    ``synseg...`` keys are segmentation tasks reported as IOU fractions;
    every other ``syn...`` key is classification reported as a
    percentage — matching the surrogate calibrations the scenario
    generator emits.  Input geometry lives in the generated search
    space, not here, so the descriptor carries nominal values.
    """
    if not key.startswith(SYNTHETIC_PREFIX):
        raise ValueError(f"{key!r} is not a synthetic dataset key")
    segmentation = key.startswith(SYNTHETIC_PREFIX + "seg")
    if segmentation:
        return DatasetSpec(
            key=key, task="segmentation", input_hw=128, in_channels=3,
            num_classes=1, metric="IOU", metric_is_percent=False)
    return DatasetSpec(
        key=key, task="classification", input_hw=32, in_channels=3,
        num_classes=10, metric="top-1 accuracy", metric_is_percent=True)


def dataset_spec(key: str) -> DatasetSpec:
    """Look up a dataset descriptor by key (synthetic keys included)."""
    try:
        return DATASETS[key]
    except KeyError:
        if key.startswith(SYNTHETIC_PREFIX):
            return synthetic_dataset_spec(key)
        valid = ", ".join(sorted(DATASETS))
        raise KeyError(
            f"unknown dataset {key!r}; expected one of {valid}") from None
