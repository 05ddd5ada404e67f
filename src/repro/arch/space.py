"""Architecture search-space abstraction.

A search space exposes a fixed-length sequence of categorical
:class:`Choice` decisions — the interface the NASAIC controller (one RNN
*segment* per DNN, Fig. 5 of the paper) needs: it emits one option index
per choice, and :meth:`ArchitectureSpace.decode` turns that index vector
into a concrete :class:`~repro.arch.network.NetworkArch`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.arch.network import NetworkArch

__all__ = ["ArchitectureSpace", "Choice"]


@dataclass(frozen=True)
class Choice:
    """One categorical hyperparameter decision.

    Attributes:
        name: Decision name, e.g. ``"block1.filters"``.
        options: The concrete values the controller chooses among, in the
            order of the controller's softmax outputs.
    """

    name: str
    options: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.options) < 1:
            raise ValueError(f"choice {self.name!r} has no options")
        if len(set(self.options)) != len(self.options):
            raise ValueError(f"choice {self.name!r} has duplicate options")

    @property
    def num_options(self) -> int:
        return len(self.options)

    def value(self, index: int) -> int:
        """Return the option value at ``index`` with bounds checking."""
        if not 0 <= index < len(self.options):
            raise IndexError(
                f"choice {self.name!r}: index {index} out of range "
                f"[0, {len(self.options)})"
            )
        return self.options[index]

    def index_of(self, value: int) -> int:
        """Inverse of :meth:`value`."""
        try:
            return self.options.index(value)
        except ValueError:
            raise ValueError(
                f"choice {self.name!r}: {value} is not one of {self.options}"
            ) from None


class ArchitectureSpace(abc.ABC):
    """Base class for backbone search spaces (ResNet9, U-Net).

    Subclasses define :attr:`choices` and implement :meth:`decode`.
    A *genotype index vector* is a tuple of option indices, one per choice;
    a *genotype* (as displayed in the paper's Table II) is the tuple of the
    corresponding option values.
    """

    #: Backbone family name.
    backbone: str
    #: Dataset key this instance of the space targets.
    dataset: str

    @property
    @abc.abstractmethod
    def choices(self) -> tuple[Choice, ...]:
        """The fixed-length decision sequence for the controller."""

    @abc.abstractmethod
    def decode(self, indices: tuple[int, ...]) -> NetworkArch:
        """Decode a genotype index vector into a concrete network."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def validate_indices(self, indices: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless ``indices`` is a valid genotype."""
        if len(indices) != len(self.choices):
            raise ValueError(
                f"{self.backbone} space expects {len(self.choices)} "
                f"decisions, got {len(indices)}"
            )
        for choice, index in zip(self.choices, indices):
            choice.value(index)  # raises IndexError on violation

    def values(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        """Map a genotype index vector to its option values."""
        self.validate_indices(indices)
        return tuple(c.value(i) for c, i in zip(self.choices, indices))

    def indices_of(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """Inverse of :meth:`values`."""
        if len(values) != len(self.choices):
            raise ValueError(
                f"{self.backbone} space expects {len(self.choices)} values, "
                f"got {len(values)}"
            )
        return tuple(c.index_of(v) for c, v in zip(self.choices, values))

    def genotype_indices(self, genotype: tuple[int, ...]
                         ) -> tuple[int, ...]:
        """Index vector that decodes to a network with ``genotype``.

        Inverse of the ``genotype`` a decoded network carries.  A
        canonical genotype may be shorter than the choice list (U-Net
        drops the filter choices of levels deeper than its height); the
        missing trailing choices take their first option, and any
        padding decodes to the same network.

        Raises:
            ValueError: If ``genotype`` is longer than the choice list
                or holds a value outside its choice.
        """
        choices = self.choices
        if len(genotype) > len(choices):
            raise ValueError(
                f"{self.backbone} space has {len(choices)} decisions, "
                f"genotype has {len(genotype)} values")
        return self.indices_of(tuple(genotype) + tuple(
            choice.options[0] for choice in choices[len(genotype):]))

    def smallest_indices(self) -> tuple[int, ...]:
        """Genotype of the smallest network (per-choice minimum value).

        Used for the paper's Fig. 6 accuracy *lower bounds* ("lower bounds
        by the smallest architectures").
        """
        return tuple(
            min(range(c.num_options), key=lambda i: c.options[i])
            for c in self.choices
        )

    def largest_indices(self) -> tuple[int, ...]:
        """Genotype of the largest network (per-choice maximum value)."""
        return tuple(
            max(range(c.num_options), key=lambda i: c.options[i])
            for c in self.choices
        )

    def random_indices(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Sample a uniform random genotype index vector."""
        return tuple(int(rng.integers(c.num_options)) for c in self.choices)

    def cardinality(self) -> int:
        """Total number of genotypes in the space."""
        return math.prod(c.num_options for c in self.choices)

    def enumerate_indices(self):
        """Yield every genotype index vector (small spaces only)."""
        def rec(prefix: tuple[int, ...], rest: tuple[Choice, ...]):
            if not rest:
                yield prefix
                return
            for i in range(rest[0].num_options):
                yield from rec(prefix + (i,), rest[1:])

        yield from rec((), self.choices)
