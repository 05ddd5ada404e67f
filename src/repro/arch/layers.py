"""Convolutional layer intermediate representation.

Every backbone in the search space (ResNet9, U-Net) lowers to a sequence of
:class:`ConvLayer` records.  The cost model consumes these records directly:
a layer is fully described by its channel counts, kernel, stride and input
resolution, from which MAC count, parameter count and tensor footprints are
derived — exactly the quantities MAESTRO ingests per layer.

Pooling is folded into strides (ResNet9 downsampling uses stride-2
convolutions) and U-Net upsampling is represented as a transposed
convolution, which for cost purposes performs ``K*C*R*S`` MACs per *output*
pixel, the same arithmetic form as a standard convolution evaluated at the
enlarged output resolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = ["ConvLayer", "conv_layer", "dense_layer"]


@dataclass(frozen=True)
class ConvLayer:
    """A single convolution (or transposed convolution / dense) layer.

    Attributes:
        name: Unique layer name within its network, e.g. ``"b1.res0"``.
        in_channels: Input channel count ``C``.
        out_channels: Output channel count ``K``.
        kernel: Square kernel size ``R`` (= ``S``).
        stride: Spatial stride; for a transposed convolution this is the
            upsampling factor instead.
        in_height: Input feature-map height ``Y``.
        in_width: Input feature-map width ``X``.
        transposed: Whether this layer is a transposed convolution
            (output resolution = input resolution * stride).
    """

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    in_height: int
    in_width: int
    transposed: bool = False

    def __post_init__(self) -> None:
        for field in ("in_channels", "out_channels", "kernel", "stride",
                      "in_height", "in_width"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"layer {self.name!r}: {field} must be a positive "
                    f"integer, got {value!r}"
                )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def out_height(self) -> int:
        """Output feature-map height ``Y'`` (same-padding convention)."""
        if self.transposed:
            return self.in_height * self.stride
        return math.ceil(self.in_height / self.stride)

    @property
    def out_width(self) -> int:
        """Output feature-map width ``X'`` (same-padding convention)."""
        if self.transposed:
            return self.in_width * self.stride
        return math.ceil(self.in_width / self.stride)

    @property
    def out_pixels(self) -> int:
        """Number of output spatial positions ``X' * Y'``."""
        return self.out_height * self.out_width

    # ------------------------------------------------------------------
    # Arithmetic and storage volumes
    # ------------------------------------------------------------------
    @property
    def macs(self) -> int:
        """Total multiply-accumulates: ``K * C * R * S * X' * Y'``."""
        return (self.out_channels * self.in_channels
                * self.kernel * self.kernel * self.out_pixels)

    @property
    def params(self) -> int:
        """Weight parameter count ``K * C * R * S`` (bias omitted)."""
        return (self.out_channels * self.in_channels
                * self.kernel * self.kernel)

    @property
    def ifmap_elems(self) -> int:
        """Input activation element count ``C * X * Y``."""
        return self.in_channels * self.in_height * self.in_width

    @property
    def ofmap_elems(self) -> int:
        """Output activation element count ``K * X' * Y'``."""
        return self.out_channels * self.out_pixels

    @property
    def weight_elems(self) -> int:
        """Weight element count (alias of :attr:`params`)."""
        return self.params

    def describe(self) -> str:
        """One-line human-readable summary used by example scripts."""
        arrow = "^" if self.transposed else ""
        return (f"{self.name}: {self.in_channels}->{self.out_channels} "
                f"k{self.kernel}s{self.stride}{arrow} "
                f"@{self.in_height}x{self.in_width}"
                f"->{self.out_height}x{self.out_width} "
                f"({self.macs / 1e6:.1f} MMACs)")


@functools.lru_cache(maxsize=65536)
def conv_layer(name: str, in_channels: int, out_channels: int, kernel: int,
               stride: int, in_height: int, in_width: int,
               transposed: bool = False) -> ConvLayer:
    """The shared :class:`ConvLayer` of one (name, geometry).

    Layers are frozen, so every network decoded with the same layer
    reuses one object instead of re-validating a new one — the search
    spaces decode thousands of networks from a few hundred distinct
    layers.  The memo lives here, not on a space, because spaces are
    pickled into checkpoints and daemon handshakes.
    """
    return ConvLayer(name, in_channels, out_channels, kernel, stride,
                     in_height, in_width, transposed)


def dense_layer(name: str, in_features: int, out_features: int) -> ConvLayer:
    """Model a fully-connected layer as a 1x1 convolution on a 1x1 map.

    A dense layer performing ``in_features * out_features`` MACs is
    arithmetically identical to a pointwise convolution over a single
    spatial position, which lets the cost model treat classifier heads
    uniformly with convolutional trunks.
    """
    return conv_layer(name, in_features, out_features, 1, 1, 1, 1)
