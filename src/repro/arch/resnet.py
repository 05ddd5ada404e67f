"""ResNet9-family search space for the classification tasks.

The paper (Fig. 1, §V-A) uses ResNet9 [20] as the classification backbone:

- a stem convolution with ``FN0`` filters (Table II calls it "a standard
  conv instead of residual"),
- ``num_blocks`` residual blocks, block ``i`` having a stride-2 transition
  convolution to ``FNi`` filters followed by ``SKi`` residual ("skip")
  3x3 convolutions at ``FNi`` filters,
- global average pooling and a dense classifier.

CIFAR-10 uses 3 residual blocks with ``FNi in <32,64,128,256>`` and
``SKi in <0,1,2>``; STL-10 (96x96 inputs) deepens to 5 blocks, raises the
per-block maximum convolution count to 3 and the maximum filter count to
512 (§V-A).  The genotype display order matches Table II:
``<FN0, FN1, SK1, FN2, SK2, ..., FNn, SKn>``.
"""

from __future__ import annotations

from repro.arch.layers import ConvLayer, conv_layer, dense_layer
from repro.arch.network import NetworkArch
from repro.arch.space import ArchitectureSpace, Choice

__all__ = ["ResNetSpace", "cifar10_resnet_space", "stl10_resnet_space"]


class ResNetSpace(ArchitectureSpace):
    """Parameterised ResNet9-style search space.

    Args:
        dataset: Dataset key (``"cifar10"`` or ``"stl10"``).
        input_hw: Input resolution (height == width).
        in_channels: Input image channels.
        num_classes: Classifier width.
        num_blocks: Residual block count.
        stem_options: Candidate ``FN0`` values.
        filter_options: Candidate ``FNi`` values for residual blocks.
        skip_options: Candidate ``SKi`` values (residual convs per block).
    """

    backbone = "resnet9"

    def __init__(
        self,
        dataset: str,
        *,
        input_hw: int,
        in_channels: int = 3,
        num_classes: int = 10,
        num_blocks: int = 3,
        stem_options: tuple[int, ...] = (8, 16, 32, 64),
        filter_options: tuple[int, ...] = (32, 64, 128, 256),
        skip_options: tuple[int, ...] = (0, 1, 2),
    ) -> None:
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if input_hw < 2 ** num_blocks:
            raise ValueError(
                f"input resolution {input_hw} too small for {num_blocks} "
                "stride-2 blocks"
            )
        self.dataset = dataset
        self.input_hw = input_hw
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.num_blocks = num_blocks
        choices: list[Choice] = [Choice("stem.filters", tuple(stem_options))]
        for block in range(1, num_blocks + 1):
            choices.append(Choice(f"block{block}.filters",
                                  tuple(filter_options)))
            choices.append(Choice(f"block{block}.skips", tuple(skip_options)))
        self._choices = tuple(choices)

    @property
    def choices(self) -> tuple[Choice, ...]:
        return self._choices

    def decode(self, indices: tuple[int, ...]) -> NetworkArch:
        values = self.values(indices)
        stem_filters = values[0]
        # conv_layer(name, in, out, kernel, stride, height, width).
        layers: list[ConvLayer] = [
            conv_layer("stem", self.in_channels, stem_filters, 3, 1,
                       self.input_hw, self.input_hw)
        ]
        resolution = self.input_hw
        channels = stem_filters
        for block in range(1, self.num_blocks + 1):
            filters = values[2 * block - 1]
            skips = values[2 * block]
            layers.append(conv_layer(f"b{block}.down", channels, filters,
                                     3, 2, resolution, resolution))
            resolution = layers[-1].out_height
            channels = filters
            for skip in range(skips):
                layers.append(conv_layer(f"b{block}.res{skip}", channels,
                                         channels, 3, 1, resolution,
                                         resolution))
        layers.append(dense_layer("classifier", channels, self.num_classes))
        return NetworkArch(
            name=f"{self.backbone}-{self.dataset}",
            backbone=self.backbone,
            dataset=self.dataset,
            genotype=values,
            layers=tuple(layers),
        )


def cifar10_resnet_space() -> ResNetSpace:
    """The CIFAR-10 search space of Fig. 1 / §V-A (3 residual blocks)."""
    return ResNetSpace(
        "cifar10",
        input_hw=32,
        num_classes=10,
        num_blocks=3,
        stem_options=(8, 16, 32, 64),
        filter_options=(32, 64, 128, 256),
        skip_options=(0, 1, 2),
    )


def stl10_resnet_space() -> ResNetSpace:
    """The STL-10 search space of §V-A.

    96x96 inputs, 5 residual blocks, up to 3 convolutions per block and up
    to 512 filters per block.
    """
    return ResNetSpace(
        "stl10",
        input_hw=96,
        num_classes=10,
        num_blocks=5,
        stem_options=(16, 32, 64),
        filter_options=(64, 128, 256, 512),
        skip_options=(0, 1, 2, 3),
    )
