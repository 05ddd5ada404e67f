"""U-Net search space for the segmentation task (Nuclei dataset).

Per §V-A / Fig. 3, the U-Net [26] backbone is searched over

- ``Height`` in ``[1, 5]`` — the number of encoder/decoder levels, and
- per-level filter counts ``FNi in <4*2^(i-1), 8*2^(i-1), 16*2^(i-1)>``,
  i.e. a base multiplier of 4, 8 or 16 that doubles with depth.

The genotype is fixed-length (``1 + max_height`` decisions) so the RNN
controller always emits the same number of tokens; filter decisions for
levels deeper than the chosen height are ignored during decoding, the
standard treatment for variable-depth spaces under an RNN controller.

Structure at height ``h`` (input ``128x128`` Nuclei crops):

- encoder level ``i`` (resolution ``128 / 2^(i-1)``): two 3x3 convolutions
  at ``FNi`` filters, then a stride-2 downsampling convolution entering
  level ``i+1``;
- bottleneck: two 3x3 convolutions at ``2 * FNh`` filters;
- decoder level ``i``: a 2x2 transposed convolution back to ``FNi``
  filters, then two 3x3 convolutions whose first input is the skip
  concatenation (``2 * FNi`` input channels);
- a final 1x1 convolution to a single mask channel.
"""

from __future__ import annotations

from repro.arch.layers import ConvLayer, conv_layer
from repro.arch.network import NetworkArch
from repro.arch.space import ArchitectureSpace, Choice

__all__ = ["UNetSpace", "nuclei_unet_space"]


class UNetSpace(ArchitectureSpace):
    """Parameterised U-Net search space.

    Args:
        dataset: Dataset key (``"nuclei"``).
        input_hw: Input resolution (height == width).
        in_channels: Input image channels.
        max_height: Maximum encoder depth (paper: 5).
        base_options: Base filter multipliers (paper: 4, 8, 16); level
            ``i`` chooses among ``base * 2^(i-1)``.
    """

    backbone = "unet"

    def __init__(
        self,
        dataset: str,
        *,
        input_hw: int = 128,
        in_channels: int = 3,
        max_height: int = 5,
        base_options: tuple[int, ...] = (4, 8, 16),
    ) -> None:
        if max_height < 1:
            raise ValueError(f"max_height must be >= 1, got {max_height}")
        if input_hw % (2 ** max_height) != 0:
            raise ValueError(
                f"input resolution {input_hw} must be divisible by "
                f"2^{max_height} for clean down/upsampling"
            )
        self.dataset = dataset
        self.input_hw = input_hw
        self.in_channels = in_channels
        self.max_height = max_height
        choices: list[Choice] = [
            Choice("height", tuple(range(1, max_height + 1)))
        ]
        for level in range(1, max_height + 1):
            scale = 2 ** (level - 1)
            choices.append(
                Choice(f"level{level}.filters",
                       tuple(base * scale for base in base_options))
            )
        self._choices = tuple(choices)

    @property
    def choices(self) -> tuple[Choice, ...]:
        return self._choices

    def decode(self, indices: tuple[int, ...]) -> NetworkArch:
        values = self.values(indices)
        height = values[0]
        filters = list(values[1:])  # per-level FNi, levels 1..max_height
        # Canonical genotype: filter choices for levels deeper than the
        # chosen height do not exist in the decoded network, so they are
        # dropped — two index vectors that differ only in unused levels
        # decode to identical networks (same identity, same accuracy).
        canonical = (height, *filters[:height])

        layers: list[ConvLayer] = []
        resolution = self.input_hw
        channels = self.in_channels
        # conv_layer(name, in, out, kernel, stride, height, width,
        # transposed); the map is square, so height == width.
        # Encoder: two convs per level, then stride-2 downsample.
        for level in range(1, height + 1):
            fn = filters[level - 1]
            hw = (resolution, resolution)
            layers.append(conv_layer(f"enc{level}.conv0", channels, fn,
                                     3, 1, *hw))
            layers.append(conv_layer(f"enc{level}.conv1", fn, fn, 3, 1,
                                     *hw))
            layers.append(conv_layer(f"enc{level}.down", fn, fn, 3, 2,
                                     *hw))
            channels = fn
            resolution //= 2
        # Bottleneck at 2x the deepest level's filters.
        bottleneck = 2 * filters[height - 1]
        hw = (resolution, resolution)
        layers.append(conv_layer("mid.conv0", channels, bottleneck, 3, 1,
                                 *hw))
        layers.append(conv_layer("mid.conv1", bottleneck, bottleneck, 3, 1,
                                 *hw))
        channels = bottleneck
        # Decoder: upsample, then two convs; first conv sees the skip
        # concatenation so its input channel count is fn (up) + fn (skip).
        for level in range(height, 0, -1):
            fn = filters[level - 1]
            layers.append(conv_layer(f"dec{level}.up", channels, fn, 2, 2,
                                     resolution, resolution, True))
            resolution *= 2
            hw = (resolution, resolution)
            layers.append(conv_layer(f"dec{level}.conv0", 2 * fn, fn, 3, 1,
                                     *hw))
            layers.append(conv_layer(f"dec{level}.conv1", fn, fn, 3, 1,
                                     *hw))
            channels = fn
        layers.append(conv_layer("head", channels, 1, 1, 1, resolution,
                                 resolution))
        return NetworkArch(
            name=f"{self.backbone}-{self.dataset}",
            backbone=self.backbone,
            dataset=self.dataset,
            genotype=canonical,
            layers=tuple(layers),
        )


def nuclei_unet_space() -> UNetSpace:
    """The Nuclei segmentation search space of §V-A / Fig. 3."""
    return UNetSpace("nuclei", input_hw=128, max_height=5,
                     base_options=(4, 8, 16))
