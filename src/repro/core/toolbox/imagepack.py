"""Image units — Triana manipulates "image ... data" too.

The galaxy scenario's column-density frames flow through these as
:class:`~repro.core.types.ImageData`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..registry import register_unit
from ..types import ImageData
from ..units import ParamSpec, Unit, _one_of, _positive_int

__all__ = [
    "TestImage",
    "BoxBlur",
    "SobelEdges",
]


@register_unit(category="image")
class TestImage(Unit):
    """Synthetic test pattern source (gradient + gaussian blob)."""

    __test__ = False  # not a pytest test class despite the name

    NUM_INPUTS = 0
    NUM_OUTPUTS = 1
    OUTPUT_TYPES = (ImageData,)
    PARAMETERS = (
        ParamSpec("size", 64, "image side length in pixels", _positive_int),
        ParamSpec(
            "pattern", "blob", "blob | gradient | checker",
            _one_of("blob", "gradient", "checker"),
        ),
    )

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        n = int(self.get_param("size"))
        kind = self.get_param("pattern")
        yy, xx = np.mgrid[0:n, 0:n]
        if kind == "blob":
            c = (n - 1) / 2.0
            pixels = np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (2 * (n / 6.0) ** 2))
        elif kind == "gradient":
            pixels = xx / max(n - 1, 1)
        else:  # checker
            pixels = ((xx // 8 + yy // 8) % 2).astype(float)
        return [ImageData(pixels=pixels)]


@register_unit(category="image")
class BoxBlur(Unit):
    """Mean filter with a (2r+1)² box, edge-clamped."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ImageData,)
    OUTPUT_TYPES = (ImageData,)
    PARAMETERS = (ParamSpec("radius", 1, "box radius in pixels", _positive_int),)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        img = inputs[0].pixels
        r = int(self.get_param("radius"))
        padded = np.pad(img, r, mode="edge")
        # Summed-area table gives O(1) box sums per pixel.
        sat = padded.cumsum(0).cumsum(1)
        sat = np.pad(sat, ((1, 0), (1, 0)))
        k = 2 * r + 1
        h, w = img.shape
        total = (
            sat[k : k + h, k : k + w]
            - sat[0:h, k : k + w]
            - sat[k : k + h, 0:w]
            + sat[0:h, 0:w]
        )
        return [ImageData(pixels=total / (k * k))]

    def estimated_flops(self, input_nbytes: int) -> float:
        return 10.0 * input_nbytes / 8.0


@register_unit(category="image")
class SobelEdges(Unit):
    """Gradient magnitude via 3×3 Sobel kernels."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (ImageData,)
    OUTPUT_TYPES = (ImageData,)

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        img = np.pad(inputs[0].pixels, 1, mode="edge")
        gx = (
            img[:-2, 2:] + 2 * img[1:-1, 2:] + img[2:, 2:]
            - img[:-2, :-2] - 2 * img[1:-1, :-2] - img[2:, :-2]
        )
        gy = (
            img[2:, :-2] + 2 * img[2:, 1:-1] + img[2:, 2:]
            - img[:-2, :-2] - 2 * img[:-2, 1:-1] - img[:-2, 2:]
        )
        return [ImageData(pixels=np.hypot(gx, gy))]

    def estimated_flops(self, input_nbytes: int) -> float:
        return 20.0 * input_nbytes / 8.0
