"""Display / sink units.

The GUI screenshots in Fig. 1/2 show a ``Grapher`` rendering its input.
Headless reproduction: the Grapher is a sink unit that retains every frame
it is shown as :class:`~repro.core.types.GraphData`; tests and benchmarks
read the frames back instead of looking at pixels.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..errors import UnitError
from ..registry import register_unit
from ..types import (
    AnyType,
    ComplexSpectrum,
    Const,
    GraphData,
    SampleSet,
    Spectrum,
    VectorType,
)
from ..units import ParamSpec, Unit

__all__ = ["Grapher", "ScopeProbe"]


def _to_graph_data(value: Any) -> GraphData:
    """Render any displayable payload into an (x, y) series."""
    if isinstance(value, GraphData):
        return value
    if isinstance(value, SampleSet):
        return GraphData(x=value.times(), y=value.data, label="samples")
    if isinstance(value, Spectrum):
        return GraphData(x=value.frequencies(), y=value.data, label="spectrum")
    if isinstance(value, ComplexSpectrum):
        return GraphData(
            x=value.frequencies(), y=np.abs(value.data), label="magnitude"
        )
    if isinstance(value, VectorType):
        return GraphData(x=np.arange(len(value.data), dtype=float), y=value.data)
    if isinstance(value, Const):
        return GraphData(x=np.zeros(1), y=np.array([value.value]))
    raise UnitError(f"Grapher cannot display {type(value).__name__}")


@register_unit(category="display")
class Grapher(Unit):
    """Terminal sink: records every frame displayed (Fig. 1's output unit)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (AnyType,)
    PARAMETERS = (ParamSpec("title", "", "display title"),)

    def reset(self) -> None:
        self.frames: list[GraphData] = []

    def checkpoint(self) -> dict[str, Any]:
        return {
            "frames": [
                {"x": f.x.tolist(), "y": f.y.tolist(), "label": f.label}
                for f in self.frames
            ]
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.frames = [
            GraphData(x=np.asarray(f["x"]), y=np.asarray(f["y"]), label=f["label"])
            for f in state.get("frames", [])
        ]

    @property
    def last_frame(self) -> GraphData:
        if not self.frames:
            raise UnitError("Grapher has displayed nothing")
        return self.frames[-1]

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        self.frames.append(_to_graph_data(inputs[0]))
        return []


@register_unit(category="display")
class ScopeProbe(Unit):
    """Pass-through observer: forwards input unchanged, keeps a copy."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (AnyType,)
    OUTPUT_TYPES = (AnyType,)

    def reset(self) -> None:
        self.seen: list[Any] = []

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        self.seen.append(inputs[0])
        return [inputs[0]]
