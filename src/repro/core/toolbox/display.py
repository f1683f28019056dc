"""Display / sink units.

The GUI screenshots in Fig. 1/2 show a ``Grapher`` rendering its input.
Headless reproduction: the Grapher is a sink unit that retains every
payload it is shown and renders it as :class:`~repro.core.types.GraphData`
when a frame is read (``frames``, ``last_frame``, ``checkpoint``); tests
and benchmarks read the frames back instead of looking at pixels.  It
holds a reference, not a rendering: the caller already holds each payload,
so a frame costs the Grapher no array of its own (a ``SampleSet``'s time
axis is as large as its samples).
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


# The payload types _to_graph_data renders.
_DISPLAYABLE = (GraphData, SampleSet, Spectrum, ComplexSpectrum, VectorType, Const)


@register_unit(category="display")
class Grapher(Unit):
    """Terminal sink: keeps every payload displayed (Fig. 1's output unit)
    and renders each as a frame when the frames are read."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (AnyType,)
    PARAMETERS = (ParamSpec("title", "", "display title"),)

    def reset(self) -> None:
        self._shown: list[Any] = []

    @property
    def frames(self) -> list[GraphData]:
        return [_to_graph_data(value) for value in self._shown]

    def checkpoint(self) -> dict[str, Any]:
        return {
            "frames": [
                {"x": f.x.tolist(), "y": f.y.tolist(), "label": f.label}
                for f in self.frames
            ]
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._shown = [
            GraphData(x=np.asarray(f["x"]), y=np.asarray(f["y"]), label=f["label"])
            for f in state.get("frames", [])
        ]

    @property
    def last_frame(self) -> GraphData:
        if not self._shown:
            raise UnitError("Grapher has displayed nothing")
        return _to_graph_data(self._shown[-1])

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        value = inputs[0]
        if not isinstance(value, _DISPLAYABLE):
            raise UnitError(f"Grapher cannot display {type(value).__name__}")
        self._shown.append(value)
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
