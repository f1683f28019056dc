"""Display / sink units.

The GUI screenshots in Fig. 1/2 show a ``Grapher`` rendering its input.
Headless reproduction: the Grapher is a sink unit that keeps every
payload it is shown, in ``shown``, instead of drawing pixels.  It holds a
reference, not a copy: the caller already holds each payload.
"""

from __future__ import annotations

from typing import Any, Sequence

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


# The payload types a Grapher can display.
_DISPLAYABLE = (GraphData, SampleSet, Spectrum, ComplexSpectrum, VectorType, Const)


@register_unit(category="display")
class Grapher(Unit):
    """Terminal sink: keeps every payload displayed, in order, in
    ``shown`` (Fig. 1's output unit)."""

    NUM_INPUTS = 1
    NUM_OUTPUTS = 0
    INPUT_TYPES = (AnyType,)
    PARAMETERS = (ParamSpec("title", "", "display title"),)

    def reset(self) -> None:
        self.shown: list[Any] = []

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        value = inputs[0]
        if not isinstance(value, _DISPLAYABLE):
            raise UnitError(f"Grapher cannot display {type(value).__name__}")
        self.shown.append(value)
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
