"""The Unit abstraction — Triana's "tool"/"program" building block.

A unit declares typed input and output nodes, named parameters, and a
``process`` method that maps one set of input payloads to output payloads.
Units may be stateful across iterations (e.g. ``AccumStat``).

Units also carry the metadata the Consumer Grid needs:

* ``VERSION`` and ``CODE_SIZE`` — the mobility layer ships units by name
  and version and models transfer cost from the code size;
* ``estimated_flops`` — the cost model used when execution is simulated
  rather than performed (DESIGN.md §5, "two execution planes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Type

import numpy as np

from .errors import ParameterError, UnitError
from .types import AnyType, TrianaType

__all__ = ["ParamSpec", "Unit"]


# -- validators a ParamSpec can carry (shared by the toolbox and the apps) ----------
def _positive(x) -> None:
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"must be finite and positive, got {x!r}")


def _positive_int(x) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 1:
        raise ValueError(f"must be a finite positive integer, got {x!r}")


def _non_negative_int(x) -> None:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
        raise ValueError(f"must be a non-negative integer, got {x!r}")


def _one_of(*choices: str) -> Callable[[Any], None]:
    """A validator accepting exactly the strings ``choices``."""

    def check(x) -> None:
        if not isinstance(x, str) or x not in choices:
            raise ValueError(f"must be one of {' | '.join(choices)}, got {x!r}")

    return check


def _non_negative(x) -> None:
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"must be finite and >= 0, got {x!r}")


def _finite(x) -> None:
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one unit parameter.

    Parameters
    ----------
    name:
        Parameter name, unique within the unit.
    default:
        Value used when not supplied.
    doc:
        One-line description (surfaced in unit advertisements).
    validator:
        Optional callable raising ``ValueError`` on bad values.
    """

    name: str
    default: Any
    doc: str = ""
    validator: Optional[Callable[[Any], None]] = None

    def check(self, value: Any) -> None:
        if self.validator is not None:
            try:
                self.validator(value)
            except ValueError as exc:
                raise ParameterError(f"parameter {self.name!r}: {exc}") from exc


def _normalise_types(
    spec: Sequence, count: int, what: str
) -> list[list[Type[TrianaType]]]:
    """Expand a type declaration into one type-list per node."""
    if count == 0:
        return []
    if not spec:
        return [[AnyType] for _ in range(count)]
    first = spec[0]
    if isinstance(first, type):
        # Flat list of alternatives shared by every node.
        return [list(spec) for _ in range(count)]
    per_node = [list(s) for s in spec]
    if len(per_node) != count:
        raise UnitError(
            f"{what} declares {len(per_node)} node type lists but {count} nodes"
        )
    return per_node


class Unit:
    """Base class for all workflow units.

    Subclasses declare, as class attributes:

    * ``NUM_INPUTS`` / ``NUM_OUTPUTS`` — node counts;
    * ``INPUT_TYPES`` / ``OUTPUT_TYPES`` — either a flat list of accepted
      types (applied to every node) or a list of per-node lists;
    * ``PARAMETERS`` — a tuple of :class:`ParamSpec`;
    * ``VERSION`` / ``CODE_SIZE`` — mobility metadata;

    and implement :meth:`process`.
    """

    NUM_INPUTS: int = 1
    NUM_OUTPUTS: int = 1
    INPUT_TYPES: Sequence = ()
    OUTPUT_TYPES: Sequence = ()
    PARAMETERS: tuple[ParamSpec, ...] = ()
    VERSION: str = "1.0"
    CODE_SIZE: int = 20_000  # modelled bytes of executable code
    #: Host permissions this unit needs (checked by the sandbox), e.g.
    #: ``("fs.read",)`` for a file-reading unit.  Pure-compute units need none.
    REQUIRED_PERMISSIONS: tuple[str, ...] = ()
    #: Modelled working-set bytes; hosts cap deployments against their
    #: advertised RAM ("how much RAM the applications could use", §3.7).
    RAM_ESTIMATE: int = 8 * 1024 * 1024

    def __init__(self, **params: Any):
        self._params: dict[str, Any] = {}
        specs = self.param_specs()
        for spec in specs.values():
            self._params[spec.name] = spec.default
        for name, value in params.items():
            self.set_param(name, value)
        self.reset()

    # -- class-level introspection -------------------------------------------
    @classmethod
    def unit_name(cls) -> str:
        """Registry name of the unit (class name by default)."""
        return cls.__name__

    @classmethod
    def param_specs(cls) -> dict[str, ParamSpec]:
        return {spec.name: spec for spec in cls.PARAMETERS}

    @classmethod
    def input_types_at(cls, node: int) -> list[Type[TrianaType]]:
        """Accepted types of input node ``node``."""
        per_node = _normalise_types(cls.INPUT_TYPES, cls.NUM_INPUTS, cls.__name__)
        if not 0 <= node < cls.NUM_INPUTS:
            raise UnitError(f"{cls.__name__} has no input node {node}")
        return per_node[node]

    @classmethod
    def output_types_at(cls, node: int) -> list[Type[TrianaType]]:
        """Produced types of output node ``node``."""
        per_node = _normalise_types(cls.OUTPUT_TYPES, cls.NUM_OUTPUTS, cls.__name__)
        if not 0 <= node < cls.NUM_OUTPUTS:
            raise UnitError(f"{cls.__name__} has no output node {node}")
        return per_node[node]

    # -- parameters ------------------------------------------------------------
    def set_param(self, name: str, value: Any) -> None:
        specs = self.param_specs()
        if name not in specs:
            raise ParameterError(
                f"{self.unit_name()} has no parameter {name!r}; "
                f"valid: {sorted(specs)}"
            )
        specs[name].check(value)
        self._params[name] = value

    def get_param(self, name: str) -> Any:
        if name not in self._params:
            raise ParameterError(f"{self.unit_name()} has no parameter {name!r}")
        return self._params[name]

    @property
    def params(self) -> dict[str, Any]:
        """Copy of the current parameter values."""
        return dict(self._params)

    # -- lifecycle --------------------------------------------------------------
    def reset(self) -> None:
        """Clear any per-run state.

        A unit that keeps state across firings or draws randomness
        overrides this method; overriding it is what marks the unit as
        stateful.  A unit that overrides neither this nor
        :attr:`REQUIRED_PERMISSIONS` may be computed once for all the
        replicas of an input (see :func:`repro.core.engine.share`).
        """

    def process(self, inputs: Sequence[Any]) -> list[Any]:
        """Consume one payload per input node, return one per output node.

        Must be overridden, and must not modify ``inputs``.  A unit that
        keeps state, draws randomness or reads anything outside its
        inputs and parameters overrides :meth:`reset` or declares a
        :attr:`REQUIRED_PERMISSIONS` entry.  A unit that does neither is
        a pure function of its inputs and parameters, and may be
        computed once for all replicas of an input.
        """
        raise NotImplementedError(f"{self.unit_name()}.process")

    # -- cost model ----------------------------------------------------------------
    def estimated_flops(self, input_nbytes: int) -> float:
        """Modelled floating-point cost of one ``process`` call.

        The default assumes a linear pass over the input.  Units with
        super-linear kernels (FFT, matched filter, SPH scatter) override.
        """
        return max(float(input_nbytes) / 8.0, 1.0)
