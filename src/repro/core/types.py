"""Triana-style typed data containers.

The paper: Triana "provides a set of built-in data types that can be used
to connect different Peer services – and undertake type checking on their
connectivity".  This module defines that type system: a small hierarchy of
containers for numeric, signal, spectral, image and tabular data, plus
the compatibility relation used when wiring task graphs.

All heavy payloads are numpy arrays; containers are intentionally thin and
carry the metadata units need (sampling rates, frequency resolution...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Type

import numpy as np

__all__ = [
    "TrianaType",
    "AnyType",
    "Const",
    "VectorType",
    "SampleSet",
    "ComplexSpectrum",
    "Spectrum",
    "ImageData",
    "TableData",
    "GraphData",
    "ParticleSnapshot",
    "is_compatible",
    "TYPE_REGISTRY",
]

TYPE_REGISTRY: dict[str, Type["TrianaType"]] = {}


def _check_rate(name: str, value: float) -> None:
    """A rate or resolution is finite and positive (``nan <= 0`` is False)."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class TrianaType:
    """Base class of every payload that can travel along a connection."""

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        TYPE_REGISTRY[cls.__name__] = cls

    def payload_nbytes(self) -> int:
        """Approximate wire size — used by the network cost model."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, (bytes, str)):
                total += len(value)
            elif isinstance(value, (int, float, complex)):
                total += 8
        return max(total, 8)


class AnyType(TrianaType):
    """Wildcard: compatible with every other type.

    Units that merely forward or inspect data (e.g. probes, graphers)
    declare ``AnyType`` inputs.
    """


@dataclass
class Const(TrianaType):
    """A single scalar constant."""

    value: float = 0.0


@dataclass
class VectorType(TrianaType):
    """A bare 1-D numeric vector with no signal semantics."""

    data: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class SampleSet(TrianaType):
    """A uniformly sampled time series (the workhorse signal type).

    Attributes
    ----------
    data:
        Real samples.
    sampling_rate:
        Samples per second.
    t0:
        Timestamp of the first sample, seconds.
    """

    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sampling_rate: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 1:
            raise ValueError(f"SampleSet requires 1-D data, got shape {self.data.shape}")
        _check_rate("sampling_rate", self.sampling_rate)


@dataclass
class ComplexSpectrum(TrianaType):
    """Complex FFT output; ``df`` is the frequency resolution in Hz."""

    data: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    df: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 1:
            raise ValueError("ComplexSpectrum requires 1-D data")
        _check_rate("df", self.df)


@dataclass
class Spectrum(TrianaType):
    """A real (power or amplitude) spectrum."""

    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    df: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 1:
            raise ValueError("Spectrum requires 1-D data")
        _check_rate("df", self.df)

    def __len__(self) -> int:
        return len(self.data)

    def frequencies(self) -> np.ndarray:
        return np.arange(len(self.data)) * self.df


@dataclass
class ImageData(TrianaType):
    """A 2-D greyscale image."""

    pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ValueError(f"ImageData requires 2-D pixels, got {self.pixels.shape}")


class TableData(TrianaType):
    """A typed relational table (columns + rows) for the database scenario."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]] = ()):
        if not columns:
            raise ValueError("TableData requires at least one column")
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns}")
        self.rows: list[tuple] = []
        for row in rows:
            self.append(row)

    def append(self, row: Sequence[Any]) -> None:
        row = tuple(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row width {len(row)} != column count {len(self.columns)}"
            )
        self.rows.append(row)

    def column(self, name: str) -> list[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def payload_nbytes(self) -> int:
        return 8 * len(self.columns) * max(len(self.rows), 1)


@dataclass
class GraphData(TrianaType):
    """(x, y) series ready for display — what a Grapher consumes."""

    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    label: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ValueError(f"x/y shape mismatch: {self.x.shape} vs {self.y.shape}")


@dataclass
class ParticleSnapshot(TrianaType):
    """One time-slice of an N-body/SPH simulation (galaxy scenario).

    ``positions`` is (N, 3); ``masses`` and ``smoothing`` are (N,).
    """

    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    smoothing: np.ndarray = field(default_factory=lambda: np.zeros(0))
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        self.smoothing = np.asarray(self.smoothing, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        n = len(self.positions)
        if len(self.masses) != n or len(self.smoothing) != n:
            raise ValueError("masses/smoothing must match particle count")


def is_compatible(
    out_types: Sequence[Type[TrianaType]], in_types: Sequence[Type[TrianaType]]
) -> bool:
    """Decide whether an output node may feed an input node.

    Compatible iff either side accepts anything (:class:`AnyType`) or some
    produced type is a subclass of some accepted type.
    """
    outs = list(out_types) or [AnyType]
    ins = list(in_types) or [AnyType]
    if AnyType in outs or AnyType in ins:
        return True
    return any(issubclass(o, i) for o in outs for i in ins)
