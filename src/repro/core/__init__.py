"""Workflow core (systems S4+S5): the Triana-engine reproduction.

Quick tour::

    from repro.core import TaskGraph, LocalEngine

    g = TaskGraph("demo")
    g.add_task("Wave", "Wave", frequency=64.0)
    g.add_task("Noise", "GaussianNoise", sigma=2.0)
    g.add_task("Grapher", "Grapher")
    g.connect("Wave", 0, "Noise", 0)
    g.connect("Noise", 0, "Grapher", 0)
    LocalEngine(g).run(iterations=20)

Importing :mod:`repro.core` loads the built-in toolbox, so registry names
like ``"Wave"`` resolve immediately.
"""

from . import toolbox  # noqa: F401  (registers built-in units)
from .engine import LocalEngine, Probe, RunStats
from .errors import (
    GraphError,
    ParameterError,
    RegistryError,
    SerializationError,
    TypeMismatchError,
    UnitError,
    WorkflowError,
)
from .registry import UnitDescriptor, UnitRegistry, global_registry, register_unit
from .taskgraph import (
    GROUP_POLICIES,
    Connection,
    GroupTask,
    Task,
    TaskGraph,
    register_policy_name,
)
from .types import (
    AnyType,
    ComplexSpectrum,
    Const,
    GraphData,
    ImageData,
    ParticleSnapshot,
    SampleSet,
    Spectrum,
    TableData,
    TrianaType,
    VectorType,
    is_compatible,
)
from .units import ParamSpec, Unit
from .xml_io import (
    graph_from_string,
    graph_from_xml,
    graph_to_string,
    graph_to_xml,
    unit_names_in_xml,
)

__all__ = [
    "AnyType",
    "ComplexSpectrum",
    "Connection",
    "Const",
    "GROUP_POLICIES",
    "GraphData",
    "GraphError",
    "GroupTask",
    "ImageData",
    "LocalEngine",
    "ParamSpec",
    "ParameterError",
    "ParticleSnapshot",
    "Probe",
    "RegistryError",
    "RunStats",
    "SampleSet",
    "SerializationError",
    "Spectrum",
    "TableData",
    "Task",
    "TaskGraph",
    "TrianaType",
    "TypeMismatchError",
    "Unit",
    "UnitDescriptor",
    "UnitError",
    "UnitRegistry",
    "VectorType",
    "WorkflowError",
    "global_registry",
    "graph_from_string",
    "graph_from_xml",
    "graph_to_string",
    "graph_to_xml",
    "is_compatible",
    "register_policy_name",
    "unit_names_in_xml",
    "register_unit",
    "toolbox",
]
