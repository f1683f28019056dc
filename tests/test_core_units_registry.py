"""Tests for the Unit base class and the unit registry."""

import numpy as np
import pytest

from repro.core import (
    ParamSpec,
    ParameterError,
    RegistryError,
    SampleSet,
    TaskGraph,
    Unit,
    UnitError,
    UnitRegistry,
    global_registry,
)
from repro.core.types import AnyType, Spectrum


class Doubler(Unit):
    NUM_INPUTS = 1
    NUM_OUTPUTS = 1
    INPUT_TYPES = (SampleSet,)
    OUTPUT_TYPES = (SampleSet,)
    PARAMETERS = (
        ParamSpec("factor", 2.0, "multiplier", lambda v: None),
    )

    def process(self, inputs):
        sig = inputs[0]
        return [SampleSet(data=sig.data * self.get_param("factor"),
                          sampling_rate=sig.sampling_rate)]


class TestUnitBasics:
    def test_defaults_applied(self):
        u = Doubler()
        assert u.get_param("factor") == 2.0

    def test_constructor_params(self):
        u = Doubler(factor=5.0)
        assert u.get_param("factor") == 5.0

    def test_unknown_param_rejected(self):
        with pytest.raises(ParameterError):
            Doubler(bogus=1)
        u = Doubler()
        with pytest.raises(ParameterError):
            u.set_param("bogus", 1)
        with pytest.raises(ParameterError):
            u.get_param("bogus")

    def test_validator_runs(self):
        def positive(v):
            if v <= 0:
                raise ValueError("must be positive")

        class Strict(Unit):
            PARAMETERS = (ParamSpec("n", 1, "count", positive),)

            def process(self, inputs):
                return [inputs[0]]

        with pytest.raises(ParameterError):
            Strict(n=-1)

    def test_params_copy_is_detached(self):
        u = Doubler()
        p = u.params
        p["factor"] = 99.0
        assert u.get_param("factor") == 2.0

    def test_types_at_nodes(self):
        assert Doubler.input_types_at(0) == [SampleSet]
        assert Doubler.output_types_at(0) == [SampleSet]

    def test_types_at_bad_node(self):
        with pytest.raises(UnitError):
            Doubler.input_types_at(5)
        with pytest.raises(UnitError):
            Doubler.output_types_at(1)

    def test_default_types_are_any(self):
        class Plain(Unit):
            def process(self, inputs):
                return [inputs[0]]

        assert Plain.input_types_at(0) == [AnyType]

    def test_per_node_type_lists(self):
        class TwoKinds(Unit):
            NUM_INPUTS = 2
            INPUT_TYPES = ([SampleSet], [Spectrum])

            def process(self, inputs):
                return [inputs[0]]

        assert TwoKinds.input_types_at(0) == [SampleSet]
        assert TwoKinds.input_types_at(1) == [Spectrum]

    def test_per_node_count_mismatch(self):
        class Broken(Unit):
            NUM_INPUTS = 2
            INPUT_TYPES = ([SampleSet],)

            def process(self, inputs):
                return [inputs[0]]

        with pytest.raises(UnitError):
            Broken.input_types_at(0)

    def test_process_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Unit().process([None])

    def test_default_cost_model_linear(self):
        u = Doubler()
        assert u.estimated_flops(800) == pytest.approx(100.0)
        assert u.estimated_flops(0) == 1.0


class TestRegistry:
    def test_register_and_lookup(self):
        reg = UnitRegistry()
        desc = reg.register(Doubler, category="test")
        assert desc.name == "Doubler"
        assert desc.version == "1.0"
        assert reg.lookup("Doubler").cls is Doubler
        assert "Doubler" in reg
        assert len(reg) == 1

    def test_dotted_lookup(self):
        reg = UnitRegistry()
        reg.register(Doubler)
        assert reg.lookup("triana.tools.Doubler").cls is Doubler

    def test_duplicate_rejected(self):
        reg = UnitRegistry()
        reg.register(Doubler)
        with pytest.raises(RegistryError):
            reg.register(Doubler)

    def test_non_unit_rejected(self):
        reg = UnitRegistry()
        with pytest.raises(RegistryError):
            reg.register(object)  # type: ignore[arg-type]

    def test_unknown_lookup(self):
        with pytest.raises(RegistryError):
            UnitRegistry().lookup("Nothing")

    def test_create_with_params(self):
        reg = UnitRegistry()
        reg.register(Doubler)
        u = reg.lookup("Doubler").cls(factor=7.0)
        assert u.get_param("factor") == 7.0

    def test_search_by_category_and_text(self):
        reg = global_registry()
        signal_units = reg.search(category="signal")
        assert any(d.name == "Wave" for d in signal_units)
        fft_hits = reg.search(text="fft")
        assert {d.name for d in fft_hits} >= {"FFT", "InverseFFT"}

    def test_global_registry_has_builtin_toolbox(self):
        reg = global_registry()
        for name in ("Wave", "GaussianNoise", "FFT", "PowerSpectrum", "AccumStat", "Grapher"):
            assert name in reg, name

    def test_iteration_yields_descriptors(self):
        reg = UnitRegistry()
        reg.register(Doubler)
        descs = list(reg)
        assert len(descs) == 1 and descs[0].cls is Doubler

    def test_toolbox_categories(self):
        """``repro units`` offers exactly the categories DESIGN S5 states:
        the toolbox's two and the two the farmed case-study apps register."""
        categories = {d.category for d in global_registry()}
        assert categories == {"signal", "display", "galaxy", "inspiral"}

    def test_all_units_instantiable_with_defaults(self):
        reg = global_registry()
        for desc in reg:
            unit = desc.cls()
            assert unit.params is not None

    def test_all_units_declare_consistent_nodes(self):
        reg = global_registry()
        for desc in reg:
            for node in range(desc.cls.NUM_INPUTS):
                assert desc.cls.input_types_at(node)
            for node in range(desc.cls.NUM_OUTPUTS):
                assert desc.cls.output_types_at(node)


# -- every parameter is checked when the graph is built ------------------------------
#: Parameters whose value is one of a fixed set of strings.
CHOICE_PARAMS = [
    ("Wave", "waveform"),
    ("ColumnDensity", "view"),
]


def test_every_number_and_choice_parameter_carries_a_validator():
    """A value no validator looks at is refused inside ``process``, on a
    worker mid-run, or never: ``int()`` truncates it."""
    registry = global_registry()
    choices = set(CHOICE_PARAMS)
    for unit, param in choices:
        assert param in registry.lookup(unit).cls.param_specs()
    unchecked = [
        f"{desc.name}.{spec.name}"
        for desc in registry
        for spec in desc.cls.PARAMETERS
        if spec.validator is None
        and (
            (desc.name, spec.name) in choices
            or isinstance(spec.default, (int, float))
            and not isinstance(spec.default, bool)
        )
    ]
    assert unchecked == []


class TestParametersAreCheckedAtAddTask:
    @pytest.mark.parametrize("unit,param,value", [
        ("Wave", "waveform", "triangle"),
        ("ColumnDensity", "view", "xw"),
        ("Wave", "waveform", None),
    ])
    def test_an_unknown_choice_is_refused(self, unit, param, value):
        with pytest.raises(ParameterError, match=f"'{param}': must be one of"):
            TaskGraph().add_task("t", unit, **{param: value})

    @pytest.mark.parametrize("unit,param,value", [
        ("GaussianNoise", "seed", 1.5),
        ("GaussianNoise", "seed", True),
        ("GaussianNoise", "seed", -1),
    ])
    def test_a_seed_is_a_non_negative_integer(self, unit, param, value):
        msg = f"'{param}': must be a non-negative integer"
        with pytest.raises(ParameterError, match=msg):
            TaskGraph().add_task("t", unit, **{param: value})

    @pytest.mark.parametrize("np_int", [np.int64, np.uint8])
    @pytest.mark.parametrize("unit,param", [
        ("GaussianNoise", "seed"),
        ("StrainSource", "seed"),
    ])
    def test_a_numpy_integer_builds(self, unit, param, np_int):
        TaskGraph().add_task("t", unit, **{param: np_int(3)})
