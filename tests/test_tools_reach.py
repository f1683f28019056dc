"""tools/check_reach.py: a function no product run calls is reported.

One synthetic package under a scratch source root, one root command
that drives part of it and spawns a child interpreter that drives a
little more, and a test file that calls the rest (tests are not roots).
The probe runs once for the module: two short interpreters.
"""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_reach.py"
_spec = importlib.util.spec_from_file_location("check_reach_under_test", _TOOL)
reach = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reach
_spec.loader.exec_module(reach)

PACKAGE = '''\
import abc
import subprocess
import sys

REGISTRY = {}


def register(cls):
    REGISTRY[cls.__name__] = cls
    return cls


class Unit(abc.ABC):
    @abc.abstractmethod
    def process(self, x):
        """Compute one output."""

    def describe(self):
        """Subclasses say what they are."""
        raise NotImplementedError


@register
class Double(Unit):
    def process(self, x):
        return 2 * x


@register
class Negate(Unit):
    def process(self, x):
        return -x


class Engine:
    def run(self, unit, x):
        return unit.process(x)

    def reset(self):
        pass


def main():
    print(Engine().run(REGISTRY["Double"](), 2), gained(), on_error())
    code = "import repro.core; repro.core.in_child()"
    subprocess.run([sys.executable, "-c", code], check=True)


def in_child():
    return 1


def only_tested():
    return 2


def kept():
    return 3


def gained():
    return 4


def on_error():
    return 5
'''

TEST_FILE = '''\
from repro.core import Engine, Negate, only_tested

only_tested()
Engine().reset()
Negate().process(1)
'''

ROOTS = (("-c", "import repro.core; repro.core.main()"),)

KEPT = {
    "repro.core:kept": "a future caller",
    "repro.core:gained": "a future caller",
    "repro.core:on_error": "fault handling: a timing-dependent path",
}


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    root = tmp_path_factory.mktemp("reach")
    src = root / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "core.py").write_text(PACKAGE)
    (root / "tests").mkdir()
    (root / "tests" / "test_core.py").write_text(TEST_FILE)
    scratch = root / "scratch"
    scratch.mkdir()
    defined = reach.functions(src)
    reached, failed = reach.probe(ROOTS, src, root, scratch, timeout=60.0)
    assert failed == []
    dead = reach.unreached(defined, reached)
    return defined, dead, reach.verdict(defined, dead, KEPT)


def reported(problems, key):
    return [line for line in problems if line.startswith(key + ":")]


def test_a_function_only_a_test_calls_is_reported(probed):
    _, _, problems = probed
    assert reported(problems, "repro.core:only_tested")


def test_a_method_only_a_test_calls_is_reported(probed):
    _, _, problems = probed
    assert reported(problems, "repro.core:Engine.reset")


def test_a_registered_unit_class_only_a_test_uses_is_reported(probed):
    _, _, problems = probed
    assert reported(problems, "repro.core:Negate.process")
    assert not reported(problems, "repro.core:Double.process")


def test_a_listed_entry_that_gained_a_caller_is_reported(probed):
    _, _, problems = probed
    (line,) = reported(problems, "repro.core:gained")
    assert "calls it" in line
    assert not reported(problems, "repro.core:kept")


def test_a_fault_handling_entry_may_be_reached(probed):
    _, dead, problems = probed
    assert "repro.core:on_error" not in dead
    assert not reported(problems, "repro.core:on_error")


def test_an_abstractmethod_or_a_stub_is_not_checked(probed):
    defined, _, problems = probed
    assert "repro.core:Unit.process" not in defined
    assert "repro.core:Unit.describe" not in defined
    assert not reported(problems, "repro.core:Unit")


def test_a_function_reached_only_in_a_subprocess_is_not_reported(probed):
    _, dead, problems = probed
    assert "repro.core:in_child" not in dead
    assert not reported(problems, "repro.core:in_child")


def test_import_time_code_counts(probed):
    _, dead, _ = probed
    assert "repro.core:register" not in dead


def test_exactly_what_no_root_reached_is_reported(probed):
    _, _, problems = probed
    assert sorted(line.partition(":")[2].partition(":")[0] for line in problems) == [
        "Engine.reset", "Negate.process", "gained", "only_tested",
    ]


def test_a_listed_class_covers_its_methods():
    defined = {"m:Tally.add": ("f", 1, "add"), "m:Tally.merge": ("f", 4, "merge")}
    assert reach.verdict(defined, ["m:Tally.add", "m:Tally.merge"], {"m:Tally": "why"}) == []
    (line,) = reach.verdict(defined, ["m:Tally.add"], {"m:Tally": "why"})
    assert line.startswith("m:Tally: listed") and "calls it" in line
    (line,) = reach.verdict(defined, [], {"m:Gone": "why"})
    assert line == "m:Gone: listed in KEPT_UNREACHED but gone"
