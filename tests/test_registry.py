"""The generic ``Registry`` contract, held by all four of its users.

Units, distribution policies, farm dispatch policies and transport
backends share one implementation of register-once / lookup-or-list /
``names()`` / iteration (:class:`repro.registry.Registry`); each keeps
its own error type, and all four are held to one parametrised contract.
"""

import pytest

from repro.core.errors import RegistryError
from repro.core.registry import UnitRegistry, register_unit
from repro.core.units import Unit
from repro.p2p.network import SimNetwork
from repro.registry import Registry
from repro.service import placement
from repro.service.errors import SchedulingError
from repro.service.policies import (
    ParallelFarmPolicy,
    PipelinePolicy,
    PolicyRegistry,
    register_policy,
)
from repro.transport import TRANSPORTS


class Zeta(Unit):
    pass


class Alpha(Unit):
    pass


def _units():
    registry = UnitRegistry()
    registry.register(Zeta)
    registry.register(Alpha)
    return registry, RegistryError, lambda: registry.register(Alpha)


def _policies():
    registry = PolicyRegistry()
    registry.register(PipelinePolicy)
    registry.register(ParallelFarmPolicy)
    return registry, SchedulingError, lambda: registry.register(PipelinePolicy)


def _dispatch():
    return (
        placement._DISPATCH_POLICIES,
        SchedulingError,
        lambda: placement.register_dispatch_policy("weighted", placement.WeightedBySpeed),
    )


def _transports():
    return TRANSPORTS, ValueError, lambda: TRANSPORTS.add("sim", SimNetwork)


@pytest.fixture(params=[_units, _policies, _dispatch, _transports],
                ids=["units", "policies", "dispatch", "transports"])
def case(request):
    return request.param()


class TestRegistryContract:
    def test_is_the_one_implementation(self, case):
        registry, _, _ = case
        assert isinstance(registry, Registry)
        for method in ("add", "lookup", "names", "unregister",
                       "__iter__", "__len__", "__contains__"):
            assert getattr(type(registry), method) is getattr(Registry, method)

    def test_duplicate_name_raises_own_error_type(self, case):
        registry, error, register_again = case
        before = registry.names()
        with pytest.raises(error, match="already registered"):
            register_again()
        assert registry.names() == before

    def test_unknown_name_lists_the_registered_names(self, case):
        registry, error, _ = case
        with pytest.raises(error) as excinfo:
            registry.lookup("no-such-entry")
        message = str(excinfo.value)
        assert "no-such-entry" in message
        assert all(name in message for name in registry.names())

    def test_names_sorted_and_views_agree(self, case):
        registry, _, _ = case
        names = registry.names()
        assert len(names) >= 2 and names == sorted(names)
        assert len(registry) == len(names) == len(list(registry))
        assert all(name in registry for name in names)
        assert "no-such-entry" not in registry
        assert {id(entry) for entry in registry} == {
            id(registry.lookup(name)) for name in names
        }

    def test_blank_name_rejected(self, case):
        registry, error, _ = case
        with pytest.raises(error, match="non-empty"):
            registry.add("", object())


class TestDecoratorsTargetTheGivenRegistry:
    """An empty private registry is falsy (``len() == 0``) — the
    decorators must still register into it, not into the global one."""

    def test_register_unit(self):
        mine = UnitRegistry()

        @register_unit(registry=mine)
        class OnlyMine(Unit):
            pass

        assert mine.names() == ["OnlyMine"]

    def test_register_policy(self):
        mine = PolicyRegistry()

        @register_policy(registry=mine)
        class OnlyMinePolicy(ParallelFarmPolicy):
            name = "only-mine"

        assert mine.names() == ["only-mine"]
