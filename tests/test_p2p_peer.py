"""Tests for peers and their group labels."""

from repro.p2p import Peer, SimNetwork
from repro.simkernel import Simulator


def advertised_groups(peer):
    return peer.self_advertisement().attributes["groups"]


class TestPeerGroup:
    """A peer's group labels are a value it is built with; its
    advertisement carries them for discovery predicates to select on."""

    def test_groups_start_from_the_constructor(self):
        net = SimNetwork(Simulator(seed=1))
        peer, other = Peer("p", net, groups=("b", "a")), Peer("q", net)
        assert peer.groups == {"a", "b"}
        assert other.groups == frozenset()

    def test_advertised_groups_are_sorted_and_joined(self):
        net = SimNetwork(Simulator(seed=1))
        assert advertised_groups(Peer("p", net)) == ""
        assert advertised_groups(Peer("q", net, groups=("slow", "fast"))) == "fast,slow"
