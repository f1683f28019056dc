"""Tests for peers and peer groups."""

from repro.p2p import Peer, PeerGroup, SimNetwork
from repro.simkernel import Simulator


def make_peers(n):
    net = SimNetwork(Simulator(seed=1), jitter_fraction=0.0)
    return [Peer(f"peer-{i}", net) for i in range(n)]


def advertised_groups(peer):
    return peer.self_advertisement().attributes["groups"]


class TestPeerGroup:
    def test_join_twice_is_idempotent(self):
        (peer,) = make_peers(1)
        group = PeerGroup("fast")
        group.join(peer)
        group.join(peer)
        assert peer.groups == {"fast"}
        assert len(group) == 1

    def test_leave_of_a_non_member_is_a_no_op(self):
        a, b = make_peers(2)
        group = PeerGroup("fast")
        group.join(a)
        group.leave(b)
        assert b.groups == frozenset() and a.groups == {"fast"}
        assert list(group.members) == ["peer-0"]

    def test_joining_on_one_peer_leaves_the_others_empty(self):
        peers = make_peers(3)
        PeerGroup("fast").join(peers[0])
        assert peers[0].groups == {"fast"}
        assert peers[1].groups == peers[2].groups == frozenset()

    def test_groups_start_from_the_constructor(self):
        net = SimNetwork(Simulator(seed=1))
        peer = Peer("p", net, groups=("b", "a"))
        assert peer.groups == {"a", "b"}
        PeerGroup("a").leave(peer)
        assert peer.groups == {"b"}

    def test_advertised_groups_are_sorted_and_joined(self):
        (peer,) = make_peers(1)
        assert advertised_groups(peer) == ""
        PeerGroup("slow").join(peer)
        PeerGroup("fast").join(peer)
        assert advertised_groups(peer) == "fast,slow"
        PeerGroup("slow").leave(peer)
        PeerGroup("fast").leave(peer)
        assert advertised_groups(peer) == ""
        assert peer.groups == frozenset()
