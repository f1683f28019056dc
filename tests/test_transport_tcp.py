"""TcpTransport: real sockets carrying the unchanged protocol.

Loopback unit tests (two transports in one process, frames crossing
127.0.0.1) plus the acceptance e2e: a localhost multi-process galaxy
run must produce the *same* ``result_checksum`` as the deterministic
simulation — the protocol result is transport-invariant.

Every blocking test arms a SIGALRM hard timeout so a wedged socket
path fails the suite instead of hanging it.
"""

import asyncio
import signal
import socket
import time

import numpy as np
import pytest

import repro.deployment as deployment
from repro import ConsumerGrid, TaskGraph
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.deployment import run_tcp_localhost
from repro.p2p.advertisement import ADV_MODULE, ADV_SERVICE, AttrPredicate
from repro.p2p.network import Message
from repro.transport import RealtimeSimulator, TcpTransport
from repro.transport.tcp import _FrameReader
from repro.transport.wire import encode_message, result_checksum


@pytest.fixture(autouse=True)
def hard_timeout():
    """Kill any wedged test after 120 s of wall clock."""

    def boom(signum, frame):
        raise TimeoutError("tcp transport test exceeded the hard timeout")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def make_transport(**kw):
    sim = RealtimeSimulator(seed=kw.pop("seed", 0))
    return sim, TcpTransport(sim, **kw)


def pump_until(sims, predicate, deadline_s=30.0):
    """Alternately pump each kernel until ``predicate()`` or timeout."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        for sim in sims:
            sim.run(until=sim.wall_now + 0.05)
    raise AssertionError("condition not reached before deadline")


class TestLoopback:
    def test_ping_pong_across_real_sockets(self):
        sim_b, tb = make_transport()
        got_b = []

        def on_b(msg):
            got_b.append(msg)
            tb.send(Message("pong", "b", "a", payload=msg.payload + 1))

        tb.add_node("b", on_b)

        sim_a, ta = make_transport(peers={"b": ("127.0.0.1", tb.port)})
        got_a = []
        ta.add_node("a", got_a.append)
        tb.register_peer("a", "127.0.0.1", ta.port)

        ta.send(Message("ping", "a", "b", payload=41))
        try:
            pump_until([sim_a, sim_b], lambda: got_a)
            assert got_b[0].payload == 41
            assert got_a[0].kind == "pong"
            assert got_a[0].payload == 42
            assert ta.stats.sent == 1 and ta.stats.delivered == 1
            assert tb.stats.sent == 1 and tb.stats.delivered == 1
        finally:
            ta.close()
            tb.close()

    def test_connection_pooling_one_link_per_address(self):
        sim_b, tb = make_transport()
        got = []
        tb.add_node("b", got.append)
        sim_a, ta = make_transport(peers={"b": ("127.0.0.1", tb.port)})
        ta.add_node("a", lambda m: None)
        try:
            for i in range(20):
                ta.send(Message("tick", "a", "b", payload=i))
            pump_until([sim_a, sim_b], lambda: len(got) == 20)
            # all 20 frames rode one pooled outbound connection
            assert len(ta._links) == 1
            assert [m.payload for m in got] == list(range(20))
        finally:
            ta.close()
            tb.close()

    def test_reconnect_backoff_delivers_to_late_listener(self):
        # Reserve an address nobody is listening on yet.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sim_a, ta = make_transport(
            peers={"b": ("127.0.0.1", port)},
            backoff_base=0.02,
            max_retries=50,
        )
        ta.add_node("a", lambda m: None)
        ta.send(Message("early", "a", "b", payload="hello"))
        # Let a few connection attempts fail before the listener exists.
        sim_a.run(until=sim_a.wall_now + 0.2)

        sim_b, tb = make_transport(port=port)
        got = []
        tb.add_node("b", got.append)
        try:
            pump_until([sim_a, sim_b], lambda: got)
            assert got[0].payload == "hello"
            assert ta.stats.dropped_offline == 0
        finally:
            ta.close()
            tb.close()

    def test_drop_after_max_retries_counts_offline(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # dead address: connections always refused

        sim_a, ta = make_transport(
            peers={"b": ("127.0.0.1", port)},
            backoff_base=0.01,
            backoff_max=0.02,
            max_retries=2,
        )
        ta.add_node("a", lambda m: None)
        try:
            ta.send(Message("doomed", "a", "b"))
            pump_until([sim_a], lambda: ta.stats.dropped_offline == 1)
        finally:
            ta.close()

    def test_offline_source_drops_without_socket_io(self):
        sim_a, ta = make_transport()
        ta.add_node("a", lambda m: None)
        try:
            ta.set_online("a", False)
            ta.send(Message("mute", "a", "b"))
            assert ta.stats.dropped_offline == 1
            assert not ta._links  # nothing was queued
        finally:
            ta.close()

    def test_corrupt_frame_counted_not_fatal(self):
        sim_a, ta = make_transport()
        got = []
        ta.add_node("a", got.append)
        try:
            ta._on_frame(b"garbage that is not a wire frame")
            assert ta.stats.corrupted == 1
            # the transport still works afterwards
            ta.send(Message("ok", "a", "a", payload=1))
            pump_until([sim_a], lambda: got)
            assert got[0].payload == 1
        finally:
            ta.close()

    def test_garbled_frame_does_not_kill_the_connection(self):
        # A body cut inside a length prefix used to escape decode() as
        # struct.error: the reader task died uncounted and took every
        # later frame on the connection with it.
        sim_a, ta = make_transport()
        got = []
        ta.add_node("a", got.append)
        good = encode_message(Message("ok", "b", "a", payload=7))
        garbled = good[:10]
        client = socket.create_connection(("127.0.0.1", ta.port))
        try:
            for frame in (garbled, good):
                client.sendall(len(frame).to_bytes(4, "big") + frame)
            pump_until([sim_a], lambda: got)
            assert ta.stats.corrupted == 1
            assert [m.payload for m in got] == [7]
        finally:
            client.close()
            ta.close()

    def test_bind_failure_closes_the_event_loop(self, monkeypatch):
        # A half-built transport owns an asyncio loop (and its self-pipe
        # sockets) that nobody can close() once __init__ has raised.
        loops = []
        new_loop = asyncio.new_event_loop

        def recording_loop():
            loops.append(new_loop())
            return loops[-1]

        monkeypatch.setattr(asyncio, "new_event_loop", recording_loop)
        busy = socket.socket()
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        try:
            with pytest.raises(OSError):
                make_transport(port=busy.getsockname()[1])
        finally:
            busy.close()
        assert len(loops) == 1 and loops[0].is_closed()


    def test_oversized_length_prefix_is_counted_and_costs_one_connection(self):
        # A bogus prefix used to close the connection silently: nothing
        # counted it.  It must be counted, allocate nothing, and leave
        # the listener accepting.
        sim_a, ta = make_transport()
        got = []
        ta.add_node("a", got.append)
        good = encode_message(Message("ok", "b", "a", payload=7))
        bogus = socket.create_connection(("127.0.0.1", ta.port))
        client = None
        try:
            bogus.sendall(b"\xff\xff\xff\xff")
            pump_until([sim_a], lambda: ta.stats.corrupted == 1)
            assert not ta._connections  # that connection is gone
            client = socket.create_connection(("127.0.0.1", ta.port))
            client.sendall(len(good).to_bytes(4, "big") + good)
            pump_until([sim_a], lambda: got)
            assert [m.payload for m in got] == [7]
            assert ta.stats.corrupted == 1
        finally:
            bogus.close()
            if client is not None:
                client.close()
            ta.close()

    def test_pending_frames_go_before_write_through_ones(self):
        # 200 frames queue up for a peer that is not listening yet; once
        # it appears, 200 more are sent write-through.  One FIFO.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sim_a, ta = make_transport(
            peers={"b": ("127.0.0.1", port)}, backoff_base=0.01, backoff_max=0.05,
            max_retries=1000,
        )
        ta.add_node("a", lambda m: None)
        for i in range(200):
            ta.send(Message("tick", "a", "b", payload=i))
        sim_a.run(until=sim_a.wall_now + 0.1)  # a few refused dials

        sim_b, tb = make_transport(port=port)
        got = []
        tb.add_node("b", got.append)
        try:
            pump_until([sim_a, sim_b], lambda: got)
            for i in range(200, 400):
                ta.send(Message("tick", "a", "b", payload=i))
            pump_until([sim_a, sim_b], lambda: len(got) == 400)
            assert [m.payload for m in got] == list(range(400))
            assert ta.stats.dropped_offline == 0
        finally:
            ta.close()
            tb.close()


class TestFrameReader:
    """The inbound protocol, fed chunks the way a socket may cut them."""

    @staticmethod
    def reader():
        sim, transport = make_transport(listen=False)
        got = []
        transport.add_node("a", got.append)
        return transport, _FrameReader(transport), got

    @staticmethod
    def stream(payloads):
        out = bytearray()
        for payload in payloads:
            frame = encode_message(Message("tick", "b", "a", payload=payload))
            out += len(frame).to_bytes(4, "big") + frame
        return bytes(out)

    def test_one_byte_chunks(self):
        transport, reader, got = self.reader()
        try:
            for byte in self.stream(range(5)):
                reader.data_received(bytes([byte]))
            assert [m.payload for m in got] == list(range(5))
            assert transport.stats.corrupted == 0
        finally:
            transport.close()

    def test_one_chunk_of_three_and_a_half_frames(self):
        transport, reader, got = self.reader()
        try:
            stream = self.stream(["a" * 40, "b" * 40, "c" * 40, "d" * 40])
            cut = len(stream) - (len(stream) // 4) // 2
            reader.data_received(stream[:cut])
            assert [m.payload[0] for m in got] == ["a", "b", "c"]
            reader.data_received(stream[cut:])
            assert [m.payload for m in got] == [c * 40 for c in "abcd"]
        finally:
            transport.close()

    def test_one_big_frame_across_many_chunks(self):
        transport, reader, got = self.reader()
        try:
            samples = np.arange(300_000 // 8, dtype=np.float64)
            stream = self.stream([1, samples, 2])
            assert len(stream) > 300_000
            for at in range(0, len(stream), 7001):
                reader.data_received(stream[at:at + 7001])
            assert got[0].payload == 1 and got[2].payload == 2
            np.testing.assert_array_equal(got[1].payload, samples)
            # gathered in a bytearray, decoded out of it: the array owns
            # its memory and is writable
            assert got[1].payload.flags.writeable and got[1].payload.base is None
            assert reader.body is None
        finally:
            transport.close()

    def test_a_split_prefix_then_an_empty_frame(self):
        transport, reader, got = self.reader()
        try:
            stream = self.stream([1]) + (0).to_bytes(4, "big") + self.stream([2])
            first = len(self.stream([1])) + 2  # two bytes into the zero prefix
            for chunk in (stream[:first], stream[first:]):
                reader.data_received(chunk)
            assert [m.payload for m in got] == [1, 2]
            assert transport.stats.corrupted == 1  # the empty frame
        finally:
            transport.close()


class TestClose:
    """``close()`` is bounded by construction: it waits on no future."""

    @staticmethod
    def dialling(connect_factory):
        """A transport whose one link is dialling through ``connect``."""
        sim_b, tb = make_transport()
        tb.add_node("b", lambda m: None)
        sim_a, ta = make_transport(peers={"b": ("127.0.0.1", tb.port)})
        ta.add_node("a", lambda m: None)
        loop = ta._loop
        seen = {}
        loop.create_connection = connect_factory(loop.create_connection)
        close_loop = loop.close

        def recording_close():
            seen["tasks"] = asyncio.all_tasks(loop)
            close_loop()

        loop.close = recording_close
        ta.send(Message("x", "a", "b"))
        for _ in range(10):
            ta.pump(0.005)
        loop.run_until_complete = lambda *a, **kw: pytest.fail(
            "close() waited on a future"
        )
        return ta, tb, seen

    def test_connect_that_completes_as_it_is_cancelled(self):
        # asyncio.wait_for before 3.12 does this to its caller: the
        # cancellation is swallowed and the connection handed over.
        def factory(real):
            async def connect(*args, **kwargs):
                made = await real(*args, **kwargs)
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    pass
                return made
            return connect

        ta, tb, seen = self.dialling(factory)
        try:
            started = time.monotonic()
            ta.close()
            assert time.monotonic() - started < 1.0
            assert seen["tasks"] == set() and ta._loop.is_closed()
            assert not ta._connections
        finally:
            tb.close()

    def test_connect_that_never_wakes_up(self):
        # A KeyboardInterrupt landing in the loop's own code can drop a
        # task's wake-up; gathering such a task waits for ever.
        def factory(real):
            async def connect(*args, **kwargs):
                while True:
                    try:
                        await asyncio.sleep(3600)
                    except asyncio.CancelledError:
                        pass
            return connect

        ta, tb, seen = self.dialling(factory)
        try:
            started = time.monotonic()
            ta.close()
            assert time.monotonic() - started < 1.0
            assert ta._loop.is_closed()
        finally:
            tb.close()

    def test_close_twice_and_pump_after_close_are_no_ops(self):
        sim_a, ta = make_transport()
        ta.close()
        ta.close()
        ta.pump(0.0)
        ta.pump(0.01)


class TestGridOverTcp:
    def test_single_process_grid_matches_sim_checksum(self):
        generate_snapshots(
            n_frames=3, n_particles=80, seed=5, register_as="tcp-loopback"
        )
        graph = build_galaxy_graph("tcp-loopback", resolution=8)

        sim_grid = ConsumerGrid(n_workers=2, seed=0)
        sim_report = sim_grid.run(graph, iterations=3)
        want = result_checksum(sim_report.group_results)

        tcp_grid = ConsumerGrid(
            n_workers=2, seed=0, transport="tcp",
            query_window=0.4, heartbeat_interval=5.0,
        )
        try:
            tcp_report = tcp_grid.run(graph, iterations=3)
        finally:
            tcp_grid.transport.close()
        assert result_checksum(tcp_report.group_results) == want
        assert tcp_report.placements == sim_report.placements

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_a_clause_no_record_can_be_compared_with_matches_nothing(self, transport):
        # `host` is a string on every record; a numeric threshold on it is
        # a well-formed frame that no record satisfies.  The index must
        # answer it — with nothing — and stay up for the next question:
        # on the simulator the TypeError used to end `sim.run`, over TCP
        # the dispatcher swallowed it as a corrupt frame and the asker
        # waited out its window for a reply that never came.
        settings = dict(query_window=0.4, heartbeat_interval=5.0) if transport == "tcp" else {}
        grid = ConsumerGrid(n_workers=2, seed=0, transport=transport, **settings)
        try:
            replies = grid.discovery.stats.reply_messages
            unanswerable = grid.discovery.query(
                grid.controller_peer, adv_type=ADV_SERVICE,
                predicate=AttrPredicate.make(at_least={"host": 1.0}),
            )
            assert grid.sim.run(until=unanswerable) == []
            assert grid.discovery.stats.reply_messages == replies + 1
            if transport == "tcp":
                assert grid.transport.stats.corrupted == 0
            assert grid.discover_workers() == ["worker-0", "worker-1"]
        finally:
            grid.transport.close()


class TestLauncherHygiene:
    def test_failed_controller_leaves_no_worker_processes(self, monkeypatch):
        # The workers are spawned first; if the controller then cannot
        # bind, they must be reaped before the error escapes — nobody
        # is left to send them node-shutdown.
        procs = []
        launch = deployment.launch_worker

        def recording_launch(*args, **kwargs):
            procs.append(launch(*args, **kwargs))
            return procs[-1]

        def refuse(*args, **kwargs):
            raise OSError("address already in use")

        monkeypatch.setattr(deployment, "launch_worker", recording_launch)
        monkeypatch.setattr(deployment, "ControllerNode", refuse)
        started = time.monotonic()
        try:
            with pytest.raises(OSError, match="already in use"):
                run_tcp_localhost(TaskGraph("never-runs"), iterations=1, n_workers=2)
            elapsed = time.monotonic() - started
            assert len(procs) == 2
            assert all(proc.poll() is not None for proc in procs)
            assert elapsed < 5.0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)


class TestMultiProcessE2E:
    """The acceptance smoke: controller + 2 worker OS processes."""

    def test_three_process_galaxy_checksum_matches_sim(self):
        generate_snapshots(
            n_frames=4, n_particles=200, seed=7, register_as="tcp-e2e"
        )
        graph = build_galaxy_graph("tcp-e2e", resolution=16)

        sim_grid = ConsumerGrid(n_workers=2, seed=0)
        sim_report = sim_grid.run(graph, iterations=4)
        want = result_checksum(sim_report.group_results)

        report = run_tcp_localhost(
            graph, iterations=4, n_workers=2, query_window=0.5,
        )
        assert result_checksum(report.group_results) == want
        assert report.placements == sim_report.placements
        assert len(report.group_results) == 4

    def test_workers_are_built_from_the_controllers_config(self, monkeypatch):
        # Before the config was the bootstrap payload a worker process
        # could be told 3 things; module replicas and chunking were not
        # among them.  A cache only advertises what it holds when *its*
        # process was given module_replicas > 0.
        nodes = []

        class Recording(deployment.ControllerNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        monkeypatch.setattr(deployment, "ControllerNode", Recording)
        generate_snapshots(
            n_frames=4, n_particles=200, seed=7, register_as="tcp-e2e-modules"
        )
        graph = build_galaxy_graph("tcp-e2e-modules", resolution=16)
        sim_report = ConsumerGrid(n_workers=2, seed=0).run(graph, iterations=4)

        report = run_tcp_localhost(
            graph, iterations=4, module_replicas=1, module_chunk_bytes=4096,
        )
        assert result_checksum(report.group_results) == result_checksum(
            sim_report.group_results
        )
        (node,) = nodes
        assert node.repository.stats.chunks_sent > 0
        replicas = node.portal.cache.query(node.sim.now, ADV_MODULE)
        assert {adv.attributes["host"] for adv in replicas} & {"worker-0", "worker-1"}
