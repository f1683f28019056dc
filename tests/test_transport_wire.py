"""Wire codec round-trip tests: every protocol message kind crosses bytes.

The canonical codec (``repro.transport.wire``) is what lets the TCP
backend carry the *same* protocol the simulator models, so the test
matrix here mirrors the protocol table in ``docs/architecture.md``:
service deployment, group execution (single + batch), module
distribution (package, chunk, head), discovery (publish + predicate
query), heartbeats, and numpy-bearing result payloads.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.galaxy import ColumnDensity, generate_snapshots
from repro.core.types import ImageData, ParticleSnapshot, TableData
from repro.mobility.repository import ModulePackage
from repro.p2p.advertisement import Advertisement, AttrPredicate
from repro.p2p.discovery import QuerySpec
from repro.p2p.network import Message
from repro.service.worker import DeploymentSpec
from repro.transport.wire import (
    MAGIC,
    WIRE_VERSION,
    WireError,
    decode,
    decode_message,
    encode,
    encode_message,
    result_checksum,
)


def roundtrip(obj):
    return decode(encode(obj))


def msg_roundtrip(kind, payload, src="a", dst="b", size=512):
    msg = Message(kind, src, dst, payload=payload, size_bytes=size)
    out = decode_message(encode_message(msg))
    assert out.kind == kind and out.src == src and out.dst == dst
    assert out.size_bytes == size
    return out


# -- scalar / container round trips -------------------------------------------------


class TestScalars:
    def test_atoms(self):
        for value in (None, True, False, 0, -1, 2**100, 3.5, -0.0, "héllo",
                      b"\x00\xff", complex(1.5, -2.5)):
            assert roundtrip(value) == value

    def test_containers(self):
        value = {
            "list": [1, [2, [3]]],
            "tuple": (1, "two", None),
            "set": {1, 2, 3},
            "frozen": frozenset({"a", "b"}),
            ("tuple", "key"): {"nested": (4.5,)},
        }
        out = roundtrip(value)
        assert out == value
        assert isinstance(out["tuple"], tuple)
        assert isinstance(out["frozen"], frozenset)

    def test_canonical_dict_order(self):
        a = encode({"x": 1, "y": 2})
        b = encode({"y": 2, "x": 1})
        assert a == b

    def test_canonical_set_order(self):
        assert encode({3, 1, 2}) == encode({2, 3, 1})

    def test_float_int_distinct(self):
        assert encode(1) != encode(1.0)
        assert type(roundtrip(1.0)) is float
        assert type(roundtrip(1)) is int

    def test_ndarray(self):
        for arr in (
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.int32),
            np.ones((2, 2, 2), dtype=np.uint8),
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        ):
            out = roundtrip(arr)
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)

    def test_numpy_scalar(self):
        out = roundtrip(np.float64(2.5))
        assert out == np.float64(2.5)
        assert isinstance(out, np.generic)

    def test_class_by_reference(self):
        assert roundtrip(ColumnDensity) is ColumnDensity


# -- property tests -----------------------------------------------------------------

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

nested = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(nested)
@settings(max_examples=100)
def test_roundtrip_nested(value):
    assert roundtrip(value) == value


@given(nested)
@settings(max_examples=50)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)
    assert result_checksum(value) == result_checksum(value)


@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
@settings(max_examples=50)
def test_checksum_insertion_order_independent(mapping):
    items = list(mapping.items())
    forward = dict(items)
    backward = dict(reversed(items))
    assert result_checksum(forward) == result_checksum(backward)


# -- protocol message kinds ---------------------------------------------------------


class TestMessageKinds:
    def test_triana_deploy(self):
        spec = DeploymentSpec(
            deployment_id="dep-1",
            controller="controller",
            xml="<taskgraph/>",
            external_inputs=(("density", "in"),),
            output_spec=(("density", "out"),),
            forward=None,
        )
        out = msg_roundtrip("triana-deploy", spec)
        assert isinstance(out.payload, DeploymentSpec)
        assert out.payload == spec

    def test_group_exec(self):
        snap = ParticleSnapshot(
            positions=np.random.default_rng(0).normal(size=(5, 3)),
            masses=np.ones(5),
            smoothing=np.full(5, 0.1),
            time=1.5,
        )
        out = msg_roundtrip("group-exec", ("dep-1", 3, [snap]))
        dep_id, iteration, inputs = out.payload
        assert (dep_id, iteration) == ("dep-1", 3)
        np.testing.assert_array_equal(inputs[0].positions, snap.positions)
        assert inputs[0].time == snap.time

    def test_group_exec_batch(self):
        frames = generate_snapshots(n_frames=3, n_particles=8, seed=1)
        batch = ("dep-2", [(i, [frame]) for i, frame in enumerate(frames)])
        out = msg_roundtrip("group-exec-batch", batch)
        dep_id, items = out.payload
        assert dep_id == "dep-2"
        assert [i for i, _ in items] == [0, 1, 2]
        for (_, inputs), frame in zip(items, frames):
            np.testing.assert_array_equal(inputs[0].masses, frame.masses)

    def test_group_result_image(self):
        img = ImageData(pixels=np.arange(16.0).reshape(4, 4))
        out = msg_roundtrip("group-result", ("dep-1", 0, [img]))
        np.testing.assert_array_equal(out.payload[2][0].pixels, img.pixels)

    def test_module_package_and_chunk(self):
        pkg = ModulePackage(
            name="galaxy.ColumnDensity",
            version="1.0",
            code_size=4096,
            cls=ColumnDensity,
        )
        out = msg_roundtrip("module-package", ("req-1", "galaxy.ColumnDensity", pkg))
        got = out.payload[2]
        assert got.cls is ColumnDensity
        assert got.digest == pkg.digest
        # chunked transfer: one mid-stream chunk and the terminal chunk
        out = msg_roundtrip(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", None, 2, 5)
        )
        assert out.payload == ("req-1", "galaxy.ColumnDensity", None, 2, 5)
        out = msg_roundtrip(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", pkg, 4, 5)
        )
        assert out.payload[2].qualified_name == pkg.qualified_name

    def test_module_head_reply(self):
        out = msg_roundtrip(
            "module-head-reply", ("req-2", "galaxy.ColumnDensity", "sha:abc", 4096)
        )
        assert out.payload[2] == "sha:abc"

    def test_central_publish_preserves_adv_id(self):
        adv = Advertisement(
            adv_type="service",
            name="triana",
            publisher="worker-0",
            attrs={"kind": "triana", "cpu_flops": 2e9, "host": "worker-0"},
            expires_at=float("inf"),
        )
        out = msg_roundtrip("central-publish", adv)
        assert out.payload.adv_id == adv.adv_id
        assert out.payload.attrs == adv.attrs
        assert out.payload.expires_at == float("inf")

    def test_central_query_ships_predicate(self):
        pred = AttrPredicate.make(
            equals={"kind": "triana"}, at_least={"cpu_flops": 1e9}
        )
        spec = QuerySpec(adv_type="service", name=None, predicate=pred)
        out = msg_roundtrip("central-query", (7, spec))
        req, got = out.payload
        assert req == 7
        assert got.predicate({"kind": "triana", "cpu_flops": 2e9})
        assert not got.predicate({"kind": "triana", "cpu_flops": 1e3})

    def test_triana_heartbeat(self):
        out = msg_roundtrip("triana-heartbeat", ("worker-0", {"dep-1": 4}))
        assert out.payload == ("worker-0", {"dep-1": 4})

    def test_table_payload(self):
        table = TableData(["id", "v"], [(1, 2.5), (2, -1.0)])
        out = msg_roundtrip("group-result", ("dep-3", 1, [table]))
        got = out.payload[2][0]
        assert got.columns == table.columns
        assert [tuple(r) for r in got.rows] == [tuple(r) for r in table.rows]


# -- error paths --------------------------------------------------------------------


class TestErrors:
    def test_lambda_rejected_with_hint(self):
        with pytest.raises(WireError, match="AttrPredicate"):
            encode(lambda attrs: True)

    def test_local_class_rejected(self):
        class Local:
            pass

        with pytest.raises(WireError, match="locally-defined"):
            encode(Local)

    def test_foreign_class_rejected(self):
        import argparse

        with pytest.raises(WireError, match="allowlist"):
            encode(argparse.Namespace(x=1))
        with pytest.raises(WireError, match="not wire-encodable"):
            encode(np.random.default_rng(0))  # no __dict__, no dataclass

    def test_bad_magic(self):
        with pytest.raises(WireError, match="header"):
            decode(b"XXX" + bytes([WIRE_VERSION]) + b"N")

    def test_version_mismatch(self):
        with pytest.raises(WireError, match="version mismatch"):
            decode(MAGIC + bytes([WIRE_VERSION + 1]) + b"N")

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_object_dtype_rejected(self):
        with pytest.raises(WireError, match="object-dtype"):
            encode(np.array([object()], dtype=object))

    def test_non_message_frame_rejected(self):
        with pytest.raises(WireError, match="not Message"):
            decode_message(encode({"kind": "fake"}))

    def test_decoded_ref_must_stay_in_allowlist(self):
        # Forge a class-by-ref frame pointing outside the allowlist.
        frame = bytearray(MAGIC + bytes([WIRE_VERSION]) + b"C")
        ref = b"os:system"
        frame += len(ref).to_bytes(4, "big") + ref
        with pytest.raises(WireError, match="allowlist"):
            decode(bytes(frame))

    def test_dataclass_tolerates_unknown_fields(self):
        # A frame from a peer whose DeploymentSpec grew an extra field
        # must still decode here: unknown names are skipped.
        spec = DeploymentSpec(
            deployment_id="d", controller="c", xml="<g/>",
            external_inputs=(), output_spec=(), forward=None,
        )
        raw = bytearray(encode(spec))
        # splice one extra (name, value) pair into the field list; the
        # field count sits right after header(4) + tag(1) + ref string
        ref = f"{type(spec).__module__}:{type(spec).__qualname__}".encode()
        count_at = 4 + 1 + 4 + len(ref)
        flds = dataclasses.fields(spec)
        assert raw[count_at:count_at + 4] == len(flds).to_bytes(4, "big")
        raw[count_at:count_at + 4] = (len(flds) + 1).to_bytes(4, "big")
        extra = bytearray()
        name = b"brand_new_field"
        extra += len(name).to_bytes(4, "big") + name
        extra += b"N"
        raw += extra
        out = decode(bytes(raw))
        assert out == spec


# -- garbled frames: WireError or a valid Message, never anything else ---------------


def group_exec_frame() -> bytes:
    """A group-exec-shaped frame: ``(str, int, [ndarray])`` payload."""
    msg = Message(
        "group-exec", "controller", "worker-0",
        payload=("dep-1", 3, [np.arange(4.0)]), size_bytes=512,
    )
    return encode_message(msg)


def decodes_or_wire_error(frame: bytes) -> bool:
    """True if ``frame`` decoded; False on WireError; anything else escapes."""
    try:
        out = decode_message(frame)
    except WireError:
        return False
    assert isinstance(out, Message)
    return True


class TestGarbledFrames:
    def test_every_truncation_is_a_wire_error(self):
        frame = group_exec_frame()
        for cut in range(len(frame)):
            assert not decodes_or_wire_error(frame[:cut]), cut

    # a flipped dtype string can spell an alias numpy deprecates
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_seeded_single_byte_corruption_sweep(self):
        frame = group_exec_frame()
        rng = np.random.default_rng(7)
        decoded = 0
        for _ in range(3000):
            garbled = bytearray(frame)
            garbled[int(rng.integers(len(garbled)))] ^= int(rng.integers(1, 256))
            decoded += decodes_or_wire_error(bytes(garbled))
        # Flips inside string/array bodies still parse; the rest must
        # have been refused — the sweep exercised both outcomes.
        assert 0 < decoded < 3000

    def test_wire_error_names_the_cause(self):
        frame = group_exec_frame()
        with pytest.raises(WireError, match="corrupt wire buffer") as info:
            decode(frame[:10])  # cut inside the dataclass ref's length prefix
        assert info.value.__cause__ is not None

