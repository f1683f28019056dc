"""Wire codec round-trip tests: every protocol message kind crosses bytes.

The canonical codec (``repro.transport.wire``) is what lets the TCP
backend carry the *same* protocol the simulator models, so the test
matrix here mirrors the protocol table in ``docs/architecture.md``:
service deployment, group execution (single + batch), module
distribution (package, chunk, head), discovery (publish + predicate
query), heartbeats, and numpy-bearing result payloads.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.galaxy import ColumnDensity, generate_snapshots
from repro.core.types import ImageData, ParticleSnapshot, SampleSet, TableData
from repro.mobility.repository import ModulePackage
from repro.p2p.advertisement import Advertisement, AttrPredicate
from repro.p2p.discovery import QuerySpec
from repro.p2p.network import Message
from repro.service.worker import DeploymentSpec
from repro.transport import wire
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


def deploy_spec():
    return DeploymentSpec(
        deployment_id="dep-1",
        controller="controller",
        xml="<taskgraph/>",
        external_inputs=(("density", "in"),),
        output_spec=(("density", "out"),),
        forward=None,
    )


def particle_snapshot():
    return ParticleSnapshot(
        positions=np.random.default_rng(0).normal(size=(5, 3)),
        masses=np.ones(5),
        smoothing=np.full(5, 0.1),
        time=1.5,
    )


def exec_batch():
    frames = generate_snapshots(n_frames=3, n_particles=8, seed=1)
    return frames, ("dep-2", [(i, [frame]) for i, frame in enumerate(frames)])


def module_package():
    return ModulePackage(
        name="galaxy.ColumnDensity",
        version="1.0",
        code_size=4096,
        cls=ColumnDensity,
    )


def service_advert(**kw):
    return Advertisement(
        adv_type="service",
        name="triana",
        publisher="worker-0",
        attrs={"kind": "triana", "cpu_flops": 2e9, "host": "worker-0"},
        expires_at=float("inf"),
        **kw,
    )


def query_spec():
    pred = AttrPredicate.make(
        equals={"kind": "triana"}, at_least={"cpu_flops": 1e9}
    )
    return QuerySpec(adv_type="service", name=None, predicate=pred)


def sample_table():
    return TableData(["id", "v"], [(1, 2.5), (2, -1.0)])


class TestMessageKinds:
    def test_triana_deploy(self):
        spec = deploy_spec()
        out = msg_roundtrip("triana-deploy", spec)
        assert isinstance(out.payload, DeploymentSpec)
        assert out.payload == spec

    def test_group_exec(self):
        snap = particle_snapshot()
        out = msg_roundtrip("group-exec", ("dep-1", [(3, [snap])]))
        dep_id, [(iteration, inputs)] = out.payload
        assert (dep_id, iteration) == ("dep-1", 3)
        np.testing.assert_array_equal(inputs[0].positions, snap.positions)
        assert inputs[0].time == snap.time

    def test_group_exec_items(self):
        frames, batch = exec_batch()
        out = msg_roundtrip("group-exec", batch)
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
        pkg = module_package()
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
        adv = service_advert()
        out = msg_roundtrip("central-publish", adv)
        assert out.payload.adv_id == adv.adv_id
        assert out.payload.attrs == adv.attrs
        assert out.payload.expires_at == float("inf")

    def test_central_query_ships_predicate(self):
        out = msg_roundtrip("central-query", (7, query_spec()))
        req, got = out.payload
        assert req == 7
        assert got.predicate({"kind": "triana", "cpu_flops": 2e9})
        assert not got.predicate({"kind": "triana", "cpu_flops": 1e3})

    def test_triana_heartbeat(self):
        out = msg_roundtrip("triana-heartbeat", ("worker-0", {"dep-1": 4}))
        assert out.payload == ("worker-0", {"dep-1": 4})

    def test_table_payload(self):
        table = sample_table()
        out = msg_roundtrip("group-result", ("dep-3", 1, [table]))
        got = out.payload[2][0]
        assert got.columns == table.columns
        assert [tuple(r) for r in got.rows] == [tuple(r) for r in table.rows]


# -- golden bytes: the encoding is pinned, not just self-consistent -----------------


def exec_message(samples=280, items=True):
    """The frame ``tcp_pipeline`` ships: ``(str, [(int, [SampleSet])])``;
    ``items=False`` is the three-field shape it shipped before, which the
    ``exec-sampleset`` golden keeps pinned."""
    payload = SampleSet(data=np.linspace(0.0, 1.0, samples), sampling_rate=1024.0)
    return Message(
        "group-exec", "controller", "worker-0",
        payload=("dep-1", [(7, [payload])]) if items else ("dep-1", 7, [payload]),
        size_bytes=payload.payload_nbytes() + 64,
    )


def golden_values():
    """Every ``TestMessageKinds`` fixture as the message it rides in,
    plus the value shapes plan compilation could get wrong."""
    pkg = module_package()

    def msg(kind, payload):
        return Message(kind, "a", "b", payload=payload, size_bytes=512)

    return {
        "triana-deploy": msg("triana-deploy", deploy_spec()),
        "group-exec": msg("group-exec", ("dep-1", 3, [particle_snapshot()])),
        "group-exec-batch": msg("group-exec-batch", exec_batch()[1]),
        "group-result-image": msg(
            "group-result",
            ("dep-1", 0, [ImageData(pixels=np.arange(16.0).reshape(4, 4))]),
        ),
        "module-package": msg(
            "module-package", ("req-1", "galaxy.ColumnDensity", pkg)
        ),
        "module-chunk-mid": msg(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", None, 2, 5)
        ),
        "module-chunk-last": msg(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", pkg, 4, 5)
        ),
        "module-head-reply": msg(
            "module-head-reply", ("req-2", "galaxy.ColumnDensity", "sha:abc", 4096)
        ),
        "central-publish": msg("central-publish", service_advert(adv_id=41)),
        "central-query": msg("central-query", (7, query_spec())),
        "triana-heartbeat": msg("triana-heartbeat", ("worker-0", {"dep-1": 4})),
        "table-payload": msg("group-result", ("dep-3", 1, [sample_table()])),
        "exec-sampleset": exec_message(items=False),
        "exec-items-sampleset": exec_message(),
        "mixed-key-dict": {1: "int", "1": "str", 1.5: None, (1, "t"): [True], b"k": 2},
        "set": {3, "three", 3.5, (3,)},
        "frozenset": frozenset({"b", "a"}),
        "ndarray-0d": np.array(2.5),
        "ndarray-strided": np.arange(24, dtype=np.int32).reshape(4, 6)[::2, ::3],
        "ndarray-fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        "numpy-scalar": np.float32(1.25),
        "class-ref": ColumnDensity,
    }


#: sha256 of ``encode(value)``, computed at the commit *before* the codec
#: ran on per-class plans.  A change here changes what ``result_checksum``
#: means across backends and versions: bump ``WIRE_VERSION`` with it.
GOLDEN_SHA256 = {
    "triana-deploy": "4dc06f7500d6b0de69431da9d27e21f9210ec78216f457fb063fa3121a032b28",
    "group-exec": "af522ab53560b8b2f2191cdcf0b1f04e35e28425ff3797c321535c3795633e61",
    "group-exec-batch": "625c1ff8adc7d6fcb4acd7546e7aef5dd57ce366afa22fd6bbfa091a137806b0",
    "group-result-image": "b85636d578ec1309f7840a0185b92468cea886f4c7896777ac23b117c5eedca4",
    "module-package": "057c93b98c9bfaf5c5c9e76e6622c94f4c30b838c88c215f09cafed24fe83c77",
    "module-chunk-mid": "52beacf9a71f320858d6e1c4e8240a6c0ffc923cf47abd6cb10ee3e6f5eed793",
    "module-chunk-last": "5a12b9e12fb7298d6702f2b2b55775302ef134b954f84968019585e6eb710610",
    "module-head-reply": "1d541f6edbb3eb421e74e1a436db6237d7e67caac80d79d5c898e2ac36c95eba",
    "central-publish": "d215c023701d4941358711cce85ade81a87bafa708ea8acc9d5dc985d1caf009",
    "central-query": "c81a2c5ba6bf6bcc5828a176482b53bd8f82b104f422476ae873c1e733261540",
    "triana-heartbeat": "d62f0dde2ff9fe3ef70793908e0136b752ffe5867e409755debb5eaa67e71926",
    "table-payload": "9576ff48c7dc72663ca7e4a478e23aee454ce215004a06b32ccf0b3c5ab6461f",
    "exec-sampleset": "e33b6d2addee6fee8fc915edc3a79e8b7f838ef7eb43eac148d625e27b5589de",
    # added with the one-kind exec path (the codec did not move; the frame did)
    "exec-items-sampleset": "6edeb5f6c82bf4d1871b5264f79a97d490c57c7641d2c7b45e672a5060c7eaa0",
    "mixed-key-dict": "00c07b73b06e83e3bda7996e3ce37c03bf3ab0e908f5a587ec3603c8623314c3",
    "set": "842fae02b86d923d5223987144958d0dc9403cd1066b7dcd332eff1290430b2c",
    "frozenset": "968837bd6edd06bb19477d68c09b167f175f08ecadbad38d45f1017245fd0242",
    "ndarray-0d": "8c52e48515e56e1d0c6d4c95011d41e7a75a67dfe12dd64b769ecac7bad4c178",
    "ndarray-strided": "6985580ccfe18d9292d42d99b7fd28a1f1fa6cf0d4c25ceca5f0efebfb3c5854",
    "ndarray-fortran": "34085ac5d06e32691e890b83a72b391f5cb92c57de14459f1f324eb9bd169892",
    "numpy-scalar": "5193d2225bd9d02bcc1b8a83a48c04b5b2d24e30fa38070ad5b57cb2115b4ba8",
    "class-ref": "d494e209e6a9b05f73b895a26ecc7f858878fc1293e1be5c288b5d03cf0c425b",
}


class TestGoldenBytes:
    def test_every_fixture_is_pinned(self):
        assert sorted(golden_values()) == sorted(GOLDEN_SHA256)

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_encoding_matches_the_pinned_digest(self, name):
        frame = encode(golden_values()[name])
        assert hashlib.sha256(frame).hexdigest() == GOLDEN_SHA256[name]
        # ... and the streamed digest is the digest of those bytes.
        assert result_checksum(golden_values()[name]) == GOLDEN_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_bytes_and_bytearray_frames_decode_alike(self, name):
        # The TCP reader hands over a frame that spanned socket chunks
        # as a bytearray; plan lookups must not care.
        frame = encode(golden_values()[name])
        assert encode(decode(bytearray(frame))) == frame == encode(decode(frame))


# -- codec plans: caches change the cost of a frame, never its meaning ---------------


def forget_plans():
    for cache in (wire._ENC_PLANS, wire._DEC_PLANS, wire._REFS):
        cache.clear()


plan_values = st.one_of(
    nested,
    st.builds(
        SampleSet,
        data=st.lists(st.floats(allow_nan=False), max_size=6).map(np.array),
        sampling_rate=st.floats(min_value=0.5, max_value=1e6),
        t0=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.builds(Message, st.text(max_size=8), st.just("a"), st.just("b"), nested),
    st.builds(service_advert, adv_id=st.integers(0, 2**40)),
    st.sampled_from([ColumnDensity, sample_table(), module_package(), query_spec()]),
).flatmap(lambda v: st.sampled_from([v, [v, v], ("dep", 1, [v])]))


@given(plan_values)
@settings(max_examples=100)
def test_cold_and_warm_plans_agree(value):
    forget_plans()
    frame = encode(value)  # compiles the encode plans
    cold = decode(frame)  # compiles the decode plans
    assert encode(value) == frame
    warm = decode(frame)
    assert type(cold) is type(warm)
    assert encode(cold) == encode(warm) == frame


@given(plan_values)
@settings(max_examples=200)
def test_checksum_is_the_sha256_of_the_encoding(value):
    """``result_checksum`` feeds the hash piece by piece and never builds
    the frame; what it hashes is still ``encode(value)``, byte for byte."""
    assert result_checksum(value) == hashlib.sha256(encode(value)).hexdigest()


@dataclasses.dataclass
class _PlanProbe:
    """Module-level and allow-listed (``tests``), so it may travel."""

    x: int = 0


class TestPlanCaches:
    def test_rejected_class_is_rejected_again(self):
        # Failures are not cached: the allow-list runs on every attempt.
        import argparse

        @dataclasses.dataclass
        class Local:
            x: int = 0

        for bad, match in ((Local(), "locally-defined"),
                           (argparse.Namespace(x=1), "allowlist")):
            errors = []
            for _ in range(2):
                with pytest.raises(WireError, match=match) as info:
                    encode(bad)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
            assert type(bad) not in wire._ENC_PLANS

    def test_rejected_reference_is_rejected_again(self):
        def forged(tag, ref):
            frame = bytearray(MAGIC + bytes([WIRE_VERSION]) + tag)
            frame += len(ref).to_bytes(4, "big") + ref
            return bytes(frame + (0).to_bytes(4, "big")) if tag != b"C" else bytes(frame)

        for tag in (b"C", b"D", b"O"):
            errors = []
            for _ in range(2):
                with pytest.raises(WireError, match="allowlist") as info:
                    decode(forged(tag, b"os:system"))
                errors.append(str(info.value))
            assert errors[0] == errors[1]
        assert "os:system" not in wire._REFS
        assert b"os:system" not in wire._DEC_PLANS

    def test_non_dataclass_reference_never_gets_a_plan(self):
        ref = b"repro.core.types:TableData"  # a class, but not a dataclass
        frame = bytearray(MAGIC + bytes([WIRE_VERSION]) + b"D")
        frame += len(ref).to_bytes(4, "big") + ref + (0).to_bytes(4, "big")
        for _ in range(2):
            with pytest.raises(WireError, match="not a dataclass"):
                decode(bytes(frame))
        assert ref not in wire._DEC_PLANS

    def test_plans_fill_on_first_use(self):
        forget_plans()
        value = _PlanProbe(3)
        assert decode(encode(value)) == value
        assert _PlanProbe in wire._ENC_PLANS
        ref = f"{__name__}:_PlanProbe"
        assert ref.encode() in wire._DEC_PLANS and wire._REFS[ref] is type(value)

    def test_array_body_must_hold_whole_items(self):
        frame = bytearray(encode(np.arange(2.0)))
        # the 8-byte body length sits right before the 16-byte body
        frame[-24:-16] = (15).to_bytes(8, "big")
        with pytest.raises(WireError, match="whole"):
            decode(bytes(frame[:-1]))


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
    """A group-exec-shaped frame: ``(str, [(int, [ndarray])])`` payload."""
    msg = Message(
        "group-exec", "controller", "worker-0",
        payload=("dep-1", [(3, [np.arange(4.0)])]), size_bytes=512,
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

