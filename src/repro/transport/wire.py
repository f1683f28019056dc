"""Canonical wire codec: :class:`~repro.p2p.network.Message` ↔ bytes.

In the simulator a :class:`Message` payload is handed to the receiver as
the very same Python object, so *anything* — closures, generators, live
event objects — rides for free.  On a real transport every frame crosses
a process boundary, which forces three properties the codec pins down:

* **self-describing** — a tagged, recursive encoding covering the value
  vocabulary the protocol actually uses: scalars, containers, numpy
  arrays, and the protocol dataclasses (``DeploymentSpec``,
  ``Advertisement``, ``QuerySpec``, ``ModulePackage``, TrianaType
  payloads, …).  Dataclasses are encoded *by reference* (module-qualified
  name + field values), so both endpoints must run the same code — the
  consumer-grid deployment model of the paper, where workers fetch the
  module code itself through the repository layer.
* **canonical** — one value, one byte string.  Dict entries and set
  members are sorted by their encoded key bytes, floats use fixed-width
  IEEE-754, arrays are flattened to C order.  Canonical bytes make
  result checksums (:func:`result_checksum`) comparable across the sim
  and TCP backends, which is how the e2e suite asserts a localhost run
  reproduces a simulated one bit-for-bit.
* **versioned** — every buffer starts with a 4-byte header (magic +
  version) so incompatible peers fail loudly instead of mis-decoding.

Functions and lambdas are *rejected* with a pointer at
:class:`~repro.p2p.advertisement.AttrPredicate` — the declarative
predicate form that replaced the discovery closures precisely so query
frames could cross the wire.

What a frame costs is mostly per value, so each value takes one lookup:
its encoder by exact type (``_ENCODERS``), its decoder by tag byte (the
256-entry ``_DECODERS``).  Each allow-listed dataclass gets an encoder
and a decoder of its own, built once from ``dataclasses.fields`` of the
resolved class — never from frame bytes.  The encoder writes the
pre-encoded field names in declaration order; the decoder checks them
in place and constructs positionally, so ``__post_init__`` still
validates.  A field list in any other shape (a peer whose class gained,
lost or reordered a field), and a class whose ``__init__`` does not take
exactly its fields in order, take the tolerant path, which builds by
name and skips unknown names.  A :class:`Message` frame's *envelope* —
header through the ``payload`` field name — is memoised per ``(kind,
src, dst)``: encoding starts from it, and a frame that starts with the
envelope of one that decoded in full has only its payload and size
read.  Encoders append pieces to a list that is joined once (an array
is its own piece), or to a hash for :func:`result_checksum`.  The bytes
are the same on every path, and a class or reference that fails the
allow-list is never cached.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import struct
from typing import Any, Callable

import numpy as np

from ..p2p.network import Message

__all__ = [
    "WireError",
    "WIRE_VERSION",
    "encode",
    "decode",
    "encode_message",
    "decode_message",
    "result_checksum",
]

MAGIC = b"RPW"
WIRE_VERSION = 1
_HEADER = MAGIC + bytes([WIRE_VERSION])

#: Top-level module prefixes a dataclass/class reference may resolve to.
#: Decoding a reference imports the module, so this is a deliberate
#: allowlist, not an optimisation.
ALLOWED_REF_ROOTS = ("repro", "tests")

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


class WireError(Exception):
    """Raised for unencodable values, bad headers, or corrupt buffers."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

# A tag byte and the length or value after it, packed in one call.
_TAG_U32 = struct.Struct(">cI")
_TAG_F64 = struct.Struct(">cd")


def encode(obj: Any) -> bytes:
    """Encode ``obj`` into canonical, versioned wire bytes."""
    out = [_HEADER]
    _ENCODERS[type(obj)](obj, out)
    return b"".join(out)


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _type_ref(cls: type) -> str:
    module, qualname = cls.__module__, cls.__qualname__
    if "<locals>" in qualname:
        raise WireError(f"cannot encode locally-defined class {qualname!r}")
    root = module.split(".", 1)[0]
    if root not in ALLOWED_REF_ROOTS:
        raise WireError(
            f"class {module}:{qualname} is outside the wire allowlist "
            f"{ALLOWED_REF_ROOTS}"
        )
    return f"{module}:{qualname}"


# Each encoder appends the pieces of ``obj``'s encoding to ``out``: a
# list the caller joins once, or a :class:`_HashSink`.


def _enc_str(obj: str, out: list) -> None:
    raw = obj.encode("utf-8")
    out.append(_TAG_U32.pack(b"s", len(raw)) + raw)


def _enc_int(obj: int, out: list) -> None:
    n = (obj.bit_length() + 8) // 8 or 1
    out.append(_TAG_U32.pack(b"i", n) + obj.to_bytes(n, "big", signed=True))


def _enc_float(obj: float, out: list) -> None:
    out.append(_TAG_F64.pack(b"f", obj))


def _enc_none(obj: None, out: list) -> None:
    out.append(b"N")


def _enc_bool(obj: bool, out: list) -> None:
    out.append(b"T" if obj else b"F")


def _enc_list(obj: list, out: list) -> None:
    out.append(_TAG_U32.pack(b"l", len(obj)))
    for item in obj:
        _ENCODERS[type(item)](item, out)


def _enc_tuple(obj: tuple, out: list) -> None:
    out.append(_TAG_U32.pack(b"t", len(obj)))
    for item in obj:
        _ENCODERS[type(item)](item, out)


def _enc_array(obj: np.ndarray, out: list) -> None:
    arr = np.ascontiguousarray(obj)
    head = _ARRAY_HEADS.get(arr.dtype)
    if head is None:
        if arr.dtype == object:
            raise WireError("object-dtype ndarrays are not wire-encodable")
        head = _ARRAY_HEADS[arr.dtype] = b"a" + _str_bytes(arr.dtype.str)
    shape = arr.shape
    out.append(head + _dims(len(shape)).pack(len(shape), *shape, arr.nbytes))
    # The array itself is the piece: its body is copied once, by the
    # join, straight out of its memory through the buffer protocol.
    out.append(arr)


#: dtype -> the pre-encoded ``a`` tag and dtype string of its arrays.
_ARRAY_HEADS: dict[np.dtype, bytes] = {}
#: ndim -> the struct of an array's ndim byte, shape and body length.
_DIMS: dict[int, struct.Struct] = {}


def _dims(ndim: int) -> struct.Struct:
    dims = _DIMS.get(ndim)
    if dims is None:
        dims = _DIMS[ndim] = struct.Struct(f">B{ndim + 1}Q")
    return dims


def _enc_class(obj: type, out: list) -> None:
    out.append(b"C" + _str_bytes(_type_ref(obj)))


def _dataclass_encoder(cls: type) -> Callable[[Any, list], None]:
    """Build, register and return the encoder of dataclass ``cls``: its
    pre-encoded ``D`` + reference + field-count head, then per field in
    declaration order the pre-encoded name and the value.  A class that
    fails the allow-list raises here on every attempt, so failures are
    never registered."""
    flds = dataclasses.fields(cls)
    head = b"D" + _str_bytes(_type_ref(cls)) + _U32.pack(len(flds))
    steps = tuple((_str_bytes(f.name), f.name) for f in flds)
    encoders = _ENCODERS

    def enc(obj: Any, out: list) -> None:
        out.append(head)
        for name, attr in steps:
            out.append(name)
            value = getattr(obj, attr)
            encoders[type(value)](value, out)

    encoders[cls] = enc
    return enc


def _encoded(obj: Any) -> bytes:
    pieces = []
    _ENCODERS[type(obj)](obj, pieces)
    return b"".join(pieces)


def _enc_other(obj: Any, out: list) -> None:
    """Every value whose exact type has no encoder of its own: the rest
    of the vocabulary, which no hot frame carries, subclasses, the first
    instance of each dataclass — and whatever the wire refuses."""
    t = type(obj)
    if t is bytes:
        out.append(_TAG_U32.pack(b"b", len(obj)))
        out.append(obj)
    elif t is complex:
        out.append(b"c" + _F64.pack(obj.real) + _F64.pack(obj.imag))
    elif t is dict:
        pairs = [(_encoded(key), _encoded(value)) for key, value in obj.items()]
        pairs.sort(key=lambda p: p[0])
        out.append(_TAG_U32.pack(b"d", len(pairs)))
        for kb, vb in pairs:
            out.append(kb)
            out.append(vb)
    elif t is set or t is frozenset:
        items = sorted(_encoded(item) for item in obj)
        out.append(_TAG_U32.pack(b"x" if t is set else b"X", len(items)))
        for ib in items:
            out.append(ib)
    elif isinstance(obj, np.ndarray):
        _enc_array(obj, out)
    elif isinstance(obj, np.generic):
        raw = obj.tobytes()
        out.append(b"y" + _str_bytes(obj.dtype.str) + _U32.pack(len(raw)) + raw)
    elif isinstance(obj, type):
        _enc_class(obj, out)
    elif dataclasses.is_dataclass(obj):
        _dataclass_encoder(t)(obj, out)
    elif callable(obj):
        raise WireError(
            f"cannot encode callable {obj!r}: discovery predicates must be "
            "declarative — use repro.p2p.advertisement.AttrPredicate"
        )
    elif hasattr(obj, "__dict__"):
        # Plain (non-dataclass) protocol objects — e.g. ``TableData`` —
        # travel as class-ref + instance state, attrs sorted by name so
        # the encoding stays canonical.  The allowlist check inside
        # ``_type_ref`` is the gate.
        attrs = sorted(vars(obj).items())
        out.append(b"O" + _str_bytes(_type_ref(t)) + _U32.pack(len(attrs)))
        for name, value in attrs:
            out.append(_str_bytes(name))
            _ENCODERS[type(value)](value, out)
    else:
        raise WireError(f"type {t.__module__}.{t.__qualname__} is not wire-encodable")


class _EncoderTable(dict):
    """Exact type -> encoder; a type with no entry is :func:`_enc_other`'s."""

    def __missing__(self, t: type) -> Callable[[Any, list], None]:
        return _enc_other


#: The types the protocol's frames are made of, and each dataclass once
#: :func:`_enc_other` has met it.
_ENCODERS: dict[type, Callable[[Any, list], None]] = _EncoderTable({
    str: _enc_str, int: _enc_int, float: _enc_float, type(None): _enc_none,
    bool: _enc_bool, list: _enc_list, tuple: _enc_tuple,
    np.ndarray: _enc_array, type: _enc_class,
})


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

#: ``module:qualname`` -> resolved object.  Only successful resolutions
#: are kept, so a reference outside the allow-list raises every time.
_REFS: dict[str, Any] = {}

#: Raw reference bytes of a ``D`` value -> the decoder of that class,
#: entered once the reference resolved to an allow-listed dataclass.
_DATACLASS_DECODERS: dict[bytes, Callable[[Any, int, int], tuple[Any, int]]] = {}

#: Raw dtype string of an ``a`` or ``y`` value -> its parsed dtype.
#: Bounded: the strings come off the network.
_DTYPES: dict[bytes, np.dtype] = {}
_DTYPES_MAX = 64

# Tags as the integers indexing a frame yields.
(_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_STR, _T_BYTES, _T_COMPLEX,
 _T_LIST, _T_TUPLE, _T_DICT, _T_SET, _T_FROZENSET, _T_ARRAY, _T_SCALAR,
 _T_CLASS, _T_DATACLASS, _T_OBJECT) = b"NTFifsbcltdxXayCDO"


def decode(data: bytes) -> Any:
    """Decode wire bytes produced by :func:`encode`.

    ``data`` is ``bytes`` or a ``bytearray`` (the TCP reader hands over a
    frame that spanned socket chunks as the buffer it was gathered in).
    Raises :class:`WireError` — and nothing else — for a bad header and
    for truncated or corrupt buffers.
    """
    if len(data) < 4 or data[:3] != MAGIC:
        raise WireError("bad wire header (not a repro wire frame)")
    if data[3] != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: frame v{data[3]}, this peer speaks "
            f"v{WIRE_VERSION}"
        )
    try:
        obj, pos = _DECODERS[data[4]](data, 5)
    except WireError:
        raise
    except Exception as exc:
        # The bytes come off the network: a truncated or garbled frame
        # surfaces as whatever struct, utf-8, numpy or an allowlisted
        # constructor raises.  Callers (the TCP reader) handle one type.
        raise WireError(f"corrupt wire buffer: {exc!r}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return obj


# Each decoder takes the frame and the offset just past its tag byte,
# and returns the value and the offset just past it.


def _dec_str(data: bytes, pos: int) -> tuple[str, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    return data[pos : pos + n].decode("utf-8"), pos + n


def _resolve_ref(ref: str) -> Any:
    target = _REFS.get(ref)
    if target is not None:
        return target
    module_name, _, qualname = ref.partition(":")
    root = module_name.split(".", 1)[0]
    if root not in ALLOWED_REF_ROOTS:
        raise WireError(f"reference {ref!r} is outside the wire allowlist")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise WireError(f"cannot import module for reference {ref!r}: {exc}")
    target = module
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise WireError(f"reference {ref!r} does not resolve")
    _REFS[ref] = target
    return target


def _dec_int(data: bytes, pos: int) -> tuple[int, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    return int.from_bytes(data[pos : pos + n], "big", signed=True), pos + n


def _dec_float(data: bytes, pos: int) -> tuple[float, int]:
    return _F64.unpack_from(data, pos)[0], pos + 8


def _dec_none(data: bytes, pos: int) -> tuple[None, int]:
    return None, pos


def _dec_bool(data: bytes, pos: int) -> tuple[bool, int]:
    return data[pos - 1] == _T_TRUE, pos


def _dec_items(data: bytes, pos: int) -> tuple[list, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    items = []
    for _ in range(n):
        item, pos = _DECODERS[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _dec_tuple(data: bytes, pos: int) -> tuple[tuple, int]:
    items, pos = _dec_items(data, pos)
    return tuple(items), pos


def _dtype(data: bytes, pos: int) -> tuple[np.dtype, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    raw = bytes(data[pos : pos + n])
    dtype = _DTYPES.get(raw)
    if dtype is None:
        dtype = np.dtype(raw.decode("utf-8"))
        if len(_DTYPES) < _DTYPES_MAX:
            _DTYPES[raw] = dtype
    return dtype, pos + n


def _dec_array(data: bytes, pos: int) -> tuple[np.ndarray, int]:
    dtype, pos = _dtype(data, pos)
    dims = _dims(data[pos])
    _, *shape, nbytes = dims.unpack_from(data, pos)
    pos += dims.size
    count, ragged = divmod(nbytes, dtype.itemsize)
    if ragged:
        raise WireError(
            f"array body of {nbytes} bytes is not whole {dtype.str!r} items"
        )
    # A view into the frame, then the one copy that makes the array
    # writable and independent of the receive buffer.  (Positional
    # arguments: numpy parses keywords here at several times the cost.)
    arr = np.frombuffer(data, dtype, count, pos)
    if shape != [count]:
        arr = arr.reshape(shape)
    return arr.copy(), pos + nbytes


def _dec_class(data: bytes, pos: int) -> tuple[type, int]:
    ref, pos = _dec_str(data, pos)
    target = _resolve_ref(ref)
    if not isinstance(target, type):
        raise WireError(f"reference {ref!r} is not a class")
    return target, pos


def _dec_dataclass(data: bytes, pos: int) -> tuple[Any, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    # bytes(): a slice of a bytearray frame is unhashable.
    raw_ref = bytes(data[pos : pos + n])
    pos += n
    (count,) = _U32.unpack_from(data, pos)
    decoder = _DATACLASS_DECODERS.get(raw_ref) or _dataclass_decoder(raw_ref)
    return decoder(data, pos + 4, count)


def _dec_other(data: bytes, pos: int) -> tuple[Any, int]:
    """Every tag without a decoder of its own: the rest of the
    vocabulary, which no hot frame carries, and unknown tags."""
    tag = data[pos - 1]
    if tag == _T_BYTES:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        return bytes(data[pos : pos + n]), pos + n
    if tag == _T_COMPLEX:
        (real,) = _F64.unpack_from(data, pos)
        (imag,) = _F64.unpack_from(data, pos + 8)
        return complex(real, imag), pos + 16
    if tag == _T_DICT:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        result = {}
        for _ in range(n):
            key, pos = _DECODERS[data[pos]](data, pos + 1)
            value, pos = _DECODERS[data[pos]](data, pos + 1)
            result[key] = value
        return result, pos
    if tag == _T_SET or tag == _T_FROZENSET:
        items, pos = _dec_items(data, pos)
        return (set(items) if tag == _T_SET else frozenset(items)), pos
    if tag == _T_SCALAR:
        dtype, pos = _dtype(data, pos)
        (nbytes,) = _U32.unpack_from(data, pos)
        pos += 4
        value = np.frombuffer(data[pos : pos + nbytes], dtype=dtype)[0]
        return value, pos + nbytes
    if tag == _T_OBJECT:
        ref, pos = _dec_str(data, pos)
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        cls = _resolve_ref(ref)
        if not isinstance(cls, type):
            raise WireError(f"reference {ref!r} is not a class")
        # Bypass __init__: the wire carries the instance *state*, and
        # constructors may validate/transform their arguments.
        instance = cls.__new__(cls)
        for _ in range(n):
            name, pos = _dec_str(data, pos)
            value, pos = _DECODERS[data[pos]](data, pos + 1)
            object.__setattr__(instance, name, value)
        return instance, pos
    raise WireError(f"unknown wire tag {bytes([tag])!r} at offset {pos - 1}")


def _dec_fields(cls: type, table: dict[bytes, tuple[str, bool]],
                data: bytes, pos: int, count: int,
                kwargs: dict[str, Any] | None = None) -> tuple[Any, int]:
    """The tolerant field list: names in any order, unknown names
    skipped, ``init=False`` fields set after construction.  ``kwargs``
    holds the fields a positional decoder read before it met a name out
    of place; ``count`` fields are left from ``pos``."""
    if kwargs is None:
        kwargs = {}
    deferred = None
    for _ in range(count):
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        raw_name = bytes(data[pos : pos + n])
        pos += n
        value, pos = _DECODERS[data[pos]](data, pos + 1)
        entry = table.get(raw_name)
        if entry is None:
            raw_name.decode("utf-8")  # still has to be a name
            continue  # field removed on this side; tolerate
        if entry[1]:
            kwargs[entry[0]] = value
        else:
            if deferred is None:
                deferred = []
            deferred.append((entry[0], value))
    instance = cls(**kwargs)
    if deferred is not None:
        for name, value in deferred:
            object.__setattr__(instance, name, value)
    return instance, pos


def _dataclass_decoder(raw_ref: bytes) -> Callable[[Any, int, int], tuple[Any, int]]:
    """Resolve ``raw_ref``, check that it names a dataclass, then build,
    register and return its decoder.  The decoder reads a field list in
    declaration order, each name checked in place, and constructs
    positionally; any other field list, and every class that cannot be
    constructed positionally, takes the tolerant :func:`_dec_fields`.
    A reference that fails raises here on every attempt: failures are
    never registered."""
    ref = raw_ref.decode("utf-8")
    cls = _resolve_ref(ref)
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise WireError(f"reference {ref!r} is not a dataclass")
    flds = dataclasses.fields(cls)
    tolerant = functools.partial(
        _dec_fields, cls, {f.name.encode("utf-8"): (f.name, f.init) for f in flds}
    )
    params = inspect.signature(cls).parameters.values()
    if [p.name for p in params] != [f.name for f in flds] or any(
        p.kind is not p.POSITIONAL_OR_KEYWORD for p in params
    ):
        # A field outside ``__init__``, a keyword-only one, or an
        # ``__init__`` that takes something else: build it by name.
        _DATACLASS_DECODERS[raw_ref] = tolerant
        return tolerant
    steps = tuple((name, len(name)) for name in (_str_bytes(f.name) for f in flds))
    names = tuple(f.name for f in flds)
    decoders = _DECODERS

    def dec(data: bytes, pos: int, count: int) -> tuple[Any, int]:
        if count != len(steps):
            return tolerant(data, pos, count)
        values = []
        for name, skip in steps:
            if not data.startswith(name, pos):
                # Go on by name from here.  No value is decoded twice:
                # a nested frame would pay that at every level.
                return tolerant(data, pos, count - len(values), dict(zip(names, values)))
            pos += skip
            value, pos = decoders[data[pos]](data, pos + 1)
            values.append(value)
        return cls(*values), pos

    _DATACLASS_DECODERS[raw_ref] = dec
    return dec


#: Tag byte -> decoder: one of its own for each tag the protocol's
#: frames are made of, :func:`_dec_other` for the rest.
_DECODERS: list[Callable[[Any, int], tuple[Any, int]]] = [_dec_other] * 256
for _tag, _decoder in (
    (_T_NONE, _dec_none), (_T_TRUE, _dec_bool), (_T_FALSE, _dec_bool),
    (_T_INT, _dec_int), (_T_FLOAT, _dec_float), (_T_STR, _dec_str),
    (_T_LIST, _dec_items), (_T_TUPLE, _dec_tuple), (_T_ARRAY, _dec_array),
    (_T_CLASS, _dec_class), (_T_DATACLASS, _dec_dataclass),
):
    _DECODERS[_tag] = _decoder
del _tag, _decoder


# ---------------------------------------------------------------------------
# message framing + checksums
# ---------------------------------------------------------------------------

#: A message frame from its header through the ``payload`` field name
#: is its *envelope*: all that its ``kind``, ``src`` and ``dst`` decide.
#: ``_ENVELOPES`` maps ``(kind, src, dst)`` to the envelope for the
#: encoder; ``_ENVELOPE_KEYS`` maps the envelope of a frame that decoded
#: in full back to that frame's three strings, for the decoder.  Only
#: exact ``str`` fields take part, and each memo is emptied when it
#: reaches ``_ENVELOPES_MAX`` entries.
_ENVELOPES: dict[tuple[str, str, str], bytes] = {}
_ENVELOPE_KEYS: dict[bytes, tuple[str, str, str]] = {}
_ENVELOPES_MAX = 1024
#: The decoder looks for an envelope's end only this far into a frame.
_ENVELOPE_SPAN = 512

_MESSAGE_HEAD = _HEADER + b"D" + _str_bytes(_type_ref(Message)) + _U32.pack(
    len(dataclasses.fields(Message))
)
_KIND, _SRC, _DST, _PAYLOAD, _SIZE = (
    _str_bytes(f.name) for f in dataclasses.fields(Message)
)
_PAYLOAD_LEN, _SIZE_LEN = len(_PAYLOAD), len(_SIZE)


def _envelope(kind: str, src: str, dst: str) -> bytes:
    out = [_MESSAGE_HEAD]
    for name, value in ((_KIND, kind), (_SRC, src), (_DST, dst)):
        out.append(name)
        _enc_str(value, out)
    out.append(_PAYLOAD)
    return b"".join(out)


def encode_message(message: Message) -> bytes:
    """Encode one protocol :class:`Message` into a wire frame body."""
    if type(message) is not Message:
        return encode(message)
    kind, src, dst = key = message.kind, message.src, message.dst
    if type(kind) is not str or type(src) is not str or type(dst) is not str:
        return encode(message)  # a str subclass is not a str on the wire
    envelope = _ENVELOPES.get(key)
    if envelope is None:
        if len(_ENVELOPES) >= _ENVELOPES_MAX:
            _ENVELOPES.clear()
        envelope = _ENVELOPES[key] = _envelope(kind, src, dst)
    out = [envelope]
    payload = message.payload
    _ENCODERS[type(payload)](payload, out)
    out.append(_SIZE)
    size = message.size_bytes
    _ENCODERS[type(size)](size, out)
    return b"".join(out)


def decode_message(data: bytes) -> Message:
    """Decode a frame body back into a :class:`Message`."""
    end = data.find(_PAYLOAD, 0, _ENVELOPE_SPAN) + _PAYLOAD_LEN
    key = _ENVELOPE_KEYS.get(bytes(data[:end]))
    if key is not None:
        # A frame that starts with the envelope of one that decoded in
        # full: only its payload and size are left to read.  Whatever
        # else it holds is the general decoder's to judge.
        try:
            payload, pos = _DECODERS[data[end]](data, end + 1)
            if data.startswith(_SIZE, pos):
                pos += _SIZE_LEN
                size, pos = _DECODERS[data[pos]](data, pos + 1)
                if pos == len(data):
                    return Message(key[0], key[1], key[2], payload, size)
        except Exception:
            pass
    obj = decode(data)
    if not isinstance(obj, Message):
        raise WireError(f"frame decoded to {type(obj).__name__}, not Message")
    key = obj.kind, obj.src, obj.dst
    if type(obj) is Message and all(type(s) is str for s in key):
        envelope = _envelope(*key)
        if len(envelope) <= _ENVELOPE_SPAN and data.startswith(envelope):
            if len(_ENVELOPE_KEYS) >= _ENVELOPES_MAX:
                _ENVELOPE_KEYS.clear()
            _ENVELOPE_KEYS[envelope] = key
    return obj


class _HashSink:
    """An encoder's ``out`` whose ``append`` feeds a hash: the encoding is
    digested piece by piece — an array straight from its own memory —
    and never built."""

    __slots__ = ("append",)

    def __init__(self, h):
        self.append = h.update


def result_checksum(obj: Any) -> str:
    """SHA-256 over the canonical encoding of ``obj``.

    Because the encoding is canonical, the checksum of a run's
    ``group_results`` is comparable across transports: the acceptance
    test for the TCP backend asserts a localhost multi-process run
    produces the same digest as the deterministic simulation.  Result
    voting and spot checks compare this checksum of each iteration's
    outputs, so a change to the encoding is a ``WIRE_VERSION`` bump.
    """
    h = hashlib.sha256(_HEADER)
    _ENCODERS[type(obj)](obj, _HashSink(h))
    return h.hexdigest()
