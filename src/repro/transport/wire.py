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
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import struct
from typing import Any

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
ALLOWED_REF_ROOTS = ("repro", "tests", "benchmarks")

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


class WireError(Exception):
    """Raised for unencodable values, bad headers, or corrupt buffers."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

#: Per-class encode plans, compiled on first use: the pre-encoded
#: ``D`` + reference + field-count head and, per field, the pre-encoded
#: name and the attribute to read.  Everything here is constant per
#: class; only classes that passed :func:`_type_ref` are entered.
_ENC_PLANS: dict[type, tuple[bytes, tuple[tuple[bytes, str], ...]]] = {}


def encode(obj: Any) -> bytes:
    """Encode ``obj`` into canonical, versioned wire bytes."""
    out = bytearray(_HEADER)
    _enc(obj, out)
    return bytes(out)


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


def _compile_enc_plan(cls: type) -> tuple[bytes, tuple[tuple[bytes, str], ...]]:
    flds = dataclasses.fields(cls)
    head = b"D" + _str_bytes(_type_ref(cls)) + _U32.pack(len(flds))
    plan = _ENC_PLANS[cls] = (head, tuple((_str_bytes(f.name), f.name) for f in flds))
    return plan


def _enc(obj: Any, out: bytearray) -> None:
    # Exact-type tests first, most frequent first; everything below the
    # plan lookup is rare on the protocol's frames.  ``out`` may be a
    # :class:`_HashSink`: only ``+=``, ``extend`` and ``append`` touch it.
    t = type(obj)
    if t is str:
        raw = obj.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(raw))
        out += raw
        return
    if t is int:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += b"i"
        out += _U32.pack(len(raw))
        out += raw
        return
    if t is float:
        out += b"f"
        out += _F64.pack(obj)
        return
    plan = _ENC_PLANS.get(t)
    if plan is not None:
        out += plan[0]
        for name, attr in plan[1]:
            out += name
            _enc(getattr(obj, attr), out)
        return
    if obj is None:
        out += b"N"
        return
    if obj is True:
        out += b"T"
        return
    if obj is False:
        out += b"F"
        return
    if t is list or t is tuple:
        out += b"l" if t is list else b"t"
        out += _U32.pack(len(obj))
        for item in obj:
            _enc(item, out)
        return
    if t is bytes:
        out += b"b"
        out += _U32.pack(len(obj))
        out += obj
        return
    if t is complex:
        out += b"c"
        out += _F64.pack(obj.real)
        out += _F64.pack(obj.imag)
        return
    if t is dict:
        pairs = []
        for key, value in obj.items():
            kb = bytearray()
            _enc(key, kb)
            vb = bytearray()
            _enc(value, vb)
            pairs.append((bytes(kb), bytes(vb)))
        pairs.sort(key=lambda p: p[0])
        out += b"d"
        out += _U32.pack(len(pairs))
        for kb, vb in pairs:
            out += kb
            out += vb
        return
    if t is set or t is frozenset:
        items = []
        for item in obj:
            ib = bytearray()
            _enc(item, ib)
            items.append(bytes(ib))
        items.sort()
        out += b"x" if t is set else b"X"
        out += _U32.pack(len(items))
        for ib in items:
            out += ib
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise WireError("object-dtype ndarrays are not wire-encodable")
        arr = np.ascontiguousarray(obj)
        out += b"a"
        out += _str_bytes(arr.dtype.str)
        out.append(arr.ndim)
        for dim in arr.shape:
            out += _U64.pack(dim)
        out += _U64.pack(arr.nbytes)
        # Buffer protocol: the body is copied once, straight out of the
        # array's memory (``tobytes()`` would build a throwaway copy;
        # ``out += arr`` would be numpy's broadcasting add).
        out.extend(arr)
        return
    if isinstance(obj, np.generic):
        out += b"y"
        out += _str_bytes(obj.dtype.str)
        raw = obj.tobytes()
        out += _U32.pack(len(raw))
        out += raw
        return
    if isinstance(obj, type):
        out += b"C"
        out += _str_bytes(_type_ref(obj))
        return
    if dataclasses.is_dataclass(obj):
        # First instance of this class: compile its plan, then take the
        # planned branch above (a class that fails the allow-list raises
        # here on every attempt — failures are never cached).
        _compile_enc_plan(t)
        _enc(obj, out)
        return
    if callable(obj):
        raise WireError(
            f"cannot encode callable {obj!r}: discovery predicates must be "
            "declarative — use repro.p2p.advertisement.AttrPredicate"
        )
    if hasattr(obj, "__dict__"):
        # Plain (non-dataclass) protocol objects — e.g. ``TableData`` —
        # travel as class-ref + instance state, attrs sorted by name so
        # the encoding stays canonical.  The allowlist check inside
        # ``_type_ref`` is the gate.
        out += b"O"
        out += _str_bytes(_type_ref(t))
        attrs = sorted(vars(obj).items())
        out += _U32.pack(len(attrs))
        for name, value in attrs:
            out += _str_bytes(name)
            _enc(value, out)
        return
    raise WireError(f"type {t.__module__}.{t.__qualname__} is not wire-encodable")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

#: ``module:qualname`` -> resolved object.  Only successful resolutions
#: are kept, so a reference outside the allow-list raises every time.
_REFS: dict[str, Any] = {}

#: Decode plans keyed by the raw reference bytes of a ``D`` value: the
#: class (resolved, allow-listed and checked once) and its field table
#: keyed by raw name bytes -> (name, takes part in ``__init__``).
_DEC_PLANS: dict[bytes, tuple[type, dict[bytes, tuple[str, bool]]]] = {}

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
        obj, pos = _dec(data, 4)
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


def _compile_dec_plan(raw_ref: bytes) -> tuple[type, dict[bytes, tuple[str, bool]]]:
    ref = raw_ref.decode("utf-8")
    cls = _resolve_ref(ref)
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise WireError(f"reference {ref!r} is not a dataclass")
    table = {f.name.encode("utf-8"): (f.name, f.init) for f in dataclasses.fields(cls)}
    plan = _DEC_PLANS[raw_ref] = (cls, table)
    return plan


def _dec(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        return data[pos : pos + n].decode("utf-8"), pos + n
    if tag == _T_INT:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        return int.from_bytes(data[pos : pos + n], "big", signed=True), pos + n
    if tag == _T_FLOAT:
        (value,) = _F64.unpack_from(data, pos)
        return value, pos + 8
    if tag == _T_DATACLASS:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        # bytes(): a slice of a bytearray frame is unhashable.
        raw_ref = bytes(data[pos : pos + n])
        pos += n
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        cls, table = _DEC_PLANS.get(raw_ref) or _compile_dec_plan(raw_ref)
        kwargs = {}
        deferred = None
        for _ in range(count):
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
            raw_name = bytes(data[pos : pos + n])
            value, pos = _dec(data, pos + n)
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
    if tag == _T_TUPLE or tag == _T_LIST:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_ARRAY:
        dtype_str, pos = _dec_str(data, pos)
        ndim = data[pos]
        pos += 1
        shape = []
        for _ in range(ndim):
            (dim,) = _U64.unpack_from(data, pos)
            pos += 8
            shape.append(dim)
        (nbytes,) = _U64.unpack_from(data, pos)
        pos += 8
        dtype = np.dtype(dtype_str)
        count, ragged = divmod(nbytes, dtype.itemsize)
        if ragged:
            raise WireError(
                f"array body of {nbytes} bytes is not whole {dtype_str!r} items"
            )
        # A view into the frame, then the one copy that makes the array
        # writable and independent of the receive buffer.
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        return arr.reshape(shape).copy(), pos + nbytes
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
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
            key, pos = _dec(data, pos)
            value, pos = _dec(data, pos)
            result[key] = value
        return result, pos
    if tag == _T_SET or tag == _T_FROZENSET:
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (set(items) if tag == _T_SET else frozenset(items)), pos
    if tag == _T_SCALAR:
        dtype_str, pos = _dec_str(data, pos)
        (nbytes,) = _U32.unpack_from(data, pos)
        pos += 4
        value = np.frombuffer(data[pos : pos + nbytes], dtype=np.dtype(dtype_str))[0]
        return value, pos + nbytes
    if tag == _T_CLASS:
        ref, pos = _dec_str(data, pos)
        target = _resolve_ref(ref)
        if not isinstance(target, type):
            raise WireError(f"reference {ref!r} is not a class")
        return target, pos
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
            value, pos = _dec(data, pos)
            object.__setattr__(instance, name, value)
        return instance, pos
    raise WireError(f"unknown wire tag {bytes([tag])!r} at offset {pos - 1}")


# ---------------------------------------------------------------------------
# message framing + checksums
# ---------------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """Encode one protocol :class:`Message` into a wire frame body."""
    return encode(message)


def decode_message(data: bytes) -> Message:
    """Decode a frame body back into a :class:`Message`."""
    obj = decode(data)
    if not isinstance(obj, Message):
        raise WireError(f"frame decoded to {type(obj).__name__}, not Message")
    return obj


class _HashSink:
    """The three things :func:`_enc` does to its ``bytearray``, done to a
    hash instead: the encoding is digested piece by piece, never built."""

    __slots__ = ("extend",)

    def __init__(self, h):
        # ``extend(arr)`` hands the hash the array's own memory.
        self.extend = h.update

    def __iadd__(self, data):
        self.extend(data)
        return self

    def append(self, byte: int) -> None:
        self.extend(bytes((byte,)))


def result_checksum(obj: Any) -> str:
    """SHA-256 over the canonical encoding of ``obj``.

    Because the encoding is canonical, the checksum of a run's
    ``group_results`` is comparable across transports: the acceptance
    test for the TCP backend asserts a localhost multi-process run
    produces the same digest as the deterministic simulation.
    """
    h = hashlib.sha256(_HEADER)
    _enc(obj, _HashSink(h))
    return h.hexdigest()
