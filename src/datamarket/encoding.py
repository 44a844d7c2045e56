"""Canonical binary encoding: the field codecs every format is built from.

Wire format used everywhere bytes are hashed or signed: a one-byte message
type tag followed by each field in declared order as a 4-byte big-endian
length prefix plus the field bytes. Integers are 8-byte big-endian inside
their field; sets are written in ascending order.

Each codec writes one kind of value and reads it back. A `Layout` is a fixed
sequence of codecs: a message type's fields, an event kind's payload, the
payload plaintext. On first use it compiles, as `dataclasses` generates an
`__init__`, one straight-line reader and one writer from its codecs alone.
The reader splits each field off with one `unpack_from` and one bounds
check, and builds its value in place: a fixed-size field, an enum byte or
an integer by inline code, a nested message by reading its fields from the
same buffer, anything else by the codec's `from_bytes`. It reads a counted
list's items in one loop. The writer appends each field's length prefix and
bytes to one buffer. Addresses, commitments and public keys are plain
`bytes` of a fixed size, which their codec checks on write and on read, so
nothing of the wrong size is signed or journaled. Every read raises only
`EncodingError` and accepts only the bytes its write produces, so whatever
decodes re-encodes to its input.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Optional

from .crypto import ADDRESS_LEN, DIGEST_LEN, PUBLIC_KEY_LEN
from .errors import EncodingError

LENGTH = struct.Struct(">I")  # every field's length prefix
_unpack, _pack = LENGTH.unpack_from, LENGTH.pack
_U64 = struct.Struct(">Q")
_u64 = _U64.unpack_from  # for inline reads
UINT_MAX = 2**64 - 1  # the largest integer a field can hold
_NO_PREFIX = "truncated stream: expected length prefix"
_SHORT_FIELD = "truncated stream: field shorter than prefix"


def encode_uint(value: int) -> bytes:
    if value < 0 or value > UINT_MAX:
        raise EncodingError(f"integer out of range: {value}")
    return _U64.pack(value)


def decode_uint(data: bytes) -> int:
    if len(data) != 8:
        raise EncodingError(f"expected 8-byte integer, got {len(data)} bytes")
    return _U64.unpack(data)[0]


def write_field(out: bytearray, data: bytes) -> None:
    out += _pack(len(data))
    out += data


def write_uint_field(out: bytearray, value: int) -> None:
    write_field(out, encode_uint(value))


def field_end(data: bytes, pos: int) -> int:
    """The position after the field at `pos` of `data`."""
    try:
        end = pos + 4 + _unpack(data, pos)[0]
    except struct.error:
        raise EncodingError(_NO_PREFIX) from None
    if end > len(data):
        raise EncodingError(_SHORT_FIELD)
    return end


class Codec:
    """One value as one field: `to_bytes` gives the field's bytes for a
    value and `from_bytes` the value back from them; without `from_bytes`
    the value is the field's bytes. A generated reader runs instead the lines
    `inline`, if any: they set `{v}` to the value of `data[start:pos]`, name
    `from_bytes` `{c}` and `arg` (an enum's table of members) `{a}`, hold no
    other brace, and leave to `{c}` any field they do not convert, so they
    raise as it does."""

    def __init__(self, to_bytes: Callable, from_bytes=None, inline: tuple = (), arg=None):
        self.to_bytes, self.from_bytes, self.inline, self.arg = to_bytes, from_bytes, inline, arg


class ListOf:
    """A u64 count field, then one `item` field per value."""

    def __init__(self, item: Codec):
        self.item = item


class SetOf(ListOf):
    """A list written in ascending `key` order; a read rejects items that
    are out of order or repeated."""

    def __init__(self, item: Codec, key: Callable):
        super().__init__(item)
        self.key = key


def require_ascending(keys: list) -> None:
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise EncodingError("set items are not in strictly ascending order")


class Layout:
    """A fixed sequence of codecs, one per value, written back to back. The
    values are a tuple, by position, or with `names` one object's
    attributes. `read(data, pos=0, end=None, into=None)` gives the values
    encoded from `pos` to `end`, by default the end of `data`, or with
    `names` stores them by name in the dict `into`; `write(out, values)`
    appends their encoding to the bytearray `out`. Each is generated on
    first use."""

    def __init__(self, codecs, names: Optional[tuple] = None):
        self.codecs, self.names = tuple(codecs), names

    def __getattr__(self, name: str):
        # Reached only while `read` or `write` is not yet an instance attribute.
        if name not in ("read", "write"):
            raise AttributeError(name)
        namespace = dict(globals())  # and codec i's c<i>, t<i>, a<i> and k<i>
        for i, codec in enumerate(self.codecs):
            item = getattr(codec, "item", codec)
            namespace.update({f"c{i}": item.from_bytes, f"t{i}": item.to_bytes, f"a{i}": item.arg})
            namespace[f"k{i}"] = getattr(codec, "key", None)
        lines = _read_source(self) if name == "read" else _write_source(self)
        code = compile("\n".join(lines), f"<{name} layout of {len(self.codecs)} fields>", "exec")
        exec(code, namespace)
        setattr(self, name, namespace[name])
        return namespace[name]

    def encode(self, values, prefix: bytes = b"") -> bytes:
        out = bytearray(prefix)
        self.write(out, values)
        return bytes(out)


# How a generated reader splits off the field at `pos`; a prefix that
# would run past `end` is missing, as it is from the bytes up to `end`.
_SPLIT = ["start = pos + 4", "pos = start + _unpack(data, pos)[0]"]
_SPLIT += ["if pos > end:", "    raise EncodingError(_SHORT_FIELD if start <= end else _NO_PREFIX)"]


def _convert(item: Codec, i: int, target: str) -> list:
    """How a generated reader sets `target` to codec `item`'s value of `data[start:pos]`."""
    if item.inline:
        return [line.format(v=target, c=f"c{i}", a=f"a{i}") for line in item.inline]
    field = "data[start:pos]" if item.from_bytes is None else f"c{i}(data[start:pos])"
    return [f"{target} = {field}"]


def _read_source(layout: Layout) -> list:
    body = []
    for i, codec in enumerate(layout.codecs):
        item = getattr(codec, "item", codec)
        if item is codec:
            body += [*_SPLIT, *_convert(item, i, f"v{i}")]
            continue
        body += _SPLIT + [
            "count = decode_uint(data[start:pos])",
            "if count > (end - pos) // 4:  # each item takes at least its length prefix",
            '    raise EncodingError(f"truncated stream: {count} items announced")',
            f"v{i} = []",
            "for _ in range(count):",
            *("    " + line for line in _SPLIT + _convert(item, i, "item")),
            f"    v{i}.append(item)",
        ]
        if isinstance(codec, SetOf):
            body.append(f"require_ascending([k{i}(item) for item in v{i}])")
    tail = [f"return [{', '.join(f'v{i}' for i in range(len(layout.codecs)))}]"]
    if layout.names is not None:
        stores = [f"into[{name!r}] = v{i}" for i, name in enumerate(layout.names)]
        tail = ["if into is None:", "    " + tail[0], *stores, "return into"]
    return [
        "def read(data, pos=0, end=None, into=None):",
        "    end = len(data) if end is None else end",
        "    try:",
        *("        " + line for line in body),
        "    except struct.error:",
        "        raise EncodingError(_NO_PREFIX) from None",
        "    if pos != end:",
        '        raise EncodingError(f"{end - pos} trailing bytes after message")',
        *("    " + line for line in tail),
    ]


def _write_source(layout: Layout) -> list:
    body = []
    for i, codec in enumerate(layout.codecs):
        value = f"v[{i}]" if layout.names is None else f"v.{layout.names[i]}"
        item, indent = getattr(codec, "item", codec), ""
        if item is not codec:
            value = f"sorted({value}, key=k{i})" if isinstance(codec, SetOf) else value
            body += [f"items = {value}", "out += _pack(8)", "out += encode_uint(len(items))"]
            body.append("for item in items:")
            value, indent = "item", "    "
        data = value if item.to_bytes is _same else f"t{i}({value})"
        body += [indent + line for line in (f"data = {data}", "out += _pack(len(data))", "out += data")]
    return ["def write(out, v):", *("    " + line for line in body)]


def _decode_utf8(data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise EncodingError(f"invalid UTF-8: {exc.reason}") from None


def _decode_flag(data: bytes) -> bool:
    value = decode_uint(data)
    if value > 1:
        raise EncodingError(f"flag must be 0 or 1, got {value}")
    return value == 1


def _decode_enum(name: str, members: dict, data: bytes):
    member = members.get(data)
    if member is None:
        raise EncodingError(f"no {name} is encoded as {data.hex() or 'no bytes'}")
    return member


def _sized(size: int, *convert: str) -> tuple:
    """Inline lines that run `convert` on a field of `size` bytes and leave any other to `{c}`."""
    otherwise = ("else:", "    {v} = {c}(data[start:pos])")
    return (f"if pos - start == {size}:", *("    " + line for line in convert), *otherwise)


def _fixed(name: str, size: int) -> Codec:
    """Bytes of exactly `size`, checked on write and on read."""

    def check(data: bytes) -> bytes:
        if len(data) != size:
            raise EncodingError(f"{name} must be {size} bytes, got {len(data)}")
        return data

    return Codec(check, check, _sized(size, "{v} = data[start:pos]"))


def enum_byte(cls) -> Codec:
    """A member of the enum `cls` as its one-byte value, read back by table."""
    members = {bytes([member.value]): member for member in cls}
    decode = functools.partial(_decode_enum, cls.__name__, members)
    inline = ("{v} = {a}.get(data[start:pos])", "if {v} is None:", "    {v} = {c}(data[start:pos])")
    return Codec(lambda member: bytes([member.value]), decode, inline, members)


def nested(cls) -> Codec:
    """A message written by its `encode` and read in place by `cls.decode(data, start, end)`."""
    return Codec(cls.encode, cls.decode, ("{v} = {c}(data, start, pos)",))


def _same(data: bytes) -> bytes:
    return data


RAW = Codec(_same)
U64 = Codec(encode_uint, decode_uint, _sized(8, "{v} = _u64(data, start)[0]"))
UTF8 = Codec(str.encode, _decode_utf8)
FLAG = Codec(lambda value: encode_uint(1 if value else 0), _decode_flag)
ADDRESS = _fixed("address", ADDRESS_LEN)
COMMITMENT = _fixed("commitment", DIGEST_LEN)
PUBLIC_KEY = _fixed("public key", PUBLIC_KEY_LEN)  # as `crypto.generate_keypair` writes a key
