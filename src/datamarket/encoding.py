"""Canonical binary encoding: the field codecs every format is built from.

Wire format used everywhere bytes are hashed or signed: a one-byte message
type tag followed by each field in declared order as a 4-byte big-endian
length prefix plus the field bytes. Integers are 8-byte big-endian inside
their field; sets are written in ascending order.

Each codec writes one kind of value and reads it back. Every layout, of
messages, lists and journal payloads alike, is read by `Reader.read`: it
splits each field off with one bounds check and converts its bytes only
if its codec has a `from_bytes`. Every read raises only `EncodingError`
and accepts only the bytes its write produces, so whatever decodes
re-encodes to its input.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Callable, Optional

from .crypto import ADDRESS_LEN, DIGEST_LEN, PUBLIC_KEY_LEN, Address, Commitment
from .errors import EncodingError

_LEN = struct.Struct(">I")
_U64 = struct.Struct(">Q")
UINT_MAX = 2**64 - 1  # the largest integer a field can hold


def encode_uint(value: int) -> bytes:
    if value < 0 or value > UINT_MAX:
        raise EncodingError(f"integer out of range: {value}")
    return _U64.pack(value)


def decode_uint(data: bytes) -> int:
    if len(data) != 8:
        raise EncodingError(f"expected 8-byte integer, got {len(data)} bytes")
    return _U64.unpack(data)[0]


def write_field(out: bytearray, data: bytes) -> None:
    out += _LEN.pack(len(data))
    out += data


def write_uint_field(out: bytearray, value: int) -> None:
    write_field(out, encode_uint(value))


class Reader:
    """Sequential reader over a canonical byte stream."""

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos
        self._end = len(data)

    def read(self, codecs) -> list:
        """One value per codec, in order: the decoder of every layout. A
        `Codec` takes one field, split off with one bounds check, and converts
        its bytes by `from_bytes` if it has one; a `ListOf` reads itself."""
        data, pos, end = self._data, self._pos, self._end
        values = []
        try:
            for codec in codecs:
                if codec.__class__ is not Codec:
                    self._pos = pos
                    values.append(codec.read(self))
                    pos = self._pos
                    continue
                start = pos + 4
                pos = start + _LEN.unpack_from(data, start - 4)[0]
                if pos > end:
                    raise EncodingError("truncated stream: field shorter than prefix")
                convert = codec.from_bytes
                values.append(data[start:pos] if convert is None else convert(data[start:pos]))
        except struct.error:
            raise EncodingError("truncated stream: expected length prefix") from None
        self._pos = pos
        return values

    def remaining(self) -> int:
        return self._end - self._pos

    def expect_end(self) -> None:
        if self._pos != self._end:
            raise EncodingError(f"{self.remaining()} trailing bytes after message")


class Codec:
    """One value as one field: `to_bytes` gives the field's bytes for a
    value and `from_bytes` the value back from them; without `from_bytes`
    the value is the field's bytes."""

    def __init__(self, to_bytes: Callable, from_bytes: Optional[Callable] = None):
        self.to_bytes, self.from_bytes = to_bytes, from_bytes

    def write(self, out: bytearray, value) -> None:
        write_field(out, self.to_bytes(value))


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


def _decode_fixed(cls, size: int, data: bytes):
    if len(data) != size:
        raise EncodingError(f"{cls.__name__} must be {size} bytes, got {len(data)}")
    return cls(data)


def _decode_public_key(data: bytes) -> bytes:
    if len(data) != PUBLIC_KEY_LEN:
        raise EncodingError(f"public key must be {PUBLIC_KEY_LEN} bytes, got {len(data)}")
    return data


def enum_byte(cls) -> Codec:
    """A member of the enum `cls` as its one-byte value, read back by table."""
    members = {bytes([member.value]): member for member in cls}
    decode = functools.partial(_decode_enum, cls.__name__, members)
    return Codec(lambda member: bytes([member.value]), decode)


def nested(cls) -> Codec:
    """A message written by its `encode` and read back by `cls.decode`."""
    return Codec(cls.encode, cls.decode)


class ListOf:
    """A u64 count field, then one `item` per value."""

    def __init__(self, item: Codec):
        self.item = item

    def write(self, out: bytearray, values) -> None:
        write_uint_field(out, len(values))
        for value in values:
            self.item.write(out, value)

    def read(self, r: Reader) -> list:
        (count,) = r.read((U64,))
        if count > r.remaining() // 4:  # each item takes at least its length prefix
            raise EncodingError(f"truncated stream: {count} items announced")
        return r.read(itertools.repeat(self.item, count))


class SetOf(ListOf):
    """A list written in ascending `key` order; a read rejects items that
    are out of order or repeated."""

    def __init__(self, item: Codec, key: Callable):
        super().__init__(item)
        self.key = key

    def write(self, out: bytearray, values) -> None:
        super().write(out, sorted(values, key=self.key))

    def read(self, r: Reader) -> list:
        items = super().read(r)
        require_ascending([self.key(item) for item in items])
        return items


def require_ascending(keys: list) -> None:
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise EncodingError("set items are not in strictly ascending order")


class Fields:
    """A fixed sequence of codecs, one per value, written back to back."""

    def __init__(self, *codecs: Codec):
        self.codecs = codecs

    def encode(self, *values) -> bytes:
        out = bytearray()
        for codec, value in zip(self.codecs, values):
            codec.write(out, value)
        return bytes(out)

    def decode(self, r: Reader) -> list:
        return r.read(self.codecs)


def _same(data: bytes) -> bytes:
    return data


RAW = Codec(_same)
U64 = Codec(encode_uint, decode_uint)
UTF8 = Codec(str.encode, _decode_utf8)
FLAG = Codec(lambda value: encode_uint(1 if value else 0), _decode_flag)
ADDRESS = Codec(lambda a: a.bytes, functools.partial(_decode_fixed, Address, ADDRESS_LEN))
COMMITMENT = Codec(lambda c: c.digest, functools.partial(_decode_fixed, Commitment, DIGEST_LEN))
PUBLIC_KEY = Codec(_same, _decode_public_key)  # as `crypto.generate_keypair` writes a key
