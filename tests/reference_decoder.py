"""The generic decoder that the generated layout readers replace, kept as
their reference.

`read` walks a layout's codecs in one loop: a `Codec` takes one field,
split off with one bounds check, and converts its bytes by `from_bytes` if
it has one; a `ListOf` reads a u64 count, then that many items, and a
`SetOf` then checks that their keys ascend. It raises only `EncodingError`,
with the texts the generated readers use, and requires the layout to end
exactly at the end of the data.
"""

import itertools
import struct

from datamarket.encoding import U64, Codec, SetOf, require_ascending
from datamarket.errors import EncodingError

_LEN = struct.Struct(">I")


class Reader:
    """Sequential reader over a canonical byte stream."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self._pos = pos
        self._end = len(data)

    def read(self, codecs) -> list:
        """One value per codec, in order."""
        data, pos, end = self._data, self._pos, self._end
        values = []
        try:
            for codec in codecs:
                if codec.__class__ is not Codec:
                    self._pos = pos
                    values.append(read_list(self, codec))
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


def read_list(r: Reader, codec) -> list:
    (count,) = r.read((U64,))
    if count > r.remaining() // 4:  # each item takes at least its length prefix
        raise EncodingError(f"truncated stream: {count} items announced")
    items = r.read(itertools.repeat(codec.item, count))
    if isinstance(codec, SetOf):
        require_ascending([codec.key(item) for item in items])
    return items


def read(codecs, data: bytes, pos: int = 0) -> list:
    """The values `codecs` read from `pos` to the end of `data`."""
    r = Reader(data, pos)
    values = r.read(codecs)
    r.expect_end()
    return values
