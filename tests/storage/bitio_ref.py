"""Reference bit I/O: the single-int ``BitWriter``/``BitReader`` oracle.

These are the original label-stream bit classes, kept verbatim as the
oracle for :mod:`repro.storage.encoding`'s buffered ones.  The writer
shifts one ever-growing integer per field and the reader shifts the
whole buffer-sized integer per field, so both cost time quadratic in
the stream; they are too slow for the store and exist only so tests
can prove the buffered classes emit and parse the same bits.

:func:`oracle_codec` swaps the oracle classes into
:mod:`repro.storage.encoding` for the duration of a ``with`` block, so
``encode_labels``/``decode_labels``/``save_labeled`` produce exactly
the bytes the original code did.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.bitstring import BitString
from repro.storage import encoding
from repro.storage.encoding import EncodingError

__all__ = ["BitWriterRef", "BitReaderRef", "oracle_codec"]


class BitWriterRef:
    """Accumulates bits MSB-first in one integer; renders padded bytes."""

    def __init__(self) -> None:
        self._value = 0
        self._bits = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value.bit_length() > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._bits += width

    def write_bitstring(self, code: BitString) -> None:
        self.write(code.value, len(code))

    def write_bits_text(self, text: str) -> None:
        if text:
            self.write_bitstring(BitString.from_str(text))

    def bit_length(self) -> int:
        return self._bits

    def to_bytes(self) -> bytes:
        padding = (-self._bits) % 8
        total = self._bits + padding
        if total == 0:
            return b""
        return (self._value << padding).to_bytes(total // 8, "big")


class BitReaderRef:
    """Reads MSB-first bits by shifting the whole buffer as one integer."""

    def __init__(self, data: bytes) -> None:
        self._total_bits = len(data) * 8
        self._packed = int.from_bytes(data, "big") if data else 0
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def remaining(self) -> int:
        return self._total_bits - self._position

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        position = self._position
        if self._total_bits - position < width:
            raise EncodingError(
                f"label stream truncated: needed {width} bits at offset "
                f"{position}, have {self._total_bits - position}"
            )
        end = position + width
        self._position = end
        return (self._packed >> (self._total_bits - end)) & ((1 << width) - 1)

    def read_bitstring(self, width: int) -> BitString:
        return BitString(self.read(width), width)


@contextmanager
def oracle_codec() -> Iterator[None]:
    """Run the label stream codecs on the oracle bit classes."""
    saved = encoding.BitWriter, encoding.BitReader
    encoding.BitWriter, encoding.BitReader = BitWriterRef, BitReaderRef
    try:
        yield
    finally:
        encoding.BitWriter, encoding.BitReader = saved
