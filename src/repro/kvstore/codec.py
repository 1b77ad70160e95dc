"""Order-preserving key codecs.

DyTIS (like the paper's other indexes) takes fixed-width integer keys.
Applications have strings, tuples, and small namespaced records.  A
codec maps an application key to an integer such that application-order
equals integer-order, so the index's scans remain meaningful.

- :class:`UintCodec` -- bounded unsigned integers (identity).
- :class:`StringCodec` -- short byte strings / text, big-endian packed;
  lexicographic order preserved for the encoded prefix length.
- :class:`CompositeCodec` -- tuples of codecs packed into disjoint bit
  fields, ordered lexicographically by component (how the paper's
  Review keys concatenate item/user/time).
"""

from __future__ import annotations

import json
from typing import Any, Sequence, Tuple, Union


class CodecError(ValueError):
    """The application key cannot be represented by this codec."""


def dump_value(value: Any) -> bytes:
    """Canonical value encoding: compact JSON bytes.

    This is the one value codec of the whole system -- the snapshot
    layer, the WAL record format, and the network wire protocol all
    carry values in exactly this encoding, so bytes can flow between
    those layers without re-encoding.  Ints dominate KV benchmarks;
    ``str(int)`` is valid JSON and ~3x cheaper than the encoder (bool
    is excluded: ``str(True)`` is not).
    """
    if type(value) is int:
        return str(value).encode("ascii")
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def load_value(data: bytes) -> Any:
    """Inverse of :func:`dump_value`.

    Mirrors its int fast path: all-digit bytes with no leading zero are
    exactly what ``str(int)`` emits for a non-negative int, and exactly
    the digit strings JSON accepts (``"007"`` is not JSON), so the fast
    path decodes nothing ``json.loads`` would refuse.
    """
    if data.isdigit() and (data[0] != 0x30 or len(data) == 1):
        return int(data)
    return json.loads(data.decode("utf-8"))


class KeyCodec:
    """Order-preserving mapping between application keys and integers."""

    #: Width of the encoded key in bits.
    bits: int = 64

    def encode(self, key) -> int:
        raise NotImplementedError

    def decode(self, value: int):
        raise NotImplementedError


class UintCodec(KeyCodec):
    """Unsigned integers below 2^bits; encoding is the identity."""

    def __init__(self, bits: int = 64):
        if not 1 <= bits <= 64:
            raise ValueError("bits must be in [1, 64]")
        self.bits = bits
        self._limit = 1 << bits

    def encode(self, key: int) -> int:
        # A plain in-range int answers on the first test.
        if type(key) is int and 0 <= key < self._limit:
            return key
        if not isinstance(key, int) or isinstance(key, bool):
            raise CodecError(f"expected int, got {type(key).__name__}")
        if not 0 <= key < self._limit:
            raise CodecError(f"{key} out of range [0, 2^{self.bits})")
        return key  # an in-range int subclass

    def decode(self, value: int) -> int:
        return value


class StringCodec(KeyCodec):
    """Short strings, big-endian byte-packed; lexicographic order kept.

    ``max_length`` bytes fit into ``8 * max_length`` bits.  Strings are
    padded with zero bytes on the right, so ``"ab" < "ab\\x01"`` holds in
    encoded space, matching bytewise lexicographic order for inputs
    without NUL bytes.  Decoding strips the padding.
    """

    def __init__(self, max_length: int = 8, encoding: str = "utf-8"):
        if not 1 <= max_length <= 8:
            raise ValueError("max_length must be in [1, 8] bytes")
        self.max_length = max_length
        self.encoding = encoding
        self.bits = 8 * max_length

    def encode(self, key: Union[str, bytes]) -> int:
        raw = key.encode(self.encoding) if isinstance(key, str) else bytes(key)
        if len(raw) > self.max_length:
            raise CodecError(
                f"key of {len(raw)} bytes exceeds max_length={self.max_length}"
            )
        if b"\x00" in raw:
            raise CodecError("NUL bytes are reserved for padding")
        return int.from_bytes(raw.ljust(self.max_length, b"\x00"), "big")

    def decode(self, value: int) -> str:
        raw = value.to_bytes(self.max_length, "big").rstrip(b"\x00")
        return raw.decode(self.encoding)


class CompositeCodec(KeyCodec):
    """Tuples packed into disjoint bit fields, most significant first.

    Component order dominates (lexicographic tuple order), exactly like
    the paper's Review keys: ``CompositeCodec(UintCodec(24),
    UintCodec(24), UintCodec(16))`` reproduces (item | user | time).
    """

    def __init__(self, *components: KeyCodec):
        if not components:
            raise ValueError("need at least one component codec")
        total = sum(c.bits for c in components)
        if total > 64:
            raise ValueError(f"components need {total} bits; only 64 available")
        self.components: Tuple[KeyCodec, ...] = tuple(components)
        self.bits = total

    def encode(self, key: Sequence) -> int:
        if len(key) != len(self.components):
            raise CodecError(
                f"expected {len(self.components)} components, got {len(key)}"
            )
        value = 0
        for codec, part in zip(self.components, key):
            value = (value << codec.bits) | codec.encode(part)
        return value

    def decode(self, value: int) -> tuple:
        parts = []
        for codec in reversed(self.components):
            mask = (1 << codec.bits) - 1
            parts.append(codec.decode(value & mask))
            value >>= codec.bits
        return tuple(reversed(parts))
