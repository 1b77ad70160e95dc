"""Property-based tests for the order-preserving key codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import CodecError, CompositeCodec, StringCodec, UintCodec

_short_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x7F),
    max_size=4,
).filter(lambda s: len(s.encode()) <= 4)


@given(st.lists(_short_text, min_size=2, max_size=20, unique=True))
@settings(max_examples=200, deadline=None)
def test_string_codec_order_preserving(words):
    codec = StringCodec(max_length=4)
    by_bytes = sorted(words, key=lambda w: w.encode())
    by_code = sorted(words, key=codec.encode)
    assert by_code == by_bytes


@given(_short_text)
@settings(max_examples=200, deadline=None)
def test_string_codec_roundtrip(word):
    codec = StringCodec(max_length=4)
    assert codec.decode(codec.encode(word)) == word


@given(
    st.lists(
        st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1)),
        min_size=2,
        max_size=20,
        unique=True,
    )
)
@settings(max_examples=200, deadline=None)
def test_composite_codec_lexicographic(tuples):
    codec = CompositeCodec(UintCodec(12), UintCodec(12))
    assert sorted(tuples, key=codec.encode) == sorted(tuples)


@given(st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1)))
@settings(max_examples=200, deadline=None)
def test_composite_codec_roundtrip(t):
    codec = CompositeCodec(UintCodec(12), UintCodec(12))
    assert codec.decode(codec.encode(t)) == t


@given(st.integers(0, 2**20 - 1))
@settings(max_examples=100, deadline=None)
def test_uint_codec_identity(value):
    codec = UintCodec(20)
    assert codec.encode(value) == value
    assert codec.decode(value) == value


# ---------------------------------------------------------------------------
# Boundary widths, empty strings, and rejection properties
# ---------------------------------------------------------------------------


@given(st.integers(1, 64), st.data())
@settings(max_examples=200, deadline=None)
def test_uint_codec_roundtrip_any_width(bits, data):
    """Round-trip holds at every width, including the 1- and 64-bit ends."""
    codec = UintCodec(bits)
    value = data.draw(st.integers(0, 2**bits - 1))
    assert codec.decode(codec.encode(value)) == value


@pytest.mark.parametrize("bits", [1, 64])
def test_uint_codec_boundary_widths(bits):
    codec = UintCodec(bits)
    top = 2**bits - 1
    assert codec.encode(0) == 0
    assert codec.decode(codec.encode(top)) == top
    with pytest.raises(CodecError):
        codec.encode(2**bits)


@given(st.integers())
@settings(max_examples=200, deadline=None)
def test_uint_codec_rejects_out_of_range(value):
    codec = UintCodec(16)
    if 0 <= value < 2**16:
        assert codec.encode(value) == value
    else:
        with pytest.raises(CodecError):
            codec.encode(value)


def test_uint_codec_rejects_non_ints():
    codec = UintCodec(16)
    for bad in ("7", 7.0, True, None):
        with pytest.raises(CodecError):
            codec.encode(bad)


def test_string_codec_empty_string_roundtrip():
    """The empty string is a legal key and sorts before everything."""
    codec = StringCodec(max_length=4)
    assert codec.encode("") == 0
    assert codec.decode(codec.encode("")) == ""
    assert codec.encode("") < codec.encode("\x01")


@given(st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_string_codec_roundtrip_any_max_length(max_length, data):
    codec = StringCodec(max_length=max_length)
    word = data.draw(
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=0x7F),
            max_size=max_length,
        )
    )
    assert codec.decode(codec.encode(word)) == word


@given(st.text(min_size=5))
@settings(max_examples=100, deadline=None)
def test_string_codec_rejects_over_length(word):
    codec = StringCodec(max_length=4)
    with pytest.raises(CodecError):
        codec.encode(word)


def test_string_codec_rejects_embedded_nul():
    with pytest.raises(CodecError):
        StringCodec(max_length=4).encode("a\x00b")


def test_composite_codec_boundary_components():
    """Components at their extremes round-trip and order correctly."""
    codec = CompositeCodec(UintCodec(1), UintCodec(63))
    lo, hi = (0, 0), (1, 2**63 - 1)
    assert codec.decode(codec.encode(lo)) == lo
    assert codec.decode(codec.encode(hi)) == hi
    assert codec.encode(lo) < codec.encode((0, 2**63 - 1)) < codec.encode((1, 0))


@given(st.tuples(st.integers(), st.integers()))
@settings(max_examples=200, deadline=None)
def test_composite_codec_rejects_out_of_range_components(t):
    codec = CompositeCodec(UintCodec(12), UintCodec(12))
    in_range = all(0 <= part < 2**12 for part in t)
    if in_range:
        assert codec.decode(codec.encode(t)) == t
    else:
        with pytest.raises(CodecError):
            codec.encode(t)


def test_composite_codec_rejects_wrong_arity():
    codec = CompositeCodec(UintCodec(12), UintCodec(12))
    with pytest.raises(CodecError):
        codec.encode((1,))
    with pytest.raises(CodecError):
        codec.encode((1, 2, 3))


def test_composite_with_empty_string_component():
    codec = CompositeCodec(StringCodec(max_length=2), UintCodec(8))
    key = ("", 255)
    assert codec.decode(codec.encode(key)) == key


# -- the value codec -----------------------------------------------------------

import json  # noqa: E402

from repro.kvstore.codec import dump_value, load_value  # noqa: E402
from repro.server import frame  # noqa: E402
from repro.wal import record as rec  # noqa: E402

_json_values = st.recursive(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.booleans(),
        st.none(),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_load_value_inverts_dump_value(value):
    raw = dump_value(value)
    got = load_value(raw)
    assert got == value and type(got) is type(value)
    # Every decoder built on it inherits the round trip.
    assert frame.decode_value(frame.encode_value(value)) == value
    assert frame.decode_key_value(frame.encode_key_value(3, 9, value)) == (3, 9, value)
    assert frame.decode_batch(frame.encode_batch(1, [5, 6], [value, 0])) == (
        1, [5, 6], [value, 0]
    )
    assert rec.decode_batch2(rec.encode_batch2([7], [value])) == ([7], [value])


_digitish = st.text(alphabet="0123456789-+. eE", max_size=6).map(str.encode)


@given(st.one_of(_digitish, st.binary(max_size=6)))
@settings(max_examples=500, deadline=None)
def test_load_value_is_exactly_as_strict_as_json(raw):
    """The int fast path accepts nothing ``json.loads`` rejects (and
    decodes to the same value): ``007``, ``+1``, the empty string and
    stray bytes all still fail."""
    try:
        want = json.loads(raw.decode("utf-8"))
    except ValueError:
        with pytest.raises(ValueError):
            load_value(raw)
    else:
        got = load_value(raw)
        assert got == want and type(got) is type(want)


def test_load_value_fast_path_edges():
    assert load_value(b"0") == 0 and load_value(b"10") == 10
    assert load_value(b"-7") == -7 and load_value(b"1.5") == 1.5
    for bad in (b"007", b"00", b"", b"1 2", b"\xb2"):
        with pytest.raises(ValueError):
            load_value(bad)
    with pytest.raises(frame.PayloadError):
        frame.decode_value(b"007")
