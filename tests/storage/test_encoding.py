"""Bit-exact label stream encoding/decoding."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstring import BitString
from repro.datasets import build_hamlet
from repro.errors import InvalidCodeError
from repro.labeling import make_scheme, scheme_names
from repro.storage.encoding import (
    BitReader,
    BitWriter,
    EncodingError,
    decode_labels,
    decode_ordpath_component,
    decode_utf8_varint,
    encode_labels,
    encode_ordpath_component,
    encode_utf8_varint,
    make_label_codec,
)
from repro.storage.labelfile import FORMAT_VERSION, load_labeled, save_labeled
from repro.updates import UpdateEngine
from repro.xmltree import Node

from tests.conftest import ALL_SCHEME_NAMES, make_small_document
from tests.storage.bitio_ref import oracle_codec


class TestBitIO:
    def test_empty(self):
        writer = BitWriter()
        assert writer.to_bytes() == b""
        assert writer.bit_length() == 0

    def test_roundtrip_values(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b0001, 4)
        writer.write(1, 1)
        data = writer.to_bytes()
        assert len(data) == 1
        reader = BitReader(data)
        assert reader.read(3) == 0b101
        assert reader.read(4) == 0b0001
        assert reader.read(1) == 1

    def test_write_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_read_past_end(self):
        reader = BitReader(b"\x00")
        reader.read(8)
        with pytest.raises(EncodingError):
            reader.read(1)

    def test_bitstring_io(self):
        writer = BitWriter()
        writer.write_bitstring(BitString.from_str("01101"))
        reader = BitReader(writer.to_bytes())
        assert reader.read_bitstring(5).to01() == "01101"

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(21, 24)), max_size=20))
    def test_property_roundtrip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.to_bytes())
        for value, width in fields:
            assert reader.read(width) == value

    def test_cost_is_linear_in_stream_length(self):
        """An 8x longer stream costs well under 20x (quadratic: ~64x).

        Only the ratio of two timings on the same machine is checked,
        so the guard holds on slow and fast hosts alike.
        """
        rng = random.Random(5)
        widths = [rng.randint(1, 40) for _ in range(3_000)]
        base = [(rng.getrandbits(width), width) for width in widths]
        ratio = _best_codec_seconds(base * 8) / _best_codec_seconds(base)
        assert ratio < 20, f"8x stream took {ratio:.1f}x as long"


def _best_codec_seconds(fields: list[tuple[int, int]]) -> float:
    """Minimum of 3 timings of writing ``fields`` and reading them back."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.to_bytes())
        for _, width in fields:
            reader.read(width)
        best = min(best, time.perf_counter() - start)
    return best


class TestUtf8Varint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 2047, 2048, 65535, 10**7])
    def test_roundtrip(self, value):
        writer = BitWriter()
        encode_utf8_varint(writer, value)
        assert decode_utf8_varint(BitReader(writer.to_bytes())) == value

    def test_frame_sizes_match_accounting(self):
        from repro.labeling.prefix import utf8_bits

        for value in (1, 127, 128, 2047, 2048, 70000):
            writer = BitWriter()
            encode_utf8_varint(writer, value)
            assert writer.bit_length() == utf8_bits(max(1, value.bit_length()))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_utf8_varint(BitWriter(), -1)

    def test_too_large_rejected(self):
        with pytest.raises(InvalidCodeError):
            encode_utf8_varint(BitWriter(), 1 << 40)

    def test_malformed_lead_byte(self):
        with pytest.raises(EncodingError):
            decode_utf8_varint(BitReader(b"\x80\x80"))  # bare continuation

    def test_malformed_continuation(self):
        with pytest.raises(EncodingError):
            decode_utf8_varint(BitReader(b"\xc2\x00"))  # '00' marker

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_property_roundtrip(self, value):
        writer = BitWriter()
        encode_utf8_varint(writer, value)
        assert decode_utf8_varint(BitReader(writer.to_bytes())) == value


class TestOrdPathComponent:
    @pytest.mark.parametrize(
        "value", [0, 1, 7, 8, 23, 24, 87, 343, 4439, 69975, 10**6, -1, -8, -344, -70000]
    )
    def test_roundtrip(self, value):
        writer = BitWriter()
        encode_ordpath_component(writer, value)
        assert decode_ordpath_component(BitReader(writer.to_bytes())) == value

    def test_bits_match_accounting(self):
        from repro.labeling.prefix import ordpath_li_oi_bits

        for value in (1, 20, 100, 5000, -5, -300):
            writer = BitWriter()
            encode_ordpath_component(writer, value)
            assert writer.bit_length() == ordpath_li_oi_bits(value)

    def test_out_of_range(self):
        with pytest.raises(InvalidCodeError):
            encode_ordpath_component(BitWriter(), 1 << 70)

    @settings(max_examples=60)
    @given(st.integers(min_value=-60_000, max_value=1_000_000))
    def test_property_roundtrip(self, value):
        writer = BitWriter()
        encode_ordpath_component(writer, value)
        assert decode_ordpath_component(BitReader(writer.to_bytes())) == value


def _labels_equal(scheme, original, decoded) -> bool:
    if scheme.family == "containment":
        key = scheme.codec.key
        return all(
            (key(a.start), key(a.end), a.level)
            == (key(b.start), key(b.end), b.level)
            for a, b in zip(original, decoded)
        )
    if scheme.family == "prime":
        return all(
            (a.product, a.self_label) == (b.product, b.self_label)
            for a, b in zip(original, decoded)
        )
    return original == decoded


class TestLabelStreams:
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_roundtrip_every_scheme(self, scheme_name):
        document = make_small_document(seed=21, size=150)
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        decoded = decode_labels(scheme, blob)
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        assert len(decoded) == len(original)
        assert _labels_equal(scheme, original, decoded)

    @pytest.mark.parametrize(
        "scheme_name",
        [
            "V-Binary-Containment",
            "F-Binary-Containment",
            "V-CDBS-Containment",
            "F-CDBS-Containment",
            "QED-Containment",
            "Float-point-Containment",
        ],
    )
    def test_containment_stream_matches_size_accounting(self, scheme_name):
        """Figure 5's bit counts equal the real encoded stream size
        (modulo the 32-bit count header and byte padding)."""
        document = make_small_document(seed=23, size=120)
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        encoded_bits = len(blob) * 8 - 32
        accounted = labeled.total_label_bits()
        assert 0 <= encoded_bits - accounted < 8  # only byte padding

    def test_roundtrip_after_updates(self):
        from repro.updates import UpdateEngine
        from repro.xmltree import Node

        document = make_small_document(seed=29, size=100)
        scheme = make_scheme("V-CDBS-Containment")
        labeled = scheme.label_document(document)
        engine = UpdateEngine(labeled, with_storage=False)
        for index in (0, 1, 2):
            engine.insert_child(document.root, Node.element("n"), index)
        blob = encode_labels(labeled)
        decoded = decode_labels(scheme, blob)
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        assert _labels_equal(scheme, original, decoded)

    def test_truncated_stream_rejected(self):
        document = make_small_document(seed=31, size=60)
        scheme = make_scheme("QED-Containment")
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        with pytest.raises(EncodingError):
            decode_labels(scheme, blob[: len(blob) // 2])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            make_label_codec(object())


@pytest.fixture(scope="module")
def churned_vcdbs():
    """Hamlet on V-CDBS after skewed inserts past the analytical field.

    Thirty inserts into one gap mint codes longer than the bulk
    length field describes, so the stream takes the 16-bit escape.
    """
    document = build_hamlet()
    scheme = make_scheme("V-CDBS-Containment")
    labeled = scheme.label_document(document)
    engine = UpdateEngine(labeled, with_storage=False)
    target = document.root.children[1]
    inserted = [Node.element("x") for _ in range(30)]
    for node in inserted:
        engine.insert_child(target, node, 1)
    escape = (1 << scheme.codec.field_bits) - 1
    longest = max(len(labeled.label_of(node).end) for node in inserted)
    assert longest - 1 >= escape
    return labeled, inserted


class TestOracleFormat:
    """The buffered bit I/O writes and reads the oracle's exact bytes."""

    @pytest.mark.parametrize("scheme_name", ALL_SCHEME_NAMES)
    def test_hamlet_stream_matches_oracle(self, hamlet, scheme_name):
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(hamlet)
        with oracle_codec():
            expected = encode_labels(labeled)
        assert encode_labels(labeled) == expected
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        decoded = decode_labels(scheme, expected)
        assert len(decoded) == len(original)
        assert _labels_equal(scheme, original, decoded)

    def test_churned_stream_and_wal_payload_match_oracle(self, churned_vcdbs):
        labeled, inserted = churned_vcdbs
        scheme = labeled.scheme
        delta = [labeled.label_of(node) for node in inserted]
        with oracle_codec():
            expected = encode_labels(labeled)
            # A WAL frame's label payload goes through the same codec.
            expected_delta = make_label_codec(scheme).encode(delta)
        assert encode_labels(labeled) == expected
        assert make_label_codec(scheme).encode(delta) == expected_delta
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        decoded = decode_labels(scheme, expected)
        assert _labels_equal(scheme, original, decoded)

    def test_oracle_written_bundle_loads(self, churned_vcdbs, tmp_path):
        """A checkpoint written by the original codec still recovers."""
        labeled, _ = churned_vcdbs
        with oracle_codec():
            save_labeled(labeled, tmp_path / "old.rpro")
        save_labeled(labeled, tmp_path / "new.rpro")
        assert FORMAT_VERSION == 2
        assert (tmp_path / "old.rpro").read_bytes() == (
            tmp_path / "new.rpro"
        ).read_bytes()
        loaded = load_labeled(tmp_path / "old.rpro")
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        reloaded = [loaded.label_of(n) for n in loaded.nodes_in_order]
        assert len(reloaded) == len(original)
        assert _labels_equal(labeled.scheme, original, reloaded)
