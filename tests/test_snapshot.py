"""Tests for KV-store snapshot persistence (repro.kvstore.snapshot)."""

import json

import pytest

from repro.core import DyTISConfig
from repro.kvstore import (
    CompositeCodec,
    KVStore,
    SnapshotCorruptError,
    SnapshotError,
    StringCodec,
    UintCodec,
    dump_snapshot_bytes,
    load_snapshot,
    load_snapshot_bytes,
    read_snapshot_header,
    save_snapshot,
)

CFG = DyTISConfig(key_bits=40, first_level_bits=2, bucket_capacity=8, l_start=1)


def _populated_store():
    store = KVStore(CFG)
    users = store.namespace("users", codec=UintCodec(20))
    tags = store.namespace("tags", codec=StringCodec(max_length=4))
    pairs = store.namespace(
        "pairs", codec=CompositeCodec(UintCodec(10), UintCodec(10))
    )
    for i in range(200):
        users.insert(i, {"n": i})
    for word in ("abc", "xyz", "m"):
        tags.insert(word, word.upper())
    pairs.insert((3, 4), [3, 4])
    return store


def _fresh_store():
    store = KVStore(CFG)
    store.namespace("users", codec=UintCodec(20))
    store.namespace("tags", codec=StringCodec(max_length=4))
    store.namespace("pairs", codec=CompositeCodec(UintCodec(10), UintCodec(10)))
    return store


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        src = _populated_store()
        path = tmp_path / "snap.jsonl"
        n = save_snapshot(src, path)
        assert n == 204
        dst = _fresh_store()
        assert load_snapshot(dst, path) == 204
        assert dst.namespace("users").get(42) == {"n": 42}
        assert dst.namespace("tags").get("abc") == "ABC"
        assert dst.namespace("pairs").get((3, 4)) == [3, 4]
        assert list(dst.namespace("users").items()) == list(
            src.namespace("users").items()
        )

    def test_missing_namespace_rejected(self, tmp_path):
        src = _populated_store()
        path = tmp_path / "snap.jsonl"
        save_snapshot(src, path)
        empty = KVStore(CFG)  # no namespaces opened
        with pytest.raises(ValueError, match="users"):
            load_snapshot(empty, path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_snapshot(KVStore(CFG), path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"version": 9, "namespaces": []}) + "\n")
        with pytest.raises(ValueError):
            load_snapshot(KVStore(CFG), path)

    def test_empty_store_roundtrip(self, tmp_path):
        store = KVStore(CFG)
        path = tmp_path / "empty.jsonl"
        assert save_snapshot(store, path) == 0
        assert load_snapshot(KVStore(CFG), path) == 0


class TestSnapshotFormatV2:
    """The versioned, checksummed format plus backward compatibility."""

    def test_header_carries_version_count_and_checksum(self):
        data = dump_snapshot_bytes(_populated_store())
        header = read_snapshot_header(data, "test")
        assert header["version"] == 2
        assert header["records"] == 204
        assert header["namespaces"] == ["users", "tags", "pairs"]
        assert isinstance(header["crc32"], int)

    def test_truncated_body_rejected_before_applying(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_snapshot(_populated_store(), path)
        path.write_bytes(path.read_bytes()[:-40])
        dst = _fresh_store()
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            load_snapshot(dst, path)
        # Nothing was half-loaded: verification happens up front.
        assert len(dst.namespace("users")) == 0

    def test_bitflip_in_body_rejected(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_snapshot(_populated_store(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(_fresh_store(), path)

    def test_record_count_mismatch_rejected(self, tmp_path):
        data = dump_snapshot_bytes(_populated_store())
        header_line, _, body = data.partition(b"\n")
        header = json.loads(header_line)
        header["records"] += 1
        header["crc32"] = __import__("zlib").crc32(body) & 0xFFFFFFFF
        path = tmp_path / "snap.jsonl"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(SnapshotCorruptError, match="promises"):
            load_snapshot(_fresh_store(), path)

    def test_future_version_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps({"version": 9, "namespaces": []}) + "\n")
        with pytest.raises(SnapshotError, match=r"v9.*v2"):
            load_snapshot(KVStore(CFG), path)

    def test_v1_header_without_checksum_is_rejected(self, tmp_path):
        src = _populated_store()
        data = dump_snapshot_bytes(src)
        _, _, body = data.partition(b"\n")
        v1_header = {"version": 1, "namespaces": src.namespaces()}
        path = tmp_path / "v1.jsonl"
        path.write_bytes(json.dumps(v1_header).encode() + b"\n" + body)
        dst = _fresh_store()
        with pytest.raises(SnapshotError, match=r"v1 .*re-save with a v2 build"):
            load_snapshot(dst, path)
        assert len(dst) == 0  # unverifiable, so nothing half-loaded

    def test_headerless_v0_is_rejected(self, tmp_path):
        data = dump_snapshot_bytes(_populated_store())
        _, _, body = data.partition(b"\n")  # drop the header entirely
        path = tmp_path / "v0.jsonl"
        path.write_bytes(body)
        dst = _fresh_store()
        with pytest.raises(SnapshotError, match=r"v0 .*re-save with a v2 build"):
            load_snapshot(dst, path)
        assert len(dst) == 0

    def test_extra_header_fields_roundtrip_and_are_ignored_on_load(self):
        store = _populated_store()
        data = dump_snapshot_bytes(store, extra_header={"checkpoint_lsn": 41})
        assert read_snapshot_header(data, "t")["checkpoint_lsn"] == 41
        dst = _fresh_store()
        assert load_snapshot_bytes(dst, data, "t") == 204

    def test_garbage_first_line_is_corruption_not_crash(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_bytes(b"\x00\xff not json at all\n")
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(KVStore(CFG), path)
