"""Snapshot persistence for the embedded store.

An in-memory store still needs a way off the machine: snapshots dump
every namespace's records to a JSONL file and restore them into a fresh
store.  Values must be JSON-serialisable (the usual embedded-store
contract); keys are stored codec-*encoded*, so the writer streams them
straight from the index (``scan_range`` over each namespace's span) and
the v2 loader hands each namespace's column to one ``insert_many``.

Format (version 2): a header line carrying the format version, the
namespace table, the record count, and a CRC32 over the entire body,
then one line per record with the namespace id and the *encoded*
integer key (codec-independent and order-preserving).  The checksum
means a truncated or bit-rotted snapshot is rejected up front with
:class:`SnapshotCorruptError` instead of failing (or worse, partially
loading) midway through.  Nothing is ever read unverified: version 1
(a header without ``crc32``/``records``) and version 0 (no header line
at all) files are rejected with a :class:`SnapshotError` that says to
re-save them, and future versions with one naming both versions.

The byte-level pair :func:`dump_snapshot_bytes` /
:func:`load_snapshot_bytes` exists so other layers (the WAL's
checkpointer) can route snapshots through their own storage -- the
file functions are thin wrappers over it.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

from repro.kvstore.store import KVStore

_FORMAT_VERSION = 2


class SnapshotError(ValueError):
    """A snapshot file cannot be loaded."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot's checksum (or structure) does not verify."""


def dump_snapshot_bytes(
    store: KVStore, extra_header: Optional[Dict] = None
) -> bytes:
    """Serialise every namespace's records; see the module format notes.

    ``extra_header`` entries are merged into the header line (the WAL
    checkpointer stamps ``checkpoint_lsn`` this way); unknown header
    fields are ignored on load, so they never break older readers.
    """
    lines = []
    dumps = json.dumps
    for name in store.namespaces():
        ns = store.namespace(name)
        base = ns._base
        # Streamed from the index (encoded key = index key - base);
        # each line is what ``json.dumps`` of the record dict emits
        # (``str(int)`` is its int encoding, as in ``dump_value``).
        prefix = f'{{"ns": {dumps(name)}, "key": '
        for full, value in ns._full_items():
            text = str(value) if type(value) is int else dumps(value)
            lines.append(f'{prefix}{full - base}, "value": {text}}}\n')
    body = "".join(lines).encode("utf-8")
    header = {
        "version": _FORMAT_VERSION,
        "namespaces": store.namespaces(),
        "records": len(lines),
        "crc32": zlib.crc32(body) & 0xFFFFFFFF,
    }
    if extra_header:
        header.update(extra_header)
    return json.dumps(header).encode("utf-8") + b"\n" + body


def read_snapshot_header(data: bytes, source: str = "snapshot") -> Dict:
    """The parsed header of serialised snapshot bytes.

    Raises :class:`SnapshotError` for empty input, unparseable first
    lines, and every format version but the current one.
    """
    first, _, _ = data.partition(b"\n")
    if not first.strip():
        raise SnapshotError(f"{source}: empty snapshot")
    try:
        parsed = json.loads(first)
    except json.JSONDecodeError as exc:
        raise SnapshotCorruptError(
            f"{source}: first line is neither a header nor a record: {exc}"
        ) from None
    if not isinstance(parsed, dict):
        raise SnapshotCorruptError(f"{source}: malformed first line")
    if "version" not in parsed and not ("ns" in parsed and "key" in parsed):
        raise SnapshotCorruptError(f"{source}: malformed header {parsed!r}")
    version = parsed.get("version", 0)  # headerless v0: a record comes first
    if not isinstance(version, int) or version < 0:
        raise SnapshotCorruptError(f"{source}: bad version {version!r}")
    if version != _FORMAT_VERSION:
        newer = version > _FORMAT_VERSION  # older: no checksum to verify
        raise SnapshotError(
            f"{source}: snapshot format v{version} is not the "
            f"v{_FORMAT_VERSION} this build reads; "
            + ("upgrade to read it" if newer else "re-save with a v2 build")
        )
    return parsed


def load_snapshot_bytes(store: KVStore, data: bytes, source: str = "snapshot") -> int:
    """Restore serialised snapshot bytes into ``store``.

    Namespaces must be opened first with the same codecs (codec choice
    is not serialisable).  Returns the record count.  Verifies the
    whole-body checksum and record count *before* applying anything, so
    a corrupt snapshot never half-loads.
    """
    header = read_snapshot_header(data, source)
    _, _, body = data.partition(b"\n")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    if crc != header.get("crc32"):
        raise SnapshotCorruptError(
            f"{source}: body checksum {crc:#010x} does not match "
            f"header ({header.get('crc32', 0):#010x}); snapshot is "
            f"truncated or corrupt"
        )
    missing = [
        n for n in header.get("namespaces", []) if n not in store.namespaces()
    ]
    if missing:
        raise SnapshotError(
            f"open these namespaces (with their codecs) before "
            f"loading: {missing}"
        )

    # One (encoded keys, values) column pair per namespace, file order.
    columns: Dict[str, tuple] = {}
    count = 0
    for lineno, line in enumerate(body.splitlines(), 2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            keys, values = columns.setdefault(record["ns"], ([], []))
            keys.append(record["key"])
            values.append(record["value"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SnapshotCorruptError(
                f"{source}: bad record on line {lineno}: {exc}"
            ) from None
        count += 1
    if header.get("records") != count:
        raise SnapshotCorruptError(
            f"{source}: header promises {header.get('records')} records, "
            f"body holds {count}"
        )

    for ns_name, (keys, values) in columns.items():
        if ns_name not in store.namespaces():
            raise SnapshotError(
                f"open namespace {ns_name!r} (with its codec) before loading"
            )
        # Verified, and written grouped and key-ordered: one batch.
        store.namespace(ns_name)._insert_encoded(keys, values)
    return count


def save_snapshot(store: KVStore, path: Union[str, Path]) -> int:
    """Write every namespace's records; returns the record count."""
    path = Path(path)
    data = dump_snapshot_bytes(store)
    path.write_bytes(data)
    return data.count(b"\n") - 1  # minus the header line


def load_snapshot(store: KVStore, path: Union[str, Path]) -> int:
    """Restore records from ``path``; see :func:`load_snapshot_bytes`."""
    path = Path(path)
    return load_snapshot_bytes(store, path.read_bytes(), source=str(path))
