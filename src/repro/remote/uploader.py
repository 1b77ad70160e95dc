"""Shipping and attaching: the two halves of off-box durability.

:class:`Uploader` runs next to a live WAL and pushes its durable
artifacts to a :class:`~repro.remote.storage.RemoteStorage`:

- sealed WAL segments, noted at rotation time (:func:`WriteAheadLog
  <repro.wal.log.WriteAheadLog>`'s ``on_seal`` hook) and shipped in
  LSN order -- never publishing a gap, so remote state is always a
  replayable chain;
- checkpoints, which reset the chain: once a checkpoint at LSN *L* is
  remote, every segment wholly at or below *L* leaves the manifest and
  is garbage-collected remotely.

Every batch of object uploads ends with a manifest publish
(:mod:`repro.remote.manifest`), and *state only advances on a
successful publish*: objects without a manifest are invisible orphans,
retried later under the same keys.  A failed ship therefore leaves
three invariants intact -- the previous manifest still describes a
consistent cut, the unshipped segments stay in ``pending``, and
:meth:`safe_truncate_lsn` (wired into the WAL as its retention pin)
keeps their local files alive until the remote acknowledges them.

:func:`restore` is the attach half: walk manifests newest-first, take
the first one whose *every* object downloads and verifies (size +
CRC32), and materialize those objects into a local directory.  The
caller then runs ordinary crash recovery on that directory; a replica
attach is just recovery from a disk somebody else wrote.

An attach that crashes partway must not masquerade as ordinary local
state (a checkpoint without its WAL tail would *recover* fine and
silently serve a hole in history), so :func:`restore` brackets its
writes with an ``attach-pending`` marker: marker first, objects next,
marker removed last.  :func:`attach_incomplete` is how store startup
detects the torn case -- wipe the directory and attach again, making
the whole operation all-or-nothing.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.remote import manifest as man
from repro.remote.metrics import RemoteMetrics
from repro.remote.retry import RetryPolicy
from repro.remote.storage import (
    RemoteNotFound,
    RemoteStorage,
    RemoteStorageError,
    RemoteTransientError,
)
from repro.wal import record as rec
from repro.wal.faultfs import OsFS, join, segment_files, segment_seqno

#: Published manifest generations kept remotely (current + fallbacks).
_MANIFEST_KEEP = 2

#: Marker file bracketing :func:`restore`'s writes: present means the
#: directory holds a *partial* attach and must not be recovered as-is.
ATTACH_MARKER = "attach-pending"


class AttachError(RemoteStorageError):
    """Manifests exist remotely but none could be fully restored."""


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def attach_incomplete(fs, directory: str) -> bool:
    """True when a previous :func:`restore` tore partway through.

    The directory then mixes restored objects with missing ones in an
    order only the dead attach knew; ordinary crash recovery on it
    would come up from a truncated history and, worse, restart the WAL
    below LSNs the remote has already acknowledged.  The caller must
    wipe and re-attach.
    """
    return fs.isfile(join(directory, ATTACH_MARKER))


def wipe_directory(fs, directory: str) -> None:
    """Remove every file under ``directory``, recursively.

    Resets a torn attach to the empty-directory state so the next
    :func:`restore` starts from nothing (empty subdirectories may
    remain; nothing in recovery minds them).
    """
    if not fs.exists(directory):
        return
    for name in fs.listdir(directory):
        path = join(directory, name)
        if fs.isfile(path):
            fs.remove(path)
        else:
            wipe_directory(fs, path)


def newest_manifest(
    storage: RemoteStorage,
    policy: Optional[RetryPolicy] = None,
    metrics: Optional[RemoteMetrics] = None,
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """(generation, manifest) of the newest verifiable manifest.

    Corrupt manifests are skipped (the previous generation serves);
    a future-version manifest raises
    :class:`~repro.remote.manifest.ManifestVersionError` -- a newer
    writer owns this remote, and guessing would resurrect history.
    Returns ``(0, None)`` for a virgin remote.
    """
    policy = policy or RetryPolicy()
    keys = policy.call(storage.list, "manifest-", op="list", metrics=metrics)
    for key in sorted(keys, reverse=True):
        gen = man.manifest_generation(key)
        if gen is None:
            continue
        try:
            data = policy.call(storage.get, key, op=f"get {key}", metrics=metrics)
        except RemoteNotFound:
            continue
        try:
            return gen, man.decode_manifest(data, key)
        except man.ManifestCorruptError:
            continue
    return 0, None


def scan_sealed_segments(
    fs, wal_dir: str, rel_prefix: str = ""
) -> List[Dict[str, Any]]:
    """Sealed-segment infos (path/seqno/base_lsn/last_lsn) in LSN order.

    Used at startup to rebuild the uploader's pending set: every local
    segment except the active one (the highest seqno -- the WAL has
    already opened it) whose header verifies, with its last LSN taken
    from the next readable header.  Empty and headerless segments ship
    nothing and are skipped; the contiguity check at publish time keeps
    a skip from ever widening into a published gap.
    """
    names = segment_files(fs, wal_dir)
    headed: List[Tuple[int, str, int]] = []  # (seqno, name, base_lsn)
    for name in names:
        buf = fs.read_bytes(join(wal_dir, name), rec.SEGMENT_HEADER_SIZE)
        try:
            _, base_lsn = rec.decode_segment_header(buf)
        except rec.WalFormatError:
            continue
        headed.append((segment_seqno(name), name, base_lsn))
    out: List[Dict[str, Any]] = []
    for (seqno, name, base), (_, _, next_base) in zip(headed, headed[1:]):
        last = next_base - 1
        if last >= base:  # an empty segment carries no records
            out.append(
                {
                    "path": f"{rel_prefix}{name}",
                    "seqno": seqno,
                    "base_lsn": base,
                    "last_lsn": last,
                }
            )
    return out


class Uploader:
    """Ships one store directory's checkpoints + sealed WAL segments.

    ``directory`` is the local store root; every shipped object's key
    equals its path relative to that root, so the remote tree mirrors
    the local layout and :func:`restore` is a straight copy back.
    """

    def __init__(
        self,
        storage: RemoteStorage,
        directory: str,
        *,
        fs=None,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[RemoteMetrics] = None,
    ):
        self.storage = storage
        self.directory = str(directory)
        self.fs = fs if fs is not None else OsFS()
        self.policy = policy or RetryPolicy()
        self.metrics = metrics if metrics is not None else RemoteMetrics()
        self._pending: List[Dict[str, Any]] = []
        #: Objects dropped from the manifest at a given generation but
        #: still referenced by retained older generations; deleted only
        #: once every manifest naming them has itself been GC'd.
        self._gc_deferred: Dict[int, List[str]] = {}
        self._synced = False
        self.generation = 0
        self.shipped_lsn = 0
        self.checkpoint_entry = None
        self.segment_entries: List[Dict[str, Any]] = []
        try:
            self._sync_remote_state()
        except RemoteTransientError:
            # The remote is unreachable.  That must not stop a node
            # from opening a store whose data is all local: stay on
            # the conservative defaults above (shipped_lsn=0 pins
            # every local segment, generation unknown) and rediscover
            # the real remote state lazily on the first ship attempt.
            self.metrics.upload_failures_total += 1
        self._gauges()

    # -- state plumbing --------------------------------------------------

    def _sync_remote_state(self) -> None:
        """Adopt the newest remote manifest as our published state."""
        gen, existing = newest_manifest(
            self.storage, self.policy, self.metrics
        )
        self.generation = gen
        if existing is not None:
            self.shipped_lsn = existing["shipped_lsn"]
            self.checkpoint_entry = existing["checkpoint"]
            self.segment_entries = list(existing["segments"])
        self._synced = True
        self._gauges()

    def _ensure_synced(self) -> bool:
        """Publishing needs the real remote generation; sync if the
        constructor could not.  False (not an exception) on failure:
        shipping just stays deferred, exactly like a failed upload."""
        if self._synced:
            return True
        try:
            self._sync_remote_state()
        except RemoteTransientError:
            self.metrics.upload_failures_total += 1
            return False
        return True

    def _gauges(self) -> None:
        m = self.metrics
        m.generation = self.generation
        m.shipped_lsn = self.shipped_lsn
        m.pending_segments = len(self._pending)

    def safe_truncate_lsn(self) -> int:
        """Retention pin for the WAL: records above this LSN may only
        exist locally, so their segments must not be truncated yet."""
        return self.shipped_lsn

    @property
    def pending(self) -> List[Dict[str, Any]]:
        return list(self._pending)

    # -- shipping --------------------------------------------------------

    def note_sealed(
        self, path: str, seqno: int, base_lsn: int, last_lsn: int
    ) -> None:
        """Record a just-sealed segment as awaiting shipment."""
        if last_lsn <= self.shipped_lsn:
            return
        if any(e["seqno"] == seqno for e in self._pending):
            return
        self._pending.append(
            {
                "path": path,
                "seqno": seqno,
                "base_lsn": base_lsn,
                "last_lsn": last_lsn,
            }
        )
        self._pending.sort(key=lambda e: e["seqno"])
        self._gauges()

    def _put_object(self, path: str, data: bytes) -> None:
        self.policy.call(
            self.storage.put, path, data,
            op=f"put {path}", metrics=self.metrics,
        )
        self.metrics.uploads_total += 1
        self.metrics.upload_bytes_total += len(data)

    def _publish(
        self,
        checkpoint: Optional[Dict[str, Any]],
        segments: List[Dict[str, Any]],
        shipped_lsn: int,
    ) -> bool:
        gen = self.generation + 1
        data = man.encode_manifest(
            man.build_manifest(gen, shipped_lsn, checkpoint, segments)
        )
        try:
            self._put_object(man.manifest_key(gen), data)
        except RemoteStorageError:
            self.metrics.upload_failures_total += 1
            return False
        self.generation = gen
        self.checkpoint_entry = checkpoint
        self.segment_entries = list(segments)
        self.shipped_lsn = shipped_lsn
        self.metrics.manifests_published_total += 1
        self._gauges()
        return True

    def ship_segments(self) -> bool:
        """Upload pending sealed segments in order, publish, commit.

        Stops at the first failure or LSN gap; returns True when the
        pending set fully drained.  Objects uploaded before a failed
        publish are orphans under stable keys -- the retry overwrites
        them, and no manifest ever points at them.
        """
        if not self._ensure_synced():
            return False
        staged: List[Dict[str, Any]] = []
        failed = False
        for entry in list(self._pending):
            tip = staged[-1]["last_lsn"] if staged else self.shipped_lsn
            if entry["last_lsn"] <= tip:
                # Covered since it was noted (a checkpoint or a late
                # remote-state sync advanced the frontier past it):
                # drop it for good, or the pending set never drains.
                self._pending.remove(entry)
                continue
            if entry["base_lsn"] > tip + 1:
                break  # a gap: unshippable until a checkpoint resets
            data = self.fs.read_bytes(join(self.directory, entry["path"]))
            try:
                self._put_object(entry["path"], data)
            except RemoteStorageError:
                self.metrics.upload_failures_total += 1
                failed = True
                break
            staged.append(
                {
                    "path": entry["path"],
                    "base_lsn": entry["base_lsn"],
                    "last_lsn": entry["last_lsn"],
                    "size": len(data),
                    "crc32": _crc(data),
                }
            )
        if staged:
            if self._publish(
                self.checkpoint_entry,
                self.segment_entries + staged,
                staged[-1]["last_lsn"],
            ):
                shipped = {e["path"] for e in staged}
                self._pending = [
                    e for e in self._pending if e["path"] not in shipped
                ]
            else:
                failed = True
        self._gauges()
        return not self._pending and not failed

    def ship_checkpoint(self, path: str, lsn: int) -> bool:
        """Upload a checkpoint, publish, then GC what it obsoletes.

        On success the manifest's chain restarts at the checkpoint:
        segments wholly covered (``last_lsn <= lsn``) leave the
        manifest and pending segments the checkpoint covers are
        dropped without ever shipping.  GC is *deferred by reference*:
        an object leaving the manifest at generation G is still named
        by the retained fallback generations below G, so it is queued
        and deleted (best-effort -- orphans are unreferenced and
        harmless) only at a later checkpoint, once every manifest
        referencing it has itself left the retained window.  That
        keeps each retained fallback fully restorable, which is its
        entire purpose.
        """
        if not self._ensure_synced():
            return False
        data = self.fs.read_bytes(join(self.directory, path))
        entry = {
            "path": path,
            "lsn": lsn,
            "size": len(data),
            "crc32": _crc(data),
        }
        try:
            self._put_object(path, data)
        except RemoteStorageError:
            self.metrics.upload_failures_total += 1
            return False
        old_checkpoint = self.checkpoint_entry
        dropped = [
            s for s in self.segment_entries if s["last_lsn"] <= lsn
        ]
        kept = [s for s in self.segment_entries if s["last_lsn"] > lsn]
        if not self._publish(entry, kept, max(self.shipped_lsn, lsn)):
            return False
        self._pending = [e for e in self._pending if e["last_lsn"] > lsn]
        self._gauges()
        dropped_paths = [s["path"] for s in dropped]
        if old_checkpoint is not None and old_checkpoint["path"] != path:
            dropped_paths.append(old_checkpoint["path"])
        if dropped_paths:
            # Last referenced by manifest generation-1: deletable once
            # that generation falls out of the retained window.
            self._gc_deferred[self.generation] = dropped_paths
        # Manifests below the retained window go first; then every
        # deferred object whose last referencing manifest is now gone.
        horizon = self.generation - _MANIFEST_KEEP + 1
        garbage = [man.manifest_key(g) for g in range(1, horizon)]
        for gen in [g for g in self._gc_deferred if g <= horizon]:
            garbage.extend(self._gc_deferred.pop(gen))
        for key in garbage:
            try:
                self.storage.delete(key)
                self.metrics.deletes_total += 1
            except RemoteStorageError:
                pass  # unreferenced; the next GC pass retries
        return True


def restore(
    storage: RemoteStorage,
    directory: str,
    *,
    fs=None,
    policy: Optional[RetryPolicy] = None,
    metrics: Optional[RemoteMetrics] = None,
) -> Optional[Dict[str, Any]]:
    """Materialize the newest restorable manifest into ``directory``.

    Walks manifests newest-first and, for each, downloads and verifies
    (size + CRC32) *every* referenced object before writing anything
    local -- a manifest with a missing or damaged object is skipped
    whole, so the directory never mixes generations.  Returns the
    restored manifest, or ``None`` when the remote has no manifest at
    all (a virgin remote: the caller starts fresh).  Raises
    :class:`AttachError` when manifests exist but none is restorable,
    and :class:`~repro.remote.manifest.ManifestVersionError` for a
    remote written by a newer format.

    The local writes are bracketed by the :data:`ATTACH_MARKER` file
    (written before the first object, removed after the last), so a
    crash mid-attach leaves a directory that *announces* it is torn --
    :func:`attach_incomplete` -- instead of one that recovers silently
    from whichever prefix of objects happened to land.
    """
    fs = fs if fs is not None else OsFS()
    policy = policy or RetryPolicy()
    metrics = metrics if metrics is not None else RemoteMetrics()
    t0 = time.perf_counter()
    keys = policy.call(storage.list, "manifest-", op="list", metrics=metrics)
    keys = [k for k in sorted(keys, reverse=True) if man.manifest_generation(k)]
    failures: List[str] = []
    for key in keys:
        try:
            raw = policy.call(storage.get, key, op=f"get {key}", metrics=metrics)
            manifest = man.decode_manifest(raw, key)
        except (RemoteNotFound, man.ManifestCorruptError) as exc:
            failures.append(f"{key}: {exc}")
            continue
        entries = list(manifest["segments"])
        if manifest["checkpoint"] is not None:
            entries.insert(0, manifest["checkpoint"])
        blobs: List[Tuple[str, bytes]] = []
        bad = None
        for entry in entries:
            try:
                data = policy.call(
                    storage.get, entry["path"],
                    op=f"get {entry['path']}", metrics=metrics,
                )
            except RemoteNotFound as exc:
                bad = f"{key}: {exc}"
                break
            if len(data) != entry["size"] or _crc(data) != entry["crc32"]:
                bad = f"{key}: object {entry['path']} fails verification"
                break
            blobs.append((entry["path"], data))
        if bad is not None:
            failures.append(bad)
            continue
        fs.makedirs(directory)
        fs.write_atomic(
            join(directory, ATTACH_MARKER), key.encode("utf-8")
        )
        for path, data in blobs:
            parent = join(directory, path).rsplit("/", 1)[0]
            if parent:
                fs.makedirs(parent)
            fs.write_atomic(join(directory, path), data)
            metrics.attach_objects_total += 1
            metrics.attach_bytes_total += len(data)
        fs.remove(join(directory, ATTACH_MARKER))
        metrics.attaches_total += 1
        metrics.attach_ns_total += int((time.perf_counter() - t0) * 1e9)
        return manifest
    if failures:
        raise AttachError(
            "remote manifests exist but none is restorable: "
            + "; ".join(failures[:4])
        )
    return None
