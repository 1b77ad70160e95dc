"""The segmented append-only write-ahead log.

A :class:`WriteAheadLog` owns a directory of ``wal-<seqno>.log``
segments.  Appends go to the active segment and rotate to a fresh one
at ``segment_size`` bytes; every record carries a monotonic LSN and a
CRC32 (:mod:`repro.wal.record`).  Durability is delegated to an
:class:`~repro.wal.policy.FsyncPolicy` -- ``always`` syncs per append,
``batch`` group-commits, ``never`` trusts OS writeback.

The ``batch`` group commit runs behind the acknowledgement: the append
that crosses a threshold starts a sync (unless one is in flight) and
returns without waiting; the sync, when it completes, publishes
``durable_lsn`` as the ``last_lsn`` it read before its flush.  A failed
one is sticky -- the next ``append``, ``sync`` or ``close`` raises its
error and ``durable_lsn`` stops advancing.  Every barrier stays
synchronous: the ``always`` fsync, ``sync``, the rotation seal and
``close`` first wait out the in-flight sync, then sync inline, so when
they return everything appended before them is durable.  So a crash
loses at most the writes after the last *completed* sync: ``n``
records plus those appended during one fsync, or ``t`` seconds plus
one fsync.  Thresholds are checked at append time only: an idle log's
tail waits for the next write, ``flush``, checkpoint or ``close``.
``always`` is unchanged -- ``append`` returns after its fsync.

Opening an existing directory never appends to the old tail segment:
its last records may be torn from a crash, and a valid record appended
after garbage would be unreachable (replay stops at the first bad
record).  Instead the log scans the tail for the last valid LSN and
starts a *new* segment at ``last + 1`` (or past the caller's recovered
``checkpoint_lsn``, if that is higher) -- crash-safe and O(tail), not
O(log).

``replay`` yields every record after a caller-supplied LSN across all
segments, validating CRCs and LSN continuity, and stops cleanly at the
first damaged record.  Damage in the middle of the log (not the tail)
raises :class:`RecoveryError`, as does a log whose retained segments
start after the requested replay point -- both mean acknowledged
durable history is missing, which must never be papered over.
"""

from __future__ import annotations

import threading
from time import monotonic as _clock  # the one clock the log reads
from typing import Iterator, List, Optional, Tuple
from zlib import crc32 as _crc32

from repro.wal import record as rec
from repro.wal.faultfs import (
    OsFS,
    join,
    segment_files,
    segment_name,
    segment_seqno,
)
from repro.wal.metrics import WalMetrics
from repro.wal.policy import AlwaysFsync, FsyncPolicy, parse_policy

DEFAULT_SEGMENT_SIZE = 1 << 20
_RECORD_BODY = rec._RECORD_BODY
#: An ``OP_INSERT`` record's body up to its value bytes, packed at once:
#: lsn | op | payload_len | the payload's u64 key (``rec.encode_insert``).
_KEYED_BODY = rec._KEYED_BODY
_RECORD_HEADER_SIZE = rec.RECORD_HEADER_SIZE
_KEY_SIZE = rec._U64.size


class RecoveryError(RuntimeError):
    """Durable history needed for recovery is missing or damaged."""


class WriteAheadLog:
    """Segmented append-only log with CRC-framed, LSN-stamped records.

    ``append`` acknowledges according to the fsync policy; ``replay``
    yields history after a given LSN; ``truncate_upto`` drops segments
    a checkpoint has made dead.  See the module docstring for the
    crash-safety rules.
    """

    def __init__(
        self,
        directory: str,
        fs=None,
        policy="always",
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        metrics: Optional[WalMetrics] = None,
        on_seal=None,
        retention_pin=None,
        checkpoint_lsn: int = 0,
    ):
        if segment_size < rec.SEGMENT_HEADER_SIZE + rec.RECORD_HEADER_SIZE:
            raise ValueError("segment_size too small for even one record")
        self.directory = str(directory)
        self.fs = fs if fs is not None else OsFS()
        self.policy: FsyncPolicy = parse_policy(policy)
        # The policy as data: sync after this many pending records
        # and/or seconds (None = no such threshold; no interval, no
        # clock read in ``append``).
        self._sync_records = self.policy.max_records
        self._sync_interval = self.policy.max_interval
        # What a crossed threshold does: ``always`` syncs before
        # ``append`` returns; ``batch`` starts a group commit and
        # returns without waiting for it.
        self._ack_after_sync = isinstance(self.policy, AlwaysFsync)
        self.segment_size = segment_size
        self._metrics = metrics if metrics is not None else WalMetrics()
        #: Called as ``on_seal(name, seqno, base_lsn, last_lsn)`` when a
        #: segment is sealed by rotation -- the hook remote shipping
        #: hangs off (a sealed segment is immutable, hence shippable).
        self.on_seal = on_seal
        #: Zero-arg callable returning the highest LSN that is safe to
        #: truncate past (e.g. the remote-acknowledged LSN).  Records
        #: above it exist only locally, so their segments stay.
        self.retention_pin = retention_pin

        self.fs.makedirs(self.directory)
        self._handle = None
        self._segment_bytes = 0  # bytes in the active segment
        self._sealed_bytes = 0  # bytes in segments this log sealed
        self._extra_ops = 0  # ops past the first in batch records
        # Serialises ``_publish`` and the rotation's move of the active
        # segment's bytes into ``_sealed_bytes``; ``append`` never takes it.
        self._publishing = threading.Lock()
        self._pending = 0  # records appended since the last sync started
        self._last_sync = _clock()
        self._closed = False
        # Held from the start of a group commit until its ``done``
        # callback: at most one sync is in flight.
        self._syncing = threading.Lock()
        self._sync_target = 0  # last_lsn when the in-flight sync started
        # A failed group commit's exception, sticky: every later
        # ``append``, ``sync`` and ``close`` raises it.
        self._error: Optional[BaseException] = None

        last_lsn, next_seqno = self._scan_existing()
        # Never restart below a checkpoint the caller recovered: LSNs
        # at or under it are ones replay skips.
        last_lsn = max(last_lsn, checkpoint_lsn)
        m = self._metrics
        self.last_lsn = m.last_lsn = last_lsn  # highest LSN ever acknowledged
        self.durable_lsn = m.durable_lsn = last_lsn  # highest known fsync-durable
        m.live_segments = len(segment_files(self.fs, self.directory))
        # The append counters are derived, not kept (``_publish``): what
        # the metrics held at open plus what this log appended since.
        self._open_lsn = last_lsn
        self._open_counts = (
            m.appends_total, m.ops_logged_total, m.bytes_written_total
        )
        self._open_segment(next_seqno, base_lsn=last_lsn + 1)

    # -- startup --------------------------------------------------------

    def _scan_existing(self) -> Tuple[int, int]:
        """(last valid LSN, next segment seqno) from the directory.

        Walks backwards from the tail: a crash can leave *several*
        trailing segments headless (e.g. a rotation with nothing
        pending opens a new segment without syncing it, then the crash
        tears both its header and the sealed-but-unsynced one before
        it).  A headless segment was never synced, so it holds nothing
        fsync-durable; the newest segment with a verifiable header
        carries the last acknowledged LSN.
        """
        names = segment_files(self.fs, self.directory)
        if not names:
            return 0, 1
        next_seqno = segment_seqno(names[-1]) + 1
        for name in reversed(names):
            path = join(self.directory, name)
            try:
                _, base_lsn = rec.decode_segment_header(
                    self.fs.read_bytes(path, rec.SEGMENT_HEADER_SIZE)
                )
            except rec.WalFormatError:
                continue
            buf = self.fs.read_bytes(path)  # the one segment read whole
            records, _ = rec.decode_records(
                buf, rec.SEGMENT_HEADER_SIZE, prev_lsn=base_lsn - 1
            )
            # An empty segment's base still names the predecessor's
            # last record, so base_lsn - 1 is exact either way.
            return (
                records[-1].lsn if records else base_lsn - 1
            ), next_seqno
        return 0, next_seqno

    def _open_segment(self, seqno: int, base_lsn: int) -> None:
        path = join(self.directory, segment_name(seqno))
        self._handle = self.fs.open_append(path)
        header = rec.encode_segment_header(seqno, base_lsn)
        self._handle.append(header)
        # Surface the header past the user-space buffer so readers
        # (truncation, replay of a live log) can identify the segment.
        self._handle.flush()
        with self._publishing:
            self._sealed_bytes += self._segment_bytes
            self._segment_bytes = len(header)
        self._seqno = seqno
        self._base_lsn = base_lsn
        self._metrics.live_segments += 1

    # -- metrics --------------------------------------------------------

    @property
    def metrics(self) -> WalMetrics:
        """The log's :class:`WalMetrics`, its append counters published
        first (a closed log published them at ``close``)."""
        if not self._closed:
            self._publish()
        return self._metrics

    def _publish(self) -> None:
        """Write the derived counters into the metrics object.

        ``append`` keeps no counters: every record takes one LSN, so
        ``appends_total`` is the LSNs issued since open, ``ops_logged_
        total`` adds the batch records' extra ops, and ``bytes_written_
        total`` is the sealed segments' bytes plus the active one's.
        Each is an absolute value over fields that only grow between
        rotations, and the rotation's move of the active segment's bytes
        holds ``_publishing``, so concurrent readers publish monotone
        values; the syncer thread writes other fields.
        """
        with self._publishing:
            lsn = self.last_lsn
            appended = lsn - self._open_lsn
            appends, ops, written = self._open_counts
            m = self._metrics
            m.appends_total = appends + appended
            m.ops_logged_total = ops + appended + self._extra_ops
            m.bytes_written_total = (
                written + self._sealed_bytes + self._segment_bytes
            )
            m.last_lsn = lsn

    # -- appending ------------------------------------------------------

    def append(
        self, op: int, payload: bytes, ops: int = 1, key: Optional[int] = None
    ) -> int:
        """Append one record; returns its LSN.

        Under ``always`` the record is fsync-durable when this returns.
        Under ``batch`` the append that crosses a threshold starts a
        group commit (unless one is in flight) and returns without
        waiting for it.  ``ops`` is the number of logical operations the
        record carries (a batch record logs many), feeding the metrics
        only.  ``key``, when given, is the payload's leading u64 (an
        ``OP_INSERT``'s key, with ``payload`` its value bytes): it is
        packed with the record header, and the bytes are those of
        ``rec.encode_insert``'s payload.
        """
        if self._closed or self._error is not None:
            raise self._error or ValueError("log is closed")
        lsn = self.last_lsn + 1
        # ``rec.encode_record`` inlined (it stays the format's
        # definition): the CRC covers lsn | op | length | payload.
        if key is None:
            size = len(payload)
            body = _RECORD_BODY.pack(lsn, op, size) + payload
        else:
            size = len(payload) + _KEY_SIZE
            body = _KEYED_BODY.pack(lsn, op, size, key) + payload
        size += _RECORD_HEADER_SIZE
        end = self._segment_bytes + size
        if end > self.segment_size:
            self._rotate(next_base_lsn=lsn)
            end = self._segment_bytes + size
        self._handle.append(_crc32(body).to_bytes(4, "little") + body)
        self._segment_bytes = end
        self.last_lsn = lsn
        if ops != 1:
            self._extra_ops += ops - 1
        pending = self._pending = self._pending + 1
        records = self._sync_records
        interval = self._sync_interval
        if (records is not None and pending >= records) or (
            interval is not None and _clock() - self._last_sync >= interval
        ):
            if self._ack_after_sync:
                self.sync()
            else:
                self._sync_soon()
        return lsn

    def _sync_soon(self) -> None:
        """Start a group commit unless one is in flight; don't wait.

        The handle decides how the sync runs (a syncer thread on the
        real disk, inline under ``SimFS``).  Its ``done`` callback
        publishes ``durable_lsn`` as the LSN read here, before the
        flush, so it never claims a record the sync may have missed.
        """
        if not self._syncing.acquire(False):
            return  # the next append past the threshold retries
        self._sync_target = self.last_lsn
        self._pending = 0
        self._last_sync = _clock()
        self._handle.sync_soon(self._synced)

    def _synced(self, error: Optional[BaseException]) -> None:
        """``done`` of a group commit, on whichever thread ran it."""
        if error is None:
            m = self._metrics
            m.fsyncs_total += 1
            m.fsync_ns_total += int((_clock() - self._last_sync) * 1e9)
            self.durable_lsn = m.durable_lsn = self._sync_target
        else:
            self._error = error
        self._syncing.release()

    def sync(self) -> None:
        """fsync the active segment; everything appended so far is durable.

        A barrier: waits out an in-flight group commit (raising its
        error, if it failed), then syncs inline."""
        with self._syncing:
            pass
        if self._error is not None:
            raise self._error
        if self._pending == 0 and self.durable_lsn == self.last_lsn:
            return
        t0 = _clock()
        self._handle.sync()
        now = self._last_sync = _clock()
        m = self._metrics
        m.fsyncs_total += 1
        m.fsync_ns_total += int((now - t0) * 1e9)
        self.durable_lsn = m.durable_lsn = self.last_lsn
        self._pending = 0

    def rotate(self) -> None:
        """Seal the active segment and start a fresh one at the next LSN
        (checkpointing rotates so dead segments become removable)."""
        self._rotate(next_base_lsn=self.last_lsn + 1)

    def _rotate(self, next_base_lsn: int) -> None:
        """Seal the active segment (fsync) and open the next one.

        Sealing must sync: a sealed segment is immutable history and
        replay treats damage inside it as fatal rather than as a tail.
        """
        self.sync()
        self._handle.close()
        self._metrics.rotations_total += 1
        sealed = (
            segment_name(self._seqno),
            self._seqno,
            self._base_lsn,
            next_base_lsn - 1,
        )
        self._open_segment(self._seqno + 1, base_lsn=next_base_lsn)
        self._publish()
        if self.on_seal is not None:
            self.on_seal(*sealed)

    def close(self) -> None:
        """Sync, then close (joining the syncer thread, if one ran).
        Closes even when the sync raises, and re-raises its error."""
        if self._closed:
            return
        self._publish()  # the last time: a closed log publishes nothing
        self._closed = True
        try:
            self.sync()
        finally:
            self._handle.close()

    # -- reading --------------------------------------------------------

    def segments(self) -> List[str]:
        return segment_files(self.fs, self.directory)

    def replay(self, after_lsn: int = 0) -> Iterator[rec.WalRecord]:
        """Yield records with ``lsn > after_lsn`` in order.

        Stops cleanly at a damaged *tail* (torn/CRC-failed final
        records -- the expected post-crash state) and raises
        :class:`RecoveryError` when damage hides acknowledged durable
        history: a gap before the first retained segment, a bad segment
        header, or a broken record followed by further segments.  A gap
        between segments is legal only at or below ``after_lsn``.
        """
        names = segment_files(self.fs, self.directory)
        prev_lsn: Optional[int] = None
        for i, name in enumerate(names):
            final = i == len(names) - 1
            buf = self.fs.read_bytes(join(self.directory, name))
            try:
                _, base_lsn = rec.decode_segment_header(buf)
            except rec.WalFormatError as exc:
                # A header-less segment was created but never synced; it
                # holds nothing acknowledged.  Legal as the tail, and
                # legal mid-log only if the next readable segment
                # continues from ``prev_lsn`` (checked on its header).
                self._metrics.torn_tails_total += 1
                if final:
                    break
                continue
            if prev_lsn is None:
                if base_lsn > after_lsn + 1:
                    raise RecoveryError(
                        f"log starts at LSN {base_lsn} but replay needs "
                        f"LSN {after_lsn + 1}: segments were truncated "
                        f"past the requested point"
                    )
                prev_lsn = base_lsn - 1
            elif prev_lsn + 1 < base_lsn <= after_lsn + 1:
                # A gap wholly at or below the replay point (a log
                # reopened at a checkpoint LSN its durable tail never
                # reached): the checkpoint covers what is missing.
                prev_lsn = base_lsn - 1
            elif base_lsn != prev_lsn + 1:
                raise RecoveryError(
                    f"{name}: base LSN {base_lsn} does not continue "
                    f"from {prev_lsn}"
                )
            records, tail = rec.decode_records(
                buf, rec.SEGMENT_HEADER_SIZE, prev_lsn=prev_lsn
            )
            for r in records:
                if r.lsn > after_lsn:
                    yield r
            if records:
                prev_lsn = records[-1].lsn
            if not tail.clean:
                # Damage past the last valid record.  As the tail this
                # is the expected post-crash state; mid-log it is legal
                # only when it is provably dead garbage, i.e. the next
                # segment's base LSN continues exactly from prev_lsn
                # (which the header check above enforces on the next
                # iteration).  A continuity break there means durable
                # acknowledged history was damaged, and raises.
                if tail.reason == "crc":
                    self._metrics.crc_failures_total += 1
                self._metrics.torn_tails_total += 1
                if final:
                    break

    # -- truncation -----------------------------------------------------

    def truncate_upto(self, lsn: int) -> int:
        """Drop segments whose every record has ``lsn <= lsn``.

        A segment is dead when the *next* segment's base LSN is at most
        ``lsn + 1`` (so nothing after ``lsn`` lives in it).  The active
        segment is never removed, and a ``retention_pin`` bounds the
        effective LSN: records not yet acknowledged remotely must stay
        replayable locally even after a checkpoint covers them.
        Returns the number removed.
        """
        if self.retention_pin is not None:
            lsn = min(lsn, self.retention_pin())
        names = segment_files(self.fs, self.directory)
        bases = []
        for name in names:
            buf = self.fs.read_bytes(
                join(self.directory, name), rec.SEGMENT_HEADER_SIZE
            )
            try:
                bases.append(rec.decode_segment_header(buf)[1])
            except rec.WalFormatError:
                bases.append(None)  # header-less: holds nothing valid
        removed = 0
        for i, name in enumerate(names):
            if segment_seqno(name) == self._seqno:
                break  # never the active segment
            if bases[i] is None or (
                i + 1 < len(names)
                and bases[i + 1] is not None
                and bases[i + 1] <= lsn + 1
            ):
                self.fs.remove(join(self.directory, name))
                removed += 1
            else:
                break  # later segments are younger still (or unprovable)
        self._metrics.live_segments -= removed
        self._metrics.segments_truncated_total += removed
        return removed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
