"""Filesystem abstraction with deterministic fault injection.

The WAL never touches ``os`` directly: every byte goes through a
:class:`FileSystem`, so the same code runs against the real disk
(:class:`OsFS`) and against an in-memory simulator (:class:`SimFS`)
whose crash semantics are *adversarial and deterministic*.  ``SimFS``
models the page cache explicitly -- appended bytes are volatile until
``sync`` -- and a :class:`FaultSpec` arms a crash at any syscall, with
the unsynced tail dropped, torn to a prefix, or bit-flipped.  That is
exactly the failure model fsync gives you on real hardware, and because
every syscall is numbered, a test can sweep *every* crash point of a
workload and assert recovery at each one (the neon test_runner's
crash-consistency style, without the postgres).

Durable/volatile rules in ``SimFS``:

- ``append`` adds to the volatile tail; ``sync`` makes the whole tail
  durable; a crash applies the :class:`FaultSpec` to the tail.
- ``sync_soon`` (the ``batch`` group commit) is ``sync`` run inline,
  numbered like it; on the real disk it runs on a syncer thread.
- ``write_atomic`` is two syscalls (prepare, commit): crash on prepare
  leaves the old file, crash on commit too -- the file flips to the new
  content only once commit completes (rename atomicity).
- ``remove`` is one syscall: crash before it leaves the file in place,
  which is how "crash between checkpoint and truncate" is injected.
"""

from __future__ import annotations

import os
import queue
import random
import re
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional


class SimulatedCrash(Exception):
    """Raised by :class:`SimFS` when the armed crash point is reached."""


# ---------------------------------------------------------------------------
# Real filesystem
# ---------------------------------------------------------------------------


class OsAppendHandle:
    """Append-only handle over a real file.

    Appends are user-space buffered (64 KiB) so group commit pays one
    ``write(2)`` per sync, not per record; ``sync`` flushes the buffer
    and fsyncs.  The buffer only ever delays *unsynced* records, whose
    loss the ``batch``/``never`` policies already permit -- anything a
    policy declared durable has been flushed and fsynced.

    ``sync_soon`` runs the same flush + fsync on a daemon syncer
    thread, started at the first call and joined by ``close``:
    ``os.fsync`` releases the GIL, so the appending thread keeps going
    while the disk works.  The buffered file locks itself, so appends
    may land in the buffer while the syncer flushes it.
    """

    def __init__(self, path: str):
        self._f = open(path, "ab", buffering=1 << 16)
        #: ``append(data)`` *is* the buffered file's ``write``.
        self.append = self._f.write
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._syncer: Optional[threading.Thread] = None

    def flush(self) -> None:
        """Hand buffered bytes to the OS without forcing them to media."""
        self._f.flush()

    def sync(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def sync_soon(self, done) -> None:
        """Sync on the syncer thread, then call ``done(error)`` there
        (``None``, or the exception the flush or fsync raised)."""
        if self._syncer is None:
            self._syncer = threading.Thread(
                target=self._run_syncer, name="wal-syncer", daemon=True
            )
            self._syncer.start()
        self._jobs.put(done)

    def _run_syncer(self) -> None:
        jobs, sync = self._jobs, self.sync
        while True:
            done = jobs.get()
            if done is None:
                return
            try:
                sync()
            except Exception as exc:
                done(exc)
            else:
                done(None)
            del done  # hold no reference to the caller while idle

    def close(self) -> None:
        if self._syncer is not None:
            self._jobs.put(None)
            self._syncer.join()
            self._syncer = None
        if not self._f.closed:
            self._f.flush()
            self._f.close()


class OsFS:
    """The real thing: plain os-module calls plus atomic replace."""

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isfile(self, path: str) -> bool:
        return os.path.isfile(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def listdir(self, path: str) -> List[str]:
        return sorted(os.listdir(path))

    def read_bytes(self, path: str, size: int = -1) -> bytes:
        """The file's bytes, or only its first ``size`` (a header read)."""
        with open(path, "rb") as f:
            return f.read(size)

    def file_size(self, path: str) -> int:
        return os.path.getsize(path)

    def remove(self, path: str) -> None:
        os.remove(path)
        self._sync_dir(os.path.dirname(path))

    def write_atomic(self, path: str, data: bytes) -> None:
        """Write-then-rename so the file is never observed half-written."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        self._sync_dir(os.path.dirname(path))

    def open_append(self, path: str) -> OsAppendHandle:
        return OsAppendHandle(path)

    @staticmethod
    def _sync_dir(path: str) -> None:
        """fsync the directory so renames/unlinks are themselves durable."""
        try:
            fd = os.open(path or ".", os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------

#: What happens to the unsynced (volatile) tail of each file at crash.
TAIL_MODES = ("drop", "torn", "flip")


@dataclass
class FaultSpec:
    """One armed crash: fire at syscall ``crash_at`` (1-based), then
    settle each file's volatile tail according to ``tail_mode``.

    - ``drop``: the page cache is lost wholesale (power cut).
    - ``torn``: a deterministic prefix of the tail survives (partial
      writeback -- the torn-write case recovery must stop at cleanly).
    - ``flip``: the tail survives but one byte is bit-flipped (media
      corruption the per-record CRC must catch).

    ``seed`` makes the torn length / flipped byte deterministic per
    crash point, so a failing sweep case replays exactly.
    """

    crash_at: int
    tail_mode: str = "torn"
    seed: int = 0

    def __post_init__(self):
        if self.tail_mode not in TAIL_MODES:
            raise ValueError(f"tail_mode must be one of {TAIL_MODES}")

    def settle_tail(self, tail: bytes) -> bytes:
        """The bytes of a volatile tail that survive this crash."""
        if not tail:
            return b""
        rng = random.Random((self.seed << 20) ^ self.crash_at)
        if self.tail_mode == "drop":
            return b""
        if self.tail_mode == "torn":
            return tail[: rng.randrange(len(tail) + 1)]
        flipped = bytearray(tail)
        i = rng.randrange(len(flipped))
        flipped[i] ^= 1 << rng.randrange(8)
        return bytes(flipped)


class _SimFile:
    __slots__ = ("durable", "volatile")

    def __init__(self) -> None:
        self.durable = bytearray()
        self.volatile = bytearray()


class SimAppendHandle:
    """Append handle over a :class:`SimFS` file (volatile until sync)."""

    def __init__(self, fs: "SimFS", path: str):
        self._fs = fs
        self._path = path
        self.closed = False

    def append(self, data: bytes) -> None:
        self._fs._syscall()
        self._fs._file(self._path).volatile.extend(data)

    def flush(self) -> None:
        """No-op: SimFS appends land in the (volatile) page cache."""

    def sync(self) -> None:
        self._fs._syscall()
        f = self._fs._file(self._path)
        f.durable.extend(f.volatile)
        del f.volatile[:]

    def sync_soon(self, done) -> None:
        """Sync inline, then ``done(None)``: the crash sweeps keep one
        deterministic syscall numbering and sync schedule.  A crash
        (or any failure) calls ``done(exc)`` and propagates."""
        try:
            self.sync()
        except BaseException as exc:
            done(exc)
            raise
        done(None)

    def close(self) -> None:
        self.closed = True


class SimFS:
    """In-memory filesystem with page-cache semantics and crash points.

    All paths are treated as flat strings; directories exist implicitly.
    ``syscalls`` counts every state-changing operation, so a workload's
    crash points are simply ``1..fs.syscalls`` of a fault-free run.
    """

    def __init__(self, fault: Optional[FaultSpec] = None):
        self._files: Dict[str, _SimFile] = {}
        self._dirs: set = set()
        self.fault = fault
        self.syscalls = 0
        self.crashed = False

    # -- fault machinery ------------------------------------------------

    def _syscall(self) -> None:
        if self.crashed:
            raise SimulatedCrash("filesystem already crashed")
        self.syscalls += 1
        if self.fault is not None and self.syscalls == self.fault.crash_at:
            self._crash()

    def _crash(self) -> None:
        """Settle every file's volatile tail and go dead."""
        for f in self._files.values():
            f.durable.extend(self.fault.settle_tail(bytes(f.volatile)))
            del f.volatile[:]
        self.crashed = True
        raise SimulatedCrash(f"crash injected at syscall {self.syscalls}")

    def reboot(self) -> "SimFS":
        """Come back up after a crash: durable bytes only, fault disarmed.

        Returns ``self`` so tests read naturally
        (``fs = fs.reboot()``).  Without a prior crash this just drops
        any unsynced tails -- i.e. it models a power cut at 'now' with
        ``drop`` semantics.
        """
        if not self.crashed:
            for f in self._files.values():
                del f.volatile[:]
        self.crashed = False
        self.fault = None
        return self

    # -- filesystem surface ---------------------------------------------

    def _file(self, path: str) -> _SimFile:
        if path not in self._files:
            self._files[path] = _SimFile()
        return self._files[path]

    def exists(self, path: str) -> bool:
        return path in self._files or path in self._dirs

    def isfile(self, path: str) -> bool:
        return path in self._files

    def makedirs(self, path: str) -> None:
        self._dirs.add(path)

    def listdir(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        names = {
            name[len(prefix):].split("/", 1)[0]
            for name in self._files
            if name.startswith(prefix)
        }
        return sorted(names)

    def read_bytes(self, path: str, size: int = -1) -> bytes:
        if self.crashed:
            raise SimulatedCrash("filesystem already crashed")
        if path not in self._files:
            raise FileNotFoundError(path)
        f = self._files[path]
        data = bytes(f.durable) + bytes(f.volatile)
        return data if size < 0 else data[:size]

    def file_size(self, path: str) -> int:
        return len(self.read_bytes(path))

    def remove(self, path: str) -> None:
        self._syscall()
        if path not in self._files:
            raise FileNotFoundError(path)
        del self._files[path]

    def write_atomic(self, path: str, data: bytes) -> None:
        self._syscall()  # prepare: crash here leaves the old content
        self._syscall()  # commit: crash here fires *before* the rename
        f = self._file(path)
        f.durable = bytearray(data)
        del f.volatile[:]

    def open_append(self, path: str) -> SimAppendHandle:
        self._syscall()
        self._file(path)
        return SimAppendHandle(self, path)


def join(*parts: str) -> str:
    """Path join that works for both OsFS and SimFS (posix-style)."""
    return "/".join(p.rstrip("/") for p in parts if p)


_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")


def segment_files(fs, directory: str) -> List[str]:
    """Sorted WAL segment filenames present in ``directory``."""
    if not fs.exists(directory):
        return []
    return [n for n in fs.listdir(directory) if _SEGMENT_RE.match(n)]


def segment_seqno(name: str) -> int:
    m = _SEGMENT_RE.match(name)
    if not m:
        raise ValueError(f"not a segment file name: {name!r}")
    return int(m.group(1))


def segment_name(seqno: int) -> str:
    return f"wal-{seqno:08d}.log"
