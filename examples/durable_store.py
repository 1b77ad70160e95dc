#!/usr/bin/env python3
"""Crash a writer with SIGKILL, then recover every acknowledged write.

`repro.wal.DurableKVStore` wraps the embedded store with a write-ahead
log: every mutation is logged (and, per the fsync policy, synced)
*before* it is applied, so a crash -- even `kill -9`, no atexit, no
flush -- loses nothing that was acknowledged. This example:

1. spawns a child process that inserts keys with `fsync='always'`,
   printing each acknowledged key;
2. SIGKILLs the child mid-stream;
3. reopens the directory in this process (opening *is* recovery:
   newest checkpoint + WAL tail replay);
4. verifies every key the child acknowledged is present;
5. takes a checkpoint and shows the log truncating behind it.

The same drill under `fsync='batch(64,0.01)'`, where the fsync runs
behind the acknowledgement and recovery must yield a prefix covering
every key the writer saw reach `durable_lsn`, is a test:
`tests/test_group_commit.py`.

Run:  python examples/durable_store.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.wal import DurableKVStore
from repro.wal.faultfs import OsFS, segment_files

# The writer child: acknowledge keys on stdout until killed.
WRITER = """
import sys
from repro.wal import DurableKVStore

store = DurableKVStore(sys.argv[1], fsync="always", segment_size=1 << 14)
ns = store.namespace("events")
for i in range(100_000):
    ns.insert(i, {"seq": i})
    print(i, flush=True)  # acknowledged: the record is fsync-durable
"""


def crash_a_writer(dbdir):
    child = subprocess.Popen(
        [sys.executable, "-c", WRITER, dbdir],
        stdout=subprocess.PIPE,
        text=True,
    )
    acked = []
    for line in child.stdout:
        acked.append(int(line))
        if len(acked) >= 500:  # let it get going, then pull the plug
            break
    os.kill(child.pid, signal.SIGKILL)
    child.wait()
    child.stdout.close()
    print(f"writer SIGKILLed after acknowledging {len(acked)} inserts "
          f"(last key {acked[-1]})")
    return acked


def main():
    with tempfile.TemporaryDirectory(prefix="durable_store_") as dbdir:
        acked = crash_a_writer(dbdir)

        t0 = time.perf_counter()
        store = DurableKVStore(dbdir)  # opening the directory IS recovery
        ms = (time.perf_counter() - t0) * 1e3
        events = store.namespace("events")

        missing = [k for k in acked if events.get(k) is None]
        print(f"recovered in {ms:.1f} ms: {len(events)} records, "
              f"replayed {store.metrics.records_replayed_total} WAL records")
        assert not missing, f"acknowledged writes lost: {missing[:5]}"
        # fsync='always' may persist at most the one in-flight insert
        # beyond the last acknowledged key, never fewer.
        assert len(events) >= len(acked)
        print("every acknowledged write survived the crash")

        # Checkpointing bounds future recovery time: snapshot, then
        # truncate the segments the snapshot made dead.
        fs = OsFS()
        before = len(segment_files(fs, dbdir))
        lsn = store.checkpoint()
        after = len(segment_files(fs, dbdir))
        print(f"checkpoint at LSN {lsn}: {before} WAL segments -> {after}")

        events.insert(10**6, {"seq": "post-checkpoint"})
        store.close()

        reopened = DurableKVStore(dbdir)
        print(f"reopen after checkpoint replays only the tail: "
              f"{reopened.metrics.records_replayed_total} records")
        assert reopened.namespace("events").get(10**6) is not None
        reopened.close()


if __name__ == "__main__":
    main()
