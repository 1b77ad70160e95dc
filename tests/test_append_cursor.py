"""The append cursor of ``DyTIS.insert`` against a dict.

``DyTIS`` remembers the key interval of the bucket the last appending
insert landed in, with the objects that append wrote, and a later key
inside that interval above the bucket's live maximum appends through
them without routing.  The cursor is only right while its segment is
live: every split, remap, expansion, merge, maintenance rebuild, table
swap and bulk load must drop it.  A stale cursor writes into a segment
the directory no longer holds, and the key is lost.

Small buckets (4 keys, ``l_start=2``) make every restructure frequent.
The fuzz mixes keys that advance in time (they arm and hit the cursor)
with keys below the frontier, updates, deletes, ``delete_range``,
``insert_many`` batches and maintenance steps, and checks the
structure (``check_invariants`` validates an armed cursor) and the
contents after each operation.  A fixed scenario restructures the
cursor's segment through a key that does not append and then appends
inside the old interval; the observed and the concurrent index take
the same cursor.
"""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConcurrentDyTIS, DyTIS, DyTISConfig
from repro.core.dytis import _NO_CURSOR
from repro.core.maintenance import MaintenanceController
from repro.obs import Observability

_BITS = 32
_CFG = DyTISConfig(
    key_bits=_BITS, first_level_bits=1, bucket_capacity=4, l_start=2
)
_TOP = 1 << _BITS


def _restructures(index):
    s = index.stats
    return s.splits + s.remappings + s.expansions + s.doublings + s.merges


def _same(index, shadow):
    index.check_invariants()
    assert len(index) == len(shadow)
    assert list(index.items()) == sorted(shadow.items())


_OPS = st.lists(
    st.one_of(
        # count of advancing keys, log2 of their largest gap
        st.tuples(st.just("advance"), st.integers(1, 40), st.integers(0, 20)),
        st.tuples(st.just("below"), st.integers(0, 20)),
        st.tuples(st.just("update"), st.integers(0, 1 << 20)),
        st.tuples(st.just("delete"), st.integers(0, 1 << 20)),
        st.tuples(
            st.just("delete_range"), st.integers(0, 1 << 20),
            st.integers(0, 26),
        ),
        st.tuples(st.just("batch"), st.integers(1, 40), st.booleans()),
        st.tuples(st.just("maintain"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, _TOP - 1), seed=st.integers(0, 1 << 30), ops=_OPS)
def test_the_cursor_never_writes_a_key_the_index_cannot_find(start, seed, ops):
    rng = random.Random(seed)
    index = DyTIS(_CFG)
    ctrl = MaintenanceController(index)
    shadow = {}
    frontier = start
    for step, (op, a, *rest) in enumerate(ops):
        if op == "advance":
            for _ in range(a):
                frontier += 1 + rng.randrange(1 << rest[0])
                if frontier >= _TOP:
                    frontier = rng.randrange(_TOP)
                index.insert(frontier, (frontier, step))
                shadow[frontier] = (frontier, step)
        elif op == "below":
            key = max(0, frontier - 1 - rng.randrange(1 << a))
            index.insert(key, step)
            shadow[key] = step
        elif op == "update" and shadow:
            key = sorted(shadow)[a % len(shadow)]
            index.insert(key, step)
            shadow[key] = step
        elif op == "delete" and shadow:
            key = sorted(shadow)[a % len(shadow)]
            assert index.delete(key)
            del shadow[key]
        elif op == "delete_range" and shadow:
            low = sorted(shadow)[a % len(shadow)]
            high = min(low + (1 << rest[0]), _TOP)
            gone = [k for k in shadow if low <= k < high]
            assert index.delete_range(low, high) == len(gone)
            for k in gone:
                del shadow[k]
        elif op == "batch":
            # Advancing batches (past the frontier) or scattered ones.
            if rest[0]:
                keys = [
                    min(frontier + 1 + rng.randrange(1 << 16), _TOP - 1)
                    for _ in range(a)
                ]
            else:
                keys = [rng.randrange(_TOP) for _ in range(a)]
            index.insert_many(keys, [(k, step) for k in keys])
            shadow.update((k, (k, step)) for k in keys)
        elif op == "maintain":
            ctrl.step()
        _same(index, shadow)


def _stale_scenarios(seeds):
    """Indexes whose cursor was armed in bucket ``x`` of a segment that
    a non-appending insert into its full bucket ``y`` then rebuilt,
    with the cursor as it was armed and a key inside its interval
    above ``x``'s maximum at arming time."""
    for seed in seeds:
        rng = random.Random(seed)
        index = DyTIS(_CFG)
        for k in rng.sample(range(_TOP), 300):
            index.insert(k, k)
        picked = None
        for table in index._tables:
            for seg in table.unique_segments() if table else ():
                counts = seg.store.counts
                full = [
                    b for b in range(seg.n_buckets)
                    if counts[b] == _CFG.bucket_capacity
                    and seg.store.bucket_keys(b)[1]
                    - seg.store.bucket_keys(b)[0] > 1
                ]
                # Room for the arming key and one more.
                part = [
                    b for b in range(seg.n_buckets)
                    if 0 < counts[b] < _CFG.bucket_capacity - 1
                ]
                if full and part:
                    picked = seg, part[0], full[0]
                    break
            if picked:
                break
        if picked is None:
            continue
        seg, x, y = picked
        top = seg.store.bucket_keys(x)[-1]
        index.insert(top + 1, "armed")
        armed = index._cursor
        if armed is _NO_CURSOR or armed[8] is not seg or armed[3] != x:
            continue
        before = _restructures(index)
        # Between the full bucket's two lowest keys: not an append.
        index.insert(seg.store.bucket_keys(y)[0] + 1, "restructure")
        rebuilt = _restructures(index) > before
        rearmed = index._cursor not in (_NO_CURSOR, armed)
        if rebuilt and not rearmed and armed[0] <= top + 2 < armed[1]:
            yield index, armed, top + 2


def test_a_restructure_drops_the_cursor_of_its_segment():
    """Arm the cursor, rebuild its segment through a key that does not
    append, then append inside the old interval: the key must land in
    the live segment, not in the one the directory dropped."""
    found = 0
    for index, armed, key in _stale_scenarios(range(30)):
        found += 1
        assert index._cursor is _NO_CURSOR
        _, _, counts, b, off, cap, karr, _, old, _, _ = armed
        # The dead bucket would still take the key.
        assert 0 < counts[b] < cap and karr[off + counts[b] - 1] < key
        assert index._segment(key) is not old
        n = len(index)
        index.insert(key, "appended")
        assert index.get(key) == "appended"
        assert len(index) == n + 1
        index.check_invariants()
    assert found >= 5


def _tx_like(n, seed, table=0):
    """Keys advancing in time inside one EH table of ``_CFG``."""
    rng = random.Random(seed)
    base = table << _CFG.eh_key_bits
    key = base + rng.randrange(1 << 20)
    out = []
    for _ in range(n):
        key += 1 + rng.randrange(1 << 12)
        out.append(key)
    assert out[-1] >> _CFG.eh_key_bits == table
    return out


def test_the_observed_insert_hits_the_cursor_and_records_every_op():
    obs = Observability()
    index, plain = DyTIS(_CFG, obs=obs), DyTIS(_CFG)
    hits = 0
    keys = _tx_like(3_000, 5)
    for n, k in enumerate(keys, 1):
        before = index._cursor
        index.insert(k, n)
        plain.insert(k, n)
        hits += before is not _NO_CURSOR and index._cursor is before
    assert hits > len(keys) // 20
    assert obs.histogram("insert").count == len(keys)
    assert list(index.items()) == list(plain.items())
    index.check_invariants()


def test_concurrent_writers_in_two_tables_share_one_cursor():
    """``ConcurrentDyTIS`` runs ``DyTIS.insert`` only under the key's
    table write lock.  An armed cursor lies in one table, so a writer
    of the other table can only miss it; each table's writes still
    land where the dict says."""
    index = ConcurrentDyTIS(_CFG)
    streams = [_tx_like(4_000, 11 + t, table=t) for t in (0, 1)]
    errors = []

    def write(keys):
        try:
            for k in keys:
                index.insert(k, k)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(s,)) for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    shadow = {k: k for s in streams for k in s}
    _same(index._d, shadow)
