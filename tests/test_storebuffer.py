"""Tests for the post-retirement store buffer drain policies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.storebuffer import StoreBuffer, _BufferedStore
from repro.mem.memsys import MemResult


class FakeMemsys:
    """Deterministic memory: each store completes after ``latency``; can
    be switched to stall to exercise retry behaviour."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []
        self.prefetches = []
        self.stall_until = None

    def access_data(self, now, addr, is_write, pc=0):
        if self.stall_until is not None and now < self.stall_until:
            return MemResult(stalled=True, retry_at=self.stall_until)
        self.accesses.append((now, addr))
        return MemResult(done_at=now + self.latency)

    def prefetch_data(self, now, addr, exclusive=True, pc=0):
        self.prefetches.append(addr)


class TestCapacity:
    def test_push_until_full(self):
        sb = StoreBuffer(2, FakeMemsys(), overlap=1)
        assert sb.push_store(0x100, 0)
        assert sb.push_store(0x200, 0)
        assert not sb.push_store(0x300, 0)
        assert sb.full

    def test_barriers_do_not_consume_capacity(self):
        sb = StoreBuffer(2, FakeMemsys(), overlap=1)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        assert len(sb) == 1
        assert sb.push_store(0x200, 0)

    def test_drain_frees_capacity(self):
        mem = FakeMemsys(latency=10)
        sb = StoreBuffer(1, mem, overlap=1)
        sb.push_store(0x100, 0)
        sb.drain(0)
        sb.drain(10)   # store completed
        assert sb.empty


class TestRcOverlap:
    def test_multiple_outstanding(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=4)
        for i in range(6):
            sb.push_store(0x100 * (i + 1), 0)
        sb.drain(0)
        assert len(mem.accesses) == 4  # overlap limit

    def test_barrier_blocks_later_stores(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=4)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert len(mem.accesses) == 1     # 0x200 held by the barrier
        sb.drain(100)                     # 0x100 completed
        assert len(mem.accesses) == 2

    def test_adjacent_barriers_coalesce(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=4)
        sb.push_store(0x100, 0)
        sb.push_barrier()
        sb.push_barrier()
        assert sb.barriers_pushed == 1

    def test_barrier_on_empty_buffer_is_noop(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=4)
        sb.push_barrier()
        assert sb.empty


class TestPcSerialization:
    def test_one_at_a_time_in_order(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert [a for _, a in mem.accesses] == [0x100]
        sb.drain(50)
        assert len(mem.accesses) == 1     # still outstanding
        sb.drain(100)
        assert [a for _, a in mem.accesses] == [0x100, 0x200]

    def test_prefetch_for_waiting_stores(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1, wants_prefetch=True)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        assert 0x200 in mem.prefetches

    def test_prefetch_issued_once(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1, wants_prefetch=True)
        sb.push_store(0x100, 0)
        sb.push_store(0x200, 0)
        sb.drain(0)
        sb.drain(1)
        assert mem.prefetches.count(0x200) == 1


class TestRetry:
    def test_structural_stall_retries(self):
        mem = FakeMemsys(latency=10)
        mem.stall_until = 50
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        next_event = sb.drain(0)
        assert next_event == 50
        assert not mem.accesses
        sb.drain(50)
        assert mem.accesses

    def test_next_event_reflects_completion(self):
        mem = FakeMemsys(latency=100)
        sb = StoreBuffer(16, mem, overlap=1)
        sb.push_store(0x100, 0)
        assert sb.drain(0) == 100

    def test_empty_returns_none(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=1)
        assert sb.drain(0) is None

    def test_reset(self):
        sb = StoreBuffer(16, FakeMemsys(), overlap=1)
        sb.push_store(0x100, 0)
        sb.reset()
        assert sb.empty


def brute_force_drain(sb, now):
    """Reference drain: the front pops, then separate full scans for the
    outstanding count and the earliest completion, then the issue pass
    (the formulation the one-pass drain replaced)."""
    entries = sb._entries
    while entries:
        head = entries[0]
        if head.is_barrier or (head.issued and head.done_at <= now):
            entries.popleft()
            continue
        break
    if not entries:
        return None
    outstanding = sum(1 for e in entries if e.issued and e.done_at > now)
    next_event = min((e.done_at for e in entries
                      if e.issued and e.done_at > now), default=None)
    for e in entries:
        if e.is_barrier:
            if outstanding:
                break
            continue
        if e.issued:
            continue
        if outstanding >= sb.overlap:
            if sb.wants_prefetch and not e.prefetched:
                sb.memsys.prefetch_data(now, e.addr, exclusive=True,
                                        pc=e.pc)
                e.prefetched = True
            break
        if e.retry_at > now:
            next_event = e.retry_at if next_event is None else \
                min(next_event, e.retry_at)
            break
        result = sb.memsys.access_data(now, e.addr, is_write=True,
                                       pc=e.pc)
        if result.stalled:
            e.retry_at = result.retry_at
            next_event = result.retry_at if next_event is None else \
                min(next_event, result.retry_at)
            break
        e.issued = True
        e.done_at = result.done_at
        outstanding += 1
        next_event = e.done_at if next_event is None else \
            min(next_event, e.done_at)
    return next_event


_STORE = st.tuples(st.booleans(),                  # barrier
                   st.booleans(),                  # issued
                   st.integers(0, 60),             # done_at
                   st.integers(0, 60),             # retry_at
                   st.booleans())                  # prefetched


class TestOnePassDrain:
    @settings(max_examples=300, deadline=None)
    @given(stores=st.lists(_STORE, max_size=12),
           now=st.integers(0, 60),
           overlap=st.integers(1, 8),
           wants_prefetch=st.booleans(),
           latency=st.integers(1, 40),
           stall_until=st.one_of(st.none(), st.integers(0, 80)))
    def test_matches_brute_force_scan(self, stores, now, overlap,
                                      wants_prefetch, latency,
                                      stall_until):
        """Same next event, same stores issued and prefetched, same
        final buffer, over arbitrary issued / done_at / retry_at /
        barrier mixes."""
        buffers = []
        for _ in range(2):
            mem = FakeMemsys(latency)
            mem.stall_until = stall_until
            sb = StoreBuffer(16, mem, overlap=overlap,
                             wants_prefetch=wants_prefetch)
            for i, (barrier, issued, done_at, retry_at, prefetched) \
                    in enumerate(stores):
                e = _BufferedStore(0x100 * (i + 1), 4 * i,
                                   is_barrier=barrier)
                e.issued = issued and not barrier
                e.done_at = done_at
                e.retry_at = retry_at
                e.prefetched = prefetched
                sb._entries.append(e)
            buffers.append(sb)
        fast, slow = buffers
        assert fast.drain(now) == brute_force_drain(slow, now)
        assert fast.memsys.accesses == slow.memsys.accesses
        assert fast.memsys.prefetches == slow.memsys.prefetches
        assert fast.snapshot() == slow.snapshot()
