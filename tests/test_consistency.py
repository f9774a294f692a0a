"""Tests for the consistency-model ordering unit (paper section 3.4)."""

import pytest

from repro.core.workloads import dss_workload
from repro.cpu.consistency import ConsistencyUnit
from repro.params import ConsistencyImpl, ConsistencyModel, \
    default_system
from repro.system.machine import Machine

SC = ConsistencyModel.SC
PC = ConsistencyModel.PC
RC = ConsistencyModel.RC
STRAIGHT = ConsistencyImpl.STRAIGHTFORWARD
PREFETCH = ConsistencyImpl.PREFETCH
SPEC = ConsistencyImpl.SPECULATIVE


def unit(model, impl=STRAIGHT):
    return ConsistencyUnit(model, impl)


class TestRc:
    def test_loads_unordered(self):
        u = unit(RC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)

    def test_store_does_not_block_retire(self):
        assert not unit(RC).store_blocks_retire

    def test_store_overlap(self):
        assert unit(RC).store_buffer_overlap > 1

    def test_no_speculation_tracking(self):
        u = unit(RC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.load_is_speculative(2)


class TestScStraightforward:
    def test_memory_ops_serialize(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(1)
        assert not u.may_perform_load(2)
        u.note_complete(1)
        assert u.may_perform_load(2)

    def test_store_waits_for_older_load(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=False)
        assert not u.may_perform_store(2)
        u.note_complete(1)
        assert u.may_perform_store(2)

    def test_load_waits_for_older_store(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=False)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)

    def test_stores_block_retire(self):
        assert unit(SC).store_blocks_retire

    def test_removed_ops_unblock(self):
        u = unit(SC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_removed(1)
        assert u.may_perform_load(2)


class TestPcStraightforward:
    def test_loads_ordered_among_loads(self):
        u = unit(PC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)
        u.note_complete(1)
        assert u.may_perform_load(2)

    def test_load_bypasses_store(self):
        u = unit(PC)
        u.note_dispatch(1, is_load=False)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)

    def test_stores_do_not_block_retire(self):
        assert not unit(PC).store_blocks_retire

    def test_store_drain_serialized(self):
        assert unit(PC).store_buffer_overlap == 1


class TestPrefetchImpl:
    def test_straightforward_does_not_prefetch(self):
        assert not unit(SC, STRAIGHT).wants_prefetch

    def test_prefetch_and_speculative_do(self):
        assert unit(SC, PREFETCH).wants_prefetch
        assert unit(SC, SPEC).wants_prefetch

    def test_prefetch_does_not_reorder(self):
        u = unit(SC, PREFETCH)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert not u.may_perform_load(2)


class TestSpeculativeLoads:
    def test_loads_perform_immediately(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        assert u.may_perform_load(2)
        assert u.load_is_speculative(2)
        assert not u.load_is_speculative(1)  # oldest: not speculative

    def test_violation_detected_on_tracked_line(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_speculative_load(2, line=77)
        assert u.check_violation(77) == 2
        assert u.rollbacks == 1

    def test_violation_returns_oldest_speculative(self):
        u = unit(SC, SPEC)
        for seq in (1, 2, 3):
            u.note_dispatch(seq, is_load=True)
        u.note_speculative_load(3, line=77)
        u.note_speculative_load(2, line=77)
        assert u.check_violation(77) == 2

    def test_untracked_line_no_violation(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_speculative_load(1, line=5)
        assert u.check_violation(6) is None

    def test_retired_load_is_safe(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_dispatch(2, is_load=True)
        u.note_speculative_load(2, line=77)
        u.note_removed(2)
        assert u.check_violation(77) is None

    def test_pc_speculation_tracks_loads_only(self):
        u = unit(PC, SPEC)
        u.note_dispatch(1, is_load=False)   # store
        u.note_dispatch(2, is_load=True)
        # PC loads only order against loads; a load after only a store is
        # not speculative.
        assert not u.load_is_speculative(2)

    def test_reset_clears_state(self):
        u = unit(SC, SPEC)
        u.note_dispatch(1, is_load=True)
        u.note_speculative_load(1, line=9)
        u.reset()
        assert u.check_violation(9) is None
        assert u.may_perform_load(5)


class TestBookkeepingBounded:
    def test_only_the_queried_heap_is_kept(self):
        for model, mem, loads in ((SC, 2, 0), (PC, 0, 1), (RC, 0, 0)):
            u = unit(model)
            u.note_dispatch(1, is_load=True)
            u.note_dispatch(2, is_load=False)
            assert (len(u._mem_heap), len(u._load_heap)) == (mem, loads)

    def test_rc_bookkeeping_bounded_by_window_in_long_dss_run(self):
        """Under RC nothing reads the ordering heaps, so nothing may pile
        up in them (they used to grow to thousands of stale seqs and be
        copied into every checkpoint)."""
        params = default_system()
        assert params.consistency is RC
        window = params.processor.window_size
        machine = Machine(params, dss_workload().generators(params.n_nodes))
        for _ in range(12):
            machine.run(2_000)
            for core in machine.cores:
                for phys in core.physical_cores():
                    u = phys.consistency
                    assert len(u._mem_heap) + len(u._load_heap) <= window
                    assert len(u._incomplete_mem) <= window
                    assert len(u._incomplete_loads) <= window
                    assert len(u._spec_lines_by_seq) <= window
