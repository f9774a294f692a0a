"""Detailed core-pipeline tests: trace buffer, squash, structural limits."""

import dataclasses
import heapq
import itertools

import pytest

from repro.cpu.core import (
    _FU_CLASS,
    ST_EXEC,
    ST_READY,
    TraceBuffer,
    WindowEntry,
)
from repro.params import default_system
from repro.system.machine import Machine
from repro.trace.instr import (
    BR_COND,
    OP_BRANCH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_MB,
    OP_STORE,
    OP_WMB,
    Instruction,
)

CODE = 0x0100_0000
DATA = 0x2000_0000


def alu(pc, deps=()):
    return Instruction(OP_INT, pc, deps=tuple(deps))


class TestTraceBuffer:
    def _buffer(self, n=100):
        return TraceBuffer(iter([alu(CODE + 4 * i) for i in range(n)]))

    def test_sequential_get(self):
        buf = self._buffer()
        assert buf.get(0).pc == CODE
        assert buf.get(5).pc == CODE + 20

    def test_rewind_before_release(self):
        buf = self._buffer()
        first = buf.get(10)
        buf.get(20)
        assert buf.get(10) is first  # same object: rewind works

    def test_release_frees_prefix(self):
        buf = self._buffer()
        buf.get(10)
        buf.release_through(5)
        assert buf.get(6).pc == CODE + 24
        assert len(buf._buf) == 5

    def test_get_after_release_of_same_seq_raises_nothing_beyond(self):
        buf = self._buffer()
        buf.get(3)
        buf.release_through(3)
        # Seq 4 onward still reachable.
        assert buf.get(4).pc == CODE + 16


class TestStructuralLimits:
    def test_window_size_bounds_inflight(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, window_size=8))
        # A long-latency head load keeps the window full behind it.
        program = [Instruction(OP_LOAD, CODE, addr=DATA, deps=())] + \
            [alu(CODE + 4 + 4 * i) for i in range(63)]
        m = Machine(params, [itertools.cycle(program)])
        m.run(500)
        assert max(len(core._window) for core in m.cores) <= 8

    def test_max_spec_branches_limits_fetch(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, max_spec_branches=2))
        # Branches that depend on a slow load cannot resolve quickly.
        program = [Instruction(OP_LOAD, CODE, addr=DATA)]
        for i in range(20):
            program.append(Instruction(
                OP_BRANCH, CODE + 4 + 8 * i, deps=(i + 1,),
                taken=False, target=CODE + 8 + 8 * i,
                branch_kind=BR_COND))
            program.append(alu(CODE + 8 + 8 * i))
        m = Machine(params, [itertools.cycle(program)])
        m.run(200, max_cycles=1_000_000)
        core = m.cores[0]
        assert core._unresolved_branches <= 2

    def test_memory_queue_limits_outstanding(self):
        params = default_system(n_nodes=1, mesh_width=1)
        params = params.replace(processor=dataclasses.replace(
            params.processor, mem_queue_size=4))
        program = [Instruction(OP_LOAD, CODE + 4 * i,
                               addr=DATA + 4096 * i) for i in range(64)]
        m = Machine(params, [itertools.cycle(program)])
        m.run(300)
        core = m.cores[0]
        from repro.cpu.core import ST_MEMACC
        outstanding = len(core._memq) + sum(
            1 for e in core._window if e.state == ST_MEMACC)
        assert outstanding <= 4 + 2  # small slack for same-cycle issue


class TestFences:
    def test_mb_waits_for_store_buffer(self):
        """An MB after stores costs sync time (buffer drain)."""
        params = default_system(n_nodes=1, mesh_width=1)
        stores_mb = []
        for i in range(8):
            stores_mb.append(Instruction(OP_STORE, CODE + 8 * i,
                                         addr=DATA + 4096 * i))
        stores_mb.append(Instruction(OP_MB, CODE + 100))
        stores_mb.extend(alu(CODE + 104 + 4 * i) for i in range(16))
        m = Machine(params, [itertools.cycle(stores_mb)])
        m.run(2000)
        assert m.breakdown().sync > 0

    def _fence_program(self, fence_op):
        program = []
        for i in range(8):
            program.append(Instruction(OP_STORE, CODE + 8 * i,
                                       addr=DATA + 4096 * i))
            program.append(Instruction(fence_op, CODE + 8 * i + 4))
        program.extend(alu(CODE + 200 + 4 * i) for i in range(16))
        return program

    def test_wmb_cheaper_than_mb(self):
        """WMB only orders the write buffer (retirement continues);
        MB stalls retirement until the buffer drains."""
        params = default_system(n_nodes=1, mesh_width=1)
        t_wmb = Machine(params, [itertools.cycle(
            self._fence_program(OP_WMB))]).run(2000)
        t_mb = Machine(params, [itertools.cycle(
            self._fence_program(OP_MB))]).run(2000)
        assert t_wmb <= t_mb

    def test_wmb_orders_buffered_writes(self):
        """Stores separated by WMBs drain serially: slower end-to-end
        than unordered stores -- the fence really orders the buffer."""
        params = default_system(n_nodes=1, mesh_width=1)
        ordered = Machine(params, [itertools.cycle(
            self._fence_program(OP_WMB))])
        t_ordered = ordered.run(2000)
        plain = [i for i in self._fence_program(OP_WMB)
                 if i.op != OP_WMB]
        t_plain = Machine(params, [itertools.cycle(plain)]).run(2000)
        assert t_ordered > t_plain


class TestRollbackMechanics:
    def test_squash_resets_fetch(self):
        params = default_system(n_nodes=1, mesh_width=1)
        m = Machine(params, [itertools.cycle(
            [alu(CODE + 4 * i) for i in range(64)])])
        m.run(500)
        core = m.cores[0]
        head = core._window[0].seq if core._window else core._next_seq
        target = head + 2 if core._window and len(core._window) > 4 \
            else head
        core._squash_from(target, m.now, penalty=5)
        assert core._next_seq == target
        assert all(e.seq < target for e in core._window)
        # Simulation continues cleanly after the squash.
        m.run(500)
        assert m.total_retired() >= 1000


class TestIssueOutOfOrder:
    """``_issue_ooo`` on a hand-built window: one ready heap per FU class
    (int+branch, fp, agu), oldest-first across classes."""

    def _core(self, ops, smt=False, width=None):
        """A core whose window holds READY entries ``(seq, op)``."""
        params = default_system(n_nodes=1, mesh_width=1)
        proc = params.processor
        if smt:
            proc = dataclasses.replace(proc, smt_contexts=2)
        if width is not None:
            proc = dataclasses.replace(proc, issue_width=width)
        machine = Machine(params.replace(processor=proc), [iter(())])
        core = machine.cores[0]
        if smt:
            core.shared.refresh(0)
            core = core.contexts[0]
        for seq, op in ops:
            entry = WindowEntry(seq, Instruction(op, CODE + 4 * seq),
                                uid=seq)
            entry.state = ST_READY
            core._entries[seq] = entry
            heapq.heappush(core._ready[_FU_CLASS.get(op, 0)],
                           (seq, entry.uid, entry))
        return core

    @staticmethod
    def _issued(core):
        return sorted(seq for seq, e in core._entries.items()
                      if e.state == ST_EXEC)

    def test_oldest_first_across_classes(self):
        core = self._core([(5, OP_INT), (1, OP_FP), (3, OP_LOAD)],
                          width=2)
        core._issue_ooo(0)
        assert self._issued(core) == [1, 3]
        assert core._issue_wake == 1

    def test_starved_class_is_skipped_not_popped(self):
        """Two FP units: the third FP waits in its heap, untouched, while
        younger int and agu ops take the remaining slots."""
        core = self._core([(0, OP_FP), (1, OP_FP), (2, OP_FP),
                           (3, OP_INT), (4, OP_LOAD), (5, OP_INT)])
        fp_heap = core._ready[1]
        core._issue_ooo(0)
        assert self._issued(core) == [0, 1, 3, 4]
        assert [item[0] for item in fp_heap] == [2]
        assert [item[0] for item in core._ready[0]] == [5]
        assert core._issue_wake == 1

    def test_stale_heads_dropped(self):
        core = self._core([(0, OP_INT), (1, OP_INT), (2, OP_INT)])
        del core._entries[0]   # squashed
        core._issue_ooo(0)
        assert self._issued(core) == [1, 2]
        assert core._ready == [[], [], []]

    def test_nothing_ready_is_event_driven(self):
        core = self._core([(0, OP_INT)])
        del core._entries[0]
        core._issue_ooo(0)
        assert core._issue_wake == 0
        assert core._ready == [[], [], []]

    def test_fu_starved_with_nothing_issued_polls(self):
        """An SMT sibling took every FP unit this cycle: nothing issues,
        but the starved entry needs a tick next cycle."""
        core = self._core([(0, OP_FP), (1, OP_FP)], smt=True)
        core.shared.fu[1] = 0
        core._issue_ooo(0)
        assert self._issued(core) == []
        assert core._issue_wake == 1
        assert core.shared.issue_slots == 4

    def test_smt_issue_slots_exhausted(self):
        core = self._core([(0, OP_INT)], smt=True)
        core.shared.issue_slots = 0
        core._issue_ooo(0)
        assert self._issued(core) == []
        assert core._issue_wake == 1
        empty = self._core([], smt=True)
        empty.shared.issue_slots = 0
        empty._issue_ooo(0)
        assert empty._issue_wake == 0

    def test_smt_pools_are_shared(self):
        """Units and slots a context takes are gone for its siblings."""
        core = self._core([(0, OP_FP), (1, OP_FP), (2, OP_INT)],
                          smt=True)
        core._issue_ooo(0)
        assert self._issued(core) == [0, 1, 2]
        assert core.shared.fu == [1, 0, 2]
        assert core.shared.issue_slots == 1
