"""Tests for one-pass instruction emission: PC assignment, branch
insertion, and dependence resolution from tags (dynamic indices)."""

import random

from repro.trace.codewalk import CodeWalker
from repro.trace.emitter import MAX_DEP_DISTANCE, Emitter
from repro.trace.instr import OP_BRANCH, OP_INT, OP_LOAD, OP_STORE


def emitter(seed=0):
    rng = random.Random(seed)
    return Emitter(CodeWalker(0x100000, 32 * 1024, rng), (4, 7))


def semantic(out):
    """The emitted instructions other than inserted branches."""
    return [i for i in out if i.op != OP_BRANCH]


class TestAssembly:
    def test_branches_inserted(self):
        em = emitter()
        for _ in range(100):
            em.alu()
        branches = [i for i in em.out if i.op == OP_BRANCH]
        assert branches
        # Semantic ops preserved in order.
        assert sum(1 for i in em.out if i.op == OP_INT) == 100
        assert em.index == len(em.out)

    def test_non_branch_pcs_advance_sequentially(self):
        em = emitter()
        for _ in range(50):
            em.alu()
        out = em.out
        for a, b in zip(out, out[1:]):
            if a.op != OP_BRANCH and b.op != OP_BRANCH:
                assert b.pc == a.pc + 4

    def test_fixed_pc_respected(self):
        em = emitter()
        for _ in range(10):
            em.alu()
        em.store(0x5000, fixed_pc=0x77777770)
        stores = [i for i in em.out if i.op == OP_STORE]
        assert stores[0].pc == 0x77777770

    def test_fixed_pc_does_not_trigger_branch_insertion(self):
        em = emitter()
        for i in range(64):
            em.simple(OP_INT, fixed_pc=0x1000 + 4 * i)
        assert all(i.op != OP_BRANCH for i in em.out)


class TestDependences:
    def test_dependence_distance_resolved(self):
        em = emitter()
        tag = em.load(0x9000)
        em.alu(dep_tags=(tag,))
        out = em.out
        loads = [(idx, i) for idx, i in enumerate(out) if i.op == OP_LOAD]
        ints = [(idx, i) for idx, i in enumerate(out) if i.op == OP_INT]
        (load_idx, _), (int_idx, instr) = loads[0], ints[0]
        assert load_idx == tag
        assert instr.deps == (int_idx - load_idx,)

    def test_inserted_branches_shift_distances(self):
        """Distances account for emitter-inserted branch instructions."""
        em = emitter()
        tag = em.load(0x9000)
        for _ in range(20):
            em.alu()
        em.alu(dep_tags=(tag,))
        out = em.out
        load_idx = next(i for i, x in enumerate(out) if x.op == OP_LOAD)
        consumer_idx = len(out) - 1
        assert out[consumer_idx].op == OP_INT
        assert out[consumer_idx].deps == (consumer_idx - load_idx,)
        # More dynamic instructions than semantic ops -> branches counted.
        assert len(out) > len(semantic(out)) == 22

    def test_faraway_dependences_dropped(self):
        em = emitter()
        tag = em.load(0x9000)
        for _ in range(MAX_DEP_DISTANCE + 50):
            em.alu()
        near = em.alu()
        em.alu(dep_tags=(tag, near))
        # The load is out of reach; the nearby producer is kept.
        assert em.out[-1].deps == (len(em.out) - 1 - near,)

    def test_deps_always_positive_and_bounded(self):
        em = emitter()
        tags = []
        rng = random.Random(5)
        for _ in range(500):
            dep = (rng.choice(tags),) if tags and rng.random() < 0.5 else ()
            tags.append(em.alu(dep_tags=dep))
            tags = tags[-8:]
        assert any(instr.deps for instr in em.out)
        for instr in em.out:
            for d in instr.deps:
                assert 0 < d <= MAX_DEP_DISTANCE


class TestHelpers:
    def test_alu_latencies(self):
        em = emitter()
        em.alu()
        em.alu(fp=True)
        int_op, fp_op = semantic(em.out)
        assert int_op.latency == 1
        assert fp_op.latency == 3

    def test_tags_unique(self):
        em = emitter()
        t1 = em.alu()
        t2 = em.load(0x100)
        assert t1 != t2
        assert em.out[t1].op == OP_INT and em.out[t2].op == OP_LOAD

    def test_store_has_no_tag(self):
        em = emitter()
        assert em.store(0x100) is None
