"""Golden instruction-stream digests of every workload generator.

Each digest is the sha256 over the tuples ``(op, pc, addr, deps, latency,
taken, target, branch_kind)`` of the first ``N_INSTRS`` instructions of
every process of a 4-CPU machine, one ``repr`` of the tuple list per
process.  A generator and its code walker share one ``random.Random``,
so any change in the order of RNG draws (or in PC assignment, branch
insertion or dependence resolution) moves a digest here in seconds,
long before it would show as a result-digest diff after a full
simulation.

The draw helper test pins the one place where the generators replace
``random`` calls by a cheaper equivalent: it must return the same values
and leave the generator in the same state.
"""

import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workloads import dss_workload, oltp_workload, \
    tpcc_workload
from repro.trace.database import MigratoryHints
from repro.trace.emitter import below_fn

N_INSTRS = 20_000
N_CPUS = 4

WORKLOADS = {
    "oltp": oltp_workload,
    "oltp-hints": lambda: oltp_workload(
        hints=MigratoryHints(prefetch=True, flush=True)),
    "tpcc": tpcc_workload,
    "dss": dss_workload,
}

#: Recorded before the generators were rewritten to emit Instructions
#: directly; the rewrite had to leave every one of them unchanged.
GOLDEN = {
    ("oltp", 0):
        "ab344d3b57f9765732a3ac345a09e15589a7afc72aa13853b3dec644d1c100f3",
    ("oltp", 1):
        "a152edbea602b426fe1b6d179b455e1f24e993f0a55a3bbaaed2e25d155511dc",
    ("oltp-hints", 0):
        "de7a47eb93e81d0353ca19ce314a61b41b0bebb79fc00d53f81394ac34441dbd",
    ("oltp-hints", 1):
        "8f712a9b4c606d849ab3486955a310b4a50c8fd2645741990e8e3254cda48d8f",
    ("tpcc", 0):
        "c1b8091111f7766b31c698fd56b0fc510de579fe180f7784152a0f094070fbaa",
    ("tpcc", 1):
        "b489cc0e6ddebbd81fa243e2927cccdf55b820a3a1d596272670dcae34ecd64e",
    ("dss", 0):
        "97e2a155b3cba9a98661eb5f9d890c07a642db2b469e639a0e0aa18e1f8e142d",
    ("dss", 1):
        "fafbe62e8a54e6225640f0b94747aede328068ab111c5d65c597d91b6102be19",
}


def stream_digest(workload, seed: int) -> str:
    h = hashlib.sha256()
    for gen in workload.generators(N_CPUS, seed=seed):
        h.update(repr([(i.op, i.pc, i.addr, i.deps, i.latency, i.taken,
                        i.target, i.branch_kind)
                       for i in islice(gen, N_INSTRS)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_golden_stream_digest(name, seed):
    assert stream_digest(WORKLOADS[name](), seed) == GOLDEN[(name, seed)]


class TestDrawHelper:
    """``below_fn(rng)(n)`` stands in for ``randrange(n)``,
    ``choice(seq)`` and ``sample(seq, k=1)``."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 2**40))
    def test_matches_randrange(self, seed, n):
        ref, fast = random.Random(seed), random.Random(seed)
        below = below_fn(fast)
        for _ in range(3):
            assert below(n) == ref.randrange(n)
        assert fast.getstate() == ref.getstate()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32),
           seq=st.lists(st.integers(), min_size=1, max_size=40))
    def test_matches_choice_and_sample(self, seed, seq):
        ref, fast = random.Random(seed), random.Random(seed)
        below = below_fn(fast)
        assert seq[below(len(seq))] == ref.choice(seq)
        assert [seq[below(len(seq))]] == ref.sample(seq, k=1)
        assert fast.getstate() == ref.getstate()
