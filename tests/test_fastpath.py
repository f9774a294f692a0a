"""Main loop: the certified-skip predicate against the always-due oracle.

``Machine.run`` ticks a core at a grid point only when it is *due*; a
private, test-only switch (``Machine._always_due``) makes every core due
at every grid point instead.  That dense walk is the reference oracle:
the skip loop's whole contract is instruction-for-instruction
equivalence with it.  These tests pin that contract:

* results (``SimulationResult.to_dict``) and full machine snapshots are
  byte-identical across workloads, consistency models, SMT, in-order
  cores, unlimited functional units and chunked runs;
* every result matches a recorded golden digest, so a change that moves
  the skip loop and the oracle together still fails;
* the forward-progress watchdog trips at the identical cycle with the
  identical classification in both modes (``now`` never skips past a
  pending watchdog deadline);
* checkpoint-interval boundaries land on the same retired-instruction
  counts with the same ``now`` and byte-identical snapshots, and a
  checkpoint taken in one mode resumes in the other;
* sanitized runs (``check=True``) run the same skip loop, silently, and
  produce the unsanitized result.
"""

import dataclasses
import functools
import hashlib
import json
import warnings
from collections import OrderedDict, deque

import pytest

from repro.check.invariants import InvariantViolation
from repro.core.experiment import assemble_result, run_simulation
from repro.core.workloads import dss_workload, oltp_workload, \
    tpcc_workload
from repro.cpu.core import ProcessorCore
from repro.params import ConsistencyImpl, ConsistencyModel, \
    default_system
from repro.run import checkpoint as ckpt
from repro.run.checkpoint import state_digest
from repro.system.machine import Machine, WedgeError


# --------------------------------------------------------------- helpers

def canon(obj):
    """Order-insensitive deep canonical form for snapshot comparison.

    Dicts and sets are sorted (insertion order of an ``OrderedDict`` is
    semantic -- LRU order -- and preserved); generic objects compare by
    class name plus attributes.
    """
    if isinstance(obj, OrderedDict):
        return ("od", [(canon(k), canon(v)) for k, v in obj.items()])
    if isinstance(obj, dict):
        return ("d", sorted(((canon(k), canon(v))
                             for k, v in obj.items()), key=repr))
    if isinstance(obj, (set, frozenset)):
        return ("s", sorted((canon(x) for x in obj), key=repr))
    if isinstance(obj, (list, tuple, deque)):
        return ("l", [canon(x) for x in obj])
    if isinstance(obj, (int, float, str, bool, bytes, type(None))):
        return obj
    attrs = {}
    if hasattr(obj, "__slots__"):
        names = []
        for klass in type(obj).__mro__:
            names.extend(getattr(klass, "__slots__", ()))
        for name in names:
            if hasattr(obj, name):
                attrs[name] = getattr(obj, name)
    if hasattr(obj, "__dict__"):
        attrs.update(obj.__dict__)
    return (type(obj).__name__,
            sorted(((k, canon(v)) for k, v in attrs.items()), key=repr))


def build_machine(params, workload, seed=0, dense=False):
    """A fresh machine; ``dense`` selects the always-due oracle."""
    machine = Machine(params, workload.generators(params.n_nodes,
                                                  seed=seed))
    machine._always_due = dense
    return machine


def one_run(params, workload, instr, warmup, seed=0, chunks=None,
            dense=False):
    m = build_machine(params, workload, seed, dense)
    if warmup:
        m.run(warmup)
        m.reset_stats()
    if chunks:
        cycles = 0
        base = m.total_retired()
        for stop in chunks:
            cycles += m.run(base + stop - m.total_retired())
    else:
        cycles = m.run(instr)
    res = assemble_result(m, workload.name, cycles, instr)
    return res.to_dict(), canon(m.snapshot())


def result_digest(result: dict) -> str:
    """First 16 hex digits of the sha256 of the sorted-key result JSON."""
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


BASE = default_system()
_SMT2 = BASE.replace(processor=dataclasses.replace(
    BASE.processor, smt_contexts=2))
_INORDER = BASE.replace(processor=dataclasses.replace(
    BASE.processor, out_of_order=False))
_INFINITE_FU = BASE.replace(processor=dataclasses.replace(
    BASE.processor, infinite_functional_units=True))

MATRIX = [
    ("oltp", BASE, oltp_workload, {}),
    ("dss", BASE, dss_workload, {}),
    ("tpcc", BASE, tpcc_workload, {}),
    ("oltp-inorder", _INORDER, oltp_workload, {}),
    ("oltp-smt2", _SMT2, oltp_workload, {}),
    ("oltp-sc", BASE.replace(
        consistency=ConsistencyModel.SC,
        consistency_impl=ConsistencyImpl.STRAIGHTFORWARD),
        oltp_workload, {}),
    ("oltp-pc-prefetch", BASE.replace(
        consistency=ConsistencyModel.PC,
        consistency_impl=ConsistencyImpl.PREFETCH),
        oltp_workload, {}),
    ("oltp-rc-spec", BASE.replace(
        consistency=ConsistencyModel.RC,
        consistency_impl=ConsistencyImpl.SPECULATIVE),
        oltp_workload, {}),
    ("oltp-chunked", BASE, oltp_workload,
     {"chunks": [800, 1700, 2500]}),
    ("oltp-watchdog-armed", BASE.replace(
        watchdog_cycles=200000, watchdog_node_cycles=150000),
        oltp_workload, {}),
    ("dss-smt2", _SMT2, dss_workload, {}),
    ("dss-inorder", _INORDER, dss_workload, {}),
    ("dss-infinite-fu", _INFINITE_FU, dss_workload, {}),
]
CELLS = {m[0]: m[1:] for m in MATRIX}

#: ``result_digest`` of each cell (2500 measured + 1000 warmup
#: instructions, seed 0), recorded from the simulator before its
#: per-instruction hot path was restructured (per-FU-class ready heaps,
#: inlined fetch/dispatch/issue/retire).  Valid while MODEL_VERSION is 2.
GOLDEN = {
    "oltp": "4d7e58958114aead",
    "dss": "22af69504253e266",
    "tpcc": "2b8deefb492018c5",
    "oltp-inorder": "e64b045b36379018",
    "oltp-smt2": "65d76f066e70ca21",
    "oltp-sc": "226e2946e2bf1e9e",
    "oltp-pc-prefetch": "e33855345cb4a4c8",
    "oltp-rc-spec": "32a8e460f123017f",
    "oltp-chunked": "4d7e58958114aead",
    "oltp-watchdog-armed": "4d7e58958114aead",
    "dss-smt2": "89487ce04dbdbcb2",
    "dss-inorder": "798f57614debf5d9",
    "dss-infinite-fu": "11ea31c763d70fec",
}


@functools.lru_cache(maxsize=None)
def cell_runs(name):
    """(always-due, skip) runs of one matrix cell, each a (result dict,
    snapshot digest) pair; cached so the identity and golden tests share
    one simulation per mode."""
    params, workload_factory, kw = CELLS[name]
    runs = []
    for dense in (True, False):
        result, snapshot = one_run(params, workload_factory(), 2500, 1000,
                                   0, kw.get("chunks"), dense=dense)
        digest = hashlib.sha256(repr(snapshot).encode()).hexdigest()
        runs.append((result, digest))
    return tuple(runs)


@pytest.mark.parametrize("name", CELLS)
def test_backend_identity(name):
    """The skip loop is byte-identical to the always-due oracle."""
    dense, skip = cell_runs(name)
    assert dense[0] == skip[0], "results diverged between modes"
    assert dense[1] == skip[1], "snapshots diverged between modes"


@pytest.mark.parametrize("name", CELLS)
def test_golden_result_digest(name):
    """Both modes reproduce the recorded result, not just each other."""
    for result, _snapshot in cell_runs(name):
        assert result_digest(result) == GOLDEN[name]


def _count_ticks(monkeypatch):
    """Count ProcessorCore.tick calls (patched on the class, so machines
    built afterwards -- and checker wrappers -- see the counter)."""
    calls = [0]
    original = ProcessorCore.tick

    def tick(self, now):
        calls[0] += 1
        return original(self, now)
    monkeypatch.setattr(ProcessorCore, "tick", tick)
    return calls


def test_oracle_ticks_every_core_at_every_grid_point(monkeypatch):
    """The oracle is not vacuous: it ticks strictly more often than the
    skip loop, which must still land on the same final cycle."""
    calls = _count_ticks(monkeypatch)
    counts, nows = {}, {}
    for dense in (True, False):
        calls[0] = 0
        m = build_machine(BASE, oltp_workload(), dense=dense)
        m.run(1500)
        counts[dense], nows[dense] = calls[0], m.now
    assert nows[True] == nows[False]
    assert counts[False] < counts[True]


# ----------------------------------------------- watchdog equivalence

def test_watchdog_trips_at_identical_cycle():
    """A wedged single-node run trips the watchdog at the same cycle
    with the same classification in both modes: skip-ahead never jumps
    past a pending watchdog deadline."""
    params = BASE.replace(n_nodes=1, mesh_width=1, watchdog_cycles=40)
    trips = {}
    for dense in (True, False):
        m = build_machine(params, oltp_workload(), dense=dense)
        with pytest.raises(WedgeError) as err:
            m.run(4000)
        trips[dense] = err.value.to_dict()
    assert trips[True] == trips[False]


# ---------------------------------------------- checkpoint boundaries

def test_checkpoint_boundaries_identical():
    """Interval-chunked runs (the ``--checkpoint-every`` driver loop)
    stop at the same retired counts with the same ``now`` and
    byte-identical snapshots in both modes."""
    every, target = 600, 3000
    states = {}
    for dense in (True, False):
        m = build_machine(BASE, oltp_workload(), dense=dense)
        boundaries = []
        total = m.total_retired()
        while total < target:
            boundary = (total // every + 1) * every
            m.run(min(boundary, target) - total)
            total = m.total_retired()
            boundaries.append((total, m.now, canon(m.snapshot())))
        states[dense] = boundaries
    oracle, skip = states[True], states[False]
    assert len(oracle) == len(skip)
    for (o_total, o_now, o_snap), (s_total, s_now, s_snap) in \
            zip(oracle, skip):
        assert o_total == s_total, \
            "checkpoint boundary hit a different retired count"
        assert o_now == s_now, \
            "machine time diverged at a checkpoint boundary"
        assert o_snap == s_snap, \
            "snapshot diverged at a checkpoint boundary"


@pytest.mark.parametrize("take,resume", [("dense", "skip"),
                                         ("skip", "dense")])
def test_cross_mode_checkpoint_resume(take, resume):
    """A checkpoint taken in one mode resumes in the other to a
    byte-identical final state (checkpoints are mode-agnostic)."""
    target = 3600
    baseline = build_machine(BASE, oltp_workload(), dense=True)
    baseline.run(target)

    first = build_machine(BASE, oltp_workload(), dense=take == "dense")
    first.run(1500)
    payload = {"machine": first.snapshot(),
               "trace_offsets": first.trace_consumed()}
    resumed = ckpt._rebuild_machine(BASE, oltp_workload(), 0, payload)
    resumed._always_due = resume == "dense"
    assert resumed.total_retired() == first.total_retired()
    resumed.run(target - resumed.total_retired())

    assert state_digest(resumed) == state_digest(baseline)
    assert resumed.now == baseline.now
    assert canon(resumed.snapshot()) == canon(baseline.snapshot())


# ------------------------------------------------------ sanitized runs

def test_sanitized_runs_use_the_skip_loop(monkeypatch):
    """check=True runs the production loop: no fallback warning, fewer
    ticks than the always-due oracle makes (and than cycles x nodes),
    and the same result as the unsanitized run."""
    calls = _count_ticks(monkeypatch)
    instr, warmup = 1500, 500
    counts, results, cycles = {}, {}, {}
    for label, check, dense in (("oracle", False, True),
                                ("plain", False, False),
                                ("sanitized", True, False)):
        calls[0] = 0
        m = build_machine(BASE.replace(check=check), oltp_workload(),
                          dense=dense)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.run(warmup)
            m.reset_stats()
            measured = m.run(instr)
        if check:
            assert m.checker is not None and m.checker.checks > 0
        counts[label], cycles[label] = calls[0], m.now
        results[label] = assemble_result(m, "oltp", measured,
                                         instr).to_dict()
    assert counts["sanitized"] < counts["oracle"]
    assert counts["sanitized"] < cycles["sanitized"] * BASE.n_nodes
    assert counts["sanitized"] == counts["plain"]
    assert results["sanitized"] == results["plain"] == results["oracle"]


@pytest.mark.xfail(
    strict=True, raises=InvariantViolation,
    reason="model bug under PC + prefetch: a consistency-blocked load in "
           "_process_memq calls prefetch_data(exclusive=False), which "
           "checks only L1D, so the owner of line 0x101 (node 1: "
           "directory EXCLUSIVE, dirty and writable in its L2, absent "
           "from L1D) issues a directory read, and CoherentMemory.read's "
           "'owner re-reading after a silent drop' branch sets SHARED "
           "without downgrading node 1's dirty copy")
def test_sanitized_pc_prefetch_cell():
    """The sanitizer on the ``oltp-pc-prefetch`` cell.  Fixing the model
    changes PC + prefetch results (a MODEL_VERSION bump)."""
    params, workload_factory, _kw = CELLS["oltp-pc-prefetch"]
    run_simulation(params.replace(check=True), workload_factory(),
                   instructions=2500, warmup=1000, seed=0)
