"""Per-layer host-time ledger for the benchmark's traced runs.

:func:`install` swaps timing shims onto the public entry points of each
``repro`` layer (``trace``, ``system``, ``cpu``, ``mem`` and, for the
sweep, ``run``) for the duration of a ``with`` block and puts the
original functions back on exit, exceptions included.  Nothing under
``src/`` knows about the ledger: the shims live here, in the benchmark's
own files, and the untraced runs that produce the end-to-end metrics
never import this module.

Every shim is a span: it pushes a child-time accumulator, calls the
original, and on return charges the elapsed time to its *site* both as
inclusive time and as self time (inclusive minus the time of shimmed
calls made inside it).  Self times of different sites never overlap, so
within one process they sum to no more than the wall time of the traced
window.  A site record is ``[calls, inclusive_s, self_s]``.

Forked pool workers inherit the installed shims.  Each worker resets
the ledger it inherited on its first job and writes its own totals to
``<dump_dir>/ledger-<pid>.json`` after every job, and the parent merges
those files with :meth:`Ledger.merge_dumps`.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

_clock = time.perf_counter

#: Core entry points the main loops call (absent ones are skipped, so a
#: later change that merges or removes tick variants needs no edit here).
CORE_ENTRY_POINTS = ("tick", "tick_fast", "settle", "tick_span")
#: ``NodeMemorySystem`` calls made by cores and store buffers.
ACCESS_ENTRY_POINTS = ("access_data", "access_instr", "prefetch_data",
                       "flush_line")
#: ``CoherentMemory`` directory transactions.
COHERENCE_ENTRY_POINTS = ("read", "write", "flush", "writeback",
                          "evict_clean")


class Ledger:
    """Site records and counters of one process."""

    def __init__(self) -> None:
        self.sites: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {"sim_cycles": 0,
                                           "record_job_wall_s": 0.0}
        self.stack: List[float] = [0.0]
        self.pid = os.getpid()
        self._measuring: "weakref.WeakSet[Any]" = weakref.WeakSet()

    def site(self, name: str) -> List[float]:
        return self.sites.setdefault(name, [0, 0.0, 0.0])

    def reset(self) -> None:
        """Zero every record in place (shims hold references to them)."""
        for record in self.sites.values():
            record[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0
        self.stack[:] = [0.0]
        self.pid = os.getpid()

    def get(self, name: str) -> List[float]:
        return self.sites.get(name, [0, 0.0, 0.0])

    def self_time(self) -> float:
        """Sum of self time over every site."""
        return sum(record[2] for record in self.sites.values())

    # ------------------------------------------------------------- spans

    def shim(self, name: str, fn: Callable,
             pick: Optional[Callable[[Any], List[float]]] = None,
             tally: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` wrapped in a span charged to site ``name``.

        ``pick``, when given, chooses the site record from the first
        argument at call time instead; ``tally`` sees every return value.
        """
        record = None if pick is not None else self.site(name)
        stack = self.stack

        def span(*args, **kwargs):
            rec = pick(args[0]) if pick is not None else record
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
            if tally is not None:
                tally(result)
            return result

        span.__wrapped__ = fn
        return span

    def streams(self, fn: Callable) -> Callable:
        """Wrap a ``generators`` method so every stream's ``next`` is a
        ``trace.gen`` span."""
        record = self.site("trace.gen")
        stack = self.stack

        def generators(*args, **kwargs):
            return [_TimedStream(source, record, stack)
                    for source in fn(*args, **kwargs)]

        generators.__wrapped__ = fn
        return generators

    # ----------------------------------------------------- worker dumps

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"sites": self.sites,
                                   "counters": self.counters}))
        os.replace(tmp, path)

    def merge_dumps(self, directory: Path) -> int:
        """Add every worker dump in ``directory``; returns how many."""
        merged = 0
        for path in sorted(directory.glob("ledger-*.json")):
            data = json.loads(path.read_text())
            for name, (calls, incl, self_s) in data["sites"].items():
                record = self.site(name)
                record[0] += calls
                record[1] += incl
                record[2] += self_s
            for key, value in data["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            merged += 1
        return merged


class _TimedStream:
    """Iterator proxy timing each ``next`` as a ``trace.gen`` span."""

    __slots__ = ("_next", "_record", "_stack")

    def __init__(self, source, record: List[float], stack: List[float]):
        self._next = iter(source).__next__
        self._record = record
        self._stack = stack

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        stack = self._stack
        stack.append(0.0)
        start = _clock()
        try:
            return self._next()
        finally:
            elapsed = _clock() - start
            inner = stack.pop()
            stack[-1] += elapsed
            record = self._record
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - inner


def _patch_plan(ledger: Ledger, dump_dir: Optional[Path]):
    """``(owner, attribute, replacement factory)`` for every shim."""
    from repro.core.workloads import Workload
    from repro.cpu.core import ProcessorCore
    from repro.mem.coherence import CoherentMemory
    from repro.mem.memsys import NodeMemorySystem
    from repro.system.machine import Machine
    from repro.trace.arena import TraceArena

    counters = ledger.counters
    warmup = ledger.site("system.warmup")
    measure = ledger.site("system.measure")
    measuring = ledger._measuring

    def phase(machine) -> List[float]:
        return measure if machine in measuring else warmup

    def add_cycles(cycles) -> None:
        counters["sim_cycles"] += cycles

    def reset_stats_factory(fn):
        def reset_stats(machine, *args, **kwargs):
            measuring.add(machine)
            return fn(machine, *args, **kwargs)
        reset_stats.__wrapped__ = fn
        return reset_stats

    plan = [
        (Workload, "generators", ledger.streams),
        (TraceArena, "generators", ledger.streams),
        (Machine, "__init__",
         lambda fn: ledger.shim("system.init", fn)),
        (Machine, "run",
         lambda fn: ledger.shim("system.run", fn, pick=phase,
                                tally=add_cycles)),
        (Machine, "reset_stats", reset_stats_factory),
    ]
    plan += [(ProcessorCore, name,
              lambda fn: ledger.shim("cpu.tick", fn))
             for name in CORE_ENTRY_POINTS]
    plan += [(NodeMemorySystem, name,
              lambda fn: ledger.shim("mem.access", fn))
             for name in ACCESS_ENTRY_POINTS]
    plan += [(CoherentMemory, name,
              lambda fn: ledger.shim("mem.coherence", fn))
             for name in COHERENCE_ENTRY_POINTS]
    if dump_dir is not None:
        plan += _run_layer_plan(ledger, dump_dir)
    return plan


def _run_layer_plan(ledger: Ledger, dump_dir: Path):
    """Shims for the sweep harness: parent-side job and cache spans,
    checkpoint writes and arena writes, plus the worker dump hook."""
    from repro.run import executor, forkserver
    from repro.run.cache import ResultCache
    from repro.run.checkpoint import CheckpointStore
    from repro.trace.arena import ArenaRecorder

    counters = ledger.counters

    def add_record_wall(outcome) -> None:
        counters["record_job_wall_s"] += outcome.wall_time

    def dumping_factory(fn):
        def run_entry(*args, **kwargs):
            if os.getpid() != ledger.pid:
                # First job in a forked worker: drop the parent's totals
                # inherited at fork time.
                ledger.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.dump(dump_dir / f"ledger-{os.getpid()}.json")
        run_entry.__wrapped__ = fn
        return run_entry

    return [
        (executor, "_run_one_serial",
         lambda fn: ledger.shim("run.record_job", fn,
                                tally=add_record_wall)),
        (ResultCache, "put", lambda fn: ledger.shim("run.cache_put", fn)),
        (CheckpointStore, "save",
         lambda fn: ledger.shim("run.checkpoint", fn)),
        (ArenaRecorder, "write",
         lambda fn: ledger.shim("trace.arena_write", fn)),
        (forkserver, "run_entry", dumping_factory),
    ]


@contextlib.contextmanager
def install(ledger: Ledger, dump_dir: Optional[Path] = None
            ) -> Iterator[Ledger]:
    """Shim every layer entry point while the block runs.

    ``dump_dir`` also shims the ``run`` layer and makes forked pool
    workers write their ledgers there.  Attributes an owner does not
    define itself are skipped.  The originals are restored in reverse
    order on exit, whether or not the block raised.
    """
    patched = []
    try:
        for owner, name, factory in _patch_plan(ledger, dump_dir):
            original = vars(owner).get(name)
            if original is None:
                continue
            setattr(owner, name, factory(original))
            patched.append((owner, name, original))
        yield ledger
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


# ------------------------------------------------------------------ metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, results: Sequence[Any], report=None,
                  warm_rerun_s: float = 0.0) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``results`` are the jobs' ``SimulationResult`` objects; ``report``
    is the sweep's ``RunReport`` (``None`` for in-process single jobs,
    whose ``run`` metrics are then all 0: that layer does no work).
    """
    if report is None:
        from repro.run import RunReport
        report = RunReport()
    gen = ledger.get("trace.gen")
    init = ledger.get("system.init")
    warm = ledger.get("system.warmup")
    meas = ledger.get("system.measure")
    tick = ledger.get("cpu.tick")
    access = ledger.get("mem.access")
    coherence = ledger.get("mem.coherence")
    record_job_s = ledger.get("run.record_job")[1]
    arena_write_s = ledger.get("trace.arena_write")[1]
    puts = ledger.get("run.cache_put")
    job_s = [o.wall_time for o in report.outcomes if not o.cached]
    pool_s = sum(job_s) - ledger.counters["record_job_wall_s"]
    pool_window = (report.wall_time - record_job_s - arena_write_s) \
        * report.jobs
    nodes = results[0].params.n_nodes
    count = len(results)

    def mean(values) -> float:
        return sum(values) / count

    return {
        "trace.gen_s": gen[2],
        "trace.gen_us_per_instr": 1e6 * _ratio(gen[2], gen[0]),
        "trace.arena_write_s": arena_write_s,
        "trace.arena_jobs": report.arena_jobs,
        "system.machine_init_ms": 1e3 * _ratio(init[1], init[0]),
        "system.warmup_s": warm[1],
        "system.measure_s": meas[1],
        "system.loop_self_s": warm[2] + meas[2],
        "cpu.ticks": tick[0],
        "cpu.ticks_per_cycle": _ratio(
            tick[0], ledger.counters["sim_cycles"] * nodes),
        "cpu.us_per_tick": 1e6 * _ratio(tick[1], tick[0]),
        "cpu.tick_self_s": tick[2],
        "mem.access_calls": access[0],
        "mem.access_self_s": access[2],
        "mem.coherence_calls": coherence[0],
        "mem.coherence_s": coherence[2],
        "mem.l1i_miss_rate": mean(r.miss_rates["l1i"] for r in results),
        "mem.l1d_miss_rate": mean(r.miss_rates["l1d"] for r in results),
        "mem.l2_miss_rate": mean(r.miss_rates["l2"] for r in results),
        "mem.dirty_reads": sum(r.coherence.reads_dirty for r in results),
        "mem.streambuf_hit_rate": mean(r.stream_buffer_hit_rate
                                       for r in results),
        "cpu.ipc": mean(r.ipc for r in results),
        "cpu.mispredict_rate": mean(r.misprediction_rate
                                    for r in results),
        "run.record_job_s": record_job_s,
        "run.pool_busy_ratio": _ratio(pool_s, pool_window),
        "run.job_s_p50": statistics.median(job_s) if job_s else 0.0,
        "run.job_s_max": max(job_s, default=0.0),
        "run.checkpoints": ledger.get("run.checkpoint")[0],
        "run.checkpoint_s": report.checkpoint_s,
        "run.cache_put_ms": 1e3 * _ratio(puts[1], puts[0]),
        "run.warm_rerun_s": warm_rerun_s,
        "run.attempts": sum(o.attempts for o in report.outcomes),
    }
