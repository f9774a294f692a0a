"""Fault-isolating fan-out executor for independent simulation jobs.

:func:`run_many` takes a list of :class:`~repro.run.jobs.JobSpec` and
returns their results *in input order*, regardless of completion order,
so callers (figure sweeps, seed sweeps) see exactly the rows they asked
for.  Dispatch policy:

* every spec is first looked up in the result cache (when one is given);
* jobs sharing a workload/seed/run-size are grouped onto a **trace
  arena** (:mod:`repro.trace.arena`).  Each job's arena role is decided
  by :meth:`ArenaPlan.role` when an attempt of it starts: it *replays*
  the group's arena once that file loads, *records* it when no arena
  exists and it holds the group's recording claim (the first member
  started), and otherwise *generates* its own streams.  A recording
  job is an ordinary job on whichever dispatcher runs it (the pool
  records beside its siblings) and writes the arena after it succeeds;
* remaining misses run on a chain of dispatchers
  (:mod:`repro.run.dispatch`): serially in-process (``jobs=1``, the
  deterministic baseline), on the **persistent fork-server pool**
  (:mod:`repro.run.forkserver`, one job per future), or on the fabric;
* if the pool cannot be created or dies (restricted environments without
  ``fork``/semaphores, interpreter shutdown), the executor falls back to
  the serial path instead of failing the sweep.

Every dispatcher drives one attempt core, :class:`Attempts`: failures
are isolated **per job**, an attempt that raises any exception is
retried up to :attr:`RetryPolicy.retries` times with deterministic
exponential backoff, an attempt that exceeds
:attr:`RetryPolicy.job_timeout` is charged as a timeout and retried,
and only a job that exhausts its retries is reported as a *failed*
:class:`JobOutcome` (``result=None``) -- the rest of the sweep keeps
going.  A job's ``wall_time`` and ``ckpt_s`` sum over its charged
attempts.  Progress is journalled through an optional
:class:`~repro.run.manifest.SweepManifest` so interrupted sweeps resume
from the incomplete remainder.

Arenas never affect results or cache keys: replay is byte-identical to
generation, an arena defect falls back to the generator path inside the
job, and the arena role and path travel beside the spec -- never inside
:meth:`~repro.run.jobs.JobSpec.fingerprint`.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from repro.core.experiment import SimulationResult
from repro.run.cache import ResultCache
from repro.run.faults import FAULTS_ENV
from repro.run.jobs import JobSpec
from repro.run.manifest import SweepManifest
from repro.trace import arena as trace_arena

#: Environment override for arena usage: ``auto`` (default: share
#: traces across sweep groups of 2+), ``on`` (materialize even for
#: singleton groups), ``off`` (generator path only).
ARENAS_ENV = "REPRO_ARENAS"

_ARENA_MODES = ("auto", "on", "off")


def default_arena_mode() -> str:
    """Arena policy from ``REPRO_ARENAS`` (default ``auto``)."""
    mode = os.environ.get(ARENAS_ENV, "auto").strip().lower()
    return mode if mode in _ARENA_MODES else "auto"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job failure handling knobs for :func:`run_many`.

    ``retries`` is the number of *additional* attempts after the first
    failure; ``job_timeout`` (seconds, ``None`` = unlimited) bounds one
    attempt's wall time.  The pool and the fabric abandon an overdue
    attempt (its worker is left to drain) and retry it; the serial path
    cannot interrupt an attempt, so there the timeout is enforced
    post-hoc -- an over-budget attempt is discarded and retried.  Either
    way the attempt is charged as a ``timeout``
    (:class:`Attempts`), so every dispatcher shows the same observable
    semantics.

    Backoff between attempts is exponential with a deterministic
    fingerprint-derived jitter -- no wall-clock or global RNG feeds the
    schedule, so two runs of the same sweep back off identically.
    """

    retries: int = 2
    job_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def backoff_delay(self, fingerprint: str, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based retry)."""
        if attempt <= 0:
            return 0.0
        exponential = min(self.backoff_cap,
                          self.backoff_base * (2 ** (attempt - 1)))
        token = f"backoff:{fingerprint}:{attempt}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return exponential * (0.5 + unit / 2)

    def deadline_for(self, started: float) -> float:
        if self.job_timeout is None:
            return math.inf
        return started + self.job_timeout


#: Library default: a couple of retries, no timeout (opt-in via CLI).
DEFAULT_POLICY = RetryPolicy()


@dataclass
class JobOutcome:
    """One job's result plus execution accounting.

    ``result`` is ``None`` -- and :attr:`failed` true -- when the job
    exhausted its retries; ``error`` then holds the last failure text.
    """

    spec: JobSpec
    result: Optional[SimulationResult]
    wall_time: float      # seconds its charged attempts took (0.0 for
    #                       cache hits)
    cached: bool = False
    attempts: int = 1     # executed attempts (0 for cache hits)
    error: str = ""
    ckpt_s: float = 0.0   # host seconds its charged attempts spent
    #                       writing checkpoints
    resumed_from: int = 0  # retired-instruction offset the winning
    #                        attempt resumed from (0 = cold start)
    bundle: str = ""      # triage bundle path for a failed job ("" none)
    replayed: bool = False      # the winning attempt replayed an arena
    arena_write_s: float = 0.0  # host seconds spent writing its arena

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class RunReport:
    """Results of one :func:`run_many` call, in input order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_time: float = 0.0    # elapsed time of the whole run_many call
    jobs: int = 1             # workers of the finishing dispatcher
    fell_back_to_serial: bool = False
    dispatch: str = "serial"  # dispatcher that finished the sweep

    @property
    def results(self) -> List[Optional[SimulationResult]]:
        """Results in input order (``None`` for failed jobs)."""
        return [o.result for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def simulated_instructions(self) -> int:
        """Instructions actually simulated (cache hits cost nothing)."""
        return sum(o.spec.instructions + o.spec.warmup
                   for o in self.outcomes
                   if not o.cached and not o.failed)

    @property
    def arena_jobs(self) -> int:
        """Jobs that actually replayed a trace arena."""
        return sum(1 for o in self.outcomes if o.replayed)

    @property
    def trace_gen_s(self) -> float:
        """Host seconds recording jobs spent packing/writing arenas."""
        return sum(o.arena_write_s for o in self.outcomes)

    @property
    def checkpoint_s(self) -> float:
        """Host seconds spent writing checkpoints across all jobs."""
        return sum(o.ckpt_s for o in self.outcomes)

    @property
    def resumed(self) -> int:
        """Jobs whose winning attempt restarted from a checkpoint."""
        return sum(1 for o in self.outcomes if o.resumed_from > 0)

    @property
    def sim_s(self) -> float:
        """Wall time net of arena packing/writing and checkpoint
        overhead: pure simulation time."""
        return max(0.0, self.wall_time - self.trace_gen_s
                   - self.checkpoint_s)

    @property
    def throughput(self) -> float:
        """Simulated instructions per wall-clock second."""
        if self.wall_time <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_time

    def format_summary(self) -> str:
        text = (f"{len(self.outcomes)} jobs ({self.cache_hits} cached) in "
                f"{self.wall_time:.2f}s with {self.jobs} worker(s), "
                f"{self.throughput:,.0f} simulated instr/s")
        if self.dispatch not in ("serial", "pool"):
            text += f" via {self.dispatch}"
        if self.arena_jobs:
            text += f", {self.arena_jobs} replayed from arenas"
        if self.trace_gen_s > 0:
            text += f" (trace gen {self.trace_gen_s:.2f}s)"
        if self.checkpoint_s > 0:
            text += f" (checkpoints {self.checkpoint_s:.2f}s)"
        if self.retried:
            text += f", {self.retried} retried"
        if self.resumed:
            text += f", {self.resumed} resumed from checkpoints"
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        return text


#: Process-wide execution totals accumulated across ``run_many`` calls.
#: ``repro report`` samples these around each phase to attribute wall
#: time to simulation vs. arena generation vs. checkpoint writes.
_TOTALS: Dict[str, float] = {
    "wall_s": 0.0, "trace_gen_s": 0.0, "checkpoint_s": 0.0,
    "jobs": 0, "cache_hits": 0, "resumed": 0, "failed": 0,
}


def run_totals() -> Dict[str, float]:
    """A snapshot of the process-wide ``run_many`` accounting totals."""
    return dict(_TOTALS)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _failure_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _clock() -> float:
    """Host clock for backoff, deadlines and attempt charging only;
    never feeds simulated state."""
    return time.perf_counter()  # repro-lint: disable=R002


def _finish(spec: JobSpec, result: SimulationResult, elapsed: float,
            attempts: int, cache: Optional[ResultCache],
            manifest: Optional[SweepManifest],
            info: Optional[Dict[str, Any]] = None) -> JobOutcome:
    """Record a successful completion (cache write is best-effort).

    ``info`` is the winning attempt's outcome dict: ``ckpt_s``,
    ``resumed_from``, ``replayed`` and ``arena_write_s``, each
    optional.
    """
    info = info or {}
    resumed_from = int(info.get("resumed_from", 0))
    if cache is not None:
        cache.put(spec, result)
    if manifest is not None:
        fingerprint = spec.fingerprint()
        manifest.mark_attempt(fingerprint, attempts - 1, "ok",
                              start_offset=resumed_from)
        manifest.mark_done(fingerprint)
    return JobOutcome(spec, result, elapsed, attempts=attempts,
                      ckpt_s=float(info.get("ckpt_s", 0.0)),
                      resumed_from=resumed_from,
                      replayed=bool(info.get("replayed", False)),
                      arena_write_s=float(info.get("arena_write_s", 0.0)))


def _fail(spec: JobSpec, error: str, elapsed: float, attempts: int,
          manifest: Optional[SweepManifest], bundle: str = "",
          ckpt_s: float = 0.0) -> JobOutcome:
    """Record a job that exhausted its retries; the sweep continues."""
    if manifest is not None:
        manifest.mark_failed(spec.fingerprint(), error)
    return JobOutcome(spec, None, elapsed, attempts=attempts, error=error,
                      bundle=bundle, ckpt_s=ckpt_s)


class Ticket(NamedTuple):
    """One started attempt, as a dispatcher hands it back to a verdict."""

    index: int
    spec: JobSpec
    attempt: int
    elapsed: float    # seconds charged to the job's earlier attempts
    started: float    # :func:`_clock` time the attempt started


class Attempts:
    """The one attempt core every dispatcher drives.

    It owns the queue of ``(not_before, index, spec, attempt, elapsed)``
    items, starts attempts (:meth:`start`: manifest ``running`` mark,
    arena role, job message) and settles them through three verdicts:

    * :meth:`completed` -- the attempt reported an outcome dict.  A
      success finishes the job, unless it overran ``job_timeout``
      (a transport that cannot interrupt an attempt, or one whose
      result beat its deadline check, reports it late): then it is
      charged as a timeout;
    * :meth:`timed_out` -- the transport abandoned the attempt at its
      deadline; it is charged up to that moment, with kind ``timeout``;
    * :meth:`requeue` -- an innocent loss (a worker or a frame went
      away, or the pool was recycled under it); it is not charged.

    A charged attempt is logged in the manifest, then retried after the
    policy's backoff or, with retries exhausted, recorded as a failed
    outcome.  Verdicts are first-writer-wins per ``(index, attempt)``:
    a late or duplicate report of an attempt already settled, or of a
    job that already has its outcome, changes nothing.  A job's
    ``wall_time`` and ``ckpt_s`` are the sums over its charged
    attempts.  Dispatchers keep only their transport: how an attempt
    reaches a process and how its outcome comes back.
    """

    def __init__(self, pending: Sequence[Tuple[int, JobSpec]], ctx: Any):
        self.ctx = ctx
        self.policy: RetryPolicy = ctx.policy or DEFAULT_POLICY
        now = _clock()
        self.queue: List[Tuple[float, int, JobSpec, int, float]] = [
            (now, index, spec, 0, 0.0) for index, spec in pending]
        self._indices = [index for index, _spec in pending]
        self._settled: Set[Tuple[int, int]] = set()
        self._ckpt_s: Dict[int, float] = {}
        self._bundle: Dict[int, str] = {}

    # ------------------------------------------------------------ queue

    def done(self) -> bool:
        """Every job this core was given has its outcome."""
        return all(self.ctx.outcomes[i] is not None for i in self._indices)

    def _live(self, index: int, attempt: int) -> bool:
        return self.ctx.outcomes[index] is None \
            and (index, attempt) not in self._settled

    def _prune(self) -> None:
        self.queue = [item for item in self.queue
                      if self._live(item[1], item[3])]

    def wait_s(self) -> float:
        """Seconds until the earliest queued attempt may start (``0``
        when one is ready, ``inf`` when nothing is queued)."""
        self._prune()
        if not self.queue:
            return math.inf
        return max(0.0, min(item[0] for item in self.queue) - _clock())

    def take(self) -> Optional[Tuple[float, int, JobSpec, int, float]]:
        """Pop the oldest ready queue item (input order breaks ties)."""
        self._prune()
        now = _clock()
        ready = [item for item in self.queue if item[0] <= now]
        if not ready:
            return None
        item = min(ready, key=lambda item: (item[0], item[1]))
        self.queue.remove(item)
        return item

    def _enqueue(self, at: float, index: int, spec: JobSpec, attempt: int,
                 elapsed: float) -> None:
        if any(item[1] == index and item[3] >= attempt
               for item in self.queue):
            return   # this attempt (or a later one) is already queued
        self.queue.append((at, index, spec, attempt, elapsed))

    # ---------------------------------------------------------- attempts

    def start(self, item: Tuple[float, int, JobSpec, int, float]
              ) -> Tuple[Ticket, Dict[str, Any]]:
        """Start the attempt ``item`` describes: its ticket and job
        message.

        The message is what every transport ships and
        :func:`repro.run.forkserver.run_attempt` executes: the spec
        dict beside its ephemeral knobs (which the dict omits), the
        attempt number, the arena role :meth:`ArenaPlan.role` gives the
        job now and the arena path, the current ``REPRO_FAULTS`` string,
        the cache dir and the checkpoint interval.
        """
        _not_before, index, spec, attempt, elapsed = item
        if self.ctx.manifest is not None:
            self.ctx.manifest.mark_running(spec.fingerprint())
        role, arena = self.ctx.arenas.role(index)
        cache = self.ctx.cache
        message = {
            "spec": spec.to_dict(),
            "ephemeral": spec.ephemeral(),
            "attempt": attempt,
            "arena_role": role,
            "arena": arena,
            "faults": os.environ.get(FAULTS_ENV, ""),
            "cache_dir": str(cache.path) if cache is not None else None,
            "checkpoint_every": int(self.ctx.checkpoint_every),
        }
        return Ticket(index, spec, attempt, elapsed, _clock()), message

    def completed(self, ticket: Ticket, outcome: Dict[str, Any]) -> None:
        """The attempt reported ``outcome`` (a worker outcome dict)."""
        if not self._claim(ticket):
            return
        spent = float(outcome.get("elapsed", 0.0))
        ckpt_s = float(outcome.get("ckpt_s", 0.0))
        if not outcome.get("ok"):
            self._charge(ticket, spent, ckpt_s, "failed",
                         outcome.get("error") or "worker returned no "
                                                 "outcome",
                         start_offset=int(outcome.get("start_offset", 0)),
                         bundle=str(outcome.get("bundle") or ""))
        elif self.policy.job_timeout is not None \
                and spent > self.policy.job_timeout:
            self._charge(ticket, spent, ckpt_s, "timeout",
                         self._timeout_text(),
                         start_offset=int(outcome.get("resumed_from", 0)))
        else:
            index, spec = ticket.index, ticket.spec
            ckpt_s += self._ckpt_s.pop(index, 0.0)
            self.ctx.outcomes[index] = _finish(
                spec, SimulationResult.from_dict(outcome["result"]),
                ticket.elapsed + spent, ticket.attempt + 1,
                self.ctx.cache, self.ctx.manifest,
                dict(outcome, ckpt_s=ckpt_s))

    def timed_out(self, ticket: Ticket) -> None:
        """The transport abandoned the attempt at its deadline."""
        if self._claim(ticket):
            self._charge(ticket, _clock() - ticket.started, 0.0,
                         "timeout", self._timeout_text())

    def requeue(self, ticket: Ticket) -> None:
        """The attempt was lost through no fault of its own: run it
        again at the same attempt number, uncharged."""
        if self._live(ticket.index, ticket.attempt):
            self._enqueue(_clock(), ticket.index, ticket.spec,
                          ticket.attempt, ticket.elapsed)

    def _claim(self, ticket: Ticket) -> bool:
        """First writer wins: ``True`` once per live attempt."""
        if not self._live(ticket.index, ticket.attempt):
            return False
        self._settled.add((ticket.index, ticket.attempt))
        return True

    def _timeout_text(self) -> str:
        return f"timeout: attempt exceeded {self.policy.job_timeout:.2f}s"

    def _charge(self, ticket: Ticket, spent: float, ckpt_s: float,
                kind: str, error: str, start_offset: int = 0,
                bundle: str = "") -> None:
        """Log a failed or timed-out attempt; retry it or fail the job."""
        index, spec, attempt = ticket.index, ticket.spec, ticket.attempt
        fingerprint = spec.fingerprint()
        elapsed = ticket.elapsed + spent
        self._ckpt_s[index] = self._ckpt_s.get(index, 0.0) + ckpt_s
        if bundle:
            self._bundle[index] = bundle
        manifest = self.ctx.manifest
        if manifest is not None:
            manifest.mark_attempt(fingerprint, attempt, kind, error,
                                  start_offset=start_offset)
        if attempt < self.policy.retries:
            if manifest is not None:
                manifest.mark_retrying(fingerprint, error)
            delay = self.policy.backoff_delay(fingerprint, attempt + 1)
            self._enqueue(_clock() + delay, index, spec, attempt + 1,
                          elapsed)
        else:
            self.ctx.outcomes[index] = _fail(
                spec, error, elapsed, attempt + 1, manifest,
                bundle=self._bundle.get(index, ""),
                ckpt_s=self._ckpt_s.pop(index, 0.0))


# ------------------------------------------------------------------ serial

def _run_serial(pending: Sequence[Tuple[int, JobSpec]], ctx: Any) -> None:
    """Run jobs one by one in-process, in input order."""
    for index, spec in pending:
        _run_one_serial(index, spec, ctx)


def _run_one_serial(index: int, spec: JobSpec, ctx: Any) -> JobOutcome:
    """Run one job to completion in-process, backoff sleeps included.

    An attempt cannot be interrupted here, so ``job_timeout`` is
    enforced after the fact by :meth:`Attempts.completed`.  A recording
    job writes its arena after it has succeeded, outside per-attempt
    isolation: an injected writer death (``renamecrash``) escapes
    ``run_many`` like every other durable writer's.
    """
    from repro.run import forkserver
    attempts = Attempts([(index, spec)], ctx)
    recorder, arena = None, None
    while not attempts.done():
        time.sleep(attempts.wait_s())
        item = attempts.take()
        if item is None:
            continue
        ticket, message = attempts.start(item)
        outcome, recorder = forkserver.run_attempt(message, publish=False)
        arena = message["arena"]
        attempts.completed(ticket, outcome)
    result = ctx.outcomes[index]
    if recorder is not None and not result.failed:
        result.arena_write_s = trace_arena.publish_arena(recorder, arena)
    return result


# ------------------------------------------------------------------ arenas

def _resolve_trace_dir(trace_dir: Optional[str],
                       cache: Optional[ResultCache]) -> Optional[Path]:
    """Where arenas live: explicit dir > ``REPRO_TRACE_DIR`` > beside the
    result cache > nowhere (arenas disabled)."""
    if trace_dir is not None:
        return Path(trace_dir)
    env = trace_arena.default_trace_dir()
    if env is not None:
        return Path(env)
    if cache is not None:
        return Path(cache.path) / "traces"
    return None


class ArenaPlan:
    """Which trace arena each pending job belongs to, and who records it.

    Built once per :func:`run_many` call from the arena grouping;
    dispatchers ask :meth:`role` when they start a job -- the decision
    is never made earlier, so a sibling started after the arena lands
    replays it.  Roles are:

    * ``replay`` -- the group's arena file loads;
    * ``record`` -- there is no arena and this job holds the group's
      recording claim: the first member any dispatcher starts takes it
      and keeps it, so its retries (and a fallback dispatcher's rerun)
      record again while no sibling records beside it;
    * ``generate`` -- every other case (including jobs outside any
      group).
    """

    def __init__(self, paths: Optional[Dict[int, Path]] = None):
        self.paths: Dict[int, Path] = dict(paths or {})
        self._recorders: Dict[Path, int] = {}   # arena -> recording index

    def role(self, index: int) -> Tuple[str, Optional[str]]:
        """``(role, arena path)`` for job ``index`` starting now; the
        path is ``None`` for ``generate``."""
        path = self.paths.get(index)
        if path is None:
            return trace_arena.GENERATE, None
        if trace_arena.load_cached(path) is not None:
            return trace_arena.REPLAY, str(path)
        if self._recorders.setdefault(path, index) == index:
            return trace_arena.RECORD, str(path)
        return trace_arena.GENERATE, None


def _plan_arenas(pending: Sequence[Tuple[int, JobSpec]], trace_dir: Path,
                 mode: str) -> ArenaPlan:
    """Group pending jobs by arena key into an :class:`ArenaPlan`.

    In ``auto`` mode singleton groups stay on the generator path (an
    arena can't pay for itself there); ``on`` plans every group.
    """
    groups: Dict[str, List[int]] = {}
    for index, spec in pending:
        key = trace_arena.arena_key(spec.workload.to_dict(),
                                    spec.params.n_nodes, spec.seed,
                                    spec.instructions + spec.warmup)
        groups.setdefault(key, []).append(index)
    return ArenaPlan({index: trace_dir / f"{key}.arena"
                      for key, members in groups.items()
                      if mode != "auto" or len(members) >= 2
                      for index in members})


# -------------------------------------------------------------------- pool

def _run_pool(pending: Sequence[Tuple[int, JobSpec]], jobs: int,
              ctx: Any) -> bool:
    """Run misses on the persistent pool; ``False`` if it was unusable.

    One job message per future.  Scheduling is slot-limited (at most
    ``jobs`` in-flight futures), so a submitted attempt starts
    essentially at once and its deadline is measured from submission.
    An overdue future is abandoned -- the worker keeps draining in the
    background as a *zombie* occupying one slot until its bounded work
    finishes -- and charged as a timeout.  If zombies ever occupy every
    slot the pool is recycled wholesale and the attempts in flight are
    requeued uncharged; a run that ends with zombies outstanding also
    recycles it, so the next sweep starts with clean workers.  Only
    pool-level breakage (no semaphores, dead workers) aborts to the
    next dispatcher, which re-runs exactly the jobs without an outcome.
    """
    try:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:                                # pragma: no cover
        return False
    from repro.run import forkserver

    pool = forkserver.get_pool(jobs)
    if pool is None:
        return False
    attempts = Attempts(pending, ctx)
    # future -> (ticket, deadline); zombies are abandoned, still running
    active: Dict[Any, Tuple[Ticket, float]] = {}
    zombies: List[Any] = []
    try:
        while True:
            zombies = [future for future in zombies if not future.done()]
            while len(active) + len(zombies) < jobs:
                item = attempts.take()
                if item is None:
                    break
                ticket, message = attempts.start(item)
                future = pool.submit(forkserver._pool_entry, message)
                active[future] = (
                    ticket, attempts.policy.deadline_for(ticket.started))

            # Every slot wedged on an abandoned attempt: recycle the
            # pool so pending retries are not starved forever.
            if len(zombies) >= jobs and not attempts.done():
                forkserver.recycle_pool()
                for ticket, _deadline in active.values():
                    attempts.requeue(ticket)
                active.clear()
                zombies = []
                pool = forkserver.get_pool(jobs)
                if pool is None:
                    return False
                continue

            if not active:
                if attempts.done():
                    return True
                # Everything is backing off; sleep until the earliest.
                time.sleep(max(0.01, min(attempts.wait_s(), 0.5)))
                continue

            # Wake on the first completion (a draining zombie's frees a
            # slot too), the next deadline, or -- with a slot free --
            # the next retry.  With every slot busy a ready retry cannot
            # start, so it must not shorten the wait.
            horizon = min(d for _t, d in active.values()) - _clock()
            if len(active) + len(zombies) < jobs:
                horizon = min(horizon, attempts.wait_s())
            done, _ = wait(list(active) + zombies,
                           timeout=None if horizon == math.inf
                           else max(0.0, min(horizon, 0.5)),
                           return_when=FIRST_COMPLETED)
            for future in done:
                if future not in active:
                    continue   # a zombie finished draining
                ticket, _deadline = active.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # Pool-level breakage: recycle and bail out; the
                    # next dispatcher re-runs every job without an
                    # outcome yet.
                    forkserver.recycle_pool()
                    return False
                except Exception as exc:  # noqa: BLE001 -- per-future
                    outcome = {"ok": False, "error": _failure_text(exc)}
                attempts.completed(ticket, outcome)

            # Abandon overdue attempts and charge them.
            now = _clock()
            for future in [f for f, (_t, deadline) in active.items()
                           if deadline <= now]:
                ticket, _deadline = active.pop(future)
                if not future.cancel():
                    zombies.append(future)
                attempts.timed_out(ticket)
    finally:
        # The pool outlives this call (warm workers for the next sweep)
        # unless abandoned attempts are still draining inside it.
        if zombies:
            forkserver.recycle_pool()


def run_many(specs: Sequence[JobSpec], jobs: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             policy: Optional[RetryPolicy] = None,
             manifest: Optional[SweepManifest] = None,
             resume: Optional[bool] = None,
             arenas: Optional[str] = None,
             trace_dir: Optional[str] = None,
             checkpoint_every: Optional[int] = None,
             dispatch: Optional[Any] = None,
             workers: Optional[Sequence[str]] = None) -> RunReport:
    """Execute ``specs`` and return a report with results in input order.

    Arguments left as ``None`` pick up the process-wide configuration
    (see :func:`repro.run.configure` / ``REPRO_JOBS`` /
    ``REPRO_ARENAS`` / ``REPRO_TRACE_DIR``): worker count, shared cache,
    retry policy, sweep manifest, resume mode, and arena policy.
    ``arenas`` is ``auto`` / ``on`` / ``off`` (booleans accepted);
    ``trace_dir`` overrides where arenas are stored (default: a
    ``traces/`` directory beside the result cache when one is active).
    ``checkpoint_every`` is the mid-simulation checkpoint interval in
    retired instructions (0 disables writes; resuming from checkpoints
    left by earlier attempts stays on).  Checkpoints and triage bundles
    need somewhere durable to live, so both activate only when a result
    cache is in use.  Failed jobs (retries exhausted) appear as
    outcomes with ``result=None`` rather than aborting the sweep.

    ``dispatch`` selects the execution strategy chain (see
    :func:`repro.run.dispatch.resolve_chain`): ``"local"`` (pool then
    serial; the historical behaviour), ``"fabric"`` (multi-host
    coordinator, degrading to pool then serial), a ready
    :class:`~repro.run.dispatch.Dispatcher`, or an explicit list.
    ``workers`` supplies fabric worker specs (``spawn:N`` /
    ``ssh:HOST`` / ``wait:N``).  Whatever the chain, completed outcomes
    survive strategy failures: each fallback re-runs only the jobs
    still missing an outcome, and byte-identical results are guaranteed
    because every strategy executes the same per-job path.
    """
    if jobs is None or cache is None or policy is None \
            or manifest is None or resume is None or arenas is None \
            or trace_dir is None or checkpoint_every is None \
            or dispatch is None or workers is None:
        from repro.run import runner_state
        state = runner_state()
        jobs = state.jobs if jobs is None else jobs
        cache = state.cache if cache is None else cache
        policy = state.policy if policy is None else policy
        manifest = state.manifest if manifest is None else manifest
        resume = state.resume if resume is None else resume
        arenas = state.arenas if arenas is None else arenas
        trace_dir = state.trace_dir if trace_dir is None else trace_dir
        if checkpoint_every is None:
            checkpoint_every = state.checkpoint_every
        dispatch = state.dispatch if dispatch is None else dispatch
        workers = state.workers if workers is None else workers
    jobs = max(1, int(jobs))
    checkpoint_every = max(0, int(checkpoint_every))
    if arenas is True:
        arenas = "on"
    elif arenas is False:
        arenas = "off"
    elif arenas not in _ARENA_MODES:
        arenas = "auto"

    start = time.perf_counter()  # repro-lint: disable=R002
    if manifest is not None:
        fingerprints = [spec.fingerprint() for spec in specs]
        manifest.begin(fingerprints, [spec.describe() for spec in specs],
                       resume=bool(resume))

    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    pending: List[Tuple[int, JobSpec]] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[index] = JobOutcome(spec, hit, 0.0, cached=True,
                                         attempts=0)
            if manifest is not None:
                manifest.mark_done(spec.fingerprint(), cached=True)
        else:
            pending.append((index, spec))

    plan = ArenaPlan()
    if pending and arenas != "off":
        directory = _resolve_trace_dir(trace_dir, cache)
        if directory is not None:
            plan = _plan_arenas(pending, directory, arenas)

    fell_back = False
    used, workers_used = "serial", 1
    if pending:
        from repro.run.dispatch import DispatchContext, resolve_chain
        ctx = DispatchContext(cache=cache, outcomes=outcomes,
                              policy=policy, manifest=manifest,
                              arenas=plan,
                              checkpoint_every=checkpoint_every,
                              jobs=jobs)
        chain = resolve_chain(dispatch, jobs, len(pending),
                              workers=workers or ())
        for strategy in chain:
            remaining = [p for p in pending if outcomes[p[0]] is None]
            if not remaining:
                break
            if strategy.run(remaining, ctx):
                used, workers_used = strategy.name, strategy.workers
        fell_back = used == "serial" and chain[0].name != "serial"

    report = RunReport(outcomes=[o for o in outcomes if o is not None],
                       wall_time=time.perf_counter() - start,  # repro-lint: disable=R002
                       jobs=workers_used,
                       fell_back_to_serial=fell_back,
                       dispatch=used)
    assert len(report.outcomes) == len(specs)
    _TOTALS["wall_s"] += report.wall_time
    _TOTALS["trace_gen_s"] += report.trace_gen_s
    _TOTALS["checkpoint_s"] += report.checkpoint_s
    _TOTALS["jobs"] += len(report.outcomes)
    _TOTALS["cache_hits"] += report.cache_hits
    _TOTALS["resumed"] += report.resumed
    _TOTALS["failed"] += len(report.failures)
    return report
