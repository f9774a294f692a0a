"""Persistent fork-server worker pool and the worker-side job entry.

The original pool paid per-job taxes that dwarf small simulations: a
fresh ``ProcessPoolExecutor`` per ``run_many`` call (interpreter spawn
plus module imports per worker) and full workload reconstruction --
trace regeneration included -- inside every worker.  This module
removes both:

* **Persistent pool.**  One executor lives for the whole process
  (module-level, recycled only on breakage/zombie exhaustion or a
  worker-count change), so repeated ``run_many`` calls within a sweep
  reuse warm workers.  Start method preference is ``fork`` >
  ``forkserver`` > ``spawn`` (override with ``REPRO_START_METHOD``):
  forked workers inherit imported modules *and* any trace arenas already
  mapped by the parent as shared read-only pages.
* **One job per future.**  The pool ships the attempt core's job
  message (:meth:`repro.run.executor.Attempts.start`) as is: a full job
  dict pickles to about 1.3 KB and a pickle round trip costs about
  18 us, nothing next to a job that simulates for seconds.

The message carries the job's fault-plan string, because persistent
workers must not trust the environment they captured at pool creation
time: :func:`run_attempt` installs that plan for job faults and for
every durable write the attempt makes.  :func:`run_entry` is the one
worker-side execution path, shared with the fabric worker
(:mod:`repro.run.fabric.worker`); the serial dispatcher runs
:func:`run_attempt` in-process.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from typing import Any, Dict, Optional, Tuple

from repro.run.faults import job_faults, plan_from_env
from repro.run.jobs import JobSpec
from repro.trace.arena import ArenaRecorder, job_workload, publish_arena

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"


def pick_method() -> str:
    """The start method to use: ``fork`` > ``forkserver`` > ``spawn``.

    ``fork`` is preferred where available because workers inherit the
    parent's imported modules and mmap'd arenas for free; ``forkserver``
    still avoids re-importing per job; ``spawn`` is the
    lowest-common-denominator fallback.
    """
    import multiprocessing
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if override:
        if override in available:
            return override
        warnings.warn(
            f"{START_METHOD_ENV}={override!r} is not available here "
            f"(have {available}); ignoring", RuntimeWarning, stacklevel=2)
    for method in ("fork", "forkserver"):
        if method in available:
            return method
    return "spawn"


# ----------------------------------------------------------- pool lifetime

_pool = None
_pool_jobs = 0


def get_pool(jobs: int):
    """The shared executor with ``jobs`` workers, or ``None`` if process
    pools are unusable here (the caller then falls back to serial).

    The pool persists across calls; it is rebuilt only when the worker
    count changes or after :func:`recycle_pool`.
    """
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs == jobs:
        return _pool
    recycle_pool()
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context(pick_method())
        _pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except (ImportError, OSError, PermissionError, RuntimeError,
            ValueError):
        _pool = None
        return None
    _pool_jobs = jobs
    return _pool


def recycle_pool() -> None:
    """Discard the shared pool (broken workers, zombie exhaustion).

    The next :func:`get_pool` call builds a fresh one.
    """
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


atexit.register(recycle_pool)


# ------------------------------------------------------------- worker side

def run_attempt(message: Dict[str, Any], publish: bool = True
                ) -> Tuple[Dict[str, Any], Optional[ArenaRecorder]]:
    """Run one attempt of the job in ``message``; never raises.

    ``message`` is the job message the attempt core builds
    (:meth:`repro.run.executor.Attempts.start`): the spec dict and its
    ephemeral knobs, the attempt number, the arena role and path, the
    fault-plan string, the cache dir and the checkpoint interval.  The
    clock starts before fault injection.  The message's fault plan --
    never the environment the process started with -- drives job faults
    and, for the attempt's duration, every durable write
    (:func:`repro.run.faults.job_faults`).  Checkpoints and triage
    bundles land under the cache dir when one is given, and any
    exception -- injected or real -- is folded into the returned
    outcome dict, so one bad job cannot poison its neighbours or its
    transport.

    The arena role says what to do with the arena at the path:
    ``replay`` it, ``record`` it (tee the generators, then write the
    arena once the job has succeeded), or ignore it (``generate``).
    With ``publish`` false a recording attempt leaves the write to the
    caller and returns its recorder beside the outcome; otherwise the
    recorder slot is ``None``.  A storage fault on the arena write costs
    the siblings their replay, not the job.
    """
    from repro.run import checkpoint as ckpt
    start = time.perf_counter()  # repro-lint: disable=R002
    cache_dir = message.get("cache_dir") or None
    every = int(message.get("checkpoint_every") or 0)
    attempt = int(message.get("attempt", 0))
    arena = message.get("arena")
    write_s = 0.0
    with job_faults(message.get("faults") or ""):
        try:
            plan = plan_from_env()
            spec = JobSpec.from_dict(message["spec"],
                                     message.get("ephemeral"))
            if plan is not None:
                fingerprint = spec.fingerprint()
                plan.maybe_crash(fingerprint, attempt)
                plan.maybe_hang(fingerprint, attempt)
            workload, recorder = job_workload(
                spec, message.get("arena_role"), arena)
            store = ckpt.CheckpointStore.for_job(
                cache_dir, spec.fingerprint()) \
                if cache_dir and every > 0 else None
            result, info = ckpt.run_spec(
                spec, workload=workload, store=store, every=every,
                faults=plan, attempt=attempt, triage_dir=cache_dir)
            if recorder is not None and publish:
                write_s = publish_arena(recorder, arena)
                recorder = None
        except Exception as exc:  # noqa: BLE001 -- per-job isolation
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
                "bundle": getattr(exc, "__triage_bundle__", ""),
                "start_offset": getattr(exc, "__resumed_from__", 0),
            }, None
    return {
        "ok": True,
        "result": result.to_dict(),
        "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
        "ckpt_s": float(info.get("ckpt_s", 0.0)),
        "resumed_from": int(info.get("resumed_from", 0)),
        "replayed": bool(info.get("replayed", False)),
        "arena_write_s": write_s,
    }, recorder


def run_entry(message: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side job execution, shared by pool and fabric workers:
    one attempt (:func:`run_attempt`) with a recording job's arena
    written inside it; returns the outcome dict."""
    return run_attempt(message)[0]


def _pool_entry(message: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker entry point: one job per future.  It looks up
    :func:`run_entry` through the module global, so a wrapper installed
    on the module before the workers fork is the one that runs."""
    return run_entry(message)
