"""Persistent fork-server worker pool with batched job dispatch.

The original pool paid three per-job taxes that dwarf small simulations:
a fresh ``ProcessPoolExecutor`` per ``run_many`` call (interpreter spawn
plus module imports per worker), one pickle round-trip per job, and full
workload reconstruction -- trace regeneration included -- inside every
worker.  This module removes all three:

* **Persistent pool.**  One executor lives for the whole process
  (module-level, recycled only on breakage/zombie exhaustion or a
  worker-count change), so repeated ``run_many`` calls within a sweep
  reuse warm workers.  Start method preference is ``fork`` >
  ``forkserver`` > ``spawn`` (override with ``REPRO_START_METHOD``):
  forked workers inherit imported modules *and* any trace arenas already
  mapped by the parent as shared read-only pages.
* **Batched dispatch.**  Sweep jobs differ from each other by a handful
  of ``SystemParams`` fields, so a chunk ships one full base job dict
  plus per-job *deltas* (path/value pairs) -- a single small pickle per
  chunk instead of one full spec per job.
* **Explicit fault plan.**  The chunk payload carries the parent's
  ``REPRO_FAULTS`` string, because persistent workers must not trust the
  environment they captured at pool creation time.

Per-job semantics are unchanged from the one-job-per-future path: each
job in a chunk is independently timed, fault-injected and
exception-isolated, and ships back either a result dict or an error
string for the executor's retry machinery.  A job's trace-arena role
(replay / record / generate, decided by the parent when it submits the
job) rides beside its delta; a recording job writes its group's arena
from the worker once it succeeds.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.run.faults import FAULTS_ENV, plan_from_env
from repro.run.jobs import JobSpec
from repro.trace.arena import REPLAY, job_workload, publish_arena

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"

_MISSING = object()


def pick_method() -> str:
    """The start method to use: ``fork`` > ``forkserver`` > ``spawn``.

    ``fork`` is preferred where available because workers inherit the
    parent's imported modules and mmap'd arenas for free; ``forkserver``
    still avoids re-importing per job batch; ``spawn`` is the
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


# ------------------------------------------------------------ delta coding

def flatten(data: Dict[str, Any],
            prefix: Tuple[str, ...] = ()) -> Dict[Tuple[str, ...], Any]:
    """Flatten a nested dict to ``{path-tuple: leaf value}``.

    Only dicts recurse; lists and scalars are leaves.  Job dicts contain
    no empty-dict leaves, so the encoding is lossless for them.
    """
    flat: Dict[Tuple[str, ...], Any] = {}
    for key, value in data.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def unflatten(flat: Dict[Tuple[str, ...], Any]) -> Dict[str, Any]:
    root: Dict[str, Any] = {}
    for path, value in flat.items():
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return root


def encode_delta(base_flat: Dict[Tuple[str, ...], Any],
                 job: Dict[str, Any]) -> Dict[str, Any]:
    """Encode ``job`` as a delta against a flattened base job dict."""
    job_flat = flatten(job)
    sets = [(path, value) for path, value in sorted(job_flat.items())
            if base_flat.get(path, _MISSING) != value]
    drops = [path for path in sorted(base_flat) if path not in job_flat]
    return {"set": sets, "drop": drops}


def apply_delta(base_flat: Dict[Tuple[str, ...], Any],
                delta: Dict[str, Any]) -> Dict[str, Any]:
    """Reconstruct a full job dict from the base and one delta."""
    flat = dict(base_flat)
    for path in delta.get("drop", ()):
        flat.pop(tuple(path), None)
    for path, value in delta.get("set", ()):
        flat[tuple(path)] = value
    return unflatten(flat)


def make_batch_payload(base: Dict[str, Any],
                       entries: Sequence[Tuple[Dict[str, Any], int,
                                               Optional[Tuple[str,
                                                              Optional[str]]],
                                               Dict[str, Any]]],
                       cache_dir: Optional[str] = None,
                       checkpoint_every: int = 0) -> Dict[str, Any]:
    """Build one chunk payload from ``(job dict, attempt, arena,
    ephemeral knobs)`` entries, where ``arena`` is the job's
    ``(role, path)`` from :meth:`repro.run.executor.ArenaPlan.role` or
    ``None``; the knobs (:meth:`JobSpec.ephemeral`) travel beside the
    job dict, which omits them.  Captures the parent's current fault
    plan explicitly so persistent workers never act on a stale
    inherited environment.
    ``cache_dir`` (when set) is where workers keep checkpoints and write
    crash-triage bundles; ``checkpoint_every`` is the checkpoint
    interval in retired instructions (0 disables checkpoint writes).
    """
    base_flat = flatten(base)
    return {
        "base": base,
        "jobs": [{"delta": encode_delta(base_flat, job),
                  "attempt": attempt,
                  "arena_role": arena[0] if arena else None,
                  "arena": arena[1] if arena else None,
                  "ephemeral": ephemeral}
                 for job, attempt, arena, ephemeral in entries],
        "faults": os.environ.get(FAULTS_ENV, ""),
        "cache_dir": cache_dir,
        "checkpoint_every": int(checkpoint_every),
    }


# ------------------------------------------------------------- worker side

def run_entry(spec_dict: Dict[str, Any], attempt: int,
              arena: Optional[str], plan,
              cache_dir: Optional[str],
              checkpoint_every: int,
              ephemeral: Optional[Dict[str, Any]] = None,
              arena_role: Optional[str] = None
              ) -> Dict[str, Any]:
    """Execute one job dict with full worker semantics; never raises.

    This is the single per-job execution path shared by the fork-server
    pool (:func:`_execute_batch`) and the fabric worker
    (:mod:`repro.run.fabric.worker`): the clock starts before fault
    injection, faults come from the explicit ``plan`` (never the
    worker's inherited environment), checkpoints/triage land under
    ``cache_dir`` when one is given, and any exception -- injected or
    real -- is folded into the returned outcome dict so one bad job
    cannot poison its neighbours or its transport.  ``ephemeral``
    reinstates the job's tooling knobs, which the job dict omits.

    ``arena_role`` says what to do with the arena at path ``arena``:
    ``replay`` it (the default when only a path is given), ``record``
    it (tee the generators, then write the arena once the job has
    succeeded), or ignore it (``generate``).  The outcome reports
    whether the job actually replayed and how long its arena write
    took; a storage fault on that write costs the siblings their
    replay, not the job.
    """
    from repro.run import checkpoint as ckpt
    start = time.perf_counter()  # repro-lint: disable=R002
    write_s = 0.0
    try:
        spec = JobSpec.from_dict(spec_dict, ephemeral)
        if plan is not None:
            fingerprint = spec.fingerprint()
            plan.maybe_crash(fingerprint, attempt)
            plan.maybe_hang(fingerprint, attempt)
        workload, recorder = job_workload(spec, arena_role or REPLAY,
                                          arena)
        store = ckpt.CheckpointStore.for_job(
            cache_dir, spec.fingerprint()) \
            if cache_dir and checkpoint_every > 0 else None
        result, info = ckpt.run_spec(
            spec, workload=workload, store=store, every=checkpoint_every,
            faults=plan, attempt=attempt, triage_dir=cache_dir or None)
        if recorder is not None:
            write_s = publish_arena(recorder, arena)
    except Exception as exc:  # noqa: BLE001 -- per-job isolation
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
            "bundle": getattr(exc, "__triage_bundle__", ""),
            "start_offset": getattr(exc, "__resumed_from__", 0),
        }
    return {
        "ok": True,
        "result": result.to_dict(),
        "elapsed": time.perf_counter() - start,  # repro-lint: disable=R002
        "ckpt_s": float(info.get("ckpt_s", 0.0)),
        "resumed_from": int(info.get("resumed_from", 0)),
        "replayed": bool(info.get("replayed", False)),
        "arena_write_s": write_s,
    }


def _execute_batch(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entry point: run every job of one chunk independently.

    Every job goes through the shared :func:`run_entry` path: faults
    come from the payload's captured plan (not the worker's
    environment), and any exception -- injected or real -- is isolated
    to its job's outcome so one bad job cannot poison its chunk-mates.
    """
    base_flat = flatten(payload["base"])
    plan = plan_from_env(payload.get("faults", ""))
    cache_dir = payload.get("cache_dir")
    every = int(payload.get("checkpoint_every", 0) or 0)
    return [run_entry(apply_delta(base_flat, entry["delta"]),
                      entry["attempt"], entry.get("arena"), plan,
                      cache_dir, every, entry.get("ephemeral"),
                      entry.get("arena_role"))
            for entry in payload["jobs"]]

