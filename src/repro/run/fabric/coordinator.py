"""Sweep coordinator: lease jobs to fabric workers, survive their loss.

:class:`FabricDispatcher` implements the :class:`~repro.run.dispatch.
Dispatcher` interface over any number of connected workers.  One run:

1. bind a listener (ephemeral port by default) and start accepting;
2. launch workers per the configured specs -- ``spawn:N`` forks local
   ``repro worker`` subprocesses (loopback), ``ssh:HOST`` launches one
   over ssh (best-effort), ``wait:N`` expects N external workers to
   dial in (``repro worker --connect HOST:PORT``);
3. schedule: every idle worker gets the oldest ready job under a
   :class:`~repro.run.fabric.leases.WorkerLease`; acks, heartbeats and
   results stream back through per-connection reader threads into one
   event queue;
4. recover: expired leases requeue (innocently on worker death or a
   lost frame, charging the attempt on a per-job timeout -- see
   :mod:`~repro.run.fabric.leases`); late or duplicate results are
   resolved first-writer-wins against the outcome slot and the
   manifest's attempt log;
5. degrade: when every worker is gone and none can return, ``run``
   returns ``False`` and the executor's dispatcher chain re-runs the
   outcome-less remainder locally -- completed outcomes are never
   lost, they already live in the outcomes list, the cache and the
   manifest.

Results are byte-identical to a serial run by construction: workers
execute through the same :func:`repro.run.forkserver.run_entry` path,
and the transport can only delay, duplicate, drop or relocate a job --
never change what it computes.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.run.dispatch import DispatchContext, Dispatcher
from repro.run.fabric.leases import (
    DEFAULT_ACK_TIMEOUT,
    DEFAULT_LEASE_TIMEOUT,
    LeaseTable,
)
from repro.run.fabric.protocol import Channel, ConnectionClosed, ProtocolError
from repro.run.faults import FAULTS_ENV, plan_from_env

#: Seconds between worker heartbeats (sent to workers in ``welcome``).
DEFAULT_HEARTBEAT_S = 0.25


def _now() -> float:
    """Host clock for lease/backoff pacing; never feeds simulated state."""
    import time
    return time.monotonic()  # repro-lint: disable=R002


def _wall_now() -> float:
    """Wall-clock epoch for human-facing worker-health records only."""
    import time
    return time.time()  # repro-lint: disable=R002


@dataclass(frozen=True)
class FabricConfig:
    """Coordinator knobs; defaults favour loopback smoke tests."""

    workers: Tuple[str, ...] = ()      # spawn:N | ssh:HOST | wait:N
    host: str = "127.0.0.1"            # listener bind address
    port: int = 0                      # 0 = ephemeral
    advertise: Optional[str] = None    # address workers dial (ssh mode)
    connect_timeout: float = 10.0      # wait for the first worker
    ack_timeout: float = DEFAULT_ACK_TIMEOUT
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    heartbeat_s: float = DEFAULT_HEARTBEAT_S


def parse_worker_spec(spec: str) -> Tuple[str, Any]:
    """One worker spec -> ``(kind, arg)``.

    ``spawn:N`` -> ``("spawn", N)``; ``wait:N`` -> ``("wait", N)``;
    ``ssh:HOST`` (or a bare hostname) -> ``("ssh", HOST)``.
    """
    text = spec.strip()
    kind, sep, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("spawn", "wait"):
        count = int(arg) if sep and arg.strip() else 1
        if count < 1:
            raise ValueError(f"worker spec {spec!r}: count must be >= 1")
        return kind, count
    if kind == "ssh":
        host = arg.strip()
        if not host:
            raise ValueError(f"worker spec {spec!r}: missing host")
        return "ssh", host
    if not sep and text:
        return "ssh", text
    raise ValueError(
        f"unknown worker spec {spec!r}; expected spawn:N, wait:N, "
        f"ssh:HOST or a bare hostname")


class _Remote:
    """Coordinator-side handle for one connected worker."""

    __slots__ = ("name", "channel", "thread")

    def __init__(self, name: str, channel: Channel,
                 thread: threading.Thread):
        self.name = name
        self.channel = channel
        self.thread = thread


class FabricDispatcher(Dispatcher):
    """Fan pending jobs out over fabric workers with lease failover."""

    name = "fabric"

    def __init__(self, config: Optional[FabricConfig] = None):
        self.config = config or FabricConfig()

    def run(self, pending: Sequence[Tuple[int, Any]],
            ctx: DispatchContext) -> bool:
        if not pending:
            return True
        if not self.config.workers:
            return False
        session = _Session(self.config, ctx)
        try:
            if not session.start():
                return False
            return session.execute(pending)
        finally:
            session.shutdown()


class _Session:
    """One coordinator run: listener, worker set, scheduling loop."""

    def __init__(self, config: FabricConfig, ctx: DispatchContext):
        self.config = config
        self.ctx = ctx
        self.plan = plan_from_env()
        self.events: "queue.Queue[Tuple[str, str, Any]]" = queue.Queue()
        self.remotes: Dict[str, _Remote] = {}
        self.procs: List[subprocess.Popen] = []
        self.listener: Optional[socket.socket] = None
        self.table = LeaseTable(
            lease_timeout=config.lease_timeout,
            ack_timeout=config.ack_timeout,
            job_timeout=getattr(ctx.policy, "job_timeout", None))
        self._stop = threading.Event()
        self._name_lock = threading.Lock()
        self._name_seq = 0
        self._accept_thread: Optional[threading.Thread] = None
        self._worker_flush_at = 0.0
        #: Events drained during start() that execute() must replay.
        self._backlog: List[Tuple[str, str, Any]] = []

    # ------------------------------------------------------------ startup

    def start(self) -> bool:
        """Bind, launch workers, wait for the first join."""
        try:
            specs = [parse_worker_spec(s) for s in self.config.workers]
        except ValueError:
            return False
        try:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(64)
        except OSError:
            return False
        self.listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        port = listener.getsockname()[1]
        for kind, arg in specs:
            if kind == "spawn":
                for _ in range(arg):
                    self._spawn_local(port)
            elif kind == "ssh":
                self._spawn_ssh(arg, port)
            # "wait": nothing to launch; external workers dial in.
        deadline = _now() + self.config.connect_timeout
        while _now() < deadline:
            for event in self._drain_events(timeout=0.1):
                if event[0] == "joined":
                    self._register_join(event[1], event[2], _now())
                else:
                    self._backlog.append(event)
            if self.remotes:
                return True
        return bool(self.remotes)

    def _register_join(self, name: str, remote: "_Remote",
                       now: float) -> None:
        self.remotes[name] = remote
        self.table.join(name, now)
        self._mark_worker(name, status="alive", connected_at=_wall_now(),
                          last_heartbeat=_wall_now(), jobs_done=0,
                          jobs_failed=0, lease="", flush=True)

    def _drain_events(self, timeout: float
                      ) -> List[Tuple[str, str, Any]]:
        """Queued events, blocking up to ``timeout`` for the first."""
        out: List[Tuple[str, str, Any]] = []
        try:
            out.append(self.events.get(timeout=timeout))
        except queue.Empty:
            return out
        while True:
            try:
                out.append(self.events.get_nowait())
            except queue.Empty:
                return out

    def _spawn_local(self, port: int) -> None:
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        env["PYTHONPATH"] = package_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--connect",
                 f"127.0.0.1:{port}", "--quiet"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
        except OSError:
            return
        self.procs.append(proc)

    def _spawn_ssh(self, host: str, port: int) -> None:
        advertise = self.config.advertise or socket.gethostname()
        try:
            proc = subprocess.Popen(
                ["ssh", "-o", "BatchMode=yes", host,
                 f"repro worker --connect {advertise}:{port} --quiet"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except OSError:
            return
        self.procs.append(proc)

    # ------------------------------------------------- connection threads

    def _accept_loop(self) -> None:
        listener = self.listener
        while not self._stop.is_set():
            try:
                listener.settimeout(0.25)
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_connection,
                             args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Handshake one worker, then pump its messages into the queue."""
        channel = Channel(conn, name="?", plan=self.plan)
        try:
            hello = channel.recv_json(timeout=10.0)
        except (ConnectionClosed, ProtocolError):
            channel.close()
            return
        if hello is None or hello.get("type") != "hello":
            channel.close()
            return
        with self._name_lock:
            self._name_seq += 1
            name = f"w{self._name_seq}"
        channel.name = f"to:{name}"
        cache = self.ctx.cache
        try:
            channel.send_json({
                "type": "welcome", "name": name,
                "faults": os.environ.get(FAULTS_ENV, ""),
                "cache_dir": str(cache.path) if cache is not None
                else None,
                "checkpoint_every": int(self.ctx.checkpoint_every),
                "heartbeat_s": self.config.heartbeat_s,
            })
        except ConnectionClosed:
            channel.close()
            return
        thread = threading.current_thread()
        self.events.put(("joined", name,
                         _Remote(name, channel, thread)))
        while not self._stop.is_set():
            try:
                message = channel.recv_json(timeout=0.5)
            except (ConnectionClosed, ProtocolError):
                self.events.put(("lost", name, None))
                return
            if message is not None:
                self.events.put(("msg", name, message))

    # ---------------------------------------------------------- main loop

    def execute(self, pending: Sequence[Tuple[int, Any]]) -> bool:
        """Schedule ``pending`` over the connected workers.

        Returns ``True`` when every pending index holds an outcome, or
        ``False`` to degrade to the next dispatcher (workers all lost).
        """
        from repro.run.executor import _fail, _finish
        outcomes = self.ctx.outcomes
        manifest = self.ctx.manifest
        policy = self.ctx.policy
        indices = [index for index, _spec in pending]

        now = _now()
        # (not_before, index, spec, attempt, elapsed, last_error)
        work: List[Tuple[float, int, Any, int, float, str]] = \
            [(now, index, spec, 0, 0.0, "") for index, spec in pending]
        inflight: Dict[int, Tuple[int, Any, int, float]] = {}
        settled_jobs: set = set()
        draining: set = set()
        job_seq = 0
        dispatch_seq = 0
        last_worker_seen = now

        def settle(index: int, spec: Any, attempt: int, elapsed: float,
                   error: str, at: float, kind: str = "failed",
                   start_offset: int = 0, bundle: str = "") -> None:
            """Charge a failed/timed-out attempt; retry or fail out."""
            if outcomes[index] is not None:
                return  # a duplicate dispatch already settled this slot
            if manifest is not None:
                manifest.mark_attempt(spec.fingerprint(), attempt, kind,
                                      error, start_offset=start_offset)
            if attempt < policy.retries:
                if manifest is not None:
                    manifest.mark_retrying(spec.fingerprint(), error)
                if any(item[1] == index and item[3] > attempt
                       for item in work):
                    return  # the retry is already queued
                delay = policy.backoff_delay(spec.fingerprint(),
                                             attempt + 1)
                work.append((at + delay, index, spec, attempt + 1,
                             elapsed, error))
            else:
                outcomes[index] = _fail(spec, error, elapsed,
                                        attempt + 1, manifest,
                                        bundle=bundle)

        def requeue_innocent(lease, at: float) -> None:
            """Re-dispatch a lease whose worker/frames went away; the
            attempt never completed anywhere, so it is not charged."""
            entry = inflight.get(lease.job_id)
            if entry is None or lease.job_id in settled_jobs:
                return
            index, spec, attempt, elapsed = entry
            if outcomes[index] is None:
                work.append((at, index, spec, attempt, elapsed, ""))

        def drop_worker(name: str, at: float, why: str) -> None:
            lease = self.table.drop(name)
            remote = self.remotes.pop(name, None)
            if remote is not None:
                remote.channel.close()
            draining.discard(name)
            if lease is not None:
                requeue_innocent(lease, at)
            self._mark_worker(name, status=why, lease="", flush=True)

        def handle_result(name: str, message: Dict[str, Any],
                          at: float) -> None:
            job_id = int(message.get("job_id", -1))
            remote = self.remotes.get(name)
            if remote is not None:
                try:
                    remote.channel.send_json(
                        {"type": "result_ack", "job_id": job_id})
                except ConnectionClosed:
                    pass
            draining.discard(name)
            self.table.release(name, job_id)
            if job_id in settled_jobs or job_id not in inflight:
                return
            settled_jobs.add(job_id)
            index, spec, attempt, elapsed = inflight[job_id]
            outcome = message.get("outcome") or {}
            attempt_time = float(outcome.get("elapsed", 0.0))
            info = self.table.workers.get(name)
            if outcome.get("ok"):
                if info is not None:
                    info.jobs_done += 1
                if outcomes[index] is None:
                    from repro.core.experiment import SimulationResult
                    result = SimulationResult.from_dict(
                        outcome["result"])
                    outcomes[index] = _finish(
                        spec, result, elapsed + attempt_time,
                        attempt + 1, self.ctx.cache, manifest, outcome)
            else:
                if info is not None:
                    info.jobs_failed += 1
                settle(index, spec, attempt, elapsed + attempt_time,
                       outcome.get("error",
                                   "worker returned no outcome"), at,
                       start_offset=int(outcome.get("start_offset", 0)),
                       bundle=str(outcome.get("bundle", "")))
            self._mark_worker(name, lease="",
                              jobs_done=getattr(info, "jobs_done", 0),
                              jobs_failed=getattr(info, "jobs_failed",
                                                  0),
                              flush=True)

        while True:
            drained = self._backlog + self._drain_events(timeout=0.05)
            self._backlog = []
            now = _now()
            for event, name, payload in drained:
                if event == "joined":
                    self._register_join(name, payload, now)
                    last_worker_seen = now
                elif event == "lost":
                    drop_worker(name, now, "lost")
                elif event == "msg":
                    mtype = payload.get("type")
                    if mtype == "heartbeat":
                        self.table.heartbeat(name, now)
                        last_worker_seen = now
                        self._mark_worker(
                            name, last_heartbeat=_wall_now(),
                            flush=False)
                    elif mtype == "ack":
                        self.table.acknowledge(
                            name, int(payload.get("job_id", -1)), now)
                    elif mtype == "result":
                        handle_result(name, payload, now)

            # Lease expiry: classify, then recover per reason.
            for lease, reason in self.table.expired(now):
                if reason == "worker-lost":
                    drop_worker(lease.worker, now, "lost")
                elif reason == "ack-timeout":
                    self.table.release(lease.worker, lease.job_id)
                    requeue_innocent(lease, now)
                elif reason == "job-timeout":
                    self.table.release(lease.worker, lease.job_id)
                    draining.add(lease.worker)
                    entry = inflight.get(lease.job_id)
                    if entry is not None and \
                            lease.job_id not in settled_jobs:
                        settled_jobs.add(lease.job_id)
                        index, spec, attempt, elapsed = entry
                        settle(index, spec, attempt, elapsed,
                               f"timeout: attempt exceeded "
                               f"{policy.job_timeout:.2f}s", now,
                               kind="timeout")

            # Drop queue entries whose outcome landed via another path.
            work = [item for item in work if outcomes[item[1]] is None]

            if all(outcomes[index] is not None for index in indices):
                return True

            # Assignment: oldest ready work to idle workers.
            idle = [name for name in self.table.idle_workers()
                    if name not in draining and name in self.remotes]
            if idle and work:
                work.sort(key=lambda item: (item[0], item[1]))
                for name in idle:
                    ready = next((item for item in work
                                  if item[0] <= now), None)
                    if ready is None:
                        break
                    work.remove(ready)
                    _nb, index, spec, attempt, elapsed, _err = ready
                    job_seq += 1
                    dispatch_seq += 1
                    fingerprint = spec.fingerprint()
                    role, arena = self.ctx.arenas.role(index)
                    message = {
                        "type": "job", "job_id": job_seq,
                        "dispatch": dispatch_seq,
                        "spec": spec.to_dict(),
                        "ephemeral": spec.ephemeral(),
                        "fingerprint": fingerprint,
                        "attempt": attempt,
                        "arena": arena,
                        "arena_role": role,
                    }
                    if manifest is not None:
                        manifest.mark_running(fingerprint)
                    inflight[job_seq] = (index, spec, attempt, elapsed)
                    lease = self.table.grant(name, job_seq, index,
                                             fingerprint, attempt,
                                             dispatch_seq, now)
                    self._mark_worker(name, lease=fingerprint[:12],
                                      lease_since=_wall_now(),
                                      flush=True)
                    try:
                        self.remotes[name].channel.send_json(message)
                    except ConnectionClosed:
                        drop_worker(name, now, "lost")

            # Degradation: nobody left to run anything.
            if not self.table.workers:
                alive_procs = any(proc.poll() is None
                                  for proc in self.procs)
                grace_over = now - last_worker_seen > \
                    self.config.connect_timeout
                if (self.procs and not alive_procs) or grace_over:
                    return False

    # ---------------------------------------------------------- teardown

    def shutdown(self) -> None:
        self._stop.set()
        for name in sorted(self.remotes):
            try:
                self.remotes[name].channel.send_json({"type": "shutdown"},
                                                     timeout=1.0)
            except (ConnectionClosed, OSError):
                pass
        for name in sorted(self.remotes):
            self.remotes[name].channel.close()
            self._mark_worker(name, status="released", lease="",
                              flush=False)
        self.remotes.clear()
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.terminate()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=2.0)
            except (subprocess.TimeoutExpired, OSError):
                try:
                    proc.kill()
                except OSError:
                    pass
        manifest = self.ctx.manifest
        if manifest is not None:
            manifest.flush()

    # ------------------------------------------------------- worker health

    def _mark_worker(self, name: str, flush: bool = True,
                     **fields: Any) -> None:
        """Record worker health in the manifest (throttled flushes)."""
        manifest = self.ctx.manifest
        if manifest is None or not hasattr(manifest, "mark_worker"):
            return
        if not flush:
            # Heartbeats are frequent; cap manifest writes at ~1/s.
            now = _now()
            flush = now >= self._worker_flush_at
            if flush:
                self._worker_flush_at = now + 1.0
        manifest.mark_worker(name, flush=flush, **fields)
