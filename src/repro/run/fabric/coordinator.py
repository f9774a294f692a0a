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
   resolved first-writer-wins by the attempt core
   (:class:`repro.run.executor.Attempts`), which also owns retries,
   backoff, the manifest attempt log and the finished outcomes;
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
from repro.run.executor import Attempts
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
            self.workers = session.joined
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
        #: Workers that joined this run, lost ones included.
        self.joined = 0
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
        self.joined += 1
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
        try:
            channel.send_json({
                "type": "welcome", "name": name,
                "faults": os.environ.get(FAULTS_ENV, ""),
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
        Queueing, retries and outcomes belong to the attempt core; this
        loop owns leases, acks, heartbeats and worker health.
        """
        attempts = Attempts(pending, self.ctx)
        #: job_id -> ticket of a dispatched attempt whose result may
        #: still arrive (dropped once a result or a verdict settles it).
        inflight: Dict[int, Any] = {}
        draining: set = set()
        job_seq = 0
        last_worker_seen = _now()

        def drop_worker(name: str, why: str) -> None:
            lease = self.table.drop(name)
            remote = self.remotes.pop(name, None)
            if remote is not None:
                remote.channel.close()
            draining.discard(name)
            if lease is not None and lease.job_id in inflight:
                attempts.requeue(inflight.pop(lease.job_id))
            self._mark_worker(name, status=why, lease="", flush=True)

        def handle_result(name: str, message: Dict[str, Any]) -> None:
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
            ticket = inflight.pop(job_id, None)
            if ticket is None:
                return   # a duplicate frame, or the job timed out
            outcome = message.get("outcome") or {}
            info = self.table.workers.get(name)
            if info is not None:
                if outcome.get("ok"):
                    info.jobs_done += 1
                else:
                    info.jobs_failed += 1
            attempts.completed(ticket, outcome)
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
                    drop_worker(name, "lost")
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
                        handle_result(name, payload)

            # Lease expiry: classify, then recover per reason.
            for lease, reason in self.table.expired(now):
                if reason == "worker-lost":
                    drop_worker(lease.worker, "lost")
                elif reason == "ack-timeout":
                    # The worker may still run it and report: keep the
                    # ticket, first writer wins.
                    self.table.release(lease.worker, lease.job_id)
                    if lease.job_id in inflight:
                        attempts.requeue(inflight[lease.job_id])
                elif reason == "job-timeout":
                    self.table.release(lease.worker, lease.job_id)
                    draining.add(lease.worker)
                    if lease.job_id in inflight:
                        attempts.timed_out(inflight.pop(lease.job_id))

            if attempts.done():
                return True

            # Assignment: oldest ready work to idle workers.
            for name in [name for name in self.table.idle_workers()
                         if name not in draining and name in self.remotes]:
                item = attempts.take()
                if item is None:
                    break
                ticket, message = attempts.start(item)
                job_seq += 1
                fingerprint = ticket.spec.fingerprint()
                inflight[job_seq] = ticket
                self.table.grant(name, job_seq, ticket.index, fingerprint,
                                 ticket.attempt, job_seq, now)
                self._mark_worker(name, lease=fingerprint[:12],
                                  lease_since=_wall_now(), flush=True)
                try:
                    self.remotes[name].channel.send_json(dict(
                        message, type="job", job_id=job_seq,
                        dispatch=job_seq, fingerprint=fingerprint))
                except ConnectionClosed:
                    drop_worker(name, "lost")

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
