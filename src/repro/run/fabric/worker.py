"""Fabric worker: dial a coordinator, execute jobs, survive faults.

``repro worker --connect HOST:PORT`` runs :func:`serve_worker`: it
dials the coordinator, introduces itself (``hello``/``welcome``), then
loops executing one job at a time through exactly the same per-job path
the fork-server pool uses (:func:`repro.run.forkserver.run_entry` --
fault injection, checkpoint resume, triage bundles included).

Robustness mechanics:

* **Heartbeats.**  A background thread sends a ``heartbeat`` frame
  every ``heartbeat_s`` seconds (the interval comes from the
  coordinator's ``welcome``), including *while the main thread is
  simulating*, so a long or fault-injected hanging job never reads as
  a dead worker.
* **At-least-once results.**  A ``result`` frame is resent on a timer
  until the coordinator acknowledges it (``result_ack``); the
  coordinator deduplicates, so an injected ``netdrop`` on either leg
  loses nothing.
* **Explicit fault plans.**  The worker's own environment is
  deliberately ignored (the fork-server precedent: persistent workers
  must not trust captured env).  The ``welcome`` payload carries the
  coordinator's ``REPRO_FAULTS`` string for this side's transport
  faults and ``workerdie``; each job message carries the plan for its
  own job-level and disk faults, with its cache dir and checkpoint
  interval.
* **``workerdie``.**  Rolled per *dispatch* (the coordinator's global
  dispatch counter, not the attempt number) right after the job is
  acknowledged: the process exits abruptly via ``os._exit``, leaving an
  acknowledged lease to expire on the coordinator.  Keying by dispatch
  means a re-dispatched job rolls fresh -- a doomed (job, attempt) pair
  cannot deterministically kill every worker that touches it.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Dict, Optional

from repro.run.fabric.protocol import (
    Channel,
    ConnectionClosed,
    ProtocolError,
    connect_channel,
)
from repro.run.faults import plan_from_env

#: Seconds between resends of an unacknowledged result frame.
RESULT_RESEND_S = 1.0

#: Give up on a result after this many sends; the coordinator's lease
#: machinery re-dispatches the job, so dropping it here is safe.
RESULT_MAX_SENDS = 30

#: How long to wait for the coordinator's ``welcome``.
WELCOME_TIMEOUT_S = 15.0


def _monotonic() -> float:
    """Host clock for resend pacing only; never feeds simulated state."""
    import time
    return time.monotonic()  # repro-lint: disable=R002


class _Heartbeat(threading.Thread):
    """Background heartbeat pump; dies quietly with the connection."""

    def __init__(self, channel: Channel, interval: float):
        super().__init__(daemon=True)
        self.channel = channel
        self.interval = max(0.05, float(interval))
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            try:
                self.channel.send_json({"type": "heartbeat"})
            except (ConnectionClosed, OSError):
                return


def serve_worker(address: str, name: Optional[str] = None,
                 quiet: bool = False,
                 connect_timeout: float = 10.0) -> int:
    """Connect to a coordinator and execute fabric jobs until shutdown.

    Returns a process exit code: 0 on clean shutdown (coordinator said
    so, or closed the connection after the sweep), 1 when the handshake
    or transport failed in a way worth reporting.
    """
    def log(text: str) -> None:
        if not quiet:
            print(f"worker: {text}", file=sys.stderr)

    try:
        channel = connect_channel(address, name=name or "worker",
                                  timeout=connect_timeout)
    except (OSError, ValueError) as exc:
        log(f"cannot connect to {address}: {exc}")
        return 1
    heartbeat: Optional[_Heartbeat] = None
    try:
        channel.send_json({"type": "hello", "pid": os.getpid(),
                           "name": name or ""})
        welcome = channel.recv_json(timeout=WELCOME_TIMEOUT_S)
        if welcome is None or welcome.get("type") != "welcome":
            log(f"no welcome from coordinator at {address}")
            return 1
        assigned = str(welcome.get("name") or name or "worker")
        channel.name = assigned
        channel.plan = plan_from_env(str(welcome.get("faults", "")))
        heartbeat = _Heartbeat(channel,
                               float(welcome.get("heartbeat_s", 0.25)))
        heartbeat.start()
        log(f"connected to {address} as {assigned}")
        return _serve_loop(channel, assigned, log)
    except (ConnectionClosed, ProtocolError) as exc:
        log(f"connection lost: {exc}")
        return 0
    finally:
        if heartbeat is not None:
            heartbeat.stop_event.set()
        channel.close()


def _serve_loop(channel: Channel, name: str, log) -> int:
    """Main receive/execute loop; returns the process exit code."""
    from repro.run import forkserver

    plan = channel.plan
    #: job_id -> (result message, sends so far, next resend time)
    unacked: Dict[int, Any] = {}
    done_ids = set()  # jobs already executed (re-sent job frames dedup)
    while True:
        _resend_due(channel, unacked)
        message = channel.recv_json(timeout=0.2)
        if message is None:
            continue
        mtype = message.get("type")
        if mtype == "shutdown":
            log("shutdown requested")
            return 0
        if mtype == "result_ack":
            unacked.pop(int(message.get("job_id", -1)), None)
            continue
        if mtype != "job":
            continue
        job_id = int(message["job_id"])
        if job_id in done_ids:
            # Duplicate delivery (netdup or a coordinator resend): the
            # result is either in flight or already acknowledged.
            continue
        channel.send_json({"type": "ack", "job_id": job_id})
        dispatch_seq = int(message.get("dispatch", 0))
        fingerprint = str(message.get("fingerprint", ""))
        if plan is not None and plan.roll("workerdie", fingerprint,
                                          dispatch_seq):
            # Injected abrupt death: no goodbye, no flush -- the lease
            # expires on the coordinator and the job re-dispatches.
            os._exit(3)
        outcome = forkserver.run_entry(message)
        done_ids.add(job_id)
        result = {"type": "result", "job_id": job_id, "worker": name,
                  "outcome": outcome}
        channel.send_json(result)
        unacked[job_id] = [result, 1, _monotonic() + RESULT_RESEND_S]


def _resend_due(channel: Channel, unacked: Dict[int, Any]) -> None:
    """Resend overdue unacknowledged results (at-least-once delivery)."""
    if not unacked:
        return
    now = _monotonic()
    for job_id in sorted(unacked):
        entry = unacked[job_id]
        if now < entry[2]:
            continue
        if entry[1] >= RESULT_MAX_SENDS:
            # The coordinator will have re-dispatched by now; stop
            # flogging the wire.
            del unacked[job_id]
            continue
        channel.send_json(entry[0])
        entry[1] += 1
        entry[2] = now + RESULT_RESEND_S
