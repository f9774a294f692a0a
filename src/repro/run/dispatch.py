"""Pluggable execution strategies behind :func:`run_many`.

A :class:`Dispatcher` takes the sweep's *pending* jobs (cache misses
without an outcome yet) and either finishes them (``run`` returns
``True``) or declines/aborts (``False``), in which case the next
dispatcher in the chain re-runs exactly the jobs still missing an
outcome.  The chain always ends with :class:`SerialDispatcher`, which
cannot fail, so a sweep degrades -- fabric to local pool to in-process
serial -- without ever losing completed outcomes: results live in the
shared ``outcomes`` list and the manifest, not in the dispatcher.

Every strategy drives the same attempt core,
:class:`repro.run.executor.Attempts`, which owns the retry queue,
backoff, the manifest attempt log, retry-or-fail and the finished
outcome; a strategy keeps only its transport:

* :class:`SerialDispatcher` -- in-process, in input order, each job to
  completion; the deterministic baseline;
* :class:`PoolDispatcher` -- the persistent fork-server pool
  (:func:`repro.run.executor._run_pool`), one job per future;
* ``FabricDispatcher`` (:mod:`repro.run.fabric.coordinator`) -- the
  multi-host coordinator/worker fabric, imported lazily so the socket
  machinery never loads for purely local sweeps.

``resolve_chain`` maps ``run_many(dispatch=...)`` -- ``"local"``,
``"fabric"``, a :class:`Dispatcher` instance, or an explicit list --
to the concrete chain.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.run.executor import ArenaPlan

#: Environment default for the fabric worker list (comma-separated
#: specs, e.g. ``spawn:3`` or ``ssh:db1,ssh:db2`` or ``wait:2``).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment default for the dispatch mode (``local`` / ``fabric``).
DISPATCH_ENV = "REPRO_DISPATCH"

_DISPATCH_MODES = ("local", "fabric")


def default_workers() -> Tuple[str, ...]:
    """Worker specs from ``REPRO_WORKERS`` (default: none)."""
    raw = os.environ.get(WORKERS_ENV, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def default_dispatch() -> str:
    """Dispatch mode from ``REPRO_DISPATCH``; ``fabric`` is implied
    when ``REPRO_WORKERS`` names workers and no mode is given."""
    mode = os.environ.get(DISPATCH_ENV, "").strip().lower()
    if mode in _DISPATCH_MODES:
        return mode
    return "fabric" if default_workers() else "local"


@dataclass
class DispatchContext:
    """Everything a dispatcher needs to execute pending jobs.

    ``outcomes`` is the sweep-wide result list (indexed by original
    spec position) that dispatchers fill in place; a fallback
    dispatcher re-runs only the indices still ``None``.  ``arenas`` is
    the sweep's :class:`~repro.run.executor.ArenaPlan`: the attempt
    core asks it for a job's arena role when an attempt starts.
    """

    cache: Optional[Any] = None
    outcomes: List[Optional[Any]] = field(default_factory=list)
    policy: Any = None
    manifest: Optional[Any] = None
    arenas: ArenaPlan = field(default_factory=ArenaPlan)
    checkpoint_every: int = 0
    jobs: int = 1


class Dispatcher(abc.ABC):
    """One execution strategy for a batch of pending sweep jobs."""

    #: Short strategy name reported in :class:`RunReport.dispatch`.
    name: str = "?"

    #: Workers the last finished :meth:`run` used, reported in
    #: :attr:`RunReport.jobs`.
    workers: int = 1

    @abc.abstractmethod
    def run(self, pending: Sequence[Tuple[int, Any]],
            ctx: DispatchContext) -> bool:
        """Execute ``pending`` (``(index, spec)`` pairs), filling
        ``ctx.outcomes``.  Return ``True`` when this strategy is done
        with the batch (individual job failures included -- those are
        outcomes, not dispatcher failures); ``False`` to hand the
        still-outcome-less jobs to the next strategy in the chain."""


class SerialDispatcher(Dispatcher):
    """In-process execution; the chain terminator that cannot decline."""

    name = "serial"

    def run(self, pending: Sequence[Tuple[int, Any]],
            ctx: DispatchContext) -> bool:
        from repro.run.executor import _run_serial
        _run_serial(pending, ctx)
        return True


class PoolDispatcher(Dispatcher):
    """The persistent local fork-server pool."""

    name = "pool"

    def run(self, pending: Sequence[Tuple[int, Any]],
            ctx: DispatchContext) -> bool:
        if ctx.jobs < 2 or len(pending) < 2:
            return False
        from repro.run.executor import _run_pool
        self.workers = min(ctx.jobs, len(pending))
        return _run_pool(pending, self.workers, ctx)


DispatchSpec = Union[None, str, Dispatcher, Sequence[Dispatcher]]


def resolve_chain(dispatch: DispatchSpec, jobs: int, n_pending: int,
                  workers: Sequence[str] = ()) -> List[Dispatcher]:
    """Concrete dispatcher chain for one ``run_many`` call.

    ``dispatch`` may be ``None``/``"local"`` (pool when it can pay off,
    then serial -- the historical behaviour), ``"fabric"`` (fabric,
    then pool, then serial), a ready :class:`Dispatcher` (it gets a
    serial fallback appended), or an explicit sequence (used verbatim;
    the caller owns termination).
    """
    if isinstance(dispatch, Dispatcher):
        return [dispatch, SerialDispatcher()]
    if isinstance(dispatch, (list, tuple)):
        return list(dispatch) or [SerialDispatcher()]
    mode = (dispatch or "local").strip().lower()
    if mode not in _DISPATCH_MODES:
        raise ValueError(
            f"dispatch must be one of {_DISPATCH_MODES}, a Dispatcher, "
            f"or a sequence of them; got {dispatch!r}")
    chain: List[Dispatcher] = []
    if mode == "fabric":
        from repro.run.fabric.coordinator import (
            FabricConfig,
            FabricDispatcher,
        )
        chain.append(FabricDispatcher(
            FabricConfig(workers=tuple(workers))))
    if jobs > 1 and n_pending > 1:
        chain.append(PoolDispatcher())
    chain.append(SerialDispatcher())
    return chain
