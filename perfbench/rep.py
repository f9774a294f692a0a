"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that the set-up
time it reports includes the imports a user's fresh process pays.  The
script prints one JSON line with ``CLOCK_MONOTONIC`` timestamps, which
are comparable across processes on Linux:

* ``entry``: the moment the simulation entry point is called;
* ``done``: the moment every job's result digest has been computed.

The parent subtracts its own spawn timestamp to get ``setup_s`` and
``wall_s``.  With ``--setup-only`` the script stops at ``entry``; with
``--trace 1`` it runs the simulation under the per-layer ledger
(:mod:`ledger`) and adds the per-layer metrics.

Usage (normally via ``run.py``; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/rep.py --workload oltp-single --seed 0 --tmp DIR \\
        [--cpu N]
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

#: workload -> (trace kind, warmup, measured instructions per job).  The
#: warmup is longer than the measured window in every workload, as in
#: the paper's runs.  Sweep jobs total 104k instructions, so each one
#: crosses the default 100k checkpoint boundary strictly inside its
#: measured phase and the checkpoint layer does real work.
WORKLOADS = {
    "oltp-sweep": ("oltp", 64_000, 40_000),
    "oltp-single": ("oltp", 48_000, 24_000),
    "dss-single": ("dss", 48_000, 24_000),
}

#: Figure 2(b)'s instruction-window sizes.
SWEEP_WINDOWS = (16, 32, 64, 128)

#: Pool workers for the sweep (``repro figure 2b --jobs 2``), capped by
#: the CPUs this process may use.
SWEEP_WORKERS = 2


def job_digest(result) -> str:
    """sha256 of the canonical JSON of ``result.to_dict()``."""
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process plus its live child processes.

    Pool workers are still alive here, so their own high-water marks
    are read from ``/proc`` rather than from ``RUSAGE_CHILDREN``, which
    only covers children that have been reaped.
    """
    me = os.getpid()
    pids = [me]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def prepare_sweep(seed: int, tmp: Path):
    """Figure 2(b) OLTP window sweep, configured as ``repro figure 2b
    --jobs 2`` configures it: fresh cache and manifest, arenas ``auto``,
    default checkpoint interval, a pool of workers."""
    import dataclasses

    import repro.run as run
    from repro.params import default_system
    from repro.run.jobs import JobSpec, WorkloadSpec

    kind, warmup, measured = WORKLOADS["oltp-sweep"]
    workers = min(SWEEP_WORKERS, len(os.sched_getaffinity(0)))
    run.configure(jobs=workers, use_cache=True,
                  cache_dir=str(tmp / "cache"))
    base = default_system()
    specs = [JobSpec(base.replace(processor=dataclasses.replace(
                         base.processor, window_size=window)),
                     WorkloadSpec(kind), instructions=measured,
                     warmup=warmup, seed=seed)
             for window in SWEEP_WINDOWS]

    def simulate():
        report = run.run_many(specs)
        return [o.result for o in report.outcomes], report

    return simulate, specs


def prepare_single(name: str, seed: int):
    """One job in-process through ``run_simulation``: generator path,
    no cache, no arenas."""
    from repro import (default_system, dss_workload, oltp_workload,
                       run_simulation)

    kind, warmup, measured = WORKLOADS[name]
    params = default_system()
    workload = oltp_workload() if kind == "oltp" else dss_workload()

    def simulate():
        return [run_simulation(params, workload, instructions=measured,
                               warmup=warmup, seed=seed)], None

    return simulate, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, type=Path,
                        help="scratch directory for cache, arenas and "
                             "worker ledgers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int,
                        help="pin this process to one CPU before set-up")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sweep = args.workload == "oltp-sweep"
    if sweep:
        simulate, specs = prepare_sweep(args.seed, args.tmp)
    else:
        simulate, specs = prepare_single(args.workload, args.seed)
    entry = time.monotonic()
    if args.setup_only:
        print(json.dumps({"entry": entry}))
        return 0

    ledger = None
    if args.trace:
        from ledger import Ledger, install
        ledger = Ledger()
        dump_dir = args.tmp / "ledgers" if sweep else None
        if sweep:
            dump_dir.mkdir()
        with install(ledger, dump_dir):
            results, report = simulate()
    else:
        results, report = simulate()
    digests = [job_digest(r) if r is not None else None for r in results]
    done = time.monotonic()

    from repro.run.jobs import MODEL_VERSION

    kind, warmup, measured = WORKLOADS[args.workload]
    out = {
        "entry": entry,
        "done": done,
        "digests": digests,
        "failed": sum(1 for r in results if r is None),
        "short": sum(1 for r in results
                     if r is not None and r.instructions != measured),
        "instructions": len(results) * (warmup + measured),
        "model_version": MODEL_VERSION,
    }
    if ledger is not None:
        from ledger import layer_metrics
        warm_rerun_s = 0.0
        if sweep:
            import repro.run as run
            ledger.merge_dumps(dump_dir)
            started = time.monotonic()
            warm = run.run_many(specs)
            warm_rerun_s = time.monotonic() - started
            out["warm_digests"] = [
                job_digest(o.result) if o.result is not None else None
                for o in warm.outcomes]
            out["warm_hits"] = warm.cache_hits
        ok = [r for r in results if r is not None]
        out["layers"] = layer_metrics(ledger, ok, report, warm_rerun_s) \
            if ok else {}
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
