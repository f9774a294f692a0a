"""Host-speed probe: one per CPU, running alongside the repetitions.

The benchmark runs on a VM that shares its host.  The host slows each
CPU on its own, for phases from under a second to minutes, as
neighbours come and go (by about 1.5x when a neighbour shares the
physical core).  The same repetition can therefore take 3 s or 4.5 s,
and a whole run can fall in a slow phase.

``run.py`` starts one probe per CPU for the whole run.  Each probe is
pinned to its CPU and, every ``PERIOD_S``, times a fixed chunk of
pure-Python work in its own CPU time.  A repetition pinned to the same
CPU slows down with the chunk, so ``run.py`` can scale the repetition's
times to a reference speed (see README.md, "Host-speed probe").  The
chunk is fixed code outside the simulator, so a change to the simulator
cannot move it.

The probe costs its CPU about 2% (one ~0.4 ms chunk per 20 ms), and
takes that share from a repetition pinned there.

Usage: ``python3 perfbench/probe.py --cpu N``.  On SIGTERM, or when its
parent is gone, it prints one JSON list of ``[CLOCK_MONOTONIC time,
chunk CPU seconds]`` samples and exits.
"""

import argparse
import json
import os
import signal
import time

#: Sleep between chunks.
PERIOD_S = 0.02
#: Dict operations per chunk: about 0.4 ms on a 2-CPU Xeon VM.
CHUNK_OPS = 3000


def chunk() -> int:
    counts = {}
    for i in range(CHUNK_OPS):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return len(counts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop and os.getppid() == parent:
        started = time.thread_time()
        chunk()
        samples.append((time.monotonic(), time.thread_time() - started))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
