"""Benchmark driver for the simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oltp-single --seed 0 \\
        --seconds 30 --trace 0

Runs fresh-interpreter repetitions of one workload (``rep.py``) until
``--seconds`` is used up (at least one), checks every job's result
digest, and prints each metric by name with its unit, a host and code
identity line, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Host-speed probes (``probe.py``), one pinned to each CPU, run for the
whole run; single-job repetitions are pinned to one CPU in turn.  Every
repetition's set-up and simulation times are scaled by the speed its
CPUs' probes measured over the same interval, so that a neighbour
slowing the shared host does not read as a slower simulator.  The raw
times are printed too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
medians over the repetitions, with ``setup_s`` also sampled by a
set-up-only interpreter after every repetition.  ``--trace 1`` alternates
untraced and traced repetitions of the same seed and reports the
per-layer metrics (medians over traced repetitions) and
``bench.trace_overhead_ratio``.

Exits 2 without a result when the checkout has no ``src/repro``, 1 when
a repetition crashes or a correctness check fails.  See README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REP = HERE / "rep.py"
PROBE = HERE / "probe.py"
DIGESTS = HERE / "digests.json"
#: Scratch space for repetitions; removed after each one.
TMP_ROOT = ROOT / ".perfbench-tmp"

WORKLOADS = ("oltp-sweep", "oltp-single", "dss-single")
#: Workloads that run one job in one process; their repetitions are
#: pinned to one CPU.  The sweep's pool needs every CPU.
PINNED = ("oltp-single", "dss-single")
#: ``setup_s`` is a median of at least this many samples: one per
#: repetition, one set-up-only interpreter after each repetition (so the
#: samples are spread over the run), and a top-up at the end of a run
#: with few repetitions.
SETUP_SAMPLES = 20
#: A probe chunk's CPU time on a 2-CPU Xeon VM in a fast phase; times are
#: scaled to the speed at which a chunk takes this long.
REF_CHUNK_S = 0.0004
#: Units of per-layer metrics that are host times, and so are scaled.
TIME_UNITS = ("s", "ms", "us")
#: Hard limit on one run, kept under the 180 s a run may take.
RUN_LIMIT_S = 170.0


def steal_s() -> float:
    """CPU time the hypervisor took from this VM since boot (all CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A repetition crashed or misbehaved; no result is printed."""


def _session_pids(sid: int):
    """Live processes of session ``sid`` (pool workers outliving a rep)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        # state, ppid, pgrp, session
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _stop_session(sid: int) -> None:
    """Wait for every process of the repetition's session to end,
    killing stragglers after a grace period."""
    deadline = time.monotonic() + 5.0
    while _session_pids(sid):
        if time.monotonic() > deadline:
            try:
                os.killpg(sid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def spawn(workload: str, seed: int, trace: bool, deadline: float,
          cpu=None, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter, pinned to ``cpu`` unless
    it is ``None``, and return its record with the spawn time
    (``started``) and the raw ``setup_s`` / ``wall_s`` measured from it.
    Returns once every process of the repetition has ended."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=TMP_ROOT))
    cmd = [sys.executable, str(REP), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--tmp", str(tmp)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if setup_only:
        cmd.append("--setup-only")
    # Hermetic environment: only the checkout's sources, and no REPRO_*
    # overrides (jobs, cache, arenas, faults) leaking in from outside.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} repetition exceeded the run limit")
    finally:
        _stop_session(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited "
                         f"{proc.returncode}:\n{err[-3000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["started"] = started
    record["cpus"] = None if cpu is None else [cpu]
    record["setup_s"] = record["entry"] - started
    if not setup_only:
        record["wall_s"] = record["done"] - started
    return record


class Probes:
    """One ``probe.py`` per CPU, for the whole run.

    Use as a context manager: every probe has ended when the block
    exits, however it exits.  Afterwards :meth:`speed` reads the
    samples.
    """

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.procs = {}
        self.samples = {}

    def __enter__(self):
        for cpu in self.cpus:
            self.procs[cpu] = subprocess.Popen(
                [sys.executable, str(PROBE), "--cpu", str(cpu)], cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True)
        return self

    def __exit__(self, *exc_info):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                out, _ = proc.communicate()
            finally:
                _stop_session(proc.pid)
            if proc.returncode == 0 and out.strip():
                self.samples[cpu] = json.loads(out.strip().splitlines()[-1])
        return False

    def speed(self, cpus, begin: float, end: float) -> float:
        """Mean speed of ``cpus`` (all probed CPUs when ``None``) over
        ``[begin, end]``, relative to the reference speed."""
        cpus = self.cpus if cpus is None else cpus
        for margin in (0.0, 0.1):
            ratios = [REF_CHUNK_S / chunk for cpu in cpus
                      for at, chunk in self.samples.get(cpu, ())
                      if begin - margin <= at <= end + margin]
            if ratios:
                return statistics.fmean(ratios)
        raise BenchError("the host-speed probe took no sample in a "
                         "measured interval")


def scale(record: dict, probes: Probes) -> None:
    """Scale a record's set-up and simulation times, in place, by the
    speed its CPUs' probes measured over each; keep the raw times."""
    cpus = record["cpus"]
    record["raw_setup_s"] = record["setup_s"]
    record["setup_s"] *= probes.speed(cpus, record["started"],
                                      record["entry"])
    if "wall_s" in record:
        record["raw_wall_s"] = record["wall_s"]
        record["sim_speed"] = probes.speed(cpus, record["entry"],
                                           record["done"])
        record["sim_s"] = ((record["done"] - record["entry"])
                           * record["sim_speed"])
        record["wall_s"] = record["setup_s"] + record["sim_s"]


def code_identity() -> dict:
    """Host and code identity stamped on every record: noisy runs must
    be explainable after the fact."""
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
             "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "source_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def recorded_digests(model_version: int, workload: str, seed: int):
    """Per-job digests recorded for this model version, workload and
    seed, or ``None`` when none are recorded."""
    table = json.loads(DIGESTS.read_text())
    entry = table.get(str(model_version), {}).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["jobs"]


def check(reps, workload: str, seed: int, problems: list):
    """Count failed jobs over ``reps`` and note every failed check;
    returns ``(failed jobs, description of the gate applied)``.

    A job fails when it produced no result, retired a different
    instruction count than requested, or its digest differs from the
    recorded digest (at the recorded seed) or from the first
    repetition's (determinism across fresh processes, traced or not).
    """
    reference = reps[0]["digests"]
    expected = recorded_digests(reps[0]["model_version"], workload, seed)
    if expected is not None and len(expected) != len(reference):
        problems.append("recorded digest has another job count")
        expected = None
    failed = 0
    for rep in reps:
        failed += rep["failed"] + rep["short"]
        if rep["short"]:
            problems.append("a job retired another instruction count")
        for index, digest in enumerate(rep["digests"]):
            if digest is None:
                continue
            if digest != reference[index]:
                failed += 1
                problems.append(f"job {index} digest differs across "
                                f"repetitions")
            elif expected is not None and digest != expected[index]:
                failed += 1
                problems.append(f"job {index} digest {digest[:12]} != "
                                f"recorded {expected[index][:12]}")
        warm = rep.get("warm_digests")
        if warm is not None and warm != rep["digests"]:
            failed += 1
            problems.append("warm-cache rerun results differ from cold")
        if warm is not None and rep["warm_hits"] != len(warm):
            problems.append("warm-cache rerun missed the cache")
    gate = ("recorded digest" if expected is not None
            else "no recorded digest for this model version and seed; "
                 "checked failures, instruction counts and determinism")
    return failed, gate


def end_to_end(reps, setups):
    """Medians over the run of the scaled times."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "sim_instr_per_s": statistics.median(
            r["instructions"] / r["sim_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    identity = code_identity()
    steal_at_start = steal_s()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # Byte-compile once so the first repetition's set-up time does not
    # include it (users pay it once per install, not per run), and warm
    # the page cache with one untimed set-up.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)

    problems = []
    plain, traced, setup_only = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    pinned = args.workload in PINNED
    try:
        with Probes(cpus) as probes:
            spawn(args.workload, args.seed, False, deadline,
                  setup_only=True)
            while True:
                began = time.monotonic()
                cpu = cpus[len(plain) % len(cpus)] if pinned else None
                plain.append(spawn(args.workload, args.seed, False,
                                   deadline, cpu))
                if args.trace:
                    traced.append(spawn(args.workload, args.seed, True,
                                        deadline, cpu))
                setup_only.append(spawn(args.workload, args.seed, False,
                                        deadline, cpu, setup_only=True))
                took = time.monotonic() - began
                if time.monotonic() - start + took > args.seconds:
                    break
            while len(plain) + len(setup_only) < SETUP_SAMPLES:
                cpu = cpus[len(setup_only) % len(cpus)] if pinned else None
                setup_only.append(spawn(args.workload, args.seed, False,
                                        deadline, cpu, setup_only=True))
        for record in plain + traced + setup_only:
            scale(record, probes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    reps = plain + traced
    failed, gate = check(reps, args.workload, args.seed, problems)
    attempted = sum(len(r["digests"]) for r in reps)
    setups = [r["setup_s"] for r in plain + setup_only]
    e2e = end_to_end(plain, setups)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            timed = layer_units.get(name) in TIME_UNITS
            layers[name] = statistics.median(
                r["layers"][name] * (r["sim_speed"] if timed else 1.0)
                for r in traced)
        layers["bench.trace_overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / e2e["wall_s"])
        if args.workload == "oltp-sweep" \
                and layers.get("run.checkpoints", 0) <= 0:
            problems.append("no checkpoint was written: the sweep no "
                            "longer measures the checkpoint layer")
        if set(layers) != set(layer_units):
            problems.append(f"per-layer metrics differ from BENCHMARK.json:"
                            f" {sorted(set(layers) ^ set(layer_units))}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items() if name in layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}

    identity["model_version"] = reps[0]["model_version"]
    identity["steal_s"] = round(steal_s() - steal_at_start, 2)
    print(f"host {json.dumps(identity, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} "
          f"untraced and {len(traced)} traced repetitions; raw wall_s "
          f"{[round(r['raw_wall_s'], 3) for r in plain]}, scaled "
          f"{[round(r['wall_s'], 3) for r in plain]}")
    raw_setups = [r["raw_setup_s"] for r in plain + setup_only]
    print(f"set-up: {len(raw_setups)} samples, raw median "
          f"{statistics.median(raw_setups):.4f} s; probe speed over "
          f"simulations {[round(r['sim_speed'], 3) for r in plain]} "
          f"(1 = a {REF_CHUNK_S * 1e3:g} ms chunk)")
    print(f"digest gate: {gate}")
    for index, digest in enumerate(reps[0]["digests"]):
        print(f"job {index} sha256 {digest}")
    for name, unit in e2e_units.items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio")
    if args.trace:
        for name, unit in layer_units.items():
            print(f"{name} {layers.get(name, float('nan')):.6g} {unit}")
    for problem in sorted(set(problems)):
        print(f"FAILED CHECK: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
