"""Tests for the benchmark's own code (digest, names, ledger shims).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from ledger import Ledger, install, layer_metrics  # noqa: E402
from rep import job_digest  # noqa: E402

from repro import default_system, oltp_workload, run_simulation  # noqa: E402
from repro.core.experiment import SimulationResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_run(seed=0):
    return run_simulation(default_system(), oltp_workload(),
                          instructions=1_000, warmup=2_000, seed=seed)


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_digest_stable_across_to_dict_round_trips():
    result = tiny_run()
    once = SimulationResult.from_dict(json.loads(json.dumps(
        result.to_dict())))
    twice = SimulationResult.from_dict(once.to_dict())
    assert job_digest(result) == job_digest(once) == job_digest(twice)
    assert job_digest(result) != job_digest(tiny_run(seed=1))


def test_every_emitted_name_is_well_formed():
    bench = bench_json()
    ledger = Ledger()
    with install(ledger):
        result = tiny_run()
    emitted = set(layer_metrics(ledger, [result]))
    emitted.add("bench.trace_overhead_ratio")
    assert emitted == {m["name"] for m in bench["per_layer"]}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _owners():
    from repro.core.workloads import Workload
    from repro.cpu.core import ProcessorCore
    from repro.mem.coherence import CoherentMemory
    from repro.mem.memsys import NodeMemorySystem
    from repro.run import executor, forkserver
    from repro.run.cache import ResultCache
    from repro.run.checkpoint import CheckpointStore
    from repro.system.machine import Machine
    from repro.trace.arena import ArenaRecorder, TraceArena
    return (Workload, ProcessorCore, CoherentMemory, NodeMemorySystem,
            executor, forkserver, ResultCache, CheckpointStore, Machine,
            ArenaRecorder, TraceArena)


def test_shims_restore_originals_even_on_exceptions(tmp_path):
    from repro.system.machine import Machine
    before = [dict(vars(owner)) for owner in _owners()]
    original_run = Machine.run
    with pytest.raises(RuntimeError, match="boom"):
        with install(Ledger(), tmp_path):
            assert Machine.run is not original_run
            assert Machine.run.__wrapped__ is original_run
            raise RuntimeError("boom")
    after = [dict(vars(owner)) for owner in _owners()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


def test_shims_restore_originals_when_the_simulation_raises():
    from repro.cpu.core import ProcessorCore
    original = ProcessorCore.tick
    calls = []

    def failing_tick(self, now):
        calls.append(now)
        raise ValueError("tick failed")

    ProcessorCore.tick = failing_tick
    try:
        with pytest.raises(ValueError, match="tick failed"):
            with install(Ledger()) as ledger:
                tiny_run()
        assert ProcessorCore.tick is failing_tick
        # The failed span was still closed and charged.
        assert ledger.get("cpu.tick")[0] == len(calls) == 1
        assert len(ledger.stack) == 1
    finally:
        ProcessorCore.tick = original


def test_layer_time_components_fit_in_wall_time():
    ledger = Ledger()
    started = time.perf_counter()
    with install(ledger):
        result = tiny_run()
    wall = time.perf_counter() - started
    metrics = layer_metrics(ledger, [result])
    components = (metrics["system.machine_init_ms"] / 1e3
                  + metrics["system.loop_self_s"]
                  + metrics["cpu.tick_self_s"]
                  + metrics["mem.access_self_s"]
                  + metrics["mem.coherence_s"]
                  + metrics["trace.gen_s"])
    assert 0 < components <= ledger.self_time() + 1e-9 <= wall
    assert metrics["system.warmup_s"] + metrics["system.measure_s"] <= wall
    assert metrics["cpu.ticks"] > 0 and metrics["mem.access_calls"] > 0
    assert 0 < metrics["cpu.ticks_per_cycle"] <= 1.0
    # Simulated statistics are unchanged by tracing.
    assert job_digest(result) == job_digest(tiny_run())


def test_pool_workers_report_their_ledgers(tmp_path):
    from repro.params import default_system as params
    from repro.run import JobSpec, WorkloadSpec, forkserver, run_many
    from repro.run.cache import ResultCache
    from repro.run.manifest import SweepManifest

    base = params()
    specs = [JobSpec(base.replace(processor=dataclasses.replace(
                         base.processor, window_size=w)),
                     WorkloadSpec("oltp"), instructions=1_500,
                     warmup=2_500, seed=3) for w in (16, 32, 64)]

    def sweep(directory):
        cache = ResultCache(directory / "cache")
        return run_many(specs, jobs=2, cache=cache,
                        manifest=SweepManifest(directory / "manifest.json"),
                        resume=False, arenas="auto",
                        trace_dir=str(directory / "traces"),
                        checkpoint_every=2_000, dispatch="local",
                        workers=())

    (tmp_path / "plain").mkdir()
    plain = sweep(tmp_path / "plain")
    # Workers fork when the pool starts: start a fresh one under the shims.
    forkserver.recycle_pool()
    dumps = tmp_path / "ledgers"
    dumps.mkdir()
    (tmp_path / "traced").mkdir()
    ledger = Ledger()
    try:
        with install(ledger, dumps):
            traced = sweep(tmp_path / "traced")
    finally:
        forkserver.recycle_pool()
    assert ledger.merge_dumps(dumps) >= 1
    metrics = layer_metrics(ledger, traced.results, traced)
    assert [job_digest(r) for r in traced.results] == \
        [job_digest(r) for r in plain.results]
    assert metrics["run.checkpoints"] > 0
    assert metrics["trace.arena_jobs"] == 2
    assert metrics["run.record_job_s"] > 0
    assert metrics["run.attempts"] == 3
    # Every job's machine was seen by some process's ledger.
    assert ledger.get("system.init")[0] == 3


def test_digest_gate_counts_mismatches_as_failed_jobs(tmp_path,
                                                      monkeypatch):
    import run as driver
    good, bad = "a" * 64, "b" * 64
    table = tmp_path / "digests.json"
    table.write_text(json.dumps(
        {"2": {"oltp-single": {"seed": 0, "jobs": [good]}}}))
    monkeypatch.setattr(driver, "DIGESTS", table)

    def rep(digest, **extra):
        return {"digests": [digest], "failed": 0, "short": 0,
                "model_version": 2, **extra}

    problems = []
    assert driver.check([rep(good), rep(good)], "oltp-single", 0,
                        problems) == (0, "recorded digest")
    assert not problems
    failed, _ = driver.check([rep(bad)], "oltp-single", 0, problems)
    assert failed == 1 and problems
    # Other seeds and model versions: no recorded digest, but the
    # repetitions must still agree with each other and the warm rerun.
    problems = []
    failed, gate = driver.check([rep(bad)], "oltp-single", 1, problems)
    assert failed == 0 and gate.startswith("no recorded digest")
    assert driver.check([rep(bad), rep(good)], "oltp-single", 1,
                        problems)[0] == 1
    assert driver.check([rep(bad, model_version=3, warm_digests=[good],
                             warm_hits=1)], "oltp-single", 0,
                        problems)[0] == 1


def test_scaling_uses_the_probe_samples_of_each_interval():
    import run as driver
    probes = driver.Probes([0, 1])
    ref = driver.REF_CHUNK_S
    # CPU 0 ran at half the reference speed during set-up and at full
    # speed during the simulation; CPU 1 at a quarter throughout.
    probes.samples = {0: [(10.05, 2 * ref), (10.2, ref), (11.0, ref)],
                      1: [(10.05, 4 * ref), (10.2, 4 * ref)]}
    record = {"cpus": [0], "started": 10.0, "entry": 10.1, "done": 11.1,
              "setup_s": 0.1, "wall_s": 1.1}
    driver.scale(record, probes)
    assert record["raw_wall_s"] == 1.1
    assert record["setup_s"] == pytest.approx(0.05)
    assert record["sim_s"] == pytest.approx(1.0)
    assert record["wall_s"] == pytest.approx(1.05)
    # Unpinned (the sweep): the mean speed over every probed CPU.
    assert probes.speed(None, 10.0, 10.1) == pytest.approx(0.375)
    # An interval with no sample borrows the nearest within 0.1 s, and
    # fails beyond that rather than guessing.
    assert probes.speed([1], 10.21, 10.25) == pytest.approx(0.25)
    with pytest.raises(driver.BenchError):
        probes.speed([1], 12.0, 13.0)


def test_probe_reports_its_samples_and_stops_on_sigterm():
    import signal
    import subprocess

    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), "--cpu",
         str(min(os.sched_getaffinity(0)))],
        stdout=subprocess.PIPE, text=True)
    try:
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    samples = json.loads(out)
    assert len(samples) >= 5
    stamps = [at for at, _ in samples]
    assert stamps == sorted(stamps)
    assert all(0 < chunk < 1 for _, chunk in samples)
