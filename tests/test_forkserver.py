"""Tests for the fork-server pool and its one-job dispatch
(:mod:`repro.run.forkserver`) plus the profiling harness.

The job message and worker entry are exercised directly, pool
persistence across calls is checked directly, and the headline
guarantee -- a fork-server sweep under ``REPRO_FAULTS`` produces
byte-identical results to the serial generator path -- is asserted end
to end.
"""

import os

import pytest

import repro.run
from repro.params import default_system
from repro.run import DEFAULT_POLICY, JobSpec, RetryPolicy, WorkloadSpec, \
    run_many
from repro.run import forkserver
from repro.run.profile import format_report, profile_run

TINY = dict(instructions=1200, warmup=400)
FAST_POLICY = RetryPolicy(retries=4, backoff_base=0.001,
                          backoff_cap=0.01)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.setattr(repro.run, "_arenas", "auto")
    monkeypatch.setattr(repro.run, "_trace_dir", None)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_START_METHOD", raising=False)


def _spec(seed=0, kind="oltp", **sizes):
    sizes = {**TINY, **sizes}
    return JobSpec(default_system(), WorkloadSpec(kind), seed=seed,
                   **sizes)


def _message(job, attempt=1, **fields):
    """The attempt core's job message for ``spec`` (no arena, no
    cache)."""
    from repro.run.dispatch import DispatchContext
    from repro.run.executor import Attempts
    ctx = DispatchContext(outcomes=[None], policy=DEFAULT_POLICY)
    item = (0.0, 0, job, attempt, 0.0)
    _ticket, message = Attempts([(0, job)], ctx).start(item)
    return dict(message, **fields)


class TestBatchPayload:
    """The one-job message every transport ships, and the worker entry
    that executes it."""

    def test_payload_ships_faults_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.5,seed:7")
        message = _message(_spec())
        assert message["faults"] == "crash:0.5,seed:7"
        assert message["attempt"] == 1

    def test_run_entry_runs_a_job(self):
        spec_a, spec_b = _spec(seed=0), _spec(seed=1)
        out = [forkserver.run_entry(_message(spec))
               for spec in (spec_a, spec_b)]
        assert [entry["ok"] for entry in out] == [True, True]
        assert out[0]["result"] == spec_a.run().to_dict()
        assert out[1]["result"] == spec_b.run().to_dict()

    def test_run_entry_isolates_errors(self):
        good = _spec(seed=0)
        bad = good.to_dict()
        bad["workload"]["kind"] = "no-such-workload"
        out = forkserver.run_entry(_message(good, spec=bad))
        assert out["ok"] is False and out["error"]
        assert forkserver.run_entry(_message(good))["ok"] is True


class TestPoolLifecycle:
    def test_pool_persists_across_calls(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        try:
            assert forkserver.get_pool(2) is pool
        finally:
            forkserver.recycle_pool()

    def test_worker_count_change_recycles(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        try:
            other = forkserver.get_pool(3)
            assert other is not pool
        finally:
            forkserver.recycle_pool()

    def test_recycle_gives_fresh_pool(self):
        pool = forkserver.get_pool(2)
        if pool is None:
            pytest.skip("no usable multiprocessing start method")
        forkserver.recycle_pool()
        fresh = forkserver.get_pool(2)
        try:
            assert fresh is not pool
        finally:
            forkserver.recycle_pool()

    def test_start_method_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert forkserver.pick_method() == "spawn"

    def test_bogus_override_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.warns(RuntimeWarning, match="teleport"):
            assert forkserver.pick_method() in ("fork", "forkserver",
                                                "spawn")


class TestPoolVsSerial:
    def test_pool_sweep_matches_serial(self, tmp_path):
        specs = [_spec(seed=s) for s in (0, 1, 2)]
        serial = run_many(specs, jobs=1, arenas="off")
        pooled = run_many(specs, jobs=2, arenas="off")
        assert [r.to_dict() for r in pooled.results] == \
            [r.to_dict() for r in serial.results]

    def test_pool_with_faults_matches_serial(self, monkeypatch,
                                             tmp_path):
        """Fault-injected fork-server run is byte-identical to serial.

        The faults string rides inside each job message, so persistent
        workers honour the value set *after* the pool was first forked.
        """
        forkserver.recycle_pool()
        specs = [_spec(seed=s) for s in range(4)]
        baseline = run_many(specs, jobs=1, arenas="off")
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.3,seed:11")
        faulty_serial = run_many(specs, jobs=1, policy=FAST_POLICY,
                                 arenas="off")
        faulty_pool = run_many(specs, jobs=2, policy=FAST_POLICY,
                               arenas="off")
        assert [r.to_dict() for r in faulty_serial.results] == \
            [r.to_dict() for r in baseline.results]
        assert [r.to_dict() for r in faulty_pool.results] == \
            [r.to_dict() for r in baseline.results]

    def test_pool_with_arenas_matches_serial(self, tmp_path):
        import dataclasses
        base = default_system()
        specs = []
        for window in (16, 64):
            params = base.replace(processor=dataclasses.replace(
                base.processor, window_size=window))
            specs.append(JobSpec(params, WorkloadSpec("oltp"), seed=0,
                                 **TINY))
        serial = run_many(specs, jobs=1, arenas="off")
        pooled = run_many(specs, jobs=2, arenas="auto",
                          trace_dir=str(tmp_path))
        assert [r.to_dict() for r in pooled.results] == \
            [r.to_dict() for r in serial.results]


class TestProfileHarness:
    def test_profile_run_smoke(self):
        report = profile_run("oltp", instructions=800, warmup=400,
                             seed=0, top=5)
        assert report["cycles"] > 0
        assert report["instr_per_s"] > 0
        assert report["subsystems"], "no subsystem attribution"
        shares = sum(s["share"] for s in report["subsystems"])
        assert 0.99 <= shares <= 1.01
        assert len(report["top_functions"]) <= 5
        text = format_report(report)
        assert "instr/s" in text

    def test_profile_arena_comparison_is_identical(self, tmp_path):
        report = profile_run("oltp", instructions=800, warmup=400,
                             seed=0, top=3, compare_arena=True,
                             trace_dir=str(tmp_path))
        comparison = report["arena"]
        assert comparison["materialized"] is True
        assert comparison["identical"] is True
        assert comparison["arena_bytes"] > 0


def _window_sweep(windows):
    """One arena group: the same OLTP stream under several windows."""
    import dataclasses
    base = default_system()
    return [JobSpec(base.replace(processor=dataclasses.replace(
                base.processor, window_size=window)),
                    WorkloadSpec("oltp"), seed=0, **TINY)
            for window in windows]


class TestPoolRecording:
    """The recording job of an arena group is an ordinary pool job:
    the job timeout bounds it and its arena write is best-effort."""

    def test_hung_recorder_is_abandoned_and_retried(self, monkeypatch,
                                                    tmp_path):
        from repro.run import executor
        from repro.run.faults import FaultPlan
        if forkserver.get_pool(2) is None:
            pytest.skip("no usable multiprocessing start method")
        specs = _window_sweep((16, 32, 64))
        fingerprints = [spec.fingerprint() for spec in specs]

        def hangs(plan, index, attempt):
            return plan.roll("hang", fingerprints[index], attempt)

        # A plan under which exactly the first job -- the one the pool
        # submits first, so the recorder -- hangs, on its first attempt.
        text = next(
            f"hang:0.5,hang_s:4,seed:{seed}" for seed in range(200)
            if hangs(FaultPlan.parse(f"hang:0.5,seed:{seed}"), 0, 0)
            and not any(hangs(FaultPlan.parse(f"hang:0.5,seed:{seed}"),
                              index, attempt)
                        for index in range(3) for attempt in range(3)
                        if (index, attempt) != (0, 0)))
        baseline = run_many(specs, jobs=1, arenas="off")
        calls = []
        real = executor._run_one_serial

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(executor, "_run_one_serial", counting)
        monkeypatch.setenv("REPRO_FAULTS", text)
        policy = RetryPolicy(retries=2, job_timeout=2.0,
                             backoff_base=0.001, backoff_cap=0.01)
        report = run_many(specs, jobs=2, policy=policy, arenas="auto",
                          trace_dir=str(tmp_path))
        assert report.dispatch == "pool" and calls == []
        assert report.outcomes[0].attempts == 2
        assert [o.attempts for o in report.outcomes[1:]] == [1, 1]
        assert [r.to_dict() for r in report.results] == \
            [r.to_dict() for r in baseline.results]
        assert any(p.suffix == ".arena" for p in tmp_path.iterdir())

    def test_enospc_on_worker_arena_write(self, monkeypatch, tmp_path):
        specs = _window_sweep((16, 32, 64, 128))
        baseline = run_many(specs, jobs=1, arenas="off")
        # The workers start fault-free; the plan set afterwards reaches
        # their arena writes because it travels in each job message.
        if forkserver.get_pool(2) is None:
            pytest.skip("no usable multiprocessing start method")
        monkeypatch.setenv("REPRO_FAULTS", "enospc:1.0")
        faulted_dir, clean_dir = tmp_path / "faulted", tmp_path / "clean"
        report = run_many(specs, jobs=2, arenas="auto",
                          trace_dir=str(faulted_dir))
        assert report.dispatch == "pool" and not report.failures
        assert [o.attempts for o in report.outcomes] == [1] * 4
        assert report.arena_jobs == 0 and report.trace_gen_s > 0.0
        assert not any(p.suffix == ".arena"
                       for p in faulted_dir.glob("*"))
        assert [r.to_dict() for r in report.results] == \
            [r.to_dict() for r in baseline.results]
        # Cleared again, still on the same workers: nothing is injected.
        monkeypatch.delenv("REPRO_FAULTS")
        report = run_many(specs, jobs=2, arenas="auto",
                          trace_dir=str(clean_dir))
        assert report.dispatch == "pool" and not report.failures
        assert any(p.suffix == ".arena" for p in clean_dir.iterdir())
        assert [r.to_dict() for r in report.results] == \
            [r.to_dict() for r in baseline.results]
