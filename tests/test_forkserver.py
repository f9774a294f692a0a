"""Tests for the fork-server pool and batched dispatch
(:mod:`repro.run.forkserver`) plus the profiling harness.

The delta codec is exercised on real JobSpec dicts, pool persistence
across calls is checked directly, and the headline guarantee -- a
fork-server sweep under ``REPRO_FAULTS`` produces byte-identical
results to the serial generator path -- is asserted end to end.
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


class TestDeltaCodec:
    def test_flatten_unflatten_roundtrip(self):
        data = _spec().to_dict()
        flat = forkserver.flatten(data)
        assert forkserver.unflatten(flat) == data

    def test_delta_between_real_jobspecs(self):
        import dataclasses
        base = default_system()
        small = JobSpec(base, WorkloadSpec("oltp"), seed=0, **TINY)
        wide = JobSpec(
            base.replace(processor=dataclasses.replace(
                base.processor, window_size=128)),
            WorkloadSpec("oltp"), seed=3, **TINY)
        base_flat = forkserver.flatten(small.to_dict())
        delta = forkserver.encode_delta(base_flat, wide.to_dict())
        assert forkserver.apply_delta(base_flat, delta) == \
            wide.to_dict()
        # The delta only carries what actually differs.
        changed = {path for path, _ in delta["set"]}
        assert any("window_size" in path for path in changed)
        assert len(changed) < len(base_flat) / 2

    def test_identical_jobs_produce_empty_delta(self):
        base_flat = forkserver.flatten(_spec().to_dict())
        delta = forkserver.encode_delta(base_flat, _spec().to_dict())
        assert delta["set"] == [] and delta["drop"] == []

    def test_dropped_keys_round_trip(self):
        base = {"a": 1, "nested": {"x": 1, "y": 2}}
        other = {"a": 1, "nested": {"x": 1}}
        base_flat = forkserver.flatten(base)
        delta = forkserver.encode_delta(base_flat, other)
        assert forkserver.apply_delta(base_flat, delta) == other


class TestBatchPayload:
    def test_payload_ships_faults_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.5,seed:7")
        spec = _spec()
        payload = forkserver.make_batch_payload(
            spec.to_dict(), [(spec.to_dict(), 1, None, spec.ephemeral())])
        assert payload["faults"] == "crash:0.5,seed:7"

    def test_execute_batch_runs_jobs(self):
        spec_a, spec_b = _spec(seed=0), _spec(seed=1)
        payload = forkserver.make_batch_payload(
            spec_a.to_dict(),
            [(spec_a.to_dict(), 1, None, spec_a.ephemeral()),
             (spec_b.to_dict(), 1, None, spec_b.ephemeral())])
        out = forkserver._execute_batch(payload)
        assert [entry["ok"] for entry in out] == [True, True]
        assert out[0]["result"] == spec_a.run().to_dict()
        assert out[1]["result"] == spec_b.run().to_dict()

    def test_execute_batch_isolates_per_job_errors(self):
        good = _spec(seed=0)
        bad = good.to_dict()
        bad["workload"]["kind"] = "no-such-workload"
        payload = forkserver.make_batch_payload(
            good.to_dict(), [(bad, 1, None, good.ephemeral()),
                            (good.to_dict(), 1, None, good.ephemeral())])
        out = forkserver._execute_batch(payload)
        assert out[0]["ok"] is False and out[0]["error"]
        assert out[1]["ok"] is True


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

        The faults string rides inside the batch payload, so persistent
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
        # Workers read disk faults from the environment they forked
        # with: start them under the plan, and retire them afterwards.
        forkserver.recycle_pool()
        monkeypatch.setenv("REPRO_FAULTS", "enospc:1.0")
        try:
            if forkserver.get_pool(2) is None:
                pytest.skip("no usable multiprocessing start method")
            report = run_many(specs, jobs=2, arenas="auto",
                              trace_dir=str(tmp_path))
        finally:
            forkserver.recycle_pool()
        assert report.dispatch == "pool" and not report.failures
        assert [o.attempts for o in report.outcomes] == [1] * 4
        assert report.arena_jobs == 0 and report.trace_gen_s > 0.0
        assert not any(p.suffix == ".arena" for p in tmp_path.iterdir())
        assert [r.to_dict() for r in report.results] == \
            [r.to_dict() for r in baseline.results]
