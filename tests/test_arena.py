"""Tests for materialized trace arenas (:mod:`repro.trace.arena`).

Covers lossless pack/replay round-trips against live generator streams,
simulation-result byte-identity between the arena and generator paths
per workload and seed, stream-exhaustion fallback, corrupt-file
quarantine, key stability (and its independence from MODEL_VERSION),
and the executor integration: grouping, materialize-once semantics,
recording on a pool worker, and ``arena_jobs`` / ``trace_gen_s``
accounting.
"""

import json
import warnings

import pytest

import repro.run
from repro.params import default_system
from repro.run import DEFAULT_POLICY, JobSpec, ResultCache, WorkloadSpec, \
    run_many
from repro.trace import arena
from repro.trace.arena import (
    ArenaExhausted,
    ArenaMismatch,
    ArenaRecorder,
    TRACE_VERSION,
    arena_key,
    load_cached,
    write_arena,
)

TINY = dict(instructions=1500, warmup=500)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    """Isolate each test from process-wide runner state."""
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.setattr(repro.run, "_arenas", "auto")
    monkeypatch.setattr(repro.run, "_trace_dir", None)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)


def _spec(kind="oltp", seed=0, **sizes):
    sizes = {**TINY, **sizes}
    return JobSpec(default_system(), WorkloadSpec(kind), seed=seed,
                   **sizes)


def _write_recorded(path, kind="oltp", seed=0, n_instructions=300):
    """Record ``n_instructions`` per process from live generators and
    persist them; returns (streams, loaded arena)."""
    workload = WorkloadSpec(kind).build()
    generators = [iter(g) for g in workload.generators(4, seed=seed)]
    streams = [[next(g) for _ in range(n_instructions)]
               for g in generators]
    meta = {
        "key": "test-key",
        "workload": WorkloadSpec(kind).to_dict(),
        "workload_name": workload.name,
        "n_nodes": 4,
        "processes_per_cpu": workload.processes_per_cpu,
        "seed": seed,
        "total_budget": 4 * n_instructions,
    }
    assert write_arena(path, streams, meta)
    handle = load_cached(path)
    assert handle is not None
    return streams, handle


class TestRoundTrip:
    @pytest.mark.parametrize("kind,seed", [("oltp", 0), ("dss", 1),
                                           ("tpcc", 2)])
    def test_replay_is_lossless(self, tmp_path, kind, seed):
        path = tmp_path / "t.arena"
        streams, handle = _write_recorded(path, kind, seed)
        assert handle.counts == [len(s) for s in streams]
        for pid, stream in enumerate(streams):
            replay = handle.replay(pid)
            for original in stream:
                got = next(replay)
                assert (got.op, got.pc, got.addr, got.latency) == \
                    (original.op, original.pc, original.addr,
                     original.latency)
                assert tuple(got.deps) == tuple(original.deps)
                assert (got.taken, got.target, got.branch_kind) == \
                    (original.taken, original.target,
                     original.branch_kind)
        arena.forget(path)

    def test_exhausted_stream_raises(self, tmp_path):
        path = tmp_path / "t.arena"
        streams, handle = _write_recorded(path, n_instructions=50)
        replay = handle.replay(0)
        for _ in range(50):
            next(replay)
        with pytest.raises(ArenaExhausted):
            next(replay)
        arena.forget(path)

    def test_generators_validate_shape(self, tmp_path):
        path = tmp_path / "t.arena"
        _streams, handle = _write_recorded(path, seed=3)
        assert len(handle.generators(4, seed=3)) == len(handle.counts)
        with pytest.raises(ArenaMismatch):
            handle.generators(8, seed=3)
        with pytest.raises(ArenaMismatch):
            handle.generators(4, seed=4)
        arena.forget(path)


class TestResultIdentity:
    @pytest.mark.parametrize("kind,seed", [("oltp", 0), ("dss", 1),
                                           ("tpcc", 2)])
    def test_arena_path_matches_generator_path(self, tmp_path, kind,
                                               seed):
        spec = _spec(kind, seed)
        baseline = spec.run().to_dict()
        # First run materializes (recording tee), second run replays;
        # both must match the plain generator path bit-for-bit.
        recorded = run_many([spec], jobs=1, arenas="on",
                            trace_dir=str(tmp_path))
        replayed = run_many([spec], jobs=1, arenas="on",
                            trace_dir=str(tmp_path))
        assert recorded.results[0].to_dict() == baseline
        assert replayed.results[0].to_dict() == baseline
        assert replayed.arena_jobs == 1
        assert replayed.trace_gen_s == 0.0

    def test_exhaustion_falls_back_to_generators(self, tmp_path):
        small = _spec(instructions=800, warmup=200)
        big = _spec(instructions=4000, warmup=1000)
        # Arena sized for the small job...
        recorder = ArenaRecorder(
            small.workload.build(), small.params.n_nodes, small.seed,
            small.workload.to_dict(), small.instructions + small.warmup)
        small.run(workload=recorder.workload())
        path = tmp_path / "small.arena"
        assert recorder.write(path)
        handle = load_cached(path)
        # ...fed to the big job: replay runs dry mid-simulation and the
        # job transparently re-runs on the generator path.
        assert big.run(workload=handle).to_dict() == \
            big.run().to_dict()
        arena.forget(path)


class TestQuarantine:
    def test_corrupt_body_is_quarantined(self, tmp_path):
        path = tmp_path / "t.arena"
        _write_recorded(path)
        arena.forget(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert load_cached(path) is None
        assert not path.exists()
        assert (tmp_path / "quarantine" / "t.arena").exists()

    def test_truncated_header_is_quarantined(self, tmp_path):
        path = tmp_path / "t.arena"
        _write_recorded(path)
        arena.forget(path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert load_cached(path) is None
        assert (tmp_path / "quarantine" / "t.arena").exists()

    def test_worker_side_load_does_not_quarantine(self, tmp_path):
        path = tmp_path / "t.arena"
        _write_recorded(path)
        arena.forget(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_cached(path, quarantine=False) is None
        assert path.exists()

    def test_missing_file_is_none(self, tmp_path):
        assert load_cached(tmp_path / "absent.arena") is None

    def test_executor_regenerates_after_quarantine(self, tmp_path):
        specs = [_spec(seed=5), _spec(seed=5,
                                      instructions=TINY["instructions"])]
        # Two identical-key jobs force materialization in auto mode.
        first = run_many(specs, jobs=1, arenas="auto",
                         trace_dir=str(tmp_path))
        files = [p for p in tmp_path.iterdir() if p.suffix == ".arena"]
        assert len(files) == 1
        arena.forget(files[0])
        files[0].write_bytes(b"RPARENA1garbage")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = run_many(specs, jobs=1, arenas="auto",
                              trace_dir=str(tmp_path))
        assert [r.to_dict() for r in second.results] == \
            [r.to_dict() for r in first.results]
        assert second.trace_gen_s > 0.0   # re-materialized
        for leftover in (tmp_path / "quarantine").iterdir():
            assert leftover.name == files[0].name


class TestKeys:
    def test_key_is_stable_and_sensitive(self):
        workload = WorkloadSpec("oltp").to_dict()
        key = arena_key(workload, 4, 0, 2000)
        assert key == arena_key(workload, 4, 0, 2000)
        assert key != arena_key(workload, 8, 0, 2000)
        assert key != arena_key(workload, 4, 1, 2000)
        assert key != arena_key(workload, 4, 0, 2001)
        assert key != arena_key(WorkloadSpec("dss").to_dict(), 4, 0,
                                2000)

    def test_key_independent_of_model_version(self, monkeypatch):
        """Timing-model bumps must not invalidate materialized traces."""
        import repro.run.jobs as jobs_module
        workload = WorkloadSpec("oltp").to_dict()
        before = arena_key(workload, 4, 0, 2000)
        monkeypatch.setattr(jobs_module, "MODEL_VERSION", 9999)
        assert arena_key(workload, 4, 0, 2000) == before

    def test_key_folds_in_trace_version(self):
        workload = WorkloadSpec("oltp").to_dict()
        payload = {
            "trace_version": TRACE_VERSION,
            "workload": workload,
            "n_nodes": 4,
            "seed": 0,
            "total_budget": 2000,
        }
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
        import hashlib
        assert arena_key(workload, 4, 0, 2000) == \
            hashlib.sha256(text.encode()).hexdigest()


class TestExecutorIntegration:
    def test_sweep_materializes_once_and_reuses(self, tmp_path):
        import dataclasses
        base = default_system()
        specs = []
        for window in (16, 64):
            params = base.replace(processor=dataclasses.replace(
                base.processor, window_size=window))
            specs.append(JobSpec(params, WorkloadSpec("oltp"), seed=0,
                                 **TINY))
        cold = run_many(specs, jobs=1, arenas="auto",
                        trace_dir=str(tmp_path))
        assert cold.trace_gen_s > 0.0
        assert cold.arena_jobs == 1   # materializer + one consumer
        warm = run_many(specs, jobs=1, arenas="auto",
                        trace_dir=str(tmp_path))
        assert warm.trace_gen_s == 0.0
        assert warm.arena_jobs == 2   # both replay now
        assert [r.to_dict() for r in warm.results] == \
            [r.to_dict() for r in cold.results]
        files = [p for p in tmp_path.iterdir() if p.suffix == ".arena"]
        assert len(files) == 1

    def test_auto_skips_singleton_groups(self, tmp_path):
        report = run_many([_spec(seed=9)], jobs=1, arenas="auto",
                          trace_dir=str(tmp_path))
        assert report.arena_jobs == 0
        assert report.trace_gen_s == 0.0
        assert not any(tmp_path.iterdir())

    def test_off_disables_arenas(self, tmp_path):
        specs = [_spec(seed=0), _spec(seed=0)]
        report = run_many(specs, jobs=1, arenas="off",
                          trace_dir=str(tmp_path))
        assert report.arena_jobs == 0
        assert not any(tmp_path.iterdir())

    def test_trace_dir_defaults_beside_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [_spec(seed=0), _spec(seed=0)]
        report = run_many(specs, jobs=1, cache=cache, arenas="auto")
        assert report.arena_jobs >= 0
        traces = tmp_path / "cache" / "traces"
        assert traces.is_dir() and any(traces.iterdir())

    def test_no_trace_dir_no_cache_disables_arenas(self):
        specs = [_spec(seed=0), _spec(seed=0)]
        report = run_many(specs, jobs=1, arenas="auto")
        assert report.arena_jobs == 0 and report.trace_gen_s == 0.0

    def test_arena_reference_not_in_fingerprint(self, tmp_path):
        spec = _spec(seed=0)
        before = spec.fingerprint()
        run_many([spec, _spec(seed=0)], jobs=1, arenas="auto",
                 trace_dir=str(tmp_path))
        assert spec.fingerprint() == before


def _window_sweep(windows, **sizes):
    """One arena group: the same OLTP stream under several windows."""
    import dataclasses
    base = default_system()
    return [JobSpec(base.replace(processor=dataclasses.replace(
                base.processor, window_size=window)),
                    WorkloadSpec("oltp"), seed=0, **{**TINY, **sizes})
            for window in windows]


class TestArenaAccounting:
    """``arena_jobs`` counts jobs that actually replayed; a job handed
    an arena it could not use is a generator-path job."""

    def test_truncated_arena_counts_zero(self, tmp_path):
        from repro.run import executor, forkserver
        spec = _spec(seed=2)
        recorder = ArenaRecorder(
            spec.workload.build(), spec.params.n_nodes, spec.seed,
            spec.workload.to_dict(), spec.instructions + spec.warmup)
        spec.run(workload=recorder.workload())
        path = tmp_path / "t.arena"
        assert recorder.write(path)
        message = {"spec": spec.to_dict(), "ephemeral": spec.ephemeral(),
                   "attempt": 0, "arena_role": arena.REPLAY,
                   "arena": str(path)}
        intact = forkserver.run_entry(message)
        assert intact["ok"] and intact["replayed"]
        arena.forget(path)
        path.write_bytes(path.read_bytes()[:-8])
        outcome = forkserver.run_entry(message)
        assert outcome["ok"] and outcome["replayed"] is False
        assert outcome["result"] == intact["result"]
        report = repro.run.RunReport(outcomes=[executor._finish(
            spec, spec.run(), 0.0, 1, None, None, outcome)])
        assert report.arena_jobs == 0 and report.trace_gen_s == 0.0

    def test_exhausted_arena_counts_zero(self, tmp_path):
        small, big = _spec(seed=4, instructions=300, warmup=100), \
            _spec(seed=4, instructions=4000, warmup=1000)
        recorder = ArenaRecorder(
            small.workload.build(), small.params.n_nodes, small.seed,
            small.workload.to_dict(), small.instructions + small.warmup)
        small.run(workload=recorder.workload())
        # The small job's streams, filed under the big group's key: the
        # plan hands them out for replay, and replay runs dry mid-run.
        key = arena_key(big.workload.to_dict(), big.params.n_nodes,
                        big.seed, big.instructions + big.warmup)
        assert recorder.write(tmp_path / f"{key}.arena")
        report = run_many([big, big], jobs=1, arenas="auto",
                          trace_dir=str(tmp_path))
        assert report.arena_jobs == 0
        assert [r.to_dict() for r in report.results] == \
            [big.run().to_dict()] * 2
        arena.forget(tmp_path / f"{key}.arena")


class TestPoolRecording:
    """A cold group records on a pool worker, beside its siblings."""

    def test_cold_pool_sweep_records_on_a_worker(self, tmp_path,
                                                 monkeypatch):
        from repro.run import executor, forkserver
        if forkserver.get_pool(2) is None:
            pytest.skip("no usable multiprocessing start method")
        specs = _window_sweep((16, 32, 64, 128))
        baseline = run_many(specs, jobs=1, arenas="off")
        serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
        run_many(specs, jobs=1, arenas="auto", trace_dir=str(serial_dir))
        calls = []
        real = executor._run_one_serial

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(executor, "_run_one_serial", counting)
        pooled = run_many(specs, jobs=2, arenas="auto",
                          trace_dir=str(pool_dir))
        assert pooled.dispatch == "pool" and calls == []
        assert [r.to_dict() for r in pooled.results] == \
            [r.to_dict() for r in baseline.results]
        assert pooled.arena_jobs >= 1 and pooled.trace_gen_s > 0.0
        [recorded] = [p for p in pool_dir.iterdir() if p.suffix == ".arena"]
        # The worker wrote the very bytes the serial recorder writes.
        assert recorded.read_bytes() == \
            (serial_dir / recorded.name).read_bytes()
