"""Tests for the multi-host execution fabric and the retention GC.

Covers the framed-JSON wire protocol (including transport fault
injection), worker-spec parsing, the deterministic lease table under a
fake clock, the dispatcher chain resolution behind ``run_many``, live
loopback sweeps (clean, faulted, and with every worker killed), mixed
local-pool / fabric / serial resume of one manifest, worker-health
persistence in the manifest, the ``repro gc`` retention planner, and
lint rule R008 (no unbounded socket blocking inside ``run/fabric/``).
"""

import json
import os
import socket

import pytest

import repro.run
from repro.params import default_system
from repro.run import (
    DEFAULT_POLICY,
    MANIFEST_NAME,
    JobSpec,
    ResultCache,
    RetryPolicy,
    SweepManifest,
    WorkloadSpec,
    plan_from_env,
    run_many,
)
from repro.run.dispatch import (
    PoolDispatcher,
    SerialDispatcher,
    resolve_chain,
)
from repro.run.fabric import (
    Channel,
    ConnectionClosed,
    FabricConfig,
    FabricDispatcher,
    LeaseTable,
    parse_address,
    parse_worker_spec,
)
from repro.run import gc as run_gc
from repro.run.faults import FaultPlan

TINY = dict(instructions=800, warmup=800)

#: Tight fabric timeouts so failover paths run in test time rather
#: than the production defaults (which assume real networks).
FAST_FABRIC = dict(ack_timeout=1.0, lease_timeout=1.5,
                   connect_timeout=20.0)


def tiny_spec(seed=0, kind="oltp", **params_changes):
    params = default_system(**params_changes)
    return JobSpec(params, WorkloadSpec(kind), seed=seed, **TINY)


def dicts(report):
    return [r.to_dict() for r in report.results]


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    """Isolate each test from process-wide runner state and fault env."""
    monkeypatch.setattr(repro.run, "_jobs", 1)
    monkeypatch.setattr(repro.run, "_cache", None)
    monkeypatch.setattr(repro.run, "_manifest", None)
    monkeypatch.setattr(repro.run, "_policy", DEFAULT_POLICY)
    monkeypatch.setattr(repro.run, "_resume", False)
    monkeypatch.setattr(repro.run, "_checkpoint_every",
                        repro.run.DEFAULT_CHECKPOINT_EVERY)
    monkeypatch.setattr(repro.run, "_dispatch", "local")
    monkeypatch.setattr(repro.run, "_workers", ())
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)


def channel_pair(plan=None):
    """Two connected channels over a socketpair; ``plan`` arms the
    *sender* side only so drop/dup accounting is unambiguous."""
    left, right = socket.socketpair()
    return (Channel(left, name="tx", plan=plan),
            Channel(right, name="rx"))


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_round_trip_preserves_payload(self):
        tx, rx = channel_pair()
        try:
            for n in range(3):
                tx.send_json({"type": "job", "n": n, "blob": "x" * 500})
            got = [rx.recv_json(timeout=2.0) for _ in range(3)]
            assert [m["n"] for m in got] == [0, 1, 2]
            assert got[2]["blob"] == "x" * 500
        finally:
            tx.close(), rx.close()

    def test_recv_timeout_returns_none_and_keeps_buffer(self):
        tx, rx = channel_pair()
        try:
            assert rx.recv_json(timeout=0.05) is None
            tx.send_json({"type": "late"})
            assert rx.recv_json(timeout=2.0)["type"] == "late"
        finally:
            tx.close(), rx.close()

    def test_peer_close_raises_connection_closed(self):
        tx, rx = channel_pair()
        tx.close()
        with pytest.raises(ConnectionClosed):
            rx.recv_json(timeout=1.0)
        rx.close()

    def test_netdrop_loses_frames_but_spares_handshake(self):
        plan = plan_from_env("netdrop:1.0,seed:0")
        tx, rx = channel_pair(plan=plan)
        try:
            tx.send_json({"type": "hello"})    # handshake: exempt
            tx.send_json({"type": "result"})   # dropped
            assert rx.recv_json(timeout=2.0)["type"] == "hello"
            assert rx.recv_json(timeout=0.2) is None
        finally:
            tx.close(), rx.close()

    def test_netdup_duplicates_frames(self):
        plan = plan_from_env("netdup:1.0,seed:0")
        tx, rx = channel_pair(plan=plan)
        try:
            tx.send_json({"type": "result", "job_id": 7})
            first = rx.recv_json(timeout=2.0)
            second = rx.recv_json(timeout=2.0)
            assert first == second and first["job_id"] == 7
        finally:
            tx.close(), rx.close()

    def test_parse_address(self):
        assert parse_address("db1:9000") == ("db1", 9000)
        assert parse_address("[::1]:9000") == ("::1", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        for bad in ("db1", "db1:", "db1:x", ""):
            with pytest.raises(ValueError):
                parse_address(bad)


class TestWorkerSpec:
    def test_parse_forms(self):
        assert parse_worker_spec("spawn:3") == ("spawn", 3)
        assert parse_worker_spec("spawn") == ("spawn", 1)
        assert parse_worker_spec("wait:2") == ("wait", 2)
        assert parse_worker_spec("ssh:db-host-1") == ("ssh", "db-host-1")
        assert parse_worker_spec("db-host-1") == ("ssh", "db-host-1")

    def test_parse_rejects_garbage(self):
        for bad in ("spawn:0", "spawn:-1", "ssh:", ""):
            with pytest.raises(ValueError):
                parse_worker_spec(bad)


# ---------------------------------------------------------------------------
# Lease table (fake clock -- fully deterministic)
# ---------------------------------------------------------------------------

class TestLeaseTable:
    def table(self, job_timeout=None):
        return LeaseTable(lease_timeout=3.0, ack_timeout=5.0,
                          job_timeout=job_timeout)

    def test_grant_ack_release_lifecycle(self):
        table = self.table()
        table.join("w1", now=0.0)
        assert table.idle_workers() == ["w1"]
        lease = table.grant("w1", job_id=1, index=0, fingerprint="f" * 64,
                            attempt=1, dispatch_seq=0, now=0.0)
        assert table.idle_workers() == []
        assert not lease.acknowledged
        assert table.acknowledge("w1", job_id=1, now=0.5)
        assert lease.acknowledged
        assert not table.acknowledge("w1", job_id=99, now=0.6)  # stale
        released = table.release("w1", job_id=1)
        assert released is lease and table.idle_workers() == ["w1"]

    def test_unacked_grant_expires_as_ack_timeout(self):
        table = self.table()
        table.join("w1", now=0.0)
        table.grant("w1", 1, 0, "f" * 64, 1, 0, now=0.0)
        table.heartbeat("w1", now=5.2)   # alive, just never acked
        assert table.expired(now=4.9) == []
        [(lease, reason)] = table.expired(now=5.2)
        assert reason == "ack-timeout" and lease.job_id == 1

    def test_stale_heartbeat_expires_as_worker_lost(self):
        table = self.table(job_timeout=0.1)
        table.join("w1", now=0.0)
        table.grant("w1", 1, 0, "f" * 64, 1, 0, now=0.0)
        table.acknowledge("w1", 1, now=0.1)
        # Heartbeat stale AND the acked job overran its budget AND the
        # grant is past the ack window: worker-lost must win so the
        # requeue stays innocent.
        [(_, reason)] = table.expired(now=10.0)
        assert reason == "worker-lost"
        assert table.lost_workers(now=10.0) == ["w1"]
        orphan = table.drop("w1")
        assert orphan is not None and orphan.job_id == 1
        assert table.workers == {}

    def test_acked_job_overrunning_budget_expires_as_job_timeout(self):
        table = self.table(job_timeout=2.0)
        table.join("w1", now=0.0)
        table.grant("w1", 1, 0, "f" * 64, 1, 0, now=0.0)
        table.acknowledge("w1", 1, now=0.5)
        table.heartbeat("w1", now=3.0)   # still alive, still grinding
        [(_, reason)] = table.expired(now=3.0)
        assert reason == "job-timeout"

    def test_heartbeats_keep_a_busy_worker_leased(self):
        table = self.table()
        table.join("w1", now=0.0)
        table.grant("w1", 1, 0, "f" * 64, 1, 0, now=0.0)
        table.acknowledge("w1", 1, now=0.1)
        for tick in range(1, 40):
            table.heartbeat("w1", now=tick * 0.25)
        assert table.expired(now=10.0) == []
        assert table.lease_for_job(1).worker == "w1"


# ---------------------------------------------------------------------------
# Dispatcher chain resolution
# ---------------------------------------------------------------------------

class TestDispatchChain:
    def names(self, chain):
        return [strategy.name for strategy in chain]

    def test_local_is_pool_then_serial_when_worth_it(self):
        assert self.names(resolve_chain("local", jobs=4, n_pending=5)) \
            == ["pool", "serial"]
        assert self.names(resolve_chain(None, jobs=1, n_pending=5)) \
            == ["serial"]
        assert self.names(resolve_chain("local", jobs=4, n_pending=1)) \
            == ["serial"]

    def test_fabric_chain_ends_serial(self):
        chain = resolve_chain("fabric", jobs=4, n_pending=5,
                              workers=("spawn:2",))
        assert self.names(chain) == ["fabric", "pool", "serial"]
        assert self.names(resolve_chain("fabric", jobs=1, n_pending=5)) \
            == ["fabric", "serial"]

    def test_instance_and_list_forms(self):
        instance = PoolDispatcher()
        assert self.names(resolve_chain(instance, 1, 1)) \
            == ["pool", "serial"]
        only = [SerialDispatcher()]
        assert resolve_chain(only, 8, 8) == only
        with pytest.raises(ValueError):
            resolve_chain("teleport", 1, 1)


# ---------------------------------------------------------------------------
# Live loopback fabric sweeps
# ---------------------------------------------------------------------------

class TestFabricSweeps:
    def fabric(self, workers, **overrides):
        knobs = dict(FAST_FABRIC)
        knobs.update(overrides)
        return FabricDispatcher(FabricConfig(workers=workers, **knobs))

    def test_loopback_sweep_is_byte_identical_to_serial(self, tmp_path):
        specs = [tiny_spec(seed=s) for s in range(6)]
        baseline = run_many(specs, jobs=1, cache=None, arenas="off")
        report = run_many(specs, jobs=2, cache=None, arenas="off",
                          dispatch=self.fabric(("spawn:2",)))
        assert not report.failures
        assert report.dispatch == "fabric"
        assert not report.fell_back_to_serial
        assert dicts(report) == dicts(baseline)

    def test_faulted_fabric_sweep_is_byte_identical(self, tmp_path,
                                                    monkeypatch):
        """Acceptance: 20 jobs with workerdie+netdrop+hang injected at
        the transport complete byte-identical to a fault-free serial
        baseline (degrading locally if the faults eat every worker)."""
        specs = [tiny_spec(seed=s) for s in range(20)]
        baseline = run_many(specs, jobs=1, cache=None, arenas="off")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "workerdie:0.08,netdrop:0.05,hang:0.05,hang_s:0.2,seed:11")
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(cache.path / MANIFEST_NAME)
        report = run_many(specs, jobs=2, cache=cache, manifest=manifest,
                          arenas="off",
                          dispatch=self.fabric(("spawn:3",)))
        assert not report.failures
        assert dicts(report) == dicts(baseline)
        assert manifest.counts() == {"done": 20}
        assert manifest.workers, "no worker health was journalled"

    def test_killing_every_worker_degrades_without_losing_work(
            self, tmp_path, monkeypatch):
        """workerdie:1.0 murders each worker at its first dispatch; the
        fabric must hand the remainder to local execution and the sweep
        still completes byte-identical with zero failed jobs."""
        specs = [tiny_spec(seed=s) for s in range(5)]
        baseline = run_many(specs, jobs=1, cache=None, arenas="off")
        monkeypatch.setenv("REPRO_FAULTS", "workerdie:1.0,seed:0")
        cache = ResultCache(tmp_path / "cache")
        manifest = SweepManifest(cache.path / MANIFEST_NAME)
        report = run_many(specs, jobs=1, cache=cache, manifest=manifest,
                          arenas="off",
                          dispatch=self.fabric(("spawn:2",)))
        assert not report.failures
        assert report.fell_back_to_serial
        assert report.dispatch == "serial"
        assert dicts(report) == dicts(baseline)
        assert manifest.counts() == {"done": 5}

    def test_fabric_without_workers_declines_to_local(self):
        specs = [tiny_spec(seed=s) for s in range(2)]
        report = run_many(specs, jobs=1, cache=None, arenas="off",
                          dispatch="fabric", workers=())
        assert not report.failures
        assert report.dispatch == "serial"

    def test_mixed_dispatch_resume_one_outcome_per_job(self, tmp_path):
        """Satellite: a sweep started on the local pool, resumed through
        the fabric, and finished serially lands exactly one completed
        outcome per job with no duplicate attempts."""
        specs = [tiny_spec(seed=s) for s in range(6)]
        reference = run_many(specs, jobs=1, cache=None, arenas="off")
        cache = ResultCache(tmp_path / "cache")

        first = run_many(specs[:3], jobs=2, cache=cache,
                         manifest=SweepManifest(cache.path / MANIFEST_NAME),
                         arenas="off")
        assert not first.failures

        second = run_many(specs[:5], jobs=2, cache=cache,
                          manifest=SweepManifest(cache.path / MANIFEST_NAME),
                          resume=True, arenas="off",
                          dispatch=self.fabric(("spawn:2",)))
        assert not second.failures
        assert second.cache_hits == 3   # pool-phase results reused

        final = SweepManifest(cache.path / MANIFEST_NAME)
        third = run_many(specs, jobs=1, cache=cache, manifest=final,
                         resume=True, arenas="off", dispatch="local")
        assert not third.failures
        assert third.cache_hits == 5
        assert dicts(third) == dicts(reference)

        assert final.counts() == {"done": 6}
        for spec in specs:
            record = final.get(spec.fingerprint())
            assert record.status == "done"
            assert record.attempts == 1, \
                f"job {spec.fingerprint()[:12]} ran {record.attempts}x"
            logged = [entry["attempt"] for entry in record.attempt_log]
            assert len(logged) == len(set(logged)) == 1, \
                "duplicate attempt entries across dispatchers"

    def test_ephemeral_knobs_reach_every_dispatcher(self):
        """The job dict omits ephemeral params (they stay out of the
        fingerprint), so dispatchers ship them beside it: an armed
        watchdog trips at the identical cycle serially, on the local
        pool and on loopback fabric workers."""
        specs = [tiny_spec(seed=s, watchdog_cycles=3) for s in range(2)]
        no_retry = RetryPolicy(retries=0)
        reports = {
            "serial": run_many(specs, jobs=1, cache=None, arenas="off",
                               policy=no_retry),
            "pool": run_many(specs, jobs=2, cache=None, arenas="off",
                             policy=no_retry),
            "fabric": run_many(specs, jobs=2, cache=None, arenas="off",
                               policy=no_retry,
                               dispatch=self.fabric(("spawn:2",))),
        }
        errors = {}
        for name, report in reports.items():
            assert report.dispatch == name
            assert len(report.failures) == len(specs), \
                f"{name}: the watchdog never tripped"
            errors[name] = [o.error for o in report.outcomes]
        assert all("WedgeError" in e for e in errors["serial"])
        assert errors["pool"] == errors["serial"]
        assert errors["fabric"] == errors["serial"]

    def test_dispatchers_conform_under_faults(self, tmp_path,
                                              monkeypatch):
        """Serial, pool and loopback fabric share one attempt core, so
        under the same deterministic faults they agree job for job on
        attempts, errors, the manifest's attempt-log kinds and results:
        once with crashes (one job crashes then succeeds, one crashes
        on every attempt), once with a hang past ``job_timeout``."""
        timeout, hang_s = 1.5, 3.0
        specs = [tiny_spec(seed=s) for s in range(3)]
        fps = [spec.fingerprint() for spec in specs]
        baseline = dicts(run_many(specs, jobs=1, cache=None,
                                  arenas="off"))

        def rolls(kind, seed):
            plan = FaultPlan.parse(f"{kind}:0.5,seed:{seed}")
            return [[plan.roll(kind, fp, attempt) for attempt in range(3)]
                    for fp in fps]

        def seed_for(kind, wanted):
            return next(seed for seed in range(100000)
                        if rolls(kind, seed) == wanted)

        crash_seed = seed_for("crash", [[True, False, False],
                                        [False, False, False],
                                        [True, True, True]])
        hang_seed = seed_for("hang", [[False, False, False],
                                      [True, False, False],
                                      [False, False, False]])
        scenarios = {
            "crash": (f"crash:0.5,seed:{crash_seed}", None),
            "hang": (f"hang:0.5,hang_s:{hang_s},seed:{hang_seed}",
                     timeout),
        }
        dispatchers = {
            "serial": dict(jobs=1),
            "pool": dict(jobs=2),
            "fabric": dict(jobs=2, dispatch=self.fabric(("spawn:2",))),
        }
        for scenario, (faults, job_timeout) in scenarios.items():
            monkeypatch.setenv("REPRO_FAULTS", faults)
            policy = RetryPolicy(retries=2, job_timeout=job_timeout,
                                 backoff_base=0.001, backoff_cap=0.01)
            seen = {}
            for name, knobs in dispatchers.items():
                manifest = SweepManifest(
                    tmp_path / scenario / name / MANIFEST_NAME)
                report = run_many(specs, cache=None, manifest=manifest,
                                  policy=policy, arenas="off", **knobs)
                assert report.dispatch == name, scenario
                logs = [sorted(manifest.get(fp).attempt_log,
                               key=lambda entry: entry["attempt"])
                        for fp in fps]
                seen[name] = (
                    [o.attempts for o in report.outcomes],
                    [o.error for o in report.outcomes],
                    [[entry["outcome"] for entry in log] for log in logs],
                    [r.to_dict() if r is not None else None
                     for r in report.results])
                if scenario == "hang":
                    hung = report.outcomes[1]
                    assert hung.wall_time >= timeout, \
                        f"{name}: timed-out attempt not charged"
            assert seen["pool"] == seen["serial"], scenario
            assert seen["fabric"] == seen["serial"], scenario
            attempts, errors, kinds, results = seen["serial"]
            if scenario == "crash":
                assert attempts == [2, 1, 3]
                assert kinds == [["failed", "ok"], ["ok"],
                                 ["failed"] * 3]
                assert errors[:2] == ["", ""]
                assert errors[2].startswith("InjectedCrash")
                assert results[:2] == baseline[:2] and results[2] is None
            else:
                assert attempts == [1, 2, 1]
                assert kinds == [["ok"], ["timeout", "ok"], ["ok"]]
                assert errors == ["", "", ""] and results == baseline

    def test_report_counts_the_fabric_workers_that_ran(self, tmp_path):
        """``--workers spawn:3`` without ``--jobs`` reports the fabric
        workers that joined, not the local worker count."""
        specs = [tiny_spec(seed=s) for s in range(6)]
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        report = run_many(specs, jobs=1, cache=None, manifest=manifest,
                          arenas="off",
                          dispatch=self.fabric(("spawn:3",)))
        assert report.dispatch == "fabric" and not report.failures
        assert 1 < report.jobs == len(manifest.workers) <= 3
        assert f"with {report.jobs} worker(s)" in report.format_summary()

    def test_ephemeral_round_trip(self):
        spec = tiny_spec(check=True, watchdog_cycles=7,
                         watchdog_node_cycles=9)
        plain = JobSpec.from_dict(spec.to_dict())
        assert plain.params.check is False
        assert plain.params.watchdog_cycles == 0
        assert JobSpec.from_dict(spec.to_dict(), spec.ephemeral()) == spec
        assert spec.fingerprint() == tiny_spec().fingerprint()


# ---------------------------------------------------------------------------
# Worker health in the manifest
# ---------------------------------------------------------------------------

class TestManifestWorkerHealth:
    def test_mark_worker_persists_and_renders(self, tmp_path):
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin(["f" * 64], ["job-a"])
        manifest.mark_worker("w1", status="joined", jobs_done=0,
                             jobs_failed=0, last_heartbeat=1.0)
        manifest.mark_worker("w1", status="released", jobs_done=4,
                             lease="", last_heartbeat=2.0)
        manifest.mark_worker("w2", status="lost", jobs_done=1,
                             jobs_failed=1, lease="c073b5cb1933",
                             lease_since=1.5)
        reloaded = SweepManifest(tmp_path / MANIFEST_NAME)
        assert reloaded.workers["w1"]["status"] == "released"
        assert reloaded.workers["w1"]["jobs_done"] == 4
        status = reloaded.format_status()
        assert "workers:" in status
        assert "w1       released  done=4" in status
        assert "lease c073b5cb1933" in status
        assert "idle" in status

    def test_no_worker_section_for_local_sweeps(self, tmp_path):
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin(["f" * 64], ["job-a"])
        assert "workers:" not in manifest.format_status()
        raw = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "workers" not in raw


# ---------------------------------------------------------------------------
# Retention GC
# ---------------------------------------------------------------------------

NOW = 1_000_000.0


def _touch(path, age_s, payload=b"x"):
    """Create ``path`` (file) with mtime ``NOW - age_s``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    stamp = NOW - age_s
    os.utime(path, (stamp, stamp))
    os.utime(path.parent, (stamp, stamp))


class TestGc:
    def seed_cache(self, root):
        """A cache dir with one artifact per category at known ages."""
        fp_old, fp_new = "a" * 64, "b" * 64
        _touch(root / "checkpoints" / fp_old / "ck-1.ckpt", age_s=10 * 86400)
        _touch(root / "checkpoints" / fp_new / "ck-1.ckpt", age_s=1 * 86400)
        _touch(root / "triage" / (fp_old[:12] + "-a1") / "job.json",
               age_s=9 * 86400)
        _touch(root / "traces" / "t1.arena", age_s=8 * 86400,
               payload=b"y" * 100)
        _touch(root / "quarantine" / "bad.json", age_s=2 * 86400)
        return fp_old, fp_new

    def test_age_rule_evicts_only_the_old(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {fp_old, fp_old[:12] + "-a1", "t1.arena"}
        kept = {item.path.name for item in plan.items if not item.evict}
        assert kept == {fp_new, "bad.json"}
        assert plan.freed_bytes() > 0

    def test_manifest_pins_in_flight_jobs(self, tmp_path):
        fp_old, _ = self.seed_cache(tmp_path)
        manifest = SweepManifest(tmp_path / MANIFEST_NAME)
        manifest.begin([fp_old], ["job-a"])
        manifest.mark_running(fp_old)
        plan = run_gc.plan_gc(tmp_path, manifest=manifest, now=NOW)
        pinned = {item.path.name for item in plan.pinned}
        # Both the checkpoint dir (full fingerprint) and the triage
        # bundle (fp12 prefix) of the running job survive.
        assert pinned == {fp_old, fp_old[:12] + "-a1"}
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"t1.arena"}

    def test_count_cap_keeps_newest_and_pins_hold_slots(self, tmp_path):
        root = tmp_path
        for n, age in enumerate((300.0, 200.0, 100.0)):
            _touch(root / "triage" / (f"{n:012d}" + "-a1") / "job.json",
                   age_s=age)
        manifest = SweepManifest(root / MANIFEST_NAME)
        oldest = "0" * 11 + "0"
        manifest.begin([oldest + "f" * 52], ["job-a"])
        manifest.mark_running(oldest + "f" * 52)
        rules = {"triage": run_gc.RetentionRule(max_count=2)}
        plan = run_gc.plan_gc(root, rules=rules, manifest=manifest,
                              now=NOW)
        # Three bundles, cap two, oldest pinned: the pin occupies a
        # slot, so the middle bundle goes and the newest survives.
        gone = {item.path.name for item in plan.evictions}
        assert gone == {f"{1:012d}" + "-a1"}

    def test_bytes_cap_evicts_oldest_first(self, tmp_path):
        for n, age in enumerate((300.0, 200.0, 100.0)):
            _touch(tmp_path / "traces" / f"t{n}.arena", age_s=age,
                   payload=b"z" * 400)
        rules = {"arenas": run_gc.RetentionRule(max_bytes=900)}
        plan = run_gc.plan_gc(tmp_path, rules=rules, now=NOW)
        gone = {item.path.name for item in plan.evictions}
        assert gone == {"t0.arena"}   # 1200 -> 800 bytes

    def test_apply_deletes_plan_and_spares_the_rest(self, tmp_path):
        fp_old, fp_new = self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        removed, freed = plan.apply()
        assert removed == 3 and freed == plan.freed_bytes()
        assert not (tmp_path / "checkpoints" / fp_old).exists()
        assert not (tmp_path / "traces" / "t1.arena").exists()
        assert (tmp_path / "checkpoints" / fp_new).exists()
        assert (tmp_path / "quarantine" / "bad.json").exists()

    def test_format_plan_mentions_categories_and_reasons(self, tmp_path):
        self.seed_cache(tmp_path)
        plan = run_gc.plan_gc(tmp_path, now=NOW)
        text = plan.format_plan(verbose=True)
        assert "gc plan: 3 evictions" in text
        assert "checkpoints" in text and "arenas" in text
        assert "older than 7.0d" in text

    def test_empty_cache_dir_plans_nothing(self, tmp_path):
        plan = run_gc.plan_gc(tmp_path / "missing", now=NOW)
        assert plan.items == [] and plan.evictions == []
        assert "0 evictions" in plan.format_plan()


# ---------------------------------------------------------------------------
# Lint rule R008
# ---------------------------------------------------------------------------

class TestLintR008:
    def lint(self, tmp_path, body):
        from repro.check.lint import lint_file
        target = tmp_path / "run" / "fabric" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(body)
        return [v for v in lint_file(str(target)) if v.code == "R008"]

    def test_unbounded_recv_in_fabric_is_flagged(self, tmp_path):
        hits = self.lint(tmp_path, (
            "def wait(sock):\n"
            "    return sock.recv(4)\n"))
        assert len(hits) == 1 and "settimeout" in hits[0].message

    def test_armed_timeout_suppresses_the_rule(self, tmp_path):
        assert self.lint(tmp_path, (
            "def wait(sock):\n"
            "    sock.settimeout(5.0)\n"
            "    return sock.recv(4)\n")) == []

    def test_rule_only_applies_under_run_fabric(self, tmp_path):
        from repro.check.lint import lint_file
        target = tmp_path / "elsewhere.py"
        target.write_text("def wait(sock):\n    return sock.recv(4)\n")
        assert [v for v in lint_file(str(target))
                if v.code == "R008"] == []

    def test_rule_is_registered_and_explained(self):
        from repro.check.lint import RULES, explain_rule
        assert "R008" in RULES
        assert "settimeout" in explain_rule("R008")

    def test_seeded_violation_is_detected(self):
        from repro.check.lint.selftest import run_static_mutation
        detail = run_static_mutation("fabric-socket-no-timeout")
        assert detail.startswith("R008 fired")
