"""Tests for the fault-tolerance subsystem (repro.resilience).

Covers the four pillars end to end: deterministic fault injection,
deadline propagation with retry policies, graceful degradation of the
exact MILP to the heuristic portfolio, and crash-safe journaled sweeps —
plus the chaos-determinism contract: the same root seed and fault plan
produce the same injected schedule, and a run whose faults were all
recovered is bit-identical to the fault-free run.
"""

import json
import time

import pytest

from repro.pipeline import events as ev
from repro.pipeline.events import EventLog
from repro.pipeline.runner import run_jobs
from repro.pipeline.stages import BuildSpec, Job, OptimizeParams, SimulateParams
from repro.pipeline.store import ArtifactStore
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    RunJournal,
    TransientError,
    injected,
    journaling,
    optional_scope,
)
from repro.resilience import faults as faults_module
from repro.resilience.journal import JournalError, validate_run_id
from repro.seeding import derive_seed


def small_jobs(root_seed=7, cycles=500):
    """Two tiny full-pipeline jobs with distinct ids (MILP optimize)."""
    jobs = []
    for scenario, params in (
        ("figure1a", {"alpha": 0.9}),
        ("fork-join-early", {"alpha": 0.85, "long_branch_delay": 6.0}),
    ):
        jobs.append(Job(
            job_id=scenario,
            build=BuildSpec.from_scenario(scenario, **params),
            optimize=OptimizeParams(k=3, epsilon=0.1, time_limit=30),
            simulate=SimulateParams(
                cycles=cycles, seed=derive_seed(root_seed, scenario)
            ),
        ))
    return jobs


def recovering_seed(site, label, rate=0.5, attempts=2):
    """A plan seed whose first draw fails and whose retries all recover."""
    for seed in range(500):
        plan = FaultPlan(seed=seed, rates={site: rate})
        if plan.should_fail(site, label, 0) and not any(
            plan.should_fail(site, label, attempt)
            for attempt in range(1, attempts + 1)
        ):
            return seed
    raise AssertionError(f"no recovering seed found for {site}[{label}]")


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        labels = [f"job-{i}" for i in range(20)]
        a = FaultPlan(seed=11, rates={"stage": 0.3})
        b = FaultPlan(seed=11, rates={"stage": 0.3})
        assert a.schedule("stage", labels, attempts=3) == \
            b.schedule("stage", labels, attempts=3)
        assert a.schedule("stage", labels, attempts=3)  # non-empty at 0.3

    def test_seed_changes_schedule(self):
        labels = [f"job-{i}" for i in range(50)]
        a = FaultPlan(seed=1, rates={"store_write": 0.4})
        b = FaultPlan(seed=2, rates={"store_write": 0.4})
        assert a.schedule("store_write", labels) != \
            b.schedule("store_write", labels)

    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec("store_write:0.1, stage:0.05", seed=9)
        assert plan.rates == {"store_write": 0.1, "stage": 0.05}
        assert plan.seed == 9
        assert FaultPlan.from_spec(plan.to_spec(), seed=9) == plan

    def test_bad_site_and_rate_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"disk_on_fire": 0.5})
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(rates={"stage": 1.5})
        with pytest.raises(ValueError, match="site:rate"):
            FaultPlan.from_spec("stage=0.5")

    def test_rate_edges(self):
        never = FaultPlan(seed=3, rates={"stage": 0.0})
        always = FaultPlan(seed=3, rates={"stage": 1.0})
        for label in range(30):
            assert not never.should_fail("stage", str(label))
            assert always.should_fail("stage", str(label))

    def test_retry_draws_are_independent(self):
        # An operation that failed on attempt 0 recovers on a later attempt
        # for *some* seed: the per-attempt draws are not correlated.
        seed = recovering_seed("stage", "job:optimize")
        plan = FaultPlan(seed=seed, rates={"stage": 0.5})
        assert plan.should_fail("stage", "job:optimize", 0)
        assert not plan.should_fail("stage", "job:optimize", 1)


class TestInstallation:
    def test_check_is_noop_without_plan(self):
        faults_module.check("stage", "anything", 0)  # must not raise

    def test_injected_scopes_plan(self):
        plan = FaultPlan(seed=0, rates={"connection": 1.0})
        with injected(plan):
            assert faults_module.active_plan() is plan
            with pytest.raises(InjectedFault) as info:
                faults_module.check("connection", "GET /stats", 0)
            assert info.value.site == "connection"
        assert faults_module.active_plan() is None
        faults_module.check("connection", "GET /stats", 0)

    def test_injection_counts(self):
        faults_module.reset_injection_counts()
        with injected(FaultPlan(seed=0, rates={"store_read": 1.0})):
            for attempt in range(3):
                with pytest.raises(InjectedFault):
                    faults_module.check("store_read", "key", attempt)
        assert faults_module.injection_counts()["store_read"] == 3
        faults_module.reset_injection_counts()


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.4,
            jitter=0.0,
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy(attempts=4, jitter=0.5, seed=42)
        first = [policy.delay(i, salt="x") for i in range(3)]
        second = [policy.delay(i, salt="x") for i in range(3)]
        assert first == second
        assert first != [policy.delay(i, salt="y") for i in range(3)]
        nominal = [0.05, 0.1, 0.2]
        for value, cap in zip(first, nominal):
            assert 0.5 * cap <= value <= cap

    def test_call_recovers_after_transient(self):
        slept = []
        seen = []

        def flaky(attempt):
            seen.append(attempt)
            if attempt < 2:
                raise TransientError("not yet")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert seen == [0, 1, 2]
        assert slept == [0.01, 0.02]

    def test_call_raises_last_error_when_exhausted(self):
        def always(attempt):
            raise TransientError(f"attempt {attempt}")

        policy = RetryPolicy(attempts=2, base_delay=0.0)
        with pytest.raises(TransientError, match="attempt 1"):
            policy.call(always, sleep=lambda _: None)

    def test_call_does_not_retry_foreign_errors(self):
        seen = []

        def broken(attempt):
            seen.append(attempt)
            raise ValueError("deterministic")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).call(broken, sleep=lambda _: None)
        assert seen == [0]


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired()
        assert deadline.budget == 10.0
        with pytest.raises(ValueError):
            Deadline.after(0)

    def test_require_raises_after_expiry(self):
        expired = Deadline(time.monotonic() - 1.0, budget=1.0)
        assert expired.expired()
        assert expired.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="MILP walk"):
            expired.require("MILP walk")

    def test_scope_sets_and_resets_current(self):
        assert Deadline.current() is None
        deadline = Deadline.after(5.0)
        with deadline.scope():
            assert Deadline.current() is deadline
            assert 0 < Deadline.current().share(0.5) <= 2.5
        assert Deadline.current() is None

    def test_optional_scope_none_is_passthrough(self):
        with optional_scope(None) as deadline:
            assert deadline is None
            assert Deadline.current() is None
        with optional_scope(3.0) as deadline:
            assert Deadline.current() is deadline


class TestJournal:
    def test_run_id_validation(self):
        assert validate_run_id("nightly-1.2_a") == "nightly-1.2_a"
        for bad in ("", ".hidden", "a/b", "x" * 65, "sp ace"):
            with pytest.raises(JournalError):
                validate_run_id(bad)

    def test_record_and_completed(self, tmp_path):
        journal = RunJournal(tmp_path, "run1")
        assert journal.completed() == {}
        journal.record_done("jobA", "key-a")
        journal.record_done("jobB", "key-b")
        assert journal.completed_key("jobA") == "key-a"
        assert journal.completed_key("missing") is None
        assert journal.completed() == {"jobA": "key-a", "jobB": "key-b"}
        assert journal.clear() == 2
        assert journal.completed() == {}

    def test_corrupt_record_degrades_to_not_complete(self, tmp_path):
        journal = RunJournal(tmp_path, "run1")
        journal.record_done("jobA", "key-a")
        journal._record_path("jobA").write_text("{not json", encoding="utf-8")
        assert journal.completed_key("jobA") is None
        assert journal.completed() == {}

    def test_manifest_idempotent_and_mismatch(self, tmp_path):
        journal = RunJournal(tmp_path, "run1")
        assert journal.manifest() is None
        journal.write_manifest("table2", {"seed": 1})
        journal.write_manifest("table2", {"seed": 1})  # idempotent
        manifest = journal.manifest()
        assert manifest["target"] == "table2"
        assert manifest["options"] == {"seed": 1}
        with pytest.raises(JournalError, match="different"):
            journal.write_manifest("table2", {"seed": 2})
        with pytest.raises(JournalError, match="different"):
            journal.write_manifest("table1", {"seed": 1})

    def test_ambient_journaling_scopes(self, tmp_path):
        from repro.resilience.journal import active_journal

        journal = RunJournal(tmp_path, "run1")
        assert active_journal() is None
        with journaling(journal):
            assert active_journal() is journal
        assert active_journal() is None


class TestStoreFaults:
    def test_read_faults_degrade_to_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("some-key", {"value": 1})
        with injected(FaultPlan(seed=0, rates={"store_read": 1.0})):
            assert store.get("some-key") is None
        assert store.get("some-key") == {"value": 1}
        stats = store.stats()
        assert stats["retried_io"] > 0

    def test_write_faults_drop_instead_of_failing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with injected(FaultPlan(seed=0, rates={"store_write": 1.0})):
            assert store.put("some-key", {"value": 1}) is None
        assert store.get("some-key") is None  # write was dropped
        assert store.stats()["dropped_writes"] == 1
        assert store.put("some-key", {"value": 1}) is not None

    def test_recovered_write_fault_is_invisible(self, tmp_path):
        # The fault label is the store key: pick a seed whose first write
        # draw fails but whose retries recover.
        key = "probe"
        seed = recovering_seed("store_write", key)
        store = ArtifactStore(tmp_path / "store")
        with injected(FaultPlan(seed=seed, rates={"store_write": 0.5})):
            assert store.put(key, {"v": 1}) is not None
        assert store.get(key) == {"v": 1}
        assert store.stats()["dropped_writes"] == 0
        assert store.stats()["retried_io"] > 0


class TestStageRetryAndDegrade:
    def test_stage_fault_recovers_bit_identically(self):
        jobs = small_jobs()
        baseline = run_jobs(small_jobs())
        label = f"{jobs[0].job_id}:optimize"
        seed = recovering_seed("stage", label)
        with injected(FaultPlan(seed=seed, rates={"stage": 0.5})):
            chaotic = run_jobs(small_jobs())
        assert chaotic == baseline

    def test_unrecoverable_stage_fault_fails_the_job(self):
        log = EventLog()
        with injected(FaultPlan(seed=0, rates={"stage": 1.0})):
            with pytest.raises(InjectedFault):
                run_jobs(small_jobs()[:1], events=log)
        assert len(log.of_kind(ev.JOB_FAILED)) == 1

    def test_solver_stall_degrades_to_portfolio(self):
        log = EventLog()
        with injected(FaultPlan(seed=0, rates={"solver_stall": 1.0})):
            payload = run_jobs(small_jobs()[:1], events=log)[0]
        block = payload["degraded"]
        assert block["requested"] == "milp"
        assert block["optimizer"] == "portfolio"
        assert block["reason"] == "solver-stall"
        assert payload["optimize"]["optimizer"] != "milp"
        degraded = log.of_kind(ev.DEGRADED)
        assert len(degraded) == 1 and degraded[0].message == "solver-stall"

    def test_expired_deadline_degrades_milp(self):
        deadline = Deadline(time.monotonic() - 1.0, budget=0.001)
        with deadline.scope():
            payload = run_jobs(small_jobs()[:1])[0]
        assert payload["degraded"]["reason"] == "milp-deadline"
        assert payload["optimize"]["optimizer"] != "milp"

    def test_generous_deadline_is_invisible(self):
        baseline = run_jobs(small_jobs()[:1])
        with optional_scope(600.0):
            bounded = run_jobs(small_jobs()[:1])
        assert bounded == baseline
        assert "degraded" not in bounded[0]

    def test_degraded_payload_never_cached(self, tmp_path):
        store = tmp_path / "store"
        deadline = Deadline(time.monotonic() - 1.0, budget=0.001)
        with deadline.scope():
            degraded = run_jobs(small_jobs()[:1], store=store)[0]
        assert "degraded" in degraded
        # The unconstrained re-run must recompute, not inherit the fallback.
        log = EventLog()
        exact = run_jobs(small_jobs()[:1], store=store, events=log)[0]
        assert "degraded" not in exact
        assert log.of_kind(ev.JOB_DONE)[0].cached is False
        # ...and the exact result *is* cached afterwards.
        log2 = EventLog()
        run_jobs(small_jobs()[:1], store=store, events=log2)
        assert log2.of_kind(ev.JOB_DONE)[0].cached is True

    def test_run_preset_surfaces_degraded_block(self):
        from repro.experiments.presets import RunOptions, run_preset

        deadline = Deadline(time.monotonic() - 1.0, budget=0.001)
        with deadline.scope():
            result = run_preset(
                "figure1a", RunOptions(cycles=500, seed=3)
            )
        assert result["degraded"]
        assert result["degraded"][0]["job_id"] == "figure1a"
        assert result["degraded"][0]["reason"] == "milp-deadline"


class TestWorkerCrash:
    def _crash_plan(self, jobs, rate=0.5):
        """A plan crashing at least one worker at attempt 0, none at 1."""
        labels = [job.job_id for job in jobs]
        for seed in range(500):
            plan = FaultPlan(seed=seed, rates={"worker_start": rate})
            first = [plan.should_fail("worker_start", l, 0) for l in labels]
            second = [plan.should_fail("worker_start", l, 1) for l in labels]
            if any(first) and not any(second):
                return plan
        raise AssertionError("no crash plan found")

    def test_crashed_worker_recovers_via_pool_rebuild(self):
        jobs = small_jobs()
        baseline = run_jobs(small_jobs())
        log = EventLog()
        with injected(self._crash_plan(jobs)):
            chaotic = run_jobs(small_jobs(), shards=2, events=log)
        assert chaotic == baseline
        retries = log.of_kind(ev.WORKER_RETRY)
        assert len(retries) >= 1
        assert "rebuilding" in retries[0].message
        assert log.summary()[ev.JOB_DONE] == len(jobs)

    def test_permanent_crashes_fall_back_to_serial(self):
        baseline = run_jobs(small_jobs())
        log = EventLog()
        with injected(FaultPlan(seed=0, rates={"worker_start": 1.0})):
            chaotic = run_jobs(small_jobs(), shards=2, events=log)
        # Every pool attempt died; the serial path finished the sweep.
        assert chaotic == baseline
        assert len(log.of_kind(ev.FALLBACK)) == 1
        assert len(log.of_kind(ev.WORKER_RETRY)) == 2  # POOL_REBUILDS


class TestJournaledResume:
    def test_resume_serves_journaled_jobs_from_the_store(self, tmp_path):
        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        with journaling(journal):
            first = run_jobs(small_jobs(), store=store)
        assert set(journal.completed()) == {
            job.job_id for job in small_jobs()
        }
        log = EventLog()
        with journaling(journal):
            resumed = run_jobs(small_jobs(), store=store, events=log)
        assert resumed == first
        done = log.of_kind(ev.JOB_DONE)
        assert all(event.cached for event in done)
        assert all(event.message == "journal" for event in done)

    def test_journal_store_miss_recomputes_silently(self, tmp_path):
        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        journal.record_done("figure1a", "key-that-does-not-exist")
        log = EventLog()
        with journaling(journal):
            payloads = run_jobs(small_jobs(), store=store, events=log)
        assert len(payloads) == 2
        assert payloads == run_jobs(small_jobs())
        # The bogus record did not short-circuit anything.
        assert not any(
            event.message == "journal" for event in log.of_kind(ev.JOB_DONE)
        )

    def test_no_journal_without_store(self):
        # A journal needs a store to point into; without one run_jobs must
        # not write records even when a journal is ambient.
        journal = RunJournal("/nonexistent-root-never-created", "sweep1")
        with journaling(journal):
            payloads = run_jobs(small_jobs()[:1])
        assert payloads
        assert journal.completed() == {}

    def test_degraded_job_is_not_journaled(self, tmp_path):
        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        deadline = Deadline(time.monotonic() - 1.0, budget=0.001)
        with journaling(journal), deadline.scope():
            payloads = run_jobs(small_jobs()[:1], store=store)
        assert "degraded" in payloads[0]
        assert journal.completed() == {}


class TestGracefulShutdown:
    """The SIGINT/SIGTERM satellite: drain, record, resume."""

    def _interrupt_after_first_done(self, log):
        import signal

        def observe(event):
            log(event)
            if event.kind == ev.JOB_DONE:
                signal.raise_signal(signal.SIGINT)

        return observe

    def test_sigint_drains_emits_aborted_and_keeps_journal(self, tmp_path):
        import io

        from repro.pipeline.runner import PipelineAborted, graceful_interrupts

        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        journal.write_manifest("small-jobs", {"seed": 7})
        log = EventLog()
        with pytest.raises(PipelineAborted) as info:
            with graceful_interrupts(stream=io.StringIO()), \
                    journaling(journal):
                run_jobs(
                    small_jobs(), store=store,
                    events=self._interrupt_after_first_done(log),
                )
        assert info.value.completed == 1
        assert len(log.of_kind(ev.ABORTED)) == 1
        assert log.of_kind(ev.PIPELINE_DONE) == []
        # Journal and store survived intact: the manifest still parses, the
        # completed job is recorded, and its artifact is readable.
        assert journal.manifest()["target"] == "small-jobs"
        completed = journal.completed()
        assert len(completed) == 1
        (job_id, key), = completed.items()
        assert ArtifactStore(store).get(key)["job_id"] == job_id

    def test_resume_after_sigint_is_bit_identical(self, tmp_path):
        import io

        from repro.pipeline.runner import PipelineAborted, graceful_interrupts

        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        baseline = run_jobs(small_jobs())
        with pytest.raises(PipelineAborted):
            with graceful_interrupts(stream=io.StringIO()), \
                    journaling(journal):
                run_jobs(
                    small_jobs(), store=store,
                    events=self._interrupt_after_first_done(EventLog()),
                )
        log = EventLog()
        with journaling(journal):
            resumed = run_jobs(small_jobs(), store=store, events=log)
        assert resumed == baseline
        journal_hits = [
            event for event in log.of_kind(ev.JOB_DONE)
            if event.message == "journal"
        ]
        assert len(journal_hits) == 1

    def test_sharded_sigterm_drains_and_resume_completes(self, tmp_path):
        import io

        from repro.pipeline.runner import PipelineAborted, graceful_interrupts

        store = tmp_path / "store"
        journal = RunJournal.for_store(store, "sweep1")
        baseline = run_jobs(small_jobs())
        done = []

        def observe(event):
            if event.kind == ev.JOB_DONE:
                done.append(event.job_id)

        log = EventLog()

        def logged(event):
            log(event)
            observe(event)

        with pytest.raises(PipelineAborted) as info:
            with graceful_interrupts(stream=io.StringIO()), \
                    journaling(journal):
                run_jobs(
                    small_jobs(), shards=2, store=store, events=logged,
                    should_stop=lambda: len(done) >= 1,
                )
        # Everything that finished during the drain is journaled.
        assert info.value.completed == len(log.of_kind(ev.JOB_DONE))
        assert len(journal.completed()) == info.value.completed
        with journaling(journal):
            resumed = run_jobs(small_jobs(), store=store)
        assert resumed == baseline


class TestChaosDeterminism:
    """Same seed + same plan => same schedule; recovered => bit-identical."""

    def test_identical_plans_inject_identically(self):
        jobs = small_jobs()
        label = f"{jobs[0].job_id}:optimize"
        seed = recovering_seed("stage", label)
        plan = FaultPlan(seed=seed, rates={"stage": 0.5})

        def run_with_counts():
            faults_module.reset_injection_counts()
            with injected(FaultPlan(seed=seed, rates={"stage": 0.5})):
                payloads = run_jobs(small_jobs())
            counts = faults_module.injection_counts()
            faults_module.reset_injection_counts()
            return payloads, counts

        first_payloads, first_counts = run_with_counts()
        second_payloads, second_counts = run_with_counts()
        assert first_counts == second_counts
        assert first_counts.get("stage", 0) >= 1
        assert first_payloads == second_payloads
        assert plan.schedule("stage", [label], attempts=3) == \
            FaultPlan(seed=seed, rates={"stage": 0.5}).schedule(
                "stage", [label], attempts=3
            )

    def test_recovered_chaos_run_matches_fault_free(self, tmp_path):
        baseline = run_jobs(small_jobs())
        jobs = small_jobs()
        label = f"{jobs[1].job_id}:simulate"
        seed = recovering_seed("stage", label)
        plan = FaultPlan(
            seed=seed, rates={"stage": 0.5, "store_write": 0.3},
        )
        with injected(plan):
            chaotic = run_jobs(small_jobs(), store=tmp_path / "store")
        assert chaotic == baseline

    def test_dropped_writes_do_not_change_results(self, tmp_path):
        baseline = run_jobs(small_jobs())
        with injected(FaultPlan(seed=0, rates={"store_write": 1.0})):
            chaotic = run_jobs(small_jobs(), store=tmp_path / "store")
        assert chaotic == baseline
        # Nothing was persisted; a fresh run against the store recomputes.
        log = EventLog()
        rerun = run_jobs(small_jobs(), store=tmp_path / "store", events=log)
        assert rerun == baseline
        assert not any(event.cached for event in log.of_kind(ev.JOB_DONE))


class TestResilienceCLI:
    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_bad_inject_spec_exits_2(self, capsys):
        rc = self._main(["run", "figure1a", "--inject", "bogus:0.5"])
        assert rc == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_run_id_requires_store(self):
        with pytest.raises(SystemExit, match="--store"):
            self._main(["run", "figure1a", "--run-id", "x"])

    def test_resume_unknown_run_errors(self, tmp_path, capsys):
        rc = self._main([
            "run", "--resume", "ghost", "--store", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert "no journaled run" in capsys.readouterr().err

    def test_run_without_target_or_resume_errors(self, capsys):
        rc = self._main(["run"])
        assert rc == 2
        assert "target is required" in capsys.readouterr().err

    def test_run_id_and_resume_are_exclusive(self, tmp_path, capsys):
        rc = self._main([
            "run", "figure1a", "--store", str(tmp_path / "s"),
            "--run-id", "a", "--resume", "b",
        ])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_journaled_cli_run_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = self._main([
            "run", "figure1a", "--store", store, "--run-id", "cli1",
            "--cycles", "300", "--quiet",
        ])
        assert rc == 0
        first = capsys.readouterr().out
        rc = self._main([
            "run", "--resume", "cli1", "--store", store, "--quiet",
        ])
        assert rc == 0
        resumed = capsys.readouterr().out
        # Identical rendered tables: the resume re-declared the manifest's
        # options (including --cycles 300) and served the job bit-identically.
        assert resumed.splitlines()[:4] == first.splitlines()[:4]

    def test_resume_target_mismatch_errors(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert self._main([
            "run", "figure1a", "--store", store, "--run-id", "cli1",
            "--cycles", "300", "--quiet",
        ]) == 0
        capsys.readouterr()
        rc = self._main([
            "run", "figure2", "--resume", "cli1", "--store", store,
        ])
        assert rc == 2
        assert "journals target" in capsys.readouterr().err
