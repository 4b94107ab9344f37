"""Tests for the observability layer (repro.obs).

Covers the trace API (span trees, deterministic ids, the JSONL sink), the
stdlib metrics registry and its Prometheus rendering, the canonical
counter-name tables (pinned to the broker's live counters), and the
end-to-end properties: a single trace
id observable across client, broker and pipeline, and tracing that changes
no result, cache key or artifact.
"""

import json

import pytest

from repro.obs import metrics as metrics_module
from repro.obs import names
from repro.obs import trace as trace_module
from repro.obs.metrics import MetricsRegistry, parse_metrics, render_metrics
from repro.obs.profile import chrome_trace, self_times
from repro.obs.trace import (
    TRACE_FIELD,
    assemble_tree,
    derive_span_id,
    format_trace_ref,
    parse_trace_ref,
    read_sink,
    ring_spans,
    span,
    start_trace,
    store_sink_path,
    valid_trace_ref,
)
from repro.pipeline.events import PipelineEvent
from repro.pipeline.runner import run_jobs
from repro.service.broker import Broker
from repro.service.protocol import RequestError, prepare_request
from repro.sim.cache import LruCache

from test_pipeline_runner import pareto_jobs


@pytest.fixture(autouse=True)
def clean_trace_state():
    """Every test starts with an empty ring and no global sink."""
    trace_module.clear_ring()
    trace_module.set_trace_sink(None)
    yield
    trace_module.clear_ring()
    trace_module.set_trace_sink(None)


# -- trace core ---------------------------------------------------------------


class TestTraceApi:
    def test_span_nesting_and_ring(self):
        with start_trace("root") as root:
            trace_id = root.trace_id
            with span("child", step=1) as child:
                child.annotate(found="yes")
        records = ring_spans(trace_id)
        by_name = {record["name"]: record for record in records}
        assert set(by_name) == {"root", "child"}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["child"]["annotations"] == {"step": 1, "found": "yes"}
        assert by_name["root"]["seconds"] >= by_name["child"]["seconds"] >= 0

    def test_span_without_trace_is_noop(self):
        with span("orphan") as orphan:
            assert not orphan  # falsy null span
            orphan.annotate(ignored=True)  # must not raise
        assert ring_spans() == []

    def test_span_ids_deterministic(self):
        a = derive_span_id("t1", "p1", "work", 0)
        assert a == derive_span_id("t1", "p1", "work", 0)
        assert a != derive_span_id("t1", "p1", "work", 1)
        assert a != derive_span_id("t2", "p1", "work", 0)

    def test_trace_ref_round_trip(self):
        assert parse_trace_ref(format_trace_ref("tid", "sid")) == ("tid", "sid")
        assert parse_trace_ref("tid") == ("tid", None)
        assert valid_trace_ref("abc123/def456")
        assert not valid_trace_ref("a/b/c")
        assert not valid_trace_ref("")
        assert not valid_trace_ref("bad key!")
        assert not valid_trace_ref("x" * 65)

    def test_sink_write_and_read(self, tmp_path):
        sink = store_sink_path(tmp_path)
        trace_module.set_trace_sink(sink)
        with start_trace("sunk") as root:
            trace_id = root.trace_id
        assert sink.exists()
        records = read_sink(sink, trace_id)
        assert [record["name"] for record in records] == ["sunk"]
        # torn/blank lines are skipped, never raised on
        with open(sink, "a", encoding="utf-8") as handle:
            handle.write("{torn\n\n")
        assert len(read_sink(sink, trace_id)) == 1

    def test_assemble_tree_orphans_stay_roots(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "root",
             "started_unix": 1.0},
            {"span_id": "b", "parent_id": "a", "name": "child",
             "started_unix": 2.0},
            {"span_id": "c", "parent_id": "missing", "name": "orphan",
             "started_unix": 3.0},
        ]
        roots = assemble_tree(spans)
        assert [r["name"] for r in roots] == ["root", "orphan"]
        assert [c["name"] for c in roots[0]["children"]] == ["child"]


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "things").inc()
        registry.counter("t_total", "things").inc(2, worker="w0")
        registry.gauge("depth", "queue depth").set(3)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render()
        parsed = parse_metrics(text)
        assert parsed["t_total"][()] == 1
        assert parsed["t_total"][(("worker", "w0"),)] == 2
        assert parsed["depth"][()] == 3
        assert parsed["lat_seconds_count"][()] == 3
        assert parsed["lat_seconds_bucket"][(("le", "0.1"),)] == 1
        assert parsed["lat_seconds_bucket"][(("le", "1"),)] == 2
        assert parsed["lat_seconds_bucket"][(("le", "+Inf"),)] == 3

    def test_render_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", "b").inc(2)
            registry.counter("a_total", "a").inc(1, zone="z", worker="w")
            registry.gauge("g", "g").set(1.5)
            return registry.render()

        assert build() == build()
        lines = [line for line in build().splitlines() if not line.startswith("#")]
        assert lines == sorted(lines)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_render_metrics_merges_registries(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("shared_total", "help").inc(1)
        right.counter("shared_total", "help").inc(2, worker="w")
        right.counter("only_total", "help").inc(5)
        parsed = parse_metrics(render_metrics(left, right))
        assert parsed["shared_total"][()] == 1
        assert parsed["shared_total"][(("worker", "w"),)] == 2
        assert parsed["only_total"][()] == 5


# -- canonical names + parity (satellite a) -----------------------------------


class TestNameParity:
    def test_tables_cover_broker_counters_exactly(self):
        """The drift guard: one key set for the broker and the tables."""
        broker_keys = set(Broker().counters)
        table_keys = set(names.REQUEST_COUNTERS) | set(names.REQUEST_GAUGES)
        assert broker_keys == table_keys

    def test_every_family_has_help(self):
        for table in (
            names.REQUEST_COUNTERS, names.REQUEST_GAUGES,
            names.L1_CACHE_COUNTERS, names.L1_CACHE_GAUGES,
            names.STORE_CACHE_COUNTERS, names.QUEUE_GAUGES,
        ):
            for family in table.values():
                assert names.help_for(family), family

    def test_stats_registry_mirrors_one_payload(self):
        """Every table entry becomes one unlabeled sample of its value."""
        requests = {
            key: index + 1
            for index, key in enumerate(names.REQUEST_COUNTERS)
        }
        requests["max_batch_lanes"] = 5
        stats = {
            "uptime_seconds": 9.0,
            "kernel_backend": "c",
            "requests": requests,
            "queue": {"depth": 2, "limit": 32, "in_flight": 1,
                      "drain_rate_rps": 0.5},
            "cache": {
                "l1": {"hits": 2, "misses": 5, "size": 2, "maxsize": 128},
                "store": {"hits": 1, "misses": 4},
            },
        }
        parsed = parse_metrics(names.stats_registry(stats).render())
        for key, family in names.REQUEST_COUNTERS.items():
            assert parsed[family] == {(): requests[key]}, family
        assert parsed[names.REQUEST_GAUGES["max_batch_lanes"]] == {(): 5}
        assert parsed[names.L1_CACHE_COUNTERS["misses"]] == {(): 5}
        assert parsed[names.L1_CACHE_GAUGES["maxsize"]] == {(): 128}
        assert parsed[names.STORE_CACHE_COUNTERS["hits"]] == {(): 1}
        assert parsed[names.QUEUE_GAUGES["drain_rate_rps"]] == {(): 0.5}
        assert parsed[names.L1_HIT_RATIO_GAUGE][()] == pytest.approx(
            2 / 7, abs=1e-6
        )
        assert parsed[names.UPTIME_GAUGE] == {(): 9.0}
        assert parsed[names.KERNEL_BACKEND_INFO] == {
            (("backend", "c"),): 1
        }

    def test_hit_ratio_zero_without_lookups(self):
        registry = names.stats_registry({"cache": {"l1": {"hits": 0, "misses": 0}}})
        parsed = parse_metrics(registry.render())
        assert parsed[names.L1_HIT_RATIO_GAUGE][()] == 0.0


# -- divide-by-zero guards (satellite b) --------------------------------------


class TestFreshServerStats:
    def test_lru_cache_hit_ratio_fresh(self):
        cache = LruCache(maxsize=4)
        stats = cache.stats()
        assert stats["hit_ratio"] == 0.0
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        assert cache.stats()["hit_ratio"] == 0.5

    def test_broker_drain_rate_fresh(self):
        stats = Broker().stats()
        assert stats["queue"]["drain_rate_rps"] == 0.0
        assert stats["uptime_seconds"] >= 0.0
        assert stats["cache"]["l1"]["hit_ratio"] == 0.0


# -- pipeline events (satellite c) --------------------------------------------


class TestEventTraceFields:
    def test_round_trip_with_trace(self):
        event = PipelineEvent(kind="job-done", job_id="j", seconds=0.5,
                              trace_id="t1", span_id="s1")
        payload = event.to_dict()
        assert payload["trace_id"] == "t1" and payload["span_id"] == "s1"
        assert PipelineEvent(**payload).to_dict() == payload

    def test_untraced_events_unchanged(self):
        payload = PipelineEvent(kind="job-start", job_id="j").to_dict()
        assert "trace_id" not in payload and "span_id" not in payload
        assert PipelineEvent(**payload).to_dict() == payload

    def test_json_round_trip(self):
        event = PipelineEvent(kind="job-done", job_id="j", trace_id="t")
        assert PipelineEvent(
            **json.loads(json.dumps(event.to_dict()))
        ).to_dict() == event.to_dict()


# -- span trees through the runner (satellite c) ------------------------------


class TestRunnerSpans:
    def test_sharded_run_parents_job_spans_under_root(self):
        with start_trace("sweep") as root:
            trace_id = root.trace_id
            run_jobs(pareto_jobs(), shards=2)
        records = ring_spans(trace_id)
        by_name = {record["name"]: record for record in records}
        root_id = by_name["sweep"]["span_id"]
        job_names = {"job:figure1a", "job:fork-join-early"}
        assert job_names <= set(by_name)
        for name in job_names:
            assert by_name[name]["parent_id"] == root_id
            assert by_name[name]["seconds"] > 0
        tree = assemble_tree(records)
        assert [node["name"] for node in tree] == ["sweep"]

    def test_serial_run_stamps_events_and_nests_stages(self):
        seen = []
        with start_trace("sweep") as root:
            trace_id = root.trace_id
            run_jobs(pareto_jobs(), shards=1, events=seen.append)
        done = [e for e in seen if e.kind == "job-done"]
        assert done and all(e.trace_id == trace_id for e in done)
        assert all(e.span_id for e in done)
        by_name = {r["name"]: r for r in ring_spans(trace_id)}
        job = by_name["job:figure1a"]
        for stage in ("stage:build", "stage:optimize", "stage:simulate"):
            assert by_name[stage]["trace_id"] == trace_id
        assert by_name["stage:simulate"]["annotations"]["kernel_backend"]
        assert job["parent_id"] == by_name["sweep"]["span_id"]

    def test_untraced_run_emits_no_spans_or_stamps(self):
        seen = []
        run_jobs(pareto_jobs(), shards=1, events=seen.append)
        assert ring_spans() == []
        assert all(e.trace_id is None and e.span_id is None for e in seen)


# -- determinism (satellite c + acceptance) -----------------------------------


class TestTracingChangesNothing:
    def test_traced_and_untraced_runs_identical(self):
        baseline = run_jobs(pareto_jobs(), shards=1)
        with start_trace("check"):
            traced = run_jobs(pareto_jobs(), shards=1)
        assert traced == baseline

    def test_trace_field_outside_cache_key(self):
        body = {"kind": "simulate", "scenario": "figure1a", "cycles": 300}
        plain = prepare_request(dict(body))
        traced = prepare_request({**body, TRACE_FIELD: "cafe0123/beef4567"})
        assert traced.key == plain.key
        assert traced.batch_key == plain.batch_key
        assert traced.trace_id == "cafe0123" and plain.trace_id is None
        assert traced.trace_ref == "cafe0123/beef4567"

    def test_bad_trace_field_rejected(self):
        body = {"kind": "simulate", "scenario": "figure1a",
                TRACE_FIELD: "a/b/c"}
        with pytest.raises(RequestError):
            prepare_request(body)


# -- profiling views ----------------------------------------------------------


class TestProfileViews:
    def test_self_time_subtracts_children(self):
        spans = [
            {"span_id": "a", "parent_id": None, "name": "outer",
             "seconds": 1.0, "started_unix": 1.0},
            {"span_id": "b", "parent_id": "a", "name": "inner",
             "seconds": 0.75, "started_unix": 1.1},
        ]
        rows = {row["name"]: row for row in self_times(spans)}
        assert rows["outer"]["self"] == pytest.approx(0.25)
        assert rows["inner"]["self"] == pytest.approx(0.75)

    def test_chrome_trace_shape(self):
        with start_trace("root") as root:
            trace_id = root.trace_id
            with span("child"):
                pass
        document = chrome_trace(ring_spans(trace_id))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        assert all(event["dur"] >= 0 for event in events)
        names_ = {event["name"] for event in events}
        assert names_ == {"root", "child"}


# -- live service end to end --------------------------------------------------


class TestServiceObservability:
    def test_trace_metrics_and_determinism_end_to_end(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread

        body = {"kind": "simulate", "scenario": "figure1a", "cycles": 300}
        with ServerThread(store=str(tmp_path), queue_limit=16) as server:
            client = ServiceClient(port=server.port, timeout=120)
            client.wait_until_healthy()
            with start_trace("submit:test") as root:
                trace_id = root.trace_id
                traced_doc = client.submit_and_wait(dict(body))
            # one trace id observable end to end: client root -> broker
            # request span -> queue wait -> batch execution
            spans = client.trace_spans(trace_id)["spans"]
            by_name = {record["name"]: record for record in spans}
            assert {"request", "queue-wait", "simulate-batch"} <= set(by_name)
            assert all(r["trace_id"] == trace_id for r in spans)
            request = by_name["request"]
            assert request["parent_id"] == by_name["submit:test"]["span_id"]
            assert by_name["queue-wait"]["parent_id"] == request["span_id"]
            assert by_name["simulate-batch"]["parent_id"] == request["span_id"]
            # spans flow into the JSONL sink next to the store
            sink = store_sink_path(tmp_path)
            assert sink.exists()
            assert any(
                record["trace_id"] == trace_id
                for record in read_sink(sink, trace_id)
            )
            # trace ids never leak into results: an untraced twin is a
            # cache hit returning the identical document
            untraced_doc = client.submit_and_wait(dict(body))
            assert untraced_doc["result"] == traced_doc["result"]
            assert untraced_doc["cached"] in ("memory", "store")
            assert "trace_id" not in json.dumps(untraced_doc["result"])
            # /metrics renders valid Prometheus text with live values
            parsed = parse_metrics(client.metrics())
            assert parsed["repro_requests_submitted_total"][()] >= 2
            assert parsed["repro_uptime_seconds"][()] > 0
            assert "repro_request_seconds_count" in parsed
            hits = parsed["repro_request_cache_hits_l1_total"][()]
            store_hits = parsed["repro_request_cache_hits_store_total"][()]
            assert hits + store_hits >= 1

    def test_trace_endpoint_rejects_bad_ids(self, tmp_path):
        from repro.service.server import trace_endpoint

        assert trace_endpoint("not valid!")[0] == 400
        assert trace_endpoint("a/b")[0] == 400
        status, payload = trace_endpoint("aaaabbbb00001111")
        assert status == 200 and payload["spans"] == []


# -- retry / journal counters -------------------------------------------------


class TestGlobalCounters:
    def test_retry_policy_counts_retries(self):
        from repro.resilience.retry import RetryPolicy

        registry = metrics_module.global_registry()
        counter = registry.counter("repro_retries_total", "")
        before = counter.value()
        calls = {"n": 0}

        def flaky(attempt):
            calls["n"] += 1
            if calls["n"] < 3:
                raise KeyError("boom")
            return "ok"

        policy = RetryPolicy(attempts=5, base_delay=0.0, max_delay=0.0)
        assert policy.call(flaky, retry_on=(KeyError,)) == "ok"
        assert counter.value() == before + 2

    def test_journal_records_counted(self, tmp_path):
        from repro.resilience.journal import RunJournal

        registry = metrics_module.global_registry()
        counter = registry.counter("repro_journal_records_total", "")
        before = counter.value()
        journal = RunJournal(tmp_path, "run-1")
        journal.record_done("job-a", "key-a")
        assert counter.value() == before + 1
