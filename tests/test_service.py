"""Tests for the optimization service (repro.service).

Covers the protocol (validation + cache keys), the broker (coalescing,
tiered caching, batching, backpressure) and the HTTP server/client pair
end-to-end, including the acceptance property: a result served over HTTP is
bit-identical to the direct pipeline run.
"""

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.experiments.presets import RunOptions, run_preset
from repro.experiments.reporting import render_event_json
from repro.gmg.simulation import simulate_throughput
from repro.obs.metrics import parse_metrics
from repro.pipeline.events import PipelineEvent
from repro.resilience.retry import RetryPolicy
from repro.service import (
    Broker,
    RequestError,
    ServerThread,
    ServiceBusy,
    ServiceClient,
    prepare_request,
)
from repro.service.client import RequestFailed, ServiceError
from repro.service.protocol import MAX_EDGE_COUNT, MAX_SIM_CYCLES
from repro.sim.batch import default_warmup
from repro.sim.cache import clear_caches
from repro.workloads.registry import build_scenario

#: A fast run request used throughout (sub-second end to end).
RUN_BODY = {
    "kind": "run",
    "target": "figure1a",
    "options": {"params": {"alpha": 0.9}, "cycles": 600, "epsilon": 0.2},
}

SIM_BODY = {
    "kind": "simulate",
    "scenario": "figure2",
    "params": {"alpha": 0.8},
    "cycles": 500,
    "seed": 3,
}


class TestProtocol:
    def test_rejects_malformed_bodies(self):
        with pytest.raises(RequestError):
            prepare_request(["not", "an", "object"])
        with pytest.raises(RequestError):
            prepare_request({"kind": "teleport"})
        with pytest.raises(RequestError):
            prepare_request({"kind": "run"})  # no target
        with pytest.raises(RequestError):
            prepare_request({"kind": "run", "target": "no-such-target"})
        with pytest.raises(RequestError):
            prepare_request({"kind": "run", "target": "figure1a",
                             "options": {"bogus_option": 1}})
        with pytest.raises(RequestError):
            prepare_request({"kind": "run", "target": "figure1a",
                             "options": {"params": {"nope": 1}}})

    def test_rejects_bad_simulate_requests(self):
        with pytest.raises(RequestError):
            prepare_request({"kind": "simulate"})
        with pytest.raises(RequestError):
            prepare_request({**SIM_BODY, "mode": "spice"})
        with pytest.raises(RequestError):
            prepare_request({**SIM_BODY, "cycles": 0})
        with pytest.raises(RequestError):
            prepare_request({**SIM_BODY, "seed": None})
        with pytest.raises(RequestError):
            prepare_request({**SIM_BODY, "tokens": {"999": 1}})
        with pytest.raises(RequestError):
            prepare_request({**SIM_BODY, "params": {"alpha": 0.8, "beta": 1}})

    def test_bounds_the_size_of_a_simulate_request(self):
        # cycles + warmup and every token/buffer count are capped; the
        # largest accepted values still prepare.
        fits = MAX_SIM_CYCLES - 10
        prepare_request({**SIM_BODY, "cycles": fits, "warmup": 10})
        prepare_request({**SIM_BODY, "buffers": {"0": MAX_EDGE_COUNT}})
        for body in (
            {**SIM_BODY, "cycles": MAX_SIM_CYCLES},  # + default warmup
            {**SIM_BODY, "cycles": fits, "warmup": 11},
            {**SIM_BODY, "buffers": {"0": MAX_EDGE_COUNT + 1}},
            {**SIM_BODY, "buffers": {"0": 10**9}},
            {**SIM_BODY, "tokens": {"1": 4_000_000}},
            {**SIM_BODY, "tokens": {"0": -1}},
        ):
            with pytest.raises(RequestError):
                prepare_request(body)

    def test_simulate_key_normalizes_defaults(self):
        # Explicitly passing a default parameter must key identically to
        # omitting it — otherwise the cache fragments on spelling.
        explicit = prepare_request({**SIM_BODY, "warmup": None})
        spelled = prepare_request({
            **SIM_BODY,
            "warmup": default_warmup(SIM_BODY["cycles"]),
            "mode": "tgmg",
        })
        assert explicit.key == spelled.key
        assert explicit.batch_key == spelled.batch_key

    def test_scenario_run_key_tracks_job_identity(self):
        a = prepare_request(RUN_BODY)
        b = prepare_request(json.loads(json.dumps(RUN_BODY)))
        assert a.key == b.key
        different = prepare_request({
            **RUN_BODY,
            "options": {**RUN_BODY["options"], "cycles": 601},
        })
        assert different.key != a.key

    def test_compatible_simulations_share_a_batch_key(self):
        a = prepare_request(SIM_BODY)
        b = prepare_request({**SIM_BODY, "seed": 4, "tokens": {"0": 1}})
        incompatible = prepare_request({**SIM_BODY, "cycles": 600})
        assert a.batch_key == b.batch_key
        assert a.key != b.key
        assert incompatible.batch_key != a.batch_key


class TestRunOptions:
    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(Exception):
            RunOptions.from_mapping({"cycle_count": 5})

    def test_from_mapping_coerces_or_rejects_value_types(self):
        # Numeric strings coerce (lenient, like the CLI)...
        options = RunOptions.from_mapping({"cycles": "800", "epsilon": "0.2"})
        assert options.cycles == 800
        assert options.epsilon == 0.2
        # ...but junk is a 400 at admission, not a TypeError mid-execution.
        with pytest.raises(RequestError):
            prepare_request({"kind": "run", "target": "figure1a",
                             "options": {"cycles": "lots"}})

    def test_from_mapping_rejects_remote_execution_knobs(self):
        # A remote caller must never direct server-side filesystem writes
        # or worker fan-out; the serving side substitutes its own.
        for knob in ({"store": "/etc/cron.d/x"}, {"shards": 64}):
            with pytest.raises(Exception):
                RunOptions.from_mapping({"cycles": 100, **knob})
        with pytest.raises(RequestError):
            prepare_request({"kind": "run", "target": "figure1a",
                             "options": {"store": "/tmp/evil"}})

    def test_describe_excludes_execution_knobs(self):
        options = RunOptions(cycles=100, names=("s27",), shards=4,
                             store="/tmp/x")
        described = options.describe()
        assert described["cycles"] == 100
        assert described["names"] == ["s27"]
        assert "shards" not in described
        assert "store" not in described

    def test_with_execution_always_overwrites(self):
        options = RunOptions(cycles=100, shards=4, store="/tmp/theirs")
        owned = options.with_execution(shards=1, store=None)
        assert owned.shards == 1
        assert owned.store is None
        assert owned.cycles == 100


def _run_broker(coroutine):
    return asyncio.run(coroutine)


class TestBroker:
    def test_identical_inflight_requests_coalesce(self, monkeypatch):
        """Two identical concurrent submits: one execution, both get the result."""
        release = threading.Event()
        calls = []

        def slow_execute(group, store=None, shards=1, emit=None):
            calls.append(group.lanes)
            release.wait(timeout=30)
            return [{"value": 42} for _ in group.requests]

        monkeypatch.setattr(
            "repro.service.broker.execute_group", slow_execute
        )

        async def scenario():
            broker = Broker()
            await broker.start()
            first = await broker.submit(RUN_BODY)
            second = await broker.submit(dict(RUN_BODY))
            assert second.cached == "coalesced"
            assert second.primary is first
            release.set()
            await broker.join()
            # Completion may land a beat after join(); poll briefly.
            for _ in range(100):
                if first.status == "done" and second.status == "done":
                    break
                await asyncio.sleep(0.01)
            assert first.result == {"value": 42}
            assert second.result == {"value": 42}
            stats = broker.stats()
            await broker.close(drain=False)
            return stats

        stats = _run_broker(scenario())
        assert calls == [1]  # exactly one execution
        assert stats["requests"]["coalesced"] == 1
        assert stats["requests"]["completed"] == 2

    def test_repeat_after_completion_hits_memory_cache(self, monkeypatch):
        calls = []

        def execute(group, store=None, shards=1, emit=None):
            calls.append(group.lanes)
            return [{"value": 7} for _ in group.requests]

        monkeypatch.setattr("repro.service.broker.execute_group", execute)

        async def scenario():
            broker = Broker()
            await broker.start()
            first = await broker.submit(RUN_BODY)
            await broker.join()
            repeat = await broker.submit(dict(RUN_BODY))
            stats = broker.stats()
            await broker.close(drain=False)
            assert first.result == repeat.result == {"value": 7}
            assert repeat.cached == "memory"
            assert repeat.status == "done"
            return stats

        stats = _run_broker(scenario())
        assert calls == [1]  # the repeat never executed
        assert stats["requests"]["cache_hits_memory"] == 1

    def test_store_tier_survives_memory_loss(self, tmp_path, monkeypatch):
        calls = []

        def execute(group, store=None, shards=1, emit=None):
            from repro.service.worker import execute_group as real
            calls.append(group.lanes)
            return real(group, store=store, shards=shards, emit=emit)

        monkeypatch.setattr("repro.service.broker.execute_group", execute)
        store = str(tmp_path / "store")

        async def first_life():
            broker = Broker(store=store)
            await broker.start()
            record = await broker.submit(RUN_BODY)
            await broker.join()
            for _ in range(100):
                if record.status in ("done", "failed"):
                    break
                await asyncio.sleep(0.01)
            assert record.status == "done"
            result = record.result
            await broker.close(drain=False)
            return result

        async def second_life():
            broker = Broker(store=store)  # fresh L1
            await broker.start()
            record = await broker.submit(dict(RUN_BODY))
            stats = broker.stats()
            await broker.close(drain=False)
            return record, stats

        original = _run_broker(first_life())
        record, stats = _run_broker(second_life())
        assert calls == [1]  # the second life recomputed nothing
        assert record.cached == "store"
        assert record.result == original
        assert stats["requests"]["cache_hits_store"] == 1

    def test_bounded_queue_rejects_excess_load(self, monkeypatch):
        release = threading.Event()

        def blocked(group, store=None, shards=1, emit=None):
            release.wait(timeout=30)
            return [{"ok": True} for _ in group.requests]

        monkeypatch.setattr("repro.service.broker.execute_group", blocked)

        async def scenario():
            broker = Broker(queue_limit=1)
            await broker.start()
            bodies = [
                {**RUN_BODY, "options": {**RUN_BODY["options"], "cycles": c}}
                for c in (601, 602, 603, 604)
            ]
            await broker.submit(bodies[0])  # picked up by the worker
            # Give the work loop a chance to dequeue the first request.
            for _ in range(100):
                if broker.stats()["queue"]["busy"]:
                    break
                await asyncio.sleep(0.01)
            await broker.submit(bodies[1])  # fills the queue
            with pytest.raises(Exception) as info:
                await broker.submit(bodies[2])
            release.set()
            stats = broker.stats()
            await broker.close(drain=True)
            return info, stats

        info, stats = _run_broker(scenario())
        from repro.service.protocol import QueueFullError

        assert isinstance(info.value, QueueFullError)
        assert stats["requests"]["rejected"] == 1

    def test_concurrent_burst_cannot_bypass_the_queue_limit(self, monkeypatch):
        """Distinct submits arriving together respect queue_limit even while
        each is suspended on its tier-2 store probe."""
        def slow_probe(self, prepared):
            time.sleep(0.1)
            return None

        monkeypatch.setattr(Broker, "_tier2_lookup", slow_probe)

        async def scenario():
            broker = Broker(queue_limit=1)  # worker never started
            bodies = [
                {**RUN_BODY, "options": {**RUN_BODY["options"], "cycles": c}}
                for c in (801, 802, 803)
            ]
            outcomes = await asyncio.gather(
                *(broker.submit(body) for body in bodies),
                return_exceptions=True,
            )
            stats = broker.stats()
            await broker.close(drain=False)
            return outcomes, stats

        from repro.service.protocol import QueueFullError

        outcomes, stats = _run_broker(scenario())
        rejected = [o for o in outcomes if isinstance(o, QueueFullError)]
        admitted = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(admitted) == 1
        assert len(rejected) == 2
        assert stats["queue"]["depth"] == 1
        assert stats["requests"]["rejected"] == 2

    def test_compatible_simulations_batch_into_one_group(self, monkeypatch):
        lanes_seen = []
        from repro.service.worker import execute_group as real

        def spy(group, store=None, shards=1, emit=None):
            lanes_seen.append((group.kind, group.lanes))
            return real(group, store=store, shards=shards, emit=emit)

        monkeypatch.setattr("repro.service.broker.execute_group", spy)

        async def scenario():
            broker = Broker()
            # Queue all lanes before starting the work loop so one drain
            # sees them together (deterministic batching).
            seeds = (11, 12, 13)
            records = [
                await broker.submit({**SIM_BODY, "seed": seed})
                for seed in seeds
            ]
            await broker.start()
            await broker.join()
            for _ in range(200):
                if all(r.status in ("done", "failed") for r in records):
                    break
                await asyncio.sleep(0.01)
            values = [r.result["throughput"] for r in records]
            await broker.close(drain=False)
            return seeds, values

        clear_caches()
        seeds, values = _run_broker(scenario())
        assert lanes_seen == [("simulate", 3)]  # one group, three lanes
        # Each lane is bit-identical to an independent serial simulation.
        rrg = build_scenario("figure2", {"alpha": 0.8})
        clear_caches()
        for seed, value in zip(seeds, values):
            expected = simulate_throughput(
                rrg, cycles=SIM_BODY["cycles"], seed=seed
            )
            assert value == expected

    def test_failed_requests_report_the_error(self):
        async def scenario():
            broker = Broker()
            await broker.start()
            # 's9999' passes protocol validation (the iscas scenario accepts
            # any name string) but fails at build time inside the pipeline.
            record = await broker.submit({
                "kind": "run", "target": "table1",
                "options": {"names": ["s9999"], "cycles": 200},
            })
            await broker.join()
            for _ in range(200):
                if record.status in ("done", "failed"):
                    break
                await asyncio.sleep(0.01)
            status = record.status
            error = record.error
            await broker.close(drain=False)
            return status, error

        status, error = _run_broker(scenario())
        assert status == "failed"
        assert "s9999" in error


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("service-store"))
    with ServerThread(store=store, queue_limit=8) as server:
        client = ServiceClient(port=server.port, timeout=120)
        client.wait_until_healthy()
        yield server, client


class TestHttpEndToEnd:
    def test_submit_result_is_bit_identical_to_direct_run(self, live_server):
        _, client = live_server
        document = client.submit_and_wait(RUN_BODY, timeout=120)
        direct = run_preset(
            "figure1a", RunOptions.from_mapping(RUN_BODY["options"])
        )
        assert document["status"] == "done"
        assert document["result"] == direct

    def test_repeat_request_is_served_from_cache(self, live_server):
        _, client = live_server
        before = client.stats()["requests"]
        start = time.perf_counter()
        document = client.submit_and_wait(RUN_BODY, timeout=30)
        elapsed = time.perf_counter() - start
        after = client.stats()["requests"]
        assert document["cached"] in ("memory", "store")
        hits = (
            after["cache_hits_memory"] + after["cache_hits_store"]
            - before["cache_hits_memory"] - before["cache_hits_store"]
        )
        assert hits == 1
        assert elapsed < 5.0  # a cache hit never pays the MILP

    def test_done_submit_carries_its_result(self, live_server, monkeypatch):
        _, client = live_server
        body = {**SIM_BODY, "seed": 77}
        computed = client.submit_and_wait(body, timeout=60)
        record = client.submit(dict(body))
        assert record["status"] == "done"
        assert record["result"] == computed["result"]
        exchanges = []
        exchange = client._exchange_once
        monkeypatch.setattr(
            client, "_exchange_once",
            lambda *args: exchanges.append(args) or exchange(*args),
        )
        # The first result() answers from the submit reply, with no call;
        # the reply is used once, so the second asks /result itself.
        cached = client.result(record["id"])
        assert exchanges == []
        fetched = client.result(record["id"])
        assert len(exchanges) == 1
        assert json.dumps(cached) == json.dumps(fetched)
        assert fetched["cached"] in ("memory", "store")

    def test_events_stream_to_the_waiting_client(self, live_server):
        _, client = live_server
        body = {
            "kind": "run", "target": "figure1a",
            "options": {"params": {"alpha": 0.7}, "cycles": 500,
                        "epsilon": 0.2},
        }
        events = []
        client.submit_and_wait(body, timeout=120, on_event=events.append)
        kinds = [event["kind"] for event in events]
        assert "pipeline-start" in kinds
        assert "job-done" in kinds
        assert kinds.count("pipeline-done") == 1
        # Events round-trip through the JSON renderer.
        for event in events:
            line = render_event_json(PipelineEvent(**event))
            assert json.loads(line)["kind"] == event["kind"]

    def test_simulate_roundtrip_and_cache(self, live_server):
        _, client = live_server
        body = {**SIM_BODY, "seed": 99}
        first = client.submit_and_wait(body, timeout=60)
        second = client.submit_and_wait(dict(body), timeout=60)
        assert first["result"]["throughput"] == second["result"]["throughput"]
        assert second["cached"] in ("memory", "store")
        rrg = build_scenario("figure2", {"alpha": 0.8})
        assert first["result"]["throughput"] == simulate_throughput(
            rrg, cycles=SIM_BODY["cycles"], seed=99
        )

    def test_http_error_paths(self, live_server):
        _, client = live_server
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "run", "target": "missing-target"})
        assert info.value.status == 400
        with pytest.raises(ServiceError) as info:
            client.status("req-unknown")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client.result("req-unknown")
        assert info.value.status == 404

    def test_failed_request_surfaces_through_wait(self, live_server):
        _, client = live_server
        record = client.submit({
            "kind": "run", "target": "table1",
            "options": {"names": ["s9999"], "cycles": 200},
        })
        with pytest.raises(RequestFailed):
            client.wait(record["id"], timeout=60)

    def test_metrics_count_kernel_lane_cycles(self, live_server):
        _, client = live_server
        before = parse_metrics(client.metrics())
        # A seed no other test asks, so the lane is simulated, not cached.
        document = client.submit_and_wait(
            {**SIM_BODY, "seed": 987_654, "warmup": 100}, timeout=60
        )
        assert document["status"] == "done" and not document["cached"]
        after = parse_metrics(client.metrics())
        name = "repro_sim_kernel_lane_cycles_total"
        added = after[name][()] - before.get(name, {}).get((), 0.0)
        from repro.sim.kernels import kernel_backend

        assert added == (500 + 100 if kernel_backend() == "c" else 0)
        assert "repro_sim_kernel_seconds_total" in after

    def test_stats_shape(self, live_server):
        _, client = live_server
        stats = client.stats()
        assert set(stats["cache"]) == {"l1", "store", "sim"}
        assert stats["queue"]["limit"] == 8
        assert stats["requests"]["submitted"] >= 1
        assert stats["cache"]["l1"]["maxsize"] == 256
        # Kernel provenance: the backend and the batch thread count.
        from repro.sim.kernels import kernel_info

        info = kernel_info()
        assert stats["kernel_backend"] == info["backend"]
        assert stats["kernel_workers"] == info["workers"] >= 1
        # The drain-rate estimate behind the 429 retry_after hint is
        # published, not private: after at least one completed request the
        # EMA and its rps reciprocal exist.
        queue = stats["queue"]
        # No call is held between tests; /metrics mirrors the same gauge.
        assert queue["held"] == 0
        exposition = parse_metrics(client.metrics())
        assert exposition["repro_queue_held"] == {(): 0.0}
        assert "ema_request_seconds" in queue
        assert "drain_rate_rps" in queue
        if queue["ema_request_seconds"]:
            assert queue["drain_rate_rps"] == pytest.approx(
                1.0 / queue["ema_request_seconds"], rel=0.01
            )


class TestServiceBusySurface:
    def test_429_maps_to_service_busy(self, monkeypatch):
        release = threading.Event()

        def blocked(group, store=None, shards=1, emit=None):
            release.wait(timeout=30)
            return [{"ok": True} for _ in group.requests]

        monkeypatch.setattr("repro.service.broker.execute_group", blocked)
        try:
            with ServerThread(queue_limit=1) as server:
                client = ServiceClient(port=server.port, timeout=30)
                client.wait_until_healthy()
                bodies = [
                    {**RUN_BODY,
                     "options": {**RUN_BODY["options"], "cycles": c}}
                    for c in (701, 702, 703, 704)
                ]
                client.submit(bodies[0])
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["queue"]["busy"]:
                        break
                    time.sleep(0.02)
                client.submit(bodies[1])
                with pytest.raises(ServiceBusy):
                    for body in bodies[2:]:
                        client.submit(body)
        finally:
            release.set()

    def test_submit_and_wait_retries_429_after_its_hint(self, monkeypatch):
        client = ServiceClient(port=1, retry=_fast_retry())
        attempts, pauses = [], []

        def fake_submit(body):
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceBusy(429, "queue full", retry_after=0.25)
            return {"id": "req", "status": "done"}

        client.submit = fake_submit
        client.result = lambda rid: {"id": rid, "status": "done", "result": 7}
        monkeypatch.setattr("repro.service.client.time.sleep", pauses.append)
        document = client.submit_and_wait(dict(RUN_BODY))
        assert document["result"] == 7
        assert len(attempts) == 3
        assert pauses == [0.25, 0.25]  # the server's hint, not the backoff

    def test_bare_503_is_not_retried(self):
        client = ServiceClient(port=1, retry=_fast_retry())
        attempts = []

        def fake_submit(body):
            attempts.append(1)
            raise ServiceBusy(503, "shutting down", retry_after=None)

        client.submit = fake_submit
        with pytest.raises(ServiceBusy):
            client.submit_and_wait(dict(RUN_BODY))
        assert len(attempts) == 1  # draining for good: fail fast

    def test_draining_server_503_is_not_retried(self):
        with ServerThread() as server:
            client = ServiceClient(port=server.port, retry=_fast_retry())
            client.wait_until_healthy()
            # What the first SIGTERM does to admission, without the exit.
            server.server.broker._accepting = False
            calls = []
            submit = client.submit
            client.submit = lambda body: calls.append(body) or submit(body)
            with pytest.raises(ServiceBusy) as info:
                client.submit_and_wait(dict(RUN_BODY))
            assert info.value.status == 503
            assert len(calls) == 1


def _gated_execute(release, events=0, fail=False):
    """An ``execute_group`` stand-in: emits ``events`` events per request,
    blocks until ``release`` is set, then answers (or raises)."""

    def execute(group, store=None, shards=1, emit=None):
        for number in range(events):
            for request_id in group.request_ids:
                emit(request_id, {"kind": "step", "n": number})
            time.sleep(0.02)
        release.wait(timeout=30)
        if fail:
            raise RuntimeError("gated failure")
        return [{"value": 42} for _ in group.requests]

    return execute


def _in_thread(call):
    """Run ``call`` on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        started = time.monotonic()
        try:
            outcome["value"] = call()
        except Exception as exc:  # noqa: BLE001 — handed to the test
            outcome["error"] = exc
        outcome["finished"] = time.monotonic()
        outcome["seconds"] = outcome["finished"] - started

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _until_held(client, count=1):
    deadline = time.monotonic() + 10
    while client.stats()["queue"]["held"] < count:
        assert time.monotonic() < deadline, "the call never parked"
        time.sleep(0.01)


class TestHeldCalls:
    def test_held_result_returns_as_soon_as_the_record_finishes(
        self, monkeypatch
    ):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group", _gated_execute(release)
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                record = client.submit(RUN_BODY)
                thread, outcome = _in_thread(
                    lambda: client.result(record["id"], wait=20)
                )
                _until_held(client)
                # While parked, the hold is counted in /stats and /metrics.
                exposition = parse_metrics(client.metrics())
                assert exposition["repro_queue_held"] == {(): 1.0}
                release.set()
                thread.join(timeout=30)
                assert outcome["value"] == {
                    "id": record["id"], "status": "done", "cached": None,
                    "result": {"value": 42},
                }
                assert outcome["seconds"] < 5.0  # woken, not timed out
                assert client.stats()["queue"]["held"] == 0
            finally:
                release.set()

    def test_held_result_answers_202_after_the_hold(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group", _gated_execute(release)
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                record = client.submit(RUN_BODY)
                started = time.monotonic()
                reply = client.result(record["id"], wait=0.3)
                elapsed = time.monotonic() - started
                assert reply["status"] in ("queued", "running")
                assert "result" not in reply
                assert 0.3 <= elapsed < 5.0
                with pytest.raises(TimeoutError):
                    client.wait(record["id"], timeout=0.3)
            finally:
                release.set()

    def test_coalesced_follower_hold_wakes_with_its_primary(
        self, monkeypatch
    ):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group", _gated_execute(release)
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                client.submit(RUN_BODY)
                follower = client.submit(dict(RUN_BODY))
                assert follower["cached"] == "coalesced"
                assert follower["status"] != "done"
                thread, outcome = _in_thread(
                    lambda: client.wait(follower["id"], timeout=30)
                )
                _until_held(client)
                release.set()
                thread.join(timeout=30)
                assert outcome["value"]["result"] == {"value": 42}
                assert outcome["value"]["cached"] == "coalesced"
                assert outcome["seconds"] < 5.0
            finally:
                release.set()

    @pytest.mark.parametrize("stream", [False, True])
    def test_failure_during_a_hold_raises_request_failed(
        self, monkeypatch, stream
    ):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group",
            _gated_execute(release, fail=True),
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                record = client.submit(RUN_BODY)
                on_event = (lambda event: None) if stream else None
                thread, outcome = _in_thread(
                    lambda: client.wait(
                        record["id"], timeout=30, on_event=on_event
                    )
                )
                _until_held(client)
                release.set()
                thread.join(timeout=30)
                assert isinstance(outcome["error"], RequestFailed)
                assert "gated failure" in str(outcome["error"])
            finally:
                release.set()

    def test_on_event_gets_every_event_exactly_once(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group",
            _gated_execute(release, events=8),
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                record = client.submit(RUN_BODY)
                events = []
                threading.Timer(0.5, release.set).start()
                document = client.wait(
                    record["id"], timeout=30, on_event=events.append
                )
                assert document["result"] == {"value": 42}
                assert events == [{"kind": "step", "n": n} for n in range(8)]
            finally:
                release.set()

    def test_drain_releases_holds_with_503(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group", _gated_execute(release)
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(
                    port=server.port, timeout=30, retry=_fast_retry()
                )
                record = client.submit(RUN_BODY)
                held = [
                    _in_thread(lambda: client.result(record["id"], wait=20)),
                    _in_thread(lambda: client.status(record["id"], wait=20)),
                ]
                _until_held(client, 2)
                draining = time.monotonic()
                client.shutdown()
                for thread, outcome in held:
                    thread.join(timeout=30)
                    assert isinstance(outcome["error"], ServiceBusy)
                    assert outcome["error"].status == 503
                    assert outcome["finished"] - draining < 1.0
            finally:
                release.set()

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "", "1e9", "inf"])
    def test_wait_is_validated_and_clamped(self, monkeypatch, value):
        monkeypatch.setattr("repro.service.server.READ_TIMEOUT_S", 0.3)
        release = threading.Event()
        monkeypatch.setattr(
            "repro.service.broker.execute_group", _gated_execute(release)
        )
        with ServerThread() as server:
            try:
                client = ServiceClient(port=server.port, timeout=30)
                record = client.submit(RUN_BODY)
                for path in (f"/result/{record['id']}?wait={value}",
                             f"/status/{record['id']}?events_from=0"
                             f"&wait={value}"):
                    request = f"GET {path} HTTP/1.1\r\n\r\n".encode()
                    started = time.monotonic()
                    status, body = _raw_exchange(server.port, request)
                    if value in ("1e9", "inf"):
                        # Clamped to the read deadline, then answered.
                        assert status == (202 if "result" in path else 200)
                        assert 0.3 <= time.monotonic() - started < 5.0
                    else:
                        assert status == 400
                        assert "invalid wait" in body["error"]
            finally:
                release.set()


def _fast_retry() -> RetryPolicy:
    return RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


def _raw_exchange(port, payload, timeout=10.0):
    """Send raw bytes without closing our side; return (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestRequestFraming:
    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "+3", "\u00b2"])
    def test_bad_content_length_is_400(self, live_server, length):
        server, client = live_server
        request = (
            "POST /submit HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode("utf-8")
        status, body = _raw_exchange(server.port, request)
        assert status == 400
        assert "Content-Length" in body["error"]
        client.wait_until_healthy()

    def test_stalled_request_is_408(self, monkeypatch):
        monkeypatch.setattr("repro.service.server.READ_TIMEOUT_S", 0.5)
        with ServerThread() as server:
            # A body shorter than its Content-Length, and headers that never
            # end: both wait out the read deadline, then get 408.
            for request in (
                b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
                b"GET /healthz HTTP/1.1\r\nHost: local",
            ):
                started = time.monotonic()
                status, body = _raw_exchange(server.port, request)
                assert status == 408
                assert "within" in body["error"]
                assert time.monotonic() - started < 5.0
            ServiceClient(port=server.port, timeout=10).wait_until_healthy()

    def test_overlong_head_line_is_431(self, live_server):
        server, client = live_server
        for request in (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /healthz?" + b"a" * 9_000 + b" HTTP/1.1\r\n\r\n",
        ):
            status, body = _raw_exchange(server.port, request)
            assert status == 431
            assert "8192 bytes" in body["error"]
        client.wait_until_healthy()

    def test_header_count_is_capped_at_100(self, live_server):
        server, client = live_server

        def request(count):
            headers = b"".join(b"X-%d: v\r\n" % i for i in range(count))
            return b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"

        assert _raw_exchange(server.port, request(100))[0] == 200
        status, body = _raw_exchange(server.port, request(101))
        assert status == 431
        assert "100 header lines" in body["error"]
        client.wait_until_healthy()


_FUZZ_METHODS = ["GET", "POST", "PUT", "get", "", "G\x00T"]
#: Every route but /shutdown, plus near-misses and bad parameters.
_FUZZ_PATHS = [
    "/healthz", "/stats", "/metrics", "/submit", "/status/req-1",
    "/status/req-1?events_from=zz", "/result/req-1", "/trace/abc",
    "/result/req-1?wait=abc", "/result/req-1?wait=-1",
    "/result/req-1?wait=nan", "/result/req-1?wait=inf",
    "/result/req-1?wait=1e9", "/status/req-1?events_from=1&wait=inf",
    "/trace/../x", "/", "/nope", "*", "",
]
_FUZZ_BODIES = [
    b"", b"{}", b"[]", b"null", b"{not json", "é".encode("latin-1"),
    b'{"kind": "run"}', b'{"kind": "run", "target": "no-such-target"}',
    b'{"kind": "simulate", "scenario": "nope"}',
    b'{"kind": "simulate", "scenario": "figure2", "cycles": 60, "seed": 5}',
    b'{"kind": "simulate", "scenario": "figure2", "cycles": 10000000}',
    b'{"kind": "simulate", "scenario": "figure2", "cycles": 9999999,'
    b' "warmup": 9}',
    b'{"kind": "simulate", "scenario": "figure2", "buffers": {"0": 4097}}',
    b'{"kind": "simulate", "scenario": "figure2", "buffers": {"0": 1000000000}}',
]


@st.composite
def _raw_requests(draw):
    """Request-ish bytes: a head, headers, a Content-Length and a body,
    each drawn from plausible and hostile values, plus random noise."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=512))
    newline = draw(st.sampled_from([b"\r\n", b"\n"]))
    line = " ".join([
        draw(st.sampled_from(_FUZZ_METHODS) | st.text(max_size=6)),
        draw(st.sampled_from(_FUZZ_PATHS) | st.text(max_size=30)),
        draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "", "HTTP/9"])),
    ])
    body = draw(st.sampled_from(_FUZZ_BODIES) | st.binary(max_size=128))
    headers = draw(st.lists(
        st.tuples(
            st.sampled_from(["Host", "Content-Type", "X-A", ""])
            | st.text(max_size=10),
            st.text(max_size=20),
        ),
        max_size=6,
    ))
    length = draw(
        st.just(str(len(body)))
        | st.integers(-3, 300).map(str)
        | st.sampled_from(["", " 2", "1e3", "0x10", "²"])
        | st.none()
    )
    if length is not None:
        headers.insert(draw(st.integers(0, len(headers))),
                       ("Content-Length", length))
    head = newline.join(
        [line.encode("utf-8")]
        + [f"{name}: {value}".encode("utf-8") for name, value in headers]
    )
    payload = head + newline + newline + body
    noise = draw(st.binary(max_size=32))
    cut = draw(st.integers(0, len(payload)))
    return payload[:cut] + noise + payload[cut:] if noise else payload


class TestRequestFuzz:
    def test_raw_bytes_get_2xx_or_4xx_and_a_closed_socket(self, monkeypatch):
        monkeypatch.setattr("repro.service.server.READ_TIMEOUT_S", 0.5)
        limit = 0.5 + 2.0
        with ServerThread() as server:
            client = ServiceClient(port=server.port, timeout=10)
            client.wait_until_healthy()

            @settings(
                max_examples=80,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )
            @given(payload=_raw_requests(), half_close=st.booleans())
            def probe(payload, half_close):
                assume(b"/shutdown" not in payload.lower())
                started = time.monotonic()
                reply = b""
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=limit
                ) as sock:
                    try:
                        sock.sendall(payload)
                        if half_close:
                            sock.shutdown(socket.SHUT_WR)
                        while True:
                            chunk = sock.recv(65536)
                            if not chunk:
                                break
                            reply += chunk
                    except ConnectionResetError:
                        pass  # closed without a reply: allowed
                assert time.monotonic() - started < limit
                if reply:
                    status = int(reply.split(b" ", 2)[1])
                    assert 200 <= status < 300 or 400 <= status < 500, reply
                assert client.healthy()

            probe()
            client.wait_until_healthy()
