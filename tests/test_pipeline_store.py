"""Tests for the persistent artifact store (repro.pipeline.store)."""

import hashlib
import json
import os
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.events import EventLog
from repro.pipeline.runner import run_jobs
from repro.pipeline.stages import (
    BuildSpec,
    Job,
    OptimizeParams,
    SimulateParams,
    job_store_key,
)
from repro.pipeline.store import (
    ArtifactStore,
    attach_persistent_throughputs,
    content_key,
)
from repro.service.protocol import prepare_request, result_artifact_key
from repro.sim import cache as sim_cache


def tiny_job(cycles=800, epsilon=0.2, alpha=0.9, job_id="tiny"):
    return Job(
        job_id=job_id,
        build=BuildSpec.from_scenario("figure1a", alpha=alpha),
        optimize=OptimizeParams(k=3, epsilon=epsilon, time_limit=30),
        simulate=SimulateParams(cycles=cycles, seed=7),
    )


def _reference_canonical(value: Any) -> Any:
    """A frozen copy of the original ``isinstance``-chain canonicaliser:
    the fast type dispatch must encode every payload exactly like it."""
    if isinstance(value, Mapping):
        return {str(k): _reference_canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_reference_canonical(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    return repr(value)


def _reference_key(payload: Any) -> str:
    text = json.dumps(
        _reference_canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Float(float):
    def __repr__(self) -> str:
        return f"_Float({float(self)!r})"


_LEAVES = (
    st.integers(-(2**70), 2**70)
    | st.text(max_size=6)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=False).map(_Float)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(0, 255).map(np.uint8)
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(
            st.text(max_size=4) | st.integers(-5, 5) | st.booleans(),
            children,
            max_size=4,
        )
    ),
    max_leaves=20,
)


class TestContentKeys:
    @settings(max_examples=400, deadline=None)
    @given(payload=_PAYLOADS)
    def test_content_key_matches_the_reference_encoding(self, payload):
        assert content_key(payload) == _reference_key(payload)

    def test_recorded_store_keys_do_not_change(self):
        assert content_key(
            {"b": 2, "a": (1, 2.5, None), 3: [True, {"x": -0.0}]}
        ) == "fb998a99a8ef347ced4556aeffdaea6a95d0180c46d409433f58b4f1fd806774"
        simulate = prepare_request({
            "kind": "simulate", "scenario": "figure2",
            "params": {"alpha": 0.8}, "cycles": 500, "seed": 3,
        })
        assert simulate.key == (
            "21d7e39c2a56cdf9c5b8ac06754ab90ffad09b698575f00d7708e2b0012a0830"
        )
        assert simulate.batch_key == (
            "73d0a3d094ba844c46c01a66e85c4d61b0384b1bbf81bd75e28cab8bc8819afc"
        )
        run = prepare_request({
            "kind": "run", "target": "figure1a",
            "options": {"params": {"alpha": 0.9}, "cycles": 600,
                        "epsilon": 0.2},
        })
        assert run.key == (
            "fb8fb1b5f00de77189a11e1d55bbfeb8a5b2304cadf4fe01b4dafde4fe0b11e0"
        )
        assert result_artifact_key(run.key) == (
            "f4f984802e6d693c375c583f4307ea971ab3ea81312879fdb5efa75b98de1129"
        )
        job = tiny_job()
        assert job_store_key(job, job.build.build()) == (
            "7325a2999dc5d839768455b0238fabe72903f2fc48f321ded53e171d0e344b92"
        )

    def test_content_key_is_stable_and_order_insensitive(self):
        a = content_key({"b": 2, "a": (1, 2.5, None)})
        b = content_key({"a": [1, 2.5, None], "b": 2})
        assert a == b
        assert len(a) == 64

    def test_job_key_changes_with_graph_and_params(self):
        job = tiny_job()
        rrg = job.build.build()
        base = job_store_key(job, rrg)
        # Different branch probability -> different fingerprint -> new key.
        other_graph = tiny_job(alpha=0.8).build.build()
        assert job_store_key(job, other_graph) != base
        # Different simulate parameters -> new key.
        assert job_store_key(tiny_job(cycles=900), rrg) != base
        # Different optimize parameters -> new key.
        assert job_store_key(tiny_job(epsilon=0.1), rrg) != base
        # The job_id and meta are presentation-only: same key.
        assert job_store_key(tiny_job(job_id="renamed"), rrg) == base

    def test_job_key_sees_initial_tokens(self):
        job = tiny_job()
        rrg = job.build.build()
        shifted = rrg.with_assignment(
            {0: rrg.edge(0).tokens + 1}, {0: rrg.edge(0).buffers + 1}
        )
        assert job_store_key(job, shifted) != job_store_key(job, rrg)


class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = content_key({"x": 1})
        assert store.get(key) is None
        store.put(key, {"value": 42})
        assert store.get(key) == {"value": 42}
        assert len(store) == 1
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_corrupted_entry_recovers_by_recompute(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key({"x": 2})
        path = store.put(key, {"value": 1})
        path.write_text("{ truncated garbage", encoding="utf-8")
        assert store.get(key) is None  # miss, not a crash
        assert not path.exists()  # the bad entry was dropped
        store.put(key, {"value": 2})
        assert store.get(key) == {"value": 2}

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key({"x": 3})
        path = store.put(key, {"value": 1})
        wrapper = json.loads(path.read_text())
        wrapper["schema"] = 999
        path.write_text(json.dumps(wrapper), encoding="utf-8")
        assert store.get(key) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.put(content_key({"i": i}), {"i": i})
        assert store.clear() == 3
        assert len(store) == 0


class TestPipelineCaching:
    def test_second_run_hits_the_store(self, tmp_path):
        job = tiny_job()
        first = run_jobs([job], store=tmp_path / "store")[0]
        log = EventLog()
        second = run_jobs([job], store=tmp_path / "store", events=log)[0]
        assert second == first
        assert log.cached_jobs == 1

    def test_cross_process_hits(self, tmp_path):
        """Entries written by shard subprocesses serve the parent and vice versa."""
        store = tmp_path / "store"
        jobs = [tiny_job(job_id="a"), tiny_job(cycles=900, job_id="b")]
        # Computed in worker processes...
        sharded = run_jobs(jobs, shards=2, store=store)
        # ...then served from disk to the parent process (serial run).
        log = EventLog()
        serial = run_jobs(jobs, shards=1, store=store, events=log)
        assert serial == sharded
        assert log.cached_jobs == len(jobs)
        # ...and entries written serially serve later worker processes.
        log2 = EventLog()
        again = run_jobs(jobs, shards=2, store=store, events=log2)
        assert again == sharded
        assert log2.cached_jobs == len(jobs)

    def test_caller_store_instance_is_reused_serially(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_jobs([tiny_job()], store=store)
        assert store.stats()["misses"] >= 1
        run_jobs([tiny_job()], store=store)
        assert store.stats()["hits"] >= 1

    def test_runner_restores_callers_persistent_backend(self, tmp_path):
        user_store = ArtifactStore(tmp_path / "user")
        attach_persistent_throughputs(user_store)
        try:
            run_jobs([tiny_job()], store=tmp_path / "run")
            backend = sim_cache.persistent_backend()
            assert backend is not None and backend.store is user_store
        finally:
            attach_persistent_throughputs(None)
            sim_cache.clear_caches()

    def test_parameter_change_invalidates(self, tmp_path):
        store = tmp_path / "store"
        run_jobs([tiny_job()], store=store)
        log = EventLog()
        run_jobs([tiny_job(cycles=900)], store=store, events=log)
        assert log.cached_jobs == 0

    def test_corrupted_job_entry_recomputes(self, tmp_path):
        store_dir = tmp_path / "store"
        job = tiny_job()
        first = run_jobs([job], store=store_dir)[0]
        for path in ArtifactStore(store_dir)._entries():
            path.write_text("not json", encoding="utf-8")
        log = EventLog()
        second = run_jobs([job], store=store_dir, events=log)[0]
        assert second == first
        assert log.cached_jobs == 0


class TestPersistentThroughputs:
    def test_backend_attach_and_fallthrough(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("fingerprint", "tgmg", (), (), 100, 10, 3)
        sim_cache.clear_caches()
        attach_persistent_throughputs(store)
        try:
            assert sim_cache.cached_throughput(key) is None
            sim_cache.store_throughput(key, 0.75)
            # Drop the in-memory layer: the value must come back from disk.
            sim_cache.clear_caches()
            assert sim_cache.cached_throughput(key) == pytest.approx(0.75)
        finally:
            attach_persistent_throughputs(None)
        sim_cache.clear_caches()
        assert sim_cache.persistent_backend() is None

    def test_detached_backend_leaves_no_disk_traffic(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("fp", "tgmg", (), (), 50, 5, 1)
        sim_cache.clear_caches()
        sim_cache.store_throughput(key, 0.5)
        assert len(store) == 0
        sim_cache.clear_caches()

    def test_broken_backend_never_breaks_simulation(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        attach_persistent_throughputs(store)
        try:
            monkeypatch.setattr(
                store, "get_throughput",
                lambda key: (_ for _ in ()).throw(OSError("disk gone")),
            )
            monkeypatch.setattr(
                store, "put_throughput",
                lambda key, value: (_ for _ in ()).throw(OSError("disk gone")),
            )
            key = ("fp2", "tgmg", (), (), 50, 5, 1)
            sim_cache.clear_caches()
            sim_cache.store_throughput(key, 0.25)  # must not raise
            assert sim_cache.cached_throughput(key) == pytest.approx(0.25)
            sim_cache.clear_caches()
            assert sim_cache.cached_throughput(key) is None  # and still no raise
        finally:
            attach_persistent_throughputs(None)
            sim_cache.clear_caches()
