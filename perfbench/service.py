"""The ``service-mixed`` workload: a served simulate mix under closed-loop load.

Layout:

* set-up starts short-lived ``python -m repro serve`` processes on one
  fresh artifact store: two that each write half of the store pool (seeds
  later answered by L3 reads), then two that only boot.  Then the measured
  server starts on the same store (under ``serve_traced.py`` when tracing)
  and its hot set is warmed into L1.  Each of these five server starts, from
  spawn to its first answered simulate (a seed not asked before), is one
  ``setup_s`` sample, scaled by the host probes just before and after it;
* this process is the load generator: ``nproc`` closed-loop client threads,
  each with its own connections (no keep-alive), polling at a fixed cadence,
  with no client-side retries, so every 429, 5xx or timeout is counted.
  Each client repeats one step: a request of each kind below, in turn, each
  sent when the previous one is answered.  Times under load are not scaled
  by the host probe (``calibrate.py``): requests spend much of their time in
  fixed-cadence polls and socket waits, which do not follow it, and scaling
  widened the run-to-run spread of the request rate from 2 % to 19 %;
* every answer is checked against a direct ``simulate_vectors`` call for the
  same request, made here after the server has stopped.

The requests are synthetic: the repository holds no record of real traffic.
A step asks once in each of the four ways a request can be answered, so
each path gets an equal share and none dominates:

* ``hot`` — a set of four seeds, warmed into L1 in set-up; any set smaller
  than the server's 256-entry L1 stays there for the whole run;
* ``shared`` — each seed is handed out twice, to the next two ``shared``
  asks of either client, and then retired.  The first ask computes; the
  second is coalesced when it arrives while the first is still in flight,
  and is an L1 hit otherwise;
* ``store`` — a pool of 300 seeds written to the store in set-up, cycled in
  order; the pool is larger than the L1, so every pass reads the store;
* ``fresh`` — seeds never asked before, which go queue -> batch -> kernel ->
  store write.

``op_p50_ms`` and ``op_tail_ms`` are latencies of whole steps.  Single
requests fall into a fast cached mode and a slow computed one; the median of
that mix lies at the edge of a mode and moved by 25 % between runs of an
unchanged program, while a step, which sums one request of each kind, does
not.  A change to the hit path or the miss path is best judged by the
separate per-request latencies (``service.client.*``): a run answers
thousands of requests, so each has far more than the 200 samples a p95 with
ten samples beyond it needs.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from calibrate import probe_s
from common import (
    BENCH_DIR, WORK_DIR, median, metric, peak_rss_mb_of, percentile, tail,
)

SCENARIO = "iscas"
PARAMS = {"name": "s382", "scale": 0.25}
CYCLES = 2000
HOT_SEEDS = 4
SERVER_STARTS = 5
STORE_POOL = 300
POLL_INTERVAL = 0.005
REQUEST_TIMEOUT = 30.0
HIT_SOURCES = ("memory", "store", "coalesced")
KINDS = ("hot", "shared", "store", "fresh")


def _body(seed: int) -> Dict:
    return {"kind": "simulate", "scenario": SCENARIO, "params": dict(PARAMS),
            "cycles": CYCLES, "seed": seed}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _client(port: int):
    from repro.resilience.retry import RetryPolicy
    from repro.service.client import ServiceClient

    return ServiceClient(port=port, timeout=REQUEST_TIMEOUT,
                         retry=RetryPolicy(attempts=1))


def _ask(client, seed: int) -> Tuple[Optional[str], float]:
    """One simulate request, submit to result; returns (cached, throughput).

    ``cached`` is the ``/result`` field: ``memory``, ``store``,
    ``coalesced``, or None for a request that computed.
    """
    record = client.submit(_body(seed))
    if record.get("status") == "done":
        reply = client.result(record["id"])
    else:
        reply = client.wait(record["id"], timeout=REQUEST_TIMEOUT,
                            poll_interval=POLL_INTERVAL)
    document = reply["result"]
    if document["seed"] != seed:
        raise ValueError(f"answer for seed {document['seed']}, asked {seed}")
    return reply["cached"], float(document["throughput"])


class Server:
    """One ``repro serve`` process on a fixed store and a free port."""

    def __init__(self, env: Dict[str, str], store: str,
                 layers_out: Optional[str] = None) -> None:
        self.port = _free_port()
        serve_args = ["serve", "--store", store, "--port", str(self.port), "--quiet"]
        if layers_out is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                       layers_out] + serve_args
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        self.client = _client(self.port)

    def boot(self, first_seed: int) -> float:
        """Wait until the first simulate is answered; returns set-up seconds."""
        self.client.wait_until_healthy(timeout=60.0)
        _ask(self.client, first_seed)
        return time.perf_counter() - self.started

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=60)
            except Exception:
                self.process.kill()
                self.process.wait(timeout=30)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


def _closed_loop(port: int, seed_of, clients: int, seconds: float):
    """``clients`` client threads, each repeating steps (one request of each
    kind in :data:`KINDS`, in turn) back to back for ``seconds``.

    Returns the answered requests, the latencies of the steps whose requests
    all succeeded, the failures and the elapsed seconds.
    """
    samples: List[Tuple[str, int, Optional[str], float, float]] = []
    steps: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def run() -> None:
        client = _client(port)
        while time.perf_counter() < deadline:
            step_started = time.perf_counter()
            complete = True
            for kind in KINDS:
                seed = seed_of(kind)
                started = time.perf_counter()
                try:
                    cached, throughput = _ask(client, seed)
                except Exception as exc:  # noqa: BLE001 — every failure is counted
                    complete = False
                    with lock:
                        errors.append(f"{kind} seed {seed}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - started
                with lock:
                    samples.append((kind, seed, cached, latency, throughput))
            if complete:
                with lock:
                    steps.append(time.perf_counter() - step_started)

    threads = [threading.Thread(target=run) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, steps, errors, time.perf_counter() - started


def _populate(port: int, seeds: List[int], clients: int) -> None:
    """Have the server at ``port`` compute (and so store) every seed."""
    pending = iter(seeds)
    lock = threading.Lock()
    errors: List[BaseException] = []

    def run() -> None:
        client = _client(port)
        while True:
            with lock:
                seed = next(pending, None)
            if seed is None:
                return
            try:
                _ask(client, seed)
            except Exception as exc:  # noqa: BLE001 — re-raised after join
                errors.append(exc)
                return

    threads = [threading.Thread(target=run) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"store pre-population failed: {errors[0]!r}")


def _references(seeds: List[int]) -> Dict[int, float]:
    from repro.service.protocol import cached_scenario_rrg
    from repro.sim.batch import default_warmup, simulate_vectors

    rrg, _ = cached_scenario_rrg(SCENARIO, PARAMS)
    vectors = [(rrg.token_vector(), rrg.buffer_vector())] * len(seeds)
    values = simulate_vectors(rrg, vectors, cycles=CYCLES,
                              warmup=default_warmup(CYCLES), seeds=seeds,
                              use_cache=False)
    return dict(zip(seeds, values))


def _stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    def l1(stats, key):
        return stats["cache"]["l1"][key]

    def requests(key):
        return after["requests"][key] - before["requests"][key]

    hits = l1(after, "hits") - l1(before, "hits")
    lookups = hits + l1(after, "misses") - l1(before, "misses")
    return {
        "service.l1_hit_ratio": hits / lookups if lookups else 0.0,
        "service.coalesced": float(requests("coalesced")),
        "service.store_hits": float(requests("cache_hits_store")),
    }


def run_service(env: Dict[str, str], seed: int, seconds: float, trace: bool,
                reference: Dict) -> Dict:
    """Run the workload; returns the result fields ``run.py`` prints.

    The host probe (``calibrate.py``) runs here around each server start,
    while no other server works.
    """
    clients = os.cpu_count() or 1
    run_dir = WORK_DIR / f"service-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    store = str(run_dir / "store")
    layers_out = str(run_dir / "layers.json") if trace else None

    # Every seed derives from the benchmark seed.  Seeds are disjoint per
    # kind; shared and fresh seeds never come back once used.
    base = 1_000_000 * (seed % 1000 + 1)
    hot = [base + i for i in range(HOT_SEEDS)]
    pool = [base + 1000 + i for i in range(STORE_POOL)]
    sources = {
        "hot": itertools.cycle(hot),
        "shared": (n // 2 for n in itertools.count(2 * (base + 200_000))),
        "store": itertools.cycle(pool),
        "fresh": itertools.count(base + 100_000),
    }
    draw_lock = threading.Lock()

    def seed_of(kind: str) -> int:
        with draw_lock:
            return next(sources[kind])

    boot_seeds = itertools.count(base + 300_000)
    raw_setup: List[float] = []
    setup_samples: List[float] = []
    servers: List[Server] = []

    def start(layers: Optional[str] = None) -> Server:
        before = probe_s()
        server = Server(env, store, layers)
        servers.append(server)
        raw_setup.append(server.boot(next(boot_seeds)))
        setup_samples.append(
            raw_setup[-1] * 2 * reference["probe_s"] / (before + probe_s()))
        return server

    try:
        half = len(pool) // 2
        for part in (pool[:half], pool[half:]):
            writer = start()
            _populate(writer.port, part, clients)
            writer.stop()
        for _ in range(SERVER_STARTS - 3):
            start().stop()
        server = start(layers_out)
        for hot_seed in hot:
            _ask(server.client, hot_seed)
        backend = server.client.stats()["kernel_backend"]

        client_tracer = None
        if trace:
            from layers import LayerTracer, install_client

            client_tracer = LayerTracer()
            install_client(client_tracer)
        before = server.client.stats()
        samples, steps, errors, load_s = _closed_loop(
            server.port, seed_of, clients, seconds)
        after = server.client.stats()
        peak_rss = peak_rss_mb_of(server.process.pid)
        server.stop()
        server_life = time.perf_counter() - server.started
        totals = None
        if trace:
            # Written by serve_traced.py as the server exits.
            with open(layers_out, encoding="utf-8") as handle:
                totals = json.load(handle)
    finally:
        for each in servers:
            each.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    references = _references(sorted({sample[1] for sample in samples}))
    mismatches = [
        f"{kind} seed {s}: served {value!r}, direct {references[s]!r}"
        for kind, s, _, _, value in samples if value != references[s]
    ]
    failures = errors + mismatches
    if backend != reference["kernel_backend"]:
        failures.append(
            f"kernel backend {backend!r}, expected {reference['kernel_backend']!r}")

    hits = [lat for _, _, cached, lat, _ in samples if cached in HIT_SOURCES]
    misses = [lat for _, _, cached, lat, _ in samples if cached not in HIT_SOURCES]
    end_to_end = {
        "setup_s": metric(median(setup_samples), "s"),
        "work_per_s": metric(len(samples) / load_s, "1/s"),
        "op_p50_ms": metric(percentile(steps, 0.50) * 1000, "ms"),
        "op_tail_ms": metric(tail(steps) * 1000, "ms"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    client_latency = {
        "service.client.hit_p50_ms": percentile(hits, 0.50) * 1000 if hits else 0.0,
        "service.client.hit_p95_ms": tail(hits) * 1000 if hits else 0.0,
        "service.client.miss_p50_ms": percentile(misses, 0.50) * 1000 if misses else 0.0,
        "service.client.miss_p95_ms": tail(misses) * 1000 if misses else 0.0,
    }
    by_source: Dict[str, int] = {}
    for _, _, cached, _, _ in samples:
        by_source[str(cached)] = by_source.get(str(cached), 0) + 1
    detail = {
        "kernel_backend": backend,
        "clients": clients,
        "raw_setup_samples": raw_setup,
        "requests": len(samples),
        "step_samples": len(steps),
        "hit_samples": len(hits),
        "miss_samples": len(misses),
        "answered_by": by_source,
        "failures": failures[:10],
        **client_latency,
    }

    per_layer = None
    if trace:
        from layers import PER_LAYER, layer_metrics, total_self_s

        served = after["requests"]["submitted"]
        per_layer = layer_metrics(totals, served)
        per_layer.update(_stats_delta(before, after))
        per_layer.update(client_latency)
        http = client_tracer.snapshot()
        calls = http["calls"].get("service.client.http", 0)
        per_layer["service.client.http_calls_per_request"] = (
            calls / len(samples) if samples else 0.0)
        per_layer["service.client.http_call_ms"] = (
            http["self_s"].get("service.client.http", 0.0) / calls * 1000
            if calls else 0.0)
        per_layer["trace.work_per_s"] = end_to_end["work_per_s"]["value"]
        per_layer["trace.self_share"] = total_self_s(totals) / server_life
        per_layer = {name: metric(per_layer[name], PER_LAYER[name][0])
                     for name in PER_LAYER}
    return {
        "attempted": len(samples) + len(errors),
        "failed": len(failures),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": detail,
    }
