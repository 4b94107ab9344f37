"""Property test: the three simulator implementations agree on random graphs.

Every throughput in the repository comes from one firing semantics with
three executors:

* the reference simulators (:class:`TGMGSimulator` for the refined TGMG,
  :class:`ElasticSimulator` for the structural elastic circuit) — the
  semantics oracle;
* :meth:`ScalarSimulator.step` — the pure-python fallback;
* :func:`repro.sim.kernels.run_window` — the generated-C fast path.

For random RRGs, seeds and both simulation modes they must agree on the
fired set of every cycle (reference vs python), on the window firing
counts, on the final marking and on the exact float throughput.

Every caller reaches those executors through one front door,
:func:`repro.sim.batch.simulate_vectors`; its batching, dedup and cache
must never change a value, and unseeded lanes must stay independent.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.elastic.simulator import ElasticSimulator
from repro.gmg.build import build_tgmg
from repro.gmg.simulation import TGMGSimulator
from repro.sim import batch as sim_batch
from repro.sim import kernels
from repro.sim.batch import simulate_vectors
from repro.sim.cache import cache_stats, clear_caches, compiled_template_for
from repro.sim.engine import compile_tgmg
from repro.sim.scalar import ScalarSimulator
from repro.workloads.random_rrg import random_rrg


def _native_available() -> bool:
    try:
        with kernels.use_backend("c"):
            return True
    except RuntimeError:
        return False


NATIVE = _native_available()


@st.composite
def cases(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=12))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=2 * num_nodes))
    return {
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "graph_seed": draw(st.integers(min_value=0, max_value=10_000)),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "mode": draw(st.sampled_from(["tgmg", "elastic"])),
        "warmup": draw(st.integers(min_value=0, max_value=20)),
        "cycles": draw(st.integers(min_value=1, max_value=80)),
    }


class _TGMGOracle:
    def __init__(self, rrg, seed):
        tgmg = build_tgmg(rrg)
        self.model = compile_tgmg(tgmg)
        self._sim = TGMGSimulator(tgmg, seed=seed)
        self._names = [node.name for node in tgmg.nodes]
        self._num_edges = tgmg.num_edges

    def step(self):
        return set(self._sim.step())

    def firings(self):
        return [self._sim.firings[name] for name in self._names]

    def marking(self):
        return [self._sim.marking[i] for i in range(self._num_edges)]


class _ElasticOracle:
    def __init__(self, rrg, seed):
        template = compiled_template_for(rrg, mode="elastic")
        self.model = template.instantiate(rrg.token_vector(), rrg.buffer_vector())
        self._sim = ElasticSimulator(rrg, seed=seed)
        self._names = [node.name for node in rrg.nodes]
        self._num_edges = rrg.num_edges

    def step(self):
        before = self.firings()
        self._sim.step()
        return {
            name
            for name, then, now in zip(self._names, before, self.firings())
            if now != then
        }

    def firings(self):
        controllers = self._sim.circuit.controllers
        return [controllers[name].firings for name in self._names]

    def marking(self):
        edges = self._sim.circuit.edges
        return [edges[i].channel.marking for i in range(self._num_edges)]


def _throughput(window, cycles):
    rates = [count / cycles for count in window]
    return sum(rates) / len(rates) if rates else 0.0


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_reference_python_and_kernel_agree(case):
    rrg = random_rrg(case["num_nodes"], case["num_edges"], seed=case["graph_seed"])
    oracle_type = _TGMGOracle if case["mode"] == "tgmg" else _ElasticOracle
    oracle = oracle_type(rrg, case["seed"])
    model = oracle.model
    if case["mode"] == "tgmg":
        # The template path the batch API uses compiles the same model.
        template = compiled_template_for(rrg, mode="tgmg")
        instance = template.instantiate(rrg.token_vector(), rrg.buffer_vector())
        assert instance.marking0.tolist() == model.marking0.tolist()
        assert instance.latency.tolist() == model.latency.tolist()
        assert instance.structure.prod.tolist() == model.structure.prod.tolist()
        assert instance.structure.cons.tolist() == model.structure.cons.tolist()

    warmup, cycles = case["warmup"], case["cycles"]
    names = model.structure.node_names
    python = ScalarSimulator(model, seed=case["seed"])
    baseline_ref = baseline_py = None
    for cycle in range(warmup + cycles):
        if cycle == warmup:
            baseline_ref, baseline_py = oracle.firings(), list(python.firings)
        fired_ref = oracle.step()
        fired_py = {names[node] for node in python.step(record=True)}
        assert fired_py == fired_ref, f"cycle {cycle}"
    window_ref = [now - then for now, then in zip(oracle.firings(), baseline_ref)]
    window_py = [now - then for now, then in zip(python.firings, baseline_py)]
    assert window_py == window_ref
    assert python.marking == oracle.marking()
    throughput = _throughput(window_ref, cycles)

    # ScalarSimulator.run is the python loop behind the batch API.
    run = ScalarSimulator(model, seed=case["seed"]).run(cycles, warmup=warmup)
    assert run.firings[0].tolist() == window_ref
    assert float(run.throughputs[0]) == throughput

    if NATIVE:
        with kernels.use_backend("c"):
            state, window_c, throughput_c = kernels.run_window(
                model, case["seed"], cycles, warmup
            )
        assert window_c == window_ref
        assert throughput_c == throughput
        assert state.marking.tolist() == oracle.marking()
        assert state.firings.tolist() == oracle.firings()
        assert state.cycle == warmup + cycles


@st.composite
def front_door_cases(draw):
    """A batch of lanes over one random graph: repeated seeded lanes (in
    sparse and dense form), distinct seeds and unseeded lanes."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=2 * num_nodes))
    rrg = random_rrg(
        num_nodes, num_edges, seed=draw(st.integers(min_value=0, max_value=10_000))
    )
    markings = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        buffers = rrg.buffer_vector()
        # Extra bubbles keep every marking legal.
        for edge in draw(st.lists(st.integers(0, num_edges - 1), max_size=3)):
            buffers[edge] += 1
        markings.append((rrg.token_vector(), buffers))
    picks = draw(st.lists(
        st.tuples(
            st.integers(0, len(markings) - 1),
            st.sampled_from([None, 3, 4]),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ))
    picks += [(0, 3, False), (0, 3, True)]  # one repeated seeded lane
    lanes, seeds = [], []
    for marking, seed, dense in picks:
        tokens, buffers = markings[marking]
        if dense:
            tokens = [tokens[edge] for edge in range(num_edges)]
            buffers = [buffers[edge] for edge in range(num_edges)]
        lanes.append((tokens, buffers))
        seeds.append(seed)
    return {
        "rrg": rrg,
        "lanes": lanes,
        "seeds": seeds,
        "distinct": {
            (tuple(markings[m][1].values()), s)
            for m, s, _ in picks if s is not None
        },
        "mode": draw(st.sampled_from(["tgmg", "elastic"])),
        "cycles": draw(st.integers(min_value=20, max_value=120)),
        "warmup": draw(st.integers(min_value=0, max_value=20)),
    }


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=front_door_cases())
def test_simulate_vectors_dedupes_and_caches_only_seeded_lanes(case):
    rrg, lanes, seeds = case["rrg"], case["lanes"], case["seeds"]
    run = dict(cycles=case["cycles"], warmup=case["warmup"], mode=case["mode"])
    unseeded = seeds.count(None)
    simulated = []
    original = sim_batch.run_models

    def counting_run_models(models, lane_seeds, cycles, warmup):
        simulated.append(list(lane_seeds))
        return original(models, lane_seeds, cycles, warmup)

    sim_batch.run_models = counting_run_models
    try:
        clear_caches()
        values = simulate_vectors(rrg, lanes, seeds=seeds, **run)
        first = simulated.pop() if simulated else []
        cached = cache_stats()["throughput_size"]
        simulate_vectors(rrg, lanes, seeds=seeds, **run)
        second = simulated.pop() if simulated else []
    finally:
        sim_batch.run_models = original

    # Each distinct seeded lane reaches run_models once; every unseeded
    # lane does, on every call, and none of them is cached.
    assert first.count(None) == unseeded
    assert len(first) - unseeded == len(case["distinct"])
    assert cached == len(case["distinct"])
    assert second == [None] * unseeded
    for lane, seed, value in zip(lanes, seeds, values):
        if seed is None:
            assert 0.0 <= value <= 1.0
            continue
        clear_caches()
        [alone] = simulate_vectors(rrg, [lane], seeds=[seed], **run)
        assert value == alone
