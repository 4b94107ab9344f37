"""Cross-checks of the compiled engine against the reference simulators.

The pure-Python :class:`TGMGSimulator` and :class:`ElasticSimulator` are the
semantics oracle; the compiled engine must match them *firing for firing*
under a shared seed (same per-cycle fired sets, same markings, same firing
counts) and must agree with the exact Markov-chain throughput on the small
analytic examples.  ``tests/test_sim_properties.py`` extends the same
cross-check to random graphs and the C kernel.
"""

import pytest

from repro.core.configuration import RRConfiguration, RetimingVector
from repro.elastic.simulator import ElasticSimulator, simulate_elastic_throughput
from repro.gmg.build import build_tgmg
from repro.gmg.markov import exact_throughput
from repro.gmg.simulation import (
    TGMGSimulator,
    default_warmup,
    simulate_throughput,
)
from repro.sim import (
    ScalarSimulator,
    cache_stats,
    clear_caches,
    compile_tgmg,
    compiled_template_for,
    simulate_configurations,
    simulate_replicas,
)
from repro.workloads.examples import (
    figure1b_rrg,
    figure2_expected_throughput,
    figure2_rrg,
    ring_rrg,
)
from repro.workloads.random_rrg import random_rrg


def _tgmg_reference_pair(rrg, seed):
    tgmg = build_tgmg(rrg)
    reference = TGMGSimulator(tgmg, seed=seed)
    compiled = ScalarSimulator(compile_tgmg(tgmg), seed=seed)
    return tgmg, reference, compiled


class TestTGMGCrossCheck:
    @pytest.mark.parametrize("graph_seed", [0, 3, 11, 42])
    def test_random_rrg_firing_for_firing(self, graph_seed):
        rrg = random_rrg(10, 20, seed=graph_seed)
        tgmg, reference, compiled = _tgmg_reference_pair(rrg, seed=graph_seed + 100)
        for cycle in range(300):
            fired_ref = set(reference.step())
            fired = set(compiled.fired_names(compiled.step(record=True)))
            assert fired_ref == fired, f"cycle {cycle}"
            markings_ref = [reference.marking[i] for i in range(tgmg.num_edges)]
            assert markings_ref == compiled.marking
        node_names = [n.name for n in tgmg.nodes]
        for position, name in enumerate(node_names):
            assert reference.firings[name] == compiled.firings[position]

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_figures_firing_for_firing(self, alpha):
        for rrg in (figure1b_rrg(alpha), figure2_rrg(alpha)):
            _, reference, compiled = _tgmg_reference_pair(rrg, seed=7)
            for _ in range(400):
                fired_ref = set(reference.step())
                fired = compiled.fired_names(compiled.step(record=True))
                assert fired_ref == set(fired)

    def test_wrapper_bit_identical_to_reference(self):
        clear_caches()
        for rrg in (figure1b_rrg(0.5), figure2_rrg(0.8), ring_rrg(5, 2)):
            vector = simulate_throughput(rrg, cycles=3000, seed=13)
            reference = TGMGSimulator(build_tgmg(rrg), seed=13).run(
                cycles=3000, warmup=default_warmup(3000)
            )
            assert vector == reference.throughput  # exact float equality


class TestElasticCrossCheck:
    @pytest.mark.parametrize("graph_seed", [1, 5])
    def test_random_rrg_matches_structural_simulator(self, graph_seed):
        rrg = random_rrg(10, 20, seed=graph_seed)
        reference = ElasticSimulator(rrg, seed=graph_seed)
        template = compiled_template_for(rrg, mode="elastic")
        model = template.instantiate(rrg.token_vector(), rrg.buffer_vector())
        compiled = ScalarSimulator(model, seed=graph_seed)
        for cycle in range(300):
            count_ref = reference.step()
            assert count_ref == len(compiled.step(record=True)), f"cycle {cycle}"
            markings_ref = [
                reference.circuit.edges[i].channel.marking
                for i in range(rrg.num_edges)
            ]
            assert markings_ref == compiled.marking
        for position, node in enumerate(rrg.nodes):
            assert (
                reference.circuit.controllers[node.name].firings
                == compiled.firings[position]
            )

    def test_wrapper_bit_identical_to_reference(self):
        clear_caches()
        for rrg in (figure1b_rrg(0.5), figure2_rrg(0.7)):
            vector = simulate_elastic_throughput(rrg, cycles=3000, seed=5)
            reference = ElasticSimulator(rrg, seed=5).run(cycles=3000)
            assert vector == reference.throughput


class TestAgainstExactThroughput:
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_figure2_analytic(self, alpha):
        expected = figure2_expected_throughput(alpha)
        assert exact_throughput(figure2_rrg(alpha)).throughput == pytest.approx(
            expected, abs=1e-6
        )
        value = simulate_throughput(figure2_rrg(alpha), cycles=30000, seed=2)
        assert value == pytest.approx(expected, abs=0.02)

    def test_ring_exact(self):
        ring = ring_rrg(length=5, total_tokens=2)
        value = simulate_throughput(ring, cycles=4000, seed=0)
        assert value == pytest.approx(2.0 / 5.0, abs=0.01)


class TestBatchAPI:
    def _variant_configurations(self, rrg, count=4):
        base = RRConfiguration.identity(rrg)
        configurations = [base]
        for variant in range(1, count):
            buffers = base.buffer_vector()
            for edge in rrg.edges:
                if edge.index % count == variant:
                    buffers[edge.index] += 1
            configurations.append(
                RRConfiguration(rrg, RetimingVector({}), buffers, label=f"v{variant}")
            )
        return configurations

    @pytest.mark.parametrize("count", [3, 8])
    def test_batch_matches_serial_single_runs(self, count):
        rrg = random_rrg(10, 20, seed=8)
        configurations = self._variant_configurations(rrg, count=count)
        clear_caches()
        batched = simulate_configurations(configurations, cycles=1500, seed=4)
        serial = []
        for configuration in configurations:
            clear_caches()
            serial.append(simulate_throughput(configuration, cycles=1500, seed=4))
        assert batched == serial  # exact float equality, lane per lane

    def test_batch_rejects_mixed_structures(self):
        a = RRConfiguration.identity(random_rrg(8, 16, seed=1))
        b = RRConfiguration.identity(random_rrg(8, 16, seed=2))
        with pytest.raises(ValueError):
            simulate_configurations([a, b], cycles=100)

    def test_replicas(self):
        rrg = figure2_rrg(0.8)
        values = simulate_replicas(rrg, replicas=6, cycles=4000, seed=3)
        assert values.shape == (6,)
        assert values.mean() == pytest.approx(
            figure2_expected_throughput(0.8), abs=0.05
        )
        # Replicas are independent draws, not copies of one lane.
        assert len({round(v, 12) for v in values}) > 1

    @pytest.mark.parametrize("mode", ["tgmg", "elastic"])
    def test_replica_i_is_the_serial_run_with_seed_plus_i(self, mode):
        rrg = figure2_rrg(0.7)
        values = simulate_replicas(rrg, replicas=4, cycles=600, seed=20, mode=mode)
        simulate = (
            simulate_throughput if mode == "tgmg" else simulate_elastic_throughput
        )
        serial = []
        for i in range(4):
            clear_caches()
            serial.append(simulate(rrg, cycles=600, seed=20 + i))
        assert values.tolist() == serial  # exact float equality

    def test_unseeded_replicas_stay_independent(self):
        values = simulate_replicas(figure2_rrg(0.7), replicas=4, cycles=400)
        assert len({round(v, 12) for v in values}) > 1

    def test_throughput_cache_hits(self):
        clear_caches()
        rrg = figure1b_rrg(0.6)
        config = RRConfiguration.identity(rrg)
        first = simulate_throughput(config, cycles=1200, seed=9)
        before = cache_stats()["throughput_hits"]
        second = simulate_throughput(config, cycles=1200, seed=9)
        assert second == first
        assert cache_stats()["throughput_hits"] == before + 1
        clear_caches()

    def test_unseeded_runs_stay_independent(self):
        clear_caches()
        rrg = figure1b_rrg(0.6)
        config = RRConfiguration.identity(rrg)
        values = {simulate_throughput(config, cycles=400) for _ in range(4)}
        # Independent random samples: caching them would collapse the set.
        assert len(values) > 1
        assert cache_stats()["throughput_hits"] == 0
        clear_caches()

    def test_dense_and_dict_vectors_give_equal_keys(self):
        import numpy as np

        from repro.sim.cache import throughput_key, vector_key

        # Counts no other test uses, so the numpy forms come first to the
        # interned key pairs and must still leave plain ints in the key.
        dense = [7919, 0, -7907, 7901]
        as_dict = {3: 7901, 0: 7919, 2: -7907, 1: 0}
        expected = ((0, 7919), (1, 0), (2, -7907), (3, 7901))
        for form in (
            np.asarray(dense, dtype=np.int32),
            [np.int64(v) for v in dense],
            {np.int64(k): np.int64(v) for k, v in as_dict.items()},
            dense,
            tuple(dense),
            as_dict,
        ):
            key = vector_key(form)
            assert key == expected
            assert all(
                type(k) is int and type(v) is int for k, v in key
            ), form
        # Whole throughput keys agree too, so the dense search path and the
        # dict path share in-memory and persistent cache entries.
        fingerprint = ("g", (), ())
        assert throughput_key(
            fingerprint, "tgmg", dense, dense[::-1], 100, 20, 1
        ) == throughput_key(
            fingerprint, "tgmg", as_dict, dict(enumerate(dense[::-1])),
            100, 20, 1,
        )


    def test_dense_keys_stay_exact_when_threads_grow_the_pair_tables(self):
        import sys
        import threading

        from repro.sim import cache

        # Longer than any vector seen so far: every thread races to grow
        # the shared per-edge pair tables.
        length = len(cache._EDGE_PAIRS) + 4000
        vector = [index % 5 for index in range(length)]
        keys = []

        def build():
            keys.append(cache.vector_key(vector))

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert keys == [tuple(enumerate(vector))] * 8


class TestOptimizerSimulationPhase:
    def test_min_eff_cyc_fills_throughputs(self):
        from repro.core.milp import MilpSettings
        from repro.core.optimizer import min_effective_cycle_time

        rrg = figure2_rrg(0.8)
        result = min_effective_cycle_time(
            rrg,
            k=3,
            epsilon=0.05,
            settings=MilpSettings(backend="pure"),
            simulate_cycles=1500,
            simulate_seed=11,
        )
        assert result.best_simulated is not None
        assert all(point.throughput is not None for point in result.points)
        assert result.best_simulated.effective_cycle_time == min(
            point.effective_cycle_time for point in result.points
        )


class TestMarkovDeterminism:
    def test_repeated_analysis_is_identical(self):
        rrg = figure1b_rrg(0.5)
        first = exact_throughput(rrg)
        second = exact_throughput(rrg)
        assert first.throughput == second.throughput
        assert first.num_states == second.num_states


class TestLruCacheExport:
    def test_stats_counters_are_exported(self):
        from repro.sim.cache import LruCache

        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 2, "size": 2,
                         "maxsize": 2, "hit_ratio": round(1 / 3, 6)}

    def test_simulate_vectors_matches_configurations(self):
        from repro.core.configuration import RRConfiguration
        from repro.sim.batch import simulate_configurations, simulate_vectors
        from repro.workloads.examples import figure2_rrg

        rrg = figure2_rrg(0.7)
        config = RRConfiguration.identity(rrg)
        clear_caches()
        expected = simulate_configurations(
            [config, config], cycles=400, seeds=[5, 6]
        )
        vectors = [(config.token_vector(), config.buffer_vector())] * 2
        assert simulate_vectors(
            rrg, vectors, cycles=400, seeds=[5, 6], use_cache=False
        ) == expected
