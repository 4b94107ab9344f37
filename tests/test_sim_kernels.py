"""Kernel backends and batched evaluation: bit-identity across every path.

The pure-python :class:`ScalarSimulator` loop is the semantics oracle for
the generated-C kernel; a lane run through :func:`kernels.run_window` must
be *bit*-identical to a python run — same window firings, same float
throughput and the same final engine state.  A batch run through
:func:`kernels.run_windows` must return exactly the per-lane windows and
throughputs for any worker count.

On top of that, ``SearchProblem.evaluate_batch`` must match independent
references on every backend: tau from ``RRConfiguration.cycle_time``,
Theta from a :class:`TGMGSimulator` run and pruning from the tau/LP rule
applied by hand, including degenerate lanes.
"""

import dataclasses
import math
import random
import subprocess

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.throughput import configuration_throughput_bound
from repro.gmg.build import build_tgmg
from repro.gmg.simulation import TGMGSimulator
from repro.obs.metrics import global_registry, render_metrics
from repro.search import search_minimize
from repro.search.problem import SearchProblem
from repro.search.state import BUBBLE, RETIME, Move, SearchState
from repro.sim import clear_caches
from repro.sim import kernels
from repro.sim.cache import compiled_template_for
from repro.sim.batch import run_models
from repro.sim.scalar import ScalarSimulator
from repro.workloads.random_rrg import large_random_rrg, random_rrg

#: The pure-python fallback plus whatever the import-time probe selected
#: (dedup'd: on a host with no C compiler this is just python).
BACKENDS = sorted({"python", kernels.kernel_backend()})


def _native_available() -> bool:
    try:
        with kernels.use_backend("c"):
            return True
    except RuntimeError:
        return False


NATIVE = _native_available()


def _identity_model(rrg, mode="tgmg"):
    template = compiled_template_for(rrg, mode=mode)
    state = SearchState(rrg)
    return template.instantiate(state.token_vector(), state.buffer_vector())


class TestBackendSelection:
    def test_probe_reports_a_known_backend(self):
        assert kernels.kernel_backend() in ("c", "python")

    def test_info_names_the_requested_backend(self):
        info = kernels.kernel_info()
        assert info["backend"] == kernels.kernel_backend()
        assert info["requested"] in ("auto", "c", "python")

    def test_info_reports_the_batch_worker_count(self):
        with kernels.use_backend("python"):
            assert kernels.kernel_info()["workers"] == 1
        if NATIVE:
            with kernels.use_backend("c"):
                assert kernels.kernel_info()["workers"] == kernels._WORKERS
        assert kernels._WORKERS >= 1

    def test_use_backend_forces_and_restores(self):
        before = kernels.kernel_backend()
        with kernels.use_backend("python"):
            assert kernels.kernel_backend() == "python"
            assert not kernels.native_active()
        assert kernels.kernel_backend() == before

    def test_unavailable_backend_raises(self, monkeypatch):
        with pytest.raises(ValueError):
            with kernels.use_backend("numba"):
                pass

        def broken_build():
            raise OSError("no C compiler")

        monkeypatch.setattr(kernels, "_build_c_kernel", broken_build)
        monkeypatch.setattr(kernels, "_c_kernel", None)
        before = kernels.kernel_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("c"):
                pass
        assert kernels.kernel_backend() == before

    def test_kernel_library_path_depends_on_compiler_flags(self):
        # A flag change must never reuse a shared object built with other
        # flags from the kernel cache.
        other = tuple(
            "-O2" if flag == "-O3" else flag for flag in kernels._CFLAGS
        )
        assert other != kernels._CFLAGS
        assert kernels._kernel_path(other) != kernels._kernel_path()
        assert kernels._kernel_path(kernels._CFLAGS) == kernels._kernel_path()

    def test_run_window_requires_the_c_backend(self):
        model = _identity_model(random_rrg(6, 10, seed=2))
        with kernels.use_backend("python"):
            with pytest.raises(RuntimeError):
                kernels.run_window(model, 1, cycles=10, warmup=0)


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
@pytest.mark.parametrize("mode", ["tgmg", "elastic"])
@pytest.mark.parametrize("graph_seed", [1, 7])
class TestKernelParity:
    def test_run_is_bit_identical_to_python(self, mode, graph_seed):
        rrg = random_rrg(12, 24, seed=graph_seed)
        model = _identity_model(rrg, mode=mode)
        ref_run = ScalarSimulator(model, seed=5).run(cycles=200, warmup=50)
        with kernels.use_backend("c"):
            _, window, throughput = kernels.run_window(
                model, 5, cycles=200, warmup=50
            )
        assert window == ref_run.firings[0].tolist()
        assert throughput == ref_run.throughputs[0]

    def test_run_window_state_matches_python_run(self, mode, graph_seed):
        rrg = random_rrg(12, 24, seed=graph_seed)
        model = _identity_model(rrg, mode=mode)
        ref = ScalarSimulator(model, seed=9)
        ref.run(cycles=120, warmup=30)
        with kernels.use_backend("c"):
            run, _, _ = kernels.run_window(model, 9, cycles=120, warmup=30)
        # Every piece of engine state the next cycle reads: marking,
        # deficits, held guards, the ready list and the arrival ring.
        assert run.cycle == ref.cycle
        assert run.marking.tolist() == ref.marking
        assert run.firings.tolist() == ref.firings
        assert run.deficit.tolist() == ref._deficit
        assert run.pending.tolist() == ref._pending
        assert run.next_ready[: int(run.io[2])].tolist() == ref._next_ready
        num_edges = run.plan.num_edges
        ring = [
            run.ring_edges[
                slot * num_edges : slot * num_edges + int(run.ring_count[slot])
            ].tolist()
            for slot in range(run.depth)
        ]
        assert ring == ref._arrivals


def _lane_models(rrg, mode, lanes, rng):
    """The identity configuration plus ``lanes - 1`` states, each up to
    three random legal moves (retimings and bubbles) away from it, so the
    lanes differ in marking and in ring depth."""
    template = compiled_template_for(rrg, mode=mode)
    base = SearchState(rrg)
    moves = [
        Move(kind, target, delta)
        for kind, count in (
            (RETIME, len(base.lags)), (BUBBLE, len(base.buffers))
        )
        for target in range(count)
        for delta in (1, -1)
    ]
    states = [base]
    for _ in range(lanes - 1):
        state = base.copy()
        for move in rng.sample(moves, 3):
            if state.can_apply(move):
                state.apply(move)
        states.append(state)
    return [
        template.instantiate(state.token_vector(), state.buffer_vector())
        for state in states
    ]


#: Mixed lane seeds with duplicates (-7 and 7 even share a stream).
LANE_SEEDS = [0, 7, -7, 2**40, 7, 0, 2**40]


def _assert_batch_matches_run_window(models, seeds, cycles, warmup):
    with kernels.use_backend("c"):
        expected = [
            kernels.run_window(model, seed, cycles, warmup)[1:]
            for model, seed in zip(models, seeds)
        ]
        for workers in (1, 2, len(models) + 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "_WORKERS", workers)
                windows, thetas = kernels.run_windows(
                    models, seeds, cycles, warmup
                )
            assert windows.shape == (len(models), models[0].structure.num_nodes)
            assert [
                (window, theta)
                for window, theta in zip(windows.tolist(), thetas)
            ] == expected, workers


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
class TestRunWindows:
    """One C call per batch equals per-lane runs, for any worker count."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_nodes=st.integers(min_value=2, max_value=12),
        extra_edges=st.integers(min_value=0, max_value=12),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(["tgmg", "elastic"]),
        lanes=st.integers(min_value=1, max_value=len(LANE_SEEDS)),
        warmup=st.integers(min_value=0, max_value=20),
        cycles=st.integers(min_value=1, max_value=80),
    )
    def test_random_graphs_match_per_lane_runs(
        self, num_nodes, extra_edges, graph_seed, mode, lanes, warmup, cycles
    ):
        num_edges = num_nodes + min(extra_edges, num_nodes)
        rrg = random_rrg(num_nodes, num_edges, seed=graph_seed)
        models = _lane_models(rrg, mode, lanes, random.Random(graph_seed))
        _assert_batch_matches_run_window(
            models, LANE_SEEDS[:lanes], cycles, warmup
        )

    @pytest.mark.parametrize("mode", ["tgmg", "elastic"])
    def test_large_graph_matches_per_lane_runs(self, mode):
        rrg = large_random_rrg(300, seed=11)
        models = _lane_models(rrg, mode, len(LANE_SEEDS), random.Random(5))
        assert models[0].structure.guards, "graph needs early nodes"
        _assert_batch_matches_run_window(models, LANE_SEEDS, 300, 50)

    def test_many_lanes_on_more_threads_than_cpus(self, monkeypatch):
        # Sixteen workers race on the shared lane counter: a lost or doubled
        # claim would leave a row unwritten or mix two lanes' scratch.
        models = _lane_models(
            random_rrg(10, 18, seed=4), "tgmg", 64, random.Random(2)
        )
        seeds = [lane % 5 for lane in range(len(models))]
        with kernels.use_backend("c"):
            expected = [
                kernels.run_window(model, seed, 60, 10)[1:]
                for model, seed in zip(models, seeds)
            ]
            monkeypatch.setattr(kernels, "_WORKERS", 16)
            for _ in range(5):
                windows, thetas = kernels.run_windows(models, seeds, 60, 10)
                assert list(zip(windows.tolist(), thetas)) == expected

    def test_unseeded_lanes_draw_independent_streams(self, monkeypatch):
        model = _identity_model(random_rrg(12, 24, seed=3))
        starts = []
        mt_start = kernels._mt_start

        def recording(seed):
            start = mt_start(seed)
            starts.append((seed, tuple(start[0].tolist()), start[1]))
            return start

        monkeypatch.setattr(kernels, "_mt_start", recording)
        with kernels.use_backend("c"):
            _, thetas = kernels.run_windows(
                [model, model, model, model], [None, None, 4, 4], 300, 50
            )
        # One fresh stream per unseeded lane, one shared start per seed.
        assert [seed for seed, _, _ in starts] == [None, None, 4]
        assert starts[0][1:] != starts[1][1:]
        assert thetas[2] == thetas[3]
        assert all(0.0 <= theta <= 1.0 for theta in thetas)

    def test_empty_batch(self):
        with kernels.use_backend("c"):
            windows, thetas = kernels.run_windows([], [], 10, 0)
        assert windows.shape[0] == 0 and thetas == []


def _ring(run):
    """A ``KernelRun``'s arrival buckets as lists, like ``ref._arrivals``."""
    num_edges = run.plan.num_edges
    return [
        run.ring_edges[
            slot * num_edges : slot * num_edges + int(run.ring_count[slot])
        ].tolist()
        for slot in range(run.depth)
    ]


@st.composite
def mixed_latency_lanes(draw):
    """Elastic lanes of one ``random_rrg`` with early nodes, where some node
    has an out-edge of latency >= 2 ahead of a zero-latency one in edge
    order, so the kernel's split out-lists reorder that node's walk."""
    num_nodes = draw(st.integers(min_value=4, max_value=12))
    rrg = random_rrg(
        num_nodes, 2 * num_nodes, seed=draw(st.integers(min_value=0, max_value=10_000))
    )
    template = compiled_template_for(rrg, mode="elastic")
    assume(template.structure.guards)
    tokens, base = rrg.token_vector(), rrg.buffer_vector()
    out_lists = {}
    for edge, node in enumerate(template.structure.prod.tolist()):
        out_lists.setdefault(node, []).append(edge)
    # Nodes whose last out-edge is combinational: two bubbles on the first
    # out-edge put a latency >= 2 edge ahead of it.
    split = [
        edges for edges in out_lists.values()
        if len(edges) >= 2 and base[edges[-1]] == 0
    ]
    assume(split)
    kept_zero = {edges[-1] for edges in split}
    free = [edge for edge in range(rrg.num_edges) if edge not in kept_zero]
    models = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        buffers = dict(base)
        for edges in split:
            buffers[edges[0]] += 2
        for edge in draw(st.lists(st.sampled_from(free), max_size=4)):
            buffers[edge] += draw(st.integers(min_value=1, max_value=3))
        models.append(template.instantiate(tokens, buffers))
    return models


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
class TestMixedLatencyParity:
    """Split out-lists keep the reference order: the arrival ring and the
    ready list, not only the windows, equal the python engine's."""

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        models=mixed_latency_lanes(),
        seed=st.sampled_from(LANE_SEEDS),
        warmup=st.integers(min_value=0, max_value=20),
        cycles=st.integers(min_value=1, max_value=60),
    )
    def test_state_and_batches_match_python(self, models, seed, warmup, cycles):
        model = models[0]
        latency = model.latency.tolist()
        assert max(latency) >= 2
        assert any(
            latency[a] > 0 and latency[b] == 0
            for edges in kernels.plan_for(model.structure).out_lists
            for a, b in zip(edges, edges[1:])
        ), "some node walks a delayed edge before a zero-latency one"
        ref = ScalarSimulator(model, seed=seed)
        ref.run(cycles=cycles, warmup=warmup)
        with kernels.use_backend("c"):
            run, _, _ = kernels.run_window(model, seed, cycles, warmup)
        assert run.depth >= 3
        assert _ring(run) == ref._arrivals
        assert run.next_ready[: int(run.io[2])].tolist() == ref._next_ready
        assert run.marking.tolist() == ref.marking
        assert run.deficit.tolist() == ref._deficit
        assert run.pending.tolist() == ref._pending
        assert run.firings.tolist() == ref.firings
        assert tuple(run.mt.tolist()) + (int(run.io[1]),) == ref._rng.getstate()[1]
        # Every lane twice, under duplicate seeds.
        _assert_batch_matches_run_window(
            models * 2, LANE_SEEDS[: len(models)] * 2, cycles, warmup
        )


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
class TestInt32Guard:
    """A run whose counts could leave the kernel's int32 records raises
    ``ValueError`` from both entry points instead of wrapping."""

    @staticmethod
    def _model():
        return _identity_model(random_rrg(12, 24, seed=3))

    @staticmethod
    def _assert_both_raise(model, cycles, warmup):
        with kernels.use_backend("c"):
            with pytest.raises(ValueError):
                kernels.run_windows([model, model], [1, 2], cycles, warmup)
            with pytest.raises(ValueError):
                kernels.run_window(model, 1, cycles, warmup)

    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
    def test_marking_outside_int32(self, value):
        model = self._model()
        marking0 = model.marking0.copy()
        marking0[0] = value
        self._assert_both_raise(
            dataclasses.replace(model, marking0=marking0), 10, 0
        )

    @pytest.mark.parametrize("value", [2**31, -1])
    def test_latency_outside_int32(self, value):
        model = self._model()
        latency = model.latency.copy()
        latency[0] = value
        self._assert_both_raise(dataclasses.replace(model, latency=latency), 10, 0)

    def test_cycles_plus_warmup_beyond_int32(self):
        self._assert_both_raise(self._model(), 2**31 - 5, 5)

    @pytest.mark.parametrize(
        "capacity", ["num_nodes", "num_edges", "queue_cap", "ready_cap"]
    )
    def test_capacity_beyond_int32(self, capacity, monkeypatch):
        model = self._model()
        monkeypatch.setattr(kernels.plan_for(model.structure), capacity, 2**31)
        self._assert_both_raise(model, 10, 0)

    def test_early_deficit_growth_beyond_int32(self):
        # Far below the cycle bound, but an early node's deficit grows by
        # up to its in-degree per firing.
        model = self._model()
        assert kernels.plan_for(model.structure).early_in_degree >= 2
        self._assert_both_raise(model, 2**30, 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_marking_just_inside_the_bound_runs_exactly(self, sign):
        model = self._model()
        cycles, warmup = 40, 10
        marking0 = model.marking0.copy()
        marking0[0] = sign * (2**31 - 1 - cycles - warmup)
        model = dataclasses.replace(model, marking0=marking0)
        ref = ScalarSimulator(model, seed=1)
        ref_run = ref.run(cycles=cycles, warmup=warmup)
        with kernels.use_backend("c"):
            run, window, _ = kernels.run_window(model, 1, cycles, warmup)
            windows, _ = kernels.run_windows([model], [1], cycles, warmup)
        assert window == ref_run.firings[0].tolist() == windows[0].tolist()
        assert run.marking.tolist() == ref.marking


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
def test_run_windows_adds_its_lane_cycles_to_the_kernel_counters():
    registry = global_registry()
    lane_cycles = registry.counter("repro_sim_kernel_lane_cycles_total")
    seconds = registry.counter("repro_sim_kernel_seconds_total")
    models = _lane_models(random_rrg(10, 18, seed=4), "tgmg", 3, random.Random(2))
    before = lane_cycles.value(), seconds.value()
    with kernels.use_backend("c"):
        kernels.run_windows(models, [1, 2, 1], 50, 10)
    assert lane_cycles.value() - before[0] == 3 * (50 + 10)
    assert seconds.value() > before[1]
    text = render_metrics(registry)
    assert "# TYPE repro_sim_kernel_lane_cycles_total counter" in text
    assert "# TYPE repro_sim_kernel_seconds_total counter" in text


@pytest.mark.skipif(
    kernels._find_compiler() is None, reason="no C compiler on PATH"
)
def test_kernel_source_compiles_without_warnings(tmp_path):
    # Every narrowing into the int32 lane records must be an explicit cast.
    source = tmp_path / "kernel.c"
    source.write_text(kernels._C_SOURCE, encoding="utf-8")
    result = subprocess.run(
        [
            kernels._find_compiler(), "-fsyntax-only", "-Wall", "-Wextra",
            "-Wconversion", "-Werror", str(source),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cycles", [0, -3])
def test_nonpositive_cycles_raise(backend, cycles):
    model = _identity_model(random_rrg(6, 10, seed=2))
    with kernels.use_backend(backend):
        with pytest.raises(ValueError):
            run_models([model], [1], cycles, 0)
        with pytest.raises(ValueError):
            kernels.run_windows([model], [1], cycles, 0)


def _draws_between(seed, state):
    """Number of ``random()`` calls that take ``Random(seed)`` to ``state``."""
    rng = random.Random(seed)
    for draws in range(100000):
        if rng.getstate() == state:
            return draws
        rng.random()
    raise AssertionError("state is not on the stream of the seed")


@pytest.mark.skipif(not NATIVE, reason="no C compiler for the kernel")
class TestRngStreamParity:
    """The MT19937 inside the kernel walks CPython's stream word for word."""

    @pytest.mark.parametrize("seed", [0, 7, -7, 2**40])
    @pytest.mark.parametrize("graph_seed", [3, 7])
    def test_mt_state_matches_the_reference_rng(self, seed, graph_seed):
        model = _identity_model(random_rrg(12, 24, seed=graph_seed))
        assert model.structure.guards, "graph needs early nodes"
        ref = ScalarSimulator(model, seed=seed)
        ref.run(cycles=1500, warmup=100)
        with kernels.use_backend("c"):
            run, _, _ = kernels.run_window(model, seed, cycles=1500, warmup=100)
        state = ref._rng.getstate()
        assert tuple(run.mt.tolist()) + (int(run.io[1]),) == state[1]
        # Two words per draw: the run crossed several 624-word twists.
        assert 2 * _draws_between(seed, state) > 3 * kernels._MT_WORDS

    def test_unseeded_run_yields_a_throughput(self):
        model = _identity_model(random_rrg(12, 24, seed=3))
        with kernels.use_backend("c"):
            _, window, throughput = kernels.run_window(
                model, None, cycles=300, warmup=50
            )
        assert len(window) == model.structure.num_nodes
        assert 0.0 <= throughput <= 1.0


class TestEvaluateBatch:
    def _candidates(self, rrg, size=14):
        problem = SearchProblem(rrg, cycles=96, warmup=24, seed=1)
        state = SearchState(rrg)
        moves = problem.sample_moves(state, random.Random(3), size)
        assert moves, "expected a non-empty move pool"
        out = []
        for move in moves:
            candidate = state.copy()
            candidate.apply(move)
            out.append(candidate)
        return out

    @staticmethod
    def _reference_throughput(rrg, state, problem):
        tgmg = build_tgmg(
            rrg, tokens=state.token_vector(), buffers=state.buffer_vector()
        )
        return TGMGSimulator(tgmg, seed=problem.seed).run(
            cycles=problem.cycles, warmup=problem.warmup
        ).throughput

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_independent_reference(self, backend):
        # tau from RRConfiguration.cycle_time, Theta from the reference
        # TGMG simulator: both bit for bit.
        rrg = large_random_rrg(80, seed=5)
        candidates = self._candidates(rrg)
        with kernels.use_backend(backend):
            clear_caches()
            problem = SearchProblem(rrg, cycles=96, warmup=24, seed=1)
            batch = problem.evaluate_batch(candidates)
        for state, evaluation in zip(candidates, batch):
            assert evaluation.cycle_time == state.as_configuration().cycle_time()
            assert evaluation.throughput == self._reference_throughput(
                rrg, state, problem
            )
        assert problem.evaluations == len(candidates)
        assert problem.simulations == len(
            {state.signature() for state in candidates}
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_matches_hand_applied_prune_rule(self, backend):
        rrg = large_random_rrg(80, seed=5)
        candidates = self._candidates(rrg)
        with kernels.use_backend(backend):
            clear_caches()
            problem = SearchProblem(rrg, cycles=96, warmup=24, seed=1)
            assert problem.lp_filter
            threshold = problem.evaluate(SearchState(rrg)).effective_cycle_time
            problem = SearchProblem(rrg, cycles=96, warmup=24, seed=1)
            batch = problem.evaluate_batch(candidates, threshold=threshold)
        # The rule by hand: Theta <= 1 prunes tau >= threshold, then the LP
        # bound Theta <= Theta_lp prunes tau / Theta_lp >= threshold.
        pruned_tau = pruned_lp = 0
        survivors = set()
        for state, evaluation in zip(candidates, batch):
            configuration = state.as_configuration()
            tau = configuration.cycle_time()
            if tau >= threshold:
                pruned_tau += 1
                assert evaluation is None
                continue
            if tau / configuration_throughput_bound(configuration) >= threshold:
                pruned_lp += 1
                assert evaluation is None
                continue
            assert evaluation.cycle_time == tau
            assert evaluation.throughput == self._reference_throughput(
                rrg, state, problem
            )
            survivors.add(state.signature())
        assert pruned_tau and pruned_lp, "both filters must fire"
        assert problem.evaluations == len(candidates)
        assert problem.pruned_tau == pruned_tau
        assert problem.pruned_lp == pruned_lp
        assert problem.lp_solves == len(candidates) - pruned_tau
        assert problem.simulations == len(survivors)

    def test_results_are_backend_independent(self):
        rrg = large_random_rrg(80, seed=5)
        candidates = self._candidates(rrg)
        outcomes = []
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                clear_caches()
                problem = SearchProblem(rrg, cycles=96, warmup=24, seed=1)
                outcomes.append([
                    (e.cycle_time, e.throughput)
                    for e in problem.evaluate_batch(candidates)
                ])
        for other in outcomes[1:]:
            assert other == outcomes[0]

    def test_duplicate_lanes_simulate_once(self):
        rrg = large_random_rrg(60, seed=3)
        candidates = self._candidates(rrg, size=6)
        clear_caches()
        problem = SearchProblem(rrg, cycles=64, warmup=16, seed=1)
        doubled = candidates + [c.copy() for c in candidates]
        results = problem.evaluate_batch(doubled)
        assert problem.evaluations == len(doubled)
        assert problem.simulations == len(candidates)
        half = len(candidates)
        for left, right in zip(results[:half], results[half:]):
            assert left.cycle_time == right.cycle_time
            assert left.throughput == right.throughput

    def test_infeasible_lane_evaluates_to_inf(self):
        rrg = large_random_rrg(60, seed=3)
        healthy = SearchState(rrg)
        deadlocked = healthy.copy()
        deadlocked.buffers = [0] * len(deadlocked.buffers)
        results = SearchProblem(
            rrg, cycles=64, warmup=16, seed=1
        ).evaluate_batch([healthy, deadlocked])
        assert math.isfinite(results[0].cycle_time)
        assert math.isinf(results[1].cycle_time)
        assert results[1].effective_cycle_time == math.inf

    def test_infeasible_lane_is_pruned_under_a_threshold(self):
        rrg = large_random_rrg(60, seed=3)
        healthy = SearchState(rrg)
        deadlocked = healthy.copy()
        deadlocked.buffers = [0] * len(deadlocked.buffers)
        problem = SearchProblem(rrg, cycles=64, warmup=16, seed=1)
        threshold = problem.evaluate(healthy).effective_cycle_time + 1.0
        results = problem.evaluate_batch(
            [deadlocked, healthy], threshold=threshold
        )
        assert results[0] is None
        assert results[1] is not None
        assert problem.pruned_tau >= 1

    def test_zero_buffer_state_without_a_cycle_is_a_normal_lane(self):
        # figure-style feed-forward edges can legally hold zero buffers;
        # only a zero-buffer *cycle* is infeasible.
        rrg = large_random_rrg(60, seed=3)
        state = SearchState(rrg)
        [result] = SearchProblem(
            rrg, cycles=64, warmup=16, seed=1
        ).evaluate_batch([state])
        assert math.isfinite(result.cycle_time)
        assert result.throughput > 0


class TestPortfolioDeterminismAcrossBackends:
    def test_same_seed_same_incumbent_on_every_backend(self):
        rrg = large_random_rrg(200, seed=9)
        outcomes = []
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                clear_caches()
                result = search_minimize(
                    rrg, time_budget=2.0, seed=4, include_milp=False
                )
                assert result.kernel_backend == backend
                outcomes.append(result)
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other.best.effective_cycle_time == (
                first.best.effective_cycle_time
            )
            assert other.best.configuration.same_assignment(
                first.best.configuration
            )
            assert other.history == first.history
            assert other.evaluations == first.evaluations
            assert other.evaluation_budget == first.evaluation_budget
