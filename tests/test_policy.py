import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_prob_vector
from esotn.env import Demand, EnvConfig, EnvState, OtnEnv, run_episode
from esotn.policy import (
    EvaluationError,
    ParamManifest,
    PolicyConfig,
    PolicyContext,
    PolicyParams,
    build_manifest,
    epsilon_greedy,
    flatten,
    forward,
    init_params,
    make_agent,
    unflatten,
)
from esotn.seeds import derive_key, rng_from_key
from esotn.topology import compute_candidate_paths, load_bundled_topology


def fresh_state(env_config, seed=0):
    return OtnEnv(env_config).reset(seed)


@pytest.fixture
def diamond_env(diamond):
    return EnvConfig(
        topology=diamond,
        paths=compute_candidate_paths(diamond, 2),
        demand_bandwidths=(4.0,),
    )


class TestManifest:
    def test_total_dim_matches_architecture_sum(self):
        # Independent count for hidden_dim=8, steps=2: embed (3*8 + 8),
        # two message rounds (8*8 + 8 each), demand embed (1*8 + 8),
        # readout (8*1 + 1).
        expected = (3 * 8 + 8) + 2 * (8 * 8 + 8) + (1 * 8 + 8) + (8 * 1 + 1)
        manifest = build_manifest(PolicyConfig(hidden_dim=8, message_passing_steps=2))
        assert manifest.total_dim == expected == 201

    def test_shape_arithmetic(self):
        manifest = ParamManifest(tensors=(("a", (2, 3)), ("b", (3,))))
        assert manifest.total_dim == 9

    def test_total_dim_independent_of_topology(self):
        # The same manifest (and so the same parameter vector) drives both
        # bundled topologies.
        config = PolicyConfig()
        assert build_manifest(config) == build_manifest(config)
        params = init_params(config, 3)
        for name in ("nsfnet", "geant2"):
            topo = load_bundled_topology(name)
            env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
            ctx = PolicyContext.for_env(env_config)
            state = fresh_state(env_config)
            candidates = env_config.paths.path_arrays(state.pending.src, state.pending.dst)
            assert_prob_vector(forward(params, ctx, state, candidates))


class TestInitParams:
    def test_deterministic(self):
        config = PolicyConfig()
        a = init_params(config, 11)
        b = init_params(config, 11)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        config = PolicyConfig()
        assert not np.array_equal(init_params(config, 1).values, init_params(config, 2).values)

    def test_biases_exactly_zero(self):
        params = init_params(PolicyConfig(hidden_dim=8, message_passing_steps=2), 5)
        for name, shape in params.manifest.tensors:
            if len(shape) == 1:
                assert np.all(params.views[name] == 0.0), name
            else:
                assert np.any(params.views[name] != 0.0), name

    def test_tensors_are_views_of_one_float32_copy_of_values(self):
        params = init_params(PolicyConfig(hidden_dim=8, message_passing_steps=2), 5)
        first = params.views["link_embed.w"]
        for name, (start, stop, shape) in params.manifest.slots.items():
            tensor = params.views[name]
            assert tensor.shape == shape
            assert tensor.base is first.base, name
            assert not np.shares_memory(tensor, params.values), name
            assert tensor.tobytes() == params.values[start:stop].astype(np.float32).tobytes(), name

    def test_weights_within_fan_limit(self):
        params = init_params(PolicyConfig(hidden_dim=16, message_passing_steps=1), 7)
        for name, shape in params.manifest.tensors:
            if len(shape) != 2:
                continue
            limit = np.sqrt(6.0 / sum(shape))
            start, stop, _ = params.manifest.slots[name]
            assert np.all(np.abs(params.values[start:stop]) <= limit), name


class TestForward:
    def test_zero_params_give_uniform(self, diamond_env):
        manifest = build_manifest(PolicyConfig())
        params = PolicyParams(manifest=manifest, values=np.zeros(manifest.total_dim))
        ctx = PolicyContext.for_env(diamond_env)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        candidates = diamond_env.paths.path_arrays(0, 3)
        probs = forward(params, ctx, state, candidates)
        assert np.allclose(probs, 1.0 / len(candidates))

    def test_single_candidate_is_certain(self):
        topo_links = [(0, 1, 10.0), (1, 2, 10.0)]
        from conftest import make_topology

        topo = make_topology(3, topo_links)
        env_config = EnvConfig(
            topology=topo, paths=compute_candidate_paths(topo, 4), demand_bandwidths=(4.0,)
        )
        params = init_params(PolicyConfig(), 0)
        ctx = PolicyContext.for_env(env_config)
        state = fresh_state(env_config)
        state.pending = Demand(0, 2, 4.0)
        probs = forward(params, ctx, state, env_config.paths.path_arrays(0, 2))
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0)

    def test_automorphic_candidates_get_equal_probability(self, diamond_env):
        # Swapping nodes 1 and 2 maps one two-hop candidate onto the other
        # while fixing src and dst; with symmetric residuals the two paths
        # must score identically for any parameters.
        ctx = PolicyContext.for_env(diamond_env)
        for seed in range(5):
            params = init_params(PolicyConfig(hidden_dim=8, message_passing_steps=3), seed)
            state = fresh_state(diamond_env)
            state.pending = Demand(0, 3, 4.0)
            probs = forward(params, ctx, state, diamond_env.paths.path_arrays(0, 3))
            assert probs == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_permutation_consistency(self, diamond_env):
        params = init_params(PolicyConfig(), 9)
        ctx = PolicyContext.for_env(diamond_env)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        state.residual[0] = 3.0  # break the symmetry
        candidates = list(diamond_env.paths.path_arrays(0, 3))
        forward_order = forward(params, ctx, state, candidates)
        reversed_order = forward(params, ctx, state, candidates[::-1])
        assert np.allclose(forward_order[::-1], reversed_order)

    def test_output_distribution_depends_on_residuals(self, diamond_env):
        params = init_params(PolicyConfig(), 3)
        ctx = PolicyContext.for_env(diamond_env)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        base = forward(params, ctx, state, diamond_env.paths.path_arrays(0, 3))
        state.residual[0] = 1.0
        skewed = forward(params, ctx, state, diamond_env.paths.path_arrays(0, 3))
        assert not np.allclose(base, skewed)

    def test_non_finite_scores_raise_evaluation_error(self, diamond_env):
        # tanh bounds all activations, so overflow is forced through the
        # readout: demand embedding ~1 per unit times a 1e308 readout weight
        # sums past the float64 ceiling.
        manifest = build_manifest(PolicyConfig(message_passing_steps=0))
        values = np.zeros(manifest.total_dim)
        start, stop, _ = manifest.slots["demand_embed.w"]
        values[start:stop] = 100.0
        start, stop, _ = manifest.slots["readout.w"]
        values[start:stop] = 1e308
        bad = PolicyParams(manifest=manifest, values=values)
        ctx = PolicyContext.for_env(diamond_env)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        with pytest.raises(EvaluationError, match="non-finite"):
            forward(bad, ctx, state, diamond_env.paths.path_arrays(0, 3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_probability_vector_for_bounded_params(self, seed):
        # Smoke property: parameter vectors with max-norm <= 10 always
        # produce a valid distribution on the shipped topologies.
        topo = load_bundled_topology("nsfnet")
        env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
        manifest = build_manifest(PolicyConfig(hidden_dim=4, message_passing_steps=1))
        rng = rng_from_key(derive_key(777, seed))
        params = PolicyParams(
            manifest=manifest, values=rng.uniform(-10, 10, manifest.total_dim)
        )
        ctx = PolicyContext.for_env(env_config)
        state = fresh_state(env_config, seed % 17)
        candidates = env_config.paths.path_arrays(state.pending.src, state.pending.dst)
        probs = forward(params, ctx, state, candidates)
        assert np.all(np.isfinite(probs))
        assert_prob_vector(probs)


def einsum_forward(params, ctx, state, candidates, dtype=np.float32):
    """``forward`` in ``dtype`` with message passing written as the einsum
    ``lm,cmh->clh``. In float32 it is the reference that pins ``forward``'s
    op choice and casts bit for bit: every parameter and every feature
    ratio (computed in float64) is cast to float32 first, and the scores
    return to float64 for the softmax. In float64 it is the arithmetic
    ``forward`` rounds."""
    on_path = np.zeros((len(candidates), ctx.capacities.shape[0]), dtype=dtype)
    for i, links in enumerate(candidates):
        on_path[i, links] = 1.0
    views = {
        name: params.values[start:stop].reshape(shape).astype(dtype)
        for name, (start, stop, shape) in params.manifest.slots.items()
    }
    w_in = views["link_embed.w"]
    base = (
        np.outer((state.residual / ctx.capacities).astype(dtype), w_in[0])
        + np.outer((ctx.capacities / ctx.max_capacity).astype(dtype), w_in[1])
        + views["link_embed.b"]
    )
    hidden = np.tanh(base[None, :, :] + on_path[:, :, None] * w_in[2])
    steps = sum(1 for name, _ in params.manifest.tensors if name.startswith("message.")) // 2
    for step in range(steps):
        agg = np.einsum("lm,cmh->clh", ctx.link_adjacency.astype(dtype), hidden)
        hidden = np.tanh(agg @ views[f"message.{step}.w"] + views[f"message.{step}.b"])
    path_repr = np.einsum("cl,clh->ch", on_path, hidden)
    load = dtype(state.pending.bandwidth / ctx.max_bandwidth)
    demand_emb = np.tanh(load * views["demand_embed.w"][0] + views["demand_embed.b"])
    readout_w, readout_b = views["readout.w"], views["readout.b"]
    scores = (np.tanh(path_repr + demand_emb) @ readout_w[:, 0] + readout_b[0]).astype(np.float64)
    exp = np.exp(scores - scores.max())
    return exp / exp.sum()


def reference_cases(topology, hidden_dim):
    """(σ, params, ctx, state, candidates) for every state that stochastic
    agents of θ0 (σ = 0) and of three mutations act on over two episodes each."""
    topo = load_bundled_topology(topology)
    env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, 4))
    ctx = PolicyContext.for_env(env_config)
    config = PolicyConfig(hidden_dim=hidden_dim, deterministic_eval=False)
    theta0 = init_params(config, 0)
    param_sets = [(0.0, theta0)] + [
        (sigma, PolicyParams(
            manifest=theta0.manifest,
            values=theta0.values + sigma * rng_from_key(derive_key(778, k)).standard_normal(
                theta0.manifest.total_dim
            ),
        ))
        for k, sigma in enumerate((0.05, 0.05, 1.0))
    ]
    cases = []
    for k, (sigma, params) in enumerate(param_sets):
        agent = make_agent(params, config, env_config, episode_seed=k, ctx=ctx)
        states = []

        def recording_agent(state):
            states.append(EnvState(residual=state.residual.copy(), pending=state.pending))
            return agent(state)

        for seed in range(2):
            run_episode(recording_agent, env_config, derive_key(779, k, seed))
        for state in states:
            candidates = env_config.paths.path_arrays(state.pending.src, state.pending.dst)
            cases.append((sigma, params, ctx, state, candidates))
    return cases


REFERENCE_SIZES = [("nsfnet", 16), ("geant2", 16), ("nsfnet", 256)]


class TestForwardMatchesEinsumReference:
    @pytest.mark.parametrize("topology,hidden_dim", REFERENCE_SIZES)
    def test_bitwise_on_rollout_states(self, topology, hidden_dim):
        cases = reference_cases(topology, hidden_dim)
        for _, params, ctx, state, candidates in cases:
            got = forward(params, ctx, state, candidates)
            assert got.tobytes() == einsum_forward(params, ctx, state, candidates).tobytes()
        assert len(cases) >= 20

    @pytest.mark.parametrize("topology,hidden_dim", REFERENCE_SIZES)
    def test_within_float32_tolerance_of_float64_arithmetic(self, topology, hidden_dim):
        # Tolerance set from float32's epsilon (1.2e-7) before measuring:
        # each score carries a few ulps of rounding per layer, and a
        # probability moves by at most a quarter of a score difference.
        # θ0 and the σ = 0.05 mutations only: σ = 1 weights amplify rounding
        # through the four message steps, and no bound is claimed there.
        for sigma, params, ctx, state, candidates in reference_cases(topology, hidden_dim):
            if sigma <= 0.05:
                got = forward(params, ctx, state, candidates)
                want = einsum_forward(params, ctx, state, candidates, dtype=np.float64)
                assert np.abs(got - want).max() <= 1e-5


def mutated_params(config, k, sigma=0.05):
    theta0 = init_params(config, 0)
    noise = rng_from_key(derive_key(780, k)).standard_normal(theta0.manifest.total_dim)
    return PolicyParams(manifest=theta0.manifest, values=theta0.values + sigma * noise)


def rollout_states(env_config, params, config, seeds):
    """Copies of every state a stochastic agent acts on over the episodes."""
    states = []
    ctx = PolicyContext.for_env(env_config)
    for seed in seeds:
        agent = make_agent(params, config, env_config, episode_seed=seed, ctx=ctx)

        def recording_agent(state):
            states.append(EnvState(residual=state.residual.copy(), pending=state.pending))
            return agent(state)

        run_episode(recording_agent, env_config, seed)
    return states


def bundled_env(name, bandwidths=(8.0, 32.0, 64.0)):
    topo = load_bundled_topology(name)
    return EnvConfig(
        topology=topo, paths=compute_candidate_paths(topo, 4), demand_bandwidths=bandwidths
    )


@pytest.mark.parametrize("name", ["nsfnet", "geant2"])
def test_link_adjacency_matches_pair_loop(name):
    # Reference: two links are adjacent when they share an endpoint.
    links = load_bundled_topology(name).links
    expected = np.zeros((len(links), len(links)), dtype=np.float32)
    for i, (a_i, b_i, _) in enumerate(links):
        for j, (a_j, b_j, _) in enumerate(links):
            if i != j and {a_i, b_i} & {a_j, b_j}:
                expected[i, j] = 1.0
    adjacency = PolicyContext.for_env(bundled_env(name)).link_adjacency
    assert adjacency.dtype == expected.dtype
    assert adjacency.tobytes() == expected.tobytes()


class TestForwardCachesMatchReference:
    """``forward`` keeps per-parameter terms (tiled biases, demand embeddings,
    per-context link terms) and reads the table's on-path layouts. Whichever
    parameters, context and candidate sequence reach it, every output must
    equal ``einsum_forward``'s byte for byte."""

    config = PolicyConfig(deterministic_eval=False, action_noise_epsilon=0.5)

    def assert_matches(self, params, ctx, state, candidates):
        got = forward(params, ctx, state, candidates)
        assert got.tobytes() == einsum_forward(params, ctx, state, candidates).tobytes()

    def test_own_reversed_and_rebuilt_candidate_sequences(self):
        env_config = bundled_env("geant2")
        ctx = PolicyContext.for_env(env_config)
        params = mutated_params(self.config, 1)
        states = rollout_states(env_config, params, self.config, range(4))
        assert len(states) >= 20
        for state in states:
            own = env_config.paths.path_arrays(state.pending.src, state.pending.dst)
            # The pair's own tuple first, so its layout is cached before the
            # reordered and rebuilt sequences of the same pair come in.
            for candidates in (own, own[::-1], list(own), tuple(a.copy() for a in own)):
                self.assert_matches(params, ctx, state, candidates)

    def test_one_params_object_across_topologies(self):
        envs = [bundled_env("nsfnet"), bundled_env("geant2")]
        contexts = [PolicyContext.for_env(env) for env in envs]
        params = mutated_params(self.config, 2)
        states = [rollout_states(env, params, self.config, range(3)) for env in envs]
        for pair in zip(*states):
            for env, ctx, state in zip(envs, contexts, pair):
                candidates = env.paths.path_arrays(state.pending.src, state.pending.dst)
                self.assert_matches(params, ctx, state, candidates)

    def test_contexts_with_different_max_bandwidth(self):
        # One table, one params object, two demand ranges: a bandwidth of 8
        # is load 1/8 under one context and 1/2 under the other.
        wide = bundled_env("nsfnet")
        narrow = replace(wide, demand_bandwidths=(8.0, 16.0))
        contexts = [PolicyContext.for_env(wide), PolicyContext.for_env(narrow)]
        params = mutated_params(self.config, 3)
        states = rollout_states(narrow, params, self.config, range(4))
        for state in states:
            candidates = wide.paths.path_arrays(state.pending.src, state.pending.dst)
            for ctx in contexts:
                self.assert_matches(params, ctx, state, candidates)

    def test_racing_threads_share_every_cache(self):
        # Inproc workers share one params object per evaluation and one
        # table. Eight threads, released together, enter the parameter
        # caches and a fresh table's first-use layout build cold; each round
        # puts a different cache first. Every thread must be handed the one
        # stored cache object, and every output must match.
        env_config = bundled_env("geant2")
        params = mutated_params(self.config, 4)
        states = rollout_states(env_config, params, self.config, range(3))
        pairs = [
            (state, env_config.paths.path_arrays(state.pending.src, state.pending.dst))
            for state in states
        ]
        ctx = PolicyContext.for_env(env_config)
        expected = [einsum_forward(params, ctx, state, cands).tobytes() for state, cands in pairs]
        n_links = ctx.capacities.shape[0]
        for round_ in range(3):
            fresh = replace(env_config, paths=compute_candidate_paths(env_config.topology, 4))
            ctx = PolicyContext.for_env(fresh)
            params = PolicyParams(manifest=params.manifest, values=params.values)
            caches = [
                lambda d, c: params.link_terms(ctx),
                lambda d, c: params.message_layers(n_links * len(c)),
                lambda d, c: params.demand_embedding(d.bandwidth / ctx.max_bandwidth),
            ]
            caches = caches[round_:] + caches[:round_]
            seen = [[] for _ in range(8)]
            barrier = threading.Barrier(8)

            def work(out, order):
                barrier.wait()
                for i in order:
                    state = pairs[i][0]
                    candidates = fresh.paths.path_arrays(state.pending.src, state.pending.dst)
                    cached = [cache(state.pending, candidates) for cache in caches]
                    out.append((i, cached, forward(params, ctx, state, candidates)))

            order = list(range(len(pairs)))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=work, args=(seen[i], order[i::-1] + order[i + 1:]))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for out in seen:
                assert len(out) == len(pairs)
                for i, cached, probs in out:
                    state = pairs[i][0]
                    candidates = fresh.paths.path_arrays(state.pending.src, state.pending.dst)
                    for cache, got in zip(caches, cached):
                        assert got is cache(state.pending, candidates)
                    assert probs.tobytes() == expected[i]


class TestFloat32Edges:
    """``forward`` computes in float32 from float64 parameters, then scores
    and normalises in float64."""

    @pytest.mark.parametrize("n_cand", range(1, 9))
    def test_float64_probability_vector_for_each_candidate_count(self, n_cand):
        topo = load_bundled_topology("geant2")
        env_config = EnvConfig(topology=topo, paths=compute_candidate_paths(topo, n_cand))
        ctx = PolicyContext.for_env(env_config)
        config = PolicyConfig()
        # θ0, then mutations of growing scale: the more peaked the softmax,
        # the more its small entries lean on the float32 scores.
        param_sets = [init_params(config, 0)] + [
            mutated_params(config, k, sigma) for k, sigma in enumerate((1.0, 10.0, 100.0))
        ]
        for seed in range(4):
            state = fresh_state(env_config, seed)
            state.residual *= rng_from_key(derive_key(781, n_cand, seed)).uniform(
                0.0, 1.0, state.residual.shape
            )
            candidates = env_config.paths.path_arrays(state.pending.src, state.pending.dst)
            assert len(candidates) == n_cand
            for params in param_sets:
                probs = forward(params, ctx, state, candidates)
                assert probs.dtype == np.float64
                assert probs.min() >= 0
                assert abs(probs.sum() - 1.0) <= 1e-6

    def test_parameter_beyond_float32_range_raises_quietly(self, diamond_env):
        # 1e39 is finite in float64 but past float32's ceiling (about
        # 3.4e38): its float32 copy is inf, and so is a score.
        params = init_params(PolicyConfig(), 0)
        values = params.values.copy()
        values[params.manifest.slots["readout.w"][0]] = 1e39
        bad = PolicyParams(manifest=params.manifest, values=values)
        ctx = PolicyContext.for_env(diamond_env)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite"):
                forward(bad, ctx, state, diamond_env.paths.path_arrays(0, 3))


class TestSampleAction:
    def test_deterministic_argmax(self, diamond_env):
        config = PolicyConfig(hidden_dim=4, message_passing_steps=1)
        params = init_params(config, 2)
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        state.residual[0] = 3.0  # break the symmetry
        ctx = PolicyContext.for_env(diamond_env)
        probs = forward(params, ctx, state, diamond_env.paths.path_arrays(0, 3))
        assert probs[1] > probs[0]
        assert make_agent(params, config, diamond_env, 0, ctx)(state) == 1

    def test_argmax_tie_breaks_to_lowest_index(self, diamond_env):
        # Zero parameters score every candidate alike.
        config = PolicyConfig()
        manifest = build_manifest(config)
        params = PolicyParams(manifest=manifest, values=np.zeros(manifest.total_dim))
        state = fresh_state(diamond_env)
        state.pending = Demand(0, 3, 4.0)
        ctx = PolicyContext.for_env(diamond_env)
        assert make_agent(params, config, diamond_env, 0, ctx)(state) == 0

    def test_zero_epsilon_matches_probs(self):
        rng = rng_from_key(derive_key(1))
        draws = [epsilon_greedy(1, 2, 0.0, rng) for _ in range(200)]
        assert all(d == 1 for d in draws)

    def test_epsilon_mixture_frequency(self):
        # greedy 0 of 2, eps 0.1: index 1 appears with probability
        # eps/2 = 0.05; check 10^5 samples within +-0.005.
        rng = rng_from_key(derive_key(2))
        hits = sum(epsilon_greedy(0, 2, 0.1, rng) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.05) < 0.005

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5, 0.999])
    def test_epsilon_greedy_matches_numpy_cdf_reference(self, eps):
        # The cumsum/searchsorted rule epsilon_greedy replaced. Per candidate
        # count n, one stream of 10^4 draws cycles the greedy index through
        # every candidate; indices and generator states must match exactly.
        def reference(greedy, n, eps, rng):
            mixture = np.full(n, eps / n)
            mixture[greedy] += 1.0 - eps
            cdf = np.cumsum(mixture)
            draw = rng.random() * cdf[-1]
            return min(int(np.searchsorted(cdf, draw, side="right")), n - 1)

        for n in range(1, 9):
            got_rng = rng_from_key(derive_key(3, n))
            want_rng = rng_from_key(derive_key(3, n))
            got = [epsilon_greedy(i % n, n, eps, got_rng) for i in range(10_000)]
            want = [reference(i % n, n, eps, want_rng) for i in range(10_000)]
            assert got == want, (n, eps)
            assert got_rng.random() == want_rng.random()

    def test_epsilon_one_rejected_by_config(self):
        with pytest.raises(ValueError):
            PolicyConfig(action_noise_epsilon=1.0)


class TestFlatten:
    def test_round_trip(self):
        params = init_params(PolicyConfig(hidden_dim=8, message_passing_steps=2), 3)
        rebuilt = unflatten(params.manifest, flatten(params))
        assert np.array_equal(rebuilt.values, params.values)
        assert rebuilt.manifest == params.manifest

    def test_wrong_length_rejected(self):
        manifest = build_manifest(PolicyConfig(hidden_dim=4, message_passing_steps=0))
        with pytest.raises(ValueError, match="does not match"):
            unflatten(manifest, np.zeros(manifest.total_dim + 1))

    def test_non_finite_rejected(self):
        manifest = ParamManifest(tensors=(("t", (2,)),))
        with pytest.raises(ValueError, match="non-finite"):
            PolicyParams(manifest=manifest, values=np.array([1.0, np.nan]))

    def test_flatten_returns_copy(self):
        params = init_params(PolicyConfig(hidden_dim=4, message_passing_steps=0), 1)
        flat = flatten(params)
        flat[0] += 1.0
        assert flat[0] != params.values[0]


class TestAgent:
    def test_agent_runs_episode(self, diamond_env):
        params = init_params(PolicyConfig(hidden_dim=4, message_passing_steps=1), 0)
        agent = make_agent(params, PolicyConfig(hidden_dim=4, message_passing_steps=1),
                           diamond_env, 5, PolicyContext.for_env(diamond_env))
        state = fresh_state(diamond_env, 5)
        action = agent(state)
        candidates = diamond_env.paths.entries[(state.pending.src, state.pending.dst)]
        assert 0 <= action < len(candidates)

    @pytest.mark.parametrize("deterministic", [True, False], ids=["argmax", "epsilon_greedy"])
    def test_feasibility_masking_avoids_blocked_path(self, diamond_env, deterministic):
        # Zero parameters tie the two candidates, so the unmasked argmax is
        # the first; with it blocked, the masked agent must take the second.
        # The epsilon-greedy agent at eps 0 is the training-rollout agent.
        config = PolicyConfig(
            message_passing_steps=0, deterministic_eval=deterministic, action_noise_epsilon=0.0
        )
        manifest = build_manifest(config)
        params = PolicyParams(manifest=manifest, values=np.zeros(manifest.total_dim))
        state = fresh_state(diamond_env, 1)
        state.pending = Demand(0, 3, 4.0)
        first_path = diamond_env.paths.path_arrays(0, 3)[0]
        state.residual[first_path[0]] = 1.0
        ctx = PolicyContext.for_env(diamond_env)
        assert make_agent(params, config, diamond_env, 1, ctx)(state) == 0
        masked = replace(config, feasibility_masking=True)
        assert make_agent(params, masked, diamond_env, 1, ctx)(state) == 1
