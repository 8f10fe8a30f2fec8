import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
from esotn.config import build_env_configs, load_run_config
from esotn.env import run_episode
from esotn.es import (
    ESConfig,
    EvaluationError,
    ProtocolError,
    compute_update,
    derive_perturbation,
    episode_seeds,
    evaluate_assignment,
    make_fitness_evaluator,
    mutate,
    mutation_seed_sign,
    resolve_failures,
    shape_fitness,
)
from esotn.policy import (
    ParamManifest,
    PolicyConfig,
    PolicyContext,
    PolicyParams,
    build_manifest,
    init_params,
    make_agent,
)
from esotn.runtime import TrainingSetup, run_coordinator
from esotn.seeds import TAG_ACTION, TAG_EVAL, derive_key, rng_from_key


def vector_manifest(dim):
    return ParamManifest(tensors=(("theta", (dim,)),))


def vector_params(values):
    values = np.asarray(values, dtype=np.float64)
    return PolicyParams(manifest=vector_manifest(values.size), values=values)


class TestConfigValidation:
    def test_mirrored_requires_even_k(self):
        with pytest.raises(ValueError, match="even"):
            ESConfig(num_mutations=5, mirrored=True)

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            ESConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ESConfig(sigma=-1.0)

    def test_unknown_shaping(self):
        with pytest.raises(ValueError, match="shaping"):
            ESConfig(shaping="softmax")

    def test_at_least_two_mutations(self):
        with pytest.raises(ValueError, match="at least two mutations, got 1"):
            ESConfig(num_mutations=1, mirrored=False)


class TestDerivePerturbation:
    def test_mirrored_pair_exactly_negated(self):
        manifest = vector_manifest(64)
        pos = derive_perturbation(manifest, 123, 1)
        neg = derive_perturbation(manifest, 123, -1)
        assert np.array_equal(pos, -neg)

    def test_deterministic(self):
        manifest = vector_manifest(64)
        assert np.array_equal(
            derive_perturbation(manifest, 9, 1), derive_perturbation(manifest, 9, 1)
        )

    def test_moments_pooled_over_seeds(self):
        manifest = vector_manifest(1000)
        pooled = np.concatenate(
            [derive_perturbation(manifest, derive_key(55, i), 1) for i in range(1000)]
        )
        assert pooled.size == 1_000_000
        assert abs(pooled.mean()) < 0.005
        assert abs(pooled.var() - 1.0) < 0.01

    def test_mirrored_partners_share_seed(self):
        config = toy_config(num_mutations=8)
        for pair in range(4):
            seed_a, sign_a = mutation_seed_sign(config, 3, 2 * pair)
            seed_b, sign_b = mutation_seed_sign(config, 3, 2 * pair + 1)
            assert seed_a == seed_b
            assert (sign_a, sign_b) == (1, -1)

    def test_non_mirrored_unique_seeds(self):
        config = toy_config(num_mutations=8, mirrored=False)
        seeds = {mutation_seed_sign(config, 0, j)[0] for j in range(8)}
        assert len(seeds) == 8


class TestMutate:
    def test_zero_sigma_identity(self):
        theta = vector_params([1.0, 2.0, 3.0])
        eps = np.array([5.0, -1.0, 0.5])
        out = mutate(theta, eps, 0.0)
        assert np.array_equal(out.values, theta.values)
        assert out is not theta

    def test_basis_direction(self):
        theta = vector_params(np.zeros(4))
        eps = np.array([1.0, 0.0, 0.0, 0.0])
        out = mutate(theta, eps, 0.5)
        assert out.values.tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_additive_inverse_recovers_input(self):
        theta = vector_params([0.25, -4.0, 7.5])
        eps = np.array([1.5, 2.5, -3.5])
        forward_then_back = mutate(mutate(theta, eps, 0.5), eps, -0.5)
        assert np.array_equal(forward_then_back.values, theta.values)

    def test_input_unchanged(self):
        theta = vector_params([1.0, 1.0])
        before = theta.values.copy()
        mutate(theta, np.array([9.0, 9.0]), 1.0)
        assert np.array_equal(theta.values, before)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mutate(vector_params([1.0, 2.0]), np.zeros(3), 0.1)


class TestShapeFitness:
    def test_two_returns(self):
        shaped = shape_fitness(np.array([5.0, 1.0]))
        assert shaped == pytest.approx([0.5, -0.5])

    def test_monotone_transform_invariance(self):
        raw = np.array([3.0, -1.0, 7.0, 2.0, 0.0])
        transformed = 4.0 * raw  # power-of-two scale: exact and order-preserving
        assert np.array_equal(
            shape_fitness(raw), shape_fitness(transformed)
        )

    def test_all_equal_returns_use_tie_break(self):
        shaped = shape_fitness(np.full(6, 2.5))
        ordered = shape_fitness(np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))
        # ties resolve by mutation index, reproducing the strictly-ordered case
        assert np.array_equal(shaped, ordered)
        assert abs(shaped.sum()) < 1e-9

    def test_sum_zero(self):
        rng = rng_from_key(derive_key(31))
        for _ in range(20):
            utilities = shape_fitness(rng.normal(size=16))
            assert abs(utilities.sum()) < 1e-9

    def test_rank_only_dependence(self):
        raw = np.array([10.0, -5.0, 3.0, 0.5])
        squashed = np.tanh(raw / 20.0)  # strictly increasing on this range
        assert np.array_equal(
            shape_fitness(raw), shape_fitness(squashed)
        )

    def test_centered_mode(self):
        raw = np.array([1.0, 2.0, 6.0])
        shaped = shape_fitness(raw, method="centered")
        assert shaped == pytest.approx(raw - 3.0)

    def test_rejects_single_return(self):
        with pytest.raises(ValueError, match="at least two"):
            shape_fitness(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            shape_fitness(np.array([1.0, math.nan]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_properties_hold_for_arbitrary_returns(self, returns):
        utilities = shape_fitness(np.array(returns))
        assert abs(utilities.sum()) < 1e-9
        doubled = shape_fitness(np.array(returns) * 2.0)
        assert np.array_equal(utilities, doubled)


class TestResolveFailures:
    def test_no_failures_pass_through(self):
        config = toy_config()
        raw = np.array([1.0, 2.0])
        assert np.array_equal(resolve_failures(raw, config), raw)

    def test_default_ranks_failures_strictly_last(self):
        config = toy_config()
        out = resolve_failures(np.array([3.0, math.nan, -2.0]), config)
        assert out.tolist() == [3.0, -3.0, -2.0]

    def test_all_failed_stops_the_run(self):
        # Ranking k failures would give an update that depends only on the
        # mutation indices.
        config = toy_config()
        with pytest.raises(EvaluationError, match="all 3 mutations failed"):
            resolve_failures(np.full(3, math.nan), config)


class TestComputeUpdate:
    def test_single_term_formula(self):
        # k=2 non-mirrored, u = [1, 0]: delta = alpha / (k sigma) * epsilon_0
        config = toy_config(num_mutations=2, mirrored=False, alpha=0.2, sigma=0.5)
        manifest = vector_manifest(6)
        seed, sign = mutation_seed_sign(config, 0, 0)
        delta = compute_update(np.array([1.0, 0.0]), config, 0, manifest)
        epsilon = derive_perturbation(manifest, seed, sign)
        assert np.array_equal(delta, 0.2 / (2 * 0.5) * epsilon)

    def test_mirrored_pair_with_equal_returns(self):
        # Oracle: the pair contributes (u+ - u-) * epsilon; with equal
        # returns and index tie-break, u = [0.5, -0.5], so
        # delta = alpha/(2 sigma) * (0.5 - (-0.5)) * epsilon = alpha/(2 sigma) * epsilon.
        config = toy_config(num_mutations=2, mirrored=True, alpha=0.1, sigma=0.2)
        manifest = vector_manifest(5)
        seed, _ = mutation_seed_sign(config, 1, 0)
        shaped = shape_fitness(np.array([4.0, 4.0]))
        delta = compute_update(shaped, config, 1, manifest)
        epsilon = derive_perturbation(manifest, seed, 1)
        expected = (0.1 / (2 * 0.2)) * (0.5 * epsilon + (-0.5) * -epsilon)
        assert delta == pytest.approx(expected)

    def test_zero_utilities_zero_update(self):
        config = toy_config(num_mutations=4)
        manifest = vector_manifest(3)
        delta = compute_update(np.zeros(4), config, 0, manifest)
        assert np.array_equal(delta, np.zeros(3))

    def test_wrong_length_utilities_is_protocol_error(self):
        config = toy_config(num_mutations=4)
        manifest = vector_manifest(3)
        with pytest.raises(ProtocolError, match="4 utilities"):
            compute_update(np.zeros(3), config, 0, manifest)

    def test_update_invariant_under_monotone_return_transform(self):
        # End to end: doubling all raw returns must leave the update vector
        # exactly unchanged (rank shaping sees the same ordering).
        config = toy_config(num_mutations=8)
        manifest = vector_manifest(10)
        rng = rng_from_key(derive_key(8))
        raw = rng.normal(size=8)
        delta_a = compute_update(shape_fitness(raw), config, 2, manifest)
        delta_b = compute_update(shape_fitness(raw * 2.0), config, 2, manifest)
        assert np.array_equal(delta_a, delta_b)


class TestEvaluateMutation:
    @pytest.fixture
    def env_setup(self, triangle_env):
        policy_config = PolicyConfig(hidden_dim=4, message_passing_steps=1)
        return policy_config, [triangle_env]

    def test_single_seed_equals_episode_return(self, env_setup):
        policy_config, env_configs = env_setup
        params = init_params(policy_config, 0)
        seeds = [derive_key(1, 0)]
        raw = make_fitness_evaluator(env_configs, policy_config)(params, seeds)
        rollout_config = replace(policy_config, deterministic_eval=False)
        ctx = PolicyContext.for_env(env_configs[0])
        agent = make_agent(params, rollout_config, env_configs[0], seeds[0], ctx)
        assert raw == run_episode(agent, env_configs[0], seeds[0])[0]

    def test_deterministic(self, env_setup):
        policy_config, env_configs = env_setup
        params = init_params(policy_config, 1)
        seeds = [derive_key(2, i) for i in range(3)]
        evaluate = make_fitness_evaluator(env_configs, policy_config)
        assert evaluate(params, seeds) == evaluate(params, seeds)

    def test_zero_params_match_handwritten_epsilon_greedy_agent(self, triangle_env):
        # Zero parameters give uniform probabilities, whose argmax is
        # candidate 0; a fitness rollout must match an independent agent
        # that draws from (1 - eps) * onehot(0) + eps / n on the same noise
        # stream. The config passed in is a deterministic one, so this also
        # checks that the fitness rollouts are the stochastic agent's.
        eps = 0.5
        policy_config = PolicyConfig(
            hidden_dim=4, message_passing_steps=1, action_noise_epsilon=eps
        )
        assert policy_config.deterministic_eval
        manifest = build_manifest(policy_config)
        params = PolicyParams(manifest=manifest, values=np.zeros(manifest.total_dim))
        seeds = [derive_key(3, i) for i in range(5)]
        raw = make_fitness_evaluator([triangle_env], policy_config)(params, seeds)

        def epsilon_greedy_agent(episode_seed):
            rng = rng_from_key(derive_key(TAG_ACTION, episode_seed))
            def act(state):
                n = len(triangle_env.paths.entries[(state.pending.src, state.pending.dst)])
                mixture = np.full(n, eps / n)
                mixture[0] += 1.0 - eps
                cdf = np.cumsum(mixture)
                draw = rng.random() * cdf[-1]
                return min(int(np.searchsorted(cdf, draw, side="right")), n - 1)
            return act

        expected = np.mean(
            [run_episode(epsilon_greedy_agent(s), triangle_env, s)[0] for s in seeds]
        )
        assert raw == expected

    def test_failure_becomes_nan(self, env_setup):
        policy_config, _ = env_setup
        config = toy_config(num_mutations=2)
        theta = init_params(policy_config, 0)
        # sabotage: an empty env list makes every evaluation raise
        evaluator = make_fitness_evaluator([], policy_config)
        (raw,) = evaluate_assignment(theta, config, 0, [0], evaluator)
        assert math.isnan(raw)


class TestFitnessEvaluator:
    def test_noise_free_fitness_is_argmax_agent_return(self):
        # The training fitness must score the policy that evaluation scores:
        # with no action noise it is the mean return of the argmax agent.
        # Softmax-sampled rollouts of the same parameters score differently.
        env_config = build_env_configs(load_run_config(None))[0]
        policy_config = PolicyConfig(action_noise_epsilon=0.0)
        params = init_params(policy_config, 0)
        seeds = [derive_key(TAG_EVAL, 0, i) for i in range(8)]
        fitness = make_fitness_evaluator([env_config], policy_config)(params, seeds)
        ctx = PolicyContext.for_env(env_config)
        argmax_returns = [
            run_episode(make_agent(params, policy_config, env_config, s, ctx), env_config, s)[0]
            for s in seeds
        ]
        assert fitness == np.mean(argmax_returns)

    def test_pure_in_params_and_seeds_whatever_the_call_history(self):
        # The demand memo must not leak between calls or between envs. Two
        # topologies alternate by position, and A repeats each seed, so it
        # runs on both: a memo keyed without the env index hands geant2
        # nsfnet's demands (or the reverse) within one call.
        config = load_run_config(None, {"topology.files": "nsfnet,geant2"})
        env_configs = build_env_configs(config)
        params = init_params(config.policy, 0)
        s0, s1, s2 = (derive_key(TAG_EVAL, 9, i) for i in range(3))
        a, b = [s0, s0, s1, s1], [s1, s2]

        evaluate = make_fitness_evaluator(env_configs, config.policy)
        evaluate(params, a)
        evaluate(params, b)
        after_history = evaluate(params, a)

        rollout_config = replace(config.policy, deterministic_eval=False)
        contexts = [PolicyContext.for_env(env_config) for env_config in env_configs]
        total = 0.0
        for i, seed in enumerate(a):
            env_config = env_configs[i % 2]
            agent = make_agent(params, rollout_config, env_config, seed, contexts[i % 2])
            total += run_episode(agent, env_config, seed)[0]
        assert after_history == make_fitness_evaluator(env_configs, config.policy)(params, a)
        assert after_history == total / len(a)


class TestEvaluateAssignment:
    def test_records_carry_shared_seeds_and_signs(self):
        config = toy_config(num_mutations=4)
        theta = vector_params(np.zeros(6))
        raws = evaluate_assignment(theta, config, 7, range(4), lambda p, s: 1.0)
        assert raws == [1.0, 1.0, 1.0, 1.0]
        (seed0, sign0), (seed1, sign1) = (mutation_seed_sign(config, 7, j) for j in range(2))
        assert seed0 == seed1
        assert sign0 == 1 and sign1 == -1

    def test_evaluator_exception_scored_as_nan(self):
        config = toy_config(num_mutations=2)
        theta = vector_params(np.zeros(2))

        def flaky(params, seeds):
            if params.values[0] > 0:
                raise RuntimeError("boom")
            return 1.0

        raws = evaluate_assignment(theta, config, 0, range(2), flaky)
        assert sum(math.isnan(r) for r in raws) >= 1

    @pytest.mark.parametrize("mirrored, indices, derivations", [
        (True, range(8), 4),
        (True, range(1, 8), 4),  # a slice that starts inside a pair
        (False, range(8), 8),
    ])
    def test_derives_each_seed_once_and_matches_per_index_reference(
        self, monkeypatch, mirrored, indices, derivations
    ):
        config = toy_config(num_mutations=8, mirrored=mirrored)
        theta = vector_params(np.linspace(-1.0, 1.0, 7))
        weights = np.arange(1.0, 8.0) / 3.0
        evaluator = lambda p, s: float(p.values @ weights)

        expected = []
        for j in indices:
            seed, sign = mutation_seed_sign(config, 3, j)
            candidate = mutate(theta, derive_perturbation(theta.manifest, seed, sign), config.sigma)
            expected.append(evaluator(candidate, episode_seeds(config, 3)))

        calls = []

        def counting(manifest, seed, sign):
            calls.append(seed)
            return derive_perturbation(manifest, seed, sign)

        monkeypatch.setattr("esotn.es.derive_perturbation", counting)
        raws = evaluate_assignment(theta, config, 3, indices, evaluator)
        assert len(calls) == derivations
        assert raws == expected


class TestFloat32Failures:
    def test_parameter_beyond_float32_range_scores_nan_and_ranks_last(self):
        # forward computes in float32: a value finite in float64 but past
        # float32's range (1e39 in the readout) raises EvaluationError, and
        # that mutation must fail alone and rank strictly last.
        config = load_run_config(None, {"es.mutations": "4", "es.episodes_per_eval": "1"})
        evaluator = make_fitness_evaluator(build_env_configs(config), config.policy)
        theta = init_params(config.policy, 0)
        readout = theta.manifest.slots["readout.w"][0]
        calls = []

        def fitness(params, seeds):
            calls.append(None)
            if len(calls) == 2:
                values = params.values.copy()
                values[readout] = 1e39
                params = PolicyParams(manifest=params.manifest, values=values)
            return evaluator(params, seeds)

        raws = evaluate_assignment(theta, config.es, 0, range(4), fitness)
        assert [math.isnan(r) for r in raws] == [False, True, False, False]
        resolved = resolve_failures(np.array(raws), config.es)
        assert resolved[1] < min(resolved[[0, 2, 3]])
        assert shape_fitness(resolved)[1] == shape_fitness(resolved).min()


class TestCandidateLifetime:
    def test_every_candidate_dies_with_its_forward_terms(self, monkeypatch):
        # forward keeps its float32 terms on each candidate, so they go
        # with it. A module-level cache of them would keep candidates, and
        # their terms, alive after the evaluation.
        config = load_run_config(None, {"es.mutations": "8", "es.episodes_per_eval": "2"})
        evaluator = make_fitness_evaluator(build_env_configs(config), config.policy)
        theta = init_params(config.policy, 0)
        refs, filled = [], []

        def tracking_mutate(theta, epsilon, sigma):
            candidate = mutate(theta, epsilon, sigma)
            refs.append(weakref.ref(candidate))
            return candidate

        def fitness(params, seeds):
            raw = evaluator(params, seeds)
            filled.append(all((params._links, params._layers, params._demand)))
            return raw

        monkeypatch.setattr("esotn.es.mutate", tracking_mutate)
        raws = evaluate_assignment(theta, config.es, 0, range(8), fitness)
        gc.collect()
        assert len(refs) == 8 and all(map(math.isfinite, raws))
        assert filled == [True] * 8
        assert [ref() for ref in refs] == [None] * 8


def run_sequential(theta, config, fitness, on_iteration=None):
    """Train on one worker; returns the final parameters and the stats."""
    setup = TrainingSetup(es=config, evaluator=fitness)
    return run_coordinator(setup, theta, [], on_iteration)


class TestTrainIteration:
    def test_deterministic(self):
        config = toy_config(num_mutations=8, iterations=4)
        theta = vector_params(np.zeros(5))
        fitness = lambda p, s: -float(np.sum(p.values**2))
        a, _ = run_sequential(theta, config, fitness)
        b, _ = run_sequential(theta, config, fitness)
        assert np.array_equal(a.values, b.values)

    def test_stats_fields(self):
        config = toy_config(num_mutations=4, iterations=1)
        theta = vector_params(np.zeros(3))
        new_theta, run = run_sequential(theta, config, lambda p, s: float(p.values[0]))
        (stats,) = run
        assert stats.t == 0
        assert stats.worst_return <= stats.mean_return <= stats.best_return
        assert stats.eval_seconds >= 0
        assert stats.theta_l2_norm == pytest.approx(float(np.linalg.norm(new_theta.values)))

    def test_quadratic_toy_converges(self):
        # Small-scale twin of the full acceptance run.
        config = toy_config(num_mutations=32, alpha=0.05, sigma=0.1, iterations=200)
        rng = rng_from_key(derive_key(404))
        target = rng.normal(size=10)
        target /= np.linalg.norm(target)
        fitness = lambda p, s: -float(np.sum((p.values - target) ** 2))
        hits = []

        def on_iteration(stats, theta):
            if np.linalg.norm(theta.values - target) < 0.1:
                hits.append(stats.t)

        run_sequential(vector_params(np.zeros(10)), config, fitness, on_iteration)
        assert hits, "never within 0.1 of the target in 200 iterations"

    def test_linear_fitness_mean_update_aligns_with_gradient(self):
        # Centered shaping on F(theta) = g . theta: the average update
        # direction converges to g. The update does not depend on theta
        # here, so the summed updates are the distance travelled.
        dim = 8
        config = toy_config(
            num_mutations=8, alpha=0.05, sigma=0.1, shaping="centered", iterations=2000
        )
        rng = rng_from_key(derive_key(505))
        g = rng.normal(size=dim)
        g /= np.linalg.norm(g)
        fitness = lambda p, s: float(g @ p.values)
        theta = vector_params(np.zeros(dim))
        final, _ = run_sequential(theta, config, fitness)
        total = final.values - theta.values
        cosine = total @ g / np.linalg.norm(total)
        assert cosine > 0.95

    def test_mirrored_pairs_take_antisymmetric_ranks_on_odd_fitness(self):
        # For returns that are odd in epsilon, a pair's members land at
        # ranks r and k+1-r.
        dim = 6
        rng = rng_from_key(derive_key(606))
        g = rng.normal(size=dim)
        g /= np.linalg.norm(g)
        config = toy_config(num_mutations=8, global_seed=9)
        theta = vector_params(np.zeros(dim))
        raw = np.array(
            evaluate_assignment(theta, config, 0, range(8), lambda p, s: float(g @ p.values))
        )
        order = np.argsort(-raw)
        ranks = np.empty(8, dtype=int)
        ranks[order] = np.arange(1, 9)
        for pair in range(4):
            assert ranks[2 * pair] + ranks[2 * pair + 1] == 9

    def test_mirrored_variance_not_larger_on_linear_fitness(self):
        # Raw-return estimator (update applied to unshaped returns) at a
        # point with nonzero fitness: antithetic pairs cancel the baseline
        # term exactly, so the mirrored estimator's variance stays below the
        # non-mirrored one. 10^4 trials leave a decisive margin.
        dim = 6
        rng = rng_from_key(derive_key(606))
        g = rng.normal(size=dim)
        g /= np.linalg.norm(g)
        fitness = lambda p, s: float(g @ p.values)
        theta = vector_params(np.ones(dim))

        def update_samples(mirrored, trials, seed):
            config = toy_config(num_mutations=8, mirrored=mirrored, global_seed=seed)
            out = np.empty((trials, dim))
            for t in range(trials):
                raw = np.array(evaluate_assignment(theta, config, t, range(8), fitness))
                out[t] = compute_update(raw, config, t, theta.manifest)
            return out

        trials = 10_000
        mirrored_var = update_samples(True, trials, 1).var(axis=0).sum()
        plain_var = update_samples(False, trials, 2).var(axis=0).sum()
        assert mirrored_var <= plain_var


def test_episode_seeds_shared_within_iteration():
    config = toy_config(episodes_per_eval=3)
    assert episode_seeds(config, 5) == episode_seeds(config, 5)
    assert episode_seeds(config, 5) != episode_seeds(config, 6)
    assert len(episode_seeds(config, 5)) == 3
