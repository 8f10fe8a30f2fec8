import pytest

from esotn.config import (
    ConfigError,
    build_env_configs,
    build_training_setup,
    load_run_config,
    resolve_topology,
    write_config_echo,
)
from esotn.es import ESConfig
from esotn.policy import PolicyConfig

from conftest import TRIANGLE_TEXT


class TestLoadRunConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_run_config(path)
        assert config.topology_files == ("nsfnet",)
        assert config.k_paths == 4
        assert config.demand_bandwidths == (8.0, 32.0, 64.0)
        assert config.es.num_mutations == 64
        assert config.es.mirrored
        assert config.workers == 1
        assert config.mode == "inproc"

    def test_no_file_gives_defaults(self):
        assert load_run_config(None) == load_run_config(None)

    def test_section_defaults_match_dataclass_defaults(self):
        config = load_run_config(None)
        assert config.es == ESConfig()
        assert config.policy == PolicyConfig()

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("es.sigma = 0.2\nrun.workers = 4\n")
        config = load_run_config(path)
        assert config.es.sigma == 0.2
        assert config.workers == 4

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("es.sigma = 0.05\n")
        config = load_run_config(path, {"es.sigma": "0.1"})
        assert config.es.sigma == 0.1

    def test_unknown_key_fails_closed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("es.sgima = 0.1\n")
        with pytest.raises(ConfigError, match="sgima"):
            load_run_config(path)

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown override"):
            load_run_config(None, {"es.sgima": "0.1"})

    def test_type_mismatch_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("es.mutations = many\n")
        with pytest.raises(ConfigError, match="es.mutations"):
            load_run_config(path)

    def test_comments_and_inline_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nes.sigma = 0.25  # inline\n")
        assert load_run_config(path).es.sigma == 0.25

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_run_config(path)

    def test_bandwidth_list_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("env.demand_bandwidths = 2, 4, 8\n")
        assert load_run_config(path).demand_bandwidths == (2.0, 4.0, 8.0)

    def test_unbounded_episode_steps(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("env.max_episode_steps = none\n")
        assert load_run_config(path).max_episode_steps is None

    def test_failure_fitness_auto_and_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("es.failure_fitness = auto\n")
        assert load_run_config(path).es.failure_fitness is None
        path.write_text("es.failure_fitness = -5\n")
        assert load_run_config(path).es.failure_fitness == -5.0

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="run.mode"):
            load_run_config(None, {"run.mode": "cluster"})

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_iter_timeout_names_key(self, value):
        with pytest.raises(ConfigError, match="run.iter_timeout_secs"):
            load_run_config(None, {"run.iter_timeout_secs": value})

    def test_invalid_es_values_surface_as_config_error(self):
        with pytest.raises(ConfigError, match="even"):
            load_run_config(None, {"es.mutations": "7"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize(
        "key",
        [
            "es.alpha",
            "es.sigma",
            "es.failure_fitness",
            "policy.action_noise",
            "env.link_capacity",
            "env.demand_bandwidths",
            "run.iter_timeout_secs",
        ],
    )
    def test_non_finite_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"key {key}: .*not a finite number"):
            load_run_config(None, {key: value})


# The echo text of the default configuration. It is what config.echo.cfg,
# checkpoint sidecars and config hashes are made of, so a schema edit that
# changes it must show here.
DEFAULT_ECHO = """\
topology.files = nsfnet
topology.k_paths = 4
env.link_capacity = none
env.demand_bandwidths = 8,32,64
env.demand_seed = 0
env.max_episode_steps = 1000
policy.hidden_dim = 16
policy.message_passing_steps = 4
policy.action_noise = 0.05
policy.feasibility_masking = false
es.alpha = 0.25
es.sigma = 0.05
es.mutations = 64
es.mirrored = true
es.episodes_per_eval = 3
es.iterations = 300
es.seed = 0
es.failure_fitness = none
run.mode = inproc
run.workers = 1
run.out = runs/default
run.checkpoint_interval = 50
run.iter_timeout_secs = 300
"""


class TestEcho:
    def test_default_echo_text_pinned(self, tmp_path):
        items = load_run_config(None).as_items()
        assert "".join(f"{key} = {value}\n" for key, value in items) == DEFAULT_ECHO
        echo = tmp_path / "echo.cfg"
        write_config_echo(load_run_config(None), echo)
        assert echo.read_text() == "# effective configuration\n" + DEFAULT_ECHO

    def test_echo_round_trips(self, tmp_path):
        original = load_run_config(
            None,
            {
                "topology.files": "nsfnet,geant2",
                "es.sigma": "0.125",
                "es.failure_fitness": "-3.5",
                "env.max_episode_steps": "none",
                "run.workers": "4",
                "run.mode": "proc",
            },
        )
        echo = tmp_path / "echo.cfg"
        write_config_echo(original, echo)
        reloaded = load_run_config(echo)
        assert reloaded == original


class TestTopologyResolution:
    def test_bundled_name(self):
        assert resolve_topology("nsfnet", None).node_count == 14

    def test_file_path(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE_TEXT)
        topo = resolve_topology(str(path), None)
        assert topo.node_count == 3
        assert topo.name == "tri"

    def test_directory_does_not_shadow_bundled_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "geant2").mkdir()
        assert resolve_topology("geant2", None).node_count == 24

    def test_capacity_override(self):
        topo = resolve_topology("nsfnet", 500.0)
        assert set(topo.capacities.tolist()) == {500.0}

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="neither a file nor a bundled"):
            resolve_topology("fastnet", None)


class TestBuilders:
    def test_env_configs_mixed_topologies(self):
        config = load_run_config(None, {"topology.files": "nsfnet,geant2"})
        envs = build_env_configs(config)
        assert [env.topology.node_count for env in envs] == [14, 24]
        assert all(env.paths.k == 4 for env in envs)

    def test_training_setup_initial_params_deterministic(self, tmp_path):
        config = load_run_config(None, {"es.iterations": "2", "es.mutations": "4"})
        setup_a, theta_a = build_training_setup(config)
        setup_b, theta_b = build_training_setup(config)
        assert (theta_a.values == theta_b.values).all()
        assert theta_a.manifest == theta_b.manifest
        # evaluator agreement on an arbitrary evaluation
        seeds = [7, 8]
        assert setup_a.evaluator(theta_a, seeds) == setup_b.evaluator(theta_b, seeds)
