import re
import socket
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import TRIANGLE_TEXT
from esotn.checkpoint import MAGIC, load_checkpoint, load_sidecar, save_checkpoint
from esotn.cli import _TRAIN_FLAGS, main
from esotn.env import DemandStream, EnvConfig
from esotn.policy import PolicyConfig, PolicyParams, init_params
from esotn.seeds import TAG_EVAL, derive_key
from esotn.topology import compute_candidate_paths, load_topology
from esotn.wire import Shutdown, SocketConnection

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


@pytest.fixture
def triangle_cfg(tmp_path):
    topo_path = tmp_path / "triangle.txt"
    topo_path.write_text(TRIANGLE_TEXT)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                f"topology.files = {topo_path}",
                "topology.k_paths = 2",
                "env.demand_bandwidths = 4",
                "policy.hidden_dim = 4",
                "policy.message_passing_steps = 1",
                "es.mutations = 4",
                "es.episodes_per_eval = 1",
                "es.iterations = 2",
                f"run.out = {tmp_path / 'out'}",
                "run.checkpoint_interval = 1",
            ]
        )
        + "\n"
    )
    return cfg_path, tmp_path


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestTrain:
    def test_smoke_run_writes_outputs(self, triangle_cfg, capsys):
        cfg_path, tmp_path = triangle_cfg
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        header, rows = read_csv_rows(out / "stats.csv")
        assert header == [
            "t", "best_return", "mean_return", "worst_return",
            "eval_seconds", "update_seconds", "theta_l2_norm",
        ]
        assert len(rows) == 2
        assert (out / "ckpt_final.esotn").exists()
        assert (out / "ckpt_final.esotn.meta").exists()
        assert (out / "config.echo.cfg").exists()
        assert (out / "ckpt_000001.esotn").exists()  # checkpoint_interval = 1
        summary = capsys.readouterr().out
        assert "final mean return" in summary

    def test_sidecars_record_numpy_build_and_dispatch_targets(self, triangle_cfg):
        # float32 tanh bits depend on the dispatch level, so every sidecar
        # says which numpy and which enabled SIMD targets ran the rollouts.
        cfg_path, tmp_path = triangle_cfg
        assert main(["train", "--config", str(cfg_path)]) == 0
        enabled = " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
        for name in ("ckpt_000001.esotn", "ckpt_000002.esotn", "ckpt_final.esotn"):
            meta = load_sidecar(tmp_path / "out" / name)
            assert meta["numpy_version"] == np.__version__
            assert meta["numpy_simd_dispatch"] == (enabled or "none")
            assert meta["es.seed"] == "0"

    def test_same_seed_byte_identical_checkpoints(self, triangle_cfg):
        cfg_path, tmp_path = triangle_cfg
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "ckpt_final.esotn").read_bytes() == (
            out_b / "ckpt_final.esotn"
        ).read_bytes()

    def test_seed_changes_checkpoint(self, triangle_cfg):
        cfg_path, tmp_path = triangle_cfg
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(
            ["train", "--config", str(cfg_path), "--out", str(out_b), "--seed", "1"]
        ) == 0
        assert (out_a / "ckpt_final.esotn").read_bytes() != (
            out_b / "ckpt_final.esotn"
        ).read_bytes()

    def test_sigma_flag_overrides_file(self, triangle_cfg):
        cfg_path, tmp_path = triangle_cfg
        out = tmp_path / "sigma_out"
        assert main(
            ["train", "--config", str(cfg_path), "--out", str(out), "--sigma", "0.1"]
        ) == 0
        echo = (out / "config.echo.cfg").read_text()
        assert "es.sigma = 0.1" in echo

    def test_unknown_config_key_fails_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("es.sgima = 0.1\n")
        assert main(["train", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "sgima" in err
        assert len(err.strip().splitlines()) == 1


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("mode", ["inproc", "proc"])
    def test_n2_matches_n1(self, triangle_cfg, mode):
        cfg_path, tmp_path = triangle_cfg
        out_1, out_2 = tmp_path / "n1", tmp_path / "n2"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_1)]) == 0
        assert main(
            [
                "train", "--config", str(cfg_path), "--out", str(out_2),
                "--workers", "2", "--mode", mode,
            ]
        ) == 0
        assert (out_1 / "ckpt_final.esotn").read_bytes() == (
            out_2 / "ckpt_final.esotn"
        ).read_bytes()


def always_first_oracle(env_config, episode_seed):
    """Independent rollout of the uniform-probability deterministic policy.

    Zero parameters give uniform scores, and deterministic evaluation takes
    the lowest index, so the reference policy always routes over candidate
    path 0. Bookkeeping reimplemented with plain dicts.
    """
    residual = {i: cap for i, (_, _, cap) in enumerate(env_config.topology.links)}
    stream = DemandStream(env_config, episode_seed)
    demand = stream.sample()
    max_bw = max(env_config.demand_bandwidths)
    total = 0.0
    volume = 0.0
    while True:
        links = env_config.paths.entries[(demand.src, demand.dst)][0]
        if any(residual[l] < demand.bandwidth for l in links):
            break
        for l in links:
            residual[l] -= demand.bandwidth
        total += demand.bandwidth / max_bw
        volume += demand.bandwidth
        demand = stream.sample()
        if not any(
            all(residual[l] >= demand.bandwidth for l in path)
            for path in env_config.paths.entries[(demand.src, demand.dst)]
        ):
            break
    return total, volume


class TestEval:
    def test_zero_params_match_independent_oracle(self, triangle_cfg, capsys):
        cfg_path, tmp_path = triangle_cfg
        episodes = 12
        assert main(
            ["eval", "--config", str(cfg_path), "--episodes", str(episodes)]
        ) == 0
        out = capsys.readouterr().out
        mean_line = next(line for line in out.splitlines() if line.startswith("return:"))
        reported_mean = float(mean_line.split()[2])

        topo = load_topology(TRIANGLE_TEXT, name="triangle")
        env_config = EnvConfig(
            topology=topo,
            paths=compute_candidate_paths(topo, 2),
            demand_bandwidths=(4.0,),
        )
        seeds = [derive_key(TAG_EVAL, 0, i) for i in range(episodes)]
        expected = np.mean([always_first_oracle(env_config, s)[0] for s in seeds])
        assert reported_mean == pytest.approx(expected, abs=1e-6)

    def test_single_episode_zero_std(self, triangle_cfg, capsys):
        cfg_path, _ = triangle_cfg
        assert main(["eval", "--config", str(cfg_path), "--episodes", "1"]) == 0
        out = capsys.readouterr().out
        return_line = next(line for line in out.splitlines() if line.startswith("return:"))
        assert float(return_line.split()[4]) == 0.0

    def test_checkpoint_eval_deterministic(self, triangle_cfg, capsys, tmp_path):
        cfg_path, base = triangle_cfg
        out = base / "out"
        assert main(["train", "--config", str(cfg_path)]) == 0
        reports = []
        for name in ("r1.csv", "r2.csv"):
            report = tmp_path / name
            assert main(
                [
                    "eval", "--config", str(cfg_path),
                    "--checkpoint", str(out / "ckpt_final.esotn"),
                    "--episodes", "5", "--report", str(report),
                ]
            ) == 0
            reports.append(report.read_text())
        assert reports[0] == reports[1]

    def test_manifest_mismatch_rejected(self, triangle_cfg, tmp_path, capsys):
        cfg_path, _ = triangle_cfg
        wrong = init_params(PolicyConfig(hidden_dim=6, message_passing_steps=1), 0)
        bad_ckpt = tmp_path / "wrong.esotn"
        save_checkpoint(bad_ckpt, wrong)
        assert main(
            ["eval", "--config", str(cfg_path), "--checkpoint", str(bad_ckpt)]
        ) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nan_value", "non_utf8_name"])
    def test_bad_checkpoint_fails_with_one_line(self, triangle_cfg, tmp_path, capsys, fault):
        cfg_path, _ = triangle_cfg
        bad_ckpt = tmp_path / "bad.esotn"
        save_checkpoint(bad_ckpt, init_params(PolicyConfig(hidden_dim=4, message_passing_steps=1), 0))
        data = bytearray(bad_ckpt.read_bytes())
        if fault == "nan_value":
            data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        else:  # the first tensor name, after the magic and two u32 counts
            start = len(MAGIC) + 8
            data[start : start + 2] = b"\xff\xfe"
        bad_ckpt.write_bytes(bytes(data))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad_ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad_ckpt) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_directory_does_not_shadow_bundled_topology(self, tmp_path, monkeypatch, capsys):
        # For example the run directory of an earlier `--out geant2`.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "geant2").mkdir()
        assert main(
            ["eval", "--set", "topology.files=geant2", "--set", "policy.hidden_dim=4",
             "--episodes", "1"]
        ) == 0
        assert "evaluated 1 episodes" in capsys.readouterr().out

    def test_overflowing_scores_fail_with_one_line(self, tmp_path, capsys):
        params = init_params(PolicyConfig(), 0)
        values = params.values.copy()
        start, stop, _ = params.manifest.slots["readout.w"]
        values[start:stop] = 1e308
        ckpt = tmp_path / "overflow.esotn"
        save_checkpoint(ckpt, PolicyParams(manifest=params.manifest, values=values))
        assert main(["eval", "--checkpoint", str(ckpt), "--episodes", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("episodes", ["0", "-1"])
    def test_episodes_below_one_rejected(self, triangle_cfg, capsys, episodes):
        cfg_path, _ = triangle_cfg
        assert main(["eval", "--config", str(cfg_path), "--episodes", episodes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--episodes" in err
        assert len(err.strip().splitlines()) == 1

    def test_trace_file(self, triangle_cfg, tmp_path):
        cfg_path, _ = triangle_cfg
        trace = tmp_path / "trace.csv"
        assert main(
            [
                "eval", "--config", str(cfg_path), "--episodes", "1",
                "--trace", str(trace),
            ]
        ) == 0
        header = trace.read_text().splitlines()[0]
        assert header == "step,src,dst,bandwidth,action,reward,done"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "override, key",
    [
        ("topology.k_paths=0", "topology.k_paths"),
        ("env.max_episode_steps=0", "env.max_episode_steps"),
        ("env.demand_bandwidths=1000", "env.demand_bandwidths"),
    ],
)
def test_bad_env_value_fails_with_one_line(tmp_path, capsys, command, override, key):
    argv = [command, "--set", override]
    if command == "train":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("nodes 2\nlink 0 1 nan\n", "link 0 (0-1): capacity nan is not positive and finite"),
        ("nodes 2\nlink 0 1 inf\n", "link 0 (0-1): capacity inf is not positive and finite"),
        ("nodes 1\n", "node count must be at least 2, got 1"),
    ],
    ids=["nan", "inf", "one-node"],
)
def test_bad_topology_fails_with_one_line(tmp_path, capsys, command, text, message):
    topo = tmp_path / "bad.txt"
    topo.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--set", f"topology.files={topo}"]
    if command == "train":
        argv += ["--out", str(out), "--iterations", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "bench"])
@pytest.mark.parametrize(
    "override, key",
    [
        ("env.demand_seed=0", "env.demand_seed"),
        ("env.link_capacity=100", "env.link_capacity"),
        ("env.max_episode_steps=none", "env.max_episode_steps"),
    ],
)
def test_removed_env_setting_fails_with_one_line(tmp_path, capsys, command, override, key):
    # The demand streams follow from es.seed alone, capacities come from the
    # topology file, and an episode always has a step bound.
    out = tmp_path / "out"
    argv = [command, "--set", override]
    if command != "eval":
        argv += ["--out", str(out), "--iterations", "1"]
    if command == "bench":
        argv += ["--workers", "1", "--mode", "inproc"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert len(err.splitlines()) == 1 and not out.exists()


FLAG_VALUES = {
    "--seed": "3",
    "--sigma": "0.1",
    "--alpha": "0.5",
    "--mutations": "8",
    "--iterations": "1",
    "--out": None,  # a directory under tmp_path
    "--iter-timeout-secs": "60",
    "--workers": "2",
    "--mode": "proc",
}


class TestFlagTable:
    @pytest.mark.parametrize("flag, key", _TRAIN_FLAGS.items(), ids=list(_TRAIN_FLAGS))
    def test_flag_writes_the_same_echo_as_set(self, triangle_cfg, flag, key):
        cfg_path, tmp_path = triangle_cfg
        value = FLAG_VALUES[flag] or str(tmp_path / "flag_out")
        out = Path(value) if flag == "--out" else tmp_path / "out"
        echoes = []
        for pair in ([flag, value], ["--set", f"{key}={value}"]):
            assert main(["train", "--config", str(cfg_path), *pair]) == 0
            echoes.append((out / "config.echo.cfg").read_bytes())
        assert echoes[0] == echoes[1]
        assert f"{key} = {value}\n".encode() in echoes[0]

    def test_eval_takes_only_the_flags_it_reads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {
            "--help", "--config", "--set", "--seed", "--checkpoint", "--episodes",
            "--report", "--trace",
        }
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--sigma", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value, key", [("--seed", "x", "es.seed"), ("--mode", "bogus", "run.mode")]
    )
    def test_bad_flag_value_fails_with_one_line(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "out"
        assert main(["train", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert len(err.splitlines()) == 1 and not out.exists()


class TestBench:
    def test_tiny_bench_csv(self, triangle_cfg, capsys):
        cfg_path, tmp_path = triangle_cfg
        out = tmp_path / "bench_out"
        assert main(
            [
                "bench", "--config", str(cfg_path), "--workers", "1,2",
                "--iterations", "2", "--mode", "inproc", "--out", str(out),
            ]
        ) == 0
        header, rows = read_csv_rows(out / "bench.csv")
        assert header == ["n", "eval_seconds_per_iter", "eval_fraction", "speedup_vs_n1"]
        assert [row[0] for row in rows] == ["1", "2"]
        assert float(rows[0][3]) == 1.0  # speedup at n=1 is exactly 1
        assert "monotonic_eval_seconds" in capsys.readouterr().out

    def test_worker_counts_replace_the_files_run_workers(self, triangle_cfg):
        # es.mutations = 4 is two mirrored pairs: three workers could not
        # share them, but bench never runs the file's run.workers.
        cfg_path, tmp_path = triangle_cfg
        cfg_path.write_text(cfg_path.read_text() + "run.workers = 3\n")
        out = tmp_path / "bench_out"
        argv = ["bench", "--config", str(cfg_path), "--workers", "1,2", "--iterations", "1",
                "--mode", "inproc", "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv_rows(out / "bench.csv")
        assert [row[0] for row in rows] == ["1", "2"]

    def test_bench_requires_worker_counts(self, triangle_cfg):
        cfg_path, _ = triangle_cfg
        assert main(["bench", "--config", str(cfg_path), "--workers", ""]) == 1

    def test_bench_rejects_unparsable_worker_count(self, triangle_cfg, capsys):
        cfg_path, _ = triangle_cfg
        assert main(["bench", "--config", str(cfg_path), "--workers", "1,a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'a'" in err
        assert len(err.splitlines()) == 1

    def test_bench_rejects_worker_count_below_one(self, triangle_cfg, capsys):
        cfg_path, tmp_path = triangle_cfg
        out = tmp_path / "bench_out"
        assert main(
            [
                "bench", "--config", str(cfg_path), "--workers", "1,0",
                "--mode", "inproc", "--out", str(out),
            ]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run.workers" in err
        assert not (out / "bench.csv").exists()


@pytest.mark.parametrize(
    "command, workers, mode",
    [("train", "3", "inproc"), ("train", "3", "proc"), ("bench", "1,3", "proc")],
)
def test_worker_layout_checked_before_any_run(
    triangle_cfg, capsys, monkeypatch, command, workers, mode
):
    # es.mutations = 4 is two mirrored pairs, which three workers cannot share.
    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker process was spawned")

    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    cfg_path, tmp_path = triangle_cfg
    out = tmp_path / "layout_out"
    argv = [command, "--config", str(cfg_path), "--workers", workers, "--mode", mode]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run.workers" in err
    assert len(err.splitlines()) == 1
    assert not (out / "config.echo.n1.cfg").exists() and not out.exists()


def test_single_mutation_rejected_before_any_run(triangle_cfg, capsys, monkeypatch):
    # Fitness shaping ranks at least two returns; one mutation must fail at
    # config time, not after an iteration's evaluations.
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a mutation was evaluated")

    monkeypatch.setattr("esotn.runtime.evaluate_assignment", no_evaluation)
    cfg_path, tmp_path = triangle_cfg
    out = tmp_path / "one_mutation_out"
    argv = ["train", "--config", str(cfg_path), "--set", "es.mirrored=false",
            "--mutations", "1", "--iterations", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least two mutations, got 1" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_all_mutations_failed_stops_the_run(triangle_cfg, capsys, monkeypatch):
    def broken_episode(*args, **kwargs):
        raise RuntimeError("simulator down")

    monkeypatch.setattr("esotn.es.run_episode", broken_episode)
    cfg_path, tmp_path = triangle_cfg
    out = tmp_path / "failed_out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "error: all 4 mutations failed; see the evaluator errors logged"
    assert not list(out.glob("ckpt_*"))


class TestMixedTopologies:
    def test_one_agent_trains_across_two_topologies(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "topology.files = nsfnet,geant2",
                    "policy.hidden_dim = 4",
                    "policy.message_passing_steps = 1",
                    "es.mutations = 4",
                    "es.episodes_per_eval = 2",  # one episode per topology
                    "es.iterations = 2",
                    f"run.out = {tmp_path / 'out'}",
                ]
            )
            + "\n"
        )
        assert main(["train", "--config", str(cfg)]) == 0
        final = load_checkpoint(tmp_path / "out" / "ckpt_final.esotn")
        # link-shared weights: the checkpoint is topology-size independent
        expected = init_params(
            PolicyConfig(hidden_dim=4, message_passing_steps=1), 0
        ).manifest
        assert final.manifest == expected

    def test_mixed_eval_round_robin(self, tmp_path, capsys):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("topology.files = nsfnet,geant2\npolicy.hidden_dim = 4\n")
        assert main(["eval", "--config", str(cfg), "--episodes", "4"]) == 0
        assert "evaluated 4 episodes" in capsys.readouterr().out


class TestWorkerCommand:
    def test_worker_exits_cleanly_on_shutdown(self, triangle_cfg):
        cfg_path, _ = triangle_cfg
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            sock, _ = listener.accept()
            conn = SocketConnection(sock)
            conn.send(Shutdown())
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        status = main(
            ["worker", "--connect", f"127.0.0.1:{port}", "--config", str(cfg_path)]
        )
        thread.join(timeout=10.0)
        listener.close()
        assert status == 0

    def test_worker_unreachable_coordinator(self, triangle_cfg, capsys):
        cfg_path, _ = triangle_cfg
        # grab a port and close it so nothing listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(
            ["worker", "--connect", f"127.0.0.1:{port}", "--config", str(cfg_path)]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:abc", "nocolon"])
    def test_worker_malformed_endpoint(self, triangle_cfg, capsys, endpoint):
        cfg_path, _ = triangle_cfg
        assert main(["worker", "--connect", endpoint, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "HOST:PORT" in err
        assert len(err.splitlines()) == 1
