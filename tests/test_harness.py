import dataclasses
import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dsact.agent import NETWORKS, build_agent, load_checkpoint, save_checkpoint
from dsact.charts import write_line_chart
from dsact.config import ConfigError, RunConfig, config_from_dict, load_config
from dsact.environments import PendulumEnv, make_env
from dsact.harness import (
    evaluate,
    evaluate_policy,
    make_streams,
    measure_bias,
    rollout_return,
    run_ablation,
    train,
)
from dsact.cli import main as cli_main
from dsact.harness_util import write_atomic
from dsact.numerics import init_mlp
from dsact.replay import Batch
import dsact.harness as harness

from conftest import params_equal


def tiny_cfg(tmp_path, **overrides) -> RunConfig:
    base = dict(
        env="bandit-chain",
        env_overrides={"noise_std": 0.2},
        hidden_actor=(8, 8),
        hidden_critic=(8, 8),
        batch_size=16,
        warm_size=40,
        samples_per_iteration=20,
        total_iterations=6,
        eval_interval=2,
        eval_episodes=2,
        lr_critic=1e-3,
        lr_actor=1e-3,
        alpha_init=0.2,
        seed=7,
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return RunConfig(**base).validate()


class TestConfig:
    def test_defaults_match_shared_table(self):
        cfg = RunConfig()
        assert cfg.gamma == 0.99
        assert cfg.tau == 0.005
        assert cfg.lr_critic == 1e-4 and cfg.lr_actor == 1e-4 and cfg.lr_alpha == 3e-4
        assert cfg.policy_delay == 2
        assert cfg.samples_per_iteration == 20
        assert cfg.warm_size == 10_000
        assert cfg.buffer_capacity == 1_000_000
        assert cfg.xi == 3.0
        assert cfg.eps == 0.1 and cfg.eps_omega == 0.1
        assert cfg.reward_scale == 1.0
        assert cfg.hidden_actor == (256, 256, 256)
        assert cfg.batch_size == 256
        assert cfg.seed == 12345

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gamma": 0.9, "warp_speed": 11})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gamma": 1.5})
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "td3"})
        with pytest.raises(ConfigError):
            config_from_dict({"tau": 0.0})
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "dsacv1", "twin_distributions": True})

    def test_hidden_sizes_and_checkpoint_interval_accepted(self):
        cfg = config_from_dict({"hidden_actor": [8, 8], "hidden_critic": [4], "checkpoint_interval": 1})
        assert cfg.hidden_actor == (8, 8) and cfg.hidden_critic == (4,)
        assert cfg.checkpoint_interval == 1
        assert config_from_dict({"checkpoint_interval": None}).checkpoint_interval is None

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"env": "pendulum", "batch_size": 32}))
        cfg = load_config(p)
        assert cfg.env == "pendulum" and cfg.batch_size == 32

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_target_entropy_default_is_minus_act_dim(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        env = make_env(cfg.env, cfg.env_overrides)
        agent = build_agent(cfg, env.spec, make_streams(cfg.seed))
        assert agent.temperature.target_entropy == -1.0


def saved_checkpoint(tmp_path):
    """A fresh tiny agent saved to tmp_path / "ckpt.npz"; returns (path, agent)."""
    cfg = tiny_cfg(tmp_path)
    env = make_env(cfg.env, cfg.env_overrides)
    agent = build_agent(cfg, env.spec, make_streams(cfg.seed))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, agent, cfg, env.spec)
    return path, agent


def rewrite_checkpoint(path, edit):
    """Apply edit to the {member name: bytes} of a saved checkpoint and
    write the result back as a valid zip."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def edit_header(change):
    def edit(members):
        header = json.loads(members["header.json"])
        change(header)
        members["header.json"] = json.dumps(header).encode()

    return edit


def edit_buffer(name, change):
    def edit(members):
        out = io.BytesIO()
        np.save(out, change(np.load(io.BytesIO(members[f"{name}.npy"]))))
        members[f"{name}.npy"] = out.getvalue()

    return edit


def flip_payload_byte(path, agent):
    data = bytearray(path.read_bytes())
    at = data.find(agent.critics.theta[0].flat.tobytes())
    assert at > 0
    data[at + 8 * 5 + 3] ^= 0x10
    path.write_bytes(bytes(data))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_cfg(tmp_path, target_entropy=-0.25)
        env = make_env(cfg.env, cfg.env_overrides)
        agent = build_agent(cfg, env.spec, make_streams(cfg.seed))
        agent.critics.b = [1.25, 2.5]
        agent.critics.omega = [0.125, 0.0625]
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, agent, cfg, env.spec)
        loaded, doc = load_checkpoint(path)
        assert params_equal(loaded.phi, agent.phi)
        assert params_equal(loaded.phi_bar, agent.phi_bar)
        for i in range(2):
            assert params_equal(loaded.critics.theta[i], agent.critics.theta[i])
            assert params_equal(loaded.critics.theta_bar[i], agent.critics.theta_bar[i])
        assert loaded.critics.b == agent.critics.b
        assert loaded.critics.omega == agent.critics.omega
        assert loaded.temperature == agent.temperature
        assert doc["format_version"] == 2
        # a second save of the loaded state is byte-identical
        path2 = tmp_path / "ckpt2.npz"
        save_checkpoint(path2, loaded, cfg, env.spec)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, edit_header(lambda header: header.update(format_version=99)))
        with pytest.raises(ConfigError, match="unsupported checkpoint format 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda path, agent: path.write_bytes(path.read_bytes()[:-1000]), "not a zip file"),
            (flip_payload_byte, "Bad CRC-32 for file 'critic1.npy'"),
            (lambda path, agent: rewrite_checkpoint(path, lambda m: m.pop("critic2_target.npy")), "'critic2_target'"),
            (lambda path, agent: rewrite_checkpoint(path, edit_buffer("actor", lambda flat: flat[:-1])), "needs float64"),
            (lambda path, agent: rewrite_checkpoint(path, edit_buffer("adam.critic1.v", lambda v: v.astype(np.int64))), "int64"),
            (lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h.pop("alpha"))), "'alpha'"),
            (lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["env"].update(obs_dim=4))), "member 'actor'"),
            (lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["env"].update(act_dim=0))), "['env']['act_dim']"),
            (lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h.update(b=[0.0]))), "'b'"),
            (lambda path, agent: path.write_text(json.dumps({"format_version": 1})), "JSON checkpoints are no longer read"),
            (
                lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["config"].update(hidden_critic=[8]))),
                "member 'critic1'",
            ),
            (
                lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["adam_steps"].update(critic1="7"))),
                "'critic1'",
            ),
        ],
    )
    def test_damaged_checkpoint_names_the_key(self, tmp_path, damage, named):
        path, agent = saved_checkpoint(tmp_path)
        damage(path, agent)
        with pytest.raises(ConfigError, match=re.escape(named)) as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_header_holds_state_only(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        _, header = load_checkpoint(path)
        assert set(header) == {
            "format_version",
            "config",
            "env",
            "iteration",
            "env_steps",
            "alpha",
            "b",
            "omega",
            "stats_initialized",
            "adam_steps",
        }

    def test_earlier_header_with_shapes_and_target_entropy_loads(self, tmp_path):
        """A header that also holds the per-network shapes and activations
        and the target entropy, as earlier format-2 writers stored them,
        loads into the same agent, and re-saving drops the extra keys."""
        path, agent = saved_checkpoint(tmp_path)
        fresh = path.read_bytes()
        nets = dict(zip(NETWORKS, (agent.phi, agent.phi_bar, *agent.critics.theta, *agent.critics.theta_bar)))

        def add_earlier_keys(header):
            header["target_entropy"] = agent.temperature.target_entropy
            header["networks"] = {
                name: {
                    "shapes": [list(w_shape) for w_shape, _ in net.layout.shapes],
                    "activations": ["gelu"] * (len(net.layers) - 1) + ["identity"],
                }
                for name, net in nets.items()
            }

        rewrite_checkpoint(path, edit_header(add_earlier_keys))
        loaded, header = load_checkpoint(path)
        assert "networks" in header and header["target_entropy"] == -1.0
        for name, net in zip(NETWORKS, (loaded.phi, loaded.phi_bar, *loaded.critics.theta, *loaded.critics.theta_bar)):
            assert params_equal(net, nets[name]) and net.layout == nets[name].layout
        assert loaded.temperature == agent.temperature
        cfg = config_from_dict(header["config"])
        save_checkpoint(path, loaded, cfg, make_env(cfg.env, cfg.env_overrides).spec)
        assert path.read_bytes() == fresh

    def test_default_width_file_is_its_raw_buffers(self, tmp_path):
        cfg = RunConfig(env="pendulum")
        env = make_env(cfg.env)
        agent = build_agent(cfg, env.spec, make_streams(cfg.seed))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, agent, cfg, env.spec)
        # six networks, plus Adam's two moments for three of them
        params = sum(net.flat.size for net in (agent.phi, *agent.critics.theta))
        values = 2 * params + 2 * params
        assert abs(path.stat().st_size - 8 * values) <= 64 * 1024


@pytest.mark.parametrize("previous", [b"old artifact", None])
def test_failed_write_leaves_the_previous_file(tmp_path, previous):
    path = tmp_path / "summary.json"
    if previous is not None:
        path.write_bytes(previous)

    def serializer(f):
        f.write(b'{"half": ')
        raise RuntimeError("serializer failed mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        write_atomic(path, serializer)
    assert (path.read_bytes() if path.exists() else None) == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ([path.name] if previous else [])
    write_atomic(path, lambda f: f.write(b"new"))
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_chart_is_replaced_whole(tmp_path):
    """A reader that opened the previous chart still reads all of it
    while a new one is written, and no temp file is left behind."""
    path = tmp_path / "curves.svg"
    write_line_chart(path, {"a": ([0.0, 1.0], [0.0, 1.0])}, "old", "x", "y")
    old = path.read_bytes()
    with path.open("rb") as reader:
        write_line_chart(path, {"a": ([0.0, 1.0], [1.0, 0.0])}, "new", "x", "y")
        assert reader.read() == old
    assert path.read_bytes() != old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestTrain:
    def test_zero_iterations_outputs_config_and_checkpoint(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=0)
        summary = train(cfg)
        out = Path(cfg.out_dir)
        assert (out / "checkpoint_0.npz").exists()
        assert (out / "summary.json").exists()
        assert summary["env_steps"] == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert echo["seed"] == cfg.seed

    def test_no_updates_before_warm(self, tmp_path):
        cfg = tiny_cfg(tmp_path, warm_size=1000, total_iterations=3)
        summary = train(cfg)
        assert summary["critic_updates"] == 0
        initial, _ = load_checkpoint(Path(cfg.out_dir) / "checkpoint_0.npz")
        final, _ = load_checkpoint(Path(cfg.out_dir) / "checkpoint_3.npz")
        assert params_equal(initial.phi, final.phi)
        for i in range(2):
            assert params_equal(initial.critics.theta[i], final.critics.theta[i])

    def test_metrics_deterministic_across_runs(self, tmp_path):
        cfg1 = tiny_cfg(tmp_path / "a")
        cfg2 = tiny_cfg(tmp_path / "b")
        train(cfg1)
        train(cfg2)
        m1 = (Path(cfg1.out_dir) / "metrics.csv").read_bytes()
        m2 = (Path(cfg2.out_dir) / "metrics.csv").read_bytes()
        assert m1 == m2

    def test_env_step_accounting_and_cadence(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=8)
        summary = train(cfg)
        assert summary["env_steps"] == 8 * cfg.samples_per_iteration
        # warm at 40 samples -> updates start in iteration 2
        assert summary["critic_updates"] == 7 * cfg.samples_per_iteration
        assert summary["actor_updates"] == summary["critic_updates"] // cfg.policy_delay
        rows = (Path(cfg.out_dir) / "metrics.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:3] == ["iteration", "env_steps", "avg_return"]
        data = [r.split(",") for r in rows[1:]]
        iters = [int(r[0]) for r in data]
        steps = [int(r[1]) for r in data]
        assert iters == sorted(iters)
        assert all(s == it * cfg.samples_per_iteration for it, s in zip(iters, steps))

    def test_outputs_exist(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        train(cfg)
        out = Path(cfg.out_dir)
        for name in ("metrics.csv", "summary.json", "curves.svg", "checkpoint_0.npz", "checkpoint_6.npz"):
            assert (out / name).exists(), name
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<svg") and "avg_return" in svg
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_fixture_constants_echoed(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        summary = train(cfg)
        assert summary["env_fixture"]["noise_std"] == 0.2
        assert "build_id" in summary

    def test_stop_return_halts_early(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=50, stop_return=-1e9)
        summary = train(cfg)
        assert summary["stopped_early"]
        assert summary["iterations_run"] == 2  # first eval point


class TestEvaluate:
    def test_single_episode_zero_std(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=0)
        train(cfg)
        mean, std = evaluate(Path(cfg.out_dir) / "checkpoint_0.npz", episodes=1)
        assert std == 0.0

    def test_zero_policy_upright_pendulum(self):
        rng = np.random.default_rng(0)
        phi = init_mlp(rng, [3, 8, 2])
        for layer in phi.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        env = PendulumEnv()
        env.force_state(0.0, 0.0)
        total = 0.0
        for _ in range(200):
            _, r, _, _ = env.step(np.tanh(np.zeros(1)))
            total += r
        assert abs(total) < 1e-9

    def test_random_policy_pendulum_band(self):
        # fresh actor networks are near-uniform noise; the band was
        # pinned from the first validated run of this fixture
        rng = np.random.default_rng(11)
        phi = init_mlp(rng, [3, 16, 2])
        env = PendulumEnv()
        mean, _ = evaluate_policy(phi, env, episodes=10, deterministic=False, seed_parts=(3,))
        assert -2000 <= mean <= -800

    def test_dimension_mismatch_rejected(self, tmp_path):
        from dsact.environments import PointRobotEnv

        cfg = tiny_cfg(tmp_path, total_iterations=0)
        train(cfg)
        with pytest.raises(ConfigError):
            evaluate(Path(cfg.out_dir) / "checkpoint_0.npz", env=PointRobotEnv(), episodes=1)

    def test_eval_uses_raw_rewards_under_scaling(self, tmp_path):
        # same seed and an untouched policy (warm never reached): the
        # evaluated return must not pick up the buffer-insertion scale
        cfg1 = tiny_cfg(tmp_path / "s1", reward_scale=1.0, total_iterations=2, warm_size=1000)
        cfg2 = tiny_cfg(tmp_path / "s2", reward_scale=100.0, total_iterations=2, warm_size=1000)
        s1, s2 = train(cfg1), train(cfg2)
        assert s1["critic_updates"] == 0
        assert s1["final_return"] == s2["final_return"]
        assert s1["final_return"] != 0.0


class TestMeasureBias:
    def test_sign_convention_and_report(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=3, gamma=0.0)
        train(cfg)
        report = measure_bias(
            Path(cfg.out_dir) / "checkpoint_3.npz", n_samples=4, n_rollouts=3
        )
        assert len(report.pairs) == 4
        assert report.horizon == 1
        for est, truth in report.pairs:
            assert np.isfinite(est) and np.isfinite(truth)
        assert report.mean_bias == pytest.approx(
            float(np.mean([e - t for e, t in report.pairs])), abs=1e-12
        )


@pytest.mark.parametrize(
    "entry",
    [
        lambda ckpt, env: evaluate(ckpt, env=env, episodes=1),
        lambda ckpt, env: measure_bias(ckpt, env=env, n_samples=1, n_rollouts=1),
    ],
    ids=["evaluate", "measure_bias"],
)
def test_foreign_env_refused_naming_the_dims(tmp_path, entry):
    """A pendulum agent (obs 3, act 1) cannot run in the point robot (obs 8, act 2)."""
    cfg = tiny_cfg(tmp_path, env="pendulum", env_overrides={})
    agent = build_agent(cfg, make_env("pendulum").spec, make_streams(cfg.seed))
    ckpt = tmp_path / "pendulum.npz"
    save_checkpoint(ckpt, agent, cfg, make_env("pendulum").spec)
    with pytest.raises(ConfigError, match=re.escape("(obs_dim, act_dim) = (8, 2) do not match")) as caught:
        entry(ckpt, make_env("point-robot"))
    assert "(3, 1)" in str(caught.value)


class TestAblation:
    def test_refinements_study_structure(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=4)
        report = run_ablation("refinements", cfg, seeds=[7, 8], out_dir=tmp_path / "study")
        assert set(report["arms"]) == {"full", "no-evs", "single-dist"}
        for arm, info in report["arms"].items():
            assert len(info["runs"]) == 2
            assert (tmp_path / "study" / arm / "seed7" / "metrics.csv").exists()
        assert (tmp_path / "study" / "report.json").exists()
        assert (tmp_path / "study" / "curves.svg").exists()

    def test_reward_scale_study_grid(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=2)
        report = run_ablation("reward-scale", cfg, out_dir=tmp_path / "study")
        arms = set(report["arms"])
        for s in ("0.01", "0.1", "1", "10", "100"):
            assert f"scale-{s}-adaptive" in arms
            assert f"scale-{s}-fixed-b" in arms
        assert len(arms) == 10

    def test_unknown_study_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_ablation("learning-rates", tiny_cfg(tmp_path))

    def test_arm_reproducible_from_echoed_config(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=3)
        run_ablation("refinements", cfg, seeds=[7], out_dir=tmp_path / "study")
        arm_dir = tmp_path / "study" / "no-evs" / "seed7"
        echo = json.loads((arm_dir / "summary.json").read_text())["config"]
        echo["out_dir"] = str(tmp_path / "replay")
        cfg2 = config_from_dict(echo)
        train(cfg2)
        m1 = (arm_dir / "metrics.csv").read_bytes()
        m2 = (tmp_path / "replay" / "metrics.csv").read_bytes()
        assert m1 == m2


class ListReplay:
    """Reference buffer: a list of Transition objects, stacked row by
    row at sample time, with the same slot order and the same draw."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._storage = []
        self._cursor = 0
        self.pushes = 0

    @property
    def count(self):
        return len(self._storage)

    def push(self, t):
        self.pushes += 1
        if len(self._storage) < self.capacity:
            self._storage.append(t)
        else:
            self._storage[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity
        return self

    def sample(self, n, rng):
        rows = [self._storage[i] for i in rng.integers(0, self.count, size=n)]
        return Batch(
            s=np.stack([t.s for t in rows]),
            a=np.stack([t.a for t in rows]),
            r=np.array([t.r for t in rows]),
            s_next=np.stack([t.s_next for t in rows]),
            done=np.array([t.done for t in rows]),
        )


@pytest.mark.parametrize("algorithm", ["dsact", "dsacv1"])
@pytest.mark.parametrize("capacity", [1_000_000, 50])
def test_array_replay_matches_list_reference(tmp_path, monkeypatch, algorithm, capacity):
    """The array ring gives metrics.csv byte for byte as the list of
    transitions does, with and without eviction."""
    cfg = tiny_cfg(tmp_path, algorithm=algorithm, buffer_capacity=capacity, out_dir=str(tmp_path / "array"))
    train(cfg)
    made = []

    def list_replay(capacity):
        made.append(ListReplay(capacity))
        return made[-1]

    monkeypatch.setattr(harness, "ReplayBuffer", list_replay)
    summary = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "list")))
    assert [b.pushes for b in made] == [summary["env_steps"]]
    assert summary["critic_updates"] > 0
    assert (tmp_path / "array" / "metrics.csv").read_bytes() == (tmp_path / "list" / "metrics.csv").read_bytes()


class TestCli:
    def test_train_eval_bias_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "env": "bandit-chain",
                    "env_overrides": {"noise_std": 0.2},
                    "hidden_actor": [8, 8],
                    "hidden_critic": [8, 8],
                    "batch_size": 16,
                    "warm_size": 40,
                    "total_iterations": 4,
                    "eval_interval": 2,
                    "eval_episodes": 2,
                    "seed": 3,
                    "out_dir": str(tmp_path / "run"),
                }
            )
        )
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "final_return" in out
        ckpt = tmp_path / "run" / "checkpoint_4.npz"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--episodes", "2"]) == 0
        assert "avg_return" in capsys.readouterr().out
        assert cli_main(["bias", "--checkpoint", str(ckpt), "--samples", "2", "--rollouts", "2"]) == 0
        assert "mean_bias" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algorithm": "td3"}))
        assert cli_main(["train", "--config", str(bad)]) == 2

    # accepted as is, this config trains for zero iterations and exits 0
    QUICK = {"env": "bandit-chain", "hidden_actor": [4], "hidden_critic": [4], "total_iterations": 0}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr_critic", float("nan")),
            ("lr_actor", float("inf")),
            ("lr_alpha", float("nan")),
            ("alpha_init", float("inf")),
            ("xi", float("nan")),
            ("reward_scale", float("inf")),
            ("eps", float("inf")),
            ("eps_omega", float("nan")),
            ("fixed_boundary_b", float("inf")),
            ("target_entropy", float("nan")),
            ("target_entropy", float("-inf")),
            ("stop_return", float("inf")),
            ("gamma", float("nan")),
            ("tau", float("nan")),
            ("batch_size", float("inf")),
        ],
    )
    def test_non_finite_config_value_exit_code(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "out_dir": str(tmp_path / "run"), field: value}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [{"hidden_actor": [float("nan")]}, {"env_overrides": {"noise_std": float("nan")}}])
    def test_non_finite_nested_config_value_exit_code(self, tmp_path, capsys, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "out_dir": str(tmp_path / "run"), **overrides}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"env": "cartpole"}, "unknown env 'cartpole'"),
            ({"env_overrides": {"bogus": 1}}, "env_overrides['bogus'] is not a bandit-chain parameter"),
            ({"env": "pendulum", "env_overrides": {"noise_std": 0.1}}, "env_overrides['noise_std']"),
            ({"algorithm": "sac", "expected_value_substitution": False}, "expected_value_substitution=False"),
            ({"algorithm": "sac", "variance_adjustment": True}, "variance_adjustment=True"),
            ({"algorithm": "dsacv1", "twin_distributions": True}, "twin_distributions=True"),
            # numeric fields take numbers of their kind, never a bool
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"batch_size": 16.5}, "batch_size must be an integer"),
            ({"total_iterations": 2.5}, "total_iterations must be an integer"),
            ({"eval_interval": "3"}, "eval_interval must be an integer"),
            ({"gamma": "0.9"}, "gamma must be a number"),
            ({"tau": False}, "tau must be a number"),
            # hidden sizes are lists of integers, never truncated or coerced
            ({"hidden_actor": [8.7, True]}, "hidden_actor must be a list of integers, got [8.7, True]"),
            ({"hidden_actor": ["8"]}, "hidden_actor must be a list of integers, got ['8']"),
            ({"hidden_actor": 8}, "hidden_actor must be a list of integers, got 8"),
            ({"hidden_critic": [4, False]}, "hidden_critic must be a list of integers"),
            ({"hidden_critic": [4.0]}, "hidden_critic must be a list of integers"),
            # train checkpoints when iteration % interval == 0
            ({"checkpoint_interval": -2}, "checkpoint_interval must be null or >= 1, got -2"),
            ({"checkpoint_interval": 0}, "checkpoint_interval must be null or >= 1, got 0"),
        ],
    )
    def test_config_error_names_the_key_exit_code(self, tmp_path, capsys, overrides, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "out_dir": str(tmp_path / "run"), **overrides}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, named",
        [
            (["bias", "--rollouts", "0"], "n_rollouts must be >= 1, got 0"),
            (["bias", "--samples", "0"], "n_samples must be >= 1, got 0"),
            (["bias", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["eval", "--episodes", "0"], "episodes must be >= 1, got 0"),
            (["eval", "--episodes", "-1"], "episodes must be >= 1, got -1"),
            (["eval", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_count_or_seed_names_the_argument_exit_code(self, tmp_path, capsys, command, named):
        ckpt, _ = saved_checkpoint(tmp_path)
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [["eval"], ["bias", "--samples", "1", "--rollouts", "1"]])
    def test_incomplete_checkpoint_exit_code(self, tmp_path, capsys, command):
        ckpt, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(ckpt, edit_header(lambda header: header.pop("config")))
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        assert "config error: checkpoint lacks ['config']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["bias", "--samples", "1", "--rollouts", "1"]])
    def test_contradicting_config_echo_exit_code(self, tmp_path, capsys, command):
        ckpt, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(ckpt, edit_header(lambda header: header["config"].update(hidden_critic=[8])))
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        assert "member 'critic1'" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_numerical_failure_exit_code_and_diagnostics(self, tmp_path, capsys):
        # an absurd learning rate overflows the forward pass to NaN
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "env": "bandit-chain",
                    "hidden_actor": [8, 8],
                    "hidden_critic": [8, 8],
                    "batch_size": 16,
                    "warm_size": 40,
                    "total_iterations": 30,
                    "eval_interval": 10,
                    "eval_episodes": 1,
                    "lr_critic": 1e160,
                    "lr_actor": 1e160,
                    "seed": 1,
                    "out_dir": str(tmp_path / "run"),
                }
            )
        )
        with np.errstate(all="ignore"):
            assert cli_main(["train", "--config", str(cfg_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert (tmp_path / "run" / "diagnostics.json").exists()

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "env": "bandit-chain",
                    "hidden_actor": [8, 8],
                    "hidden_critic": [8, 8],
                    "batch_size": 8,
                    "warm_size": 20,
                    "total_iterations": 1,
                    "eval_interval": 1,
                    "eval_episodes": 1,
                    "out_dir": str(tmp_path / "ignored"),
                }
            )
        )
        out_dir = tmp_path / "actual"
        assert (
            cli_main(
                ["train", "--config", str(cfg_path), "--seed", "99", "--out", str(out_dir)]
            )
            == 0
        )
        echo = json.loads((out_dir / "summary.json").read_text())["config"]
        assert echo["seed"] == 99
