import copy
import csv
import dataclasses
import gc
import io
import json
import multiprocessing
import re
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dsact.actor import actor_gradient, policy_forward, temperature_update
from dsact.agent import ADAM_NETWORKS, MEMBERS, NETWORKS, build_agent, load_checkpoint, save_checkpoint
from dsact.baselines import build_variant
from dsact.charts import write_line_chart
from dsact.config import ConfigError, RunConfig, config_from_dict, load_config
from dsact.distributions import policy_sample
from dsact.environments import PendulumEnv, make_env
from dsact.harness import (
    evaluate,
    evaluate_policy,
    make_streams,
    measure_bias,
    run_ablation,
    train,
)
from dsact.cli import main as cli_main
from dsact.harness_util import write_atomic
from dsact.numerics import adam_step, init_mlp
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

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.name
    )
    def test_shipped_configs_load(self, path):
        """Each file in configs/ (which the acceptance criteria, the
        benchmark and the CLI examples train) loads, every key it sets
        read as written."""
        doc = {**RunConfig().to_jsonable(), **json.loads(path.read_text())}
        assert load_config(path).to_jsonable() == doc

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("target_entropy, resolved", [(None, -1.0), (-0.25, -0.25)])
    def test_target_entropy_default_is_minus_act_dim(self, tmp_path, monkeypatch, target_entropy, resolved):
        """train resolves the target entropy once: the config's, or -act_dim
        when it is null; every temperature step gets that value."""
        seen = []

        def spy(alpha, logp, target_entropy, lr_alpha):
            seen.append(target_entropy)
            return temperature_update(alpha, logp, target_entropy, lr_alpha)

        monkeypatch.setattr(harness, "temperature_update", spy)
        summary = train(tiny_cfg(tmp_path, total_iterations=2, target_entropy=target_entropy))
        assert len(seen) == summary["actor_updates"] > 0
        assert set(seen) == {resolved}


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


def read_header(path) -> dict:
    """The checkpoint's header.json member, as stored."""
    with zipfile.ZipFile(path) as zf:
        return json.loads(zf.read("header.json"))


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


def write_bare_npy(path, agent):
    with path.open("wb") as f:
        np.save(f, agent.phi.flat)


def flip_payload_byte(path, agent):
    data = bytearray(path.read_bytes())
    at = data.find(agent.critics.theta[0].flat.tobytes())
    assert at > 0
    data[at + 8 * 5 + 3] ^= 0x10
    path.write_bytes(bytes(data))


class TestCheckpoint:
    @pytest.mark.parametrize("alpha_init", [0.2, 1])
    def test_roundtrip_bit_exact(self, tmp_path, alpha_init):
        """Also when the config gives alpha as a JSON integer."""
        cfg = tiny_cfg(tmp_path, target_entropy=-0.25, alpha_init=alpha_init)
        env = make_env(cfg.env, cfg.env_overrides)
        agent = build_agent(cfg, env.spec, make_streams(cfg.seed))
        agent.critics.b = [1.25, 2.5]
        agent.critics.omega = [0.125, 0.0625]
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, agent, cfg, env.spec)
        loaded, _, _ = load_checkpoint(path)
        assert params_equal(loaded.phi, agent.phi)
        assert params_equal(loaded.phi_bar, agent.phi_bar)
        for i in range(2):
            assert params_equal(loaded.critics.theta[i], agent.critics.theta[i])
            assert params_equal(loaded.critics.theta_bar[i], agent.critics.theta_bar[i])
        assert loaded.critics.b == agent.critics.b
        assert loaded.critics.omega == agent.critics.omega
        assert loaded.alpha == agent.alpha
        assert read_header(path)["format_version"] == 2
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
            # JSON may open with whitespace, or with a UTF-8 byte order mark
            (lambda path, agent: path.write_text(" \n" + json.dumps({"format_version": 1})), "JSON checkpoints are no longer read"),
            (
                lambda path, agent: path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"format_version": 1}).encode()),
                "JSON checkpoints are no longer read",
            ),
            (write_bare_npy, "File is not a zip file"),
            (
                lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["config"].update(hidden_critic=[8]))),
                "member 'critic1'",
            ),
            (
                lambda path, agent: rewrite_checkpoint(path, edit_header(lambda h: h["adam_steps"].update(critic1="7"))),
                "'critic1'",
            ),
            # a member that is not .npy at all, and one with bytes past its data
            (lambda path, agent: rewrite_checkpoint(path, lambda m: m.update({"adam.actor.m.npy": b"{}"})), "'adam.actor.m'"),
            (
                lambda path, agent: rewrite_checkpoint(path, lambda m: m.update({"critic2.npy": m["critic2.npy"] + b"\0"})),
                "is not the",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "keep", [MEMBERS, ("actor",), ("actor", "critic1", "critic2")], ids=["full", "evaluate", "measure_bias"]
    )
    def test_damaged_checkpoint_names_the_key(self, tmp_path, damage, named, keep):
        """Each damage is refused alike whether the member it hits is kept
        or only checked and dropped."""
        path, agent = saved_checkpoint(tmp_path)
        damage(path, agent)
        with pytest.raises(ConfigError, match=re.escape(named)) as caught:
            load_checkpoint(path, keep=keep)
        assert str(path) in str(caught.value)

    def test_unreadable_checkpoint_closes_its_file(self, tmp_path):
        """A file zipfile cannot parse is closed when the load is refused,
        not left to the garbage collector."""
        path, _ = saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-1000])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="not a zip file"):
                load_checkpoint(path)
            gc.collect()
        assert [str(w.message) for w in seen if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda h: h.update(iteration=3.7), "['iteration'] must be an integer, got 3.7"),
            (lambda h: h.update(iteration=3.0), "['iteration'] must be an integer, got 3.0"),
            (lambda h: h.update(iteration=True), "['iteration'] must be an integer, got True"),
            (lambda h: h.update(iteration=-1), "['iteration'] must be >= 0, got -1"),
            (lambda h: h["adam_steps"].update(actor=2.5), "['adam_steps']['actor'] must be an integer, got 2.5"),
            (lambda h: h["adam_steps"].update(critic1=1.0), "['adam_steps']['critic1'] must be an integer, got 1.0"),
            (lambda h: h["adam_steps"].update(critic2=False), "['adam_steps']['critic2'] must be an integer, got False"),
            (lambda h: h.update(b=[1.0, True]), "['b'][1] must be a number, got True"),
            (lambda h: h.update(omega=[0.5, "1"]), "['omega'][1] must be a number, got '1'"),
            # the temperature is a factor of every soft target and Monte-Carlo truth
            (lambda h: h.update(alpha=float("nan")), "['alpha'] must be finite, got nan"),
            (lambda h: h.update(alpha=-1.0), "['alpha'] must be positive, got -1.0"),
            (lambda h: h.update(alpha=0), "['alpha'] must be positive, got 0"),
            (lambda h: h.update(b=[float("inf"), 0]), "['b'][0] must be finite, got inf"),
            (lambda h: h.update(omega=[-3.0, 0]), "['omega'][0] must be >= 0, got -3.0"),
            (lambda h: h["env"].update(obs_dim=3.0), "['env']['obs_dim'] must be an integer, got 3.0"),
        ],
    )
    def test_counters_and_steps_are_not_coerced(self, tmp_path, change, named):
        """Each header value loads under config's rule for a number from
        outside: the iteration and Adam steps are integers >= 0, alpha a
        positive real, b/omega reals >= 0; nothing is truncated or cast."""
        path, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(path, edit_header(change))
        with pytest.raises(ConfigError, match=re.escape(named)) as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_header_holds_state_only(self, tmp_path):
        path, _ = saved_checkpoint(tmp_path)
        assert set(read_header(path)) == {
            "format_version",
            "config",
            "env",
            "iteration",
            "alpha",
            "b",
            "omega",
            "adam_steps",
        }

    def test_partial_load_holds_only_the_kept_buffers(self, tmp_path):
        """With measure_bias's keep set, a default-width (256x3) pendulum
        checkpoint loads at a tracemalloc peak (which counts numpy's data)
        below the kept buffers' bytes plus 1 MiB, where a full load peaks
        above it; the kept buffers are a full load's bits, the rest None."""
        cfg = RunConfig(env="pendulum", out_dir=str(tmp_path)).validate()
        env = make_env(cfg.env)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, build_agent(cfg, env.spec, make_streams(cfg.seed)), cfg, env.spec)

        def peak_of_load(**keep):
            tracemalloc.start()
            try:
                agent, _, _ = load_checkpoint(path, **keep)
                return agent, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        part, part_peak = peak_of_load(keep=("actor", "critic1", "critic2"))
        full, full_peak = peak_of_load()
        kept = [part.phi, *part.critics.theta]
        bound = sum(net.flat.nbytes for net in kept) + 2**20
        assert part_peak < bound < full_peak
        for got, want in zip(kept, [full.phi, *full.critics.theta], strict=True):
            assert got.flat.tobytes() == want.flat.tobytes()
        assert part.phi_bar is None and part.critics.theta_bar == (None, None)
        assert all(state.m is None and state.v is None for state in (part.adam_actor, *part.critics.adam))

    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    def test_earlier_header_with_shapes_and_target_entropy_loads(self, tmp_path, trained):
        """A header that also holds the per-network shapes and activations
        and the target entropy, as earlier format-2 writers stored them,
        and the env step count and per-critic stats flags, as the writer
        before this one stored them, loads into the same agent: buffers,
        Adam steps, alpha and b/omega. Re-saving drops the extra keys."""
        if trained:
            cfg = tiny_cfg(tmp_path, total_iterations=2)
            train(cfg)
            path = Path(cfg.out_dir) / "checkpoint_2.npz"
            agent, _, _ = load_checkpoint(path)
            assert agent.critics.adam[0].step > 0 and agent.critics.b[0] > 0
        else:
            path, agent = saved_checkpoint(tmp_path)
        fresh = path.read_bytes()
        nets = dict(zip(NETWORKS, (agent.phi, agent.phi_bar, *agent.critics.theta, *agent.critics.theta_bar)))
        adams = dict(zip(ADAM_NETWORKS, (agent.adam_actor, *agent.critics.adam)))

        def add_earlier_keys(header):
            header["target_entropy"] = -1.0
            header["env_steps"] = 20 * header["iteration"]
            header["stats_initialized"] = [header["adam_steps"][n] > 0 for n in ("critic1", "critic2")]
            header["networks"] = {
                name: {
                    "shapes": [list(w_shape) for w_shape, _ in net.layout.shapes],
                    "activations": ["gelu"] * (len(net.layers) - 1) + ["identity"],
                }
                for name, net in nets.items()
            }

        rewrite_checkpoint(path, edit_header(add_earlier_keys))
        assert {"networks", "target_entropy", "env_steps", "stats_initialized"} <= set(read_header(path))
        loaded, cfg, env = load_checkpoint(path)
        for name, net in zip(NETWORKS, (loaded.phi, loaded.phi_bar, *loaded.critics.theta, *loaded.critics.theta_bar)):
            assert params_equal(net, nets[name]) and net.layout == nets[name].layout
        for name, state in zip(ADAM_NETWORKS, (loaded.adam_actor, *loaded.critics.adam)):
            want = adams[name]
            assert state.step == want.step and np.array_equal(state.m, want.m) and np.array_equal(state.v, want.v)
        assert loaded.alpha == agent.alpha and loaded.iteration == agent.iteration
        assert loaded.critics.b == agent.critics.b and loaded.critics.omega == agent.critics.omega
        save_checkpoint(path, loaded, cfg, env.spec)
        assert path.read_bytes() == fresh

    @pytest.mark.parametrize("at_iteration", [0, 2])
    def test_reloaded_agent_continues_like_the_original(self, tmp_path, monkeypatch, at_iteration):
        """An agent saved during a run and loaded back takes the next
        critic update and actor/temperature step exactly as the agent in
        memory does. Saved at iteration 0 the critics have no Adam step,
        so that update seeds b and omega (tau 1); at iteration 2 it moves
        them by tau."""
        cfg = tiny_cfg(tmp_path, total_iterations=2, checkpoint_interval=2)
        kept, harness_save = {}, harness.save_checkpoint

        def save_and_keep(path, agent, *args):
            kept[Path(path).name] = copy.deepcopy(agent)
            harness_save(path, agent, *args)

        monkeypatch.setattr(harness, "save_checkpoint", save_and_keep)
        train(cfg)
        name = f"checkpoint_{at_iteration}.npz"
        original = kept[name]
        loaded, _, _ = load_checkpoint(Path(cfg.out_dir) / name)
        assert original.critics.adam[0].step == (0 if at_iteration == 0 else 20)

        rng = np.random.default_rng(3)
        s, s_next = np.eye(3)[rng.integers(0, 3, 16)], np.eye(3)[rng.integers(0, 3, 16)]
        batch = Batch(s, rng.uniform(-1, 1, (16, 1)), rng.standard_normal(16), s_next, np.zeros(16, dtype=bool))
        update = build_variant(cfg.kernel())
        for agent in (original, loaded):
            update(agent.critics, batch, agent.phi_bar, agent.alpha, cfg, np.random.default_rng(4))
            grads = actor_gradient(agent.phi, batch.s, agent.critics, agent.alpha, np.random.default_rng(5))
            adam_step(agent.adam_actor, agent.phi, grads, cfg.lr_actor)
            dist = policy_forward(agent.phi, batch.s)
            _, logp = policy_sample(dist, np.random.default_rng(6).standard_normal(dist.mu.shape))
            agent.alpha = temperature_update(agent.alpha, logp, -1.0, cfg.lr_alpha)

        def state(agent):
            critics = agent.critics
            nets = (agent.phi, agent.phi_bar, *critics.theta, *critics.theta_bar)
            adams = (agent.adam_actor, *critics.adam)
            return (
                [net.flat for net in nets] + [a.m for a in adams] + [a.v for a in adams],
                ([a.step for a in adams], critics.b, critics.omega, agent.alpha),
            )

        (buffers, scalars), (loaded_buffers, loaded_scalars) = state(original), state(loaded)
        assert all(np.array_equal(a, b) for a, b in zip(buffers, loaded_buffers, strict=True))
        assert scalars == loaded_scalars
        assert original.critics.adam[0].step == (1 if at_iteration == 0 else 21)
        assert original.critics.b[0] > 0 and original.critics.omega[0] > 0

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

    def test_checkpoint_interval_fires_off_eval_iterations(self, tmp_path):
        """train checkpoints on every multiple of checkpoint_interval,
        whether or not an eval falls there, and after the last iteration."""
        cfg = tiny_cfg(tmp_path, total_iterations=7, eval_interval=2, checkpoint_interval=3)
        train(cfg)
        saved = {int(p.stem.removeprefix("checkpoint_")) for p in Path(cfg.out_dir).glob("checkpoint_*.npz")}
        assert saved == {0, 3, 6, 7}

    @pytest.mark.parametrize(
        "overrides, saved",
        [
            ({"total_iterations": 6, "checkpoint_interval": 3}, [0, 3, 6]),
            ({"total_iterations": 0}, [0]),
            # stopped at the first eval, which is also a save point
            ({"total_iterations": 6, "checkpoint_interval": 2, "stop_return": -1e9}, [0, 2]),
        ],
        ids=["interval", "zero-iterations", "stopped-early"],
    )
    def test_each_checkpoint_saved_once(self, tmp_path, monkeypatch, overrides, saved):
        """train saves at iteration 0, each multiple of checkpoint_interval
        and the iteration the run ends at, each file once; the summary
        names the last one."""
        names, harness_save = [], harness.save_checkpoint

        def spy(path, *args):
            names.append(Path(path).name)
            harness_save(path, *args)

        monkeypatch.setattr(harness, "save_checkpoint", spy)
        summary = train(tiny_cfg(tmp_path, **overrides))
        assert names == [f"checkpoint_{i}.npz" for i in saved]
        assert summary["checkpoint"] == names[-1]

    def test_no_updates_before_warm(self, tmp_path):
        cfg = tiny_cfg(tmp_path, warm_size=1000, total_iterations=3)
        summary = train(cfg)
        assert summary["critic_updates"] == 0
        initial, _, _ = load_checkpoint(Path(cfg.out_dir) / "checkpoint_0.npz")
        final, _, _ = load_checkpoint(Path(cfg.out_dir) / "checkpoint_3.npz")
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

    def test_failed_metrics_write_keeps_the_earlier_rows(self, tmp_path, monkeypatch):
        """metrics.csv is replaced whole at each eval: when writing the
        second eval's row fails mid-write, the file holds exactly the
        header and the first row."""
        train(tiny_cfg(tmp_path / "whole", total_iterations=4))
        header, first, _ = (tmp_path / "whole" / "run" / "metrics.csv").read_text().splitlines(keepends=True)

        class TornFile:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        metrics_writes = []

        def failing_second_row(path, write):
            if Path(path).name == "metrics.csv":
                metrics_writes.append(path)
                if len(metrics_writes) == 3:  # the header, the first eval, the second eval
                    return write_atomic(path, lambda f: write(TornFile(f)))
            return write_atomic(path, write)

        monkeypatch.setattr(harness, "write_atomic", failing_second_row)
        cfg = tiny_cfg(tmp_path / "torn", total_iterations=4)
        with pytest.raises(OSError, match="no space"):
            train(cfg)
        out = Path(cfg.out_dir)
        assert (out / "metrics.csv").read_text() == header + first
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

    def test_spawned_process_writes_the_same_bytes(self, tmp_path):
        """A run trained in a fresh interpreter (a spawn child, with its
        own imports, hash seed and heap) writes the metrics.csv this
        process writes for the same config."""
        here = tiny_cfg(tmp_path / "here")
        there = dataclasses.replace(here, out_dir=str(tmp_path / "there"))
        child = multiprocessing.get_context("spawn").Process(target=train, args=(there,))
        child.start()
        try:
            train(here)
        finally:
            child.join(timeout=120)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        rows = (Path(here.out_dir) / "metrics.csv").read_bytes()
        assert rows.count(b"\n") == 4  # the header and three evals, updates from iteration 2
        assert (Path(there.out_dir) / "metrics.csv").read_bytes() == rows


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
        env.reset(0)
        env.set_state((0.0, 0.0))
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
        with pytest.raises(ConfigError):
            evaluate(pendulum_echo_over_point_robot(tmp_path), episodes=1)

    def test_eval_uses_raw_rewards_under_scaling(self, tmp_path):
        # same seed and an untouched policy (warm never reached): the
        # evaluated return must not pick up the buffer-insertion scale
        cfg1 = tiny_cfg(tmp_path / "s1", reward_scale=1.0, total_iterations=2, warm_size=1000)
        cfg2 = tiny_cfg(tmp_path / "s2", reward_scale=100.0, total_iterations=2, warm_size=1000)
        s1, s2 = train(cfg1), train(cfg2)
        assert s1["critic_updates"] == 0
        assert s1["final_return"] == s2["final_return"]
        assert s1["final_return"] != 0.0


@pytest.mark.parametrize(
    "entry",
    [lambda ckpt: evaluate(ckpt, episodes=1), lambda ckpt: measure_bias(ckpt, n_samples=1, n_rollouts=1)],
    ids=["evaluate", "measure_bias"],
)
def test_stored_run_validated_once(tmp_path, monkeypatch, entry):
    """evaluate and measure_bias take the config the loader built from
    the echo; nothing parses or validates the echo a second time."""
    ckpt, _ = saved_checkpoint(tmp_path)
    calls, validate = [], RunConfig.validate

    def spy(self):
        calls.append(self.env)
        return validate(self)

    monkeypatch.setattr(RunConfig, "validate", spy)
    entry(ckpt)
    assert calls == ["bandit-chain"]


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


def pendulum_echo_over_point_robot(tmp_path):
    """A crafted checkpoint whose config echo names the pendulum (obs 3,
    act 1) over point-robot buffers and env block (obs 8, act 2): the
    buffers fit the env block, so it loads, but the env built from the
    echo does not fit the agent."""
    cfg = tiny_cfg(tmp_path, env="point-robot", env_overrides={})
    spec = make_env("point-robot").spec
    agent = build_agent(cfg, spec, make_streams(cfg.seed))
    ckpt = tmp_path / "foreign.npz"
    save_checkpoint(ckpt, agent, dataclasses.replace(cfg, env="pendulum"), spec)
    return ckpt


@pytest.mark.parametrize(
    "entry, command",
    [
        (lambda ckpt: evaluate(ckpt, episodes=1), ["eval"]),
        (lambda ckpt: measure_bias(ckpt, n_samples=1, n_rollouts=1), ["bias", "--samples", "1", "--rollouts", "1"]),
    ],
    ids=["evaluate", "measure_bias"],
)
def test_foreign_env_refused_naming_the_dims(tmp_path, capsys, entry, command):
    """A point-robot agent under a pendulum config echo is refused, naming
    both dims; the CLI exits 2 on it."""
    ckpt = pendulum_echo_over_point_robot(tmp_path)
    with pytest.raises(ConfigError, match=re.escape("(obs_dim, act_dim) = (3, 1) do not match")) as caught:
        entry(ckpt)
    assert "(8, 2)" in str(caught.value)
    assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
    assert "(3, 1) do not match" in capsys.readouterr().err


class TestAblation:
    def test_refinements_study_structure(self, tmp_path):
        cfg = tiny_cfg(tmp_path, total_iterations=4)
        report = run_ablation("refinements", cfg, seeds=[7, 8], out_dir=tmp_path / "study")
        assert set(report["arms"]) == {"full", "no-evs", "single-dist", "no-va"}
        for arm, info in report["arms"].items():
            assert len(info["runs"]) == 2
            assert (tmp_path / "study" / arm / "seed7" / "metrics.csv").exists()
        assert (tmp_path / "study" / "report.json").exists()
        assert (tmp_path / "study" / "curves.svg").exists()

    def test_report_numbers_recomputed_from_metrics_csv(self, tmp_path):
        """Every number of report.json follows from the arm's own
        metrics.csv files: the seed-mean curve, its trapezoid AULC, the
        seed variance at the middle eval and the mean final return."""
        cfg = tiny_cfg(tmp_path, total_iterations=6)
        run_ablation("refinements", cfg, seeds=[7, 8], out_dir=tmp_path / "study")
        report = json.loads((tmp_path / "study" / "report.json").read_text())
        assert list(report["arms"]) == ["full", "no-evs", "single-dist", "no-va"]
        for arm, info in report["arms"].items():
            steps, returns = [], []
            for seed in (7, 8):
                with (tmp_path / "study" / arm / f"seed{seed}" / "metrics.csv").open(newline="") as f:
                    rows = list(csv.DictReader(f))
                steps.append([int(row["env_steps"]) for row in rows])
                returns.append([float(row["avg_return"]) for row in rows])
            assert steps[0] == steps[1] == [40, 80, 120]
            matrix = np.array(returns)
            mean_curve = matrix.mean(axis=0)
            assert info["mean_curve"] == {"env_steps": steps[0], "avg_return": mean_curve.tolist()}
            assert info["aulc"] == float(np.trapezoid(mean_curve, steps[0]))
            assert info["mid_return_variance"] == float(matrix[:, 1].var(ddof=1))
            assert info["mean_final_return"] == float(np.mean(matrix[:, -1]))
            assert [run["final_return"] for run in info["runs"]] == [r[-1] for r in returns]

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
    """Reference buffer: a list of (s, a, r, s_next, done) tuples, stacked
    row by row at sample time, with the same slot order and the same draw."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._storage = []
        self._cursor = 0
        self.pushes = 0

    @property
    def count(self):
        return len(self._storage)

    def push(self, *t):
        self.pushes += 1
        if len(self._storage) < self.capacity:
            self._storage.append(t)
        else:
            self._storage[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity
        return self

    def sample(self, n, rng):
        rows = [self._storage[i] for i in rng.integers(0, self.count, size=n)]
        s, a, r, s_next, done = zip(*rows)
        return Batch(np.stack(s), np.stack(a), np.array(r), np.stack(s_next), np.array(done))


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
            # override values follow the constructor's annotation and bounds
            ({"env_overrides": {"noise_std": "x"}}, "env_overrides['noise_std'] must be a number, got 'x'"),
            ({"env_overrides": {"noise_std": -1.0}}, "env_overrides['noise_std'] must be >= 0, got -1.0"),
            ({"env_overrides": {"max_episode_steps": 0}}, "env_overrides['max_episode_steps'] must be >= 1, got 0"),
            ({"env_overrides": {"max_episode_steps": 2.5}}, "env_overrides['max_episode_steps'] must be an integer"),
            ({"env_overrides": {"max_episode_steps": True}}, "env_overrides['max_episode_steps'] must be an integer"),
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
            ({"hidden_actor": [8.7, True]}, "hidden_actor[0] must be an integer, got 8.7"),
            ({"hidden_actor": ["8"]}, "hidden_actor[0] must be an integer, got '8'"),
            ({"hidden_actor": 8}, "hidden_actor must be a list of integers, got 8"),
            ({"hidden_critic": [4, False]}, "hidden_critic[1] must be an integer, got False"),
            ({"hidden_critic": [4.0]}, "hidden_critic[0] must be an integer, got 4.0"),
            ({"hidden_critic": [4, 0]}, "hidden_critic[1] must be >= 1, got 0"),
            # train checkpoints when iteration % interval == 0
            ({"checkpoint_interval": -2}, "checkpoint_interval must be >= 1, got -2"),
            ({"checkpoint_interval": 0}, "checkpoint_interval must be >= 1, got 0"),
            ({"alpha_init": 0}, "alpha_init must be positive, got 0"),
            ({"lr_critic": -1e-4}, "lr_critic must be positive, got -0.0001"),
            # a real must fit a float, and a refinement flag is a bool or null
            ({"alpha_init": 10**400}, "alpha_init must be finite"),
            ({"twin_distributions": 0.5}, "twin_distributions must be true, false or null, got 0.5"),
            # a ring smaller than the warm-up never fills it, so no update would run
            ({"warm_size": 200, "buffer_capacity": 100}, "warm_size 200 exceeds buffer_capacity 100"),
            # the run directory is a path
            ({"out_dir": None}, "out_dir must be a string, got None"),
            ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ],
    )
    def test_config_error_names_the_key_exit_code(self, tmp_path, capsys, overrides, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "out_dir": str(tmp_path / "run"), **overrides}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            # the full arm would train before the no-evs arm is refused
            ({"algorithm": "sac", "total_iterations": 1}, "sac does not accept expected_value_substitution=False"),
            # a study's curves need at least one eval per run
            ({}, "total_iterations must be >= 1 for a study, got 0"),
        ],
    )
    def test_study_config_error_exit_code_before_any_run(self, tmp_path, capsys, overrides, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "eval_episodes": 1, **overrides}))
        study = tmp_path / "study"
        assert cli_main(["ablate", "--study", "refinements", "--config", str(cfg_path), "--out", str(study)]) == 2
        assert named in capsys.readouterr().err
        assert not study.exists()

    def test_repeated_seed_refused_before_any_run(self, tmp_path, capsys):
        """--seeds 1 1 would train one seed1 directory twice and count it
        as two samples."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "eval_episodes": 1, "total_iterations": 1}))
        study = tmp_path / "study"
        argv = ["ablate", "--study", "refinements", "--config", str(cfg_path), "--out", str(study), "--seeds", "1", "1"]
        assert cli_main(argv) == 2
        assert "seeds must differ, got [1, 1]" in capsys.readouterr().err
        assert not study.exists()

    def test_empty_seed_list_refused_before_any_run(self, tmp_path, capsys):
        """A bare --seeds parses as []; only an absent --seeds means the
        config's seed, so [] is refused rather than training that seed."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "eval_episodes": 1, "total_iterations": 1}))
        study = tmp_path / "study"
        argv = ["ablate", "--study", "refinements", "--config", str(cfg_path), "--out", str(study), "--seeds"]
        assert cli_main(argv) == 2
        assert "seeds is empty" in capsys.readouterr().err
        assert not study.exists()

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

    @pytest.mark.parametrize("command", [["eval"], ["bias", "--samples", "1", "--rollouts", "1"]])
    def test_echo_of_another_env_exit_code(self, tmp_path, capsys, command):
        """A bandit-chain checkpoint (obs 3, act 1) whose echo is rewritten
        to name the point robot (obs 8, act 2): the buffers still fit the
        env block, so the env dims check refuses it, naming both pairs."""
        ckpt, _ = saved_checkpoint(tmp_path)
        echo_point_robot = edit_header(lambda header: header["config"].update(env="point-robot", env_overrides={}))
        rewrite_checkpoint(ckpt, echo_point_robot)
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        captured = capsys.readouterr()
        want = f"env 'point-robot' dims (obs_dim, act_dim) = (8, 2) do not match checkpoint {ckpt} (3, 1)"
        assert want in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [["eval"], ["bias", "--samples", "1", "--rollouts", "1"]])
    def test_fractional_counter_exit_code(self, tmp_path, capsys, command):
        ckpt, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(ckpt, edit_header(lambda header: header["adam_steps"].update(actor=2.5)))
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        assert "['adam_steps']['actor'] must be an integer, got 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["bias", "--samples", "1", "--rollouts", "1"]])
    def test_nan_temperature_exit_code(self, tmp_path, capsys, command):
        """A NaN alpha would turn every soft target and Monte-Carlo truth
        into NaN; the checkpoint is refused instead."""
        ckpt, _ = saved_checkpoint(tmp_path)
        rewrite_checkpoint(ckpt, edit_header(lambda header: header.update(alpha=float("nan"))))
        assert cli_main([command[0], "--checkpoint", str(ckpt), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert "checkpoint ['alpha'] must be finite, got nan" in captured.err and captured.out == ""

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        assert cli_main(["train", "--config", str(cfg_path)]) == 2
        assert f"cannot read config {cfg_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_dir_on_a_file_exit_code(self, tmp_path, capsys, command):
        """An out_dir that is, or lies under, a regular file is refused
        before anything trains, and the file is left as it was."""
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.QUICK, "eval_episodes": 1, "total_iterations": 1}))
        argv = ["--config", str(cfg_path), "--out", str(blocker)]
        if command == "ablate":
            argv = ["--study", "refinements", *argv]
        assert cli_main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert "config error: out_dir" in err and str(blocker) in err
        assert blocker.read_text() == "kept"

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
