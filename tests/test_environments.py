import numpy as np
import pytest

from dsact.environments import (
    BanditChainEnv,
    PendulumEnv,
    PointRobotEnv,
    make_env,
    point_robot_reference_action,
    wrap_angle,
)


def placed(env, state):
    """The env at ``state`` and step 0, by reset and set_state."""
    env.reset(0)
    env.set_state(state)
    return env


def run_trajectory(env, seed, actions):
    obs = env.reset(seed)
    trace = [obs]
    for a in actions:
        obs, r, done, trunc = env.step(a)
        trace.append(obs)
        trace.append(r)
    return trace


class TestPendulum:
    def test_upright_fixed_point(self):
        env = placed(PendulumEnv(), (0.0, 0.0))
        obs, r, done, trunc = env.step(np.array([0.0]))
        assert r == 0.0
        assert env.get_state() == (0.0, 0.0)

    def test_hanging_reward(self):
        env = placed(PendulumEnv(), (np.pi, 0.0))
        _, r, _, _ = env.step(np.array([0.0]))
        assert r == pytest.approx(-np.pi**2, abs=1e-12)

    def test_velocity_update_at_pi(self):
        # thdot' = thdot + dt * (3g/2l) * sin(theta); sin(pi) = 0
        env = placed(PendulumEnv(), (np.pi, 0.0))
        env.step(np.array([0.0]))
        assert abs(env.thdot) < 1e-15

    def test_initial_distribution(self):
        env = PendulumEnv()
        ths, thdots = [], []
        for seed in range(200):
            env.reset(seed)
            th, thdot = env.get_state()
            ths.append(th)
            thdots.append(thdot)
        assert -np.pi <= min(ths) and max(ths) <= np.pi
        assert -1.0 <= min(thdots) and max(thdots) <= 1.0
        assert max(ths) > 2.0 and min(ths) < -2.0  # actually spreads out

    def test_reset_returns_step_zero(self):
        env = PendulumEnv()
        env.reset(0)
        assert env.steps == 0

    def test_determinism(self):
        rng = np.random.default_rng(0)
        actions = [rng.uniform(-1, 1, 1) for _ in range(50)]
        t1 = run_trajectory(PendulumEnv(), ogseed := 7, actions)
        t2 = run_trajectory(PendulumEnv(), ogseed, actions)
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)

    def test_truncates_at_episode_limit(self):
        env = PendulumEnv()
        env.reset(0)
        for k in range(200):
            _, _, done, trunc = env.step(np.array([0.0]))
            assert not done
        assert trunc

    def test_torque_scale(self):
        env = placed(PendulumEnv(), (np.pi / 2, 0.0))
        env.step(np.array([1.0]))  # u = 2
        # thdot = dt*(15*sin(pi/2) + 3*2) = 0.05*21
        assert env.thdot == pytest.approx(0.05 * 21.0, abs=1e-12)

    def test_energy_drift_under_free_swing(self):
        """Fixture property: swinging freely near the bottom, total
        mechanical energy drifts by less than 1% over one episode."""
        env = placed(PendulumEnv(), (np.pi - 0.3, 0.0))
        e0 = env.mechanical_energy()
        for _ in range(200):
            env.step(np.array([0.0]))
            assert abs(env.thdot) < 8.0  # clamp never active
        assert abs(env.mechanical_energy() - e0) / abs(e0) < 0.01


class TestPointRobot:
    def test_collision_symmetric_and_exact(self):
        env = PointRobotEnv()
        r_sum = env.R_ROBOT + env.R_OBSTACLE
        placed(env, (0, 0, 0, 0, 0, r_sum + 1e-9, 0, 0, 0))
        assert not env.collision()
        placed(env, (0, 0, 0, 0, 0, r_sum - 1e-9, 0, 0, 0))
        assert env.collision()
        # swap robot and obstacle positions
        placed(env, (r_sum - 1e-9, 0, 0, 0, 0, 0, 0, 0, 0))
        assert env.collision()

    def test_collision_terminates_with_penalty(self):
        env = placed(PointRobotEnv(), (0, 0, 0, 0.28, 0, 0.3, 0, 0, 0))
        _, r, done, _ = env.step(np.array([0.0, 0.0]))
        assert done
        assert r < -99.0

    def test_determinism(self):
        rng = np.random.default_rng(1)
        actions = [rng.uniform(-1, 1, 2) for _ in range(100)]
        t1 = run_trajectory(PointRobotEnv(), 3, actions)
        t2 = run_trajectory(PointRobotEnv(), 3, actions)
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)

    def test_obstacle_draw_is_seeded(self):
        e1, e2 = PointRobotEnv(), PointRobotEnv()
        e1.reset(5)
        e2.reset(5)
        assert e1.get_state() == e2.get_state()
        e2.reset(6)
        assert e1.get_state() != e2.get_state()

    def test_obstacle_crosses_near_nominal_arrival(self):
        """The spawn draw forces an interaction window around the time a
        desired-speed robot reaches the crossing point."""
        for seed in range(40):
            env = PointRobotEnv()
            env.reset(seed)
            t_obstacle = abs(env.oy / env.ovy)
            t_robot = env.ox / env.V_DESIRED
            assert abs(t_obstacle - t_robot) <= 0.7 + 1e-9
            assert 4.0 <= t_obstacle <= 7.0

    def test_reward_at_speed_on_path(self):
        env = placed(PointRobotEnv(), (0, 0, 0, 0.28, 0, 50, 50, 0, 0))  # obstacle far away
        _, r, done, _ = env.step(np.array([0.0, 0.0]))
        assert not done
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_reference_controller_avoids_and_tracks(self):
        """Validates the task is solvable: the hand-coded controller has
        zero collisions and small mean lateral error over 100 episodes."""
        lat_errs = []
        collisions = 0
        for seed in range(100):
            env = PointRobotEnv()
            obs = env.reset(seed)
            ep_errs = []
            while True:
                a = point_robot_reference_action(obs)
                obs, r, done, trunc = env.step(a)
                ep_errs.append(abs(env.y))
                if done:
                    collisions += 1
                    break
                if trunc:
                    break
            lat_errs.append(np.mean(ep_errs))
        assert collisions == 0
        assert float(np.mean(lat_errs)) <= 0.1


class TestBanditChain:
    def test_noise_free_optimum(self):
        env = BanditChainEnv(noise_std=0.0)
        env.reset(0)
        a_star = env.chain.optimal_actions[0]
        _, r, _, _ = env.step(np.array([a_star]))
        assert r == 0.0

    def test_cycle_order(self):
        env = BanditChainEnv(noise_std=0.0)
        env.reset(0)
        seen = [env.get_state()]
        for _ in range(4):
            env.step(np.array([0.0]))
            seen.append(env.get_state())
        assert seen == [0, 1, 2, 0, 1]

    def test_reward_noise_statistics(self):
        env = BanditChainEnv(noise_std=0.5, max_episode_steps=4000)
        env.reset(9)
        resid = []
        for _ in range(4000):
            s = env.get_state()
            _, r, _, _ = env.step(np.array([0.0]))
            resid.append(r - env.chain.mean_reward(s, 0.0))
        assert abs(np.std(resid) - 0.5) < 0.02

    def test_determinism(self):
        actions = [np.array([x]) for x in np.linspace(-1, 1, 30)]
        t1 = run_trajectory(BanditChainEnv(noise_std=0.3), 2, actions)
        t2 = run_trajectory(BanditChainEnv(noise_std=0.3), 2, actions)
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)


def reference_pendulum_step(env, action):
    """PendulumEnv.step's state update and reward, with np.clip for both
    clamps; returns (th, thdot, reward)."""
    u = float(np.clip(action, -1.0, 1.0)[0]) * env.MAX_TORQUE
    th_norm = wrap_angle(env.th)
    cost = th_norm**2 + 0.1 * env.thdot**2 + 0.001 * u**2
    g, m, l, dt = env.GRAVITY, env.MASS, env.LENGTH, env.DT
    thdot = env.thdot + (3.0 * g / (2.0 * l) * np.sin(env.th) + 3.0 / (m * l**2) * u) * dt
    thdot = float(np.clip(thdot, -env.MAX_SPEED, env.MAX_SPEED))
    return float(env.th + thdot * dt), thdot, -float(cost)


def reference_chain_reward(env, action):
    """BanditChainEnv.step's reward with np.clip for the action box."""
    r = env.chain.mean_reward(env.state, float(np.clip(action, -1.0, 1.0)[0]))
    if env.chain.noise_std > 0:
        r += env.chain.noise_std * env._rng.standard_normal()
    return float(r)


def bits(*xs):
    return [np.float64(x).tobytes() for x in xs]


# out of the box on both sides, on its edges, inside it, NaN, and lists
# of floats or ints as well as arrays
CLAMP_ACTIONS = [
    np.array([-3.0]),
    np.array([-1.0]),
    np.array([0.4]),
    np.array([1.0]),
    np.array([7.5]),
    np.array([np.nan]),
    [2.5],
    [-2],
    [0],
]


@pytest.mark.parametrize("action", CLAMP_ACTIONS)
@pytest.mark.parametrize(
    "th, thdot",
    # 7.99 at th = pi/2 under full torque overshoots +MAX_SPEED, and its
    # mirror undershoots -MAX_SPEED
    [(0.3, 0.0), (np.pi / 2, 7.99), (-np.pi / 2, -7.99), (1.0, 8.0), (-1.0, -8.0), (0.5, np.nan)],
)
def test_pendulum_step_clamps_match_np_clip_bit_for_bit(action, th, thdot):
    env = placed(PendulumEnv(), (th, thdot))
    want = reference_pendulum_step(env, action)
    _, r, _, _ = env.step(action)
    assert bits(env.th, env.thdot, r) == bits(*want)


@pytest.mark.parametrize("action", CLAMP_ACTIONS)
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_chain_step_clamp_matches_np_clip_bit_for_bit(action, noise_std):
    for state in range(3):
        env, ref = BanditChainEnv(noise_std=noise_std), BanditChainEnv(noise_std=noise_std)
        env.reset(4)
        ref.reset(4)
        env.set_state(state)
        ref.set_state(state)
        _, r, _, _ = env.step(action)
        assert bits(r) == bits(reference_chain_reward(ref, action))


def test_make_env_registry():
    assert make_env("pendulum").spec.name == "pendulum"
    assert make_env("point-robot").spec.obs_dim == 8
    assert make_env("bandit-chain", {"noise_std": 0.7}).chain.noise_std == 0.7
    with pytest.raises(ValueError):
        make_env("mujoco-humanoid")


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1, abs=1e-12)
    assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1, abs=1e-12)
