"""Desk-scale continuous-control tasks behind one Gym-style interface.

Three tasks: pendulum swing-up, a point robot tracking a straight path
while an obstacle crosses it, and a three-state noisy bandit chain whose
soft values the oracle module can compute exactly. All constants are
implementation fixtures and are echoed into run summaries through
``fixture_constants``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvSpec:
    name: str
    obs_dim: int
    act_dim: int
    max_episode_steps: int
    action_scale: tuple[float, ...]


def wrap_angle(theta: float) -> float:
    """Wrap to [-pi, pi]."""
    return float((theta + np.pi) % (2.0 * np.pi) - np.pi)


class PendulumEnv:
    """Torque-limited swing-up; the standard rod-pendulum fixture.

    obs = (cos th, sin th, thdot), torque = 2 * action. Velocity update
    precedes the position update, keeping energy drift bounded.
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0

    def __init__(self, max_episode_steps: int = 200):
        self.spec = EnvSpec("pendulum", 3, 1, max_episode_steps, (self.MAX_TORQUE,))
        self.th = 0.0
        self.thdot = 0.0
        self.steps = 0

    def clone(self, **overrides) -> "PendulumEnv":
        return PendulumEnv(overrides.get("max_episode_steps", self.spec.max_episode_steps))

    def fixture_constants(self) -> dict:
        return {
            "g": self.GRAVITY,
            "m": self.MASS,
            "l": self.LENGTH,
            "dt": self.DT,
            "max_speed": self.MAX_SPEED,
            "max_torque": self.MAX_TORQUE,
            "reward": "-(th_norm^2 + 0.1*thdot^2 + 0.001*u^2)",
            "max_episode_steps": self.spec.max_episode_steps,
        }

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self.th = float(rng.uniform(-np.pi, np.pi))
        self.thdot = float(rng.uniform(-1.0, 1.0))
        self.steps = 0
        return self._obs()

    def force_state(self, th: float, thdot: float) -> np.ndarray:
        self.th = float(th)
        self.thdot = float(thdot)
        self.steps = 0
        return self._obs()

    def get_state(self):
        return (self.th, self.thdot)

    def set_state(self, state) -> None:
        self.th, self.thdot = float(state[0]), float(state[1])

    def _obs(self) -> np.ndarray:
        return np.array([np.cos(self.th), np.sin(self.th), self.thdot])

    def step(self, action: np.ndarray):
        # ndarray.clip and min/max give np.clip's floats (NaN too) without its dispatch
        u = float(np.asarray(action).clip(-1.0, 1.0)[0]) * self.MAX_TORQUE
        th_norm = wrap_angle(self.th)
        cost = th_norm**2 + 0.1 * self.thdot**2 + 0.001 * u**2
        g, m, l, dt = self.GRAVITY, self.MASS, self.LENGTH, self.DT
        self.thdot += (3.0 * g / (2.0 * l) * np.sin(self.th) + 3.0 / (m * l**2) * u) * dt
        self.thdot = float(min(max(self.thdot, -self.MAX_SPEED), self.MAX_SPEED))
        self.th = float(self.th + self.thdot * dt)
        self.steps += 1
        truncated = self.steps >= self.spec.max_episode_steps
        return self._obs(), -float(cost), False, truncated

    def mechanical_energy(self) -> float:
        """Rotational kinetic plus gravitational potential of the rod."""
        inertia = self.MASS * self.LENGTH**2 / 3.0
        return 0.5 * inertia * self.thdot**2 + 0.5 * self.MASS * self.GRAVITY * self.LENGTH * np.cos(self.th)


class PointRobotEnv:
    """Unicycle robot tracking the x-axis at 0.28 m/s while one obstacle
    crosses the path at constant speed.

    Actions command acceleration and angular acceleration; a collision
    (center distance below the summed radii) terminates the episode.
    Obstacle spawn side, timing and speed are drawn once per reset, so
    each episode is fully determined by its seed.
    """

    DT = 0.02
    V_DESIRED = 0.28
    V_MAX = 0.6
    OMEGA_MAX = 2.0
    ACCEL_SCALE = 1.0
    ANG_ACCEL_SCALE = 2.0
    R_ROBOT = 0.2
    R_OBSTACLE = 0.2
    COEFF_POS = 1.0
    COEFF_VEL = 1.0
    COEFF_ACT = 0.05
    COEFF_COLLISION = 100.0

    def __init__(self, max_episode_steps: int = 500):
        self.spec = EnvSpec(
            "point-robot",
            8,
            2,
            max_episode_steps,
            (self.ACCEL_SCALE, self.ANG_ACCEL_SCALE),
        )
        self.x = self.y = self.psi = self.v = self.om = 0.0
        self.ox = self.oy = self.ovx = self.ovy = 0.0
        self.steps = 0

    def clone(self, **overrides) -> "PointRobotEnv":
        return PointRobotEnv(overrides.get("max_episode_steps", self.spec.max_episode_steps))

    def fixture_constants(self) -> dict:
        return {
            "dt": self.DT,
            "v_desired": self.V_DESIRED,
            "v_max": self.V_MAX,
            "omega_max": self.OMEGA_MAX,
            "action_scale": (self.ACCEL_SCALE, self.ANG_ACCEL_SCALE),
            "r_robot": self.R_ROBOT,
            "r_obstacle": self.R_OBSTACLE,
            "reward_coeffs": (self.COEFF_POS, self.COEFF_VEL, self.COEFF_ACT, self.COEFF_COLLISION),
            "max_episode_steps": self.spec.max_episode_steps,
        }

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self.x = self.y = self.psi = self.v = self.om = 0.0
        # obstacle reaches the path near when a nominal-speed robot would
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        t_cross = rng.uniform(4.0, 7.0)
        speed = rng.uniform(0.15, 0.3)
        offset = rng.uniform(-0.7, 0.7)
        self.ox = self.V_DESIRED * (t_cross + offset)
        self.oy = side * speed * t_cross
        self.ovx = 0.0
        self.ovy = -side * speed
        self.steps = 0
        return self._obs()

    def get_state(self):
        return (self.x, self.y, self.psi, self.v, self.om, self.ox, self.oy, self.ovx, self.ovy)

    def set_state(self, state) -> None:
        (self.x, self.y, self.psi, self.v, self.om, self.ox, self.oy, self.ovx, self.ovy) = (
            float(s) for s in state
        )

    def force_state(self, *state) -> np.ndarray:
        self.set_state(state)
        self.steps = 0
        return self._obs()

    def _obs(self) -> np.ndarray:
        return np.array(
            [
                self.y,
                wrap_angle(self.psi),
                self.v,
                self.om,
                self.ox - self.x,
                self.oy - self.y,
                self.ovx,
                self.ovy,
            ]
        )

    def collision(self) -> bool:
        dx = self.x - self.ox
        dy = self.y - self.oy
        return bool(np.hypot(dx, dy) < self.R_ROBOT + self.R_OBSTACLE)

    def step(self, action: np.ndarray):
        a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        self.v = float(np.clip(self.v + a[0] * self.ACCEL_SCALE * self.DT, 0.0, self.V_MAX))
        self.om = float(
            np.clip(self.om + a[1] * self.ANG_ACCEL_SCALE * self.DT, -self.OMEGA_MAX, self.OMEGA_MAX)
        )
        self.psi = wrap_angle(self.psi + self.om * self.DT)
        self.x += self.v * np.cos(self.psi) * self.DT
        self.y += self.v * np.sin(self.psi) * self.DT
        self.ox += self.ovx * self.DT
        self.oy += self.ovy * self.DT
        self.steps += 1
        collided = self.collision()
        reward = -(
            self.COEFF_POS * self.y**2
            + self.COEFF_VEL * (self.v - self.V_DESIRED) ** 2
            + self.COEFF_ACT * float(a @ a)
        )
        if collided:
            reward -= self.COEFF_COLLISION
        truncated = self.steps >= self.spec.max_episode_steps
        return self._obs(), float(reward), collided, truncated


def point_robot_reference_action(obs: np.ndarray) -> np.ndarray:
    """Hand-coded tracking controller used to validate the fixture.

    Pure-pursuit style steering toward the path, plus a yield rule:
    brake and hold well behind the obstacle's crossing line until the
    obstacle has crossed and moved clear of the path.
    """
    y, psi, v, om, dxo, dyo, ovx, ovy = obs
    oy_abs = y + dyo
    cleared = (oy_abs * ovy > 0) and abs(oy_abs) > 0.45
    v_des = PointRobotEnv.V_DESIRED
    if not cleared and 0.0 < dxo < 0.75:
        v_des = 0.0
    psi_des = np.clip(-1.2 * y, -0.8, 0.8)
    om_des = np.clip(2.0 * (psi_des - psi), -1.5, 1.5)
    a_ang = np.clip(4.0 * (om_des - om) / PointRobotEnv.ANG_ACCEL_SCALE, -1.0, 1.0)
    a_lin = np.clip(3.0 * (v_des - v) / PointRobotEnv.ACCEL_SCALE, -1.0, 1.0)
    return np.array([a_lin, a_ang])


@dataclass(frozen=True)
class ChainSpec:
    """Three-state cyclic chain with quadratic per-state reward peaks."""

    optimal_actions: tuple[float, float, float] = (-0.5, 0.0, 0.5)
    noise_std: float = 0.3

    def mean_reward(self, state: int, action: float) -> float:
        return -((action - self.optimal_actions[state]) ** 2)

    @staticmethod
    def next_state(state: int) -> int:
        return (state + 1) % 3


class BanditChainEnv:
    """Deterministic 3-state cycle with 1-D actions and Gaussian reward
    noise; the oracle module computes its soft values exactly."""

    def __init__(self, noise_std: float = 0.3, max_episode_steps: int = 40):
        self.chain = ChainSpec(noise_std=noise_std)
        self.spec = EnvSpec("bandit-chain", 3, 1, max_episode_steps, (1.0,))
        self.state = 0
        self.steps = 0
        self._rng = np.random.default_rng(0)

    def clone(self, **overrides) -> "BanditChainEnv":
        return BanditChainEnv(
            noise_std=overrides.get("noise_std", self.chain.noise_std),
            max_episode_steps=overrides.get("max_episode_steps", self.spec.max_episode_steps),
        )

    def fixture_constants(self) -> dict:
        return {
            "optimal_actions": self.chain.optimal_actions,
            "noise_std": self.chain.noise_std,
            "max_episode_steps": self.spec.max_episode_steps,
        }

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self.state = 0
        self.steps = 0
        return self._obs()

    def get_state(self):
        return self.state

    def set_state(self, state) -> None:
        self.state = int(state)

    def force_state(self, state: int) -> np.ndarray:
        self.state = int(state)
        self.steps = 0
        return self._obs()

    def _obs(self) -> np.ndarray:
        obs = np.zeros(3)
        obs[self.state] = 1.0
        return obs

    def step(self, action: np.ndarray):
        a0 = float(np.asarray(action).clip(-1.0, 1.0)[0])
        r = self.chain.mean_reward(self.state, a0)
        if self.chain.noise_std > 0:
            r += self.chain.noise_std * self._rng.standard_normal()
        self.state = self.chain.next_state(self.state)
        self.steps += 1
        truncated = self.steps >= self.spec.max_episode_steps
        return self._obs(), float(r), False, truncated


ENV_BUILDERS = {
    "pendulum": PendulumEnv,
    "point-robot": PointRobotEnv,
    "bandit-chain": BanditChainEnv,
}


def make_env(name: str, overrides: dict | None = None):
    if name not in ENV_BUILDERS:
        raise ValueError(f"unknown environment {name!r}; choose from {sorted(ENV_BUILDERS)}")
    return ENV_BUILDERS[name](**(overrides or {}))
