"""Judges that need no second implementation: each checks the engine
against itself under a symmetry of the maths, with no copy of a formula.

- Twin swap: exchanging critics 1 and 2 commutes with the critic update
  and leaves the actor gradient alone, bit for bit.
- A single-critic kernel never reads critic 2: NaN there changes nothing.
- Pendulum mirror: (th, thdot, a) -> (-th, -thdot, -a) mirrors the next
  observation and keeps the reward.
"""

import copy
import warnings

import numpy as np
import pytest

from dsact.actor import actor_gradient, actor_sizes
from dsact.config import RunConfig
from dsact.critic import CriticPairState, KernelSpec, build_targets, critic_update, init_critic_pair
from dsact.environments import PendulumEnv
from dsact.numerics import init_mlp
from dsact.replay import Batch

OBS, ACT, HIDDEN, BATCH = 3, 1, [32, 32], 128
ALPHA = 0.2


def networks(seed: int):
    """A critic pair of distinct 32x32 critics and a policy of the same width."""
    pair = init_critic_pair((np.random.default_rng(seed), np.random.default_rng(seed + 1)), OBS, ACT, HIDDEN)
    return pair, init_mlp(np.random.default_rng(seed + 2), actor_sizes(OBS, ACT, HIDDEN))


def random_batch(rng: np.random.Generator) -> Batch:
    return Batch(
        s=rng.standard_normal((BATCH, OBS)),
        a=np.tanh(rng.standard_normal((BATCH, ACT))),
        r=rng.standard_normal(BATCH),
        s_next=rng.standard_normal((BATCH, OBS)),
        done=np.zeros(BATCH, dtype=bool),
    )


def swapped(state: CriticPairState) -> CriticPairState:
    """A copy of the pair with critics 1 and 2 exchanged: theta, theta_bar,
    Adam moments and steps, b and omega."""
    s = copy.deepcopy(state)
    return CriticPairState(s.theta[::-1], s.theta_bar[::-1], s.adam[::-1], s.b[::-1], s.omega[::-1])


def critic_bits(state: CriticPairState, i: int):
    """Everything critic i carries, as arrays and floats to compare exactly."""
    adam = state.adam[i]
    return [state.theta[i].flat, state.theta_bar[i].flat, adam.m, adam.v], (adam.step, state.b[i], state.omega[i])


def assert_same_critic(got: CriticPairState, want: CriticPairState, i: int) -> None:
    (got_arrays, got_scalars), (want_arrays, want_scalars) = critic_bits(got, i), critic_bits(want, i)
    assert all(np.array_equal(g, w) for g, w in zip(got_arrays, want_arrays, strict=True))
    assert got_scalars == want_scalars


def test_twin_swap_commutes_with_the_update():
    """50 full-kernel updates of the swapped pair, swapped back, equal the
    unswapped run bit for bit, and the actor gradient does not see the
    swap. The one exception would be an exact tie of the two target
    means, where the min picks critic 1; the batches hold none."""
    cfg = RunConfig(lr_critic=1e-3)
    state, policy = networks(11)
    mirror = swapped(state)
    rng = np.random.default_rng(5)
    for k in range(50):
        batch = random_batch(rng)
        # with a single-critic spec each pair's target is formed from its own critic 1's
        # target mean alone; a tie of the two critics' means would make these targets equal there
        y_first, y_second = (
            build_targets(pair, batch.s_next, batch.r, 1.0 - batch.done, policy, ALPHA, cfg.gamma,
                          np.random.default_rng(k), KernelSpec(twin_distributions=False))[0]
            for pair in (state, mirror)
        )
        assert not np.any(y_first == y_second)
        for pair in (state, mirror):
            critic_update(pair, batch, policy, ALPHA, cfg, np.random.default_rng(k))
    assert state.adam[0].step == 50 and state.b[0] != state.b[1]
    back = swapped(mirror)
    for i in (0, 1):
        assert_same_critic(back, state, i)
    grads, grads_swapped = (
        actor_gradient(policy, batch.s, pair, ALPHA, np.random.default_rng(99)) for pair in (state, mirror)
    )
    assert np.array_equal(grads, grads_swapped)


@pytest.mark.parametrize(
    "fields",
    [
        {"algorithm": "dsacv1"},
        {"algorithm": "dsact", "twin_distributions": False},
        {"algorithm": "sac", "twin_distributions": False},
    ],
    ids=["dsacv1", "dsact-single", "sac-single"],
)
def test_single_critic_kernel_never_reads_critic_two(fields):
    """With critic 2's theta, theta_bar and Adam moments all NaN, 30
    updates leave critic 1, its b/omega and the actor gradient bitwise
    as they are with critic 2 intact, and nothing warns."""
    cfg = RunConfig(lr_critic=1e-3, **fields)
    spec = cfg.kernel()
    assert spec.active_critics == (0,)
    clean, policy = networks(21)
    poisoned = copy.deepcopy(clean)
    for buffer in (poisoned.theta[1].flat, poisoned.theta_bar[1].flat, poisoned.adam[1].m, poisoned.adam[1].v):
        buffer.fill(np.nan)
    rng = np.random.default_rng(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(30):
            batch = random_batch(rng)
            for pair in (clean, poisoned):
                critic_update(pair, batch, policy, ALPHA, cfg, np.random.default_rng(k), spec)
        grads, grads_poisoned = (
            actor_gradient(policy, batch.s, pair, ALPHA, np.random.default_rng(99), spec.active_critics)
            for pair in (clean, poisoned)
        )
    assert clean.adam[0].step == 30
    assert_same_critic(poisoned, clean, 0)
    assert np.array_equal(grads, grads_poisoned)


# the reward's wrap_angle uses %, which is not odd: over these states a
# mirrored reward differs by at most 9.6e-16 relative, in 338 of 2,000
MIRROR_REWARD_RTOL = 2e-15


def test_pendulum_mirror():
    """(th, thdot, a) -> (-th, -thdot, -a): the next observation
    (cos th, sin th, thdot) is mirrored to (cos, -sin, -thdot) bit for
    bit, and the reward is kept within MIRROR_REWARD_RTOL."""
    rng = np.random.default_rng(0)
    env, mirror = PendulumEnv(), PendulumEnv()
    flip = np.array([1.0, -1.0, -1.0])
    for _ in range(2000):
        th, thdot, a = rng.uniform(-np.pi, np.pi), rng.uniform(-8.0, 8.0), rng.uniform(-1.2, 1.2, ACT)
        for e, state in ((env, (th, thdot)), (mirror, (-th, -thdot))):
            e.reset(0)
            e.set_state(state)
        obs, r, _, _ = env.step(a)
        obs_m, r_m, _, _ = mirror.step(-a)
        assert np.array_equal(obs_m, flip * obs)
        assert r_m == pytest.approx(r, rel=MIRROR_REWARD_RTOL, abs=0.0)
