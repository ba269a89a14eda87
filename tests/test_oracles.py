import numpy as np
import pytest

from dsact.environments import BanditChainEnv, ChainSpec
from dsact.numerics import Layer, init_mlp
from dsact.oracles import (
    BiasReport,
    finite_diff_grad,
    mc_true_q,
    numeric_soft_q,
    truth_horizon,
)

from conftest import net_from_layers


class ConstRewardEnv:
    """Minimal deterministic stub: reward 1 every step, never ends."""

    def __init__(self):
        self.state = 0

    def clone(self):
        return type(self)()

    def reset(self, seed):
        self.state = 0
        return np.zeros(1)

    def set_state(self, state):
        self.state = state

    def step(self, action):
        return np.zeros(1), 1.0, False, False


def zero_policy(obs, rng):
    return np.zeros(1), 0.0


def test_truth_horizon():
    assert truth_horizon(0.0) == 1
    assert truth_horizon(0.9) == 66
    assert 0.9**66 < 1e-3 <= 0.9**65
    assert truth_horizon(0.99) == 688


def test_finite_diff_linear_exact():
    net = net_from_layers([Layer(np.array([[1.0, 2.0]]), np.array([0.5]))])
    coeffs = np.array([3.0, -4.0])

    def fn(p):
        return float((p.layers[0].weight @ coeffs)[0] + 2.0 * p.layers[0].bias[0])

    for h in (1e-3, 1e-5, 1e-7):
        g = finite_diff_grad(fn, net, h)
        assert np.allclose(net.layout.weight_views(g)[0], coeffs, atol=1e-6)
        assert np.allclose(net.layout.bias_views(g)[0], [2.0], atol=1e-6)


def test_finite_diff_quadratic():
    net = net_from_layers([Layer(np.array([[3.0]]), np.array([0.0]))])

    def fn(p):
        return float(p.layers[0].weight[0, 0] ** 2)

    g = finite_diff_grad(fn, net, 1e-5)
    assert abs(net.layout.weight_views(g)[0][0, 0] - 6.0) < 1e-9


def test_finite_diff_constant_zero(rng):
    net = init_mlp(rng, [2, 4, 1])
    g = finite_diff_grad(lambda p: 7.5, net, 1e-5)
    assert not g.any()


def test_mc_true_q_geometric_series():
    env = ConstRewardEnv()
    got = mc_true_q(
        env, zero_policy, (0, np.zeros(1)), n_rollouts=3, gamma=0.9, alpha=0.0,
        rng=np.random.default_rng(0),
    )
    want = (1 - 0.9**66) / 0.1
    assert got == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(9.990, abs=1e-3)


def test_mc_true_q_gamma_zero_is_one_step():
    env = BanditChainEnv(noise_std=0.0)
    got = mc_true_q(
        env, zero_policy, (1, np.array([0.3])), n_rollouts=1, gamma=0.0, alpha=0.0,
        rng=np.random.default_rng(0),
    )
    assert got == pytest.approx(-(0.3 - 0.0) ** 2, abs=1e-12)


def test_mc_true_q_respects_termination():
    class TwoStepEnv(ConstRewardEnv):
        def step(self, action):
            self.state += 1
            return np.zeros(1), 1.0, self.state >= 2, False

    got = mc_true_q(
        TwoStepEnv(), zero_policy, (0, np.zeros(1)), n_rollouts=2, gamma=0.9,
        alpha=0.0, rng=np.random.default_rng(0),
    )
    assert got == pytest.approx(1.0 + 0.9, abs=1e-12)


class TestNumericSoftQ:
    def test_gamma_zero_exact(self):
        chain = ChainSpec(noise_std=0.3)
        table = numeric_soft_q(chain, alpha=0.2, gamma=0.0)
        for s in range(3):
            a_star = chain.optimal_actions[s]
            assert table.q_at(s, a_star) == pytest.approx(0.0, abs=1e-12)
            assert table.q_at(s, a_star + 0.3) == pytest.approx(-0.09, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.3, 0.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
    def test_soft_optimal_return_std(self, sigma, gamma):
        """Under the soft-optimal policy each step's soft reward is
        V(s) - gamma V(s') plus the reward noise, so the return std is
        sigma / sqrt(1 - gamma^2) from every state, and 0 without noise;
        1e-15 is about 9 ulps of the largest value here (0.688)."""
        table = numeric_soft_q(ChainSpec(noise_std=sigma), alpha=0.2, gamma=gamma)
        want = sigma / np.sqrt(1.0 - gamma**2)
        assert table.ret_std.shape == (3,)
        for s in range(3):
            assert abs(table.std_at(s) - want) <= 1e-15

    def test_grid_halving_stable(self):
        chain = ChainSpec(noise_std=0.3)
        t1 = numeric_soft_q(chain, alpha=0.2, gamma=0.9, grid_step=1e-3)
        t2 = numeric_soft_q(chain, alpha=0.2, gamma=0.9, grid_step=5e-4)
        for s in range(3):
            for a in (-0.8, -0.1, 0.44):
                assert abs(t1.q_at(s, a) - t2.q_at(s, a)) < 1e-6

    def test_hard_max_limit(self):
        chain = ChainSpec(noise_std=0.0)
        gamma = 0.5
        prev_gap = None
        # V_hard(s) solves V = 0 + gamma * V(next) on the cycle -> 0
        for alpha in (0.2, 0.05, 0.01):
            table = numeric_soft_q(chain, alpha=alpha, gamma=gamma)
            gap = float(np.max(np.abs(table.v)))
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 0.05

    def test_refuses_coarse_grid(self):
        chain = ChainSpec(noise_std=0.3)
        with pytest.raises(ValueError):
            numeric_soft_q(chain, alpha=0.2, gamma=0.9, grid_step=5e-3)
        with pytest.raises(ValueError):
            numeric_soft_q(chain, alpha=1.0, gamma=0.95, grid_step=1e-3, refine_tol=5e-8)

    def test_policy_logpdf_normalizes(self):
        chain = ChainSpec(noise_std=0.3)
        table = numeric_soft_q(chain, alpha=0.2, gamma=0.9)
        for s in range(3):
            dens = np.exp((table.q[s] - table.v[s]) / table.alpha)
            total = np.trapezoid(dens, table.actions)
            assert total == pytest.approx(1.0, abs=1e-6)


def test_soft_policy_draws_match_choice():
    """The soft-optimal sampler draws the grid points ``rng.choice``
    draws with the soft-optimal p from a twin stream, and leaves the
    stream where ``rng.choice`` does."""
    table = numeric_soft_q(ChainSpec(noise_std=0.3), alpha=0.2, gamma=0.9)
    policy = table.make_policy()
    grid = table.actions
    h = grid[1] - grid[0]
    w = np.full(len(grid), h)
    w[0] = w[-1] = h / 2.0
    for s in range(3):
        p = w * np.exp((table.q[s] - table.v[s]) / table.alpha)
        p /= p.sum()
        ours, ref = np.random.default_rng(900 + s), np.random.default_rng(900 + s)
        obs = np.eye(3)[s]
        for _ in range(2000):
            a, logp = policy(obs, ours)
            want = grid[ref.choice(len(grid), p=p)]
            assert a[0] == want
            assert logp == table.policy_logpdf(s, want)
        assert ours.random() == ref.random()


def test_cross_oracle_agreement(rng):
    """Monte-Carlo truth under the soft-optimal policy agrees with the
    quadrature solution on random queries within 3 standard errors.

    What this judges is `mc_true_q`'s bookkeeping: its discounting and
    the entropy bonus it adds after the first step. The sampler it rolls
    out with is judged on its own by `test_soft_policy_draws_match_choice`.
    """
    chain = ChainSpec(noise_std=0.3)
    alpha, gamma = 0.2, 0.9
    table = numeric_soft_q(chain, alpha, gamma)
    policy = table.make_policy()
    env = BanditChainEnv(noise_std=0.3)
    n_bad = 0
    for _ in range(10):
        s = int(rng.integers(0, 3))
        a = float(rng.uniform(-1, 1))
        vals = [
            mc_true_q(env, policy, (s, np.array([a])), 1, gamma, alpha, rng)
            for _ in range(400)
        ]
        mean = np.mean(vals)
        sem = np.std(vals, ddof=1) / np.sqrt(len(vals))
        if abs(mean - table.q_at(s, a)) > 3 * sem:
            n_bad += 1
    assert n_bad == 0


def test_bias_report_serialization():
    report = BiasReport(mean_bias=-2.0, pairs=[(5.0, 7.0), (3.0, 5.0)], n_rollouts=10, horizon=66)
    doc = report.to_jsonable()
    assert doc["mean_bias"] == -2.0
    assert doc["n_samples"] == 2
    assert report.sem() == 0.0  # identical gaps have zero spread
