import numpy as np
import pytest
from scipy import stats
from scipy.integrate import simpson

from dsact.distributions import (
    EPS_TANH,
    LOG_STD_MAX,
    LOG_STD_MIN,
    SIGMA_MIN,
    PolicyDistParams,
    gaussian_logpdf,
    policy_logprob,
    policy_sample,
    value_head_batch,
)

from scalar_reference import ValueDistParams, sample_value, value_head


def test_logpdf_standard_normal_at_mode():
    assert gaussian_logpdf(0.0, 0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_logpdf_one_sigma_out():
    assert gaussian_logpdf(1.0, 0.0, 1.0) == pytest.approx(-1.4189385332046727, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
def test_logpdf_scale_law(c):
    y, m, s = 0.7, 0.2, 1.3
    assert gaussian_logpdf(c * y, c * m, c * s) == pytest.approx(
        gaussian_logpdf(y, m, s) - np.log(c), abs=1e-12
    )


def test_logpdf_rejects_nonpositive_std():
    with pytest.raises(ValueError):
        gaussian_logpdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_logpdf(0.0, 0.0, -1.0)


def test_logpdf_integrates_to_one():
    mean, std = 0.4, 2.3
    ys = np.linspace(mean - 10 * std, mean + 10 * std, 20001)
    total = simpson(np.exp(gaussian_logpdf(ys, mean, std)), x=ys)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_value_head_softplus_at_zero():
    dist = value_head(0.0, 0.0)
    assert dist.sigma == pytest.approx(np.log(2.0) + SIGMA_MIN, abs=1e-12)


def test_value_head_underflow_floor():
    dist = value_head(0.0, -40.0)
    assert abs(dist.sigma - SIGMA_MIN) < 1e-12


def test_value_head_channels_independent():
    for spread in (-3.0, 0.0, 5.0):
        assert value_head(5.0, spread).q == 5.0


def test_value_head_batch_matches_scalar(rng):
    raw = rng.standard_normal((10, 2))
    q, sigma = value_head_batch(raw)
    for j in range(10):
        d = value_head(raw[j, 0], raw[j, 1])
        assert q[j] == d.q
        assert sigma[j] == d.sigma
    assert np.all(sigma >= SIGMA_MIN)


def test_policy_sample_zero_noise_is_mode():
    dist = PolicyDistParams(np.array([0.3, -1.0]), np.array([0.0, 0.5]))
    a, logp = policy_sample(dist, np.zeros(2))
    assert np.allclose(a, np.tanh(dist.mu))
    assert logp == policy_logprob(dist, dist.mu)


def test_policy_sample_unit_noise():
    dist = PolicyDistParams(np.array([0.0]), np.array([0.0]))
    a, logp = policy_sample(dist, np.array([1.0]))
    assert logp == policy_logprob(dist, np.array([1.0]))
    assert a[0] == pytest.approx(np.tanh(1.0), abs=1e-12)
    assert a[0] == pytest.approx(0.76159, abs=1e-5)


def test_policy_sample_stays_inside_box(rng):
    dist = PolicyDistParams(rng.uniform(-50, 50, 4), np.full(4, 2.0))
    for _ in range(100):
        a, _ = policy_sample(dist, rng.standard_normal(4))
        assert np.all(np.abs(a) < 1.0)


def test_policy_logprob_at_origin():
    dist = PolicyDistParams(np.array([0.0]), np.array([0.0]))
    want = -0.9189385332046727 - np.log(1.0 + EPS_TANH)
    assert policy_logprob(dist, np.array([0.0])) == pytest.approx(want, abs=1e-12)


def test_policy_logprob_decreases_with_log_std_at_mode():
    prev = np.inf
    for ls in (-1.0, 0.0, 1.0):
        dist = PolicyDistParams(np.array([0.2]), np.array([ls]))
        lp = policy_logprob(dist, np.array([0.2]))
        assert lp < prev
        prev = lp


def test_policy_logprob_normalizes_over_actions(rng):
    # Monte-Carlo estimate of the integral of the squashed density
    dist = PolicyDistParams(np.array([0.4]), np.array([-0.3]))
    n = 1_000_000
    noise = rng.standard_normal((n, 1))
    u = dist.mu + np.exp(dist.log_std) * noise
    a = np.tanh(u)
    # importance estimate: E_a~pi[1] via uniform grid instead: evaluate
    # exp(logprob) on a grid of actions and integrate
    grid_a = np.linspace(-1 + 1e-9, 1 - 1e-9, 200001)
    grid_u = np.arctanh(grid_a)
    base = gaussian_logpdf(grid_u, dist.mu[0], np.exp(dist.log_std[0]))
    corr = np.log(1 - np.tanh(grid_u) ** 2 + EPS_TANH)
    density = np.exp(base - corr)
    total = simpson(density, x=grid_a)
    assert total == pytest.approx(1.0, abs=0.01)
    # and the sampler lands inside the box
    assert np.all(np.abs(a) < 1)


def test_reparameterization_matches_density_ks(rng):
    mu, ls = 0.3, -0.2
    dist = PolicyDistParams(np.array([mu]), np.array([ls]))
    n = 100_000
    noise = rng.standard_normal((n, 1))
    actions, _ = policy_sample(dist, noise)
    std = np.exp(ls)

    def cdf(x):
        return stats.norm.cdf((np.arctanh(x) - mu) / std)

    result = stats.kstest(actions[:, 0], cdf)
    assert result.pvalue > 0.01


def test_sample_value_mean_draw():
    dist = ValueDistParams(3.7, 0.9)
    assert sample_value(dist, 0.0) == 3.7


def test_sample_value_clt_bounds(rng):
    dist = ValueDistParams(-2.0, 1.5)
    noises = rng.standard_normal(16)
    for z in noises:
        assert sample_value(dist, z) == dist.q + dist.sigma * z
    n = 1_000_000
    draws = dist.q + dist.sigma * rng.standard_normal(n)
    assert abs(np.mean(draws) - dist.q) < 3 * dist.sigma / 1000
    assert abs(np.std(draws) - dist.sigma) / dist.sigma < 0.01


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 3), (128, 1), (128, 3)])
def test_fused_sample_logp_is_policy_logprob_bit_for_bit(rng, shape):
    # log_std at both clamps and in between; |u| past 19 saturates tanh to 1.0
    mu = rng.choice([-40.0, -19.5, -1.0, 0.0, 0.3, 19.5, 40.0], size=shape)
    log_std = rng.choice([LOG_STD_MIN, -3.0, 0.0, LOG_STD_MAX], size=shape)
    mu.flat[0], log_std.flat[0], log_std.flat[-1] = 40.0, LOG_STD_MIN, LOG_STD_MAX
    noise = rng.standard_normal(shape)
    dist = PolicyDistParams(mu, log_std)
    a, logp = policy_sample(dist, noise)
    u = mu + np.exp(log_std) * noise
    assert np.abs(u.flat[0]) > 19
    want = policy_logprob(dist, u)
    assert type(logp) is type(want)
    assert np.array_equal(logp, want)
    assert np.array_equal(a, np.tanh(u).clip(-np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)))
