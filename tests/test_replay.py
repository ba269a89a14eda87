import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dsact.replay import ReplayBuffer, Transition


def tr(tag: float, dim=2, done=False) -> Transition:
    return Transition(
        s=np.full(dim, tag),
        a=np.array([tag]),
        r=float(tag),
        s_next=np.full(dim, tag + 0.5),
        done=done,
    )


def test_push_counts():
    buf = ReplayBuffer(capacity=10)
    assert buf.count == 0
    buf.push(tr(1))
    assert buf.count == 1


def test_fifo_eviction():
    buf = ReplayBuffer(capacity=2)
    for k in (1, 2, 3):
        buf.push(tr(k))
    held = buf.contents()
    assert sorted(held.r) == [2.0, 3.0]
    assert buf.count == 2
    # every field of a row moves together
    for j in range(2):
        assert np.array_equal(held.s[j], np.full(2, held.r[j]))
        assert np.array_equal(held.s_next[j], np.full(2, held.r[j] + 0.5))
        assert held.a[j, 0] == held.r[j]


def test_push_rejects_mismatched_dims():
    buf = ReplayBuffer(capacity=4)
    buf.push(tr(1, dim=2))
    with pytest.raises(ValueError):
        buf.push(tr(2, dim=3))
    bad_action = tr(3)
    bad_action.a = np.array([3.0, 3.0])
    with pytest.raises(ValueError):
        buf.push(bad_action)
    assert buf.count == 1


def test_default_warm_size():
    from dsact.config import RunConfig

    cfg = RunConfig()
    assert cfg.warm_size == 10_000
    assert cfg.buffer_capacity == 1_000_000


def test_sample_degenerate_uniform():
    buf = ReplayBuffer(capacity=4)
    buf.push(tr(7))
    out = buf.sample(3, np.random.default_rng(0))
    assert len(out) == 3
    assert np.all(out.r == 7.0)


def test_sample_refuses_empty():
    buf = ReplayBuffer(capacity=4)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))
    buf.push(tr(1))
    with pytest.raises(ValueError):
        buf.sample(0, np.random.default_rng(0))


def test_sample_deterministic_by_seed():
    buf = ReplayBuffer(capacity=32)
    for k in range(32):
        buf.push(tr(k))
    a = buf.sample(16, np.random.default_rng(5))
    b = buf.sample(16, np.random.default_rng(5))
    for field in ("s", "a", "r", "s_next", "done"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_sample_arrays_contiguous_float64():
    buf = ReplayBuffer(capacity=8)
    for k in range(5):
        buf.push(tr(k, dim=3, done=k == 2))
    out = buf.sample(6, np.random.default_rng(1))
    shapes = {"s": (6, 3), "a": (6, 1), "r": (6,), "s_next": (6, 3), "done": (6,)}
    for field, shape in shapes.items():
        arr = getattr(out, field)
        assert arr.shape == shape
        assert arr.flags["C_CONTIGUOUS"]
        assert arr.dtype == (bool if field == "done" else np.float64)
    assert np.array_equal(out.done, out.r == 2.0)


def test_sample_consumes_one_integers_draw():
    buf = ReplayBuffer(capacity=16)
    for k in range(11):
        buf.push(tr(k))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    out = buf.sample(7, rng)
    idx = twin.integers(0, 11, size=7)
    assert np.array_equal(out.r, idx.astype(np.float64))
    assert rng.integers(0, 2**63) == twin.integers(0, 2**63)
    assert rng.standard_normal() == twin.standard_normal()


def test_sample_frequency_uniform():
    buf = ReplayBuffer(capacity=10)
    for k in range(10):
        buf.push(tr(k))
    rng = np.random.default_rng(42)
    n = 1_000_000
    counts = np.zeros(10)
    for _ in range(100):
        counts += np.bincount(buf.sample(10_000, rng).r.astype(int), minlength=10)
    freqs = counts / n
    assert counts.sum() == n
    assert np.all(np.abs(freqs - 0.1) < 0.003)
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.01


@given(
    ops=st.lists(st.integers(0, 999), min_size=1, max_size=60),
    cap=st.integers(1, 12),
)
@settings(max_examples=150)
def test_fifo_matches_reference_model(ops, cap):
    buf = ReplayBuffer(capacity=cap)
    model: list[float] = []
    for k in ops:
        buf.push(tr(float(k)))
        model.append(float(k))
        if len(model) > cap:
            model.pop(0)
        assert sorted(buf.contents().r) == sorted(model)
        assert buf.count == len(model)
