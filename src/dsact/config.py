"""Run configuration: every training knob in one dataclass.

Defaults follow the shared hyperparameter table (Adam betas, learning
rates 1e-4/1e-4/3e-4, gamma 0.99, tau 0.005, policy update interval 2,
20 samples per iteration, warm size 1e4, buffer 1e6, xi 3, epsilon and
epsilon_omega 0.1, reward scale 1, three 256-unit hidden layers).
Configs load from JSON with unknown keys rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import FAMILIES, VariantConfig

DEFAULT_SEEDS = [12345, 22345, 32345, 42345, 52345]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    algorithm: str = "dsact"
    # refinement toggles; None means the family default
    expected_value_substitution: bool | None = None
    twin_distributions: bool | None = None
    variance_adjustment: bool | None = None
    fixed_boundary_b: float = 20.0

    env: str = "pendulum"
    env_overrides: dict = field(default_factory=dict)

    gamma: float = 0.99
    tau: float = 0.005
    lr_critic: float = 1e-4
    lr_actor: float = 1e-4
    lr_alpha: float = 3e-4
    target_entropy: float | None = None  # None -> -act_dim
    alpha_init: float = 1.0
    xi: float = 3.0
    eps: float = 0.1
    eps_omega: float = 0.1
    policy_delay: int = 2

    samples_per_iteration: int = 20
    updates_per_iteration: int | None = None  # None -> one update per collected sample
    warm_size: int = 10_000
    buffer_capacity: int = 1_000_000
    batch_size: int = 256
    total_iterations: int = 1000
    eval_interval: int = 50
    eval_episodes: int = 5
    checkpoint_interval: int | None = None
    stop_return: float | None = None  # early stop once a deterministic eval reaches this

    hidden_actor: tuple[int, ...] = (256, 256, 256)
    hidden_critic: tuple[int, ...] = (256, 256, 256)

    seed: int = DEFAULT_SEEDS[0]
    reward_scale: float = 1.0
    out_dir: str = "runs/latest"

    def validate(self) -> "RunConfig":
        # NaN and +-inf slip past every ordered comparison below (JSON
        # reads them from the NaN/Infinity literals), so reject them first
        if not isinstance(self.env_overrides, dict):
            raise ConfigError("env_overrides must be an object")
        values = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        values += [(f"env_overrides[{k!r}]", v) for k, v in self.env_overrides.items()]
        for name, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.algorithm not in FAMILIES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {FAMILIES}")
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")
        if not 0 < self.tau <= 1:
            raise ConfigError("tau must lie in (0, 1]")
        for name in ("lr_critic", "lr_actor", "lr_alpha", "alpha_init", "xi", "reward_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("eps", "eps_omega"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in (
            "policy_delay",
            "samples_per_iteration",
            "warm_size",
            "buffer_capacity",
            "batch_size",
            "eval_interval",
            "eval_episodes",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.total_iterations < 0:
            raise ConfigError("total_iterations must be >= 0")
        if self.updates_per_iteration is not None and self.updates_per_iteration < 0:
            raise ConfigError("updates_per_iteration must be >= 0")
        if self.fixed_boundary_b <= 0:
            raise ConfigError("fixed_boundary_b must be positive")
        if not all(h >= 1 for h in (*self.hidden_actor, *self.hidden_critic)):
            raise ConfigError("hidden layer sizes must be >= 1")
        if self.algorithm == "dsacv1" and any(
            f is True
            for f in (
                self.expected_value_substitution,
                self.twin_distributions,
                self.variance_adjustment,
            )
        ):
            raise ConfigError("dsacv1 does not accept refinement flags")
        return self

    @property
    def updates(self) -> int:
        return (
            self.samples_per_iteration
            if self.updates_per_iteration is None
            else self.updates_per_iteration
        )

    def variant(self) -> VariantConfig:
        flags = {}
        for name in ("expected_value_substitution", "twin_distributions", "variance_adjustment"):
            v = getattr(self, name)
            if v is not None:
                flags[name] = v
        return VariantConfig.from_family(
            self.algorithm, fixed_boundary_b=self.fixed_boundary_b, **flags
        ).validate()

    def to_jsonable(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["hidden_actor"] = list(self.hidden_actor)
        doc["hidden_critic"] = list(self.hidden_critic)
        return doc


def config_from_dict(doc: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    try:
        for key in ("hidden_actor", "hidden_critic"):
            if key in kwargs:
                kwargs[key] = tuple(int(h) for h in kwargs[key])
        cfg = RunConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(doc)
