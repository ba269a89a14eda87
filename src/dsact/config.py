"""Run configuration: every training knob in one dataclass.

Defaults follow the shared hyperparameter table (Adam betas, learning
rates 1e-4/1e-4/3e-4, gamma 0.99, tau 0.005, policy update interval 2,
20 samples per iteration, warm size 1e4, buffer 1e6, xi 3, epsilon and
epsilon_omega 0.1, reward scale 1, three 256-unit hidden layers).
Configs load from JSON with unknown keys rejected. The critic kernel
is resolved once, by `RunConfig.kernel`, from the family's base kernel
and the refinement flags the config sets explicitly.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import FAMILIES, REFINEMENT_FLAGS
from .critic import KernelSpec
from .environments import ENV_BUILDERS

DEFAULT_SEEDS = [12345, 22345, 32345, 42345, 52345]

# the least value an env constructor takes for each bounded parameter
_ENV_MINIMA = {"max_episode_steps": 1, "noise_std": 0}


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
        if not isinstance(self.env, str) or self.env not in ENV_BUILDERS:
            raise ConfigError(f"unknown env {self.env!r}; choose from {sorted(ENV_BUILDERS)}")
        params = inspect.signature(ENV_BUILDERS[self.env]).parameters
        for key in self.env_overrides:
            if key not in params:
                raise ConfigError(
                    f"env_overrides[{key!r}] is not a {self.env} parameter; "
                    f"choose from {sorted(params)}"
                )
        # the ordered checks below need numbers; a bool is not one here. Fields
        # and env parameters follow their annotations, strings in both modules
        typed = [(f.name, f.type, getattr(self, f.name)) for f in dataclasses.fields(self)]
        typed += [(f"env_overrides[{k!r}]", params[k].annotation, v) for k, v in self.env_overrides.items()]
        for name, annotation, value in typed:
            kind = annotation.removesuffix(" | None")
            if kind not in ("int", "float") or (value is None and annotation != kind):
                continue
            wanted, noun = (numbers.Integral, "an integer") if kind == "int" else (numbers.Real, "a number")
            if isinstance(value, bool) or not isinstance(value, wanted):
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
        for key, least in _ENV_MINIMA.items():
            if self.env_overrides.get(key, least) < least:
                raise ConfigError(f"env_overrides[{key!r}] must be >= {least}, got {self.env_overrides[key]!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.kernel()
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
        # train updates once the buffer holds warm_size rows, which a smaller ring never does
        if self.warm_size > self.buffer_capacity:
            raise ConfigError(
                f"warm_size {self.warm_size} exceeds buffer_capacity {self.buffer_capacity}; "
                "training would never update"
            )
        if self.total_iterations < 0:
            raise ConfigError("total_iterations must be >= 0")
        if self.updates_per_iteration is not None and self.updates_per_iteration < 0:
            raise ConfigError("updates_per_iteration must be >= 0")
        # train checkpoints when iteration % interval == 0: 0 would never fire, -2 every other time
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigError(f"checkpoint_interval must be null or >= 1, got {self.checkpoint_interval}")
        if self.fixed_boundary_b <= 0:
            raise ConfigError("fixed_boundary_b must be positive")
        if not all(h >= 1 for h in (*self.hidden_actor, *self.hidden_critic)):
            raise ConfigError("hidden layer sizes must be >= 1")
        return self

    @property
    def updates(self) -> int:
        return (
            self.samples_per_iteration
            if self.updates_per_iteration is None
            else self.updates_per_iteration
        )

    def kernel(self) -> KernelSpec:
        """The run's critic kernel: the family's base kernel with each
        explicitly set refinement flag applied. A flag value the family
        cannot honour is an error, not silently dropped."""
        if not isinstance(self.algorithm, str) or self.algorithm not in FAMILIES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {list(FAMILIES)}")
        base, toggles = FAMILIES[self.algorithm]
        flags = {name: getattr(self, name) for name in REFINEMENT_FLAGS if getattr(self, name) is not None}
        for name, value in flags.items():
            if name not in toggles and value != getattr(base, name):
                raise ConfigError(
                    f"{self.algorithm} does not accept {name}={value!r}; "
                    f"its kernel has {name}={getattr(base, name)!r}"
                )
        return dataclasses.replace(base, fixed_b=self.fixed_boundary_b, **flags)

    # the benchmark's own tests (perfbench/test_tracer.py) read the
    # active critics through this earlier name
    variant = kernel

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
    for key in ("hidden_actor", "hidden_critic"):
        if key in kwargs:
            sizes = kwargs[key]
            # int(h) would train 8.7 as 8, true as 1 and "8" as 8
            if not isinstance(sizes, list) or not all(
                isinstance(h, numbers.Integral) and not isinstance(h, bool) for h in sizes
            ):
                raise ConfigError(f"{key} must be a list of integers, got {sizes!r}")
            kwargs[key] = tuple(int(h) for h in sizes)
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
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
