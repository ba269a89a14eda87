"""Run configuration: every training knob in one dataclass.

Defaults follow the shared hyperparameter table (Adam betas, learning
rates 1e-4/1e-4/3e-4, gamma 0.99, tau 0.005, policy update interval 2,
20 samples per iteration, warm size 1e4, buffer 1e6, xi 3, epsilon and
epsilon_omega 0.1, reward scale 1, three 256-unit hidden layers).
Configs load from JSON with unknown keys rejected. The critic kernel
is resolved once, by `RunConfig.kernel`, from the switches `FAMILIES`
pins for the algorithm and the refinement flags the config sets
explicitly; the update reads `fixed_boundary_b` from the config itself.

One rule, `check_number`, holds every number read from outside: each
numeric config field, hidden size and env override, each checkpoint
header value and the eval/bias counts and seed. An integer is a JSON
integer, a real any JSON number; neither is a bool, both are finite,
and each may have a least value or have to be positive. The checkpoint
header's iteration and Adam steps are integers >= 0, its obs_dim and
act_dim integers >= 1, its alpha a positive real (as `alpha_init` is),
and its b and omega two reals >= 0 each.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .critic import KernelSpec
from .environments import ENV_BUILDERS

DEFAULT_SEEDS = [12345, 22345, 32345, 42345, 52345]

# algorithm -> the KernelSpec switches it pins: the full twin-distribution
# kernel (dsact); the pre-refinement kernel with a random mean target and
# a fixed clip boundary (dsacv1, Duan et al., arXiv 2001.02811); SAC's
# mean-squared TD on twin minimum targets (Haarnoja et al., arXiv 1812.05905)
FAMILIES = {
    "dsact": {},
    "dsacv1": {"expected_value_substitution": False, "twin_distributions": False, "variance_adjustment": False},
    "sac": {"expected_value_substitution": True, "variance_adjustment": False, "distributional": False},
}

# the least value an env constructor takes for each bounded parameter
_ENV_MINIMA = {"max_episode_steps": 1, "noise_std": 0}

# the least value of each bounded numeric field, and the fields that must
# be positive; train checkpoints when iteration % checkpoint_interval == 0,
# so 0 would never fire and -2 every other time
_FIELD_MINIMA = {
    "seed": 0, "total_iterations": 0, "updates_per_iteration": 0, "eps": 0, "eps_omega": 0,
    "policy_delay": 1, "samples_per_iteration": 1, "warm_size": 1, "buffer_capacity": 1,
    "batch_size": 1, "eval_interval": 1, "eval_episodes": 1, "checkpoint_interval": 1,
}
_POSITIVE_FIELDS = {"lr_critic", "lr_actor", "lr_alpha", "alpha_init", "xi", "reward_scale", "fixed_boundary_b"}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def check_number(name: str, value, kind: str, least=None, positive: bool = False):
    """``value`` as a ``kind`` ("int" or "float") under the module's rule
    for a number from outside, a "float" returned as a float; else a
    ConfigError naming ``name`` and the value."""
    noun = "an integer" if kind == "int" else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    integral = isinstance(value, numbers.Integral)
    # NaN and +-inf slip past every ordered comparison (JSON reads them
    # from the NaN/Infinity literals); a real must also fit a float
    if not (integral and kind == "int") and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind == "int" and not integral:
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value if kind == "int" else float(value)


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
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if kind in ("int", "float") and (value is not None or f.type == kind):
                check_number(f.name, value, kind, _FIELD_MINIMA.get(f.name), f.name in _POSITIVE_FIELDS)
        for name in ("hidden_actor", "hidden_critic"):
            for i, h in enumerate(getattr(self, name)):
                check_number(f"{name}[{i}]", h, "int", least=1)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.env_overrides, dict):
            raise ConfigError("env_overrides must be an object")
        if not isinstance(self.env, str) or self.env not in ENV_BUILDERS:
            raise ConfigError(f"unknown env {self.env!r}; choose from {sorted(ENV_BUILDERS)}")
        # override values follow the env constructor's annotations, strings there too
        params = inspect.signature(ENV_BUILDERS[self.env]).parameters
        for key, value in self.env_overrides.items():
            if key not in params:
                raise ConfigError(
                    f"env_overrides[{key!r}] is not a {self.env} parameter; "
                    f"choose from {sorted(params)}"
                )
            check_number(f"env_overrides[{key!r}]", value, params[key].annotation, _ENV_MINIMA.get(key))
        self.kernel()
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")
        if not 0 < self.tau <= 1:
            raise ConfigError("tau must lie in (0, 1]")
        # train updates once the buffer holds warm_size rows, which a smaller ring never does
        if self.warm_size > self.buffer_capacity:
            raise ConfigError(
                f"warm_size {self.warm_size} exceeds buffer_capacity {self.buffer_capacity}; "
                "training would never update"
            )
        return self

    @property
    def updates(self) -> int:
        return (
            self.samples_per_iteration
            if self.updates_per_iteration is None
            else self.updates_per_iteration
        )

    def kernel(self) -> KernelSpec:
        """The run's critic kernel: the family's pinned switches with each
        explicitly set refinement flag applied. A flag value the family
        pins otherwise is an error, not silently dropped."""
        if not isinstance(self.algorithm, str) or self.algorithm not in FAMILIES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {list(FAMILIES)}")
        pinned = FAMILIES[self.algorithm]
        names = ("expected_value_substitution", "twin_distributions", "variance_adjustment")
        flags = {name: getattr(self, name) for name in names if getattr(self, name) is not None}
        for name, value in flags.items():
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true, false or null, got {value!r}")
            if pinned.get(name, value) != value:
                raise ConfigError(
                    f"{self.algorithm} does not accept {name}={value!r}; its kernel has {name}={pinned[name]!r}"
                )
        return KernelSpec(**{**pinned, **flags})

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
            # validate checks each size as is: int(h) would train 8.7 as 8, true as 1
            if not isinstance(kwargs[key], list):
                raise ConfigError(f"{key} must be a list of integers, got {kwargs[key]!r}")
            kwargs[key] = tuple(kwargs[key])
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(doc)
