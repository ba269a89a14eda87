"""Agent assembly and checkpoint serialization.

A checkpoint is a flat JSON document: every array appears under a
dotted name in "params" as a row-major list with its shape recorded in
"shapes". Python's repr-based float serialization keeps round-trips
bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actor import Temperature
from .config import ConfigError, RunConfig, config_from_dict
from .critic import CriticPairState, init_critic_pair
from .environments import EnvSpec
from .numerics import AdamState, Layer, ParamSet, init_adam, init_mlp

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class AgentState:
    phi: ParamSet
    phi_bar: ParamSet
    adam_actor: AdamState
    critics: CriticPairState
    temperature: Temperature
    iteration: int = 0
    env_steps: int = 0


def build_agent(cfg: RunConfig, env_spec: EnvSpec, rngs: dict) -> AgentState:
    """Fresh networks; rngs carries the named init streams."""
    actor_sizes = [env_spec.obs_dim, *cfg.hidden_actor, 2 * env_spec.act_dim]
    phi = init_mlp(rngs["actor_init"], actor_sizes)
    critics = init_critic_pair(
        (rngs["critic1_init"], rngs["critic2_init"]),
        env_spec.obs_dim,
        env_spec.act_dim,
        list(cfg.hidden_critic),
    )
    target_entropy = (
        -float(env_spec.act_dim) if cfg.target_entropy is None else cfg.target_entropy
    )
    return AgentState(
        phi=phi,
        phi_bar=phi.copy(),
        adam_actor=init_adam(phi),
        critics=critics,
        temperature=Temperature(cfg.alpha_init, target_entropy, cfg.lr_alpha),
    )


def _put_params(doc: dict, name: str, params: ParamSet) -> None:
    for i, layer in enumerate(params.layers):
        for part, arr in (("weight", layer.weight), ("bias", layer.bias)):
            key = f"{name}.l{i}.{part}"
            doc["shapes"][key] = list(arr.shape)
            doc["params"][key] = arr.reshape(-1).tolist()
    doc["activations"][name] = [layer.activation for layer in params.layers]


def _where(path) -> str:
    return "".join(f"[{k!r}]" for k in path)


def _field(doc: dict, *path: str):
    """doc[path[0]][path[1]]...; a missing key raises a ConfigError naming it."""
    node = doc
    for depth, key in enumerate(path):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"checkpoint lacks {_where(path[: depth + 1])}")
        node = node[key]
    return node


def _number(doc: dict, *path: str, kind=float):
    value = _field(doc, *path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"checkpoint {_where(path)} must be a number, got {value!r}")
    return kind(value)


def _pair(doc: dict, key: str, kind) -> list:
    """One value per critic."""
    values = _field(doc, key)
    if not isinstance(values, list) or len(values) != 2 or not all(isinstance(v, (int, float)) for v in values):
        raise ConfigError(f"checkpoint {_where([key])} must be 2 numbers, got {values!r}")
    return [kind(v) for v in values]


def _get_array(doc: dict, key: str) -> np.ndarray:
    shape, values = _field(doc, "shapes", key), _field(doc, "params", key)
    try:
        shape = tuple(int(d) for d in shape)
        flat = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint array {key!r} is malformed: {exc}") from exc
    size = math.prod(shape)
    if flat.ndim != 1 or flat.size != size or min(shape, default=0) < 0:
        raise ConfigError(
            f"checkpoint array {key!r} holds {flat.size} values; its shape {list(shape)} needs {size}"
        )
    return flat.reshape(shape)


def _get_params(doc: dict, name: str, n_in: int, n_out: int) -> ParamSet:
    """A network whose layers chain from n_in inputs to n_out outputs."""
    acts = _field(doc, "activations", name)
    if not isinstance(acts, list) or not acts or not all(a in ("gelu", "identity") for a in acts):
        raise ConfigError(f"checkpoint activations for {name!r} must be a non-empty list of gelu/identity")
    layers = []
    width = n_in
    for i, act in enumerate(acts):
        weight = _get_array(doc, f"{name}.l{i}.weight")
        bias = _get_array(doc, f"{name}.l{i}.bias")
        if weight.ndim != 2 or weight.shape[1] != width or bias.shape != weight.shape[:1]:
            raise ConfigError(
                f"checkpoint layer {name}.l{i} (weight {list(weight.shape)}, bias {list(bias.shape)}) "
                f"does not take {width} inputs"
            )
        width = weight.shape[0]
        layers.append(Layer(weight, bias, act))
    if width != n_out:
        raise ConfigError(f"checkpoint network {name!r} has {width} outputs, expected {n_out}")
    return ParamSet(layers)


def _put_adam(doc: dict, name: str, state: AdamState) -> None:
    for i in range(len(state.m_weights)):
        for part, arr in (
            ("m_weight", state.m_weights[i]),
            ("v_weight", state.v_weights[i]),
            ("m_bias", state.m_biases[i]),
            ("v_bias", state.v_biases[i]),
        ):
            key = f"adam.{name}.l{i}.{part}"
            doc["shapes"][key] = list(arr.shape)
            doc["params"][key] = arr.reshape(-1).tolist()
    doc["adam_steps"][name] = state.step


def _get_adam(doc: dict, name: str, params: ParamSet) -> AdamState:
    state = init_adam(params)
    for i, layer in enumerate(params.layers):
        for part, dest, like in (
            ("m_weight", state.m_weights, layer.weight),
            ("v_weight", state.v_weights, layer.weight),
            ("m_bias", state.m_biases, layer.bias),
            ("v_bias", state.v_biases, layer.bias),
        ):
            key = f"adam.{name}.l{i}.{part}"
            arr = _get_array(doc, key)
            if arr.shape != like.shape:
                raise ConfigError(
                    f"checkpoint array {key!r} has shape {list(arr.shape)}, "
                    f"its parameter {list(like.shape)}"
                )
            dest[i][...] = arr  # into the view, so the moments stay in the state's buffers
    state.step = _number(doc, "adam_steps", name, kind=int)
    return state


def save_checkpoint(path: str | Path, agent: AgentState, cfg: RunConfig, env_spec: EnvSpec) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": cfg.to_jsonable(),
        "env": {
            "name": env_spec.name,
            "obs_dim": env_spec.obs_dim,
            "act_dim": env_spec.act_dim,
        },
        "iteration": agent.iteration,
        "env_steps": agent.env_steps,
        "alpha": agent.temperature.alpha,
        "target_entropy": agent.temperature.target_entropy,
        "b": list(agent.critics.b),
        "omega": list(agent.critics.omega),
        "stats_initialized": list(agent.critics.stats_initialized),
        "shapes": {},
        "params": {},
        "activations": {},
        "adam_steps": {},
    }
    _put_params(doc, "actor", agent.phi)
    _put_params(doc, "actor_target", agent.phi_bar)
    for i in range(2):
        _put_params(doc, f"critic{i + 1}", agent.critics.theta[i])
        _put_params(doc, f"critic{i + 1}_target", agent.critics.theta_bar[i])
        _put_adam(doc, f"critic{i + 1}", agent.critics.adam[i])
    _put_adam(doc, "actor", agent.adam_actor)
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path: str | Path) -> tuple[AgentState, dict]:
    """Rebuild the agent; returns (agent, raw document) so callers can
    read the config echo and env block. A document that does not hold a
    complete, consistently shaped agent raises ConfigError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"checkpoint {path} must hold a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint format {doc.get('format_version')!r}"
        )
    cfg_echo = _field(doc, "config")
    if not isinstance(cfg_echo, dict):
        raise ConfigError("checkpoint 'config' must be an object")
    lr_alpha = config_from_dict(cfg_echo).lr_alpha
    obs_dim = _number(doc, "env", "obs_dim", kind=int)
    act_dim = _number(doc, "env", "act_dim", kind=int)

    def critic(name: str) -> ParamSet:
        return _get_params(doc, name, obs_dim + act_dim, 2)

    phi = _get_params(doc, "actor", obs_dim, 2 * act_dim)
    thetas = tuple(critic(f"critic{i + 1}") for i in range(2))
    critics = CriticPairState(
        theta=thetas,
        theta_bar=tuple(critic(f"critic{i + 1}_target") for i in range(2)),
        adam=tuple(_get_adam(doc, f"critic{i + 1}", thetas[i]) for i in range(2)),
        b=_pair(doc, "b", float),
        omega=_pair(doc, "omega", float),
        stats_initialized=_pair(doc, "stats_initialized", bool),
    )
    agent = AgentState(
        phi=phi,
        phi_bar=_get_params(doc, "actor_target", obs_dim, 2 * act_dim),
        adam_actor=_get_adam(doc, "actor", phi),
        critics=critics,
        temperature=Temperature(
            _number(doc, "alpha"),
            _number(doc, "target_entropy"),
            lr_alpha,
        ),
        iteration=_number(doc, "iteration", kind=int),
        env_steps=_number(doc, "env_steps", kind=int),
    )
    return agent, doc
