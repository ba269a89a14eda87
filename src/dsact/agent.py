"""Agent assembly and checkpoint serialization.

A checkpoint (format 2) is one uncompressed zip in ``.npz`` form. Its
first member, ``header.json``, is UTF-8 JSON: the config echo, the env
block, the counters, the temperature, each critic's b / omega / stats
flag, the Adam step counts, and each network's layer shapes and
activations. Every other member is one float64 ``.npy`` vector: a
network's flat parameter buffer (``actor``, ``actor_target``,
``critic1``, ``critic2``, ``critic1_target``, ``critic2_target``) or an
Adam moment buffer (``adam.<network>.m`` / ``.v`` for ``actor``,
``critic1`` and ``critic2``). Raw float64 keeps round trips bit-exact,
and the fixed member order and zip timestamps make a re-save of a
loaded agent byte-identical. JSON (format 1) checkpoints are refused.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actor import Temperature
from .config import ConfigError, RunConfig, config_from_dict
from .critic import CriticPairState, init_critic_pair
from .environments import EnvSpec
from .harness_util import write_atomic
from .numerics import AdamState, Layout, ParamSet, init_adam, init_mlp

CHECKPOINT_FORMAT_VERSION = 2
HEADER = "header.json"
NETWORKS = ("actor", "actor_target", "critic1", "critic2", "critic1_target", "critic2_target")
ADAM_NETWORKS = ("actor", "critic1", "critic2")
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)  # the zip epoch, so saves do not depend on the clock
# what reading a damaged or foreign file can raise (a missing member is a KeyError)
_READ_ERRORS = (KeyError, OSError, ValueError, EOFError, zipfile.BadZipFile)


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


def _zip_member(name: str) -> zipfile.ZipInfo:
    return zipfile.ZipInfo(name, date_time=_ZIP_TIME)


def save_checkpoint(path: str | Path, agent: AgentState, cfg: RunConfig, env_spec: EnvSpec) -> None:
    """Write the agent to exactly ``path``, atomically."""
    critics = agent.critics
    nets = dict(zip(NETWORKS, (agent.phi, agent.phi_bar, *critics.theta, *critics.theta_bar), strict=True))
    adams = dict(zip(ADAM_NETWORKS, (agent.adam_actor, *critics.adam), strict=True))
    header = {
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
        "b": list(critics.b),
        "omega": list(critics.omega),
        "stats_initialized": list(critics.stats_initialized),
        "adam_steps": {name: state.step for name, state in adams.items()},
        "networks": {
            name: {
                "shapes": [list(w_shape) for w_shape, _ in net.layout.shapes],
                "activations": list(net.activations),
            }
            for name, net in nets.items()
        },
    }
    buffers = {name: net.flat for name, net in nets.items()}
    for name, state in adams.items():
        buffers[f"adam.{name}.m"], buffers[f"adam.{name}.v"] = state.m, state.v

    def write(f) -> None:
        with zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr(_zip_member(HEADER), json.dumps(header).encode())
            for name, flat in buffers.items():
                with zf.open(_zip_member(f"{name}.npy"), "w") as member:
                    np.lib.format.write_array(member, flat, allow_pickle=False)

    write_atomic(path, write)


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


def _layout(header: dict, name: str, n_in: int, n_out: int) -> tuple[Layout, tuple[str, ...]]:
    """The layout and activations of a network whose layers chain from
    n_in inputs to n_out outputs."""
    shapes = _field(header, "networks", name, "shapes")
    acts = _field(header, "networks", name, "activations")
    if not isinstance(acts, list) or not acts or not all(a in ("gelu", "identity") for a in acts):
        raise ConfigError(f"checkpoint activations for {name!r} must be a non-empty list of gelu/identity")
    if not (
        isinstance(shapes, list)
        and len(shapes) == len(acts)
        and all(isinstance(s, list) and len(s) == 2 and all(type(d) is int and d > 0 for d in s) for s in shapes)
    ):
        raise ConfigError(f"checkpoint shapes for {name!r} must be one [out, in] pair of positive ints per layer")
    width = n_in
    for i, (n_out_i, n_in_i) in enumerate(shapes):
        if n_in_i != width:
            raise ConfigError(f"checkpoint layer {name}.l{i} takes {n_in_i} inputs, not {width}")
        width = n_out_i
    if width != n_out:
        raise ConfigError(f"checkpoint network {name!r} has {width} outputs, expected {n_out}")
    return Layout(((o, i), (o,)) for o, i in shapes), tuple(acts)


def _buffer(npz, path: Path, name: str, layout: Layout) -> np.ndarray:
    """The member ``name`` as a float64 vector of the layout's size."""
    where = f"({path}, member {name!r})"
    try:
        flat = npz[name]
    except _READ_ERRORS as exc:
        raise ConfigError(f"checkpoint member cannot be read: {exc} {where}") from exc
    if flat.dtype != np.float64 or flat.shape != (layout.size,):
        raise ConfigError(
            f"checkpoint buffer is {flat.dtype} {list(flat.shape)}; its layout needs float64 [{layout.size}] {where}"
        )
    return flat


def _open(path: Path):
    try:
        with path.open("rb") as f:
            json_like = f.read(1) == b"{"
        if not json_like:
            npz = np.load(path, allow_pickle=False)
    except _READ_ERRORS as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    if json_like:
        raise ConfigError(f"checkpoint {path} is JSON (format 1); JSON checkpoints are no longer read")
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ConfigError(f"checkpoint {path} is a single .npy array, not an .npz archive")
    return npz


def _header(npz) -> dict:
    try:
        header = json.loads(npz[HEADER])
    except _READ_ERRORS as exc:
        raise ConfigError(f"checkpoint header cannot be read: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError("checkpoint header must hold a JSON object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {header.get('format_version')!r}")
    return header


def load_checkpoint(path: str | Path) -> tuple[AgentState, dict]:
    """Rebuild the agent; returns (agent, header) so callers can read the
    config echo and env block. A file that does not hold a complete,
    consistently shaped agent raises a ConfigError naming the file and
    the member."""
    path = Path(path)
    with _open(path) as npz:
        try:
            header = _header(npz)
            cfg_echo = _field(header, "config")
            if not isinstance(cfg_echo, dict):
                raise ConfigError("checkpoint 'config' must be an object")
            lr_alpha = config_from_dict(cfg_echo).lr_alpha
            obs_dim = _number(header, "env", "obs_dim", kind=int)
            act_dim = _number(header, "env", "act_dim", kind=int)
            layouts = {
                name: _layout(header, name, obs_dim, 2 * act_dim)
                if name.startswith("actor")
                else _layout(header, name, obs_dim + act_dim, 2)
                for name in NETWORKS
            }
            adam_steps = {name: _number(header, "adam_steps", name, kind=int) for name in ADAM_NETWORKS}
            b, omega = _pair(header, "b", float), _pair(header, "omega", float)
            stats_initialized = _pair(header, "stats_initialized", bool)
            temperature = Temperature(_number(header, "alpha"), _number(header, "target_entropy"), lr_alpha)
            counters = {key: _number(header, key, kind=int) for key in ("iteration", "env_steps")}
        except ConfigError as exc:
            raise ConfigError(f"{exc} ({path}, member {HEADER!r})") from exc

        nets = {
            name: ParamSet.from_flat(_buffer(npz, path, name, layout), layout, acts)
            for name, (layout, acts) in layouts.items()
        }
        adams = {}
        for name in ADAM_NETWORKS:
            # the moments are the loaded buffers themselves, not copies
            state = adams[name] = AdamState(nets[name].layout, step=adam_steps[name])
            state.m, state.v = (_buffer(npz, path, f"adam.{name}.{k}", state.layout) for k in "mv")

    critics = CriticPairState(
        theta=(nets["critic1"], nets["critic2"]),
        theta_bar=(nets["critic1_target"], nets["critic2_target"]),
        adam=(adams["critic1"], adams["critic2"]),
        b=b,
        omega=omega,
        stats_initialized=stats_initialized,
    )
    agent = AgentState(
        phi=nets["actor"],
        phi_bar=nets["actor_target"],
        adam_actor=adams["actor"],
        critics=critics,
        temperature=temperature,
        **counters,
    )
    return agent, header
