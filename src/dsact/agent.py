"""Agent assembly and checkpoint serialization.

A checkpoint (format 2) is one uncompressed zip in ``.npz`` form. Its
first member, ``header.json``, is UTF-8 JSON holding state only: the
config echo, the env block (name, obs_dim, act_dim), the iteration, the
temperature alpha, each critic's b and omega, and the Adam step counts;
each value loads under `config.check_number`'s rule (the iteration and
Adam steps integers >= 0, obs_dim/act_dim >= 1, alpha a positive real,
b and omega two reals >= 0), never truncated. Every other
member is one float64 ``.npy`` vector: a network's flat parameter
buffer (``actor``, ``actor_target``, ``critic1``, ``critic2``,
``critic1_target``, ``critic2_target``) or an Adam moment buffer
(``adam.<network>.m`` / ``.v`` for ``actor``, ``critic1`` and
``critic2``). Raw float64 keeps round trips bit-exact, and the fixed
member order and zip timestamps make a re-save of a loaded agent
byte-identical.

Nothing else is stored because it follows from what is: each network's
layout from the config echo's hidden sizes and the env block's dims
(`actor_sizes`, `critic_sizes`; GELU on every layer but the last), as
`build_agent` does; the env step count from the iteration; whether a
critic's b and omega have been seeded from its Adam step count. An echo
that contradicts the buffers fails the buffer length check, and one
whose env has other dims than the env block fails the dims check. Keys
a header does not need, such as the network shapes, the target entropy,
the env step count and the per-critic stats flags earlier writers
stored, are ignored. JSON (format 1) checkpoints are refused.
"""

from __future__ import annotations

import contextlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .actor import actor_sizes
from .config import ConfigError, RunConfig, check_number, config_from_dict
from .critic import CriticPairState, critic_sizes, init_critic_pair
from .environments import BanditChainEnv, EnvSpec, PendulumEnv, PointRobotEnv, make_env
from .harness_util import write_atomic
from .numerics import AdamState, Layout, ParamSet, init_mlp

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
    alpha: float
    iteration: int = 0


def build_agent(cfg: RunConfig, env_spec: EnvSpec, rngs: dict) -> AgentState:
    """Fresh networks; rngs carries the named init streams."""
    phi = init_mlp(rngs["actor_init"], actor_sizes(env_spec.obs_dim, env_spec.act_dim, cfg.hidden_actor))
    critics = init_critic_pair(
        (rngs["critic1_init"], rngs["critic2_init"]),
        env_spec.obs_dim,
        env_spec.act_dim,
        list(cfg.hidden_critic),
    )
    return AgentState(
        phi=phi,
        phi_bar=phi.copy(),
        adam_actor=AdamState(np.zeros(phi.flat.shape), np.zeros(phi.flat.shape)),
        critics=critics,
        alpha=float(cfg.alpha_init),  # as the loader reads it, so a re-save keeps the bytes
    )


def _zip_member(name: str) -> zipfile.ZipInfo:
    return zipfile.ZipInfo(name, date_time=_ZIP_TIME)


def save_checkpoint(path: str | Path, agent: AgentState, cfg: RunConfig, env_spec: EnvSpec) -> None:
    """Write the agent to exactly ``path``, atomically."""
    critics = agent.critics
    nets = (agent.phi, agent.phi_bar, *critics.theta, *critics.theta_bar)
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
        "alpha": agent.alpha,
        "b": list(critics.b),
        "omega": list(critics.omega),
        "adam_steps": {name: state.step for name, state in adams.items()},
    }
    buffers = {name: net.flat for name, net in zip(NETWORKS, nets, strict=True)}
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


def _field(doc: dict, *path: str, kind: str | None = None, **bound):
    """doc[path[0]][path[1]]...; a missing key raises a ConfigError naming
    it. Given a ``kind``, the value must pass `check_number`'s rule."""
    node = doc
    for depth, key in enumerate(path):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"checkpoint lacks {_where(path[: depth + 1])}")
        node = node[key]
    return node if kind is None else check_number(f"checkpoint {_where(path)}", node, kind, **bound)


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


@contextlib.contextmanager
def _open(path: Path):
    """The checkpoint as an open NpzFile. The file is opened here, not by
    np.load, so it closes on leaving even when np.load cannot parse it."""
    try:
        f = path.open("rb")
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    with f:
        try:
            json_like = f.read(1) == b"{"
            f.seek(0)
            npz = None if json_like else np.load(f, allow_pickle=False)
        except _READ_ERRORS as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
        if json_like:
            raise ConfigError(f"checkpoint {path} is JSON (format 1); JSON checkpoints are no longer read")
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ConfigError(f"checkpoint {path} is a single .npy array, not an .npz archive")
        with npz:
            yield npz


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


def load_checkpoint(path: str | Path) -> tuple[AgentState, RunConfig, PendulumEnv | PointRobotEnv | BanditChainEnv]:
    """The stored run as (agent, config echo, env), the env built once
    from the echo. A file that does not hold a complete, consistently
    shaped agent raises a ConfigError naming the file and the member; an
    echoed env whose dims differ from the env block, one naming both."""
    path = Path(path)
    with _open(path) as npz:
        try:
            header = _header(npz)
            cfg_echo = _field(header, "config")
            if not isinstance(cfg_echo, dict):
                raise ConfigError("checkpoint 'config' must be an object")
            cfg = config_from_dict(cfg_echo)
            obs_dim, act_dim = (_field(header, "env", key, kind="int", least=1) for key in ("obs_dim", "act_dim"))
            actor = Layout.chain(actor_sizes(obs_dim, act_dim, cfg.hidden_actor))
            critic = Layout.chain(critic_sizes(obs_dim, act_dim, cfg.hidden_critic))
            adam_steps = {name: _field(header, "adam_steps", name, kind="int", least=0) for name in ADAM_NETWORKS}
            pairs = {}  # b and omega, one per critic
            for key in ("b", "omega"):
                values = _field(header, key)
                if not isinstance(values, list) or len(values) != 2:
                    raise ConfigError(f"checkpoint {_where([key])} must be 2 numbers, got {values!r}")
                pairs[key] = [
                    check_number(f"checkpoint {_where([key, i])}", v, "float", least=0) for i, v in enumerate(values)
                ]
            alpha = _field(header, "alpha", kind="float", positive=True)
            iteration = _field(header, "iteration", kind="int", least=0)
        except ConfigError as exc:
            raise ConfigError(f"{exc} ({path}, member {HEADER!r})") from exc

        nets = {
            name: ParamSet(_buffer(npz, path, name, layout), layout)
            for name, layout in zip(NETWORKS, (actor, actor, critic, critic, critic, critic), strict=True)
        }
        adams = {}
        for name in ADAM_NETWORKS:
            # the moments are the loaded buffers themselves, not copies
            m, v = (_buffer(npz, path, f"adam.{name}.{k}", nets[name].layout) for k in "mv")
            adams[name] = AdamState(m, v, adam_steps[name])

    env = make_env(cfg.env, cfg.env_overrides)
    if (env.spec.obs_dim, env.spec.act_dim) != (obs_dim, act_dim):
        raise ConfigError(
            f"env {env.spec.name!r} dims (obs_dim, act_dim) = ({env.spec.obs_dim}, {env.spec.act_dim}) "
            f"do not match checkpoint {path} ({obs_dim}, {act_dim})"
        )

    critics = CriticPairState(
        theta=(nets["critic1"], nets["critic2"]),
        theta_bar=(nets["critic1_target"], nets["critic2_target"]),
        adam=(adams["critic1"], adams["critic2"]),
        b=pairs["b"],
        omega=pairs["omega"],
    )
    agent = AgentState(
        phi=nets["actor"],
        phi_bar=nets["actor_target"],
        adam_actor=adams["actor"],
        critics=critics,
        alpha=alpha,
        iteration=iteration,
    )
    return agent, cfg, env
