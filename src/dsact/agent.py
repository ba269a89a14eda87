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

A load checks every member (its .npy header, its length and its zip
CRC-32) but holds only those it is asked to keep: a full load, for
tests, re-saves and resumes, keeps all of them; ``dsact eval`` keeps the
actor and ``dsact bias`` the actor and the two critics, so the target
networks and Adam moments (three quarters of the bytes) are read in
chunks and dropped.

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
MEMBERS = NETWORKS + tuple(f"adam.{name}.{k}" for name in ADAM_NETWORKS for k in "mv")
_CHUNK = 1 << 18  # bytes per read of a member's data (256 KiB)
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)  # the zip epoch, so saves do not depend on the clock
# what reading a damaged or foreign file can raise (a missing member is a KeyError)
_READ_ERRORS = (KeyError, OSError, ValueError, EOFError, zipfile.BadZipFile)


@dataclass
class AgentState:
    """An agent's networks, Adam moments, temperature and iteration. A
    checkpoint loaded with a ``keep`` that leaves a member out holds None
    where that buffer would sit: the network's ParamSet, or the AdamState's
    ``m`` or ``v``, never a placeholder array."""

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


def _buffer(zf: zipfile.ZipFile, path: Path, name: str, layout: Layout, keep: tuple[str, ...]) -> np.ndarray | None:
    """The member ``name`` as a float64 vector of the layout's size, or
    None when ``keep`` does not name it. Either way its .npy header must
    say float64 and that size, its data must be that many bytes, and its
    zip CRC-32 must hold; data that is not kept is read in chunks and
    dropped."""
    where = f"({path}, member {name!r})"
    want = 8 * layout.size
    try:
        with zf.open(f"{name}.npy") as f:
            npy = np.lib.format
            version = npy.read_magic(f)
            shape, _, dtype = (npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0)(f)
            if dtype != np.float64 or shape != (layout.size,):
                raise ConfigError(
                    f"checkpoint buffer is {dtype} {list(shape)}; its layout needs float64 [{layout.size}] {where}"
                )
            flat = np.empty(layout.size) if name in keep else None
            into = None if flat is None else memoryview(flat).cast("B")
            got = 0
            while got < want and (chunk := f.read(min(_CHUNK, want - got))):
                if into is not None:
                    into[got : got + len(chunk)] = chunk
                got += len(chunk)
            # the read that reaches the member's end checks its CRC-32
            if got < want or f.read(1):
                raise ValueError(f"array data is not the {want} bytes its header gives")
    except ConfigError:
        raise
    except _READ_ERRORS as exc:
        raise ConfigError(f"checkpoint member cannot be read: {exc} {where}") from exc
    return flat


@contextlib.contextmanager
def _open(path: Path):
    """The checkpoint as an open ZipFile, closed on leaving; zipfile closes
    the file itself when it cannot parse it."""
    try:
        try:
            zf = zipfile.ZipFile(path)
        except zipfile.BadZipFile:
            with path.open("rb") as f:
                # JSON may open with a UTF-8 BOM and whitespace before its "{"
                f.seek(3 if f.read(3) == b"\xef\xbb\xbf" else 0)
                while (first := f.read(1)) and first in b" \t\r\n":
                    pass
                if first == b"{":
                    raise ConfigError(f"checkpoint {path} is JSON (format 1); JSON checkpoints are no longer read")
            raise
    except ConfigError:
        raise
    except _READ_ERRORS as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    with zf:
        yield zf


def _header(zf: zipfile.ZipFile) -> dict:
    try:
        header = json.loads(zf.read(HEADER))
    except _READ_ERRORS as exc:
        raise ConfigError(f"checkpoint header cannot be read: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError("checkpoint header must hold a JSON object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {header.get('format_version')!r}")
    return header


def load_checkpoint(
    path: str | Path, keep: tuple[str, ...] = MEMBERS
) -> tuple[AgentState, RunConfig, PendulumEnv | PointRobotEnv | BanditChainEnv]:
    """The stored run as (agent, config echo, env), the env built once
    from the echo. A file that does not hold a complete, consistently
    shaped agent raises a ConfigError naming the file and the member; an
    echoed env whose dims differ from the env block, one naming both.

    Only the members named in ``keep`` (by default all of `MEMBERS`) are
    held in memory; every other one is checked the same way and dropped,
    and the agent holds None in its place (see `AgentState`)."""
    path = Path(path)
    with _open(path) as zf:
        try:
            header = _header(zf)
            cfg_echo = _field(header, "config")
            if not isinstance(cfg_echo, dict):
                raise ConfigError("checkpoint 'config' must be an object")
            cfg = config_from_dict(cfg_echo)
            obs_dim, act_dim = (_field(header, "env", key, kind="int", least=1) for key in ("obs_dim", "act_dim"))
            actor = Layout(actor_sizes(obs_dim, act_dim, cfg.hidden_actor))
            critic = Layout(critic_sizes(obs_dim, act_dim, cfg.hidden_critic))
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

        layouts = dict(zip(NETWORKS, (actor, actor, critic, critic, critic, critic), strict=True))
        nets = {}
        for name, layout in layouts.items():
            flat = _buffer(zf, path, name, layout, keep)
            nets[name] = None if flat is None else ParamSet(flat, layout)
        adams = {}
        for name in ADAM_NETWORKS:
            # the moments are the loaded buffers themselves, not copies
            m, v = (_buffer(zf, path, f"adam.{name}.{k}", layouts[name], keep) for k in "mv")
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
