"""Spans around the engine's module functions, recorded from outside.

`traced(tracer)` replaces each target function with a wrapper that
records a span (name, start, end, parent) per call. The engine binds
many names with ``from .x import y``, so a function is replaced in
every loaded ``dsact`` module that holds it, not only where it is
defined; ``build_variant`` hands back a ``functools.partial``, so its
result is wrapped as the ``critic.update`` span. Spans stay in memory
and are folded into per-function totals by `Tracer.summary`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _rows(x) -> int:
    return x.size // x.shape[-1] if getattr(x, "ndim", 0) else 1


def _weight_macs(params) -> int:
    return sum(layer.weight.shape[-1] * layer.weight.shape[-2] for layer in params.layers)


def _count_forward(counters, args, result):
    rows = _rows(args[1])
    counters["numerics.mlp_forward.rows"] += rows
    counters["numerics.matmul_flop"] += 2 * rows * _weight_macs(args[0])


def _count_backward(counters, args, result):
    # one matmul for the weight gradient and one for the input gradient per layer
    counters["numerics.matmul_flop"] += 4 * _rows(args[1].inputs[0]) * _weight_macs(args[0])


def _count_file(name):
    def count(counters, args, result):
        counters[f"{name}.bytes"] += os.path.getsize(args[0])

    return count


# (span name, module, attribute, counter hook). An absent attribute is
# reported as missing, and a traced run with a missing target fails.
FUNCTION_TARGETS = (
    ("numerics.mlp_forward", "numerics", "mlp_forward", _count_forward),
    ("numerics.mlp_backward", "numerics", "mlp_backward", _count_backward),
    ("numerics.adam_step", "numerics", "adam_step", None),
    ("critic.build_targets", "critic", "build_targets", None),
    # the three kernels' gradient assembly is one phase of an update
    ("critic.assemble_critic_gradient", "critic", "assemble_critic_gradient", None),
    ("critic.assemble_critic_gradient", "critic", "_assemble_fixed_boundary_gradient", None),
    ("critic.assemble_critic_gradient", "critic", "_assemble_sac_gradient", None),
    ("critic.soft_update", "critic", "soft_update", None),
    ("critic.batch_arrays", "critic", "batch_arrays", None),
    ("actor.actor_gradient", "actor", "actor_gradient", None),
    ("actor.act_stochastic", "actor", "act_stochastic", None),
    ("actor.temperature_update", "actor", "temperature_update", None),
    ("agent.save_checkpoint", "agent", "save_checkpoint", _count_file("agent.save_checkpoint")),
    ("agent.load_checkpoint", "agent", "load_checkpoint", _count_file("agent.load_checkpoint")),
    ("harness.evaluate_policy", "harness", "evaluate_policy", None),
    ("oracles.mc_true_q", "oracles", "mc_true_q", None),
)
METHOD_TARGETS = (
    ("replay.push", "replay", "ReplayBuffer", "push"),
    ("replay.sample", "replay", "ReplayBuffer", "sample"),
)
# every environment class's step method records as one span name
ENV_STEP = "environments.step"
UPDATE = "critic.update"


class Tracer:
    """In-memory span store for one process; not thread-safe."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.monotonic_ns

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced_call

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span; its self time is what no wrapped call covers."""
        span = [f"phase.{name}", 0, 0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic_ns()
        try:
            yield
        finally:
            span[2] = time.monotonic_ns()
            self._stack.pop()

    def summary(self, convert=None) -> dict:
        """Per span name: calls, total and self seconds, call-time
        percentiles, calls by parent name; plus the counters, the self
        times summed per root phase, and how many spans have a negative
        self time (children outlasting their parent: broken nesting).
        `convert` maps the recorded `time.monotonic_ns` readings to the
        nanoseconds reported (`RefClock.ref_ns`); by default they are
        reported as read."""
        spans = self.spans
        if convert is not None:
            spans = [[name, convert(start), convert(end), parent] for name, start, end, parent in spans]
        n = len(spans)
        child_ns = [0] * n
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list[int]] = defaultdict(list)
        root = [0] * n  # a parent is always recorded before its children
        phase_self_ns: dict[str, int] = defaultdict(int)
        negative_self = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_ns = end - start - child_ns[i]
            root[i] = i if parent < 0 else root[parent]
            phase_self_ns[spans[root[i]][0]] += self_ns
            negative_self += self_ns < 0
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_parent": {}})
            rec["calls"] += 1
            rec["total_s"] += (end - start) / 1e9
            rec["self_s"] += self_ns / 1e9
            parent_name = spans[parent][0] if parent >= 0 else ""
            rec["by_parent"][parent_name] = rec["by_parent"].get(parent_name, 0) + 1
            durations[name].append(end - start)
        for name, ds in durations.items():
            ds.sort()
            out[name]["p50_us"] = ds[(len(ds) - 1) // 2] / 1e3
            out[name]["p99_us"] = ds[min(len(ds) - 1, (99 * len(ds)) // 100)] / 1e3
        return {
            "spans": out,
            "counters": dict(self.counters),
            "missing": list(self.missing),
            # per root phase, the sum of self times of every span in its tree
            "phase_self_s": {k: v / 1e9 for k, v in phase_self_ns.items()},
            "negative_self_spans": negative_self,
        }


def _engine_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "dsact" or name.startswith("dsact."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(original, wrapper):
        for mod in _engine_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        modules = {m.__name__.rpartition(".")[2]: m for m in _engine_modules()}
        for span, mod_name, attr, count in FUNCTION_TARGETS:
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            replace_everywhere(fn, tracer.wrap(span, fn, count))
        for span, mod_name, cls_name, attr in METHOD_TARGETS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                tracer.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
        envs = modules["environments"]
        for cls in vars(envs).values():
            if isinstance(cls, type) and cls.__module__ == envs.__name__ and "step" in cls.__dict__:
                undo.append((cls, "step", cls.__dict__["step"]))
                cls.step = tracer.wrap(ENV_STEP, cls.__dict__["step"])

        build_variant = modules["baselines"].build_variant

        @functools.wraps(build_variant)
        def traced_build_variant(*args, **kwargs):
            return tracer.wrap(UPDATE, build_variant(*args, **kwargs))

        replace_everywhere(build_variant, traced_build_variant)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
