"""`build_variant`, the one name left of the old family module.

The family table now lives in `config` (`FAMILIES`, read by
`RunConfig.kernel`). This module stays only because the benchmark
names it: `perfbench/tracer.py` wraps `baselines.build_variant`, and
`perfbench/test_tracer.py` checks that `harness.build_variant` is still
`baselines.build_variant` after a traced run.
"""

from __future__ import annotations

import functools

from .critic import KernelSpec, critic_update


def build_variant(spec: KernelSpec):
    """The critic-update procedure of one kernel: `critic_update` with
    `spec` bound, so the full spec is the full kernel itself."""
    return functools.partial(critic_update, spec=spec)
