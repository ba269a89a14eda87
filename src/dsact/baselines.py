"""The named critic families as kernel specs, for comparisons and ablations.

Three families share the one update in `critic`: the full
twin-distribution kernel (`dsact`), the pre-refinement
single-distribution kernel with a random mean target and a fixed
clipping boundary (`dsacv1`, Duan et al., arXiv 2001.02811), and the
non-distributional mean-squared TD kernel with twin minimum targets
(`sac`, Haarnoja et al., arXiv 1812.05905). Each family names the
refinement flags a config may set on it; the others are pinned to the
family's base kernel.
"""

from __future__ import annotations

import functools

from .critic import KernelSpec, critic_update

REFINEMENT_FLAGS = ("expected_value_substitution", "twin_distributions", "variance_adjustment")

# family -> (base kernel, refinement flags a config may change)
FAMILIES = {
    "dsact": (KernelSpec(), REFINEMENT_FLAGS),
    "dsacv1": (
        KernelSpec(
            expected_value_substitution=False,
            twin_distributions=False,
            variance_adjustment=False,
        ),
        (),
    ),
    "sac": (KernelSpec(variance_adjustment=False, distributional=False), ("twin_distributions",)),
}


def build_variant(spec: KernelSpec):
    """The critic-update procedure of one kernel: `critic_update` with
    `spec` bound, so the full spec is the full kernel itself.

    It stays until the benchmark stops pinning it: `perfbench/tracer.py`
    wraps its result as `critic.update`, and `perfbench/test_tracer.py`
    checks that `harness.build_variant` is still `baselines.build_variant`
    after a traced run."""
    return functools.partial(critic_update, spec=spec)
