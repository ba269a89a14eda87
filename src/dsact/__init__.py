"""Distributional soft actor-critic engine for continuous control.

Gaussian value-distribution critics with expected-value mean targets,
twin distributions with minimum-mean target selection, and adaptive
variance-based clipping/scaling, plus the pre-refinement and
non-distributional baselines, desk-scale environments, oracle checks
and a training CLI.
"""

from .actor import actor_gradient, temperature_update
from .baselines import build_variant
from .config import ConfigError, RunConfig, load_config
from .critic import (
    CriticPairState,
    KernelSpec,
    clip_target,
    critic_update,
    soft_update,
    update_boundary_scale,
)
from .distributions import (
    PolicyDistParams,
    gaussian_logpdf,
    policy_logprob,
    policy_sample,
    value_head_batch,
)
from .environments import make_env
from .harness import evaluate, measure_bias, run_ablation, train
from .numerics import AdamState, NumericalError, ParamSet, adam_step, gelu, mlp_backward, mlp_forward
from .oracles import BiasReport, finite_diff_grad, mc_true_q, numeric_soft_q
from .replay import Batch, ReplayBuffer

__version__ = "0.1.0"
