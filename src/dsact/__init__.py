"""Distributional soft actor-critic engine for continuous control.

Gaussian value-distribution critics with expected-value mean targets,
twin distributions with minimum-mean target selection, and adaptive
variance-based clipping/scaling, plus the pre-refinement and
non-distributional baselines, desk-scale environments, oracle checks
and a training CLI.
"""

__version__ = "0.1.0"
