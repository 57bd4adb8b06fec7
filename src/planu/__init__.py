"""Planning under uncertainty with quantile return distributions.

Monte Carlo tree search whose action nodes carry quantile-set return
distributions updated by quantile regression, selected by an upper
confidence bound with a curiosity bonus from random network distillation.
Ships stochastic benchmark environments, ablation variants, a
deterministicized-baseline wrapper, and an experiment CLI. The package is
used through its submodules: `planu.planner`, `planu.cli`, `planu.envs`.
"""
