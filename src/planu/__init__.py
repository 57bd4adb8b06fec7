"""Planning under uncertainty with quantile return distributions.

Monte Carlo tree search whose action nodes carry quantile-set return
distributions updated by quantile regression, selected by an upper
confidence bound with a curiosity bonus from random network distillation.
Ships stochastic benchmark environments, ablation variants, a
deterministicized-baseline wrapper, and an experiment CLI.
"""

from .errors import ConfigError, EnvError, PlanuError, SearchError
from .planner import (
    PlannerConfig,
    SearchResult,
    UniformPolicy,
    rollout_recommended,
    run_search,
)
from .quantile import (
    QuantileDistribution,
    init_from_prior,
    midpoints,
    qr_update,
)
from .tree import PathStep, StateKey, StateNode, Tree, backpropagate, recommend, select_action

__version__ = "0.1.0"

__all__ = [
    "PlannerConfig",
    "SearchResult",
    "UniformPolicy",
    "rollout_recommended",
    "run_search",
    "QuantileDistribution",
    "init_from_prior",
    "midpoints",
    "qr_update",
    "PathStep",
    "StateKey",
    "StateNode",
    "Tree",
    "backpropagate",
    "recommend",
    "select_action",
    "PlanuError",
    "SearchError",
    "EnvError",
    "ConfigError",
]
