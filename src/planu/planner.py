"""Search orchestration: iterate selection, expansion, simulation, and
back-propagation against an environment and a prior policy.

Variant switches cover the ablations (scalar means instead of quantile
sets; UCT exploration instead of the curiosity bonus) and the
deterministicized baseline (mode-outcome environment wrapper plus scalar
means).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SearchError
from .novelty import RndModel
from .rules import Rule, at_least, one_of, real
from .tree import PathStep, Tree, backpropagate, recommend, select_action
from .envs.wrappers import DeterministicizedEnv


@dataclass(frozen=True)
class VariantBehavior:
    """Effective switches derived from the variant tag."""

    distributional: bool
    exploration: str  # "curiosity" or "uct"
    wrap_env: bool

    @property
    def use_novelty(self) -> bool:
        return self.exploration == "curiosity"


VARIANTS = {
    "full": VariantBehavior(True, "curiosity", False),
    "no_dist": VariantBehavior(False, "curiosity", False),
    "no_ucc": VariantBehavior(True, "uct", False),
    "deterministic_baseline": VariantBehavior(False, "curiosity", True),
}

# Search constants. No config or workload sets another value; the quantile
# count, the step's decay and the baseline's sample count are the defaults
# of Tree, backpropagate and DeterministicizedEnv.
C1 = 0.25  # weight of the exploration bonus in select_action
GAMMA = 0.95  # discount of the backup targets
QR_STEP = 2.0  # quantile-regression step of a node's first backup
KAPPA = 0.05  # Huber threshold of the quantile loss


def _param(default, rule: Rule, key: bool = True, env_default: bool = False):
    """A checked planner parameter.

    key exposes it as a config key of the same name; env_default lets the
    config leave it null, which selects the environment's own default.
    """
    return field(default=default, metadata={"rule": rule, "key": key, "env_default": env_default})


@dataclass(frozen=True)
class PlannerConfig:
    iterations: int = _param(200, at_least(1))
    depth_limit: int = _param(10, at_least(1))
    variant: str = _param("full", one_of(VARIANTS), key=False)
    seed: int = 0
    # curiosity model
    rnd_output_gain: float = _param(10.0, real(0.0, lo_open=True), env_default=True)

    def __post_init__(self):
        bad = [
            f"{f.name} must be {f.metadata['rule'].describe}"
            for f in fields(self)
            if "rule" in f.metadata and not f.metadata["rule"].check(getattr(self, f.name))
        ]
        if bad:
            raise ValueError("; ".join(bad))


# the parameters a config file sets, under the same names
CONFIG_FIELDS = tuple(f for f in fields(PlannerConfig) if f.metadata.get("key"))


class UniformPolicy:
    """Fallback prior policy: every legal action gets prior 1/k."""

    def __init__(self, env):
        self.env = env

    def propose(self, state_text: str) -> list[tuple[str, float]]:
        actions = self.env.legal_actions(state_text)
        if not actions:
            return []
        return [(a, 1.0 / len(actions)) for a in actions]


@dataclass
class IterationTrace:
    index: int
    path_length: int
    terminal: bool
    total_reward: float
    novelty_values: list[float]
    wall_time: float
    recommended_so_far: str


@dataclass
class SearchResult:
    tree: Tree
    traces: list[IterationTrace]
    recommended_action: str
    config: PlannerConfig
    wall_time: float


def run_search(env, policy, cfg: PlannerConfig) -> SearchResult:
    """Run cfg.iterations search iterations and extract the best root action.

    Each iteration descends from the root — selecting among expanded
    children, expanding leaves, and stepping the environment — until a
    terminal state or the depth limit, then trains the curiosity predictor
    on the states visited this iteration and backs the rewards up the path.
    The recommendation is the root action with the highest mean return; no
    exploration bonus enters the extraction.
    """
    behavior = VARIANTS[cfg.variant]
    if behavior.wrap_env:
        env = DeterministicizedEnv(env)
    if policy is None:
        policy = UniformPolicy(env)

    root_text = env.reset(cfg.seed)
    rnd = None
    if behavior.use_novelty:
        rnd = RndModel(cfg.rnd_output_gain, cfg.seed)
        rnd.observe(root_text)

    tree = Tree(root_text, distributional=behavior.distributional)
    start = time.perf_counter()
    traces: list[IterationTrace] = []
    for i in range(cfg.iterations):
        t0 = time.perf_counter()
        node = tree.root
        path: list[PathStep] = []
        novelty_values: list[float] = []
        try:
            while not node.is_terminal and node.depth < cfg.depth_limit:
                text = node.key.canonical
                if not node.is_expanded:
                    tree.expand(node, policy.propose(text))
                r_i = rnd.novelty_reward(text) if rnd is not None else 0.0
                novelty_values.append(r_i)
                a = select_action(node, r_i, C1, behavior.exploration)
                next_text, reward, done = env.step(text, a.action_text)
                child = tree.attach_outcome(a, next_text, node.depth + 1, done)
                path.append(PathStep(node, a, reward, child))
                if rnd is not None:
                    rnd.observe(next_text)
                node = child
            if rnd is not None:
                rnd.train_predictor()
            if path:
                backpropagate(path, GAMMA, QR_STEP, KAPPA)
        except SearchError:
            raise
        except Exception as exc:
            raise SearchError(f"iteration {i} failed: {exc}") from exc
        traces.append(
            IterationTrace(
                index=i,
                path_length=len(path),
                terminal=node.is_terminal,
                total_reward=sum(ps.reward for ps in path),
                novelty_values=novelty_values,
                wall_time=time.perf_counter() - t0,
                recommended_so_far=recommend(tree.root).action_text if tree.root.actions else "",
            )
        )
    return SearchResult(
        tree=tree,
        traces=traces,
        recommended_action=recommend(tree.root).action_text,
        config=cfg,
        wall_time=time.perf_counter() - start,
    )


def rollout_recommended(env, tree: Tree, seed: int):
    """Replay the learned plan greedily with fresh environment randomness.

    For at most env.max_steps steps, the max-mean action of the matching
    tree node is taken; off-tree states fall back to a seeded random legal
    action. Returns (total_reward, reached_terminal, actions_taken).
    """
    rng = np.random.default_rng(seed)
    state = env.reset(seed)
    node = tree.root
    total = 0.0
    actions: list[str] = []
    done = False
    for _ in range(env.max_steps):
        if node is not None and node.is_expanded:
            a = recommend(node)
            action_text = a.action_text
        else:
            legal = env.legal_actions(state)
            if not legal:
                break
            action_text = legal[int(rng.integers(0, len(legal)))]
            a = None
        state, r, done = env.step(state, action_text)
        total += r
        actions.append(action_text)
        if done:
            break
        node = a.children.get(state) if a is not None else None
    return total, done, actions
