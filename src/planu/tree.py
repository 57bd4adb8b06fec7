"""Search graph of alternating state and action nodes.

State nodes hold visit counts; action nodes hold a quantile return
distribution (or a scalar running mean in the ablated form), a prior, a
visit count, an update count, and one child state node per observed
stochastic outcome.
Below the root, one node stands for each state text. Selection maximizes
the mean return plus a curiosity bonus; backups run quantile-regression
updates along the traversed path, one per action node however often the
path passes it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SearchError
from .quantile import QuantileDistribution, init_from_prior, qr_update

# Search constants. No config or workload sets another value.
N_QUANTILES = 31  # quantile values of each action node's return distribution
C1 = 0.25  # weight of the exploration bonus in select_action
GAMMA = 0.95  # discount of the backup targets
QR_STEP = 2.0  # quantile-regression step of a node's first backup
STEP_DECAY = 0.75  # exponent of the step's decay with a node's updates
KAPPA = 0.05  # Huber threshold of the quantile loss


@dataclass(frozen=True)
class StateKey:
    """Canonical state text; the tree keys nodes by this text."""

    canonical: str

    @property
    def digest(self) -> str:
        """Fixed-width content hash, for snapshots and error messages."""
        return hashlib.sha256(self.canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class ActionNode:
    """A state-action pair: prior, return estimate, visits, outcome children."""

    action_text: str
    prior: float
    z: QuantileDistribution | None = None  # None in scalar (mean-only) mode
    value: float = 0.0
    visits: int = 0
    updates: int = 0  # backups that updated this node; sets its update step
    children: dict[str, "StateNode"] = field(default_factory=dict, repr=False)  # by state text

    def mean_value(self) -> float:
        """Mean return: of the distribution, or the scalar running mean of
        the node's backup targets, one per update."""
        if self.z is None:
            return self.value
        return self.z.mean


@dataclass(slots=True)
class StateNode:
    """A state and the depth it was first seen at; terminal ones get no actions."""

    key: StateKey
    depth: int
    is_terminal: bool = False
    visits: int = 0
    actions: list[ActionNode] = field(default_factory=list, repr=False)

    @property
    def is_expanded(self) -> bool:
        return bool(self.actions)


class PathStep(NamedTuple):
    """One traversed (state, action, reward, next state) transition."""

    state: StateNode
    action: ActionNode
    reward: float
    next_state: StateNode | None


class Tree:
    """The root, then one state node per state text (a transposition table).

    Any path that reaches a state again, such as a failed action that
    leaves it unchanged, reuses its node and its statistics. The root is
    kept apart, entered once per iteration; a later state with its text
    is a shared node like any other.
    """

    def __init__(self, root_text: str, distributional: bool = True):
        self.distributional = distributional
        self.root = StateNode(StateKey(root_text), 0)
        self._index: dict[str, StateNode] = {}

    def nodes(self) -> list[StateNode]:
        return [self.root, *self._index.values()]

    def expand(self, s: StateNode, proposals: list[tuple[str, float]]) -> list[ActionNode]:
        """Create one action child per (action_text, prior) proposal."""
        if s.is_terminal:
            raise SearchError(f"cannot expand terminal state {s.key.digest}")
        if s.is_expanded:
            raise SearchError(f"state {s.key.digest} is already expanded")
        if not proposals:
            raise SearchError(f"no action proposals for state {s.key.digest}")
        for text, prior in proposals:
            if self.distributional:
                node = ActionNode(text, prior, init_from_prior(prior, N_QUANTILES))
            else:
                node = ActionNode(text, prior, value=float(prior))
            s.actions.append(node)
        return s.actions

    def attach_outcome(self, a: ActionNode, next_text: str, depth: int, terminal: bool) -> StateNode:
        """Return the outcome's node; depth and terminal count only on first sight."""
        child = a.children.get(next_text)
        if child is None:
            child = self._index.get(next_text)
            if child is None:
                child = self._index[next_text] = StateNode(StateKey(next_text), depth, terminal)
            a.children[next_text] = child
        return child


def select_action(s: StateNode, novelty: float, exploration: str) -> ActionNode:
    """Pick the action child maximizing mean return + exploration bonus.

    The "curiosity" bonus is C1 * novelty / max(N, 1); the "uct" mode swaps
    in the classic C1 * sqrt(ln N_parent / N) term instead. Ties go to the
    lowest-index child.
    """
    if not s.actions:
        raise SearchError(f"select_action on a state with no actions ({s.key.digest})")
    if exploration == "uct":
        # a state's visits are the sum of its actions' visits
        log_n = math.log(max(s.visits, 1))
        scores = [
            a.mean_value() + (C1 * math.sqrt(log_n / a.visits) if a.visits > 0 else math.inf)
            for a in s.actions
        ]
    elif exploration == "curiosity":
        if not math.isfinite(novelty):
            raise SearchError(f"non-finite novelty {novelty} at state {s.key.digest}")
        scores = [a.mean_value() + C1 * novelty / max(a.visits, 1) for a in s.actions]
    else:
        raise ValueError(f"unknown exploration mode {exploration!r}")
    return s.actions[_first_max(scores)]


def _first_max(scores: list[float]) -> int:
    """Index of the first maximal score, as np.argmax picks it."""
    return max(range(len(scores)), key=scores.__getitem__)


def backpropagate(path: list[PathStep]) -> None:
    """Update every action node on the path once, from the last step backward.

    The final step's target set is {r}; an interior step's targets are
    r + GAMMA * theta'_j over the successor action node's quantiles (the
    action actually taken next on this path). A node's U-th update steps
    QR_STEP / U**STEP_DECAY, so early backups move fast and late estimates
    settle; the scalar mode keeps the running mean of its U targets.

    A path can pass one action node several times, as when a failed action
    leaves its state unchanged and the descent tries it again. Every pass
    counts a visit of the node and of its state, but only the deepest pass,
    the first one met walking backward, updates the node. A shallower pass
    of the node leaves it as it is, and the step before targets its fresh
    values. Visits drive selection; U counts backups, not passes, so a
    pass that skipped its update does not shrink the node's later steps.
    """
    if not path:
        raise SearchError("backpropagate on an empty path")
    for t, ps in enumerate(path[:-1]):
        if ps.next_state is not path[t + 1].state:
            raise SearchError(f"path is not parent-linked at step {t}")
    after = None  # the action node of the step after ps on the path
    updated: set[int] = set()  # ids of the action nodes this backup has updated
    for ps in reversed(path):
        a = ps.action
        a.visits += 1
        ps.state.visits += 1
        if id(a) not in updated:
            updated.add(id(a))
            a.updates += 1
            if a.z is not None:
                if after is None:
                    targets = np.array([ps.reward])
                else:
                    targets = GAMMA * after.z.values
                    targets += ps.reward
                a.z = qr_update(a.z, targets, step=QR_STEP / a.updates**STEP_DECAY, kappa=KAPPA)
            else:
                if after is None:
                    target = ps.reward
                else:
                    target = ps.reward + GAMMA * after.mean_value()
                a.value += (target - a.value) / a.updates
        after = a


def recommend(root: StateNode) -> ActionNode:
    """Exploitation-only extraction: argmax of mean return, no bonuses."""
    if not root.actions:
        raise SearchError("recommend on an unexpanded root")
    return root.actions[_first_max([a.mean_value() for a in root.actions])]


def snapshot(tree: Tree) -> dict:
    """JSON-serializable dump of nodes, edges, means, and visit counts."""
    nodes = []
    ids: dict[int, int] = {}

    def state_id(s: StateNode) -> int:
        return ids.setdefault(id(s), len(ids))

    for s in tree.nodes():
        sid = state_id(s)
        action_entries = []
        for i, a in enumerate(s.actions):
            action_entries.append(
                {
                    "id": f"{sid}:{i}",
                    "kind": "action",
                    "action_text": a.action_text,
                    "prior": a.prior,
                    "mean": a.mean_value(),
                    "N": a.visits,
                    "children": sorted(state_id(c) for c in a.children.values()),
                }
            )
        nodes.append(
            {
                "id": sid,
                "kind": "state",
                "digest": s.key.digest,
                "canonical": s.key.canonical,
                "depth": s.depth,
                "terminal": s.is_terminal,
                "visits": s.visits,
                "actions": action_entries,
            }
        )
    return {"root": state_id(tree.root), "nodes": nodes}
