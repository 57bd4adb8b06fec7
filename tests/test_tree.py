import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planu.errors import SearchError
from planu.planner import IterationTrace
from planu.quantile import QuantileDistribution, qr_update
from planu.tree import (
    C1,
    GAMMA,
    KAPPA,
    N_QUANTILES,
    QR_STEP,
    STEP_DECAY,
    PathStep,
    StateKey,
    Tree,
    backpropagate,
    recommend,
    select_action,
    snapshot,
)


def make_tree(**kwargs):
    return Tree("root-state", **kwargs)


def expand_root(tree, proposals=None):
    proposals = proposals or [("go", 0.5), ("stay", 0.5)]
    return tree.expand(tree.root, proposals)


# a root's actions as (mean, visits): few distinct means and counts, so
# scores tie often, and unvisited actions get an infinite UCT bonus
ROOT_ACTIONS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 3)),
    min_size=1,
    max_size=10,
)


def root_with(actions, distributional):
    """A tree whose root actions have these (mean, visits), visits summed at the root."""
    tree = make_tree(distributional=distributional)
    nodes = expand_root(tree, [(f"a{i}", 0.5) for i in range(len(actions))])
    for node, (m, visits) in zip(nodes, actions):
        if distributional:
            node.z = QuantileDistribution(np.full(N_QUANTILES, m))
        else:
            node.value = m
        node.visits = visits
    tree.root.visits = sum(visits for _, visits in actions)
    return tree.root


class TestStateKey:
    def test_equal_text_equal_digest(self):
        assert StateKey("abc") == StateKey("abc")
        assert StateKey("abc").digest == StateKey("abc").digest

    def test_distinct_text_distinct_digest(self):
        assert StateKey("abc").digest != StateKey("abd").digest
        assert len(StateKey("abc").digest) == 16


class TestExpand:
    def test_creates_prior_initialized_children(self):
        tree = make_tree()
        nodes = expand_root(tree, [("a", 0.4), ("b", 0.3), ("c", 0.2), ("d", 0.1)])
        assert [a.action_text for a in nodes] == ["a", "b", "c", "d"]
        for node, prior in zip(nodes, (0.4, 0.3, 0.2, 0.1)):
            assert node.visits == 0
            assert node.children == {}
            np.testing.assert_allclose(node.z.values, prior)

    def test_uniform_priors(self):
        tree = make_tree()
        nodes = expand_root(tree, [(f"m{i}", 1 / 3) for i in range(3)])
        for node in nodes:
            np.testing.assert_allclose(node.z.values, 1 / 3)

    def test_expand_on_expanded_raises(self):
        tree = make_tree()
        expand_root(tree)
        with pytest.raises(SearchError):
            expand_root(tree)

    def test_expand_on_terminal_raises(self):
        tree = make_tree()
        actions = expand_root(tree)
        leaf = tree.attach_outcome(actions[0], "end", depth=1, terminal=True)
        with pytest.raises(SearchError):
            tree.expand(leaf, [("x", 1.0)])

    def test_expand_empty_proposals_raises(self):
        tree = make_tree()
        with pytest.raises(SearchError):
            tree.expand(tree.root, [])

    def test_nodes_with_the_same_prior_share_one_read_only_distribution(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        mid = tree.attach_outcome(a, "mid", depth=1, terminal=False)
        (c, d) = tree.expand(mid, [("go", 0.5), ("other", 0.25)])
        assert a.z is b.z is c.z
        assert d.z is not a.z
        with pytest.raises(ValueError, match="read-only"):
            a.z.values[0] = 1.0

    def test_scalar_mode_uses_prior_as_value(self):
        tree = Tree("root-state", distributional=False)
        nodes = expand_root(tree, [("a", 0.7)])
        assert nodes[0].z is None
        assert nodes[0].value == 0.7


class TestAttachOutcome:
    def test_idempotent_for_same_digest(self):
        tree = make_tree()
        (a, _) = expand_root(tree)
        first = tree.attach_outcome(a, "next", depth=1, terminal=False)
        second = tree.attach_outcome(a, "next", depth=1, terminal=False)
        assert first is second
        assert a.children == {"next": first}  # keyed by the outcome's state text

    def test_distinct_outcomes_get_distinct_children(self):
        tree = make_tree()
        (a, _) = expand_root(tree)
        c1 = tree.attach_outcome(a, "won", depth=1, terminal=True)
        c2 = tree.attach_outcome(a, "lost", depth=1, terminal=True)
        assert c1 is not c2
        assert len(a.children) == 2

    def test_identity_transition_child_digest_matches_parent(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        child = tree.attach_outcome(a, "root-state", depth=1, terminal=False)
        assert child.key.digest == tree.root.key.digest
        assert child is not tree.root  # the root is kept apart
        assert tree.attach_outcome(b, "root-state", depth=2, terminal=False) is child
        assert tree.nodes() == [tree.root, child]

    def test_same_outcome_shared_across_actions_at_same_depth(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        c1 = tree.attach_outcome(a, "mid", depth=1, terminal=False)
        c2 = tree.attach_outcome(b, "mid", depth=1, terminal=False)
        assert c1 is c2

    def test_same_outcome_shared_across_depths(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        first = tree.attach_outcome(a, "x", depth=1, terminal=False)
        mid = tree.attach_outcome(b, "mid", depth=1, terminal=False)
        (m,) = tree.expand(mid, [("on", 1.0)])
        again = tree.attach_outcome(m, "x", depth=2, terminal=False)
        assert again is first
        assert again.depth == 1  # the depth it was first seen at
        assert m.children == {"x": first}
        assert len(tree.nodes()) == 3


class TestSelectAction:
    def test_picks_dominant_mean(self):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.9), ("b", 0.6)])
        assert select_action(tree.root, novelty=0.0, exploration="curiosity") is a

    def test_picks_less_visited_on_equal_means(self):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.5), ("b", 0.5)])
        a.visits = 10
        b.visits = 1
        assert select_action(tree.root, novelty=1.0, exploration="curiosity") is b

    def test_tie_breaks_to_lowest_index(self):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.5), ("b", 0.5)])
        assert select_action(tree.root, novelty=0.0, exploration="curiosity") is a

    def test_empty_children_raises(self):
        tree = make_tree()
        with pytest.raises(SearchError):
            select_action(tree.root, novelty=0.0, exploration="curiosity")

    def test_affine_shift_invariance(self):
        tree = make_tree()
        actions = expand_root(tree, [("a", 0.2), ("b", 0.9), ("c", 0.4)])
        before = select_action(tree.root, novelty=0.7, exploration="curiosity")
        for node in actions:
            node.z = QuantileDistribution(node.z.values + 3.0)
        after = select_action(tree.root, novelty=0.7, exploration="curiosity")
        assert before.action_text == after.action_text

    def test_uct_mode_prefers_unvisited(self):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.9), ("b", 0.1)])
        a.visits = 5
        assert select_action(tree.root, novelty=0.0, exploration="uct") is b

    @pytest.mark.parametrize("novelty", [math.nan, math.inf, -math.inf])
    def test_non_finite_novelty_raises(self, novelty):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.2), ("b", 0.9)])
        with pytest.raises(SearchError, match=tree.root.key.digest):
            select_action(tree.root, novelty=novelty, exploration="curiosity")

    @settings(max_examples=200, deadline=None)
    @given(actions=ROOT_ACTIONS, distributional=st.booleans(),
           novelty=st.sampled_from([0.0, 0.5, 1.0]))
    def test_same_choice_as_argmax(self, actions, distributional, novelty):
        root = root_with(actions, distributional)
        means = [m for m, _ in actions]
        curiosity = [m + C1 * novelty / max(n, 1) for m, n in actions]
        log_n = math.log(max(root.visits, 1))
        uct = [m + (C1 * math.sqrt(log_n / n) if n > 0 else math.inf) for m, n in actions]
        assert select_action(root, novelty, "curiosity") is root.actions[int(np.argmax(curiosity))]
        assert select_action(root, novelty, "uct") is root.actions[int(np.argmax(uct))]
        assert recommend(root) is root.actions[int(np.argmax(means))]

    def test_unknown_exploration_mode_raises(self):
        tree = make_tree()
        expand_root(tree)
        with pytest.raises(ValueError):
            select_action(tree.root, novelty=0.0, exploration="thompson")


class TestBackpropagate:
    def test_terminal_target_pulls_toward_reward(self):
        tree = make_tree()
        (a, _) = expand_root(tree)
        leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
        path = [PathStep(tree.root, a, 1.0, leaf)]
        before = a.z.values.mean()
        backpropagate(path)
        assert a.z.values.mean() > before
        assert a.visits == 1
        assert tree.root.visits == 1

    def test_two_step_pass_through_under_gamma(self):
        tree = make_tree()
        (root_a, _) = expand_root(tree)
        mid = tree.attach_outcome(root_a, "mid", depth=1, terminal=False)
        (mid_a,) = tree.expand(mid, [("finish", 1.0)])
        mid_a.z = QuantileDistribution(np.ones(N_QUANTILES))
        leaf = tree.attach_outcome(mid_a, "end", depth=2, terminal=True)
        path = [PathStep(tree.root, root_a, 0.0, mid), PathStep(mid, mid_a, 1.0, leaf)]
        before = root_a.z.values.mean()
        backpropagate(path)
        # root target set was {0 + GAMMA * theta'_j} = {GAMMA,...}, above the
        # prior 0.5: mean moves up
        assert root_a.z.values.mean() > before

    def test_update_leaves_a_node_sharing_the_prior_unchanged(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        shared = b.z
        leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
        backpropagate([PathStep(tree.root, a, 1.0, leaf)])
        assert a.z is not shared
        assert b.z is shared
        assert b.z.values.tobytes() == np.full(N_QUANTILES, 0.5).tobytes()

    @staticmethod
    def self_loop_path(tree):
        # a failed action leaves the state as it was: root -> s -fail-> s -fail-> s -win-> end
        (a, _) = expand_root(tree)
        s = tree.attach_outcome(a, "s", depth=1, terminal=False)
        fail, win = tree.expand(s, [("fail", 0.5), ("win", 0.5)])
        assert tree.attach_outcome(fail, "s", depth=2, terminal=False) is s
        end = tree.attach_outcome(win, "end", depth=4, terminal=True)
        path = [
            PathStep(tree.root, a, 0.0, s),
            PathStep(s, fail, 0.0, s),
            PathStep(s, fail, 0.0, s),
            PathStep(s, win, 1.0, end),
        ]
        return path, (a, fail, win), s

    def test_self_loop_updates_its_action_once_per_backup(self):
        tree = make_tree()
        path, (a, fail, win), s = self.self_loop_path(tree)
        prior, root_prior = fail.z, a.z
        backpropagate(path)
        # every pass counts a visit
        assert (tree.root.visits, s.visits) == (1, 3)
        assert (a.visits, fail.visits, win.visits) == (1, 2, 1)
        # one update, at the deepest pass, with that pass's step
        once = qr_update(prior, GAMMA * win.z.values, step=QR_STEP, kappa=KAPPA)
        assert fail.z.values.tobytes() == once.values.tobytes()
        # the root action targets what that update wrote
        root = qr_update(root_prior, GAMMA * fail.z.values, step=QR_STEP, kappa=KAPPA)
        assert a.z.values.tobytes() == root.values.tobytes()

    def test_self_loop_updates_its_scalar_action_once_per_backup(self):
        tree = make_tree(distributional=False)
        path, (a, fail, win), s = self.self_loop_path(tree)
        backpropagate(path)
        assert (tree.root.visits, s.visits) == (1, 3)
        assert (a.visits, fail.visits, win.visits) == (1, 2, 1)
        # each first visit adopts its target; fail's one update is that first visit
        assert win.value == 1.0
        assert fail.value == pytest.approx(GAMMA)
        assert a.value == pytest.approx(GAMMA * GAMMA)

    def test_update_step_counts_backups_not_passes(self):
        # fail gets 2 passes in the first backup and 1 in the second: 3 visits, 2 updates
        tree = make_tree()
        path, (a, fail, win), s = self.self_loop_path(tree)
        backpropagate(path)
        first = fail.z
        backpropagate([path[0], path[2], path[3]._replace(reward=0.0)])
        assert (fail.visits, fail.updates, win.updates) == (3, 2, 2)
        second = qr_update(first, GAMMA * win.z.values, step=QR_STEP / 2**STEP_DECAY, kappa=KAPPA)
        assert fail.z.values.tobytes() == second.values.tobytes()

    def test_scalar_value_is_the_mean_of_one_target_per_backup(self):
        tree = make_tree(distributional=False)
        path, (a, fail, win), s = self.self_loop_path(tree)
        backpropagate(path)
        backpropagate([path[0], path[2], path[3]._replace(reward=0.0)])
        assert (a.visits, fail.visits, win.visits) == (2, 3, 2)
        # each node's targets are weighted alike: win's were 1 and 0, fail's
        # GAMMA * 1 and GAMMA * 0.5, a's GAMMA**2 and GAMMA**2 * 0.75
        assert win.value == 0.5
        assert fail.value == pytest.approx(GAMMA * 0.75)
        assert a.value == pytest.approx(GAMMA**2 * 0.875)

    def test_only_path_nodes_get_visit_increments(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
        backpropagate([PathStep(tree.root, a, 1.0, leaf)])
        assert a.visits == 1
        assert b.visits == 0

    def test_root_child_visits_sum_to_iterations(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
        for _ in range(7):
            backpropagate([PathStep(tree.root, a, 1.0, leaf)])
        assert a.visits + b.visits == 7

    def test_empty_path_raises(self):
        with pytest.raises(SearchError):
            backpropagate([])

    def test_inconsistent_path_raises(self):
        tree = make_tree()
        (a, b) = expand_root(tree)
        c1 = tree.attach_outcome(a, "x", depth=1, terminal=False)
        c2 = tree.attach_outcome(b, "y", depth=1, terminal=True)
        bad = [PathStep(tree.root, a, 0.0, c1), PathStep(c2, b, 0.0, None)]
        with pytest.raises(SearchError):
            backpropagate(bad)

    def test_scalar_mode_incremental_mean(self):
        tree = Tree("root-state", distributional=False)
        (a,) = tree.expand(tree.root, [("go", 0.5)])
        leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
        backpropagate([PathStep(tree.root, a, 1.0, leaf)])
        assert a.value == pytest.approx(1.0)  # first visit adopts the target
        backpropagate([PathStep(tree.root, a, 0.0, leaf)])
        assert a.value == pytest.approx(0.5)


class TestRecommend:
    def test_ignores_visit_counts(self):
        tree = make_tree()
        (a, b) = expand_root(tree, [("a", 0.2), ("b", 0.8)])
        a.visits = 100
        assert recommend(tree.root) is b

    def test_unexpanded_root_raises(self):
        tree = make_tree()
        with pytest.raises(SearchError):
            recommend(tree.root)


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_complete(self):
        tree = make_tree()
        (a, _) = expand_root(tree)
        tree.attach_outcome(a, "end", depth=1, terminal=True)
        doc = json.loads(json.dumps(snapshot(tree)))
        assert "root" in doc
        kinds = {n["kind"] for n in doc["nodes"]}
        assert kinds == {"state"}
        root_node = next(n for n in doc["nodes"] if n["id"] == doc["root"])
        assert len(root_node["actions"]) == 2
        action = root_node["actions"][0]
        assert {"id", "kind", "action_text", "prior", "mean", "N", "children"} <= set(action)


def test_nodes_and_traces_are_slotted():
    tree = make_tree()
    (a, _) = expand_root(tree)
    leaf = tree.attach_outcome(a, "end", depth=1, terminal=True)
    trace = IterationTrace(0, 1, True, 1.0, [], 0.0, "go")
    for obj in (tree.root, leaf, a, trace):
        assert not hasattr(obj, "__dict__")
    step = PathStep(tree.root, a, 1.0, leaf)
    with pytest.raises(AttributeError):
        step.reward = 0.0
