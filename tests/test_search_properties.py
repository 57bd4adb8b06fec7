"""Search-level invariants over every environment x variant.

Each example builds a run the way the CLI does and searches it twice from
fresh environments, then checks the tree both searches left: visit
counts, value bounds, cached means, expansions, the recommendation,
determinism, and that the UCT variant never builds a curiosity model.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from planu import planner
from planu.cli import build_env, enumerate_runs, planner_config
from planu.config import DEFAULTS
from planu.envs import ENVS
from planu.envs.overcooked import CHOP_REWARD, DELIVER_REWARD, STEP_PENALTY, WRONG_DELIVERY_PENALTY
from planu.planner import VARIANTS, run_search
from planu.tree import snapshot

# slack for the rounding of the scalar running mean
TOL = 1e-9


def return_bounds(env_name: str, depth_limit: int) -> tuple[float, float]:
    """Bounds on every value a search can hold, priors in [0, 1] included."""
    if env_name != "overcooked":
        # one reward in [0, 1], on the step that ends the episode
        return 0.0, 1.0
    # every step pays between these; a backup target is a step's reward plus
    # gamma <= 1 times a successor's value, which may still be its prior
    r_min = WRONG_DELIVERY_PENALTY - STEP_PENALTY
    r_max = max(CHOP_REWARD, DELIVER_REWARD) - STEP_PENALTY
    return depth_limit * r_min, 1.0 + depth_limit * r_max


class CountingRndModel(planner.RndModel):
    made = 0

    def __init__(self, *args, **kwargs):
        CountingRndModel.made += 1
        super().__init__(*args, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    env_name=st.sampled_from(sorted(ENVS)),
    variant=st.sampled_from(sorted(VARIANTS)),
    seed=st.integers(0, 1000),
    iterations=st.integers(1, 40),
    failure_rate=st.floats(0.0, 1.0),
)
def test_search_invariants(env_name, variant, seed, iterations, failure_rate):
    config = {**DEFAULTS, "env": env_name, "variants": [variant], "seeds": [seed],
              "failure_rate": failure_rate, "chop_failure_rate": failure_rate}
    [spec] = enumerate_runs(config)
    cfg = dataclasses.replace(planner_config(spec), iterations=iterations)
    CountingRndModel.made = 0
    with mock.patch.object(planner, "RndModel", CountingRndModel):
        result = run_search(build_env(spec), None, cfg)
        again = run_search(build_env(spec), None, cfg)
    assert CountingRndModel.made == (0 if variant == "no_ucc" else 2)

    # plain values only in the asserts below: the repr of a node is its whole subtree
    tree, env = result.tree, build_env(spec)
    lo, hi = return_bounds(env_name, cfg.depth_limit)
    root_visits = tree.root.visits
    assert root_visits == iterations
    for s in tree.nodes():
        text, visits = s.key.canonical, s.visits
        assert visits == sum(a.visits for a in s.actions), text
        if s.actions:
            assert [a.action_text for a in s.actions] == env.legal_actions(text)
        for a in s.actions:
            values = a.z.values if a.z is not None else np.array([a.value])
            low, high = values.min(), values.max()
            assert lo - TOL <= low and high <= hi + TOL, (text, a.action_text)
            # the mean is cached per distribution: it must be that of the current values
            cached = a.mean_value()
            assert cached == float(values.mean()), (text, a.action_text)
    root_legal = env.legal_actions(tree.root.key.canonical)
    assert result.recommended_action in root_legal
    first, second = (json.dumps(snapshot(r.tree), sort_keys=True) for r in (result, again))
    assert first == second
