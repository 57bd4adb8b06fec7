import math
from dataclasses import fields

import pytest

from planu.envs import StockEnv, generate_instance
from planu.planner import (
    VARIANTS,
    PlannerConfig,
    UniformPolicy,
    VariantBehavior,
    rollout_recommended,
    run_search,
)


class TestPlannerConfig:
    def test_defaults_valid(self):
        cfg = PlannerConfig()
        assert cfg.iterations == 200
        # the settings that a run varies; the search constants live in the module
        assert [f.name for f in fields(cfg)] == [
            "iterations", "depth_limit", "variant", "seed", "rnd_output_gain"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"iterations": -1},
            {"iterations": 1.5},
            {"iterations": True},
            {"iterations": "200"},
            {"depth_limit": 0},
            {"depth_limit": 2.0},
            {"depth_limit": None},
            {"variant": "bogus"},
            {"variant": "FULL"},
            {"variant": None},
            {"rnd_output_gain": 0.0},
            {"rnd_output_gain": -1.0},
            {"rnd_output_gain": math.nan},
            {"rnd_output_gain": math.inf},
            {"rnd_output_gain": None},
            {"rnd_output_gain": 10**400},  # an int, but no float can hold it
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

    def test_invalid_combination_reports_all_problems(self):
        with pytest.raises(ValueError) as err:
            PlannerConfig(iterations=0, rnd_output_gain=0.0)
        assert "iterations" in str(err.value) and "rnd_output_gain" in str(err.value)


class TestApplyVariant:
    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("full", VariantBehavior(True, "curiosity", False)),
            ("no_dist", VariantBehavior(False, "curiosity", False)),
            ("no_ucc", VariantBehavior(True, "uct", False)),
            ("deterministic_baseline", VariantBehavior(False, "curiosity", True)),
        ],
    )
    def test_switch_table(self, variant, expected):
        assert VARIANTS[variant] == expected
        assert VARIANTS[variant].use_novelty == (variant != "no_ucc")


class TestUniformPolicy:
    def test_uniform_priors_over_legal_actions(self):
        env = StockEnv()
        policy = UniformPolicy(env)
        proposals = policy.propose(env.reset(0))
        assert proposals == [("buy_a", 0.5), ("buy_b", 0.5)]
        assert policy.propose("sold_a") == []


class TestRunSearch:
    def test_stock_full_variant_recommends_safe_action(self):
        env = StockEnv()
        cfg = PlannerConfig(iterations=200, seed=0, rnd_output_gain=100.0)
        result = run_search(env, None, cfg)
        assert result.recommended_action == "buy_a"

    def test_traces_one_per_iteration(self):
        env = StockEnv()
        cfg = PlannerConfig(iterations=50, seed=0)
        result = run_search(env, None, cfg)
        assert [t.index for t in result.traces] == list(range(50))
        assert all(t.path_length >= 1 for t in result.traces)
        assert all(t.recommended_so_far in ("buy_a", "buy_b") for t in result.traces)

    def test_root_visits_sum_to_iterations(self):
        env = StockEnv()
        cfg = PlannerConfig(iterations=60, seed=1)
        result = run_search(env, None, cfg)
        assert sum(a.visits for a in result.tree.root.actions) == 60

    def test_deterministic_for_fixed_seed(self):
        def means(seed):
            result = run_search(StockEnv(), None, PlannerConfig(iterations=40, seed=seed))
            return [a.mean_value() for a in result.tree.root.actions]

        assert means(5) == means(5)

    def test_depth_limit_bounds_path_length(self):
        env = generate_instance(4, 4, failure_rate=0.2, seed=0)
        cfg = PlannerConfig(iterations=30, depth_limit=3, seed=0)
        result = run_search(env, None, cfg)
        assert max(t.path_length for t in result.traces) <= 3

    def test_no_ucc_variant_skips_novelty(self):
        result = run_search(StockEnv(), None, PlannerConfig(iterations=20, variant="no_ucc"))
        assert all(v == 0.0 for t in result.traces for v in t.novelty_values)

    def test_no_dist_variant_uses_scalar_nodes(self):
        result = run_search(StockEnv(), None, PlannerConfig(iterations=20, variant="no_dist"))
        assert all(a.z is None for a in result.tree.root.actions)

    def test_full_variant_uses_quantile_nodes(self):
        result = run_search(StockEnv(), None, PlannerConfig(iterations=20))
        assert all(a.z is not None and a.z.n_q == 51 for a in result.tree.root.actions)

    def test_node_reprs_stay_small(self):
        # a node's repr leaves out its subtree: children and actions
        env = generate_instance(4, 4, failure_rate=0.2, seed=0)
        result = run_search(env, None, PlannerConfig(iterations=20, seed=0))
        root = result.tree.root
        sizes = [len(repr(node)) for node in (root, *root.actions)]
        assert max(sizes) < 4_000

    def test_deterministic_baseline_prefers_risky_stock_action(self):
        # the mode-outcome wrapper hides the 40% zero outcome of the risky
        # action, so its deterministicized value (1.0) beats the safe 0.9
        cfg = PlannerConfig(
            iterations=400, seed=0, variant="deterministic_baseline", rnd_output_gain=100.0
        )
        result = run_search(StockEnv(), None, cfg)
        assert result.recommended_action == "buy_b"


class TestRolloutRecommended:
    def test_blocksworld_reliable_without_failures(self):
        env = generate_instance(4, 4, failure_rate=0.0, seed=2)
        cfg = PlannerConfig(iterations=300, depth_limit=12, seed=0)
        result = run_search(env, None, cfg)
        total, done, actions = rollout_recommended(env, result.tree, seed=99)
        assert done
        assert total == pytest.approx(1.0)
        assert len(actions) <= env.max_steps

    def test_stock_rollout_reports_recommended_action(self):
        cfg = PlannerConfig(iterations=200, seed=0, rnd_output_gain=100.0)
        result = run_search(StockEnv(), None, cfg)
        total, done, actions = rollout_recommended(StockEnv(), result.tree, seed=3)
        assert done
        assert actions == [result.recommended_action]
        assert total == pytest.approx(0.9)
