import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planu.cli import build_env, enumerate_runs
from planu.config import DEFAULTS
from planu.envs import (
    ENVS,
    BlocksworldEnv,
    DeterministicizedEnv,
    OvercookedLiteEnv,
    StockEnv,
    generate_instance,
    parse_facts,
    parse_instance,
)
from planu.envs.blocksworld import canonical, operator_table
from planu.errors import EnvError


class TestStockEnv:
    def test_safe_action_is_deterministic(self):
        env = StockEnv()
        state = env.reset(0)
        assert env.step(state, "buy_a") == ("sold_a", 0.9, True)

    def test_risky_action_frequencies(self):
        env = StockEnv()
        state = env.reset(123)
        wins = 0
        n = 20000
        for _ in range(n):
            nxt, r, done = env.step(state, "buy_b")
            assert done
            if nxt == "sold_b_profit":
                assert r == 1.0
                wins += 1
            else:
                assert (nxt, r) == ("sold_b_zero", 0.0)
        # 3 sigma around p = 0.6
        sigma = np.sqrt(0.6 * 0.4 / n)
        assert abs(wins / n - 0.6) < 3 * sigma

    def test_same_seed_same_stream(self):
        a, b = StockEnv(), StockEnv()
        sa, sb = a.reset(7), b.reset(7)
        for _ in range(50):
            assert a.step(sa, "buy_b") == b.step(sb, "buy_b")

    def test_illegal_action_raises(self):
        env = StockEnv()
        state = env.reset(0)
        with pytest.raises(EnvError):
            env.step(state, "sell")
        with pytest.raises(EnvError):
            env.step("sold_a", "buy_a")

    def test_legal_actions(self):
        env = StockEnv()
        assert env.legal_actions(env.reset(0)) == ["buy_a", "buy_b"]
        assert env.legal_actions("sold_a") == []


SIMPLE_INSTANCE = """
blocks: a b
init: ontable(a) ontable(b) clear(a) clear(b) handempty
goal: on(a,b)
"""


class TestBlocksworldParsing:
    def test_parse_facts_roundtrip(self):
        facts = parse_facts("on(a,b) clear(a) ontable(b) handempty")
        assert facts == {"on(a,b)", "clear(a)", "ontable(b)", "handempty"}

    def test_parse_facts_rejects_bad_tokens(self):
        for bad in ("above(a,b)", "on(a)", "clear(a,b)", "holding", "on(A,b)"):
            with pytest.raises(EnvError):
                parse_facts(bad)

    def test_parse_instance(self):
        blocks, init, goal = parse_instance(SIMPLE_INSTANCE)
        assert blocks == ("a", "b")
        assert "handempty" in init
        assert goal == {"on(a,b)"}

    def test_parse_instance_missing_section_raises(self):
        with pytest.raises(EnvError):
            parse_instance("blocks: a b\ninit: ontable(a) ontable(b) clear(a) clear(b) handempty\n")

    @pytest.mark.parametrize("blocks, init, goal, named", [
        ("a a b", "ontable(a) ontable(b) clear(a) clear(b) handempty", "on(a,b)", "block a"),
        ("a b", "ontable(a) ontable(b) ontable(z) clear(a) clear(b) handempty", "on(a,b)",
         "ontable(z)"),
        ("a b", "ontable(a) ontable(b) clear(a) clear(b) handempty", "on(a,c)", "on(a,c)"),
        ("a b", "ontable(a) ontable(b) clear(a) clear(b) handempty", "on(a,a)", "on(a,a)"),
        ("a b", "ontable(a) ontable(b) clear(a) clear(b)", "on(a,b)", "handempty"),
        ("a b", "on(a,b) ontable(b) clear(a) clear(b) handempty", "on(b,a)", "clear(b)"),
        ("a b", "on(a,b) ontable(b) handempty", "on(b,a)", "clear(a)"),
        ("a b c", "on(a,b) on(b,a) ontable(c) clear(c) handempty", "on(c,a)", "['a', 'b']"),
        ("a b c", "on(a,c) on(b,c) ontable(c) clear(a) clear(b) handempty", "on(c,a)", "['a']"),
        ("a b", "holding(a) holding(b)", "on(a,b)", "more than one block held: ['a', 'b']"),
    ], ids=["duplicate-block", "init-names-unknown-block", "goal-names-unknown-block",
            "goal-block-on-itself", "no-handempty", "false-clear", "missing-clear",
            "cycle", "two-blocks-on-one", "two-blocks-held"])
    def test_malformed_instance_rejected(self, blocks, init, goal, named):
        with pytest.raises(EnvError, match=re.escape(named)):
            BlocksworldEnv.from_instance(f"blocks: {blocks}\ninit: {init}\ngoal: {goal}\n")

    def test_unknown_instance_line_raises(self):
        with pytest.raises(EnvError, match=re.escape("unknown instance line 'start: a'")):
            parse_instance(SIMPLE_INSTANCE + "start: a\n")

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_failure_rate_outside_unit_interval_raises(self, rate):
        with pytest.raises(ValueError, match="failure_rate must be in"):
            BlocksworldEnv.from_instance(SIMPLE_INSTANCE, failure_rate=rate)

    def test_invalid_state_rejected_at_construction(self):
        with pytest.raises(EnvError):
            BlocksworldEnv(("a",), parse_facts("ontable(a) clear(a) holding(a)"),
                           parse_facts("ontable(a)"))


class TestBlocksworldDynamics:
    def make_env(self, failure_rate=0.0, seed=0):
        return BlocksworldEnv.from_instance(SIMPLE_INSTANCE, failure_rate=failure_rate, seed=seed)

    def test_two_step_solution(self):
        env = self.make_env()
        state = env.reset(0)
        state, r, done = env.step(state, "pickup(a)")
        assert (r, done) == (0.0, False)
        assert "holding(a)" in state
        state, r, done = env.step(state, "stack(a,b)")
        assert (r, done) == (1.0, True)
        assert env.goal_reached(state)

    def test_inapplicable_action_is_noop(self):
        env = self.make_env()
        state = env.reset(0)
        nxt, r, done = env.step(state, "putdown(a)")
        assert (nxt, r, done) == (state, 0.0, False)

    def test_malformed_action_raises(self):
        env = self.make_env()
        state = env.reset(0)
        for bad in ("fly(a)", "pickup(a,b)", "stack(a)", "pickup(z)", "stack(a,z)"):
            with pytest.raises(EnvError):
                env.step(state, bad)

    def test_certain_failure_freezes_state(self):
        env = self.make_env(failure_rate=1.0)
        state = env.reset(0)
        nxt, r, done = env.step(state, "pickup(a)")
        assert (nxt, r, done) == (state, 0.0, False)

    def test_failure_frequency(self):
        env = self.make_env(failure_rate=0.3, seed=0)
        state = env.reset(42)
        n, failures = 5000, 0
        for _ in range(n):
            nxt, _, _ = env.step(state, "pickup(a)")
            failures += nxt == state
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(failures / n - 0.3) < 3 * sigma

    def test_legal_actions_sorted_and_correct(self):
        env = self.make_env()
        state = env.reset(0)
        assert env.legal_actions(state) == ["pickup(a)", "pickup(b)"]
        held, _, _ = env.step(state, "pickup(a)")
        assert env.legal_actions(held) == ["putdown(a)", "stack(a,b)"]

    def test_state_canonical_order_independent(self):
        env = self.make_env()
        state = env.reset(0)
        assert state == " ".join(sorted(state.split()))


class UnmemoisedBlocksworldEnv(BlocksworldEnv):
    """Blocks world stepped from scratch every time: the reference that the
    memoised BlocksworldEnv.step must reproduce, outputs and draws alike."""

    def step(self, state, action_text):
        op = operator_table(self.blocks).get(action_text.strip())
        if op is None:
            raise EnvError(f"malformed action {action_text!r}")
        failed = self._rng.random() < self.failure_rate
        pre, add = op
        facts = parse_facts(state)
        next_state = canonical((facts - pre) | add) if pre <= facts and not failed else state
        done = self.goal_facts <= parse_facts(next_state)
        return next_state, (1.0 if done else 0.0), done


THREE_BLOCKS = """
blocks: a b c
init: ontable(a) ontable(b) ontable(c) clear(a) clear(b) clear(c) handempty
goal: on(a,b)
"""
# every well-formed action over a-c, applicable or not, then malformed ones
WELL_FORMED = sorted(
    [f"{op}({x})" for op in ("pickup", "putdown") for x in "abc"]
    + [f"{op}({x},{y})" for op in ("stack", "unstack") for x in "abc" for y in "abc" if x != y]
)
MALFORMED = ["fly(a)", "pickup(a,b)", "stack(a)", "pickup(z)", "stack(a,z)"]


def reachable_states(instance):
    """Every state reachable from the initial one, goal states included."""
    env = UnmemoisedBlocksworldEnv.from_instance(instance, failure_rate=0.0)
    seen = [env.reset(0)]
    for state in seen:  # grows while it is walked
        for action in env.legal_actions(state):
            nxt, _, _ = env.step(state, action)
            if nxt not in seen:
                seen.append(nxt)
    return seen


STATES = reachable_states(THREE_BLOCKS)
ACTIONS = WELL_FORMED + MALFORMED
# one step: ("any", state, action) picks from STATES x ACTIONS, ("legal",
# state, k) the state's k-th legal action (mod their number), so that
# applicable actions, goal-reaching ones among them, come up often; "again"
# repeats the previous pair
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["any", "legal"]), st.integers(0, len(STATES) - 1),
                  st.integers(0, len(ACTIONS) - 1)),
        st.just("again"),
    ),
    min_size=1,
    max_size=80,
)


class TestMemoisedStep:
    def test_reachable_states_include_goal(self):
        env = BlocksworldEnv.from_instance(THREE_BLOCKS)
        assert len(STATES) == 22
        assert any(env.goal_reached(state) for state in STATES)
        for state in STATES:  # each one a valid layout
            BlocksworldEnv(env.blocks, parse_facts(state), env.goal_facts)

    @settings(max_examples=150, deadline=None)
    @given(steps=STEPS,
           rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**16))
    def test_same_as_unmemoised_step(self, steps, rate, seed):
        env = BlocksworldEnv.from_instance(THREE_BLOCKS, failure_rate=rate, seed=seed)
        ref = UnmemoisedBlocksworldEnv.from_instance(THREE_BLOCKS, failure_rate=rate, seed=seed)
        stepped = set()
        pair = None
        for step in steps:
            if step != "again":
                kind, i, k = step
                state = STATES[i]
                legal = ref.legal_actions(state)
                pair = (state, ACTIONS[k] if kind == "any" else legal[k % len(legal)])
            elif pair is None:
                continue
            if pair[1] in MALFORMED:
                before = env._rng.bit_generator.state
                for e in (env, ref):
                    with pytest.raises(EnvError):
                        e.step(*pair)
                assert env._rng.bit_generator.state == before
                assert pair not in env._outcomes
            else:
                assert env.step(*pair) == ref.step(*pair)
                stepped.add(pair)
            assert env._rng.bit_generator.state == ref._rng.bit_generator.state
            assert set(env._outcomes) == stepped


class TestGenerateInstance:
    @pytest.mark.parametrize("n_steps", [2, 4, 6])
    def test_solvable_within_budget(self, n_steps):
        for seed in range(5):
            env = generate_instance(n_steps, 4, failure_rate=0.0, seed=seed)
            state = env.reset(0)
            # breadth-first search over deterministic dynamics
            frontier = {state}
            seen = set(frontier)
            solved = env.goal_reached(state)
            for _ in range(n_steps):
                if solved:
                    break
                nxt_frontier = set()
                for s in frontier:
                    for a in env.legal_actions(s):
                        nxt, _, done = env.step(s, a)
                        if done:
                            solved = True
                        if nxt not in seen:
                            seen.add(nxt)
                            nxt_frontier.add(nxt)
                frontier = nxt_frontier
            assert solved, f"instance seed={seed} not solvable in {n_steps} steps"

    def test_goal_not_initially_satisfied(self):
        for seed in range(10):
            env = generate_instance(4, 4, seed=seed)
            assert not env.goal_reached(env.reset(0))

    def test_deterministic_in_seed(self):
        a = generate_instance(4, 4, seed=3)
        b = generate_instance(4, 4, seed=3)
        assert a.instance_text() == b.instance_text()

    def test_rejects_odd_or_small_steps(self):
        with pytest.raises(ValueError):
            generate_instance(3)
        with pytest.raises(ValueError):
            generate_instance(0)

    def test_rejects_more_blocks_than_letters(self):
        generate_instance(2, 26, seed=0)
        with pytest.raises(ValueError, match="at most 26"):
            generate_instance(2, 27, seed=0)

    def test_instance_text_roundtrip(self):
        env = generate_instance(4, 4, seed=1)
        clone = BlocksworldEnv.from_instance(env.instance_text())
        assert clone.reset(0) == env.reset(0)
        assert clone.goal_facts == env.goal_facts


class TestOvercookedLite:
    def test_reset_state_fields(self):
        env = OvercookedLiteEnv()
        state = env.reset(0)
        assert state == "t=0 hand=none board=none tomato=raw lettuce=raw onion=raw"

    def test_happy_path_tomato_salad(self):
        env = OvercookedLiteEnv("tomato_salad", chop_failure_rate=0.0)
        state = env.reset(0)
        state, r, done = env.step(state, "get_tomato")
        assert "hand=tomato" in state and not done
        state, r, done = env.step(state, "go_cutting_board")
        assert "board=tomato" in state
        state, r, done = env.step(state, "chop")
        assert r == pytest.approx(0.2 - 0.001)
        assert "tomato=in_bowl" in state
        state, r, done = env.step(state, "get_bowl")
        state, r, done = env.step(state, "deliver")
        assert r == pytest.approx(1.0 - 0.001)
        assert done

    def test_chop_can_fail(self):
        env = OvercookedLiteEnv("tomato_salad", chop_failure_rate=1.0)
        state = env.reset(0)
        state, _, _ = env.step(state, "get_tomato")
        state, _, _ = env.step(state, "go_cutting_board")
        nxt, r, _ = env.step(state, "chop")
        assert "board=tomato" in nxt
        assert r == pytest.approx(-0.001)

    def test_chop_failure_frequency(self):
        env = OvercookedLiteEnv("tomato_salad", chop_failure_rate=0.2)
        state = env.reset(9)
        state, _, _ = env.step(state, "get_tomato")
        board_state, _, _ = env.step(state, "go_cutting_board")
        n, failures = 5000, 0
        for _ in range(n):
            nxt, _, _ = env.step(board_state, "chop")
            failures += "board=tomato" in nxt
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(failures / n - 0.2) < 3 * sigma

    def test_wrong_delivery_resets_wrong_items(self):
        env = OvercookedLiteEnv("tomato_salad", chop_failure_rate=0.0)
        state = env.reset(0)
        for a in ("get_lettuce", "go_cutting_board", "chop", "get_bowl"):
            state, _, _ = env.step(state, a)
        state, r, done = env.step(state, "deliver")
        assert not done
        assert r == pytest.approx(-0.1 - 0.001)
        assert "lettuce=raw" in state and "hand=none" in state

    def test_episode_limit_terminates(self):
        env = OvercookedLiteEnv()
        state = env.reset(0)
        done = False
        for _ in range(200):
            state, _, done = env.step(state, "get_bowl" if "hand=none" in state else "deliver")
            if done:
                break
        assert done

    def test_illegal_actions_raise(self):
        env = OvercookedLiteEnv()
        state = env.reset(0)
        for bad in ("chop", "deliver", "go_cutting_board", "juggle"):
            with pytest.raises(EnvError):
                env.step(state, bad)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_chop_failure_rate_outside_unit_interval_raises(self, rate):
        with pytest.raises(ValueError, match="chop_failure_rate must be in"):
            OvercookedLiteEnv(chop_failure_rate=rate)

    # a state -> what its diagnostic must name
    @pytest.mark.parametrize("state, named", [
        ("garbage", "'garbage' is not field=value"),
        ("t=0 hand=none board=none tomato=raw lettuce=raw", "fields ['onion'] are missing"),
        ("t=0 t=1 hand=none board=none tomato=raw lettuce=raw onion=raw", "field 't' is repeated"),
        ("t=0 hand=none board=none tomato=raw lettuce=raw onion=raw knife=raw",
         "field 'knife' is unknown"),
        ("t=x hand=none board=none tomato=raw lettuce=raw onion=raw", "t=x is not an integer"),
        ("t=-1 hand=none board=none tomato=raw lettuce=raw onion=raw", "t=-1 is not an integer"),
        ("t=0 hand=knife board=none tomato=raw lettuce=raw onion=raw", "hand=knife is not one of"),
        ("t=0 hand=none board=bowl tomato=raw lettuce=raw onion=raw", "board=bowl is not one of"),
        ("t=0 hand=none board=none tomato=chopped lettuce=raw onion=raw",
         "tomato=chopped is not one of"),
        ("t=0 hand=none board=none tomato=held lettuce=raw onion=raw",
         "tomato=held disagrees with hand=none"),
        ("t=0 hand=tomato board=none tomato=raw lettuce=raw onion=raw",
         "tomato=raw disagrees with hand=tomato"),
        ("t=0 hand=none board=none tomato=raw lettuce=on_board onion=raw",
         "lettuce=on_board disagrees with hand=none board=none"),
        ("t=0 hand=none board=onion tomato=raw lettuce=raw onion=in_bowl",
         "onion=in_bowl disagrees with hand=none board=onion"),
    ], ids=["no-equals", "missing-field", "repeated-field", "unknown-field", "t-not-integer",
            "t-negative", "hand-unknown", "board-unknown", "status-unknown", "held-not-in-hand",
            "in-hand-not-held", "on-board-not-on-board", "on-board-not-marked"])
    def test_malformed_state_rejected(self, state, named):
        env = OvercookedLiteEnv()
        for call in (env.legal_actions, lambda s: env.step(s, "get_bowl")):
            with pytest.raises(EnvError, match=re.escape(f"malformed state {state!r}: {named}")):
                call(state)

    def test_unknown_recipe_raises(self):
        with pytest.raises(ValueError):
            OvercookedLiteEnv("stone_soup")

    def test_legal_actions_match_dynamics(self):
        env = OvercookedLiteEnv()
        state = env.reset(0)
        assert env.legal_actions(state) == ["get_bowl", "get_lettuce", "get_onion", "get_tomato"]

    def test_occupied_board_not_offered(self):
        env = OvercookedLiteEnv("tomato_lettuce_salad")
        state = "t=3 hand=tomato board=lettuce tomato=held lettuce=on_board onion=raw"
        assert env.legal_actions(state) == ["chop"]


BFS_DEPTH = 14
# never offered by any env: self-stacks are well-formed blocks-world
# actions that no valid state applies; the rest are malformed everywhere
NEVER_OFFERED = ["stack(a,a)", "unstack(a,a)", "fly(a)", "pickup(a,b)", "stack(a)", "pickup(z)",
                 "stack(a,z)", "juggle", "get_knife", "buy_c", ""]


@pytest.mark.parametrize("rate", [0.0, 1.0])
@pytest.mark.parametrize("name", list(ENVS))
def test_every_offered_action_steps(name, rate):
    """Breadth-first from reset: step accepts exactly what legal_actions offers.

    Every offered action steps. An action the state does not offer raises,
    except in blocks world, where a well-formed one leaves the state as it is.
    Failure rates 0 and 1 make every stochastic outcome deterministic, so
    the two searches together reach both outcomes of each risky action.
    Blocks world also runs over the benchmark's 16 five-block instances.
    """
    envs = [build_env(enumerate_runs({**DEFAULTS, "env": name, "failure_rate": rate,
                                      "chop_failure_rate": rate})[0])]
    if name == "blocksworld":
        envs += [generate_instance(8, 5, failure_rate=rate, seed=1000 + i) for i in range(16)]
    for env in envs:
        frontier = [env.reset(0)]
        seen = set(frontier)
        offered = {}
        rejected = []
        for _ in range(BFS_DEPTH):
            reached = []
            for state in frontier:
                offered[state] = env.legal_actions(state)
                for action in offered[state]:
                    try:
                        nxt, _, done = env.step(state, action)
                    except EnvError as exc:
                        rejected.append((state, action, str(exc)))
                        continue
                    if not done and nxt not in seen:
                        seen.add(nxt)
                        reached.append(nxt)
            frontier = reached
        assert rejected == []

        well_formed = operator_table(env.blocks) if name == "blocksworld" else {}
        actions = {a for acts in offered.values() for a in acts} | set(NEVER_OFFERED)
        for state, acts in offered.items():
            for action in sorted(actions - set(acts)):
                if action in well_formed:
                    assert env.step(state, action) == (state, 0.0, False)
                else:
                    with pytest.raises(EnvError, match="; legal: "):
                        env.step(state, action)


class TestDeterministicized:
    def test_mode_outcome_for_risky_stock_action(self):
        env = DeterministicizedEnv(StockEnv())
        state = env.reset(0)
        # over many wrapped calls the cumulative mode must settle on the
        # 60% outcome: profit with reward 1
        outcomes = [env.step(state, "buy_b") for _ in range(200)]
        nxt, r, done = outcomes[-1]
        assert (nxt, r, done) == ("sold_b_profit", 1.0, True)

    def test_deterministic_env_unchanged(self):
        env = DeterministicizedEnv(StockEnv())
        state = env.reset(0)
        assert env.step(state, "buy_a") == ("sold_a", 0.9, True)

    def test_reset_clears_tallies(self):
        env = DeterministicizedEnv(StockEnv())
        state = env.reset(0)
        env.step(state, "buy_b")
        env.reset(1)
        assert env._tally == {}

    def test_passthrough_metadata(self):
        inner = StockEnv()
        env = DeterministicizedEnv(inner)
        assert env.max_steps == inner.max_steps
        assert env.legal_actions(env.reset(0)) == inner.legal_actions("holding_cash")
