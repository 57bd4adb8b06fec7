"""Blocks-world simulator with stochastic action failures.

Classic four-operator domain (pickup, putdown, stack, unstack) over text
states, stated once in `operator_table`: `legal_actions` offers the
operators whose preconditions hold, and `step` takes any operator of the
table, one whose preconditions fail as a no-op. Each step fails with a
configurable probability, leaving the state unchanged. Reaching the goal
conjunction yields reward +1 and terminates.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache

import numpy as np

from ..errors import EnvError

_FACT_RE = re.compile(r"^(on|ontable|clear|holding)\(([a-z0-9_]+)(?:,([a-z0-9_]+))?\)$|^handempty$")
_UNARY = {"ontable", "clear", "holding"}
# generated instances name their blocks a, b, c, ... with single letters
MAX_BLOCKS = 26


@lru_cache(maxsize=1 << 16)
def parse_facts(text: str) -> frozenset[str]:
    """Parse whitespace-separated facts, rejecting unknown predicates.

    Memoized: a search parses the same few state texts over and over.
    """
    facts = set()
    for tok in text.split():
        m = _FACT_RE.match(tok)
        if m is None:
            raise EnvError(f"unknown fact {tok!r}")
        if m.group(1) == "on" and m.group(3) is None:
            raise EnvError(f"on() needs two arguments: {tok!r}")
        if m.group(1) in _UNARY and m.group(3) is not None:
            raise EnvError(f"{m.group(1)}() takes one argument: {tok!r}")
        facts.add(tok)
    return frozenset(facts)


def canonical(facts) -> str:
    return " ".join(sorted(facts))


def parse_instance(text: str) -> tuple[tuple[str, ...], frozenset[str], frozenset[str]]:
    """Parse an instance file: `blocks:`, `init:`, and `goal:` lines, each
    block listed once and each fact over listed blocks, none on itself."""
    blocks: tuple[str, ...] | None = None
    init: frozenset[str] | None = None
    goal: frozenset[str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        if head == "blocks":
            blocks = tuple(sorted(rest.split()))
        elif head == "init":
            init = parse_facts(rest)
        elif head == "goal":
            goal = parse_facts(rest)
        else:
            raise EnvError(f"unknown instance line {line!r}")
    if blocks is None or init is None or goal is None:
        raise EnvError("instance must define blocks:, init:, and goal:")
    for b, c in zip(blocks, blocks[1:]):
        if b == c:
            raise EnvError(f"block {b} is listed twice")
    facts = {f for pre, _ in operator_table(blocks).values() for f in pre}
    facts -= {f"on({b},{b})" for b in blocks}
    unknown = sorted((init | goal) - facts)
    if unknown:
        raise EnvError(f"{unknown[0]} is no fact over blocks {' '.join(blocks)}")
    return blocks, init, goal


@cache
def operator_table(blocks: tuple[str, ...]) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Grounded operators over `blocks`: action -> (preconditions, added
    facts), in sorted action order; cached, so never mutate it.

    Each operator deletes exactly its preconditions. stack(x,x) and
    unstack(x,x) are grounded too, as well-formed actions that no valid
    state can apply."""
    ops = {}
    for x in blocks:
        held, clear_x = f"holding({x})", f"clear({x})"
        ops[f"pickup({x})"] = ({clear_x, f"ontable({x})", "handempty"}, {held})
        ops[f"putdown({x})"] = ({held}, {f"ontable({x})", clear_x, "handempty"})
        for y in blocks:
            on, clear_y = f"on({x},{y})", f"clear({y})"
            ops[f"stack({x},{y})"] = ({held, clear_y}, {on, clear_x, "handempty"})
            ops[f"unstack({x},{y})"] = ({on, clear_x, "handempty"}, {held, clear_y})
    return {a: (frozenset(pre), frozenset(add)) for a, (pre, add) in sorted(ops.items())}


def _check_state(blocks, facts):
    """Reject facts that are not exactly one layout: each block on the table,
    on one other block or in the hand, one block at most on each block and in
    the hand, and `clear` and `handempty` where that layout puts them."""
    held = [b for b in blocks if f"holding({b})" in facts]
    if len(held) > 1:
        raise EnvError(f"more than one block held: {held}")
    layout, above = set(), {}  # above: block -> the block on it
    for b in blocks:
        under = [c for c in blocks if f"on({b},{c})" in facts]
        places = [f for f in (f"ontable({b})", f"holding({b})") if f in facts]
        places += [f"on({b},{c})" for c in under]
        if len(places) != 1:
            raise EnvError(f"block {b} is in {len(places)} places")
        layout.add(places[0])
        if under:
            above[under[0]] = b
    tower = [b for b in blocks if f"ontable({b})" in facts]
    for b in tower:  # grows while it is walked, up every tower
        if b in above:
            tower.append(above[b])
    lost = sorted(set(blocks) - set(tower) - set(held))
    if lost:
        raise EnvError(f"blocks {lost} are in no tower on the table")
    layout |= {f"clear({b})" for b in blocks if b not in above and b not in held}
    if not held:
        layout.add("handempty")
    wrong = sorted(layout ^ facts)
    if wrong:
        verdict = "missing from" if wrong[0] in layout else "false in"
        raise EnvError(f"{wrong[0]} is {verdict} the layout")


class BlocksworldEnv:
    """STRIPS blocks world; actions succeed with prob 1 - failure_rate."""

    def __init__(self, blocks, init_facts, goal_facts, failure_rate: float = 0.2, seed: int = 0):
        if not (0.0 <= failure_rate <= 1.0):
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        self.blocks = tuple(sorted(blocks))
        self.init_facts = frozenset(init_facts)
        self.goal_facts = frozenset(goal_facts)
        self.failure_rate = failure_rate
        self.max_steps = 40
        _check_state(self.blocks, self.init_facts)
        self._operators = operator_table(self.blocks)
        self._rng = np.random.default_rng(seed)
        # (state, action_text) -> (state if the action succeeds, done if it
        # succeeds, done if it fails): a step is a pure function of the pair
        # and the failure draw, so each pair is worked out once
        self._outcomes: dict[tuple[str, str], tuple[str, bool, bool]] = {}

    @classmethod
    def from_instance(cls, text: str, failure_rate: float = 0.2, seed: int = 0):
        blocks, init, goal = parse_instance(text)
        return cls(blocks, init, goal, failure_rate, seed)

    def instance_text(self) -> str:
        return (
            f"blocks: {' '.join(self.blocks)}\n"
            f"init: {canonical(self.init_facts)}\n"
            f"goal: {canonical(self.goal_facts)}\n"
        )

    def reset(self, seed: int) -> str:
        self._rng = np.random.default_rng(seed)
        return canonical(self.init_facts)

    def goal_reached(self, state: str) -> bool:
        return self.goal_facts <= parse_facts(state)

    def legal_actions(self, state: str) -> list[str]:
        facts = parse_facts(state)
        return [a for a, (pre, _) in self._operators.items() if pre <= facts]

    def step(self, state: str, action_text: str) -> tuple[str, float, bool]:
        key = (state, action_text)
        outcome = self._outcomes.get(key)
        if outcome is None:
            op = self._operators.get(action_text.strip())
            if op is None:
                raise EnvError(f"unknown action {action_text!r} in state {state!r}; "
                               f"legal: {self.legal_actions(state)}")
        # one draw per step, after the action is checked and before the state
        # is read, whether or not the action applies or its outcome is memoised
        failed = self._rng.random() < self.failure_rate
        if outcome is None:
            pre, add = op
            facts = parse_facts(state)
            # an inapplicable action leaves the state unchanged either way
            success = canonical((facts - pre) | add) if pre <= facts else state
            outcome = self._outcomes[key] = (
                success, self.goal_reached(success), self.goal_reached(state))
        next_state, done_if_success, done_if_failed = outcome
        if failed:
            next_state, done = state, done_if_failed
        else:
            done = done_if_success
        return next_state, (1.0 if done else 0.0), done


def random_goal_state(blocks, rng: np.random.Generator) -> frozenset[str]:
    """Random full configuration: blocks partitioned into stacks, hand empty."""
    order = list(blocks)
    rng.shuffle(order)
    facts = {"handempty"}
    stacks: list[list[str]] = []
    for b in order:
        if stacks and rng.random() < 0.6:
            stacks[rng.integers(0, len(stacks))].append(b)
        else:
            stacks.append([b])
    for stack in stacks:
        facts.add(f"ontable({stack[0]})")
        for below, above in zip(stack, stack[1:]):
            facts.add(f"on({above},{below})")
        facts.add(f"clear({stack[-1]})")
    return frozenset(facts)


def generate_instance(
    n_steps: int,
    n_blocks: int = 4,
    failure_rate: float = 0.2,
    seed: int = 0,
) -> BlocksworldEnv:
    """Solvable instance built by walking backward from a random goal state.

    The walk applies n_steps reversible moves (pick + place pairs), so the
    returned instance is solvable in at most n_steps actions. The goal is
    the conjunction of on() facts of the goal configuration.
    """
    if n_steps < 2 or n_steps % 2:
        raise ValueError("n_steps must be an even integer >= 2")
    if n_blocks > MAX_BLOCKS:
        raise ValueError(
            f"n_blocks must be at most {MAX_BLOCKS} (blocks are named a-z), got {n_blocks}"
        )
    rng = np.random.default_rng(seed)
    blocks = tuple(chr(ord("a") + i) for i in range(n_blocks))
    for _ in range(200):
        goal_state = random_goal_state(blocks, rng)
        goal = frozenset(f for f in goal_state if f.startswith("on("))
        if not goal:
            continue
        walker = BlocksworldEnv(blocks, goal_state, goal, failure_rate=0.0,
                                seed=int(rng.integers(1 << 31)))
        state = canonical(goal_state)
        ok = True
        for _ in range(n_steps // 2):
            picks = [a for a in walker.legal_actions(state) if not a.startswith(("putdown", "stack"))]
            if not picks:
                ok = False
                break
            pick = picks[rng.integers(0, len(picks))]
            mid, _, _ = walker.step(state, pick)
            args = pick[pick.index("(") + 1 : -1]
            origin = f"stack({args})" if pick.startswith("unstack") else f"putdown({args})"
            places = [a for a in walker.legal_actions(mid) if a != origin]
            if not places:
                ok = False
                break
            state, _, _ = walker.step(mid, places[rng.integers(0, len(places))])
        if not ok:
            continue
        init = parse_facts(state)
        if goal <= init:
            continue
        return BlocksworldEnv(blocks, init, goal, failure_rate=failure_rate, seed=seed)
    raise EnvError(f"could not generate a {n_steps}-step instance with {n_blocks} blocks")
