"""Blocks-world simulator with stochastic action failures.

Classic four-operator domain (pickup, putdown, stack, unstack) over text
states. Each syntactically legal action fails with a configurable
probability, leaving the state unchanged. Reaching the goal conjunction
yields reward +1 and terminates.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from ..errors import EnvError

_FACT_RE = re.compile(r"^(on|ontable|clear|holding)\(([a-z0-9_]+)(?:,([a-z0-9_]+))?\)$|^handempty$")
_ACTION_RE = re.compile(r"^(pickup|putdown|stack|unstack)\(([a-z0-9_]+)(?:,([a-z0-9_]+))?\)$")
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
    """Parse an instance file: `blocks:`, `init:`, and `goal:` lines."""
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
    return blocks, init, goal


def _check_state(blocks, facts):
    """Structural invariants: each block in exactly one place, one held."""
    held = [b for b in blocks if f"holding({b})" in facts]
    if len(held) > 1:
        raise EnvError(f"more than one block held: {held}")
    if held and "handempty" in facts:
        raise EnvError("handempty while holding a block")
    for b in blocks:
        places = int(f"ontable({b})" in facts) + int(b in held)
        places += sum(1 for c in blocks if f"on({b},{c})" in facts)
        if places != 1:
            raise EnvError(f"block {b} is in {places} places")


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
        self._rng = np.random.default_rng(seed)

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
        acts = []
        held = next((b for b in self.blocks if f"holding({b})" in facts), None)
        if held is None:
            for b in self.blocks:
                if f"clear({b})" not in facts:
                    continue
                if f"ontable({b})" in facts:
                    acts.append(f"pickup({b})")
                else:
                    under = next(c for c in self.blocks if f"on({b},{c})" in facts)
                    acts.append(f"unstack({b},{under})")
        else:
            acts.append(f"putdown({held})")
            for c in self.blocks:
                if c != held and f"clear({c})" in facts:
                    acts.append(f"stack({held},{c})")
        return sorted(acts)

    def _apply(self, facts: set[str], op: str, x: str, y: str | None) -> bool:
        """Apply effects if preconditions hold; False means not applicable."""
        if op == "pickup":
            if not ({f"clear({x})", f"ontable({x})", "handempty"} <= facts):
                return False
            facts -= {f"clear({x})", f"ontable({x})", "handempty"}
            facts.add(f"holding({x})")
        elif op == "putdown":
            if f"holding({x})" not in facts:
                return False
            facts.remove(f"holding({x})")
            facts |= {f"ontable({x})", f"clear({x})", "handempty"}
        elif op == "stack":
            if not ({f"holding({x})", f"clear({y})"} <= facts):
                return False
            facts -= {f"holding({x})", f"clear({y})"}
            facts |= {f"on({x},{y})", f"clear({x})", "handempty"}
        else:  # unstack
            if not ({f"on({x},{y})", f"clear({x})", "handempty"} <= facts):
                return False
            facts -= {f"on({x},{y})", f"clear({x})", "handempty"}
            facts |= {f"holding({x})", f"clear({y})"}
        return True

    def step(self, state: str, action_text: str) -> tuple[str, float, bool]:
        m = _ACTION_RE.match(action_text.strip())
        if m is None:
            raise EnvError(f"malformed action {action_text!r}")
        op, x, y = m.group(1), m.group(2), m.group(3)
        if (op in ("stack", "unstack")) != (y is not None):
            raise EnvError(f"wrong arity for {op}: {action_text!r}")
        if x not in self.blocks or (y is not None and y not in self.blocks):
            raise EnvError(f"unknown block in {action_text!r}")
        # draw before the legality check so the RNG stream is consumed
        # identically whether or not the action turns out to apply
        failed = self._rng.random() < self.failure_rate
        facts = set(parse_facts(state))
        applicable = self._apply(facts, op, x, y)
        next_state = canonical(facts) if applicable and not failed else state
        done = self.goal_facts <= parse_facts(next_state)
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
