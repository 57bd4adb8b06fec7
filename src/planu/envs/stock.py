"""One-shot stock-buying task with a safe and a risky action.

Buying stock a pays 0.9 for sure; buying stock b pays 1 with probability
0.6 and 0 otherwise. The two outcomes of b terminate in distinct states so
a search tree represents them as separate children.
"""

from __future__ import annotations

import numpy as np

from ..errors import EnvError

INITIAL_STATE = "holding_cash"
ACTIONS = ("buy_a", "buy_b")
PROFIT_B_PROB = 0.6


def _legal(state: str) -> tuple[str, ...]:
    return ACTIONS if state == INITIAL_STATE else ()


class StockEnv:
    """Single-decision environment; both actions are terminal."""

    max_steps = 1

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def reset(self, seed: int) -> str:
        self._rng = np.random.default_rng(seed)
        return INITIAL_STATE

    def legal_actions(self, state: str) -> list[str]:
        return list(_legal(state))

    def step(self, state: str, action_text: str) -> tuple[str, float, bool]:
        if action_text not in _legal(state):
            raise EnvError(f"illegal action {action_text!r} in state {state!r}; "
                           f"legal: {list(_legal(state))}")
        if action_text == "buy_a":
            return "sold_a", 0.9, True
        if self._rng.random() < PROFIT_B_PROB:
            return "sold_b_profit", 1.0, True
        return "sold_b_zero", 0.0, True
