"""Environment wrapper that replaces stochastic outcomes with the mode.

Each wrapped step queries the inner environment SAMPLES times for the same
(state, action) pair and returns the most frequent outcome seen so far for
that pair, accumulated across calls (ties broken by first occurrence).
This emulates planners that deterministicize a stochastic world model by
keeping only the most frequent next state.
"""

from __future__ import annotations

SAMPLES = 5  # inner steps per wrapped step; no config or workload sets another value


class DeterministicizedEnv:
    """Mode-outcome wrapper around any text-state environment."""

    def __init__(self, inner):
        self.inner = inner
        self.max_steps = inner.max_steps
        # (state, action) -> next state -> [count, first (next, reward, done) seen],
        # in order of first sight
        self._tally: dict[tuple[str, str], dict[str, list]] = {}

    def reset(self, seed: int) -> str:
        self._tally.clear()
        return self.inner.reset(seed)

    def legal_actions(self, state: str) -> list[str]:
        return self.inner.legal_actions(state)

    def step(self, state: str, action_text: str) -> tuple[str, float, bool]:
        tally = self._tally.setdefault((state, action_text), {})
        for _ in range(SAMPLES):
            out = self.inner.step(state, action_text)
            tally.setdefault(out[0], [0, out])[0] += 1
        # max keeps the first of equal counts: the earliest-seen mode
        return max(tally.values(), key=lambda slot: slot[0])[1]
