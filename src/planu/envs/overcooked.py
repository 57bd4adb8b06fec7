"""Macro-action salad-cooking task with stochastic chopping.

Three ingredients (tomato, lettuce, onion) move through raw -> on the
cutting board -> in the bowl. Chop fails 20% of the time by default.
Delivering the bowl with exactly the recipe's ingredients ends the episode
with +1; a wrong delivery costs -0.1 and sends the wrong ingredients back
to their initial raw position. Every macro step costs 0.001. `_legal` is
the one statement of the preconditions: `step` rejects any action that
`legal_actions` does not offer.
"""

from __future__ import annotations

import numpy as np

from ..errors import EnvError

INGREDIENTS = ("tomato", "lettuce", "onion")
STEP_PENALTY = 0.001
CHOP_REWARD = 0.2
DELIVER_REWARD = 1.0
WRONG_DELIVERY_PENALTY = -0.1
EPISODE_LIMIT = 200

RECIPES = {
    "tomato_salad": frozenset({"tomato"}),
    "tomato_lettuce_salad": frozenset({"tomato", "lettuce"}),
    "full_salad": frozenset({"tomato", "lettuce", "onion"}),
}


# the values each field of a state takes, but t, which is an integer >= 0
VALUES = {"hand": ("none", "bowl", *INGREDIENTS), "board": ("none", *INGREDIENTS),
          **dict.fromkeys(INGREDIENTS, ("raw", "held", "on_board", "in_bowl"))}
FIELDS = ("t", *VALUES)


def _parse(state: str) -> dict:
    """The fields of a state. Raises EnvError, naming the state, unless it
    gives each field once and within its values, and the hand and the board
    hold exactly the ingredients marked `held` and `on_board`."""
    malformed = f"malformed state {state!r}: "
    fields = {}
    for tok in state.split():
        key, sep, value = tok.partition("=")
        if not sep:
            raise EnvError(f"{malformed}{tok!r} is not field=value")
        if key not in FIELDS or key in fields:
            raise EnvError(f"{malformed}field {key!r} is "
                           f"{'repeated' if key in fields else 'unknown'}")
        fields[key] = value
    missing = [key for key in FIELDS if key not in fields]
    if missing:
        raise EnvError(f"{malformed}fields {missing} are missing")
    if not fields["t"].isdecimal():
        raise EnvError(f"{malformed}t={fields['t']} is not an integer >= 0")
    for key, allowed in VALUES.items():
        if fields[key] not in allowed:
            raise EnvError(f"{malformed}{key}={fields[key]} is not one of {allowed}")
    hand, board = fields["hand"], fields["board"]
    status = {ing: fields[ing] for ing in INGREDIENTS}
    for ing, s in status.items():
        if (s == "held") != (hand == ing) or (s == "on_board") != (board == ing):
            raise EnvError(f"{malformed}{ing}={s} disagrees with hand={hand} board={board}")
    return {"t": int(fields["t"]), "hand": hand, "board": board, "status": status}


def _render(t: int, hand: str, board: str, status: dict) -> str:
    parts = [f"t={t}", f"hand={hand}", f"board={board}"]
    parts += [f"{ing}={status[ing]}" for ing in INGREDIENTS]
    return " ".join(parts)


def _legal(s: dict) -> list[str]:
    """The actions a parsed state allows: the one statement of the rules."""
    acts = []
    if s["hand"] == "none":
        acts += [f"get_{ing}" for ing in INGREDIENTS if s["status"][ing] == "raw"]
        acts.append("get_bowl")
    elif s["hand"] == "bowl":
        acts.append("deliver")
    elif s["board"] == "none":
        acts.append("go_cutting_board")
    if s["board"] != "none":
        acts.append("chop")
    return acts


class OvercookedLiteEnv:
    """Single-cook kitchen at the macro-action level (no grid navigation)."""

    max_steps = EPISODE_LIMIT

    def __init__(self, recipe: str = "tomato_salad", chop_failure_rate: float = 0.2, seed: int = 0):
        if recipe not in RECIPES:
            raise ValueError(f"unknown recipe {recipe!r}; known: {sorted(RECIPES)}")
        if not (0.0 <= chop_failure_rate <= 1.0):
            raise ValueError(f"chop_failure_rate must be in [0, 1], got {chop_failure_rate}")
        self.recipe = recipe
        self.target = RECIPES[recipe]
        self.chop_failure_rate = chop_failure_rate
        self._rng = np.random.default_rng(seed)

    def reset(self, seed: int) -> str:
        self._rng = np.random.default_rng(seed)
        return _render(0, "none", "none", {ing: "raw" for ing in INGREDIENTS})

    def legal_actions(self, state: str) -> list[str]:
        return sorted(_legal(_parse(state)))

    def step(self, state: str, action_text: str) -> tuple[str, float, bool]:
        s = _parse(state)
        legal = _legal(s)
        if action_text not in legal:
            raise EnvError(f"illegal action {action_text!r} in state {state!r}; "
                           f"legal: {sorted(legal)}")
        hand, board, status = s["hand"], s["board"], dict(s["status"])
        t = s["t"] + 1
        r = -STEP_PENALTY
        done = False

        if action_text == "get_bowl":
            hand = "bowl"
        elif action_text.startswith("get_"):
            hand = action_text[4:]
            status[hand] = "held"
        elif action_text == "go_cutting_board":
            board, status[hand], hand = hand, "on_board", "none"
        elif action_text == "chop":
            if self._rng.random() >= self.chop_failure_rate:
                status[board] = "in_bowl"
                if board in self.target:
                    r += CHOP_REWARD
                board = "none"
        else:  # deliver
            in_bowl = {ing for ing in INGREDIENTS if status[ing] == "in_bowl"}
            if in_bowl == self.target:
                r += DELIVER_REWARD
                done = True
            else:
                r += WRONG_DELIVERY_PENALTY
                for ing in in_bowl - self.target:
                    status[ing] = "raw"
                hand = "none"

        if t >= EPISODE_LIMIT:
            done = True
        return _render(t, hand, board, status), r, done
