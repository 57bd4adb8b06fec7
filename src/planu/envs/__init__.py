"""Stochastic benchmark environments, the deterministicizing wrapper, and
the registry the experiment runner reads to build, tune and judge each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .base import Environment
from .blocksworld import BlocksworldEnv, generate_instance, parse_facts, parse_instance
from .overcooked import OvercookedLiteEnv
from .stock import StockEnv
from .wrappers import DeterministicizedEnv

INSTANCE_SEED_OFFSET = 1_000


@dataclass(frozen=True)
class EnvKind:
    """One environment as the experiment runner sees it."""

    # builds the env of a run from its config, failure_rate, seed and instance_index
    build: Callable[..., Environment]
    # rnd_output_gain when the config leaves it null
    rnd_output_gain: float
    # whether a search iteration's trace counts as a success
    solved: Callable[..., bool]
    # a run succeeds if its first evaluation rollout reaches the goal; if
    # False, if its final recommendation is solved
    judged_by_rollout: bool = True
    # sweeps the failure_rate and instances axes over generated instances
    instance_axes: bool = False


def _build_blocksworld(run) -> BlocksworldEnv:
    cfg = run.config
    if cfg.get("instance_file"):
        with open(cfg["instance_file"], encoding="utf-8") as fh:
            return BlocksworldEnv.from_instance(
                fh.read(), failure_rate=run.failure_rate, seed=run.seed
            )
    return generate_instance(
        cfg["n_steps"],
        cfg["n_blocks"],
        failure_rate=run.failure_rate,
        seed=INSTANCE_SEED_OFFSET + run.instance_index,
    )


ENVS = {
    # the small one-shot stock task needs a stronger novelty signal than the
    # multi-step domains to pull the search off the sure-profit action
    "stock": EnvKind(
        build=lambda run: StockEnv(seed=run.seed),
        rnd_output_gain=100.0,
        solved=lambda trace: trace.recommended_so_far == "buy_a",
        judged_by_rollout=False,
    ),
    "blocksworld": EnvKind(
        build=_build_blocksworld,
        rnd_output_gain=10.0,
        solved=lambda trace: trace.terminal and trace.total_reward >= 1.0,
        instance_axes=True,
    ),
    "overcooked": EnvKind(
        build=lambda run: OvercookedLiteEnv(
            run.config["recipe"], run.config["chop_failure_rate"], seed=run.seed
        ),
        rnd_output_gain=10.0,
        solved=lambda trace: trace.terminal and trace.total_reward > 0.5,
    ),
}

__all__ = [
    "ENVS",
    "EnvKind",
    "Environment",
    "StockEnv",
    "BlocksworldEnv",
    "OvercookedLiteEnv",
    "DeterministicizedEnv",
    "generate_instance",
    "parse_facts",
    "parse_instance",
]
