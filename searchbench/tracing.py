"""Spans around the public functions of each `planu` module.

The tracer replaces a function where the program looks it up (a module
attribute or a class attribute) with a wrapper that times the call, and
puts the original back on uninstall. Spans nest: a span's self time is
its duration minus the durations of the spans opened inside it. Spans are
kept in memory as totals per name, per (name, parent name) pair and per
extra counter.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._stack: list[list] = []  # [name, child time] of each open span
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.under = defaultdict(int)  # (name, parent name) -> calls
        self.counters = defaultdict(int)

    def take(self) -> dict:
        """The totals since the last reset, and a fresh start."""
        taken = {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "under": dict(self.under),
            "counters": dict(self.counters),
        }
        self.reset()
        return taken

    def patch(self, owner, attribute: str, name: str, count=None):
        """Wrap owner.attribute as span `name`.

        count(args, kwargs, result) may return {counter: amount} to add.
        """
        original = owner.__dict__[attribute]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                self.under[(name, parent)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def install_layers(tracer: Tracer):
    """Wrap the public functions of every measured module of `planu`."""
    import planu.cli
    import planu.config
    import planu.envs
    import planu.kernels
    import planu.planner
    import planu.tree
    from planu.envs import BlocksworldEnv, DeterministicizedEnv, StockEnv
    from planu.novelty import HashEmbedding, RndModel, StateBuffer
    from planu.tree import Tree

    def sampled(args, kwargs, result):
        rows, _ = result
        return {"sample_rows": rows.shape[0], "sample_drawn": args[1]}

    seen_texts = weakref.WeakKeyDictionary()  # provider -> texts it has embedded

    def embedded(args, kwargs, result):
        provider, text = args
        texts = seen_texts.setdefault(provider, set())
        new = text not in texts
        texts.add(text)
        return {"embed_new": int(new)}

    def updated(args, kwargs, result):
        return {"qr_targets": len(args[1])}

    def gradient(args, kwargs, result):
        values, _, targets, _ = args
        return {"qr_cells": values.shape[0] * targets.shape[0]}

    for module in (planu.planner, planu.cli):
        tracer.patch(module, "run_search", "planner.run_search")
        tracer.patch(module, "rollout_recommended", "planner.rollout")
    tracer.patch(planu.planner.UniformPolicy, "propose", "planner.propose")

    tracer.patch(RndModel, "train_predictor", "novelty.train")
    tracer.patch(RndModel, "novelty_reward", "novelty.score")
    tracer.patch(RndModel, "observe", "novelty.observe")
    tracer.patch(StateBuffer, "add", "novelty.buffer_add")
    tracer.patch(StateBuffer, "sample_weighted", "novelty.sample", sampled)
    tracer.patch(HashEmbedding, "embed", "novelty.embed", embedded)

    tracer.patch(planu.planner, "select_action", "tree.select")
    tracer.patch(planu.planner, "backpropagate", "tree.backup")
    tracer.patch(planu.planner, "recommend", "tree.recommend")
    tracer.patch(Tree, "expand", "tree.expand")
    tracer.patch(Tree, "attach_outcome", "tree.attach")
    tracer.patch(planu.cli, "snapshot", "tree.snapshot")

    tracer.patch(planu.tree, "qr_update", "quantile.qr_update", updated)
    tracer.patch(planu.kernels, "qr_gradient", "kernels.qr_gradient", gradient)

    for env_class in (BlocksworldEnv, StockEnv):
        tracer.patch(env_class, "step", "envs.step")
        tracer.patch(env_class, "legal_actions", "envs.legal_actions")
    tracer.patch(DeterministicizedEnv, "step", "envs.wrapper_step")
    for module in (planu.envs, planu.cli):
        tracer.patch(module, "generate_instance", "envs.generate")

    tracer.patch(planu.cli, "run_sweep", "cli.run_sweep")
    tracer.patch(planu.cli, "execute_run", "cli.execute_run")
    tracer.patch(planu.config, "validate_config", "config.validate")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(setup: dict, rounds: list[dict], factors: list[float], state_nodes: int,
                  action_nodes: int, artifact_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    Times are medians over the traced rounds, each round's scaled to
    reference seconds by its factor; set-up times are raw. Counts are per
    round, and the caller has checked that they repeat from round to round.
    """

    def t(kind, *names):
        return statistics.median(sum(r[kind].get(n, 0.0) for n in names) * f
                                 for r, f in zip(rounds, factors))

    first = rounds[0]
    calls, counters = first["calls"], first["counters"]

    def n(name):
        return calls.get(name, 0)

    return {
        "novelty.train_s": (t("self", "novelty.train"), "s"),
        "novelty.train_calls": (n("novelty.train"), "count"),
        "novelty.sample_s": (t("total", "novelty.sample"), "s"),
        "novelty.sample_unique_ratio": (
            _ratio(counters.get("sample_rows", 0), counters.get("sample_drawn", 0)), "ratio"),
        "novelty.score_s": (t("total", "novelty.score"), "s"),
        "novelty.score_calls": (n("novelty.score"), "count"),
        "novelty.observe_s": (t("total", "novelty.observe", "novelty.buffer_add"), "s"),
        "novelty.embed_s": (t("total", "novelty.embed"), "s"),
        "novelty.embed_calls": (n("novelty.embed"), "count"),
        "novelty.embed_hit_ratio": (
            _ratio(n("novelty.embed") - counters.get("embed_new", 0), n("novelty.embed")), "ratio"),
        "tree.select_s": (t("total", "tree.select"), "s"),
        "tree.select_calls": (n("tree.select"), "count"),
        "tree.backup_s": (t("self", "tree.backup"), "s"),
        "tree.backup_calls": (n("tree.backup"), "count"),
        "tree.expand_s": (t("total", "tree.expand"), "s"),
        "tree.attach_s": (t("total", "tree.attach"), "s"),
        "tree.recommend_s": (t("total", "tree.recommend"), "s"),
        "tree.recommend_calls": (n("tree.recommend"), "count"),
        "tree.state_nodes": (state_nodes, "count"),
        "tree.action_nodes": (action_nodes, "count"),
        "tree.snapshot_s": (t("total", "tree.snapshot"), "s"),
        "quantile.qr_update_s": (t("self", "quantile.qr_update"), "s"),
        "quantile.qr_update_calls": (n("quantile.qr_update"), "count"),
        "quantile.targets_per_update": (
            _ratio(counters.get("qr_targets", 0), n("quantile.qr_update")), "count"),
        "kernels.qr_gradient_s": (t("total", "kernels.qr_gradient"), "s"),
        "kernels.qr_gradient_cells": (counters.get("qr_cells", 0), "count"),
        "envs.step_s": (t("total", "envs.step"), "s"),
        "envs.step_calls": (n("envs.step"), "count"),
        "envs.legal_actions_s": (t("total", "envs.legal_actions"), "s"),
        "envs.inner_steps_per_step": (
            _ratio(first["under"].get(("envs.step", "envs.wrapper_step"), 0),
                   n("envs.wrapper_step")), "ratio"),
        "planner.self_s": (t("self", "planner.run_search", "planner.propose"), "s"),
        "planner.rollout_s": (t("total", "planner.rollout"), "s"),
        "cli.execute_run_s": (t("total", "cli.execute_run"), "s"),
        "cli.write_s": (
            t("total", "cli.run_sweep") - t("total", "cli.execute_run"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "config.validate_s": (setup["total"].get("config.validate", 0.0), "s"),
        "envs.generate_s": (setup["total"].get("envs.generate", 0.0) + t("total", "envs.generate"), "s"),
    }
