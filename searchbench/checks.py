"""Correctness checks written apart from the program.

Blocks world is re-modelled here as plain STRIPS operators (precondition,
add and delete sets) with a breadth-first planner, so that instances and
rollouts are judged by a model that shares no code with `planu.envs`.
The tree checks state properties the method must have; the sweep checks
read the artifacts a sweep leaves on disk. Every check returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import os
import re
from collections import deque

_FACT = re.compile(r"^(?:handempty|(?:ontable|clear|holding)\([a-z0-9_]+\)|on\([a-z0-9_]+,[a-z0-9_]+\))$")
_ARGS = re.compile(r"\(([^)]*)\)")


def parse_state(text: str) -> frozenset[str]:
    """Whitespace-separated blocks-world facts; an unknown token is an error."""
    facts = text.split()
    bad = [f for f in facts if not _FACT.match(f)]
    if bad:
        raise ValueError(f"unknown facts {bad} in state {text!r}")
    return frozenset(facts)


def blocks_of(facts) -> list[str]:
    names = set()
    for fact in facts:
        m = _ARGS.search(fact)
        if m:
            names.update(m.group(1).split(","))
    return sorted(names)


def operators(blocks) -> dict[str, tuple[frozenset, frozenset, frozenset]]:
    """Grounded STRIPS operators: action text -> (pre, add, delete)."""
    ops = {}
    for x in blocks:
        pre = frozenset({f"clear({x})", f"ontable({x})", "handempty"})
        ops[f"pickup({x})"] = (pre, frozenset({f"holding({x})"}), pre)
        pre = frozenset({f"holding({x})"})
        ops[f"putdown({x})"] = (pre, frozenset({f"ontable({x})", f"clear({x})", "handempty"}), pre)
        for y in blocks:
            if y == x:
                continue
            pre = frozenset({f"holding({x})", f"clear({y})"})
            add = frozenset({f"on({x},{y})", f"clear({x})", "handempty"})
            ops[f"stack({x},{y})"] = (pre, add, pre)
            pre = frozenset({f"on({x},{y})", f"clear({x})", "handempty"})
            ops[f"unstack({x},{y})"] = (pre, frozenset({f"holding({x})", f"clear({y})"}), pre)
    return ops


def legal(ops, facts) -> list[str]:
    return sorted(a for a, (pre, _, _) in ops.items() if pre <= facts)


def apply(ops, facts, action):
    pre, add, delete = ops[action]
    return (facts - delete) | add


def plan_length(init, goal, ops, limit: int) -> int | None:
    """Length of a shortest plan reaching every goal fact, if at most limit."""
    frontier = deque([(init, 0)])
    seen = {init}
    while frontier:
        facts, depth = frontier.popleft()
        if goal <= facts:
            return depth
        if depth == limit:
            continue
        for action in legal(ops, facts):
            nxt = apply(ops, facts, action)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return None


def check_instance(name, init_text, goal_text, n_steps) -> list[str]:
    init, goal = parse_state(init_text), parse_state(goal_text)
    ops = operators(blocks_of(init | goal))
    length = plan_length(init, goal, ops, n_steps)
    if length is None:
        return [f"{name}: no plan of at most {n_steps} steps"]
    if length == 0:
        return [f"{name}: the goal already holds in the initial state"]
    return []


def check_rollout(name, goal_text, transitions, total) -> list[str]:
    """Every step is legal and has a STRIPS outcome; goal claims are true.

    transitions holds (state, action, next_state, reward, done) tuples; an
    action that fails leaves the state as it was.
    """
    goal = parse_state(goal_text)
    problems = []
    for i, (state, action, nxt, reward, done) in enumerate(transitions):
        facts, after = parse_state(state), parse_state(nxt)
        ops = operators(blocks_of(facts | goal))
        if action not in legal(ops, facts):
            problems.append(f"{name} step {i}: {action} is illegal in {state!r}")
            continue
        if after not in (facts, apply(ops, facts, action)):
            problems.append(f"{name} step {i}: {action} gave the impossible state {nxt!r}")
        reached = goal <= after
        if done != reached or reward != (1.0 if reached else 0.0):
            problems.append(f"{name} step {i}: reward {reward} done {done}, goal reached {reached}")
    if transitions and transitions[-1][4] and total > 0.5:
        if not goal <= parse_state(transitions[-1][2]):
            problems.append(f"{name}: counted as reaching the goal but ends outside it")
    return problems


def check_tree(name, nodes, root, iterations, legal_at_root, recommended, lo=0.0, hi=1.0) -> list[str]:
    """Search-tree properties on a neutral form of the tree.

    nodes is a list of (visits, [(action_visits, values), ...]) with values
    the action's quantile values (or its scalar mean alone); root indexes
    the root node.
    """
    problems = []
    for i, (visits, actions) in enumerate(nodes):
        if visits != sum(n for n, _ in actions):
            problems.append(f"{name}: node {i} has {visits} visits, its actions {[n for n, _ in actions]}")
        for n, values in actions:
            if any(not lo <= v <= hi for v in values):
                problems.append(f"{name}: node {i} holds a value outside [{lo}, {hi}]")
                break
    if nodes[root][0] != iterations:
        problems.append(f"{name}: root visits {nodes[root][0]} != {iterations} iterations")
    if recommended not in legal_at_root:
        problems.append(f"{name}: recommended {recommended!r} is not legal at the root")
    return problems


def snapshot_nodes(tree_json) -> tuple[list, int]:
    """The neutral tree form of a `planu.tree.snapshot` dictionary."""
    order = {node["id"]: i for i, node in enumerate(tree_json["nodes"])}
    nodes = [
        (node["visits"], [(a["N"], [a["mean"]]) for a in node["actions"]])
        for node in tree_json["nodes"]
    ]
    return nodes, order[tree_json["root"]]


def check_sweep_dir(out_dir, records, iterations, stock_expect, instances) -> list[str]:
    """Artifacts and records of one `run_sweep` call.

    stock_expect maps a variant to the action it must recommend on the stock
    task, if any; instances maps a blocks-world instance index to (init, goal) texts.
    """
    problems = []
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [r["run_id"] for r in rows] != [r["run_id"] for r in records]:
        problems.append(f"{out_dir}: summary.csv does not list one row per run")
    for rec in records:
        run_id = rec["run_id"]
        if "error" in rec:
            problems.append(f"{run_id}: {rec['error']}")
            continue
        with open(os.path.join(out_dir, f"{run_id}.trace.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        if len(lines) != iterations + 1 or "error" in lines[0]:
            problems.append(f"{run_id}: trace has {len(lines)} lines for {iterations} iterations")
        if [line["iteration"] for line in lines[1:]] != list(range(iterations)):
            problems.append(f"{run_id}: trace iterations are out of order")
        with open(os.path.join(out_dir, f"{run_id}.tree.json"), encoding="utf-8") as fh:
            tree_json = json.load(fh)
        nodes, root = snapshot_nodes(tree_json)
        if rec["env"] == "stock":
            root_legal = ["buy_a", "buy_b"]
            expected = stock_expect.get(rec["variant"], rec["recommended"])
            if rec["recommended"] != expected:
                problems.append(f"{run_id}: recommends {rec['recommended']}, expected {expected}")
        else:
            init_text, goal_text = instances[rec["instance"]]
            facts = parse_state(init_text)
            root_legal = legal(operators(blocks_of(facts | parse_state(goal_text))), facts)
        problems += check_tree(run_id, nodes, root, iterations, root_legal, rec["recommended"])
    return problems
