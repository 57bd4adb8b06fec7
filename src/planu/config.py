"""Experiment configuration: parsing, schema validation, defaults.

Accepts a flat key-value text file (optionally organized with [section]
headers, which are cosmetic) or a JSON object. Validation is fail-closed:
unknown keys, duplicate keys, and out-of-range values are aggregated into
line-numbered diagnostics rather than silently ignored.
"""

from __future__ import annotations

import json

from .envs import ENVS
from .envs.blocksworld import MAX_BLOCKS
from .envs.overcooked import RECIPES
from .errors import ConfigError
from .planner import CONFIG_FIELDS, VARIANTS
from .rules import Rule, at_least, is_int, one_of, real


def _planner_key(f) -> Rule:
    rule = f.metadata["rule"]
    if not f.metadata["env_default"]:
        return rule
    return Rule(
        lambda x: x is None or rule.check(x), f"{rule.describe} (null selects the env's default)"
    )


def _nonempty_list(item):
    return lambda x: isinstance(x, list) and len(x) > 0 and all(item(v) for v in x)


_RATE = real(0.0, 1.0)
_PATH = Rule(lambda x: isinstance(x, str) and x, "nonempty path")

SCHEMA: dict[str, Rule] = {
    "env": one_of(ENVS),
    "seeds": Rule(_nonempty_list(at_least(0).check), "nonempty list of integers >= 0"),
    "variants": Rule(
        _nonempty_list(one_of(VARIANTS).check), f"nonempty list drawn from {tuple(VARIANTS)}"
    ),
    **{f.name: _planner_key(f) for f in CONFIG_FIELDS},
    "failure_rate": Rule(
        lambda x: _RATE.check(x) or _nonempty_list(_RATE.check)(x),
        "rate in [0, 1] or a nonempty list of rates",
    ),
    "n_steps": Rule(lambda x: is_int(x) and x >= 2 and x % 2 == 0, "even integer >= 2"),
    "n_blocks": Rule(
        lambda x: is_int(x) and 3 <= x <= MAX_BLOCKS, f"integer in [3, {MAX_BLOCKS}]"
    ),
    "instances": at_least(1),
    "instance_file": _PATH,
    "recipe": one_of(RECIPES),
    "chop_failure_rate": _RATE,
    "out_dir": _PATH,
    "parallelism": Rule(at_least(0).check, "integer >= 0 (0 = auto)"),
}

DEFAULTS: dict = {
    "env": "stock",
    "seeds": [0],
    "variants": ["full"],
    **{f.name: None if f.metadata["env_default"] else f.default for f in CONFIG_FIELDS},
    "failure_rate": 0.2,
    "n_steps": 4,
    "n_blocks": 4,
    "instances": 1,
    "recipe": "tomato_salad",
    "chop_failure_rate": 0.2,
    "out_dir": "runs",
    "parallelism": 0,
}


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        pass
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    return raw


def parse_text_config(text: str) -> tuple[dict, dict[str, int], list[str]]:
    """Parse the key-value format; returns (values, key line numbers, errors)."""
    values: dict = {}
    lines_of: dict[str, int] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, rest = line.partition(sep)
                break
        else:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key = key.strip()
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r} (first at line {lines_of[key]})")
            continue
        values[key] = _parse_value(rest)
        lines_of[key] = lineno
    return values, lines_of, errors


def _json_pairs_hook(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError([f"duplicate key {key!r} in JSON config"])
        seen[key] = value
    return seen


def _read_text(path: str, name: str) -> tuple[str | None, str | None]:
    """(the file's text, None), or (None, why it cannot be read); the
    diagnostic calls the file `name`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read(), None
    except OSError as exc:
        return None, f"cannot read {name}: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        return None, f"{name} is not UTF-8 text: byte {exc.start}: {exc.reason}"


def parse_config_file(path: str) -> tuple[dict, dict[str, int], list[str]]:
    text, problem = _read_text(path, f"config file {path!r}")
    if problem:
        return {}, {}, [problem]
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        try:
            values = json.loads(text, object_pairs_hook=_json_pairs_hook)
        except json.JSONDecodeError as exc:
            return {}, {}, [f"line {exc.lineno}: invalid JSON: {exc.msg}"]
        if not isinstance(values, dict):
            return {}, {}, ["line 1: JSON config must be an object"]
        return values, {}, []
    return parse_text_config(text)


def _key_problem(key: str, value, where: str) -> str | None:
    """The diagnostic for one key's value, or None if the schema accepts it."""
    if key not in SCHEMA:
        return f"{where}unknown key {key!r}"
    if not SCHEMA[key].check(value):
        return f"{where}key {key!r}: expected {SCHEMA[key].describe}, got {value!r}"
    return None


def validate_config(path: str, overrides: dict | None = None) -> dict:
    """Load, validate, and normalize a config file.

    Overrides (CLI flags) take precedence over file values, which take
    precedence over defaults. Raises ConfigError with one diagnostic per
    problem; unknown keys are errors.
    """
    values, lines_of, errors = parse_config_file(path)
    diagnostics = list(errors)
    # a bare scalar is shorthand for a one-element list on the sweep axes
    for key in ("seeds", "variants"):
        if key in values and not isinstance(values[key], list):
            values[key] = [values[key]]

    def where(key):
        return f"line {lines_of[key]}: " if key in lines_of else ""

    def source(key):
        return "override: " if (overrides or {}).get(key) == merged[key] else where(key)

    for key, value in values.items():
        problem = _key_problem(key, value, where(key))
        if problem:
            diagnostics.append(problem)
    merged = {**DEFAULTS, **{k: v for k, v in values.items() if k in SCHEMA}}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        problem = _key_problem(key, value, "override: ")
        if problem:
            diagnostics.append(problem)
        else:
            merged[key] = value
    instance_file = merged.get("instance_file")
    if _PATH.check(instance_file):
        _, problem = _read_text(instance_file, repr(instance_file))
        if problem:
            diagnostics.append(f"{source('instance_file')}key 'instance_file': {problem}")
    # a repeated value on a sweep axis would run one grid point twice under one
    # run id; failure rates are compared as the run id prints them
    for key, label in (("seeds", repr), ("variants", repr), ("failure_rate", "{:g}".format)):
        value = merged[key]
        if isinstance(value, list) and SCHEMA[key].check(value):
            labels = [label(v) for v in value]
            repeated = sorted({x for x in labels if labels.count(x) > 1})
            if repeated:
                diagnostics.append(
                    f"{source(key)}key {key!r}: expected distinct values, got {value!r} "
                    f"(repeated: {', '.join(repeated)})"
                )
    instances = merged["instances"]
    if instance_file and is_int(instances) and instances > 1:
        diagnostics.append(
            f"{where('instances')}key 'instances': expected 1 with instance_file, which "
            f"fixes the one instance, got {instances!r}"
        )
    if diagnostics:
        raise ConfigError(diagnostics)
    if isinstance(merged["failure_rate"], list):
        merged["failure_rate"] = [float(v) for v in merged["failure_rate"]]
    return merged
