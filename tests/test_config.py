import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planu.cli import enumerate_runs, execute_run, main
from planu.config import DEFAULTS, SCHEMA, parse_text_config, validate_config
from planu.envs import ENVS
from planu.envs.blocksworld import MAX_BLOCKS
from planu.envs.overcooked import RECIPES
from planu.errors import ConfigError, PlanuError
from planu.planner import VARIANTS


INSTANCE = "blocks: a b\ninit: ontable(a) ontable(b) clear(a) clear(b) handempty\ngoal: on(a,b)\n"


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseTextConfig:
    def test_key_value_and_sections(self):
        values, lines, errors = parse_text_config(
            "# comment\n[search]\niterations = 50\nenv: blocksworld\n"
        )
        assert errors == []
        assert values == {"iterations": 50, "env": "blocksworld"}
        assert lines == {"iterations": 3, "env": 4}

    def test_lists_and_scalars(self):
        values, _, errors = parse_text_config(
            "seeds = 0, 1, 2\nfailure_rate = 0.1, 0.2\ngamma = 0.95\noffline = true\n"
        )
        assert errors == []
        assert values["seeds"] == [0, 1, 2]
        assert values["failure_rate"] == [0.1, 0.2]
        assert values["gamma"] == 0.95
        assert values["offline"] is True

    def test_duplicate_key_reported_with_both_lines(self):
        _, _, errors = parse_text_config("gamma = 0.9\ngamma = 0.8\n")
        assert len(errors) == 1
        assert "duplicate" in errors[0] and "line 2" in errors[0] and "line 1" in errors[0]

    def test_malformed_line_reported(self):
        _, _, errors = parse_text_config("just some words\n")
        assert len(errors) == 1 and "line 1" in errors[0]


class TestValidateConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = validate_config(write(tmp_path, "env = stock\n"))
        assert cfg["iterations"] == DEFAULTS["iterations"]
        assert cfg["env"] == "stock"

    def test_unknown_key_fails_closed(self, tmp_path):
        # a config that still sets a deleted key fails loudly too: psi_operator,
        # or one of the search constants that were planner parameters
        deleted = [("psi_operator", "median"), ("n_q", "51"), ("c1", "0.25"), ("gamma", "0.95"),
                   ("qr_step", "2.0"), ("qr_step_decay", "0.75"), ("kappa", "0.05"),
                   ("intrinsic_reward_weight", "0.01"), ("deterministicize_k", "5")]
        for key, value in [("turbo", "true"), *deleted]:
            with pytest.raises(ConfigError) as err:
                validate_config(write(tmp_path, f"env = stock\n{key} = {value}\n"))
            assert f"line 2: unknown key {key!r}" in err.value.diagnostics

    def test_deterministicize_k_must_be_odd(self, tmp_path):
        # k is fixed at the odd DeterministicizedEnv default; an even k in a config
        # is refused as a key that no longer exists
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, "env = stock\ndeterministicize_k = 4\n"))
        assert "line 2: unknown key 'deterministicize_k'" in err.value.diagnostics

    def test_bad_values_aggregated_with_line_numbers(self, tmp_path):
        path = write(tmp_path, "env = mars\ndepth_limit = 0\niterations = 1.5\n")
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        diags = err.value.diagnostics
        assert [d.split(": key ")[0] for d in diags] == ["line 1", "line 2", "line 3"]

    def test_overrides_win_over_file(self, tmp_path):
        path = write(tmp_path, "env = stock\nseeds = 0\n")
        cfg = validate_config(path, {"seeds": [7], "env": "overcooked"})
        assert cfg["seeds"] == [7]
        assert cfg["env"] == "overcooked"

    def test_invalid_override_rejected(self, tmp_path):
        path = write(tmp_path, "env = stock\n")
        with pytest.raises(ConfigError):
            validate_config(path, {"env": "venus"})

    def test_json_config_accepted(self, tmp_path):
        path = write(tmp_path, json.dumps({"env": "blocksworld", "seeds": [1, 2]}), "c.json")
        cfg = validate_config(path)
        assert cfg["env"] == "blocksworld"
        assert cfg["seeds"] == [1, 2]

    def test_json_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, '{"env": "stock", "env": "stock"}', "c.json")
        with pytest.raises(ConfigError):
            validate_config(path)

    def test_json_syntax_error_reported(self, tmp_path):
        path = write(tmp_path, '{"env": "stock",}', "c.json")
        with pytest.raises(ConfigError):
            validate_config(path)

    def test_failure_rate_list_normalized_to_floats(self, tmp_path):
        cfg = validate_config(write(tmp_path, "env = blocksworld\nfailure_rate = 0, 0.2\n"))
        assert cfg["failure_rate"] == [0.0, 0.2]

    def test_even_n_steps_enforced(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(write(tmp_path, "env = blocksworld\nn_steps = 3\n"))

    def test_n_blocks_bounded_by_block_names(self, tmp_path):
        cfg = validate_config(write(tmp_path, "env = blocksworld\nn_blocks = 26\n"))
        assert cfg["n_blocks"] == 26
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, "env = blocksworld\nn_blocks = 27\n"))
        assert "line 2" in err.value.diagnostics[0] and "[3, 26]" in err.value.diagnostics[0]

    def test_instance_file_allows_one_instance(self, tmp_path):
        inst = write(tmp_path, INSTANCE, "inst.txt")
        cfg = validate_config(
            write(tmp_path, f"env = blocksworld\ninstance_file = {inst}\ninstances = 1\n")
        )
        assert cfg["instances"] == 1
        with pytest.raises(ConfigError) as err:
            validate_config(
                write(tmp_path, f"env = blocksworld\ninstance_file = {inst}\ninstances = 3\n")
            )
        assert err.value.diagnostics == [
            "line 3: key 'instances': expected 1 with instance_file, which fixes the one "
            "instance, got 3"
        ]

    def test_instance_file_must_be_readable(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, f"env = blocksworld\ninstance_file = {missing}\n"))
        [diag] = err.value.diagnostics
        assert diag.startswith("line 2: key 'instance_file': cannot read") and missing in diag
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, "env = blocksworld\n"), {"instance_file": missing})
        [diag] = err.value.diagnostics
        assert diag.startswith("override: key 'instance_file'") and missing in diag
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("blocks: \xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, f"env = blocksworld\ninstance_file = {latin1}\n"))
        assert "not UTF-8 text" in err.value.diagnostics[0]
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, f"env = blocksworld\ninstance_file = {tmp_path}\n"))
        assert "cannot read" in err.value.diagnostics[0]

    def test_repeated_sweep_axis_values_rejected(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "env = blocksworld\nseeds = 0, 0\nvariants = full, no_ucc, full\n"
            "failure_rate = 0.1, 0.2, 0.1000001\n",
        )
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        assert err.value.diagnostics == [
            "line 2: key 'seeds': expected distinct values, got [0, 0] (repeated: 0)",
            "line 3: key 'variants': expected distinct values, got "
            "['full', 'no_ucc', 'full'] (repeated: 'full')",
            "line 4: key 'failure_rate': expected distinct values, got "
            "[0.1, 0.2, 0.1000001] (repeated: 0.1)",
        ]
        assert main(["sweep", "--config", path]) == 2
        assert "key 'seeds': expected distinct values" in capsys.readouterr().err
        cfg = validate_config(write(tmp_path, "env = blocksworld\nfailure_rate = 0.1, 0.11\n"))
        assert cfg["failure_rate"] == [0.1, 0.11]

    def test_unreadable_config_file_diagnostics(self, tmp_path):
        missing = str(tmp_path / "missing.cfg")
        with pytest.raises(ConfigError) as err:
            validate_config(missing)
        assert err.value.diagnostics == [
            f"cannot read config file {missing!r}: No such file or directory"
        ]
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"recipe = caf\xe9\n")
        with pytest.raises(ConfigError) as err:
            validate_config(str(latin1))
        assert err.value.diagnostics == [
            f"config file {str(latin1)!r} is not UTF-8 text: byte 12: invalid continuation byte"
        ]

    def test_negative_seed_rejected(self, tmp_path):
        # numpy seeds no generator from a negative integer
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, "env = stock\nseeds = 0, -1\n"))
        assert err.value.diagnostics == [
            "line 2: key 'seeds': expected nonempty list of integers >= 0, got [0, -1]"
        ]
        assert main(["run", "--config", write(tmp_path, "env = stock\n"), "--seed", "-1"]) == 2

    def test_rnd_output_gain_accepts_null_and_positive(self, tmp_path):
        cfg = validate_config(write(tmp_path, "env = stock\n"))
        assert cfg["rnd_output_gain"] is None
        cfg = validate_config(write(tmp_path, "env = stock\nrnd_output_gain = 25\n"))
        assert cfg["rnd_output_gain"] == 25
        with pytest.raises(ConfigError):
            validate_config(write(tmp_path, "env = stock\nrnd_output_gain = 0\n"))

    def test_non_finite_reals_rejected(self, tmp_path, capsys):
        # both parsers read these three spellings as floats: inf, -inf, inf
        real_keys = [key for key, rule in SCHEMA.items() if rule.check(0.5)]
        assert set(real_keys) == {"rnd_output_gain", "failure_rate", "chop_failure_rate"}
        for key in real_keys:
            for spelling in ("Infinity", "-Infinity", "1e999"):
                text = write(tmp_path, f"env = blocksworld\n{key} = {spelling}\n")
                as_json = write(tmp_path, f'{{"env": "blocksworld", "{key}": {spelling}}}', "c.json")
                for path, where in ((text, "line 2: "), (as_json, "")):
                    with pytest.raises(ConfigError) as err:
                        validate_config(path)
                    [diag] = err.value.diagnostics
                    assert diag.startswith(f"{where}key {key!r}: expected ")
                    assert main(["validate", "--config", path]) == 2
                    assert capsys.readouterr().out == ""
        with pytest.raises(ConfigError) as err:
            validate_config(write(tmp_path, "env = stock\nchop_failure_rate = 1e999\n"))
        assert err.value.diagnostics == [
            "line 2: key 'chop_failure_rate': expected finite real in [0, 1], got inf"
        ]


ANY_RATE = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0))
# a state digest, as tree.StateKey prints it
DIGEST = re.compile(r"\b[0-9a-f]{16}\b")


@st.composite
def accepted_configs(draw, env, variant, instance_file):
    """A config drawn key by key from what each SCHEMA rule accepts, edges
    included. The unbounded integers iterations, depth_limit, n_steps and
    instances are capped small, so that every env x variant stays quick;
    variants is the one variant under test."""
    cfg = {
        "env": env,
        "variants": [variant],
        "iterations": draw(st.integers(1, 6)),
        "depth_limit": draw(st.integers(1, 6)),
        "n_steps": draw(st.sampled_from([2, 4, 6])),
        "instances": draw(st.integers(1, 2)),
    }
    optional = {
        "seeds": st.lists(st.integers(0, 2**64), min_size=1, max_size=2, unique=True),
        "rnd_output_gain": st.one_of(
            st.none(),
            st.floats(0.0, exclude_min=True, allow_infinity=False),
            st.integers(1, 10**300),
        ),
        "failure_rate": st.one_of(
            ANY_RATE, st.lists(ANY_RATE, min_size=1, max_size=2, unique_by="{:g}".format)
        ),
        "n_blocks": st.integers(3, MAX_BLOCKS),
        "instance_file": st.just(instance_file),
        "recipe": st.sampled_from(sorted(RECIPES)),
        "chop_failure_rate": ANY_RATE,
        "parallelism": st.integers(0, 8),
        "out_dir": st.just("runs"),
    }
    assert set(cfg) | set(optional) == set(SCHEMA)
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    if "instance_file" in cfg:
        cfg["instances"] = 1  # the file fixes the one instance
    return cfg


# a gain above about 1e19 overflows the float32 novelty; the search then
# stops with "non-finite novelty" and the state's digest
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("env", sorted(ENVS))
def test_every_accepted_config_runs_or_fails_loudly(env, variant, tmp_path_factory):
    """Each run of a config that validation accepts finishes, or raises a
    PlanuError that names a state digest or a config key."""
    workdir = tmp_path_factory.mktemp("accepted")
    instance_file = write(workdir, INSTANCE, "inst.txt")

    @settings(max_examples=25, deadline=None)
    @given(raw=accepted_configs(env, variant, instance_file))
    def check(raw):
        cfg = validate_config(write(workdir, json.dumps(raw), "c.json"))
        for spec in enumerate_runs(cfg):
            try:
                execute_run(spec)
            except PlanuError as exc:
                message = str(exc)
                assert DIGEST.search(message) or any(repr(k) in message for k in SCHEMA), message

    check()
