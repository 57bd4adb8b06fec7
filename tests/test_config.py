import json

import pytest

from planu.cli import main
from planu.config import DEFAULTS, parse_text_config, validate_config
from planu.errors import ConfigError


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
        # a config that still sets the deleted psi_operator key fails loudly too
        for key, value in (("turbo", "true"), ("psi_operator", "median")):
            with pytest.raises(ConfigError) as err:
                validate_config(write(tmp_path, f"env = stock\n{key} = {value}\n"))
            assert f"line 2: unknown key {key!r}" in err.value.diagnostics

    def test_bad_values_aggregated_with_line_numbers(self, tmp_path):
        path = write(tmp_path, "env = mars\ngamma = 2.0\nn_q = 0\n")
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        diags = "\n".join(err.value.diagnostics)
        assert "line 1" in diags and "line 2" in diags and "line 3" in diags

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

    def test_deterministicize_k_must_be_odd(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(write(tmp_path, "env = stock\ndeterministicize_k = 4\n"))

    def test_rnd_output_gain_accepts_null_and_positive(self, tmp_path):
        cfg = validate_config(write(tmp_path, "env = stock\n"))
        assert cfg["rnd_output_gain"] is None
        cfg = validate_config(write(tmp_path, "env = stock\nrnd_output_gain = 25\n"))
        assert cfg["rnd_output_gain"] == 25
        with pytest.raises(ConfigError):
            validate_config(write(tmp_path, "env = stock\nrnd_output_gain = 0\n"))
