"""Command-line surface: flags, config files, exit codes."""

import json
import os
from pathlib import Path

import pytest

from qpac.cli import main
from qpac.experiments import ExperimentConfig
from qpac.table import read_table


class TestCli:
    def test_learn_writes_table(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["learn", "--n", "3", "--m", "4", "--seed", "3", "--out", str(out)])
        assert code == 0
        table = read_table(out)
        assert table.config["command"] == "learn"
        assert len(table.rows) == 2
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_default_out_dir_is_printed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QPAC_OUT_DIR", str(tmp_path))
        code = main(["learn", "--n", "2", "--m", "3", "--seed", "3"])
        assert code == 0
        printed = capsys.readouterr().out.strip().split(": ", 1)[1]
        assert read_table(printed).config["command"] == "learn"
        assert os.path.samefile(printed, tmp_path / "learn.csv")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": 2, "seed": 11, "n": 2}))
        out = tmp_path / "run.csv"
        code = main(["learn", "--config", str(cfg), "--m", "5", "--out", str(out)])
        assert code == 0
        table = read_table(out)
        assert table.config["m"] == 5
        assert table.config["seed"] == 11

    def test_validation_failure_exits_nonzero(self, tmp_path, capsys):
        code = main(["learn", "--m", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bound_curve_requires_k(self, tmp_path, capsys):
        code = main(["bound-curve", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "K" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["learn", "--n", "3", "--m", "5", "--gauss-std", "nan"], "gauss_std"),
        (["bound-curve", "--K", "nan"], "big_k"),
    ])
    def test_non_finite_float_exits_2_without_a_table(self, argv, field, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_empty_generator_in_config_exits_2_without_a_table(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 3, "m": 2, "generators": ["XXX", "", "IZZ"]}))
        out = tmp_path / "x.csv"
        assert main(["learn", "--config", str(path), "--out", str(out)]) == 2
        assert "generators: empty Pauli string" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--K", "1", "--n-min", "1", "--n-max", "2", "--epsilon", "1e-300"],
        ["--K", "1e308", "--epsilon", "0.01", "--gamma", "0.01"],
    ], ids=["underflow", "overflow"])
    def test_non_finite_bound_exits_2_without_a_table(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["bound-curve", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the bound is not finite for K = " in err
        assert "epsilon = " in err and "gamma = " in err
        assert not out.exists()

    def test_generators_flag(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main([
            "learn", "--n", "2", "--m", "3", "--generators", "XX,ZZ",
            "--replacement", "without", "--out", str(out),
        ])
        assert code == 0
        assert read_table(out).config["generators"] == ["XX", "ZZ"]

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_generators_flag_takes_a_leading_sign(self, tmp_path, joined):
        out = tmp_path / "g.csv"
        flag = ["--generators=-XXX,ZZI,IZZ"] if joined else ["--generators", "-XXX,ZZI,IZZ"]
        code = main(["learn", "--n", "3", "--m", "3", *flag, "--out", str(out)])
        assert code == 0
        assert read_table(out).config["generators"] == ["-XXX", "ZZI", "IZZ"]

    def test_generators_flag_before_another_flag_still_needs_a_value(self):
        with pytest.raises(SystemExit) as err:
            main(["learn", "--n", "3", "--generators", "--m", "3"])
        assert err.value.code == 2

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["repro", "fig99"])
        assert err.value.code == 2

    def test_sweep_errors_flags(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main([
            "sweep-errors", "--n", "2", "--sweep-param", "delta",
            "--sweep-values", "0.3", "0.6", "--repeats", "2", "--imax", "5",
            "--epsilon", "0.2", "--gamma", "0.3", "--delta", "0.3",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        table = read_table(out)
        assert table.column("value") == [0.3, 0.6]


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestConfigFileErrors:
    """A config file that cannot be read, or whose value has the wrong
    JSON type for its key, fails as a ``ConfigError`` (exit code 2)
    that names the file and the key."""

    CASES = {
        "string-for-int": ({"n": "4", "m": 3}, "n must be an integer, got '4'"),
        "float-for-int": ({"n": 3, "m": 2.5}, "m must be an integer, got 2.5"),
        "bool-for-int": ({"n": 3, "m": True}, "m must be an integer, got True"),
        "bool-for-float": ({"n": 3, "m": 2, "gamma": False}, "gamma must be a number"),
        "string-for-str-list": ({"n": 2, "m": 2, "generators": "XX,ZZ"},
                                "generators must be a list of strings"),
        "int-list-item": ({"n": 2, "m": 2, "m_list": [1, "2"]},
                          "m_list must be a list of integers"),
        "float-list-item": ({"n": 2, "m": 2, "sweep_values": [0.1, None]},
                            "sweep_values must be a list of numbers"),
        "int-for-str": ({"n": 2, "m": 2, "dist": 2}, "dist must be a string"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_wrong_type_names_key(self, case, tmp_path, capsys):
        values, message = self.CASES[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        code = main(["learn", "--config", str(path), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config file {path}: {message}" in err
        assert not (tmp_path / "t.csv").exists()

    def test_missing_file_names_path(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["learn", "--config", str(path)]) == 2
        assert f"config file {path}: cannot read it" in capsys.readouterr().err

    def test_int_for_float_and_null_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "gamma": 1, "k_max": None}))
        config = ExperimentConfig.from_file(str(path), {"command": "learn"})
        assert config.gamma == 1 and config.k_max == 300

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.csv")
                                            if p.read_text().startswith("# ")))
    def test_golden_header_loads_as_config_file(self, name, tmp_path):
        known = set(ExperimentConfig.field_names())
        values = {k: v for k, v in read_table(GOLDEN / name).config.items() if k in known}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        assert ExperimentConfig.from_file(str(path)) == ExperimentConfig.from_sources(values)
