"""Command-line surface: flags, config files, exit codes."""

import json
import os

import pytest

from qpac.cli import main
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

    def test_generators_flag(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main([
            "learn", "--n", "2", "--m", "3", "--generators", "XX,ZZ",
            "--replacement", "without", "--out", str(out),
        ])
        assert code == 0
        assert read_table(out).config["generators"] == ["XX", "ZZ"]

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
