"""CSV table round trips and atomic writes."""

import os

import numpy as np
import pytest

from qpac.experiments import ExperimentConfig, run_learn
from qpac.table import ResultTable, read_table


def make_table():
    t = ResultTable(config={"command": "learn", "seed": 3}, columns=("a", "b", "c"))
    t.append(1, 2.5, "xx")
    t.append(2, None, "-YY")
    return t


class TestResultTable:
    def test_render_layout(self):
        text = make_table().render()
        lines = text.splitlines()
        assert lines[0] == '# {"command":"learn","seed":3}'
        assert lines[1] == "a,b,c"
        assert lines[2] == "1,2.5,xx"
        assert lines[3] == "2,,-YY"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        original = make_table()
        original.write(path)
        back = read_table(path)
        assert back.config == original.config
        assert back.columns == original.columns
        assert back.rows == [(1, 2.5, "xx"), (2, None, "-YY")]

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        make_table().write(a)
        make_table().write(b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_residue(self, tmp_path):
        make_table().write(tmp_path / "t.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_wrong_row_width(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.append(1, 2)

    def test_comma_in_cell_rejected(self):
        t = ResultTable(config={}, columns=("a",))
        t.append("x,y")
        with pytest.raises(ValueError):
            t.render()

    def test_select_and_cell(self):
        t = make_table()
        assert t.select(a=1) == [(1, 2.5, "xx")]
        assert t.cell("c", a=2) == "-YY"
        with pytest.raises(KeyError):
            t.cell("c", a=99)
        assert t.column("a") == [1, 2]

    def test_float_repr_round_trips(self, tmp_path):
        t = ResultTable(config={}, columns=("v",))
        values = [0.1, 1 / 3, 2.0**-52, 23.46]
        for v in values:
            t.append(v)
        path = tmp_path / "f.csv"
        t.write(path)
        assert read_table(path).column("v") == values

    def test_reject_non_table(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_table(path)

    def test_numpy_float_renders_as_python_float(self, tmp_path):
        t = ResultTable(config={}, columns=("v",))
        t.append(np.float64(0.25))
        path = tmp_path / "f.csv"
        t.write(path)
        assert path.read_text().splitlines()[2] == "0.25"
        assert read_table(path).column("v") == [0.25]

    def test_learn_fidelity_cells_read_back_as_floats(self, tmp_path):
        path = tmp_path / "learn.csv"
        run_learn(ExperimentConfig(command="learn", n=3, m=4, seed=3, out=str(path)))
        assert "np." not in path.read_text()
        table = read_table(path)
        for column in ("fidelity_target", "fidelity_mixed"):
            assert all(type(v) is float for v in table.column(column))
