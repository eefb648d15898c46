"""Result tables and their CSV persistence.

Layout: line 1 is a '#'-prefixed JSON echo of the fully resolved run
configuration (plus tool version), line 2 the column names, then one
numeric record per row. Values are rendered with repr so a file is
byte-identical across runs with the same config and seed. Writes go
through a temp file and an atomic rename; partial tables never appear.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # np.float64 subclasses float, but its repr is "np.float64(...)"
    if isinstance(value, int):
        return repr(int(value))
    if isinstance(value, float):
        return repr(float(value))
    s = str(value)
    if "," in s or "\n" in s or "#" in s:
        raise ValueError(f"cell value {s!r} would corrupt the CSV layout")
    return s


_BOOLS = {True: "true", False: "false"}


def _render_column(values: tuple) -> list:
    """``_render`` of every cell of one column: a column of Python ints,
    floats or bools alone is rendered by one ``map``, any other cell by
    cell."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float}:
        return list(map(float.__repr__, values))
    if kinds == {bool}:
        return list(map(_BOOLS.__getitem__, values))
    return list(map(_render, values))


def _parse(cell: str):
    if cell == "":
        return None
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


@dataclass
class ResultTable:
    """Column-oriented record table with a config echo header."""

    config: dict
    columns: tuple
    rows: list = field(default_factory=list)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def select(self, **where) -> list:
        """Rows matching all column=value filters."""
        idx = {c: self.columns.index(c) for c in where}
        return [
            row
            for row in self.rows
            if all(row[idx[c]] == v for c, v in where.items())
        ]

    def cell(self, column: str, **where):
        """The single value of `column` in the unique row matching `where`."""
        rows = self.select(**where)
        if len(rows) != 1:
            raise KeyError(f"expected exactly one row for {where}, found {len(rows)}")
        return rows[0][self.columns.index(column)]

    def render(self) -> str:
        lines = ["# " + json.dumps(self.config, sort_keys=True, separators=(",", ":"))]
        lines.append(",".join(self.columns))
        # column by column, so that a column of one type renders in one map
        lines += map(",".join, zip(*map(_render_column, zip(*self.rows))))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Atomic write: temp file in the target directory, then rename."""
        path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(self.render())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def read_table(path: str) -> ResultTable:
    with open(path, "r", newline="") as fh:
        text = fh.read()
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path} is not a result table (missing config header)")
    config = json.loads(lines[0][2:])
    columns = tuple(lines[1].split(","))
    table = ResultTable(config=config, columns=columns)
    for line in lines[2:]:
        if not line:
            continue
        table.rows.append(tuple(_parse(c) for c in line.split(",")))
    return table
