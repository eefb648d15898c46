"""Named reproduction scenarios binding experiment runs to assertions.

The manifest (manifest.json, shipped as package data) maps scenario
names to a full experiment config plus a list of property assertions
over the output table. Assertions reference only columns documented in
FORMATS.md; their tolerances are manifest data, not code.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources

from .errors import ConfigError
from .experiments import ExperimentConfig, default_out_dir, run_command
from .table import ResultTable


def load_manifest() -> dict:
    with resources.files("qpac").joinpath("manifest.json").open() as fh:
        return json.load(fh)


def scenario_names() -> list:
    return sorted(load_manifest())


def _num(value, context: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{context}: expected a numeric cell, got {value!r}")
    return float(value)


def _cells(table: ResultTable, column: str, where: dict | None):
    rows = table.select(**where) if where else table.rows
    if not rows:
        raise ConfigError(f"no rows match {where!r}")
    i = table.columns.index(column)
    return [row[i] for row in rows]


def _check_equals(table, rule):
    cells = _cells(table, rule["column"], rule.get("where"))
    tol = rule.get("tol", 0.0)
    target = rule["value"]
    worst = max(abs(_num(c, rule["column"]) - target) for c in cells)
    return worst <= tol, f"max |{rule['column']} - {target}| = {worst} (tol {tol})"


def _check_bounds(table, rule):
    cells = [_num(c, rule["column"]) for c in _cells(table, rule["column"], rule.get("where"))]
    ok = all(math.isfinite(c) for c in cells)
    detail = [f"{rule['column']} in [{min(cells)}, {max(cells)}]"]
    if not ok:
        return False, "non-finite cell"
    if "min" in rule:
        ok = ok and min(cells) >= rule["min"]
        detail.append(f"required >= {rule['min']}")
    if "min_exclusive" in rule:
        ok = ok and min(cells) > rule["min_exclusive"]
        detail.append(f"required > {rule['min_exclusive']}")
    if "max" in rule:
        ok = ok and max(cells) <= rule["max"]
        detail.append(f"required <= {rule['max']}")
    if "max_exclusive" in rule:
        ok = ok and max(cells) < rule["max_exclusive"]
        detail.append(f"required < {rule['max_exclusive']}")
    return ok, "; ".join(detail)


def _check_row_le(table, rule):
    lhs = [_num(c, rule["lhs"]) for c in _cells(table, rule["lhs"], rule.get("where"))]
    rhs = [_num(c, rule["rhs"]) for c in _cells(table, rule["rhs"], rule.get("where"))]
    tol = rule.get("tol", 0.0)
    gap = max(a - b for a, b in zip(lhs, rhs))
    return gap <= tol, f"max({rule['lhs']} - {rule['rhs']}) = {gap} (tol {tol})"


def _check_monotone(table, rule):
    where = rule.get("where")
    by = [_num(c, rule["by"]) for c in _cells(table, rule["by"], where)]
    vals = [_num(c, rule["column"]) for c in _cells(table, rule["column"], where)]
    pairs = sorted(zip(by, vals))
    tol = rule.get("tol", 0.0)
    seq = [v for _, v in pairs]
    if rule["direction"] == "nonincreasing":
        ok = all(b <= a + tol for a, b in zip(seq, seq[1:]))
    elif rule["direction"] == "nondecreasing":
        ok = all(b >= a - tol for a, b in zip(seq, seq[1:]))
    else:
        raise ConfigError(f"unknown direction {rule['direction']!r}")
    return ok, f"{rule['column']} over {rule['by']}: {seq} ({rule['direction']})"


def _check_compare_cells(table, rule):
    a = _num(table.cell(rule["lhs"]["column"], **rule["lhs"]["where"]), "lhs")
    b = _num(table.cell(rule["rhs"]["column"], **rule["rhs"]["where"]), "rhs")
    tol = rule.get("tol", 0.0)
    op = rule.get("op", "ge")
    if op == "ge":
        ok = a >= b - tol
    elif op == "le":
        ok = a <= b + tol
    else:
        raise ConfigError(f"unknown op {op!r}")
    return ok, f"lhs = {a}, rhs = {b}, required {op} (tol {tol})"


_CHECKS = {
    "equals": _check_equals,
    "bounds": _check_bounds,
    "row_le": _check_row_le,
    "monotone": _check_monotone,
    "compare_cells": _check_compare_cells,
}


def evaluate_assertions(table: ResultTable, assertions: list) -> list:
    results = []
    for rule in assertions:
        kind = rule.get("check")
        if kind not in _CHECKS:
            raise ConfigError(f"unknown check kind {kind!r}")
        passed, detail = _CHECKS[kind](table, rule)
        results.append({"name": rule.get("name", kind), "passed": passed, "detail": detail})
    return results


def run_repro(scenario: str, out_dir: str | None = None) -> dict:
    """Execute a manifest scenario end to end and check its assertions.

    Writes the scenario table, a plain-text report, and a JSON report
    into ``out_dir``; returns the report dict.
    """
    manifest = load_manifest()
    if scenario not in manifest:
        raise ConfigError(
            f"unknown scenario {scenario!r}; available: {', '.join(sorted(manifest))}"
        )
    entry = manifest[scenario]
    out_dir = out_dir or default_out_dir()
    os.makedirs(out_dir, exist_ok=True)

    values = dict(entry["config"])
    values["out"] = os.path.join(out_dir, f"{scenario}.csv")
    config = ExperimentConfig.from_sources(values, None)
    table = run_command(config)

    checks = evaluate_assertions(table, entry["assertions"])
    passed = all(c["passed"] for c in checks)

    lines = [f"scenario {scenario}: {entry.get('description', '')}".rstrip()]
    for c in checks:
        lines.append(f"  {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines)

    report = {
        "scenario": scenario,
        "passed": passed,
        "checks": checks,
        "table": values["out"],
        "text": text,
    }
    with open(os.path.join(out_dir, f"{scenario}_report.json"), "w") as fh:
        json.dump({k: v for k, v in report.items() if k != "text"}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, f"{scenario}_report.txt"), "w") as fh:
        fh.write(text + "\n")
    return report
