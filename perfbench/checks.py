"""Output checker: reads back each op's tables and checks them.

Every op is summarised as ``{"exact": ..., "approx": ...}`` from the
tables it wrote. For workload seed 0 the summary of op k is compared
with ``reference.json``, pinned from the tables at the commit that added
the benchmark: the "exact" part (minimum m, iteration counts, epsilon
estimates, per-m failure counts) must be equal, the "approx" part
(objectives, fidelities, fits, standard deviations) within
``REL_TOL``/``ABS_TOL``. Every op of every seed must also satisfy the
protocol invariants below.

Cells written as ``np.float64(x)`` are read as x, so that formatting of
numpy scalars in the tables does not count as a wrong output.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from qpac.table import read_table

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def _cell(value):
    if isinstance(value, str):
        found = _NP_FLOAT.match(value)
        if found:
            return float(found.group(1))
    return value


def _read(path: Path):
    table = read_table(str(path))
    rows = [dict(zip(table.columns, (_cell(c) for c in row))) for row in table.rows]
    return table.config, rows


def _on_grid(eps: float, support: int) -> bool:
    """eps is k/support for a whole k in [0, support], as every exact
    epsilon estimate over a support of that size is."""
    return 0.0 <= eps <= 1.0 and math.isclose(round(eps * support), eps * support, abs_tol=1e-9)


def _failures_per_m(trials: list, key) -> dict:
    """{group: {m: (failed trials, trials)}} from trial records."""
    counts: dict = {}
    for row in trials:
        per_m = counts.setdefault(key(row), {})
        fails, total = per_m.get(row["m"], (0, 0))
        per_m[row["m"]] = (fails + bool(row["failed"]), total + 1)
    return counts


def _min_m(per_m: dict, i_max: int, delta: float, problems: list, label: str):
    """The first m whose failure rate is below delta, re-derived from the
    trial records; also checks the search visited exactly m = 1..m_min
    with i_max trials each."""
    ms = sorted(per_m)
    if ms != list(range(1, len(ms) + 1)):
        problems.append(f"{label}: trial sizes {ms} are not 1..{len(ms)}")
        return None
    if any(total != i_max for _, total in per_m.values()):
        problems.append(f"{label}: a size has a trial count other than i_max={i_max}")
    limit = Fraction(str(delta))
    passing = [m for m in ms if Fraction(per_m[m][0], i_max) < limit]
    if passing != ms[-1:]:
        problems.append(f"{label}: passing sizes {passing}, expected only the last size {ms[-1]}")
    return ms[-1]


def _check_trial_rows(trials: list, config: dict, support: int, problems: list) -> None:
    epsilon = Fraction(str(config["epsilon"]))
    for row in trials:
        eps = row["epsilon_est"]
        if not _on_grid(eps, support):
            problems.append(f"trial {row}: epsilon_est is not k/{support} in [0, 1]")
            return
        if bool(row["failed"]) != (Fraction(round(eps * support), support) > epsilon):
            problems.append(f"trial {row}: failed flag disagrees with epsilon_est")
            return


def _learn(work_dir: Path, fw_steps: int, problems: list) -> dict:
    config, rows = _read(work_dir / "op.csv")
    by_kind = {row["hypothesis"]: row for row in rows}
    if len(rows) != 2 or set(by_kind) != {"learned", "mixed_baseline"}:
        problems.append(f"learn table rows {[row['hypothesis'] for row in rows]}")
        return {}
    learned, mixed = by_kind["learned"], by_kind["mixed_baseline"]
    n, support = config["n"], 2 ** config["n"] - 1
    for row in rows:
        if (row["n"], row["m"], row["k_max"]) != (n, config["m"], config["k_max"]):
            problems.append(f"{row['hypothesis']}: n/m/k_max differ from the config")
        if not _on_grid(row["epsilon_est"], support):
            problems.append(f"{row['hypothesis']}: epsilon_est {row['epsilon_est']} is not k/{support}")
        for column in ("fidelity_target", "fidelity_mixed"):
            if not 0.0 <= row[column] <= 1.0:
                problems.append(f"{row['hypothesis']}: {column} {row[column]} outside [0, 1]")
        if not row["final_objective"] >= 0.0:
            problems.append(f"{row['hypothesis']}: negative objective {row['final_objective']}")
    if not 0 <= learned["iterations"] <= config["k_max"]:
        problems.append(f"learned: iterations {learned['iterations']} outside [0, k_max]")
    if learned["iterations"] != fw_steps:
        problems.append(f"learned: iterations {learned['iterations']} but {fw_steps} steps were taken")
    if mixed["iterations"] != 0 or mixed["fidelity_mixed"] != 1.0:
        problems.append("mixed_baseline: iterations must be 0 and fidelity_mixed 1.0")
    if not math.isclose(mixed["fidelity_target"], 2.0 ** (-n / 2), rel_tol=1e-9):
        problems.append(f"mixed_baseline: fidelity_target {mixed['fidelity_target']} != 2^(-n/2)")
    if learned["epsilon_est"] > mixed["epsilon_est"]:
        problems.append("learned epsilon_est exceeds the mixed baseline's")
    if learned["final_objective"] > mixed["final_objective"]:
        problems.append("learned objective exceeds the mixed baseline's")
    exact_columns = ("n", "m", "k_max", "iterations", "epsilon_est")
    approx_columns = ("final_objective", "fidelity_target", "fidelity_mixed")
    return {
        "exact": {k: [by_kind[k][c] for c in exact_columns] for k in sorted(by_kind)},
        "approx": {k: [by_kind[k][c] for c in approx_columns] for k in sorted(by_kind)},
    }


def _scaling(work_dir: Path, problems: list) -> dict:
    config, rows = _read(work_dir / "op.csv")
    _, trials = _read(work_dir / "trials.csv")
    ns = list(range(config["n_min"], config["n_max"] + 1))
    points = [row for row in rows if row["kind"] == "point"]
    fits = [row for row in rows if row["kind"] == "fit"]
    refs = [row for row in rows if row["kind"] == "reference"]
    if [row["n"] for row in points] != ns or len(fits) != 1 or len(refs) != 1:
        problems.append(f"scaling table kinds {[row['kind'] for row in rows]}")
        return {}
    failures = _failures_per_m(trials, lambda row: row["n"])
    if sorted(failures) != ns:
        problems.append(f"trial records cover n = {sorted(failures)}, expected {ns}")
        return {}
    for row in points:
        n = row["n"]
        support = 2 ** (n - 1) if config["dist"] == "d2" else 2**n - 1
        _check_trial_rows([t for t in trials if t["n"] == n], config, support, problems)
        found = _min_m(failures[n], config["i_max"], config["delta"], problems, f"n={n}")
        # repeats = 1: the mean is the single search's minimum m
        if row["repeats"] != config["repeats"] or row["m_mean"] != found or row["m_std"] != 0.0:
            problems.append(f"n={n}: point row {row} disagrees with minimum m {found}")
        if not 1 <= row["m_mean"] <= support:
            problems.append(f"n={n}: m_mean {row['m_mean']} outside [1, {support}]")
    slope, intercept = np.polyfit(ns, [row["m_mean"] for row in points], 1)
    fit, ref = fits[0], refs[0]
    x = config["extrapolate_n"]
    expected = {
        "fit slope": (fit["slope"], slope),
        "fit intercept": (fit["intercept"], intercept),
        "fit extrap_m": (fit["extrap_m"], fit["slope"] * x + fit["intercept"]),
        "reference slope": (ref["slope"], config["reference_slope"]),
        "reference intercept": (ref["intercept"], config["reference_intercept"]),
        "reference extrap_m": (
            ref["extrap_m"], config["reference_slope"] * x + config["reference_intercept"]
        ),
    }
    for label, (got, want) in expected.items():
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{label} {got} != {want}")
    if not 0.0 <= fit["r_squared"] <= 1.0 + 1e-12:
        problems.append(f"fit r_squared {fit['r_squared']} outside [0, 1]")
    return {
        "exact": {
            "m_min": [row["m_mean"] for row in points],
            "failures": {
                str(n): [failures[n][m][0] for m in sorted(failures[n])] for n in ns
            },
        },
        "approx": {
            "fit": [fit[c] for c in ("slope", "intercept", "r_squared", "extrap_m")],
        },
    }


def _sweep_errors(work_dir: Path, problems: list) -> dict:
    config, rows = _read(work_dir / "op.csv")
    _, trials = _read(work_dir / "trials.csv")
    values = config["sweep_values"]
    repeats = config["repeats"]
    if [row["value"] for row in rows] != values or any(
        row["param"] != config["sweep_param"] or row["repeats"] != repeats for row in rows
    ):
        problems.append(f"sweep rows {rows} do not match the grid {values}")
        return {}
    means = [row["m_mean"] for row in rows]
    if any(later > earlier for earlier, later in zip(means, means[1:])):
        problems.append(f"m_mean {means} increases as {config['sweep_param']} relaxes")
    for row in rows:
        if row["m_std"] < 0.0 or not math.isclose(row["m_mean"] * repeats, round(row["m_mean"] * repeats)):
            problems.append(f"row {row}: m_mean is not a mean of {repeats} integers")
    # trial records cover the first (strictest) grid value; repeat r is the
    # second component of the seed "(seed;r;m;i)"
    _check_trial_rows(trials, config, 2 ** config["n"] - 1, problems)
    failures = _failures_per_m(trials, lambda row: int(row["seed"].strip("()").split(";")[1]))
    if sorted(failures) != list(range(repeats)):
        problems.append(f"trial records cover repeats {sorted(failures)}")
        return {}
    found = [
        _min_m(failures[r], config["i_max"], config["delta"], problems, f"repeat {r}")
        for r in range(repeats)
    ]
    if None not in found:
        if not math.isclose(float(np.mean(found)), means[0], rel_tol=0, abs_tol=1e-12):
            problems.append(f"first row m_mean {means[0]} != mean of re-derived minima {found}")
        if not math.isclose(float(np.std(found)), rows[0]["m_std"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"first row m_std {rows[0]['m_std']} != std of {found}")
    return {
        "exact": {
            "m_mean": means,
            "failures": {
                str(r): [failures[r][m][0] for m in sorted(failures[r])] for r in range(repeats)
            },
        },
        "approx": {"m_std": [row["m_std"] for row in rows]},
    }


def check_op(command: str, work_dir: Path, fw_steps: int) -> tuple[dict, list]:
    """Summary of one op's tables and the invariants they break."""
    problems: list = []
    if command == "learn":
        summary = _learn(work_dir, fw_steps, problems)
    elif command == "scaling":
        summary = _scaling(work_dir, problems)
    elif command == "sweep-errors":
        summary = _sweep_errors(work_dir, problems)
    else:
        raise ValueError(f"no checker for {command!r}")
    # the JSON round trip makes tuples lists, as in the reference file
    return json.loads(json.dumps(summary)), problems


def _close(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


def compare(summary: dict, reference: dict) -> list:
    problems = []
    if summary.get("exact") != reference["exact"]:
        problems.append(f"exact values {summary.get('exact')} != reference {reference['exact']}")
    if not _close(summary.get("approx"), reference["approx"]):
        problems.append(f"values {summary.get('approx')} not within tolerance of {reference['approx']}")
    return problems


def load_references(workload: str) -> dict:
    """{"warmup": summary, "ops": [summary of op 0, op 1, ...]} for seed 0."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload]
