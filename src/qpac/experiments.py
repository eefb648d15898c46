"""Experiment protocols: single learning runs, error-vs-m sweeps,
error-parameter sweeps, qubit scaling, and the reference bound curve.

Every run resolves an :class:`ExperimentConfig`, derives all randomness
from the configured seed, and emits a :class:`ResultTable` whose header
echoes the resolved config, so any output file can be replayed
byte-identically from its own first line.

Seed derivation is positional and stable:

* learn: training seed ``(seed, 0)``
* sweep-m: trial at size m, repeat r: ``(seed, m, r)``
* sweep-errors: repeat r owns trial seeds ``(seed, r, m, i)``
* scaling: qubit count n, run r: trial seeds ``(seed, n, r, m, i)``
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .complexity import LearnParams, TrialCache, estimate_min_m, linear_fit, theorem_bound
from .errors import ConfigError, StructureError
from .learner import Objective, evaluate_epsilon, learn_each
from .pauli import PauliString, ghz_generators, stabilizer_group
from .sampling import (
    FULL_STABILIZER,
    XZ_STABILIZER,
    MeasurementDistribution,
    NoiseModel,
    build_distribution,
    distribution_from_generators,
    draw_training_sets,
)
from .states import (
    MAX_QUBITS,
    DensityMatrix,
    fidelity,
    maximally_mixed,
    stabilizer_state,
)
from .table import ResultTable, read_table

OUT_DIR_ENV = "QPAC_OUT_DIR"

COMMANDS = ("learn", "sweep-m", "sweep-errors", "scaling", "bound-curve")

_DEFAULT_REPEATS = {"sweep-m": 20, "sweep-errors": 4, "scaling": 10}
# protocols phrased as "sets of measurement configurations" draw
# distinct effects; plain learning keeps the i.i.d. default
_DEFAULT_REPLACEMENT = {
    "learn": "with",
    "sweep-m": "without",
    "sweep-errors": "with",
    "scaling": "without",
    "bound-curve": "with",
}

_SWEEP_DEFAULT_GRIDS = {
    "delta": (0.1, 0.2, 0.3, 0.5),
    "gamma": (0.1, 0.2, 0.3, 0.5, 0.6),
    "epsilon": (0.05, 0.1, 0.15, 0.25),
}


# the items of each list field; a JSON boolean is no number, and an
# integer is a float
_LIST_ITEMS = {"m_list": int, "sweep_values": float, "generators": str}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _is_json(value, kind) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; JSON-roundtrippable.

    Flags override file values; every run echoes the resolved config in
    the table header (minus output paths, which are not semantic).
    """

    command: str = "learn"
    n: int = 4
    n_min: int = 2
    n_max: int = 6
    dist: str = FULL_STABILIZER
    m: int | None = None
    m_list: list | None = None
    epsilon: float = 0.05
    gamma: float = 0.1
    delta: float = 0.1
    i_max: int = 50
    k_max: int = 300
    m_cap: int = 256
    shots: int = 0
    gauss_std: float = 0.0
    seed: int = 0
    repeats: int | None = None
    replacement: str | None = None
    sweep_param: str | None = None
    sweep_values: list | None = None
    big_k: float | None = None
    reference_slope: float = 1.19
    reference_intercept: float = -0.34
    extrapolate_n: int = 20
    generators: list | None = None
    # selects nothing: every run is single-threaded. The key is accepted
    # and echoed as given so that existing configs and headers replay
    threads: int = 0
    out: str | None = None
    trials_out: str | None = None
    training_out: str | None = None

    _PATH_FIELDS = ("out", "trials_out", "training_out")

    @classmethod
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")]

    @classmethod
    def from_sources(cls, file_values: dict | None = None, flag_values: dict | None = None):
        known = set(cls.field_names())
        merged: dict = {}
        for source, values in (("config file", file_values), ("flags", flag_values)):
            if not values:
                continue
            for key, value in values.items():
                if key not in known:
                    raise ConfigError(f"{source}: unknown option {key!r}")
                if value is not None:
                    merged[key] = value
        return cls(**merged)

    @classmethod
    def from_file(cls, path: str, flag_values: dict | None = None):
        try:
            with open(path) as fh:
                file_values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: cannot read it: "
                              f"{getattr(exc, 'strerror', None) or exc}")
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        hints = typing.get_type_hints(cls)
        for key, value in file_values.items():
            if key not in hints or value is None:
                continue
            kind = (typing.get_args(hints[key]) or (hints[key],))[0]  # without its None
            items = _LIST_ITEMS.get(key)
            if not _is_json(value, kind) or items and not all(_is_json(v, items) for v in value):
                what = f"a list of {_TYPE_NAMES[items].split()[1]}s" if items else _TYPE_NAMES[kind]
                raise ConfigError(f"config file {path}: {key} must be {what}, got {value!r}")
        return cls.from_sources(file_values, flag_values)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.dist not in (FULL_STABILIZER, XZ_STABILIZER):
            raise ConfigError(f"dist must be 'd1' or 'd2', got {self.dist!r}")
        if self.repeats is None:
            self.repeats = _DEFAULT_REPEATS.get(self.command, 1)
        if self.replacement is None:
            self.replacement = _DEFAULT_REPLACEMENT[self.command]
        if self.replacement not in ("with", "without"):
            raise ConfigError(f"replacement must be 'with' or 'without', got {self.replacement!r}")
        if self.shots < 0:
            raise ConfigError(f"shots must be >= 0, got {self.shots}")
        # comparisons that NaN fails too, so that no NaN, infinity or
        # JSON integer beyond the float range reaches a run or its header
        top = sys.float_info.max
        for name in ("gauss_std", "big_k"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= top:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        for name in ("reference_slope", "reference_intercept"):
            v = getattr(self, name)
            if not -top <= v <= top:
                raise ConfigError(f"{name} must be finite, got {v}")
        if self.shots > 0 and self.gauss_std > 0:
            raise ConfigError("shots and gauss-std are mutually exclusive noise models")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads}")
        for name in ("i_max", "k_max", "m_cap"):
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        for name in ("epsilon", "gamma", "delta"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1], got {v}")
        # every protocol but bound-curve builds a dense 2^n x 2^n target
        if self.command != "bound-curve":
            name = "n_max" if self.command == "scaling" else "n"
            value = getattr(self, name)
            if value > MAX_QUBITS:
                raise ConfigError(f"{name} = {value} exceeds MAX_QUBITS: need n <= {MAX_QUBITS}")
            # scaling checks its n range below
            if not self.generators and self.command != "scaling" and self.n < 2:
                raise ConfigError(f"a GHZ target needs n >= 2, got n = {self.n}")
        if self.generators:
            # a generator list fixes one qubit count
            if self.command == "scaling":
                raise ConfigError("scaling needs at least two qubit counts; generators fix one")
            if self.command != "bound-curve":
                if any(p.n != self.n for p in self._generator_paulis()):
                    raise ConfigError(f"generators must act on n={self.n} qubits")
                # a list that pins no state fails here, before any work
                self.target_state(self.n)
        if self.command == "learn":
            if self.m is None or self.m < 1:
                raise ConfigError(f"learn needs m >= 1, got {self.m}")
            if self.replacement == "without":
                support = len(self.distribution(self.n))
                if self.m > support:
                    raise ConfigError(f"learn size {self.m} exceeds the support size "
                                      f"{support} of a draw without replacement")
        if self.command == "sweep-m":
            support = len(self.distribution(self.n))
            if self.m_list is None:
                self.m_list = list(range(0, support + 1))
            if not self.m_list:
                raise ConfigError("sweep-m needs at least one size in m_list")
            if any(m < 0 for m in self.m_list):
                raise ConfigError("sweep-m sizes must be >= 0")
            if self.replacement == "without" and max(self.m_list) > support:
                raise ConfigError(f"sweep-m size {max(self.m_list)} exceeds the support size "
                                  f"{support} of a draw without replacement")
        if self.command == "sweep-errors":
            if self.sweep_param not in ("epsilon", "gamma", "delta"):
                raise ConfigError(
                    f"sweep-errors needs sweep_param in epsilon/gamma/delta, got {self.sweep_param!r}"
                )
            if self.sweep_values is None:
                self.sweep_values = list(_SWEEP_DEFAULT_GRIDS[self.sweep_param])
            if not self.sweep_values:
                raise ConfigError("sweep-errors needs at least one value in sweep_values")
            if any(not 0.0 < v <= 1.0 for v in self.sweep_values):
                raise ConfigError("swept values must lie in (0, 1]")
        # the fit needs at least two qubit counts
        if self.command == "scaling" and not 2 <= self.n_min < self.n_max:
            raise ConfigError(f"scaling needs 2 <= n_min < n_max, got {self.n_min}..{self.n_max}")
        if self.command == "bound-curve" and self.big_k is None:
            raise ConfigError("bound-curve needs a non-negative K")
        if self.command == "bound-curve" and not 1 <= self.n_min <= self.n_max:
            raise ConfigError(f"bound-curve needs 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        # the bound grows with n, so n_max holds its largest value
        if self.command == "bound-curve" and not theorem_bound(self.n_max, self.learn_params(),
                                                               self.big_k) <= top:
            raise ConfigError(f"bound-curve: the bound is not finite for K = {self.big_k}, epsilon = "
                              f"{self.epsilon}, gamma = {self.gamma} and delta = {self.delta}")

    # -- resolution helpers ------------------------------------------------

    def noise_model(self) -> NoiseModel:
        if self.shots > 0:
            return NoiseModel.with_shots(self.shots)
        if self.gauss_std > 0:
            return NoiseModel.gaussian(self.gauss_std)
        return NoiseModel.exact()

    def with_replacement(self) -> bool:
        return self.replacement == "with"

    def learn_params(self, **overrides) -> LearnParams:
        values = dict(
            epsilon=self.epsilon, gamma=self.gamma, delta=self.delta,
            i_max=self.i_max, m_cap=self.m_cap,
        )
        values.update(overrides)
        return LearnParams(**values)

    def trial_cache(self, state: DensityMatrix, dist: MeasurementDistribution) -> TrialCache:
        """The minimum-m search's trials for one target and distribution,
        under this config's noise, sampling and k_max."""
        return TrialCache(
            state, dist,
            k_max=self.k_max, noise=self.noise_model(),
            replacement=self.with_replacement(),
        )

    def out_path(self) -> str:
        """Where the table goes: ``out``, else ``<command>.csv`` in the
        default output directory."""
        if self.out is not None:
            return self.out
        return os.path.join(default_out_dir(), f"{self.command}.csv")

    def _generator_paulis(self) -> tuple[PauliString, ...]:
        try:
            return tuple(PauliString.from_text(g) for g in self.generators)
        except ValueError as exc:
            raise ConfigError(f"generators: {exc}") from exc

    def target_state(self, n: int) -> DensityMatrix:
        """The target of a generator list, else of the n-qubit GHZ group."""
        return _generator_state(self._generator_paulis() if self.generators else ghz_generators(n))

    def distribution(self, n: int) -> MeasurementDistribution:
        if self.generators:
            return distribution_from_generators(self._generator_paulis(), self.dist)
        return build_distribution(n, self.dist)

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        for name in self._PATH_FIELDS:
            d[name] = None
        d["tool_version"] = __version__
        # documentation keys, ignored on replay
        d["fidelity_convention"] = "amplitude (F, not F^2)"
        return d


@lru_cache
def _generator_state(generators: tuple[PauliString, ...]) -> DensityMatrix:
    """The pure state a generator tuple stabilizes, built once per
    process from the group its supports share, so its Tr(E rho) tables
    are too. Raises ``ConfigError`` for a list that is no stabilizer
    group or pins no pure state."""
    try:
        group = stabilizer_group(generators)
    except StructureError as exc:
        raise ConfigError(str(exc)) from exc
    n = group.n
    if len(group) != 2**n:
        raise ConfigError(f"need {n} independent generators for a pure {n}-qubit target")
    return stabilizer_state(group)


def default_out_dir() -> str:
    """``$QPAC_OUT_DIR``, else the working directory."""
    return os.environ.get(OUT_DIR_ENV, ".")


def _finalize(table: ResultTable, config: ExperimentConfig) -> ResultTable:
    table.write(config.out_path())
    return table


# -- learn -----------------------------------------------------------------

LEARN_COLUMNS = (
    "hypothesis", "n", "m", "k_max", "iterations",
    "final_objective", "epsilon_est", "fidelity_target", "fidelity_mixed",
)


def run_learn(config: ExperimentConfig) -> ResultTable:
    """One sampled training set, one optimization, plus the
    completely-mixed baseline row."""
    n = config.n
    state = config.target_state(n)
    dist = config.distribution(n)
    noise = config.noise_model()
    indices, values = draw_training_sets(
        dist, state, config.m, [(config.seed, 0)], noise, config.with_replacement(),
    )
    if config.training_out:
        _write_training(dist, indices[0], values[0], noise, config)
    [hyp] = learn_each(dist, indices, values, noise, config.k_max)
    mixed = maximally_mixed(n)

    table = ResultTable(config=config.echo(), columns=LEARN_COLUMNS)
    table.append(
        "learned", n, config.m, config.k_max, hyp.iterations_used,
        hyp.final_objective,
        evaluate_epsilon(hyp.sigma, state, dist, config.gamma),
        fidelity(hyp.sigma, state),
        fidelity(hyp.sigma, mixed),
    )
    table.append(
        "mixed_baseline", n, config.m, config.k_max, 0,
        Objective(dist.batch, indices[0], values[0]).value(mixed.matrix),
        evaluate_epsilon(mixed, state, dist, config.gamma),
        fidelity(mixed, state),
        1.0,
    )
    return _finalize(table, config)


def _write_training(dist: MeasurementDistribution, indices: np.ndarray, values: np.ndarray,
                    noise: NoiseModel, config: ExperimentConfig) -> None:
    """One row per drawn item: its support effect's Pauli string, its
    observed value and the noise model."""
    table = ResultTable(config=config.echo(), columns=("pauli", "value", "provenance"))
    prov = noise.describe().replace(",", ";")
    for i, val in zip(indices.tolist(), values.tolist()):
        table.append(str(dist.effects[i]), val, prov)
    table.write(config.training_out)


# -- sweep-m ---------------------------------------------------------------

SWEEP_M_COLUMNS = (
    "m", "repeats",
    "epsilon_mean", "epsilon_std",
    "fidelity_target_mean", "fidelity_target_std",
    "fidelity_mixed_mean", "fidelity_mixed_std",
    "epsilon_baseline",
)


def run_sweep_m(config: ExperimentConfig) -> ResultTable:
    """Error and fidelity versus training-set size at fixed n.

    Per m: `repeats` independent training sets, each learned and scored
    against the exact support. m = 0 scores the starting guess itself.
    """
    n = config.n
    state = config.target_state(n)
    dist = config.distribution(n)
    mixed = maximally_mixed(n)
    noise = config.noise_model()
    baseline_eps = evaluate_epsilon(mixed, state, dist, config.gamma)

    table = ResultTable(config=config.echo(), columns=SWEEP_M_COLUMNS)
    for m in config.m_list:
        if m == 0:
            # m = 0 draws no training set
            sigmas = [mixed] * config.repeats
        else:
            indices, values = draw_training_sets(
                dist, state, m, [(config.seed, m, r) for r in range(config.repeats)],
                noise, config.with_replacement(),
            )
            sigmas = (hyp.sigma for hyp in learn_each(dist, indices, values, noise, config.k_max))
        chunk = np.array([
            (evaluate_epsilon(s, state, dist, config.gamma), fidelity(s, state), fidelity(s, mixed))
            for s in sigmas
        ])
        means = chunk.mean(axis=0)
        stds = chunk.std(axis=0)
        table.append(
            m, config.repeats,
            float(means[0]), float(stds[0]),
            float(means[1]), float(stds[1]),
            float(means[2]), float(stds[2]),
            baseline_eps,
        )
    return _finalize(table, config)


# -- sweep-errors ----------------------------------------------------------

SWEEP_ERRORS_COLUMNS = ("param", "value", "repeats", "m_mean", "m_std")
TRIALS_COLUMNS = ("n", "m", "trial", "epsilon_est", "failed", "seed")


def run_sweep_errors(config: ExperimentConfig) -> ResultTable:
    """Minimum m as one error parameter sweeps and the others stay at
    their defaults. One cache serves every value and repeat, and each
    repeat reuses its own trials across the grid, so relaxing the swept
    parameter never increases m. Per swept value the repeats search in
    lock-step."""
    n = config.n
    cache = config.trial_cache(config.target_state(n), config.distribution(n))
    roots = [(config.seed, r) for r in range(config.repeats)]
    trial_rows = {} if config.trials_out else None
    per_value = [
        _search(cache, config.learn_params(**{config.sweep_param: value}), roots, n, trial_rows)
        for value in config.sweep_values
    ]

    table = ResultTable(config=config.echo(), columns=SWEEP_ERRORS_COLUMNS)
    for value, min_ms in zip(config.sweep_values, per_value):
        chunk = np.array(min_ms, dtype=float)
        table.append(
            config.sweep_param, value, config.repeats,
            float(chunk.mean()), float(chunk.std()),
        )
    if config.trials_out:
        _write_trials(trial_rows, config)
    return _finalize(table, config)


def _search(cache: TrialCache, params: LearnParams, roots: list[tuple], n: int,
            trial_rows: dict | None) -> list[int]:
    """The minimum m of each of ``roots`` on ``cache``; unless
    ``trial_rows`` is None, keeps in it the error rates and failures of
    each (root, m) at its first read, keyed by (n, root, m). A protocol
    reads i_max trials at every (root, m), so these are the rows of
    each trial's first read."""
    record = None
    if trial_rows is not None:
        def record(root, m, eps, failed):
            trial_rows.setdefault((n, root, m), (eps, failed))
    return estimate_min_m(cache, params, roots, record=record)


def _write_trials(trial_rows: dict, config: ExperimentConfig) -> None:
    """One row per trial read, in the order of ``sorted`` on the row
    tuples: by n, m, trial, epsilon_est, failed, then the seed as text
    (FORMATS.md)."""
    rows = []
    for (n, root, m), (eps, failed) in trial_rows.items():
        prefix = f"({';'.join(map(str, (*root, m)))};"
        rows += zip([n] * len(eps), [m] * len(eps), range(len(eps)), eps.tolist(),
                    failed.tolist(), [f"{prefix}{i})" for i in range(len(eps))])
    table = ResultTable(config=config.echo(), columns=TRIALS_COLUMNS, rows=sorted(rows))
    table.write(config.trials_out)


# -- scaling ---------------------------------------------------------------

SCALING_COLUMNS = (
    "kind", "n", "repeats", "m_mean", "m_std",
    "slope", "intercept", "r_squared", "extrap_n", "extrap_m",
)


def run_scaling(config: ExperimentConfig) -> ResultTable:
    """Mean minimum m per qubit count, with the OLS fit and its
    extrapolation, plus the reference fit line for comparison."""
    ns = list(range(config.n_min, config.n_max + 1))
    params = config.learn_params()
    trial_rows = {} if config.trials_out else None

    table = ResultTable(config=config.echo(), columns=SCALING_COLUMNS)
    points = []
    for n in ns:
        cache = config.trial_cache(config.target_state(n), config.distribution(n))
        roots = [(config.seed, n, r) for r in range(config.repeats)]
        min_ms = _search(cache, params, roots, n, trial_rows)
        chunk = np.array(min_ms, dtype=float)
        points.append((n, Fraction(sum(min_ms), config.repeats)))
        table.append("point", n, config.repeats, float(chunk.mean()), float(chunk.std()),
                     None, None, None, None, None)

    slope, intercept, r2 = linear_fit(points)
    x = config.extrapolate_n
    table.append("fit", None, None, None, None,
                 slope, intercept, r2, x, slope * x + intercept)
    table.append("reference", None, None, None, None,
                 config.reference_slope, config.reference_intercept, None,
                 x, config.reference_slope * x + config.reference_intercept)
    if config.trials_out:
        _write_trials(trial_rows, config)
    return _finalize(table, config)


# -- bound-curve -----------------------------------------------------------

BOUND_COLUMNS = ("n", "m_bound")


def run_bound_curve(config: ExperimentConfig) -> ResultTable:
    """Tabulates the theorem's sample-size bound over the n range."""
    params = config.learn_params()
    table = ResultTable(config=config.echo(), columns=BOUND_COLUMNS)
    for n in range(config.n_min, config.n_max + 1):
        table.append(n, theorem_bound(n, params, config.big_k))
    return _finalize(table, config)


# -- dispatch and replay -----------------------------------------------------

_RUNNERS = {
    "learn": run_learn,
    "sweep-m": run_sweep_m,
    "sweep-errors": run_sweep_errors,
    "scaling": run_scaling,
    "bound-curve": run_bound_curve,
}


def run_command(config: ExperimentConfig) -> ResultTable:
    return _RUNNERS[config.command](config)


def replay(path: str, out: str) -> bool:
    """Re-run a table from its own header config and compare bytes.

    Returns True when the replayed file is byte-identical to the
    original (ignoring the non-semantic output path itself).
    """
    original = read_table(path)
    known = set(ExperimentConfig.field_names())
    values = {k: v for k, v in original.config.items() if k in known}
    config = ExperimentConfig.from_sources(values, {"out": out})
    run_command(config)
    with open(path, "rb") as fh:
        a = fh.read()
    with open(out, "rb") as fh:
        b = fh.read()
    return a == b
