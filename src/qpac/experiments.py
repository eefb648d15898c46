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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .complexity import LearnParams, TrialCache, estimate_min_m, linear_fit, theorem_bound
from .errors import ConfigError
from .learner import Objective, evaluate_epsilon, hazan_optimize
from .pauli import PauliString, group_closure
from .sampling import (
    FULL_STABILIZER,
    XZ_STABILIZER,
    MeasurementDistribution,
    NoiseModel,
    build_distribution,
    distribution_from_generators,
    sample_training_set,
)
from .states import (
    MAX_QUBITS,
    DensityMatrix,
    _pauli_action,
    fidelity,
    ghz_density,
    maximally_mixed,
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
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
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
        if self.gauss_std < 0:
            raise ConfigError(f"gauss_std must be >= 0, got {self.gauss_std}")
        if self.shots > 0 and self.gauss_std > 0:
            raise ConfigError("shots and gauss-std are mutually exclusive noise models")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
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
        if self.generators:
            # a generator list fixes one qubit count
            if self.command == "scaling":
                raise ConfigError("scaling needs at least two qubit counts; generators fix one")
            if self.command != "bound-curve" and any(
                PauliString.from_text(g).n != self.n for g in self.generators
            ):
                raise ConfigError(f"generators must act on n={self.n} qubits")
        if self.command == "learn":
            if self.m is None or self.m < 1:
                raise ConfigError(f"learn needs m >= 1, got {self.m}")
        if self.command == "sweep-m":
            if self.m_list is None:
                self.m_list = list(range(0, len(self.distribution(self.n)) + 1))
            if any(m < 0 for m in self.m_list):
                raise ConfigError("sweep-m sizes must be >= 0")
        if self.command == "sweep-errors":
            if self.sweep_param not in ("epsilon", "gamma", "delta"):
                raise ConfigError(
                    f"sweep-errors needs sweep_param in epsilon/gamma/delta, got {self.sweep_param!r}"
                )
            if self.sweep_values is None:
                self.sweep_values = list(_SWEEP_DEFAULT_GRIDS[self.sweep_param])
            if any(not 0.0 < v <= 1.0 for v in self.sweep_values):
                raise ConfigError("swept values must lie in (0, 1]")
        # the fit needs at least two qubit counts
        if self.command == "scaling" and not 2 <= self.n_min < self.n_max:
            raise ConfigError(f"scaling needs 2 <= n_min < n_max, got {self.n_min}..{self.n_max}")
        if self.command == "bound-curve" and (self.big_k is None or self.big_k < 0):
            raise ConfigError("bound-curve needs a non-negative K")

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

    def trial_cache(self, state: DensityMatrix, dist: MeasurementDistribution, seed) -> TrialCache:
        """The minimum-m search's trials for one target, distribution
        and root seed, under this config's noise, sampling and k_max."""
        return TrialCache(
            state, dist, seed,
            k_max=self.k_max, noise=self.noise_model(),
            replacement=self.with_replacement(),
        )

    def out_path(self) -> str:
        """Where the table goes: ``out``, else ``<command>.csv`` in the
        default output directory."""
        if self.out is not None:
            return self.out
        return os.path.join(default_out_dir(), f"{self.command}.csv")

    def target_state(self, n: int) -> DensityMatrix:
        if self.generators:
            gens = [PauliString.from_text(g) for g in self.generators]
            group = group_closure(gens)
            if len(group) != 2**n:
                raise ConfigError(
                    f"need {n} independent generators for a pure {n}-qubit target"
                )
            # the projector is the group average; each element adds its
            # signed permutation, so no dense Pauli matrix is formed
            dim = 1 << n
            cols = np.arange(dim)
            acc = np.zeros((dim, dim), dtype=np.complex128)
            for p in group:
                perm, coeff = _pauli_action(p)
                acc[perm, cols] += coeff
            # a 2^n-element stabilizer group averages to its state's projector
            return DensityMatrix._built(acc / dim)
        return ghz_density(n)

    def distribution(self, n: int) -> MeasurementDistribution:
        if self.generators:
            gens = [PauliString.from_text(g) for g in self.generators]
            return distribution_from_generators(gens, self.dist)
        return build_distribution(n, self.dist)

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        for name in self._PATH_FIELDS:
            d[name] = None
        d["tool_version"] = __version__
        # documentation keys, ignored on replay
        d["fidelity_convention"] = "amplitude (F, not F^2)"
        return d


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
    training = sample_training_set(
        dist, state, config.m,
        noise=config.noise_model(), seed=(config.seed, 0),
        replacement=config.with_replacement(),
    )
    if config.training_out:
        _write_training(training, config)
    obj = Objective(training)
    hyp = hazan_optimize(obj, k_max=config.k_max)
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
        obj.value(mixed.matrix),
        evaluate_epsilon(mixed, state, dist, config.gamma),
        fidelity(mixed, state),
        1.0,
    )
    return _finalize(table, config)


def _write_training(training, config: ExperimentConfig) -> None:
    table = ResultTable(config=config.echo(), columns=("pauli", "value", "provenance"))
    prov = training.noise.describe().replace(",", ";")
    for eff, val in training.items:
        table.append(str(eff.pauli), val, prov)
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
        scores = []
        for r in range(config.repeats):
            if m == 0:
                sigma = mixed
            else:
                training = sample_training_set(
                    dist, state, m, noise=noise, seed=(config.seed, m, r),
                    replacement=config.with_replacement(),
                )
                sigma = hazan_optimize(Objective(training), k_max=config.k_max).sigma
            scores.append((
                evaluate_epsilon(sigma, state, dist, config.gamma),
                fidelity(sigma, state),
                fidelity(sigma, mixed),
            ))
        chunk = np.array(scores)
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
    their defaults. Each repeat reuses its cached trials across the
    grid, so relaxing the swept parameter never increases m. Trial rows
    record each repeat's search at the first grid value."""
    n = config.n
    state = config.target_state(n)
    dist = config.distribution(n)
    trial_rows = [] if config.trials_out else None
    per_repeat = []
    for r in range(config.repeats):
        cache = config.trial_cache(state, dist, (config.seed, r))
        per_repeat.append([
            _search(cache, config.learn_params(**{config.sweep_param: value}), n,
                    trial_rows if j == 0 else None)
            for j, value in enumerate(config.sweep_values)
        ])
    arr = np.array(per_repeat, dtype=float)  # (repeats, len(values))

    table = ResultTable(config=config.echo(), columns=SWEEP_ERRORS_COLUMNS)
    for j, value in enumerate(config.sweep_values):
        table.append(
            config.sweep_param, value, config.repeats,
            float(arr[:, j].mean()), float(arr[:, j].std()),
        )
    if config.trials_out:
        _write_trials(trial_rows, config)
    return _finalize(table, config)


def _search(cache: TrialCache, params: LearnParams, n: int, trial_rows: list | None) -> int:
    """The minimum m on ``cache``; appends one trials-table row per
    trial read to ``trial_rows`` unless it is None."""
    record = None
    if trial_rows is not None:
        def record(m, i, eps, failed):
            seed = ";".join(str(part) for part in cache.trial_seed(m, i))
            trial_rows.append((n, m, i, eps, failed, f"({seed})"))
    return estimate_min_m(cache, params, record=record)


def _write_trials(rows, config: ExperimentConfig) -> None:
    table = ResultTable(config=config.echo(), columns=TRIALS_COLUMNS)
    for row in sorted(rows):
        table.append(*row)
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
    trial_rows = [] if config.trials_out else None

    table = ResultTable(config=config.echo(), columns=SCALING_COLUMNS)
    points = []
    for n in ns:
        state = config.target_state(n)
        dist = config.distribution(n)
        min_ms = [
            _search(config.trial_cache(state, dist, (config.seed, n, r)), params, n, trial_rows)
            for r in range(config.repeats)
        ]
        chunk = np.array(min_ms, dtype=float)
        points.append((n, float(chunk.mean())))
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
