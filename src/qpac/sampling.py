"""Measurement distributions, training-set generation, and noise models.

Sampling is i.i.d. with replacement by default; the without-replacement
mode reproduces protocols phrased as "sets of measurement
configurations". All randomness flows through seeded numpy Generators
(PCG64), so every draw is reproducible from the recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import StructureError
from .pauli import PauliString, StabilizerGroup, ghz_generators, group_closure, xz_subset
from .states import DensityMatrix, EffectBatch, MeasurementEffect

FULL_STABILIZER = "d1"  # uniform over all non-identity stabilizer effects
XZ_STABILIZER = "d2"    # uniform over the Y-free subset


@dataclass(frozen=True)
class NoiseModel:
    """How observed values relate to the exact expectations.

    kind "exact" reports Tr(E rho) itself; "shots" averages S Bernoulli
    outcomes; "gaussian" perturbs the exact value and clamps to [0, 1].
    """

    kind: str = "exact"
    shots: int = 0
    std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "shots", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "shots" and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.kind == "gaussian" and self.std < 0:
            raise ValueError(f"gaussian std must be >= 0, got {self.std}")

    @classmethod
    def exact(cls) -> "NoiseModel":
        return cls("exact")

    @classmethod
    def with_shots(cls, shots: int) -> "NoiseModel":
        return cls("shots", shots=shots)

    @classmethod
    def gaussian(cls, std: float) -> "NoiseModel":
        return cls("gaussian", std=std)

    def observe(self, p: float, rng: np.random.Generator) -> float:
        """Observed value for the exact expectation p: p itself, or one
        ``binomial`` or ``normal`` draw from rng."""
        if self.kind == "exact":
            return p
        if self.kind == "shots":
            return float(rng.binomial(self.shots, p)) / self.shots
        return float(np.clip(p + rng.normal(0.0, self.std), 0.0, 1.0))

    def describe(self) -> str:
        if self.kind == "shots":
            return f"shots({self.shots})"
        if self.kind == "gaussian":
            return f"gaussian({self.std})"
        return "exact"


@dataclass(frozen=True)
class MeasurementDistribution:
    """Uniform distribution over an ordered tuple of effects.

    The support owns its tables: :attr:`batch`, built on first use,
    holds every effect's signed permutation and each target state's
    Tr(E rho), and every trial drawn from the support reads them.
    """

    effects: tuple[MeasurementEffect, ...]
    label: str = "custom"

    def __post_init__(self):
        if not self.effects:
            raise StructureError("distribution support is empty")
        n = self.effects[0].n
        if any(e.n != n for e in self.effects):
            raise StructureError("support mixes qubit counts")
        if any(e.pauli.is_identity for e in self.effects):
            raise StructureError("identity effect is excluded from the support")
        if len(set(self.effects)) != len(self.effects):
            raise StructureError("duplicate effects in support")
        if self.label == FULL_STABILIZER and len(self.effects) != 2**n - 1:
            raise StructureError(
                f"{FULL_STABILIZER} support must have 2^n - 1 elements, got {len(self.effects)}"
            )
        if self.label == XZ_STABILIZER and len(self.effects) != 2 ** (n - 1):
            raise StructureError(
                f"{XZ_STABILIZER} support must have 2^(n-1) elements, got {len(self.effects)}"
            )

    @property
    def n(self) -> int:
        return self.effects[0].n

    @cached_property
    def batch(self) -> EffectBatch:
        """The support's one :class:`~qpac.states.EffectBatch`."""
        return EffectBatch(self.effects)

    def __len__(self) -> int:
        return len(self.effects)


def _support(group: StabilizerGroup, label: str) -> tuple[MeasurementEffect, ...]:
    """The support a label selects from a stabilizer group, in canonical
    order: "d1" all non-identity elements, "d2" the Y-free ones."""
    if label == FULL_STABILIZER:
        paulis = group.non_identity()
    elif label == XZ_STABILIZER:
        paulis = xz_subset(group)
    else:
        raise ValueError(f"unsupported distribution label {label!r}")
    return tuple(MeasurementEffect(p) for p in paulis)


@lru_cache
def build_distribution(n: int, label: str) -> MeasurementDistribution:
    """The two GHZ learning distributions.

    "d1" is uniform over all 2^n - 1 non-identity stabilizer effects of
    GHZ_n; "d2" over the 2^(n-1) effects whose Pauli strings contain
    only I, X, Z factors. Both in canonical order. Each is built once
    per process, so its :attr:`~MeasurementDistribution.batch` is too.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return MeasurementDistribution(_support(group_closure(ghz_generators(n)), label), label)


@lru_cache
def stabilizer_group(generators: tuple[PauliString, ...]) -> StabilizerGroup:
    """The :func:`~qpac.pauli.group_closure` of a generator tuple, closed
    once per process: a custom target's state and each of its supports
    read the same group. Raises :class:`StructureError` as the closure
    does."""
    return group_closure(generators)


def distribution_from_generators(
    generators: Sequence[PauliString], label: str = FULL_STABILIZER
) -> MeasurementDistribution:
    """The "d1" or "d2" support of an arbitrary stabilizer target,
    labelled "custom": its size follows the group, not GHZ_n. Like
    :func:`build_distribution`, each is built once per process per
    generator tuple and label, so its batch is too."""
    return _generator_distribution(tuple(generators), label)


@lru_cache
def _generator_distribution(generators: tuple[PauliString, ...], label: str) -> MeasurementDistribution:
    return MeasurementDistribution(_support(stabilizer_group(generators), label), "custom")


@dataclass(frozen=True)
class TrainingSet:
    """Sampled (effect, observed value) pairs plus provenance.

    ``indices`` holds each item's position in the support it was drawn
    from, as :func:`sample_training_set` records it; a hand-built set
    has none. An objective given that support reads the rows of a set
    with indices from the support's batch (see :class:`qpac.learner.Objective`).
    """

    items: tuple[tuple[MeasurementEffect, float], ...]
    noise: NoiseModel = field(default_factory=NoiseModel.exact)
    seed: object = None
    indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.items) < 1:
            raise ValueError("training set must contain at least one item")
        for _, v in self.items:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"observed value {v} outside [0, 1]")
        if self.indices is not None and len(self.indices) != len(self.items):
            raise ValueError(f"{len(self.indices)} support indices for {len(self.items)} items")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def m(self) -> int:
        return len(self.items)

    def effects(self) -> tuple[MeasurementEffect, ...]:
        return tuple(e for e, _ in self.items)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.items], dtype=float)


def _draw_indices(rng, size: int, m: int, replacement: bool) -> np.ndarray:
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if replacement:
        return rng.integers(0, size, size=m)
    if m > size:
        raise ValueError(
            f"cannot draw {m} distinct effects from a support of {size}"
        )
    return rng.permutation(size)[:m]


def _exact_draws(
    dist: MeasurementDistribution, state: DensityMatrix, m: int, rng, replacement: bool
) -> tuple[list[int], list[float]]:
    """The support positions of m uniform draws, and each drawn effect's
    Tr(E rho), read from the support's table
    (:meth:`~qpac.states.EffectBatch.expected`)."""
    idx = _draw_indices(rng, len(dist), m, replacement)
    return idx.tolist(), dist.batch.expected(state)[idx].tolist()


def sample_training_set(
    dist: MeasurementDistribution,
    state: DensityMatrix,
    m: int,
    noise: NoiseModel | None = None,
    seed=0,
    replacement: bool = True,
) -> TrainingSet:
    """m uniform draws from the support with observed values per the
    noise model. Fully reproducible from the seed.

    Each draw's exact value is read from the support's Tr(E rho) table,
    computed once per target state. The set records each draw's support
    position as its ``indices``.
    """
    noise = noise or NoiseModel.exact()
    rng = np.random.default_rng(seed)
    idx, values = _exact_draws(dist, state, m, rng, replacement)
    items = tuple((dist.effects[i], noise.observe(p, rng)) for i, p in zip(idx, values))
    return TrainingSet(items, noise, seed, tuple(idx))


def per_shot_outcomes(
    dist: MeasurementDistribution,
    state: DensityMatrix,
    m_prime: int,
    shots: int,
    seed=0,
    replacement: bool = True,
):
    """Raw Bernoulli outcomes grouped per sampled effect.

    Returns a list of (effect, bits) with bits a uint8 array of length
    ``shots``; each bit is 1 with probability Tr(E rho).
    """
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    idx, values = _exact_draws(dist, state, m_prime, rng, replacement)
    return [
        (dist.effects[i], (rng.random(shots) < p).astype(np.uint8))
        for i, p in zip(idx, values)
    ]
