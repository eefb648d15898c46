"""Measurement distributions, training-set generation, and noise models.

Sampling is i.i.d. with replacement by default; the without-replacement
mode reproduces protocols phrased as "sets of measurement
configurations". All randomness flows through numpy Generators (PCG64)
in the state ``np.random.default_rng(seed)`` starts from, so every draw
is reproducible from the recorded seed. :func:`_pcg64_states` computes
those states for a whole batch of seeds at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

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


# numpy's SeedSequence (bit_generator.pyx), after O'Neill's seed_seq
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seed) -> list[int]:
    """The uint32 entropy words SeedSequence reads from a seed, an
    integer or a sequence of integers: each component as its
    little-endian words (0 is one word), in order. Raises as
    SeedSequence does: ValueError for a negative component, TypeError
    for one that is not an integer."""
    words = []
    for part in seed if isinstance(seed, (list, tuple, range, np.ndarray)) else (seed,):
        n = operator.index(part)
        if n < 0:
            raise ValueError(f"expected non-negative integer seed component, got {n}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _word_groups(seeds: Sequence) -> Iterator[tuple[list[int], np.ndarray]]:
    """Seed positions and their (rows, L) uint32 entropy words, one pair
    per word count L. A (T, k) batch of components below 2^32, a fill's
    seeds, is one group read as one array; any other batch is split seed
    by seed (:func:`_seed_words`)."""
    try:
        array = np.array(seeds)
    except ValueError:
        # seeds of mixed lengths; components that overflow int64 give an
        # object or float array, which the dtype test below sends on too
        array = None
    if array is not None and array.ndim == 2 and array.dtype.kind in "iu" and array.size:
        if array.min() < 0:
            raise ValueError(f"expected non-negative integer seed component, got {array.min()}")
        if array.max() <= _MASK32:
            yield list(range(len(array))), array.astype(np.uint32)
            return
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for t, seed in enumerate(seeds):
        words = _seed_words(seed)
        rows, table = groups.setdefault(len(words), ([], []))
        rows.append(t)
        table.append(words)
    for rows, table in groups.values():
        yield rows, np.array(table, dtype=np.uint32)


@lru_cache
def _hash_steps(size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """SeedSequence's hash constants for L = ``size`` entropy words, as
    the (xor, multiply) column pairs of the steps of
    :func:`_generated_words`; a pool word that a step leaves alone gets
    a dummy pair.

    The constants run h_0 = init, h_{j+1} = h_j * mult mod 2^32, and
    hash j xors with h_j and multiplies by h_{j+1}: they depend on the
    hash's position alone, never on the seed.
    """
    def run(init, mult, count):
        consts = [init]
        for _ in range(count):
            consts.append(consts[-1] * mult & _MASK32)
        return consts

    a = run(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * max(size - _POOL_SIZE, 0))
    b = run(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    pairs = [(a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])]
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor, mul = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mul[dst] = a[j], a[j + 1]
                j += 1
        pairs.append((xor, mul))
    for _ in range(_POOL_SIZE, size):
        pairs.append((a[j:j + _POOL_SIZE], a[j + 1:j + _POOL_SIZE + 1]))
        j += _POOL_SIZE
    pairs.append((b[:-1], b[1:]))
    steps = []
    for xor, mul in pairs:
        xor, mul = (np.array(c, dtype=np.uint32)[:, None] for c in (xor, mul))
        xor.setflags(write=False)
        mul.setflags(write=False)
        steps.append((xor, mul))
    return steps


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _generated_words(words: np.ndarray) -> list[list[int]]:
    """``SeedSequence(row).generate_state(4, uint64)`` for each row of
    (T, L) uint32 entropy words, as Python ints.

    SeedSequence's loops, with every step over all T seeds at once, and
    one step over the four pool words where they take the same input:
    the entropy hashed into the pool, each pool word mixed into the
    three others, each entropy word past the fourth mixed into all four,
    then eight hashed words read cyclically off the pool.
    """
    size = words.shape[1]
    entropy = words.T
    steps = iter(_hash_steps(size))
    first = np.zeros((_POOL_SIZE, len(words)), dtype=np.uint32)
    first[:min(size, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hash(first, *next(steps))
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], *next(steps)))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(_POOL_SIZE, size):
        pool = _mix(pool, _hash(entropy[src], *next(steps)))
    state = _hash(np.concatenate([pool, pool]), *next(steps)).astype(np.uint64)
    # uint64 word i is uint32 words 2i (low) and 2i + 1 (high)
    return ((state[1::2] << np.uint64(32)) | state[0::2]).T.tolist()


def _pcg64_states(seeds: Sequence) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)``
    starts from, for each seed of a batch, computed for the whole batch
    at once.

    ``default_rng(seed)`` seeds PCG64 with ``SeedSequence(seed)
    .generate_state(4, uint64)``. SeedSequence is a fixed hash of the
    seed's uint32 entropy words (:func:`_seed_words`): 32-bit multiply
    and xor-shift steps whose constants depend only on the step, so the
    seeds of one word count share every step as one uint32 array
    operation (:func:`_generated_words`). Its four uint64 words w0..w3
    give PCG64's ``initstate = w0 << 64 | w1`` and
    ``inc = (w2 << 64 | w3) << 1 | 1``; PCG64 then takes one LCG step
    from state 0, adds ``initstate`` and takes one more
    (``pcg_setseq_128_srandom_r``). Those 128-bit steps run on Python
    ints, one seed at a time.

    Each seed is a non-negative integer or a sequence of them; a
    negative component raises ``ValueError``, as SeedSequence does, and
    one that is not an integer ``TypeError``. ``tests/test_sampling.py`` holds
    every state to ``default_rng``'s, so a numpy release that changed
    SeedSequence or PCG64 seeding fails there.
    """
    states: list = [None] * len(seeds)
    for rows, words in _word_groups(seeds):
        for t, (a, b, c, d) in zip(rows, _generated_words(words)):
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            states[t] = (((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc)
    return states


def _seeded(seeds: Sequence) -> Iterator[np.random.Generator]:
    """One Generator, set in turn to the state ``np.random.default_rng``
    starts from for each seed: the same draws, without a SeedSequence
    and a PCG64 per seed. Its 32-bit buffer is emptied each time, as a
    fresh PCG64's is; the binomial set-up a Generator caches depends only
    on its arguments, so it gives the draws a fresh Generator gives."""
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in _pcg64_states(seeds):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


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


def draw_training_sets(
    dist: MeasurementDistribution,
    state: DensityMatrix,
    m: int,
    seeds: Sequence,
    noise: NoiseModel | None = None,
    replacement: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The training sets of size m drawn with each of ``seeds``, as a
    (T, m) array of support indices and a (T, m) array of observed
    values, row t drawn with ``seeds[t]``.

    Each set's generator starts where ``np.random.default_rng(seed)``
    does (:func:`_seeded`) and draws the set's support indices first,
    then one ``noise.observe`` per item, in order. The exact values are
    read from the support's Tr(E rho) table
    (:meth:`~qpac.states.EffectBatch.expected`), looked up once.
    """
    noise = noise or NoiseModel.exact()
    table = dist.batch.expected(state)
    indices = np.empty((len(seeds), max(m, 0)), dtype=np.int64)
    values = None if noise.kind == "exact" else np.empty(indices.shape)
    for t, rng in enumerate(_seeded(seeds)):
        indices[t] = _draw_indices(rng, len(dist), m, replacement)
        if values is not None:
            values[t] = [noise.observe(p, rng) for p in table[indices[t]].tolist()]
    return indices, table[indices] if values is None else values


def sample_training_set(
    dist: MeasurementDistribution,
    state: DensityMatrix,
    m: int,
    noise: NoiseModel | None = None,
    seed=0,
    replacement: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The one-set form of :func:`draw_training_sets`: the (m,) support
    indices and observed values of the set drawn with ``seed``.

    No protocol calls it; every one draws through
    :func:`draw_training_sets`. It stays because the benchmark's
    per-layer tracer (``perfbench/tracing.py``) wraps it by name.
    """
    indices, values = draw_training_sets(dist, state, m, [seed], noise, replacement)
    return indices[0], values[0]
