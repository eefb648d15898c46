"""Distribution construction, seeded sampling, and the noise models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    MeasurementDistribution,
    NoiseModel,
    PauliString,
    StructureError,
    build_distribution,
    distribution_from_generators,
    expectation,
    ghz_density,
    ghz_generators,
    maximally_mixed,
    sample_training_set,
)
from qpac.experiments import ExperimentConfig
from qpac.sampling import _draw_indices, _pcg64_states, draw_training_sets

from conftest import random_density
from test_acceptance import per_shot_outcomes


def P(text):
    return PauliString.from_text(text)


class TestBuildDistribution:
    def test_d1_sizes(self):
        assert len(build_distribution(4, "d1")) == 15
        assert len(build_distribution(2, "d1")) == 3

    def test_d2_sizes(self):
        assert len(build_distribution(3, "d2")) == 4
        assert len(build_distribution(6, "d2")) == 32

    def test_d1_n2_support(self):
        support = set(build_distribution(2, "d1").effects)
        assert support == {P("XX"), P("ZZ"), P("-YY")}

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            build_distribution(3, "d3")

    def test_identity_excluded(self):
        with pytest.raises(StructureError):
            MeasurementDistribution((P("II"),))

    def test_duplicates_rejected(self):
        e = P("XX")
        with pytest.raises(StructureError):
            MeasurementDistribution((e, e))

    def test_size_labels_enforced(self):
        effects = build_distribution(3, "d1").effects[:4]
        with pytest.raises(StructureError):
            MeasurementDistribution(effects, label="d1")

    def test_from_generators_variants(self):
        gens = ghz_generators(3)
        assert len(distribution_from_generators(gens, "d1")) == 7
        assert len(distribution_from_generators(gens, "d2")) == 4
        with pytest.raises(ValueError):
            distribution_from_generators(gens, "bogus")


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("bogus")
        with pytest.raises(ValueError):
            NoiseModel.with_shots(0)
        with pytest.raises(ValueError):
            NoiseModel.gaussian(-0.1)
        with pytest.raises(ValueError):
            NoiseModel.gaussian(float("nan"))

    def test_describe(self):
        assert NoiseModel.exact().describe() == "exact"
        assert NoiseModel.with_shots(100).describe() == "shots(100)"
        assert NoiseModel.gaussian(0.05).describe() == "gaussian(0.05)"


class TestSampleTrainingSet:
    def test_exact_ghz_values_are_one(self):
        d = build_distribution(3, "d1")
        idx, vals = sample_training_set(d, ghz_density(3), 10, seed=5)
        assert idx.shape == vals.shape == (10,)
        assert np.all(vals == 1.0)

    def test_reproducible_and_seed_sensitive(self):
        d = build_distribution(4, "d1")
        rho = ghz_density(4)
        a = sample_training_set(d, rho, 20, seed=9)
        b = sample_training_set(d, rho, 20, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        seen = set()
        for seed in range(100):
            idx, _ = sample_training_set(d, rho, 10, seed=seed)
            seen.add(tuple(idx.tolist()))
        assert len(seen) == 100  # no collisions across 100 seeds

    def test_uniform_within_multinomial_bounds(self):
        d = build_distribution(3, "d1")
        rho = ghz_density(3)
        idx, _ = sample_training_set(d, rho, 100_000, seed=2)
        counts = np.bincount(idx, minlength=len(d))
        k = len(d)
        expect = 100_000 / k
        sigma = np.sqrt(100_000 * (1 / k) * (1 - 1 / k))
        for c in counts:
            assert abs(c - expect) < 5 * sigma

    def test_with_replacement_duplicates(self):
        d = build_distribution(2, "d1")
        rho = ghz_density(2)
        dup_seen = 0
        for seed in range(30):
            idx, _ = sample_training_set(d, rho, len(d) + 1, seed=seed)
            if len(set(idx.tolist())) < len(idx):
                dup_seen += 1
        assert dup_seen == 30  # pigeonhole: m > support forces duplicates

    def test_without_replacement(self):
        d = build_distribution(3, "d1")
        rho = ghz_density(3)
        idx, _ = sample_training_set(d, rho, len(d), seed=1, replacement=False)
        assert len(set(idx.tolist())) == len(d)
        with pytest.raises(ValueError):
            sample_training_set(d, rho, len(d) + 1, seed=1, replacement=False)

    def test_shot_noise_concentrates(self):
        d = build_distribution(3, "d1")
        mixed = maximally_mixed(3)
        _, vals = sample_training_set(d, mixed, 50, noise=NoiseModel.with_shots(10_000), seed=3)
        # binomial tail: P(|mean - 0.5| > 0.02 at S=1e4) < 1e-4 per item
        assert np.max(np.abs(vals - 0.5)) < 0.02

    def test_gaussian_zero_is_exact(self):
        d = build_distribution(2, "d1")
        rho = ghz_density(2)
        _, a = sample_training_set(d, rho, 8, noise=NoiseModel.gaussian(0.0), seed=4)
        _, b = sample_training_set(d, rho, 8, noise=NoiseModel.exact(), seed=4)
        assert a.tolist() == b.tolist()

    def test_gaussian_clamped(self):
        d = build_distribution(2, "d1")
        rho = ghz_density(2)  # exact values are 1.0, noise pushes above
        _, vals = sample_training_set(d, rho, 50, noise=NoiseModel.gaussian(0.5), seed=6)
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
        assert np.any(vals < 1.0)

    def test_m_validation(self):
        d = build_distribution(2, "d1")
        with pytest.raises(ValueError):
            sample_training_set(d, ghz_density(2), 0, seed=1)

    @pytest.mark.parametrize("replacement", [True, False])
    def test_records_support_indices(self, replacement):
        # the set is the index and value row that draw_training_sets
        # draws with the same seed
        d, rho = build_distribution(3, "d1"), ghz_density(3)
        idx, vals = sample_training_set(d, rho, 6, seed=8, replacement=replacement)
        [want_idx], [want_vals] = draw_training_sets(d, rho, 6, [8], replacement=replacement)
        assert idx.tobytes() == want_idx.tobytes()
        assert vals.tobytes() == want_vals.tobytes()

    @pytest.mark.parametrize("noise", [
        NoiseModel.exact(), NoiseModel.with_shots(7), NoiseModel.gaussian(0.1),
    ])
    def test_exact_table_gives_the_same_set(self, noise):
        # the support's Tr(E rho) table gives every draw the bytes that
        # expectation() gives its effect alone
        cluster = ExperimentConfig(n=3, m=1, generators=["XZI", "ZXZ", "IZX"])
        targets = [
            (build_distribution(3, "d1"), ghz_density(3)),
            (cluster.distribution(3), cluster.target_state(3)),
            (build_distribution(3, "d1"), maximally_mixed(3)),
        ]
        for d, rho in targets:
            for seed in range(5):
                _, got = sample_training_set(d, rho, 9, noise=noise, seed=seed)
                rng = np.random.default_rng(seed)
                want = [noise.observe(expectation(d.effects[i], rho), rng)
                        for i in _draw_indices(rng, len(d), 9, True).tolist()]
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(want).tobytes()

    def test_dust_clamped(self):
        # Tr(ZZ rho) = 1 + 8e-10: the drawn exact value is clamped to 1
        dust = DensityMatrix(np.diag([1 + 4e-10, -4e-10, 0, 0]).astype(complex))
        d = build_distribution(2, "d1")
        idx, vals = sample_training_set(d, dust, 6, seed=1)
        zz = [v for i, v in zip(idx.tolist(), vals.tolist()) if d.effects[i].x == 0]
        assert zz and all(v == 1.0 for v in zz)


# seed components of one to four uint32 words: below 2^32, below 2^64,
# and up to 2^64 itself, with 0 (one word) and the word boundaries
_COMPONENTS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5]),
)


def _default_rng_state(seed) -> tuple[int, int]:
    state = np.random.default_rng(seed).bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


def _reference_draw(dist, rho, m, noise, seed, replacement):
    # a training set as default_rng draws it: its support indices first,
    # then one noise draw per item
    rng = np.random.default_rng(seed)
    idx = _draw_indices(rng, len(dist), m, replacement).tolist()
    table = dist.batch.expected(rho)
    return idx, [noise.observe(float(table[i]), rng) for i in idx]


class TestVectorizedSeeding:
    """``_pcg64_states`` gives each seed the PCG64 state that
    ``np.random.default_rng`` gives it: a numpy release that changes
    SeedSequence or PCG64 seeding fails here."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_states_match_default_rng(self, data):
        # a (T, k) batch of equal-length seeds, or seeds of mixed lengths
        if data.draw(st.booleans()):
            k = data.draw(st.integers(1, 6))
            seeds = data.draw(st.lists(st.tuples(*[_COMPONENTS] * k), min_size=1, max_size=8))
        else:
            seeds = data.draw(st.lists(st.lists(_COMPONENTS, min_size=1, max_size=6).map(tuple),
                                       min_size=1, max_size=8))
        assert _pcg64_states(seeds) == [_default_rng_state(s) for s in seeds]

    @pytest.mark.parametrize("seeds", [
        [5], [0, 2**64, 2**32], [[7, 8], (1, 2, 3), range(4)], [np.array([3, 2**40])],
    ])
    def test_integer_and_sequence_seeds(self, seeds):
        assert _pcg64_states(seeds) == [_default_rng_state(s) for s in seeds]

    @pytest.mark.parametrize("seeds", [
        [(1, -2)], [-1], [(1, 2), (3, -4)], [(1, 2), (3,), (-5,)], [(2**70, -1)],
    ])
    def test_negative_component_raises(self, seeds):
        with pytest.raises(ValueError):
            np.random.default_rng(seeds[-1])
        with pytest.raises(ValueError):
            _pcg64_states(seeds)

    @pytest.mark.parametrize("seeds", [[None], [1.5], [(1, 2.0)], [("3",)], [(1, (2, 3))]])
    def test_non_integer_component_raises(self, seeds):
        with pytest.raises(TypeError):
            _pcg64_states(seeds)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_draws_match_default_rng(self, data):
        # a random state's exact values differ from effect to effect, so
        # the shots case draws binomials of changing p from one Generator
        rho = data.draw(st.sampled_from(["ghz", "random"]))
        dist = build_distribution(3, data.draw(st.sampled_from(["d1", "d2"])))
        if rho == "ghz":
            rho = ghz_density(3)
        else:
            rho = DensityMatrix(random_density(np.random.default_rng(data.draw(st.integers(0, 99))), 8))
        noise = data.draw(st.one_of(
            st.just(NoiseModel.exact()),
            st.integers(1, 200).map(NoiseModel.with_shots),
            st.floats(0.0, 0.5).map(NoiseModel.gaussian),
        ))
        replacement = data.draw(st.booleans())
        m = data.draw(st.integers(1, len(dist) + 3 if replacement else len(dist)))
        seeds = data.draw(st.lists(st.tuples(_COMPONENTS, st.integers(1, 12), st.integers(0, 49)),
                                   min_size=1, max_size=6))
        indices, values = draw_training_sets(dist, rho, m, seeds, noise, replacement)
        assert indices.shape == values.shape == (len(seeds), m)
        for seed, idx, vals in zip(seeds, indices, values):
            want_idx, want_vals = _reference_draw(dist, rho, m, noise, seed, replacement)
            assert idx.tolist() == want_idx
            assert vals.tobytes() == np.array(want_vals).tobytes()
            alone_idx, alone_vals = sample_training_set(dist, rho, m, noise=noise, seed=seed,
                                                        replacement=replacement)
            assert alone_idx.tolist() == want_idx
            assert alone_vals.tobytes() == vals.tobytes()

    def test_no_seeds_draw_nothing(self):
        indices, values = draw_training_sets(build_distribution(2, "d1"), ghz_density(2), 3, [])
        assert indices.shape == values.shape == (0, 3)


class TestPerShotOutcomes:
    def test_ghz_all_ones(self):
        d = build_distribution(3, "d1")
        out = per_shot_outcomes(d, ghz_density(3), 5, shots=64, seed=1)
        assert len(out) == 5
        for _, bits in out:
            assert bits.shape == (64,)
            assert np.all(bits == 1)

    def test_mixed_clt_bound(self):
        d = build_distribution(3, "d1")
        out = per_shot_outcomes(d, maximally_mixed(3), 10, shots=4096, seed=2)
        for _, bits in out:
            assert abs(bits.mean() - 0.5) < 3 / np.sqrt(4096)

    def test_single_shot(self):
        d = build_distribution(2, "d1")
        out = per_shot_outcomes(d, maximally_mixed(2), 6, shots=1, seed=3)
        for _, bits in out:
            assert bits.shape == (1,)
            assert bits[0] in (0, 1)

    def test_shots_validation(self):
        d = build_distribution(2, "d1")
        with pytest.raises(ValueError):
            per_shot_outcomes(d, ghz_density(2), 3, shots=0, seed=1)
