"""Density matrices, effects, expectations, and fidelity against dense
oracles."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qpac.states
from qpac import (
    DensityMatrix,
    NoiseModel,
    NonPhysicalStateError,
    PauliString,
    build_distribution,
    expectation,
    fidelity,
    ghz_density,
    ghz_generators,
    group_closure,
    maximally_mixed,
    stabilizer_state,
)
from qpac.learner import learn_each
from qpac.sampling import draw_training_sets
from qpac.states import EffectBatch

from conftest import ghz_vector, kron_dense, pauli_action, random_density, scattered_sum


def P(text):
    return PauliString.from_text(text)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    NON_FINITE = (
        np.full((2, 2), np.nan),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 1j * np.nan], [-1j * np.nan, 0.5]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.array([[0.5, np.inf], [0.0, 0.5]]),
    )

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_non_finite_rejected(self, m):
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(m)

    def test_non_finite_rejected_without_warnings(self):
        for m in self.NON_FINITE:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPhysicalStateError, match="not finite"):
                    DensityMatrix(m)

    def test_empty_matrix_rejected(self):
        with pytest.raises(NonPhysicalStateError, match="empty"):
            DensityMatrix(np.zeros((0, 0)))

    def test_rounding_dust_accepted(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        DensityMatrix(m)  # within both tolerances

    @given(
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 6),
        low=st.one_of(
            st.none(),
            st.floats(-12, -3).map(lambda e: -1e-9 + 10.0**e),
            st.floats(-12, -3).map(lambda e: -1e-9 - 10.0**e),
        ),
        rotate=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_psd_rule_matches_eigvalsh(self, dim, seed, rank, low, rotate):
        """Accepted exactly when eigvalsh(m)[0] >= -1e-9, away from the
        boundary; low=None gives a rank-r projector (scaled to trace 1)."""
        rng = np.random.default_rng(seed)
        rank = min(rank, dim)
        if low is None:
            vals = np.r_[np.full(rank, 1.0 / rank), np.zeros(dim - rank)]
        else:
            assume(dim >= 2)
            rest = rng.random(dim - 1) + 1e-3
            vals = np.r_[low, rest * (1.0 - low) / rest.sum()]
        u = np.eye(dim, dtype=complex)
        if rotate:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            u, _ = np.linalg.qr(g)
        m = (u * vals) @ u.conj().T
        m = (m + m.conj().T) / 2
        m = m / np.trace(m).real
        lam = float(np.linalg.eigvalsh(m)[0])
        assume(abs(lam + 1e-9) > 1e-12)
        if lam >= -1e-9:
            DensityMatrix(m)
        else:
            with pytest.raises(NonPhysicalStateError) as err:
                DensityMatrix(m)
            assert f"smallest eigenvalue {lam} " in str(err.value)

    def test_immutable(self):
        rho = ghz_density(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestGhzDensityConstruction:
    def test_entries_n2(self):
        m = ghz_density(2).matrix
        expect = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expect[i, j] = 0.5
        assert np.array_equal(m, expect)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_purity_and_vector(self, n):
        rho = ghz_density(n)
        assert abs(np.trace(rho.matrix) - 1) < 1e-14
        assert abs(rho.purity() - 1.0) < 1e-12
        v = ghz_vector(n)
        assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-15)
        assert np.count_nonzero(rho.matrix) == 4

    def test_range(self):
        with pytest.raises(ValueError):
            ghz_density(1)
        with pytest.raises(ValueError):
            ghz_density(11)


class TestMaximallyMixed:
    def test_entries(self):
        assert np.array_equal(maximally_mixed(1).matrix, np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_purity(self, n):
        assert abs(maximally_mixed(n).purity() - 2.0**-n) < 1e-14

    def test_nonidentity_effect_is_half(self):
        mixed = maximally_mixed(3)
        for p in group_closure(ghz_generators(3)).non_identity():
            assert expectation(p, mixed) == pytest.approx(0.5, abs=1e-14)


def action_dense(p):
    """The matrix of P|k> = c_k |perm_k>, scattered from the masks of P
    to [k ^ x, k] (``conftest.scattered_sum``)."""
    return scattered_sum([p], [1.0])


class TestToDense:
    """The signed permutation read from the masks, the reference of the
    batch's tables and sums, against the kron oracle."""

    def test_single_x(self):
        assert np.array_equal(action_dense(P("X")), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_negated_yy(self):
        y = np.array([[0, -1j], [1j, 0]])
        assert np.allclose(action_dense(P("-YY")), -np.kron(y, y), atol=1e-15)

    def test_ziz_traceless(self):
        assert abs(np.trace(action_dense(P("ZIZ")))) == 0

    def test_against_kron_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            p = PauliString(tuple(rng.choice(list("IXYZ"), n)), int(rng.choice([1, -1])))
            assert np.array_equal(action_dense(p), kron_dense(p))


@st.composite
def signed_strings(draw):
    """1 to 16 signed strings on one qubit count, Y factors allowed,
    drawn from a pool of at most 6 so that repeats are common."""
    n = draw(st.integers(1, 6))
    factors = st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map(tuple)
    pool = draw(st.lists(st.builds(PauliString, factors, st.sampled_from([1, -1])),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    return [pool[i] for i in picks]


class TestEffectBatchTables:
    @given(strings=signed_strings())
    @settings(max_examples=200, deadline=None)
    def test_row_is_its_one_effect_batch(self, strings):
        """Row t of a batch's tables holds the bytes of the one-effect
        batch of string t, whatever the other rows hold."""
        batch = EffectBatch(strings)
        for t, p in enumerate(strings):
            one = EffectBatch([p])
            for name in ("_gather_idx", "_coeff"):
                row, want = getattr(batch, name)[t], getattr(one, name)[0]
                assert row.dtype == want.dtype and row.tobytes() == want.tobytes()

    @given(strings=signed_strings())
    @settings(max_examples=100, deadline=None)
    def test_row_is_the_action_of_its_masks(self, strings):
        """Row t holds the gather positions [k, k ^ x] and the
        coefficients of string t, read from its masks."""
        batch = EffectBatch(strings)
        k = np.arange(batch.dim)
        for t, p in enumerate(strings):
            perm, coeff = pauli_action(p)
            assert np.array_equal(batch._gather_idx[t], k * batch.dim + perm)
            assert np.array_equal(batch._coeff[t], coeff)


def cluster_generators(n):
    return tuple(P("".join("X" if j == q else "Z" if abs(j - q) == 1 else "I" for j in range(n)))
                 for q in range(n))


class TestStabilizerState:
    """The average of a full group's elements, against the kron oracle:
    every entry is a multiple of 1/2^n, so the two agree exactly."""

    GENERATORS = (
        [ghz_generators(n) for n in range(2, 7)]
        + [cluster_generators(n) for n in range(3, 7)]
        + [tuple(P(g) for g in text.split(","))
           for text in ("XXX,-ZZI,IZZ", "-XXX,ZZI,IZZ", "XXXX,ZZII,-IZZI,IIZZ", "XY,YX",
                        # the first nonzero diagonal entry is not at index 0
                        "-XX,-ZZ", "-ZII,-IZI,-IIZ",
                        # Y factors, which put i into the column
                        "-YY,ZZ", "YZ,ZY")]
    )

    @pytest.mark.parametrize("gens", GENERATORS, ids=lambda gens: ",".join(map(str, gens)))
    def test_matches_kron_oracle(self, gens):
        group = group_closure(gens)
        want = sum(kron_dense(g) for g in group) / 2**group.n
        rho = stabilizer_state(group)
        assert np.array_equal(rho.matrix, want)
        for p in group.non_identity():
            assert expectation(p, rho) == 1.0

    @pytest.mark.parametrize("gens", GENERATORS, ids=lambda gens: ",".join(map(str, gens)))
    def test_bytes_of_the_scatter_reference(self, gens):
        # the group average added at the scatter positions read from the
        # masks, the layout the package no longer keeps: the same bytes
        group = group_closure(gens)
        want = scattered_sum(list(group), np.ones(len(group))) / 2**group.n
        assert stabilizer_state(group).matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gens", GENERATORS, ids=lambda gens: ",".join(map(str, gens)))
    def test_no_negative_zero(self, gens):
        m = stabilizer_state(group_closure(gens)).matrix
        for part in (m.real, m.imag):
            assert not np.signbit(part[part == 0]).any()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_density_has_the_bytes_of_its_four_entries(self, n):
        # v v^dag for the unit vector v = (e_0 + e_{d-1}) / sqrt(2),
        # written entry by entry
        dim = 1 << n
        want = np.zeros((dim, dim), dtype=np.complex128)
        for i in (0, dim - 1):
            for j in (0, dim - 1):
                want[i, j] = 0.5
        assert ghz_density(n).matrix.tobytes() == want.tobytes()

    def test_partial_group_rejected(self):
        with pytest.raises(ValueError, match="needs 4 group elements, got 2"):
            stabilizer_state(group_closure([P("XX")]))


class TestExpectation:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_stabilizer_effects_on_ghz(self, n):
        rho = ghz_density(n)
        for p in group_closure(ghz_generators(n)).non_identity():
            assert expectation(p, rho) == pytest.approx(1.0, abs=1e-12)

    def test_signed_yy_on_ghz2(self):
        rho = ghz_density(2)
        assert expectation(P("-YY"), rho) == pytest.approx(1.0, abs=1e-12)
        assert expectation(P("YY"), rho) == pytest.approx(0.0, abs=1e-12)
        # dense oracle for the same numbers
        e = (np.eye(4) + kron_dense(P("-YY"))) / 2
        assert np.trace(e @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_trace_on_random_states(self, n, rng):
        effects = group_closure(ghz_generators(n)).non_identity()
        for _ in range(20):
            rho = DensityMatrix(random_density(rng, 2**n))
            for eff in effects:
                dense = (np.eye(2**n) + kron_dense(eff)) / 2
                want = float(np.trace(dense @ rho.matrix).real)
                assert expectation(eff, rho) == pytest.approx(want, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(P("XX"), ghz_density(3))

    def test_out_of_range_rejected(self):
        # a trace-one but badly non-PSD matrix pushes Tr(E rho) outside
        # [0,1]; wrapped unchecked, so that the expectation rule decides
        bad = DensityMatrix._built(np.diag([2.0, -1.0]).astype(complex))
        with pytest.raises(NonPhysicalStateError, match="outside"):
            expectation(P("Z"), bad)
        # a non-Hermitian matrix gives Tr(P rho) an imaginary part
        skew = DensityMatrix._built(np.array([[0.5, 0.1j], [0.1j, 0.5]]))
        with pytest.raises(NonPhysicalStateError, match="imaginary"):
            expectation(P("X"), skew)

    def test_dust_clamped(self):
        dust = DensityMatrix(np.diag([1.0 + 4e-10, -4e-10]).astype(complex))
        assert expectation(P("Z"), dust) == 1.0


class TestFidelity:
    def test_self_fidelity(self):
        rho = ghz_density(3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ghz_vs_mixed(self, n):
        f = fidelity(ghz_density(n), maximally_mixed(n))
        assert f == pytest.approx(2.0 ** (-n / 2), abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((4, 4), dtype=complex)
        b[3, 3] = 1.0
        assert fidelity(DensityMatrix(a), DensityMatrix(b)) == pytest.approx(0.0, abs=1e-8)

    def test_symmetry_and_below_one(self, rng):
        for _ in range(10):
            a = DensityMatrix(random_density(rng, 8))
            b = DensityMatrix(random_density(rng, 8))
            fab, fba = fidelity(a, b), fidelity(b, a)
            assert fab == pytest.approx(fba, abs=1e-8)
            assert fab < 1.0

    def test_pure_shortcut_agrees_with_general(self, rng):
        for n in (2, 3):
            pure = ghz_density(n)
            for _ in range(5):
                other = DensityMatrix(random_density(rng, 2**n))
                f_pure = fidelity(pure, other)
                f_general = qpac.states._general_fidelity(pure, other)
                assert f_pure == pytest.approx(f_general, abs=1e-8)

    @pytest.mark.parametrize("pure_first", [True, False])
    def test_pure_path_takes_no_decomposition(self, monkeypatch, rng, pure_first):
        def refuse(*args, **kwargs):
            raise AssertionError("dense decomposition on the pure path")

        monkeypatch.setattr(qpac.states, "eigendecompose", refuse)
        monkeypatch.setattr(qpac.states, "sqrt_psd", refuse)
        pure = DensityMatrix(random_density(rng, 8, rank=1))
        other = DensityMatrix(random_density(rng, 8))
        a, b = (pure, other) if pure_first else (other, pure)
        want = np.sqrt(np.real(np.trace(pure.matrix @ other.matrix)))
        assert fidelity(a, b) == pytest.approx(want, abs=1e-12)
        with pytest.raises(AssertionError):
            fidelity(other, other)

    def test_purity_computed_once_per_state(self, monkeypatch, rng):
        passes = []
        real = DensityMatrix._purity.func

        def counted(state):
            passes.append(state)
            return real(state)

        cached = functools.cached_property(counted)
        cached.__set_name__(DensityMatrix, "_purity")
        monkeypatch.setattr(DensityMatrix, "_purity", cached)
        sigma = DensityMatrix(random_density(rng, 8))
        # fresh states: the package's own are built once per process,
        # and their purity with them
        mixed, target = (DensityMatrix(s.matrix) for s in (maximally_mixed(3), ghz_density(3)))
        want = [fidelity(sigma, target), fidelity(sigma, mixed), fidelity(mixed, target)]
        # the same bytes from the cached purities, and one pass per state
        assert [fidelity(sigma, target), fidelity(sigma, mixed), fidelity(mixed, target)] == want
        assert sigma.purity() == float(np.sum(np.abs(sigma.matrix) ** 2))
        assert sorted(map(id, passes)) == sorted(map(id, [sigma, mixed, target]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(ghz_density(2), ghz_density(3))

    def test_pure_target_computes_no_purity_of_the_other(self, rng):
        sigma = DensityMatrix(random_density(rng, 8))
        target = ghz_density(3)
        want = np.sqrt(np.real(np.trace(sigma.matrix @ target.matrix)))
        assert fidelity(sigma, target) == pytest.approx(want, abs=1e-12)
        assert "_purity" not in vars(sigma)


def y_target(n):
    """(|0...0> + i|1...1>) / sqrt(2), stabilized by YX...X and the GHZ
    pairs ZZ: a pure target with imaginary entries, so rho^T = conj(rho)
    differs from rho."""
    return stabilizer_state(group_closure((P("Y" + "X" * (n - 1)),) + ghz_generators(n)[1:]))


class TestFidelityOverlapBytes:
    """The pure branch reads a b equal to its transpose as stored, and
    any other b through the transpose: for learned hypotheses against
    the states the protocols score them with, the overlap has the bytes
    of np.sum(a * b^T), the sum that every b took before."""

    @staticmethod
    def transposed(a, b):
        overlap = float(np.real(np.sum(a.matrix * b.matrix.T)))
        return qpac.states._clamp_unit(np.sqrt(max(0.0, overlap)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_learned_hypotheses(self, n):
        ghz = ghz_density(n)
        symmetric = [maximally_mixed(n), ghz, stabilizer_state(group_closure(cluster_generators(n)))]
        for b in symmetric:
            # bytewise, signed zeros too, so the products are the same bytes
            assert b._symmetric and b.matrix.tobytes() == b.matrix.T.tobytes()
        complex_target = y_target(n)
        assert not complex_target._symmetric
        # a state from outside the package is not tested: it reads as
        # not symmetric, and takes the transpose, even when it is
        assert not DensityMatrix(maximally_mixed(n).matrix)._symmetric
        for label in ("d1", "d2"):
            dist = build_distribution(n, label)
            for noise in (NoiseModel.exact(), NoiseModel.gaussian(0.05)):
                indices, values = draw_training_sets(dist, ghz, 6, [(n, 0), (n, 1)], noise)
                for hyp in learn_each(dist, indices, values, noise, 1):
                    # one Frank-Wolfe step: a pure sigma, so every pair
                    # below takes the pure branch
                    assert hyp.iterations_used == 1
                    for b in symmetric + [complex_target]:
                        assert fidelity(hyp.sigma, b) == self.transposed(hyp.sigma, b)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_complex_target_takes_the_transpose(self, n):
        # Tr(rho rho^T) = |<psi|psi*>|^2 = 0 for this target, so reading it
        # as stored would score it 0 against itself
        rho = y_target(n)
        assert fidelity(rho, rho) == 1.0
        assert np.sum(rho.matrix * rho.matrix).real == 0.0


class TestEffectBasics:
    def test_effect_eigenvalues(self):
        for text in ("XX", "-YY", "ZIZ"):
            p = P(text)
            e = (np.eye(2**p.n) + kron_dense(p)) / 2
            vals = np.sort(np.linalg.eigvalsh(e))
            assert np.allclose(np.unique(np.round(vals, 12)), [0, 1])

    def test_effect_pair_sums_to_identity(self):
        e = (np.eye(4) + kron_dense(P("XZ"))) / 2
        assert np.allclose(e + (np.eye(4) - e), np.eye(4))

    def test_distribution_effects_expect_one_on_ghz(self):
        rho = ghz_density(4)
        for eff in build_distribution(4, "d2").effects:
            assert expectation(eff, rho) == pytest.approx(1.0, abs=1e-12)
