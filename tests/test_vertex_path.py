"""The array path of a one-step hypothesis: a learned vertex's step-1
residuals, support scores and lazily built sigma against the dense
matrix they stand for, byte for byte, on supports whose X-masks repeat
(GHZ, partial X-rank) and on ones where no mask repeats (cluster), a
chunk's objectives against lone runs, the batch's X-mask array as the
one Pauli action those passes read, and the residual bound that stops a
step before its gradient is built."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpac import (
    DensityMatrix,
    LearnParams,
    NoiseModel,
    Objective,
    PauliString,
    TrialCache,
    build_distribution,
    distribution_from_generators,
    estimate_min_m,
    fill_trials,
    ghz_density,
    maximally_mixed,
    stabilizer_state,
    support_residuals,
)
from qpac import learner, linalg
from qpac.pauli import stabilizer_group
from qpac.sampling import draw_training_sets
from qpac.states import EffectBatch, EffectSum, Vertex, _distinct_masks

from conftest import pauli_action, random_density

NOISES = {
    "exact": NoiseModel.exact(),
    "gauss": NoiseModel.gaussian(0.05),
    "shots": NoiseModel.with_shots(20),
}

# a drawn chunk of training sets: n = 2..8 on either support, every
# noise model, both sampling modes, and m = 1 among the sizes
chunks = st.fixed_dictionaries(dict(
    n=st.integers(2, 8),
    label=st.sampled_from(["d1", "d2"]),
    noise=st.sampled_from(sorted(NOISES)),
    replacement=st.booleans(),
    m=st.one_of(st.just(1), st.integers(1, 12)),
    sets=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
))


def _cluster_generators(n):
    """X_q Z_(q-1) Z_(q+1): X-rank n, so no X-mask repeats on its supports."""
    return tuple(PauliString.from_text("".join(
        "X" if j == q else "Z" if abs(j - q) == 1 else "I" for j in range(n))) for q in range(n))


def _partial_generators(n):
    """XX I.., ZZ I.., then X on each even and Z on each odd qubit from
    2 on (XXII, ZZII, IIXI, IIIZ at n = 4): X-rank 1 + (n - 2) // 2, so
    each X-mask is shared by 2^(n - rank) group elements."""
    return tuple(PauliString.from_text(s) for s in (
        ["XX" + "I" * (n - 2), "ZZ" + "I" * (n - 2)]
        + ["I" * q + "XZ"[q % 2] + "I" * (n - q - 1) for q in range(2, n)]))


def _scored_target(kind, n, label):
    """The support and target state of a GHZ, cluster or partial-X-rank target."""
    if kind == "ghz":
        return build_distribution(n, label), ghz_density(n)
    gens = (_cluster_generators if kind == "cluster" else _partial_generators)(n)
    return distribution_from_generators(gens, label), stabilizer_state(stabilizer_group(gens))


def _random_vertices(rng, count, dim):
    """Unit vectors with every entry nonzero, as the eigen-step's
    vertices are, scale 1."""
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return [Vertex(x / np.linalg.norm(x)) for x in v]


def _target(n, noise):
    # exact GHZ values are all 1, so shots need a state whose values are not
    if noise != "shots":
        return ghz_density(n)
    return maximally_mixed(n) if n > 3 else DensityMatrix(
        random_density(np.random.default_rng(n), 1 << n))


def _draw(case):
    n, noise = case["n"], NOISES[case["noise"]]
    dist, rho = build_distribution(n, case["label"]), _target(n, case["noise"])
    m = case["m"] if case["replacement"] else min(case["m"], len(dist))
    seeds = [(case["seed"], t) for t in range(case["sets"])]
    indices, values = draw_training_sets(dist, rho, m, seeds, noise, case["replacement"])
    return dist, rho, noise, indices, values


def _handed_in(monkeypatch) -> list:
    """The objective and the step 1, a (vertex, residuals) pair, that
    learn_each hands to each hazan_optimize call, in order."""
    calls = []
    real = learner.hazan_optimize

    def spy(obj, k_max=300, **kwargs):
        calls.append((obj, kwargs["first"]))
        return real(obj, k_max=k_max, **kwargs)

    monkeypatch.setattr(learner, "hazan_optimize", spy)
    return calls


def _closed_form_atom(vertex):
    """The closed form's step-1 atom as a stacked d x d build makes it:
    w w^dag scaled by complex factors, then + 0.0."""
    w = vertex.v[None]
    outer = w[:, :, None] * w.conj()[:, None, :]
    outer *= np.array([vertex.scale]).astype(np.complex128)[:, None, None]
    return outer[0] + 0.0


class TestStepOneResiduals:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_stacked_residuals_are_the_lone_sigmas(self, case):
        dist, _, noise, indices, values = _draw(case)
        with pytest.MonkeyPatch.context() as mp:
            calls = _handed_in(mp)
            hyps = list(learner.learn_each(dist, indices, values, noise, 1))
        assert len(calls) == len(hyps) == len(indices)
        for (obj, (vertex, r)), hyp in zip(calls, hyps):
            # each set's residuals are an array of its own
            assert r.base is None
            if vertex is None:
                # a zero-step run, at I / d
                want = obj.residuals(maximally_mixed(case["n"]).matrix)
                assert hyp.iterations_used == 0
            else:
                want = obj.residuals(vertex.matrix())
                assert hyp.vertex is vertex
            assert r.tobytes() == want.tobytes()
            assert hyp.final_objective == float(np.dot(want, want))

    def test_chunked_set_sums_its_objective_as_alone(self):
        # n = 2, d1, 20 shots, m = 5: the residual row of the second set
        # was a row of the chunk's (T, m) array that starts 8 bytes past
        # a 16-byte boundary, and the Prescott OpenBLAS kernel's ddot
        # summed it otherwise than the lone run's fresh row
        # (0.5550000000000007 against 0.5550000000000006)
        rho = DensityMatrix(random_density(np.random.default_rng(2), 4))
        dist, noise = build_distribution(2, "d1"), NoiseModel.with_shots(20)
        indices, values = draw_training_sets(dist, rho, 5, [(1, 0), (1, 1)], noise)
        hyps = list(learner.learn_each(dist, indices, values, noise, 1))
        assert [h.iterations_used for h in hyps] == [1, 1]
        for idx, vals, hyp in zip(indices, values, hyps):
            lone = learner.hazan_optimize(Objective(dist.batch, idx, vals), k_max=1)
            assert hyp.final_objective == lone.final_objective

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_eigen_step_vertices_of_random_vectors(self, n):
        # unit vectors with every entry nonzero, on every row of a d1 support
        rng = np.random.default_rng(n)
        batch = build_distribution(n, "d1").batch
        v = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        got = batch.vertex_expectations(v, np.ones(5))
        for t in range(5):
            want = batch.expectations(np.outer(v[t], v[t].conj()) + 0.0)
            assert got[t].tobytes() == want.tobytes()


class TestSupportScores:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_stacked_scores_are_the_lone_scores(self, case):
        dist, rho, noise, indices, values = _draw(case)
        hyps = [h for h in learner.learn_each(dist, indices, values, noise, 1) if h.vertex]
        if not hyps:
            return
        found = learner.vertex_support_residuals([h.vertex for h in hyps], rho, dist)
        assert found.shape == (len(hyps), len(dist))
        for hyp, row in zip(hyps, found):
            want = support_residuals(hyp.sigma, rho, dist)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("label,noise", [("d2", "exact"), ("d1", "exact"), ("d1", "gauss")])
    def test_fill_scores_in_chunks(self, label, noise, monkeypatch):
        monkeypatch.setattr(learner, "_STACK_ENTRIES", 2 * 7 * 8)
        rho, dist = ghz_density(3), build_distribution(3, label)
        scored = []
        real = EffectBatch.vertex_expectations

        def spy(batch, v, scale, rows=None):
            if rows is None:
                scored.append(len(v))
            return real(batch, v, scale, rows)

        monkeypatch.setattr(EffectBatch, "vertex_expectations", spy)
        cache = TrialCache(rho, dist, k_max=1, noise=NOISES[noise])
        fill_trials(cache, [(3,)], 2, 5)
        # k_max = 1: every trial is one vertex, scored in chunks of
        # 2 * 7 * 8 product entries, 2 trials on d1 (7 effects), 3 on d2 (4)
        assert scored == ([2, 2, 1] if label == "d1" else [3, 2])
        indices, values = draw_training_sets(dist, rho, 2, [(3, 2, i) for i in range(5)],
                                             NOISES[noise])
        for i, hyp in enumerate(learner.learn_each(dist, indices, values, NOISES[noise], 1)):
            want = support_residuals(hyp.sigma, rho, dist)
            assert cache.residuals((3, 2, i)).tobytes() == want.tobytes()
            assert not cache.residuals((3, 2, i)).flags.writeable


    def test_scores_in_row_blocks(self, monkeypatch):
        # 3 rows of 8 products per pass: one vertex's 7 d1 rows exceed
        # that, so each vertex is scored in blocks of 3, 3 and 1 rows
        monkeypatch.setattr(learner, "_STACK_ENTRIES", 3 * 8)
        rho, dist = ghz_density(3), build_distribution(3, "d1")
        passes = []
        real = EffectBatch.vertex_expectations

        def spy(batch, v, scale, rows=None):
            passes.append((len(v), rows))
            return real(batch, v, scale, rows)

        monkeypatch.setattr(EffectBatch, "vertex_expectations", spy)
        indices, values = draw_training_sets(dist, rho, 2, [(5, i) for i in range(2)],
                                             NOISES["exact"])
        hyps = list(learner.learn_each(dist, indices, values, NOISES["exact"], 1))
        passes.clear()
        found = learner.vertex_support_residuals([h.vertex for h in hyps], rho, dist)
        assert passes == [(1, slice(0, 3)), (1, slice(3, 6)), (1, slice(6, 9))] * 2
        for hyp, row in zip(hyps, found):
            assert row.tobytes() == support_residuals(hyp.sigma, rho, dist).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["ghz", "cluster", "partial"]), n=st.integers(3, 8),
           label=st.sampled_from(["d1", "d2"]), learned=st.booleans(),
           count=st.integers(1, 4), m=st.integers(1, 6),
           block=st.sampled_from([None, 1, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
    def test_scores_per_mask_are_the_lone_scores(self, kind, n, label, learned, count, m,
                                                  block, seed):
        # masks shared by half the rows (GHZ), by 2^(n - rank) rows
        # (partial X-rank) and by none (cluster); eigen-step or closed-form
        # vertices, or random unit vectors; passes of `block` rows, which
        # straddle the groups of rows that share a mask
        dist, rho = _scored_target(kind, n, label)
        if learned:
            indices, values = draw_training_sets(dist, rho, min(m, len(dist)),
                                                 [(seed, t) for t in range(count)])
            hyps = learner.learn_each(dist, indices, values, NOISES["exact"], 1)
            vertices = [h.vertex for h in hyps if h.vertex]
        else:
            vertices = _random_vertices(np.random.default_rng(seed), count, dist.batch.dim)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(learner, "_STACK_ENTRIES", block * dist.batch.dim)
            found = learner.vertex_support_residuals(vertices, rho, dist)
        assert found.shape == (len(vertices), len(dist))
        for vertex, row in zip(vertices, found):
            want = support_residuals(DensityMatrix._built(vertex.matrix()), rho, dist)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["ghz", "cluster", "partial"])
    @pytest.mark.parametrize("block", [None, 3])
    def test_closed_form_chunks_are_the_lone_scores(self, kind, block, monkeypatch):
        # exact data on a Y-free support: each set's vertex is the closed
        # form w with its exact scale 1 / <w|w>, scored as a chunk
        dist, rho = _scored_target(kind, 6, "d2")
        indices, values = draw_training_sets(dist, rho, 3, [(4, t) for t in range(6)])
        hyps = list(learner.learn_each(dist, indices, values, NOISES["exact"], 1))
        assert all(h.vertex for h in hyps)
        assert any(h.vertex.scale != 1.0 for h in hyps)
        if block:
            monkeypatch.setattr(learner, "_STACK_ENTRIES", block * dist.batch.dim)
        found = learner.vertex_support_residuals([h.vertex for h in hyps], rho, dist)
        for hyp, row in zip(hyps, found):
            assert row.tobytes() == support_residuals(hyp.sigma, rho, dist).tobytes()

    @pytest.mark.parametrize("kind,label,masks", [
        ("ghz", "d1", 2), ("ghz", "d2", 2), ("partial", "d1", 16), ("cluster", "d1", 255)])
    def test_mask_groups_of_a_support(self, kind, label, masks):
        # n = 8: GHZ's strings have X-mask 0 or 1...1, the partial target's
        # X-rank is 4, so 2^4 masks, and the cluster's 255 strings have 255
        batch = _scored_target(kind, 8, label)[0].batch
        found, at = _distinct_masks(batch._x, batch.dim)
        assert len(found) == masks
        assert np.array_equal(found[at], batch._x)
        assert np.all(np.diff(found) > 0)

    def test_hypotheses_are_scored_as_they_are_read(self):
        # noisy sets take later steps; each d x d iterate is scored as
        # it is read and not kept, so the sigma two hypotheses back is
        # gone when the next is learned
        rho, dist = ghz_density(3), build_distribution(3, "d1")
        noise = NOISES["gauss"]
        indices, values = draw_training_sets(dist, rho, 4, [(9, i) for i in range(6)], noise)
        read = []

        def learned():
            for i, hyp in enumerate(learner.learn_each(dist, indices, values, noise, 6)):
                # every earlier hypothesis was read before this one
                assert len(read) == i
                assert i < 2 or read[-2]() is None
                yield hyp

        def each(hyp):
            read.append(weakref.ref(hyp.sigma))

        found = learner.hypothesis_residuals(learned(), rho, dist, each)
        assert len(read) == 6
        hyps = list(learner.learn_each(dist, indices, values, noise, 6))
        assert any(hyp.vertex is None for hyp in hyps)
        for hyp, row in zip(hyps, found):
            assert row.tobytes() == support_residuals(hyp.sigma, rho, dist).tobytes()
            assert not row.flags.writeable


def _row_expectations(strings, v, scale):
    """Tr(E sigma) of sigma = scale v v^dag for each string, row by row
    from ``conftest.pauli_action``: c * (v * conj(v)[perm]) summed
    alone, then scaled, with the trace (v * conj(v)) summed and scaled
    the same way. The reference of the vertex passes, built from no
    table of the batch."""
    tr = (v * v.conj()).sum().real * scale
    found = []
    for p in strings:
        perm, c = pauli_action(p)
        found.append((tr + (c * (v * v.conj()[perm])).sum().real * scale) / 2.0)
    return np.array(found)


class TestMaskReads:
    """The vertex passes, apply and weighted_operator read each row's
    X-mask and coefficients from the batch, and give what the Pauli
    action of each row's string gives (``conftest.pauli_action``)."""

    @pytest.mark.parametrize("kind,label", [
        ("ghz", "d1"), ("ghz", "d2"), ("cluster", "d1"), ("partial", "d1"), ("partial", "d2")])
    def test_passes_read_no_gather_table(self, kind, label):
        n = 5
        dist, rho = _scored_target(kind, n, label)
        batch, d, strings = dist.batch, 1 << n, dist.effects
        rng = np.random.default_rng(7)
        vertices = _random_vertices(rng, 3, d)
        v, scale = learner._stacked(vertices)
        rows = rng.integers(len(batch), size=(3, 4))
        w = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        weights = rng.normal(size=4)
        expected = batch.expected(rho)
        want_scores = [np.abs(_row_expectations(strings, x.v, x.scale) - expected) for x in vertices]
        want_step = [_row_expectations([strings[i] for i in r], x.v, x.scale)
                     for r, x in zip(rows, vertices)]
        # (P w)[k] = c_perm_k w[perm_k], perm an involution
        applied = []
        for t, i in enumerate(rows[:, 0]):
            perm, c = pauli_action(strings[i])
            applied.append((c * w[t])[perm])
        # row i's entries lie on the diagonal of its X-mask, perm_0
        actions = [pauli_action(strings[i]) for i in rows[0]]
        x = np.array([perm[0] for perm, _ in actions])
        masks = np.union1d(x, [0])
        diagonals = np.zeros((len(masks), d), dtype=np.complex128)
        np.add.at(diagonals, np.searchsorted(masks, x),
                  (weights[:, None] / 2.0) * np.array([c for _, c in actions]))
        diagonals[0] += np.sum(weights) / 2.0
        want_op = EffectSum(masks, diagonals)
        assert learner.vertex_support_residuals(vertices, rho, dist).tobytes() == (
            np.array(want_scores).tobytes())
        assert batch.vertex_expectations(v, scale, rows).tobytes() == np.array(want_step).tobytes()
        assert np.array_equal(batch.apply(rows[:, 0], w), np.array(applied))
        op = batch.weighted_operator(weights, rows[0])
        assert np.array_equal(op._cols, want_op._cols)
        assert np.array_equal(op._entries, want_op._entries)

    def test_closed_first_steps_read_no_gather_table(self):
        # exact GHZ d2 data: every set's step 1 is a closed form, built
        # by apply, and its residuals are one index-array vertex pass;
        # the reference applies each fresh string's (I + P) / 2 to
        # |1...1> in draw order, from its Pauli action
        dist, rho = _scored_target("ghz", 5, "d2")
        indices, values = draw_training_sets(dist, rho, 3, [(2, t) for t in range(4)])
        steps = learner._first_steps(dist.batch, indices, values, True)
        for (vertex, r), idx, vals in zip(steps, indices, values):
            w = np.ones(dist.batch.dim, dtype=np.complex128)
            for i in dict.fromkeys(idx.tolist()):
                perm, c = pauli_action(dist.effects[i])
                w = (w + (c * w)[perm]) / 2.0
            scale = 1.0 / (w * w.conj()).real.sum()
            want_r = _row_expectations([dist.effects[i] for i in idx], w, scale) - vals
            assert vertex.v.tobytes() == w.tobytes()
            assert vertex.scale == scale
            assert r.tobytes() == want_r.tobytes()


class TestLazySigma:
    @settings(max_examples=40, deadline=None)
    @given(case=chunks)
    def test_built_sigma_has_the_bytes_of_step_one(self, case):
        dist, _, noise, indices, values = _draw(case)
        for hyp in learner.learn_each(dist, indices, values, noise, 1):
            if hyp.vertex is None:
                continue
            vertex = hyp.vertex
            # the eigen-step's atom np.outer(v, v^dag), or the closed form's
            # scaled stack, each + 0.0
            want = (np.outer(vertex.v, vertex.v.conj()) + 0.0 if vertex.scale == 1.0
                    else _closed_form_atom(vertex))
            assert hyp.sigma.matrix.tobytes() == want.tobytes()
            # built once
            assert hyp.sigma is hyp.sigma

    @pytest.mark.parametrize("label,noise", [("d1", "exact"), ("d1", "gauss"), ("d2", "gauss")])
    def test_same_sigma_as_a_run_without_a_vertex(self, label, noise):
        rho, dist = ghz_density(4), build_distribution(4, label)
        indices, values = draw_training_sets(dist, rho, 6, list(range(6)), NOISES[noise])
        hyps = learner.learn_each(dist, indices, values, NOISES[noise], 5)
        for idx, vals, hyp in zip(indices, values, hyps):
            want = learner.hazan_optimize(Objective(dist.batch, idx, vals), k_max=5)
            assert hyp.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
            assert (hyp.iterations_used, hyp.final_objective) == (
                want.iterations_used, want.final_objective)


class TestNoMatrixForExactD2:
    @pytest.mark.parametrize("replacement", [True, False])
    def test_fill_builds_no_square_array(self, replacement, monkeypatch):
        def forbid(owner, name):
            def fail(*args, **kwargs):
                pytest.fail(f"{name} builds a d x d array")
            monkeypatch.setattr(owner, name, fail)

        rho, dist = ghz_density(5), build_distribution(5, "d2")
        # the target's tables are made before the fill
        dist.batch.expected(rho)
        forbid(np, "outer")
        forbid(learner.Vertex, "matrix")
        forbid(EffectBatch, "expectations")
        forbid(EffectBatch, "weighted_sum")
        forbid(learner, "maximally_mixed")
        forbid(DensityMatrix, "_built")
        cache = TrialCache(rho, dist, replacement=replacement)
        params = LearnParams(epsilon=0.15, gamma=0.2, delta=0.2, i_max=20)
        [found] = estimate_min_m(cache, params, [(0,)])
        assert found >= 1


class TestResidualBound:
    """4 sum |r_i| <= the zero threshold stops a step only where the
    built gradient vanishes too."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), label=st.sampled_from(["d1", "d2"]),
           m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e-12, 2.5e-13, 1e-13, 1e-15, 0.0]))
    def test_a_bounded_step_has_a_vanishing_gradient(self, n, label, m, seed, scale):
        rng = np.random.default_rng(seed)
        dist = build_distribution(n, label)
        idx = rng.integers(len(dist), size=m)
        obj = Objective(dist.batch, idx, np.zeros(m))
        r = rng.uniform(-1.0, 1.0, size=m)
        # scaled onto the threshold, and 1 ulp either side of it
        r *= scale / (4.0 * np.abs(r).sum()) if scale != 1.0 else 1.0
        for case in (r, np.nextafter(r, 0.0), np.nextafter(r, 2 * r)):
            if learner._stationary(case):
                # the eigen-step's zero rule: no pair for a vanishing gradient
                assert linalg._smallest_built(obj.gradient(case)) == [None]

    def test_all_zero_residuals_are_bounded(self):
        assert learner._stationary(np.zeros(5))
        assert learner._stationary(np.array([-0.0, 0.0]))
        assert not learner._stationary(np.array([1e-12, 0.0]))
        # one row per set
        rows = np.array([[0.0, 0.0], [2.5e-13, 0.0], [2.5e-13, 1e-20]])
        assert learner._stationary(rows).tolist() == [True, True, False]

    def test_step_two_builds_no_gradient_on_exact_d1(self, monkeypatch):
        # the eigen-step's vertex fits exact d1 data up to rounding: the
        # residuals at step 2 are not all 0, but bound the gradient
        rho, dist = ghz_density(4), build_distribution(4, "d1")
        indices, values = draw_training_sets(dist, rho, 8, list(range(10)))
        builds = []
        real = Objective.gradient
        # one built gradient per residual row: a chunk's (T, m) residuals
        # build T in one call
        monkeypatch.setattr(Objective, "gradient",
                            lambda obj, r: builds.extend(np.atleast_2d(r)) or real(obj, r))
        hyps = list(learner.learn_each(dist, indices, values, NoiseModel.exact(), 300))
        assert [h.iterations_used for h in hyps] == [1] * 10
        # one gradient per set, at I / d
        assert len(builds) == 10
        assert any(h.final_objective > 0.0 for h in hyps)
