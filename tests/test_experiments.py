"""Experiment configs, the five run protocols, and byte-level replay."""

import json
import math
import os
import threading

import numpy as np
import pytest

from qpac import (
    ConfigError,
    DensityMatrix,
    LearnParams,
    NoiseModel,
    Objective,
    SampleSizeCapError,
    TrialCache,
    build_distribution,
    estimate_min_m,
    evaluate_epsilon,
    experiments,
    ghz_density,
    fidelity,
    ghz_generators,
    hazan_optimize,
    learner,
    maximally_mixed,
    pauli,
    sample_training_set,
    sampling,
    states,
)
from qpac.cli import main
from qpac.experiments import (
    LEARN_COLUMNS,
    ExperimentConfig,
    replay,
    run_bound_curve,
    run_command,
    run_learn,
    run_scaling,
    run_sweep_errors,
    run_sweep_m,
)
from qpac.table import read_table



def cfg(**kw):
    kw.setdefault("seed", 5)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_command_defaults(self, tmp_path):
        c = cfg(command="sweep-m", n=3, dist="d2", out=str(tmp_path / "x.csv"))
        assert c.repeats == 20
        assert c.replacement == "without"
        assert c.m_list == list(range(0, 5))  # support 4 plus m=0
        c2 = cfg(command="learn", m=3)
        assert c2.replacement == "with"

    def test_default_m_list_follows_generator_support(self, tmp_path):
        # the Y-free part of <XY, YX> is {ZZ}: one effect, not 2^(n-1)
        c = cfg(command="sweep-m", n=2, dist="d2", generators=["XY", "YX"], repeats=2,
                out=str(tmp_path / "g.csv"))
        assert c.m_list == [0, 1]
        assert run_sweep_m(c).column("m") == [0, 1]

    def test_learn_requires_m(self):
        with pytest.raises(ConfigError):
            cfg(command="learn", m=0)
        with pytest.raises(ConfigError):
            cfg(command="learn")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            cfg(command="learn", m=2, dist="d9")
        with pytest.raises(ConfigError):
            cfg(command="learn", m=2, epsilon=0.0)
        with pytest.raises(ConfigError):
            cfg(command="learn", m=2, shots=100, gauss_std=0.1)
        with pytest.raises(ConfigError, match="shots"):
            cfg(command="learn", m=2, shots=-1)
        # a negative std used to fall through to exact data
        with pytest.raises(ConfigError, match="gauss_std"):
            cfg(command="learn", m=2, gauss_std=-0.5)
        with pytest.raises(ConfigError):
            cfg(command="sweep-errors", sweep_param="nope")
        with pytest.raises(ConfigError):
            cfg(command="bound-curve")
        with pytest.raises(ConfigError):
            ExperimentConfig(command="fly")

    # 10**400 is a JSON integer that no float holds
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("name", ["gauss_std", "big_k", "reference_slope",
                                      "reference_intercept"])
    def test_non_finite_float_names_its_field(self, name, value):
        # NaN fails every comparison, so a check written as v < 0 let a
        # NaN std run as exact data under a header that reads NaN
        command = "bound-curve" if name == "big_k" else "learn"
        with pytest.raises(ConfigError, match=name):
            cfg(command=command, m=2, **{name: value})

    def test_file_and_flag_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "learn", "m": 4, "seed": 9, "gamma": 0.2}))
        c = ExperimentConfig.from_file(str(path), {"m": 7})
        assert (c.m, c.seed, c.gamma) == (7, 9, 0.2)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "learn", "m": 4, "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_file(str(path), None)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"command": "learn",\n  "m": }')
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_file(str(path), None)

    def test_echo_hides_paths(self, tmp_path):
        c = cfg(command="learn", m=2, out=str(tmp_path / "x.csv"))
        echo = c.echo()
        assert echo["out"] is None
        assert echo["tool_version"]
        assert echo["threads"] == c.threads


class TestRunLearn:
    def test_full_support_learn(self, tmp_path):
        out = tmp_path / "learn.csv"
        c = cfg(command="learn", n=4, dist="d1", m=15, replacement="without",
                gamma=0.1, out=str(out))
        table = run_learn(c)
        learned = table.select(hypothesis="learned")[0]
        row = dict(zip(table.columns, learned))
        assert row["epsilon_est"] <= 0.05
        assert row["fidelity_target"] >= 0.99
        base = dict(zip(table.columns, table.select(hypothesis="mixed_baseline")[0]))
        assert base["epsilon_est"] == 1.0
        assert base["fidelity_mixed"] == 1.0
        assert out.exists()

    def test_training_dump(self, tmp_path):
        out = tmp_path / "learn.csv"
        dump = tmp_path / "training.csv"
        c = cfg(command="learn", n=2, m=3, out=str(out), training_out=str(dump))
        run_learn(c)
        t = read_table(dump)
        assert t.columns == ("pauli", "value", "provenance")
        assert len(t.rows) == 3
        assert all(prov == "exact" for _, _, prov in t.rows)

    def test_custom_generator_target(self, tmp_path):
        c = cfg(command="learn", n=2, m=3, generators=["XX", "ZZ"],
                replacement="without", out=str(tmp_path / "g.csv"))
        table = run_learn(c)
        row = dict(zip(table.columns, table.select(hypothesis="learned")[0]))
        assert row["epsilon_est"] == 0.0
        assert row["fidelity_target"] >= 0.99

    @pytest.mark.parametrize("n", [9, 10])
    def test_generator_target_beyond_dense_cap(self, n, tmp_path):
        gens = [str(g) for g in ghz_generators(n)]
        c = cfg(command="learn", n=n, m=4, generators=gens, out=str(tmp_path / "g.csv"))
        assert np.array_equal(c.target_state(n).matrix, ghz_density(n).matrix)
        row = dict(zip(LEARN_COLUMNS, run_learn(c).select(hypothesis="learned")[0]))
        assert 0.0 <= row["fidelity_target"] <= 1.0

    def test_generator_target_qubit_cap(self):
        gens = [str(g) for g in ghz_generators(11)]
        with pytest.raises(ConfigError, match="n <= 10"):
            cfg(command="learn", n=11, m=4, generators=gens).target_state(11)

    def test_gamma_one_scores_both_rows(self, tmp_path):
        out = tmp_path / "g1.csv"
        assert main(["learn", "--n", "3", "--m", "4", "--gamma", "1.0", "--out", str(out)]) == 0
        table = read_table(out)
        assert table.column("hypothesis") == ["learned", "mixed_baseline"]
        assert table.column("epsilon_est") == [0.0, 0.0]

    def test_generator_count_must_pin_state(self, tmp_path):
        with pytest.raises(ConfigError):
            run_learn(cfg(command="learn", n=2, m=2, generators=["XX"],
                          out=str(tmp_path / "g.csv")))


class TestRunSweepM:
    def test_columns_and_m0(self, tmp_path):
        c = cfg(command="sweep-m", n=2, dist="d1", m_list=[0, 1, 3], repeats=3,
                gamma=0.1, out=str(tmp_path / "s.csv"))
        table = run_sweep_m(c)
        assert [r[0] for r in table.rows] == [0, 1, 3]
        r0 = dict(zip(table.columns, table.select(m=0)[0]))
        assert r0["fidelity_mixed_mean"] == 1.0
        assert r0["epsilon_mean"] == r0["epsilon_baseline"] == 1.0
        r3 = dict(zip(table.columns, table.select(m=3)[0]))
        assert r3["epsilon_mean"] <= r0["epsilon_mean"]

    def test_without_replacement_caps_m(self, tmp_path):
        with pytest.raises(ConfigError, match="support size 3"):
            cfg(command="sweep-m", n=2, dist="d1", m_list=[4], repeats=2,
                out=str(tmp_path / "s.csv"))


class TestOneLearningPath:
    """``learn`` and ``sweep-m`` give an exact ``d2`` training set the
    hypothesis of the minimum-m search's first-step rule: the closed
    form of the sampled code space."""

    N, M = 4, 6

    def _atom(self, seed):
        # the first iterate at the closed-form vertex of the set drawn
        # with this seed
        dist = build_distribution(self.N, "d2")
        idx, vals = sample_training_set(dist, ghz_density(self.N), self.M, seed=seed)
        return learner.code_space_atoms(dist.batch, idx[None], vals[None])[0].matrix()

    def _scores(self, sigma):
        rho, dist = ghz_density(self.N), build_distribution(self.N, "d2")
        sigma = DensityMatrix(sigma) if isinstance(sigma, np.ndarray) else sigma
        return (evaluate_epsilon(sigma, rho, dist, 0.1), fidelity(sigma, rho),
                fidelity(sigma, maximally_mixed(self.N)))

    def test_learn(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["learn", "--n", "4", "--dist", "d2", "--m", "6", "--seed", "3",
                     "--out", str(out)]) == 0
        row = dict(zip(LEARN_COLUMNS, read_table(out).select(hypothesis="learned")[0]))
        eps, fid, _ = self._scores(self._atom((3, 0)))
        assert (row["epsilon_est"], row["fidelity_target"]) == (eps, fid) == (0.0, 1.0)
        # the eigen-step of this training set takes another vector of the
        # degenerate bottom eigenspace, which misses 1/8 of the support
        dist = build_distribution(self.N, "d2")
        training = sample_training_set(dist, ghz_density(self.N), self.M, seed=(3, 0))
        bare = hazan_optimize(Objective(dist.batch, *training), k_max=300).sigma
        assert self._scores(bare)[0] == 0.125

    def test_sweep_m(self, tmp_path):
        c = cfg(command="sweep-m", n=self.N, dist="d2", m_list=[self.M], repeats=5,
                replacement="with", seed=3, out=str(tmp_path / "s.csv"))
        table = run_sweep_m(c)
        row = dict(zip(table.columns, table.rows[0]))
        want = np.array([
            self._scores(self._atom((3, self.M, r)))
            for r in range(5)
        ])
        means = want.mean(axis=0)
        assert (row["epsilon_mean"], row["fidelity_target_mean"],
                row["fidelity_mixed_mean"]) == tuple(float(x) for x in means)


class TestRunSweepErrors:
    def test_monotone_and_trials_out(self, tmp_path):
        c = cfg(command="sweep-errors", n=2, dist="d1", sweep_param="delta",
                sweep_values=[0.2, 0.5, 0.9], repeats=2, i_max=10,
                epsilon=0.15, gamma=0.2, delta=0.2,
                out=str(tmp_path / "e.csv"), trials_out=str(tmp_path / "t.csv"))
        table = run_sweep_errors(c)
        ms = table.column("m_mean")
        assert ms == sorted(ms, reverse=True)
        trials = read_table(tmp_path / "t.csv")
        assert trials.columns == ("n", "m", "trial", "epsilon_est", "failed", "seed")
        assert len(trials.rows) >= 10

    def test_repeated_grid_value_records_trials_once(self, tmp_path):
        rows = {}
        for label, grid in (("once", ["0.2"]), ("repeated", ["0.2", "0.3", "0.2"])):
            path = tmp_path / f"{label}.csv"
            code = main(["sweep-errors", "--n", "2", "--imax", "3", "--sweep-param", "gamma",
                         "--sweep-values", *grid, "--out", str(tmp_path / "e.csv"),
                         "--trials-out", str(path)])
            assert code == 0
            rows[label] = read_table(path).rows
        assert len(set(rows["repeated"])) == len(rows["repeated"])
        assert rows["repeated"] == rows["once"]

    def test_stricter_later_value_records_its_trials_once(self, tmp_path):
        # gamma 0.6 decides m = 1 per repeat; gamma 0.1 needs m = 3 and 4,
        # so its searches read trials the first ones never did
        path = tmp_path / "t.csv"
        code = main(["sweep-errors", "--n", "3", "--sweep-param", "gamma",
                     "--sweep-values", "0.6", "0.1", "--imax", "4", "--repeats", "2",
                     "--out", str(tmp_path / "e.csv"), "--trials-out", str(path)])
        assert code == 0
        assert read_table(tmp_path / "e.csv").column("m_mean") == [1.0, 3.5]
        seeds = read_table(path).column("seed")
        assert len(seeds) == 4 * (3 + 4)
        assert len(set(seeds)) == len(seeds)


class TestTrialRows:
    """Every trials-table row replays alone: its ``seed`` cell is the
    trial's sampling seed, and learning that training set gives the
    row's ``epsilon_est``."""

    @staticmethod
    def _replay_rows(path, gammas=None):
        """``gammas`` maps a trial seed to the gamma its row was scored
        at; without it every row is scored at the config's gamma."""
        table = read_table(path)
        config = ExperimentConfig(**{k: v for k, v in table.config.items()
                                     if k in ExperimentConfig.field_names()})
        assert table.rows
        for n, m, i, eps, failed, seed in table.rows:
            seed = tuple(int(part) for part in seed.strip("()").split(";"))
            gamma = gammas[seed] if gammas else config.gamma
            state, dist = config.target_state(n), config.distribution(n)
            training = sample_training_set(
                dist, state, m, noise=config.noise_model(), seed=seed,
                replacement=config.with_replacement(),
            )
            hyp = hazan_optimize(Objective(dist.batch, *training), k_max=config.k_max)
            assert evaluate_epsilon(hyp.sigma, state, dist, gamma) == eps
            assert failed == (eps > config.epsilon)

    def test_sweep_errors(self, tmp_path, monkeypatch):
        # a row is scored at the gamma of the first search that read its trial
        first_gamma = {}
        read = TrialCache.error_counts

        def spy(cache, root, m, count, gamma):
            for i in range(count):
                first_gamma.setdefault((*root, m, i), gamma)
            return read(cache, root, m, count, gamma)

        monkeypatch.setattr(TrialCache, "error_counts", spy)
        path = tmp_path / "t.csv"
        run_sweep_errors(cfg(command="sweep-errors", n=2, dist="d1", sweep_param="gamma",
                             sweep_values=[0.3, 0.1], repeats=2, i_max=4, k_max=20,
                             epsilon=0.15, delta=0.3, gauss_std=0.05,
                             out=str(tmp_path / "e.csv"), trials_out=str(path)))
        assert set(first_gamma.values()) == {0.3, 0.1}
        self._replay_rows(path, first_gamma)

    def test_scaling(self, tmp_path):
        path = tmp_path / "t.csv"
        run_scaling(cfg(command="scaling", n_min=2, n_max=3, dist="d2", repeats=2, i_max=4,
                        epsilon=0.15, gamma=0.2, delta=0.3,
                        out=str(tmp_path / "s.csv"), trials_out=str(path)))
        self._replay_rows(path)


class TestRunScaling:
    def test_points_fit_and_reference(self, tmp_path):
        c = cfg(command="scaling", n_min=2, n_max=3, dist="d2", repeats=2,
                epsilon=0.15, gamma=0.2, delta=0.2, i_max=10,
                out=str(tmp_path / "sc.csv"))
        table = run_scaling(c)
        kinds = table.column("kind")
        assert kinds == ["point", "point", "fit", "reference"]
        ref = dict(zip(table.columns, table.select(kind="reference")[0]))
        assert ref["extrap_m"] == pytest.approx(23.46, abs=1e-9)
        fit = dict(zip(table.columns, table.select(kind="fit")[0]))
        assert math.isfinite(fit["slope"])
        assert fit["extrap_n"] == 20

    def test_single_n_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            c = cfg(command="scaling", n_min=2, n_max=2, dist="d2", repeats=1,
                    i_max=5, epsilon=0.5, gamma=0.5, delta=0.5,
                    out=str(tmp_path / "sc.csv"))
            run_scaling(c)

    def test_single_n_rejected_before_any_search(self, tmp_path, monkeypatch, capsys):
        searches = []
        monkeypatch.setattr(experiments, "estimate_min_m",
                            lambda *a, **kw: searches.append(a) or 5)
        code = main(["scaling", "--n-min", "5", "--n-max", "5", "--repeats", "3",
                     "--out", str(tmp_path / "sc.csv")])
        assert code == 2
        assert "n_min < n_max" in capsys.readouterr().err
        assert searches == []
        assert not (tmp_path / "sc.csv").exists()


class TestTrialsTableOrder:
    """The trials table sorts its rows as tuples: by n, m, trial,
    epsilon_est, failed, then the seed as text, so at equal error rates
    repeat 10 sorts before repeat 2 (FORMATS.md)."""

    GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                          "scaling_n2_3_repeats11_trials.csv")

    def test_eleven_repeats_keep_the_pinned_order(self, tmp_path):
        path = tmp_path / "t.csv"
        run_scaling(cfg(command="scaling", n_min=2, n_max=3, dist="d2", epsilon=0.15, gamma=0.2,
                        delta=0.2, i_max=5, repeats=11, seed=1, threads=1,
                        out=str(tmp_path / "s.csv"), trials_out=str(path)))
        with open(self.GOLDEN, "rb") as fh:
            assert path.read_bytes() == fh.read()
        rows = read_table(path).rows
        assert rows == sorted(rows)
        # the text order of the seeds decides ties: (1;2;10;1;0) leads (1;2;1;1;0)
        seeds = [seed for *_, seed in rows]
        assert seeds.index("(1;2;10;1;0)") < seeds.index("(1;2;1;1;0)")


class TestGeneratorQubitCount:
    ARGVS = {
        "scaling": ["scaling", "--n-min", "2", "--n-max", "3", "--repeats", "2",
                    "--generators", "XX,ZZ"],
        "learn": ["learn", "--n", "3", "--m", "2", "--generators", "XX,ZZ"],
        "sweep-errors": ["sweep-errors", "--n", "2", "--sweep-param", "gamma",
                         "--generators", "XXX,ZZI,IZZ"],
    }

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_rejected_before_any_search(self, case, tmp_path, monkeypatch, capsys):
        searches = []
        monkeypatch.setattr(experiments, "estimate_min_m",
                            lambda *a, **kw: searches.append(a) or 5)
        code = main([*self.ARGVS[case], "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "generators" in capsys.readouterr().err
        assert searches == []
        assert not (tmp_path / "t.csv").exists()


class TestGhzTarget:
    def test_built_once_per_process(self, tmp_path, monkeypatch):
        builds = []
        real = experiments.stabilizer_state
        monkeypatch.setattr(experiments, "stabilizer_state",
                            lambda group: builds.append(group.n) or real(group))
        # a target not built before in this process: the one target
        # function resolves a GHZ config to its generators
        experiments._generator_state.cache_clear()
        outs = [tmp_path / f"l{r}.csv" for r in range(2)]
        for out in outs:
            run_learn(cfg(command="learn", n=3, m=4, out=str(out)))
        assert builds == [3]
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # one target object, so the support's weakly keyed Tr(E rho)
        # table of it is computed once too
        target = cfg(command="sweep-m", n=3).target_state(3)
        assert target is cfg(command="learn", n=3, m=1).target_state(3)
        assert builds == [3]


class TestGeneratorTarget:
    """A generator list's closure, target state and support are built
    once per process, as a GHZ support is; a list that pins no pure
    state fails at config time."""

    CLUSTER3 = ["XZI", "ZXZ", "IZX"]

    def test_built_once_per_process(self, tmp_path, monkeypatch):
        closures, batches = [], []
        real_closure, real_batch = pauli.group_closure, states.EffectBatch.__init__
        monkeypatch.setattr(pauli, "group_closure",
                            lambda gens: closures.append(None) or real_closure(gens))
        monkeypatch.setattr(states.EffectBatch, "__init__",
                            lambda batch, effects: batches.append(None) or real_batch(batch, effects))
        # a target not built before in this process
        for cache in (pauli.stabilizer_group, sampling._generator_distribution,
                      experiments._generator_state):
            cache.cache_clear()
        tables, builds = [], []
        for r in range(2):
            tables.append(run_sweep_m(cfg(command="sweep-m", n=3, dist="d2",
                                          generators=self.CLUSTER3, m_list=[2], repeats=3,
                                          out=str(tmp_path / f"s{r}.csv"))))
            builds.append((len(closures), len(batches)))
            closures.clear()
            batches.clear()
        assert tables[0].rows == tables[1].rows
        # the first run builds the closure and the support's batch (the
        # target, one column of its group average, builds no batch); the
        # second builds neither
        assert builds == [(1, 1), (0, 0)]

    def test_ghz_target_and_supports_share_one_closure(self, monkeypatch):
        closures = []
        real_closure = pauli.group_closure
        monkeypatch.setattr(pauli, "group_closure",
                            lambda gens: closures.append(None) or real_closure(gens))
        # a GHZ group not closed before in this process
        for cache in (pauli.stabilizer_group, states.ghz_density, sampling.build_distribution):
            cache.cache_clear()
        # a library caller's order: the target first, then its supports
        target = ghz_density(5)
        for label in ("d1", "d2"):
            build_distribution(5, label)
        assert len(closures) == 1
        assert target.matrix.tobytes() == states.stabilizer_state(
            real_closure(ghz_generators(5))).matrix.tobytes()

    @pytest.mark.parametrize("gens", [["XX", "XX"], ["XX", "ZI"], ["XX"]],
                             ids=["dependent", "non-commuting", "too-few"])
    @pytest.mark.parametrize("command", ["learn", "sweep-m"])
    def test_no_pure_state_is_a_config_error(self, command, gens):
        with pytest.raises(ConfigError):
            cfg(command=command, n=2, m=2, dist="d2", generators=gens)


class TestLoopBudgets:
    ARGVS = {
        "sweep-m-k_max": (["sweep-m", "--n", "3", "--m-list", "0", "--kmax", "0"], "k_max"),
        "sweep-m-i_max": (["sweep-m", "--n", "3", "--m-list", "0", "--imax", "-5"], "i_max"),
        "sweep-m-m_cap": (["sweep-m", "--n", "3", "--m-list", "0", "--m-cap", "0"], "m_cap"),
        "scaling-i_max": (["scaling", "--n-min", "2", "--n-max", "3", "--imax", "0"], "i_max"),
        "sweep-errors-k_max": (["sweep-errors", "--n", "2", "--sweep-param", "gamma",
                                "--kmax", "0"], "k_max"),
        "learn-k_max": (["learn", "--n", "2", "--m", "2", "--kmax", "0"], "k_max"),
    }

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_rejected_before_any_work(self, case, tmp_path, monkeypatch, capsys):
        argv, name = self.ARGVS[case]
        calls = []
        for func in ("estimate_min_m", "build_distribution", "_generator_state"):
            monkeypatch.setattr(experiments, func,
                                lambda *a, func=func, **kw: calls.append(func))
        code = main([*argv, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "t.csv").exists()


class TestQubitLimit:
    ARGVS = {
        "scaling": ["scaling", "--n-min", "8", "--n-max", "11", "--repeats", "1"],
        "learn": ["learn", "--n", "11", "--m", "3"],
        "sweep-m": ["sweep-m", "--n", "11"],
        "sweep-errors": ["sweep-errors", "--n", "11", "--sweep-param", "gamma"],
        "sweep-m-generators": [
            "sweep-m", "--n", "11", "--dist", "d2",
            "--generators", ",".join(str(g) for g in ghz_generators(11)),
        ],
    }

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_rejected_before_any_work(self, case, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("estimate_min_m", "build_distribution", "distribution_from_generators",
                     "_generator_state"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, name=name, **kw: calls.append(name))
        code = main([*self.ARGVS[case], "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "MAX_QUBITS" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "t.csv").exists()

    def test_bound_curve_is_not_limited(self, tmp_path):
        c = cfg(command="bound-curve", n_min=2, n_max=20, big_k=1.0,
                out=str(tmp_path / "b.csv"))
        assert len(run_bound_curve(c).rows) == 19


class TestNamedLimits:
    """A negative seed, a GHZ target on fewer than two qubits, an empty
    sweep and a bound-curve n range that is empty or reaches below one
    qubit each fail at config time with a ``ConfigError`` that names
    the limit, before any work."""

    ARGVS = {
        "learn-seed": (["learn", "--n", "2", "--m", "2", "--seed", "-1"], "seed must be >= 0"),
        "sweep-m-seed": (["sweep-m", "--n", "2", "--m-list", "1", "--seed", "-3"],
                         "seed must be >= 0"),
        "sweep-errors-seed": (["sweep-errors", "--n", "2", "--sweep-param", "gamma",
                               "--seed", "-1"], "seed must be >= 0"),
        "scaling-seed": (["scaling", "--n-min", "2", "--n-max", "3", "--seed", "-1"],
                         "seed must be >= 0"),
        "learn-n1": (["learn", "--n", "1", "--m", "1"], "GHZ target needs n >= 2"),
        "sweep-m-n1": (["sweep-m", "--n", "1"], "GHZ target needs n >= 2"),
        "sweep-errors-n0": (["sweep-errors", "--n", "0", "--sweep-param", "gamma"],
                            "GHZ target needs n >= 2"),
        "bound-curve-reversed": (["bound-curve", "--K", "1", "--n-min", "5", "--n-max", "3"],
                                 "bound-curve needs 1 <= n_min <= n_max, got 5..3"),
        "bound-curve-negative": (["bound-curve", "--K", "1", "--n-min", "-3", "--n-max", "2"],
                                 "bound-curve needs 1 <= n_min <= n_max, got -3..2"),
        "bound-curve-n0": (["bound-curve", "--K", "1", "--n-min", "0", "--n-max", "2"],
                           "bound-curve needs 1 <= n_min <= n_max, got 0..2"),
    }

    @pytest.mark.parametrize("case", sorted(ARGVS))
    def test_rejected_before_any_work(self, case, tmp_path, monkeypatch, capsys):
        argv, message = self.ARGVS[case]
        calls = []
        for name in ("estimate_min_m", "build_distribution", "_generator_state", "draw_training_sets",
                     "theorem_bound"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, name=name, **kw: calls.append(name))
        code = main([*argv, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "t.csv").exists()

    def test_config_errors(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            ExperimentConfig(command="learn", m=1, seed=-1)
        for command in ("learn", "sweep-m", "sweep-errors"):
            with pytest.raises(ConfigError, match="GHZ target needs n >= 2, got n = 1"):
                ExperimentConfig(command=command, n=1, m=1, sweep_param="gamma")

    @pytest.mark.parametrize("lo, hi", [(1, 1), (20, 20), (1, 20)])
    def test_bound_curve_range_edges(self, lo, hi, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bound-curve", "--K", "1", "--n-min", str(lo), "--n-max", str(hi),
                     "--out", str(out)]) == 0
        assert read_table(str(out)).column("n") == list(range(lo, hi + 1))

    def test_single_qubit_generator_target_learns(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["learn", "--n", "1", "--m", "1", "--generators", "Z",
                     "--out", str(out)]) == 0
        assert len(read_table(str(out)).rows) == 2

    @pytest.mark.parametrize("values", [
        {"command": "sweep-m", "n": 2, "m_list": []},
        {"command": "sweep-errors", "n": 2, "sweep_param": "gamma", "sweep_values": []},
    ], ids=["m_list", "sweep_values"])
    def test_empty_sweep_in_a_config_file(self, values, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        with pytest.raises(ConfigError, match="at least one"):
            ExperimentConfig.from_file(str(path))
        code = main([values["command"], "--config", str(path), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "at least one" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()



class TestSupportLimit:
    """Without replacement no training set outgrows the support (3
    effects for the GHZ_2 "d1" support); the limit fails by name."""

    def test_sweep_m_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        optimizations = []
        monkeypatch.setattr(learner, "hazan_optimize",
                            lambda *a, **kw: optimizations.append(a))
        code = main(["sweep-m", "--n", "2", "--m-list", "1", "4", "--repeats", "1",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "support size 3" in capsys.readouterr().err
        assert optimizations == []
        assert not (tmp_path / "t.csv").exists()

    def test_learn_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(sampling, "_draw_indices", lambda *a: draws.append(a))
        with pytest.raises(ConfigError, match="support size 2 "):
            cfg(command="learn", n=2, dist="d2", m=5, replacement="without",
                out=str(tmp_path / "l.csv"))
        code = main(["learn", "--n", "2", "--dist", "d2", "--m", "5", "--replacement", "without",
                     "--out", str(tmp_path / "l.csv")])
        assert code == 2
        assert "support size 2 " in capsys.readouterr().err
        assert draws == []
        assert not (tmp_path / "l.csv").exists()
        # the whole support, and any size drawn with replacement, still learn
        cfg(command="learn", n=2, dist="d2", m=2, replacement="without")
        cfg(command="learn", n=2, dist="d2", m=5, replacement="with")

    def test_search_stops_at_support_size(self, tmp_path, capsys):
        code = main(["scaling", "--n-min", "2", "--n-max", "3", "--repeats", "1",
                     "--imax", "10", "--gauss-std", "0.1", "--kmax", "20",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no m <= 3 (support size 3, sampled without replacement)" in err
        assert not (tmp_path / "t.csv").exists()

    def test_cap_error_carries_trajectory(self):
        cache = TrialCache(ghz_density(2), build_distribution(2, "d1"),
                           k_max=20, noise=NoiseModel.gaussian(0.1), replacement=False)
        with pytest.raises(SampleSizeCapError) as err:
            estimate_min_m(cache, LearnParams(epsilon=0.05, gamma=0.1, delta=0.1, i_max=10),
                           [(1,)])
        assert err.value.m_cap == 3
        assert len(err.value.delta_trajectory) == 3


class TestRunBoundCurve:
    def test_values_by_hand(self, tmp_path):
        c = cfg(command="bound-curve", n_min=2, n_max=4, big_k=2.0,
                epsilon=0.5, gamma=0.5, delta=0.5, out=str(tmp_path / "b.csv"))
        table = run_bound_curve(c)
        g4e2 = 0.5**4 * 0.5**2
        log_ge = math.log(1 / 0.25)
        want = [(2.0 / g4e2) * (n / g4e2 * log_ge**2 + math.log(2.0)) for n in (2, 3, 4)]
        got = table.column("m_bound")
        assert got == pytest.approx(want, rel=1e-12)
        # affine in n
        assert got[1] - got[0] == pytest.approx(got[2] - got[1], rel=1e-12)

    def test_zero_k(self, tmp_path):
        c = cfg(command="bound-curve", n_min=2, n_max=3, big_k=0.0,
                out=str(tmp_path / "b.csv"))
        assert run_bound_curve(c).column("m_bound") == [0.0, 0.0]


class TestDeterminismAndReplay:
    def test_same_config_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_command(cfg(command="learn", n=3, m=5, seed=17, out=str(a)))
        run_command(cfg(command="learn", n=3, m=5, seed=17, out=str(b)))
        assert a.read_bytes() == b.read_bytes()

    def test_replay_from_header(self, tmp_path):
        src = tmp_path / "orig.csv"
        run_command(cfg(command="sweep-m", n=2, dist="d2", m_list=[1, 2], repeats=2,
                        seed=23, out=str(src)))
        assert replay(str(src), str(tmp_path / "replayed.csv"))

    def test_replay_detects_tampering(self, tmp_path):
        src = tmp_path / "orig.csv"
        run_command(cfg(command="learn", n=2, m=2, seed=29, out=str(src)))
        text = src.read_text().replace("learned", "doctored")
        src.write_text(text)
        assert not replay(str(src), str(tmp_path / "replayed.csv"))

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPAC_OUT_DIR", str(tmp_path))
        run_command(cfg(command="learn", n=2, m=2, seed=1))
        assert (tmp_path / "learn.csv").exists()

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = dict(command="sweep-m", n=3, dist="d1", m_list=[1, 2, 4], repeats=4, seed=31)
        run_command(cfg(**base, threads=1, out=str(a)))
        run_command(cfg(**base, threads=4, out=str(b)))
        ta, tb = a.read_text(), b.read_text()
        # headers differ in the threads echo; rows must not
        assert ta.splitlines()[1:] == tb.splitlines()[1:]

    def test_protocols_start_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError("a protocol started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        small = dict(epsilon=0.2, gamma=0.3, delta=0.3, i_max=5, repeats=2, threads=4)
        run_command(cfg(command="sweep-m", n=2, dist="d2", m_list=[1, 2], repeats=2, threads=4,
                        out=str(tmp_path / "m.csv")))
        run_command(cfg(command="sweep-errors", n=2, dist="d1", sweep_param="delta",
                        sweep_values=[0.3, 0.6], **small, out=str(tmp_path / "e.csv"),
                        trials_out=str(tmp_path / "et.csv")))
        run_command(cfg(command="scaling", n_min=2, n_max=3, dist="d2", **small,
                        out=str(tmp_path / "s.csv"), trials_out=str(tmp_path / "st.csv")))

    def test_header_does_not_depend_on_core_count(self, tmp_path, monkeypatch):
        outs = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
            outs.append(tmp_path / f"cores{cores}.csv")
            run_command(cfg(command="learn", n=2, m=3, seed=3, out=str(outs[-1])))
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert read_table(outs[0]).config["threads"] == 0
