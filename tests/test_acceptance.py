"""Acceptance suite: one test per criterion, each at its stated
tolerance, printing one pass/fail line (run with -s to see them all).

The figure-protocol criteria run the pinned manifest scenarios once per
session and assert directly on the output tables.
"""

import math
import os
from itertools import product

import numpy as np
import pytest

from qpac import (
    NoiseModel,
    Objective,
    PauliString,
    build_distribution,
    expectation,
    ghz_density,
    ghz_generators,
    group_closure,
    hazan_optimize,
    maximally_mixed,
    pauli_multiply,
    sample_training_set,
    xz_subset,
    PauliPhaseError,
)
from qpac.experiments import replay
from qpac.repro import run_repro
from qpac.sampling import _draw_indices
from qpac.states import EffectBatch
from qpac.table import read_table

from conftest import (decompose_pauli_product, fw_iterates, ghz_vector, kron_dense, objective,
                      random_density, record_vertices)


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenarios")


@pytest.fixture(scope="session")
def fig5(scenario_dir):
    return run_repro("fig5", out_dir=str(scenario_dir))


@pytest.fixture(scope="session")
def fig3(scenario_dir):
    return run_repro("fig3", out_dir=str(scenario_dir))


@pytest.fixture(scope="session")
def fig4(scenario_dir):
    return {
        p: run_repro(f"fig4-{p}", out_dir=str(scenario_dir))
        for p in ("delta", "gamma", "epsilon")
    }


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_scaling_protocol(fig5):
    table = read_table(fig5["table"])
    points = table.select(kind="point")
    cols = table.columns
    means = [dict(zip(cols, r))["m_mean"] for r in points]
    ns = [dict(zip(cols, r))["n"] for r in points]
    slope = table.cell("slope", kind="fit")
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    ok = 0.7 <= slope <= 1.7 and monotone and ns == [2, 3, 4, 5, 6]
    report(
        ok,
        "criterion 1 (linear scaling)",
        f"slope={slope:.3f} in [0.7, 1.7]; means over n=2..6 {means} non-decreasing",
    )


def test_criterion_2_twenty_qubit_extrapolation(fig5):
    table = read_table(fig5["table"])
    ref = table.cell("extrap_m", kind="reference")
    own = table.cell("extrap_m", kind="fit")
    ok = abs(ref - 23.46) <= 1e-9 and round(ref) == 23 and math.isfinite(own) and own > 0
    report(
        ok,
        "criterion 2 (20-qubit extrapolation)",
        f"reference fit gives {ref} (~23 measurements); own fit gives {own:.2f} (finite, positive)",
    )


def test_criterion_3_error_rate_vs_baseline(fig3):
    table = read_table(fig3["table"])
    baselines = table.column("epsilon_baseline")
    eps = table.column("epsilon_mean")
    at_full = table.cell("epsilon_mean", m=15)
    ok = (
        all(b == 1.0 for b in baselines)
        and at_full <= 0.05
        and all(e <= b for e, b in zip(eps, baselines))
    )
    report(
        ok,
        "criterion 3 (always beats random guessing)",
        f"baseline 1.0 exactly; eps at m=15 = {at_full}; learned <= baseline at every m",
    )


def test_criterion_4_fidelity_trend(fig3):
    table = read_table(fig3["table"])
    f15 = table.cell("fidelity_target_mean", m=15)
    f1 = table.cell("fidelity_target_mean", m=1)
    ok = f15 >= 0.99 and f15 >= f1
    report(
        ok,
        "criterion 4 (fidelity trend)",
        f"fidelity at m=15 = {f15:.4f} >= 0.99 and >= {f1:.4f} at m=1",
    )


def test_criterion_5_error_parameter_sweeps(fig4):
    details = []
    ok = True
    for param, rep in fig4.items():
        table = read_table(rep["table"])
        ms = table.column("m_mean")
        mono = all(b <= a for a, b in zip(ms, ms[1:]))
        ok &= mono
        details.append(f"{param}: {ms}")
        if param == "gamma":
            past_half = table.cell("m_mean", value=0.6)
            ok &= past_half == 1.0
            details.append(f"gamma=0.6 -> m={past_half}")
    report(
        ok,
        "criterion 5 (error-parameter sweeps)",
        "non-increasing m under relaxation; " + "; ".join(details),
    )


def test_criterion_6_optimizer_correctness(monkeypatch):
    worst_rel = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(600 + n)
        dist = build_distribution(n, "d1")
        obj = Objective(dist.batch, *sample_training_set(
            dist, ghz_density(n), 2 * n, noise=NoiseModel.gaussian(0.1), seed=(600, n)
        ))
        dim = 2**n
        for _ in range(20):
            sigma = random_density(rng, dim)
            delta = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            delta = (delta + delta.conj().T) / 2
            delta /= np.trace(delta).real
            t = 1e-6
            fd = (obj.value(sigma + t * delta) - obj.value(sigma - t * delta)) / (2 * t)
            an = float(np.real(np.trace(obj.gradient(obj.residuals(sigma)) @ delta)))
            worst_rel = max(worst_rel, abs(fd - an) / max(1e-12, abs(an)))
    grad_ok = worst_rel <= 1e-5

    dist = build_distribution(3, "d1")
    noisy = sample_training_set(
        dist, maximally_mixed(3), 10, noise=NoiseModel.with_shots(10), seed=601,
    )
    vertices = record_vertices(monkeypatch)
    iterates = fw_iterates(vertices, hazan_optimize(Objective(dist.batch, *noisy), k_max=300))
    monkeypatch.undo()
    trace_err = max(abs(np.trace(s).real - 1.0) for s in iterates)
    min_eig = min(0.0, *(float(np.linalg.eigvalsh(s)[0]) for s in iterates))
    iterate_ok = trace_err <= 1e-12 and min_eig >= -1e-10

    finals = {}
    for n in (2, 3, 4):
        dist = build_distribution(n, "d1")
        training = sample_training_set(
            dist, ghz_density(n), len(dist), seed=(602, n), replacement=False
        )
        finals[n] = hazan_optimize(Objective(dist.batch, *training), k_max=300).final_objective
    converge_ok = all(f <= 1e-3 for f in finals.values())

    report(
        grad_ok and iterate_ok and converge_ok,
        "criterion 6 (optimizer correctness)",
        f"gradient vs central differences rel err {worst_rel:.2e} <= 1e-5; "
        f"iterate trace err {trace_err:.2e} <= 1e-12, min eig {min_eig:.2e} >= -1e-10; "
        f"full-support objectives {finals}",
    )


def per_shot_outcomes(dist, state, m_prime, shots, seed=0, replacement=True):
    """Raw Bernoulli outcomes grouped per sampled effect.

    Returns a list of (effect, bits) with bits a uint8 array of length
    ``shots``; each bit is 1 with probability Tr(E rho).
    """
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    idx = _draw_indices(rng, len(dist), m_prime, replacement)
    values = dist.batch.expected(state)[idx]
    return [
        (dist.effects[i], (rng.random(shots) < p).astype(np.uint8))
        for i, p in zip(idx.tolist(), values.tolist())
    ]


def shot_objective_value(outcomes, sigma) -> float:
    """Single-outcome objective sum_ij (Tr(E_i sigma) - b_ij)^2 over raw
    per-shot bits grouped per effect."""
    total = 0.0
    for eff, bits in outcomes:
        t = float(EffectBatch((eff,)).expectations(sigma)[0])
        bits = np.asarray(bits, dtype=float)
        s = bits.size
        # sum over bits of (t - b)^2 with b^2 = b
        total += s * t * t - 2.0 * t * float(bits.sum()) + float(bits.sum())
    return total


def test_criterion_7_per_shot_identity():
    rng = np.random.default_rng(700)
    dist = build_distribution(3, "d1")
    mixed = maximally_mixed(3)
    worst = 0.0
    for shots in (1, 10, 100):
        outcomes = per_shot_outcomes(dist, mixed, 6, shots=shots, seed=(700, shots))
        averaged = objective(tuple((eff, float(bits.mean())) for eff, bits in outcomes))
        diffs = []
        for _ in range(10):
            sigma = random_density(rng, 8)
            diffs.append(shot_objective_value(outcomes, sigma) - shots * averaged.value(sigma))
        spread = (max(diffs) - min(diffs)) / max(1.0, max(abs(d) for d in diffs))
        worst = max(worst, spread)
    ok = worst <= 1e-9
    report(
        ok,
        "criterion 7 (per-shot objective identity)",
        f"f - S*f' constant over random hypotheses; relative spread {worst:.2e} <= 1e-9 "
        f"for S in (1, 10, 100)",
    )


def test_criterion_8_algebra_oracles():
    # exhaustive products at n <= 3 (phase layer at n <= 2)
    checked = 0
    for n in (1, 2, 3):
        phases = (1, -1) if n <= 2 else (1,)
        strings = [PauliString(f, s) for f in product("IXYZ", repeat=n) for s in phases]
        for a in strings:
            for b in strings:
                dense = kron_dense(a) @ kron_dense(b)
                phase, factors = decompose_pauli_product(dense)
                if abs(phase.imag) > 0.5:
                    with pytest.raises(PauliPhaseError):
                        pauli_multiply(a, b)
                else:
                    got = pauli_multiply(a, b)
                    assert (got.factors, got.phase) == (factors, int(phase.real))
                checked += 1

    sizes_ok, xz_ok, expect_ok, stab_ok = True, True, True, True
    for n in range(2, 7):
        group = group_closure(ghz_generators(n))
        sizes_ok &= len(group) == 2**n
        xz_ok &= len(xz_subset(group)) == 2 ** (n - 1)
        rho, mixed = ghz_density(n), maximally_mixed(n)
        rng = np.random.default_rng(800 + n)
        sample = list(group.non_identity())
        if n > 3:
            sample = [sample[i] for i in rng.integers(0, len(sample), 12)]
        v = ghz_vector(n)
        for p in sample:
            expect_ok &= abs(expectation(p, rho) - 1.0) <= 1e-12
            expect_ok &= abs(expectation(p, mixed) - 0.5) <= 1e-12
            stab_ok &= bool(np.allclose(kron_dense(p) @ v, v, atol=1e-12))

    ok = sizes_ok and xz_ok and expect_ok and stab_ok
    report(
        ok,
        "criterion 8 (algebra oracles)",
        f"{checked} exhaustive products match dense mult; group sizes 2^n, "
        f"X/Z subsets 2^(n-1), stabilizer expectations 1 on target and 1/2 on mixed "
        f"for n=2..6",
    )


def test_criterion_9_replay_determinism(fig3, scenario_dir, tmp_path):
    fig3_ok = replay(fig3["table"], str(tmp_path / "fig3_replayed.csv"))

    from qpac.experiments import ExperimentConfig, run_command

    src = tmp_path / "learn.csv"
    run_command(ExperimentConfig(command="learn", n=4, m=9, seed=900, out=str(src)))
    learn_ok = replay(str(src), str(tmp_path / "learn_replayed.csv"))

    ok = fig3_ok and learn_ok
    report(
        ok,
        "criterion 9 (byte-identical replay)",
        f"fig3 table replayed from its own header: {fig3_ok}; "
        f"learn run replayed: {learn_ok}",
    )


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("scenario", ["fig3", "fig4-delta", "fig4-gamma", "fig4-epsilon", "fig5"])
def test_scenario_rows_match_golden(scenario, request):
    """Every line after the header of each manifest scenario table is
    byte-identical to ``tests/golden/repro_<scenario>_rows.csv``. A
    change that is meant to change results re-pins a file with
    ``qpac repro <scenario> --out-dir d`` and ``tail -n +2 d/<scenario>.csv``."""
    if scenario.startswith("fig4-"):
        path = request.getfixturevalue("fig4")[scenario[len("fig4-"):]]["table"]
    else:
        path = request.getfixturevalue(scenario)["table"]
    with open(path, "rb") as fh:
        rows = fh.read().split(b"\n", 1)[1]
    with open(os.path.join(GOLDEN_DIR, f"repro_{scenario}_rows.csv"), "rb") as fh:
        assert rows == fh.read()
