"""Byte-identity of protocol tables against pinned golden CSVs.

Each config below is run and its table compared byte for byte with the
file of the same name in ``tests/golden/``; each config in
``TRAINING_DUMPS`` also writes its ``--training-out`` dump, compared
with ``<name>_training.csv``, and each config in ``TRIALS_DUMPS`` its
``--trials-out`` table, compared with ``<name>_trials.csv``. Both
trials configs run two repeats, so they pin the rows that a search of
the repeats as one group reads, in the sorted order the table writes
them. ``threads=1`` is explicit
because the header echoes the resolved thread count. A change that is
meant to keep every table identical must pass this unchanged; one that
is meant to change results re-pins the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from qpac.experiments import ExperimentConfig, run_command

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CLUSTER_3 = ["XZI", "ZXZ", "IZX"]

CONFIGS = {
    "learn_n10_d1_m20": dict(command="learn", n=10, dist="d1", m=20, seed=3),
    "learn_n4_shots": dict(command="learn", n=4, dist="d1", m=12, shots=50, seed=7),
    # noisy values give multi-step, non-degenerate Frank-Wolfe iterates
    "learn_n4_gauss": dict(command="learn", n=4, dist="d1", m=12, gauss_std=0.05, k_max=30,
                           seed=7),
    "sweep_m_cluster3": dict(command="sweep-m", n=3, dist="d1", generators=CLUSTER_3,
                             m_list=[0, 1, 3, 5], repeats=3, seed=11),
    "scaling_n2_4": dict(command="scaling", n_min=2, n_max=4, dist="d2", epsilon=0.15,
                         gamma=0.2, delta=0.2, i_max=6, repeats=2, seed=13),
    "sweep_errors_n3": dict(command="sweep-errors", n=3, dist="d1", sweep_param="gamma",
                            sweep_values=[0.1, 0.3, 0.5], i_max=6, repeats=2, seed=17),
}

# every GHZ stabilizer has Tr(E rho) = 1, so its shot averages all read
# 1.0; clamped Gaussian noise gives values below 1 as well
TRAINING_DUMPS = ("learn_n4_gauss", "learn_n4_shots")
TRIALS_DUMPS = ("scaling_n2_4", "sweep_errors_n3")


def _run(name: str, out: str, training_out: str | None = None,
         trials_out: str | None = None) -> None:
    run_command(ExperimentConfig(**CONFIGS[name], threads=1, out=out, training_out=training_out,
                                 trials_out=trials_out))


def _golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_table_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    _run(name, str(out))
    assert out.read_bytes() == _golden(f"{name}.csv")


@pytest.mark.parametrize("name", TRAINING_DUMPS)
def test_training_dump_matches_golden(name, tmp_path):
    dump = tmp_path / f"{name}_training.csv"
    _run(name, str(tmp_path / f"{name}.csv"), training_out=str(dump))
    assert dump.read_bytes() == _golden(f"{name}_training.csv")


@pytest.mark.parametrize("name", TRIALS_DUMPS)
def test_trials_table_matches_golden(name, tmp_path):
    dump = tmp_path / f"{name}_trials.csv"
    _run(name, str(tmp_path / f"{name}.csv"), trials_out=str(dump))
    assert dump.read_bytes() == _golden(f"{name}_trials.csv")


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sys.argv[1:] or sorted(CONFIGS):
        dumps = {
            kind: os.path.join(GOLDEN_DIR, f"{name}_{kind}.csv")
            for kind, names in (("training", TRAINING_DUMPS), ("trials", TRIALS_DUMPS))
            if name in names
        }
        _run(name, os.path.join(GOLDEN_DIR, f"{name}.csv"), training_out=dumps.get("training"),
             trials_out=dumps.get("trials"))
        print(f"wrote {name}.csv" + "".join(f" and {name}_{kind}.csv" for kind in dumps))
