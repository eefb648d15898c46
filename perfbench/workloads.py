"""The benchmark workloads and the process set-up they need.

Nothing here imports numpy: the BLAS thread count has to be in the
environment before numpy loads, so the entry points call
:func:`pin_threads` first and import the package afterwards.

Each workload is a closed loop from one process: one protocol run (an
"op"), then the next. Op k of workload seed s uses the k-th qpac seed
drawn from ``random.Random(s)``, so a fixed workload seed gives the same
work on every run.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NPROC = os.cpu_count() or 1

# one fixed qpac seed for the warm-up op, so set-up is the same work for
# every workload seed
WARMUP_SEED = 12345

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    blas_threads: int
    # overrides that shrink the op to a warm-up which still builds every
    # lazily filled cache (Pauli actions, support batches, the pool)
    warmup: dict = field(default_factory=dict)
    # ops measured by a traced run; fixed so its counts repeat exactly
    trace_ops: int = 2
    # set-ups timed per run (this process plus fresh ones) for setup_s
    setup_samples: int = 5
    # CPU times scaled to the reference speed by the calibration kernel
    # (calibration.py); off where that made a workload less steady
    calibrated: bool = True

    @property
    def pool_threads(self) -> int:
        return self.config["threads"]

    def has_trials(self) -> bool:
        return self.config["command"] in ("scaling", "sweep-errors")


WORKLOADS = {
    w.name: w
    for w in (
        # fig5 protocol: ~1000 tiny optimizations (dim 4..64) per op, each
        # stopped by the zero-gradient check after one step; the
        # bottom-eigenvector step dominates and no op computes fidelity
        Workload(
            name="scaling-d2",
            config=dict(
                command="scaling", n_min=2, n_max=6, dist="d2", epsilon=0.15, gamma=0.2,
                delta=0.2, i_max=50, replacement="without", repeats=1, threads=1,
            ),
            blas_threads=1,
            warmup=dict(i_max=2),
            trace_ops=3,
        ),
        # the only dim-1024 workload: dense fidelity and DensityMatrix
        # validation dominate, the eigen-step barely shows. One BLAS
        # thread: a second one cut wall time but spun the op's CPU time
        # from 5.5 s up to 7-9 s, varying by 25 % between ops
        Workload(
            name="learn-n10",
            config=dict(command="learn", n=10, dist="d1", m=20, threads=1),
            blas_threads=1,
            trace_ops=2,
            # each set-up here runs a full 5-6 s op as its warm-up
            setup_samples=3,
            # its 5 s ops average over the host's second-scale speed
            # changes, which the 0.25 s kernel samples one at a time:
            # over ten workload seeds raw CPU time spread 0.08, scaled
            # CPU time 0.135
            calibrated=False,
        ),
        # fig4-gamma protocol: the only workload that reuses TrialCache
        # entries and runs the --threads worker pool
        Workload(
            name="errors-sweep",
            config=dict(
                command="sweep-errors", n=4, dist="d1", sweep_param="gamma",
                sweep_values=[0.1, 0.2, 0.3, 0.5, 0.6], epsilon=0.05, delta=0.1,
                repeats=4, threads=NPROC,
            ),
            blas_threads=1,
            warmup=dict(i_max=2, repeats=2),
            trace_ops=2,
        ),
    )
}


def pin_threads(workload: Workload) -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for name in _BLAS_ENV:
        os.environ[name] = str(workload.blas_threads)


def load_qpac():
    """Import qpac from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qpac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qpac sources under {src}")
    sys.path.insert(0, str(src))
    import qpac

    if Path(qpac.__file__).resolve().parent != src / "qpac":
        raise SystemExit(f"perfbench: imported qpac from {qpac.__file__}, not from {src}")
    return qpac


def op_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def op_config(workload: Workload, qpac_seed: int, work_dir: Path, warmup: bool = False) -> dict:
    """The flat config of one op; outputs go to ``work_dir``."""
    values = dict(workload.config, seed=qpac_seed, out=str(work_dir / "op.csv"))
    if workload.has_trials():
        values["trials_out"] = str(work_dir / "trials.csv")
    if warmup:
        values.update(workload.warmup)
    return values
