"""Host-speed correction for CPU times.

On the shared reference VM the CPU time of one fixed op moves by up to
±30 % within a minute (runs of fast and slow ops, with no steal time
reported), so neither wall nor raw CPU time separates a change of the
program from a change of the host. The benchmark therefore runs this
fixed kernel, which uses no qpac code, between ops and reports each CPU
time scaled by ``REFERENCE_S / kernel time``: CPU seconds at the speed
the reference VM had when ``REFERENCE_S`` was pinned. A change to qpac
moves the op time and not the kernel's, so it moves the metric in full.

The kernel mixes what qpac's ops spend their time on: small Hermitian
eigendecompositions (dim 4 to 64, as in the eigen-step), one at dim 256,
and plain interpreter work. It needs numpy, so import this module only
after the BLAS thread count is pinned.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median CPU time over 30 back-to-back runs on the
# reference VM (2 vCPU Xeon at 2.1 GHz, numpy 2.4.6, one BLAS thread),
# rounded; only the scale of the metrics depends on it
REFERENCE_S = 0.2


def _hermitian(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


_RNG = np.random.default_rng(0)
_SMALL = [_hermitian(_RNG, d) for d in (4, 8, 16, 32, 64)]
_LARGE = _hermitian(_RNG, 256)


def kernel_s() -> float:
    """CPU seconds of one run of the fixed kernel."""
    start = time.process_time()
    for _ in range(100):
        for a in _SMALL:
            np.linalg.eigh(a)
    np.linalg.eigh(_LARGE)
    np.linalg.eigh(_LARGE)
    counts: dict = {}
    for i in range(250_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * 3 // 7
    return time.process_time() - start


def scale(cpu_s: float, kernel_s: float) -> float:
    """``cpu_s`` at the reference speed, given the kernel time measured
    next to it."""
    return cpu_s * REFERENCE_S / kernel_s
