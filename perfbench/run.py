"""qpac benchmark: one workload, one process, a closed loop of protocol runs.

    python3 perfbench/run.py --workload scaling-d2 --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: after set-up it
starts op after op (one ``qpac.experiments.run_command`` call each)
until ``--seconds`` have passed. Times are CPU seconds of the process
(user + system, every thread) scaled to the reference host speed by a
fixed kernel timed between ops (see ``calibration.py``): on the shared
reference VM wall time and raw CPU time both follow the host more than
the program. ``learn-n10`` alone reports raw CPU time (see
``workloads.py``). Raw CPU and wall times are printed alongside. With
``--trace 1`` it runs the workload's fixed number of ops once untraced
and once traced, and reports per-layer metrics. Every op's tables are read back and checked
(see ``checks.py``). The last line of standard output is the result as
JSON; the exit code is 1 when an output was wrong or an op raised.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import workloads  # noqa: E402

# inputs generated up front; more ops than this never fit in one run
MAX_OPS = 1000
CHILD_TIMEOUT_S = 150


class Op(NamedTuple):
    wall_s: float
    cpu_s: float
    fw_steps: int
    trials: int


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Bench:
    """Set-up (imports, inputs, warm-up) and the op runner of one workload."""

    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.qpac = workloads.load_qpac()
        import checks
        import tracing
        from qpac.experiments import ExperimentConfig

        self.checks = checks
        self.tracing = tracing
        self.steps = tracing.StepCounter()
        self.steps.install()
        self.references = checks.load_references(workload.name)
        self.configs = [
            ExperimentConfig.from_sources(workloads.op_config(workload, s, work_dir))
            for s in workloads.op_seeds(seed, MAX_OPS)
        ]
        warmup = ExperimentConfig.from_sources(
            workloads.op_config(workload, workloads.WARMUP_SEED, work_dir, warmup=True)
        )
        self.attempted = 0
        self.failed = 0
        self.run_op(warmup, self.references["warmup"])

    def run_op(self, config, reference=None, steps=None):
        """One op and its checks; returns an :class:`Op`."""
        steps = steps or self.steps
        self.attempted += 1
        before = steps.fw_steps
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            self.qpac.experiments.run_command(config)
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - start_cpu
            taken = steps.fw_steps - before
            summary, problems = self.checks.check_op(config.command, self.work_dir, taken)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return Op(time.perf_counter() - start, time.process_time() - start_cpu, 0, 0)
        if reference is not None and not problems:
            problems = self.checks.compare(summary, reference)
        if problems:
            self.failed += 1
            print(f"wrong output, seed {config.seed}: " + "; ".join(problems), file=sys.stderr)
        trials = 1
        if self.workload.has_trials():
            with open(self.work_dir / "trials.csv") as fh:
                trials = sum(1 for _ in fh) - 2
        return Op(wall_s, cpu_s, taken, trials)

    def reference(self, k: int):
        ops = self.references["ops"]
        return ops[k] if self.seed == 0 and k < len(ops) else None

    def measure(self, seconds: float):
        """Closed loop: op after op until ``seconds`` have passed (at
        least one op). On a calibrated workload the calibration kernel
        runs before the first op and after each. Returns the ops and each
        op's CPU time as reported: scaled to the reference speed by the
        mean of the kernel times around it, or raw."""
        calibrated = self.workload.calibrated
        if calibrated:
            import calibration
        ops, kernels = [], [calibration.kernel_s()] if calibrated else []
        start = time.perf_counter()
        while len(ops) < len(self.configs) and (
            not ops or time.perf_counter() - start < seconds
        ):
            ops.append(self.run_op(self.configs[len(ops)], self.reference(len(ops))))
            if calibrated:
                kernels.append(calibration.kernel_s())
        if not calibrated:
            return ops, [op.cpu_s for op in ops]
        print(f"calibration kernel (not a metric): {[round(k, 4) for k in kernels]} s CPU")
        ref_cpu_s = [
            calibration.scale(op.cpu_s, (before + after) / 2)
            for op, before, after in zip(ops, kernels, kernels[1:])
        ]
        return ops, ref_cpu_s

    def trace(self, spans_path: Path):
        """The workload's fixed ops, untraced then traced."""
        count = self.workload.trace_ops
        untraced = sum(
            self.run_op(self.configs[k], self.reference(k)).wall_s for k in range(count)
        )
        self.steps.remove()
        tracer = self.tracing.Tracer()
        tracer.install()
        try:
            traced = sum(
                self.run_op(self.configs[k], self.reference(k), tracer).wall_s
                for k in range(count)
            )
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics(self.workload.pool_threads)
        metrics["trace.wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        tracer.write(spans_path)
        return metrics


def child_setup_seconds(args) -> float:
    """Set-up CPU time, as reported, of a fresh process running the same
    workload."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up in a fresh process failed with code {done.returncode}")
    return float(done.stdout.strip().splitlines()[-1])


def environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workloads.NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workload.blas_threads,
        "pool_threads": workload.pool_threads,
        "workload": workload.name,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workloads.pin_threads(workload)
    work_dir = workloads.ROOT / "perfbench" / f"_work-{workload.name}-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    try:
        bench = Bench(workload, args.seed, work_dir)
        # CPU time since the process started, interpreter start-up included
        setup_cpu_s = time.process_time()
        setup_wall_s = time.perf_counter() - T_START
        setup_s = setup_cpu_s
        if workload.calibrated:
            import calibration

            setup_s = calibration.scale(setup_cpu_s, calibration.kernel_s())
        if args.setup_only:
            # the timing is all a set-up sample gives: the parent ran and
            # checked the same warm-up op itself
            print(repr(setup_s))
            return 0
        if args.trace:
            trace_dir = workloads.ROOT / "perfbench" / "_traces"
            trace_dir.mkdir(exist_ok=True)
            metrics = bench.trace(trace_dir / f"{workload.name}-seed{args.seed}.jsonl")
        else:
            # fresh-process set-ups before and after the loop, so their
            # median spans the machine's speed drift over the run
            setups = [setup_s]
            setups += [child_setup_seconds(args) for _ in range(workload.setup_samples // 2)]
            ops, op_cpu_s = bench.measure(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += [child_setup_seconds(args) for _ in range(workload.setup_samples - len(setups))]
            busy = sum(op_cpu_s)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_cpu_s_p50": (statistics.median(op_cpu_s), "s"),
                "trials_per_cpu_s": (sum(op.trials for op in ops) / busy, "1/s"),
                "fw_steps_per_cpu_s": (sum(op.fw_steps for op in ops) / busy, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            speed = "at reference speed" if workload.calibrated else "(not calibrated)"
            print(f"ops: {len(ops)} measured, op_cpu_s_p50 is their median: "
                  f"{[round(s, 3) for s in op_cpu_s]} s CPU {speed}; "
                  f"set-up samples {[round(s, 3) for s in setups]} s")
            print(f"raw CPU time (not a metric): op median "
                  f"{statistics.median(op.cpu_s for op in ops):.4f} s, "
                  f"{[round(op.cpu_s, 3) for op in ops]} s; in-process set-up "
                  f"{setup_cpu_s:.4f} s")
            print(f"wall time (not a metric): op median "
                  f"{statistics.median(op.wall_s for op in ops):.4f} s, "
                  f"{[round(op.wall_s, 3) for op in ops]} s; in-process set-up "
                  f"{setup_wall_s:.4f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env: " + json.dumps(environment(workload, args.seed), sort_keys=True))
    print(f"error_rate = {bench.failed / bench.attempted} ({bench.failed} of {bench.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
