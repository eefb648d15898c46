"""Pins one workload's entry of reference.json: the checker summaries of
the warm-up op and of the first ops of workload seed 0.

    python3 perfbench/pin_reference.py --workload scaling-d2 --ops 12

Re-pin only when a change is meant to alter the tables, and say so.
"""

import argparse
import json
import shutil
import sys

import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--ops", type=int, required=True)
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workloads.pin_threads(workload)
    workloads.load_qpac()
    import checks
    import tracing
    from qpac.experiments import ExperimentConfig, run_command

    steps = tracing.StepCounter()
    steps.install()
    work_dir = workloads.ROOT / "perfbench" / f"_work-pin-{workload.name}"
    work_dir.mkdir(exist_ok=True)

    def summarise(values: dict) -> dict:
        config = ExperimentConfig.from_sources(values)
        before = steps.fw_steps
        run_command(config)
        summary, problems = checks.check_op(config.command, work_dir, steps.fw_steps - before)
        if problems:
            raise SystemExit(f"seed {config.seed}: " + "; ".join(problems))
        return summary

    try:
        entry = {
            "warmup": summarise(
                workloads.op_config(workload, workloads.WARMUP_SEED, work_dir, warmup=True)
            ),
            "ops": [
                summarise(workloads.op_config(workload, s, work_dir))
                for s in workloads.op_seeds(0, args.ops)
            ],
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        with open(checks.REFERENCE_PATH) as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        pinned = {}
    pinned[workload.name] = entry
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
