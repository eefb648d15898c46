"""Command-line entry point.

Subcommands mirror the experiment protocols plus the scenario runner:

    qpac learn --n 4 --m 15 --seed 7 --out run.csv
    qpac sweep-m --n 4 --dist d1 --gamma 0.1 --out fig.csv
    qpac sweep-errors --sweep-param gamma --out sweep.csv
    qpac scaling --n-min 2 --n-max 6 --out scaling.csv
    qpac bound-curve --K 1.0 --epsilon 0.15 --gamma 0.2 --delta 0.2
    qpac repro fig5

Flags override values from --config (a JSON file mirroring the
experiment config). Output CSV schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QpacError
from .experiments import COMMANDS, ExperimentConfig, run_command
from .repro import run_repro, scenario_names


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--n", type=int)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--dist", choices=("d1", "d2"))
    p.add_argument("--m", type=int)
    p.add_argument("--m-list", dest="m_list", type=int, nargs="+")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--imax", dest="i_max", type=int)
    p.add_argument("--kmax", dest="k_max", type=int)
    p.add_argument("--m-cap", dest="m_cap", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--gauss-std", dest="gauss_std", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--replacement", choices=("with", "without"))
    p.add_argument("--sweep-param", dest="sweep_param", choices=("epsilon", "gamma", "delta"))
    p.add_argument("--sweep-values", dest="sweep_values", type=float, nargs="+")
    p.add_argument("--K", dest="big_k", type=float)
    p.add_argument("--extrapolate-n", dest="extrapolate_n", type=int)
    p.add_argument("--generators", type=str,
                   help="comma-separated Pauli strings for a custom stabilizer target")
    p.add_argument("--out", help="output CSV path (default under $QPAC_OUT_DIR)")
    p.add_argument("--trials-out", dest="trials_out", help="per-trial record CSV path")
    p.add_argument("--training-out", dest="training_out", help="training-set dump path (learn)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpac",
        description="PAC-learning experiments on stabilizer-measured quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(sub.add_parser(name))
    rp = sub.add_parser("repro", help="run a named reproduction scenario")
    rp.add_argument("scenario", choices=scenario_names())
    rp.add_argument("--out-dir", dest="out_dir", help="directory for tables and reports")
    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    values = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if "generators" in values:
        values["generators"] = [s for s in values["generators"].split(",") if s]
    return values


def _join_signed_generators(argv: list[str]) -> list[str]:
    """``--generators -XXX,ZZI`` as ``--generators=-XXX,ZZI``: argparse
    takes a value that starts with a single ``-`` for a flag, so a list
    whose first string has a sign would read as a missing value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--generators" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--generators={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_generators(argv))
    try:
        if args.command == "repro":
            report = run_repro(args.scenario, out_dir=args.out_dir)
            print(report["text"])
            return 0 if report["passed"] else 1
        flags = _flag_values(args)
        flags["command"] = args.command
        if args.config:
            config = ExperimentConfig.from_file(args.config, flags)
        else:
            config = ExperimentConfig.from_sources(None, flags)
        table = run_command(config)
        print(f"wrote {len(table.rows)} rows: {config.out_path()}")
        return 0
    except (QpacError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
