"""Command-line front door.

Subcommands: tabulate-kernels, tabulate-increment-law, simulate, powervar,
estimate-h, verify.  Flag values override config-file values, which override
defaults.  Exit codes: 0 success (all verdicts passing), 1 failing verdict,
2 usage/config error, 3 numerical failure (quadrature tolerance, atom
budget, or a constant past the float range).  Results go to stdout or
--out; diagnostics to stderr.

CSV numbers are written with repr(), the shortest decimal string that
round-trips to the same binary value, so file-based pipelines reproduce the
in-process results bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

import numpy as np

from . import increment_law, mc_harness, pv_stats
from .gauss_kernels import KernelTable
from .path_sim import (
    Grid,
    GridPath,
    TruncationError,
    VolatilitySpec,
    check_epsilon,
    check_grid_size,
    replicate_rng,
    sample_brown_resnick,
    sample_max_two_bm,
)
from .quadrature import QuadratureConfig, QuadratureError

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# verify takes one flag per ExperimentConfig field; the experiment has its own
# flag with choices, and h_spec (a nested dict) comes from --config only
_VERIFY_FIELDS = tuple(f for f in dataclasses.fields(mc_harness.ExperimentConfig)
                       if f.name not in ("experiment", "h_spec"))


@contextlib.contextmanager
def _output(path):
    """The --out file, opened for text and closed on exit, or stdout if no path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _load_h_spec(path: str) -> VolatilitySpec:
    """CSV of (s, H_s) rows: strictly increasing s from 0 to 1."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("s,"):
                continue
            s, h = line.split(",")
            rows.append((float(s), float(h)))
    if not rows:
        raise ValueError(f"empty H table {path}")
    s, h = zip(*rows)
    return VolatilitySpec.table(s, h)


def _cmd_tabulate_kernels(args) -> int:
    q = QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    table = KernelTable.build(args.p, args.sigma, q, points=args.points)
    with _output(args.out) as fh:
        table.to_csv(fh)
    return EXIT_OK


def _cmd_tabulate_increment_law(args) -> int:
    params = increment_law.IncrementLawParams(args.sigma, args.n)
    u = np.linspace(args.u_min, args.u_max, args.points)
    marg = increment_law.marginal_cdf(u, params)
    cond = increment_law.cond_cdf(u, 1.0, params)
    moment = increment_law.exact_abs_moment(args.p, params)
    with _output(args.out) as fh:
        fh.write(f"# sigma={args.sigma!r} n={args.n} p={args.p} "
                 f"exact_abs_moment={moment!r}\n")
        fh.write("u,marginal_cdf,cond_cdf_eta1\n")
        for row in zip(u, marg, cond):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    grid = Grid(args.n)
    vol = mc_harness.resolve_volatility(
        args.model, args.sigma, _load_h_spec(args.h_spec) if args.h_spec else None)
    if args.model == "br":
        check_epsilon(args.epsilon)
        check_grid_size(args.n)
    with _output(args.out) as fh:
        writer = csv.writer(fh)
        if args.model == "br":
            writer.writerow(["replicate", "i", "t", "value", "argmax_atom"])
            for r in range(args.reps):
                rng = replicate_rng(args.seed, r)
                ms = sample_brown_resnick(vol, grid, rng, args.epsilon)
                for i, (t, v, a) in enumerate(zip(grid.times, ms.log_eta.values,
                                                  ms.argmax_index)):
                    writer.writerow([r, i, repr(float(t)), repr(float(v)), int(a)])
        else:
            writer.writerow(["replicate", "i", "t", "value"])
            for r in range(args.reps):
                rng = replicate_rng(args.seed, r)
                mx, _ = sample_max_two_bm(grid, rng)
                for i, (t, v) in enumerate(zip(grid.times, mx.values)):
                    writer.writerow([r, i, repr(float(t)), repr(float(v))])
    return EXIT_OK


def _read_paths_csv(path: str) -> list:
    """(replicate, GridPath) pairs from a simulate output file, read in full
    so that a bad input fails before any --out file is opened."""
    by_rep: dict[int, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty path file {path}")
        vcol = header.index("value")
        for row in reader:
            by_rep.setdefault(int(row[0]), []).append(float(row[vcol]))
    return [(rep, GridPath(Grid(len(by_rep[rep]) - 1), np.array(by_rep[rep])))
            for rep in sorted(by_rep)]


def _cmd_powervar(args) -> int:
    paths = _read_paths_csv(args.infile)
    with _output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "t", "B"])
        for rep, path in paths:
            b = pv_stats.power_variation(path, args.p, args.t)
            writer.writerow([rep, repr(float(args.t)), repr(b)])
    return EXIT_OK


def _cmd_estimate_h(args) -> int:
    paths = _read_paths_csv(args.infile)
    with _output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "t", "H_hat"])
        for rep, path in paths:
            h_hat = pv_stats.estimate_h(path, args.p, args.window)
            for t, v in zip(path.grid.times, h_hat.values):
                writer.writerow([rep, repr(float(t)), repr(float(v))])
    return EXIT_OK


def _cmd_verify(args) -> int:
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    cfg_dict = dict(file_cfg)
    for key in ("experiment", *(f.name for f in _VERIFY_FIELDS)):
        flag = getattr(args, key)
        if flag is not None:
            cfg_dict[key] = flag
    if cfg_dict.get("experiment") is None:
        print("verify: an experiment name is required (flag or config)", file=sys.stderr)
        return EXIT_USAGE
    config = mc_harness.ExperimentConfig.from_dict(cfg_dict)
    report = mc_harness.run_experiment(config)
    payload = report.to_json()
    with _output(args.out) as fh:
        fh.write(payload + "\n")
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: measured={v.measured:.6g} "
              f"threshold={v.threshold:.6g}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERDICT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxstable-pv",
        description="Simulation and verification workbench for realized power "
                    "variations of max-stable processes.",
        epilog="Precedence: flags > config file > defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("tabulate-kernels", help="tabulate phi/phi2 kernels to CSV")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--sigma", type=float, default=1.0)
    k.add_argument("--points", type=int, default=81)
    k.add_argument("--abs-tol", type=float, default=1e-9)
    k.add_argument("--rel-tol", type=float, default=1e-8)
    k.add_argument("--out", default=None)
    k.set_defaults(fn=_cmd_tabulate_kernels)

    i = sub.add_parser("tabulate-increment-law",
                       help="tabulate the exact increment CDFs to CSV")
    i.add_argument("--p", type=int, default=2)
    i.add_argument("--sigma", type=float, required=True)
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--u-min", type=float, default=-6.0)
    i.add_argument("--u-max", type=float, default=6.0)
    i.add_argument("--points", type=int, default=241)
    i.add_argument("--out", default=None)
    i.set_defaults(fn=_cmd_tabulate_increment_law)

    s = sub.add_parser("simulate", help="simulate paths to CSV")
    s.add_argument("--model", choices=["max2bm", "br"], required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sigma", type=float, default=None, help="constant H (default 1)")
    s.add_argument("--h-spec", default=None, help="CSV of (s, H_s) knots")
    s.add_argument("--epsilon", type=float, default=1e-3)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_simulate)

    pv = sub.add_parser("powervar", help="power variation of simulated paths")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--t", type=float, default=1.0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=_cmd_powervar)

    eh = sub.add_parser("estimate-h", help="localized volatility estimate")
    eh.add_argument("--in", dest="infile", required=True)
    eh.add_argument("--p", type=int, required=True)
    eh.add_argument("--window", type=int, required=True)
    eh.add_argument("--out", default=None)
    eh.set_defaults(fn=_cmd_estimate_h)

    v = sub.add_parser("verify", help="run a verification experiment")
    v.add_argument("--experiment", choices=list(mc_harness.EXPERIMENTS), default=None)
    v.add_argument("--config", default=None, help="JSON file mirroring ExperimentConfig")
    for f in _VERIFY_FIELDS:
        # sigma, the one field that defaults to None, takes a float
        v.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=float if f.default is None else type(f.default), default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, TypeError, FileNotFoundError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, TruncationError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
