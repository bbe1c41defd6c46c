"""Command-line front end.

Subcommands:
  sweep     run a configured parameter sweep, CSV to stdout or --out
  spectrum  print the eigenvalue profile of an aperture
  plotdata  split a sweep CSV into per-(metric, axis) data files
"""
from __future__ import annotations

import argparse
import os
import sys

from . import spectral as spc
from . import sweep as sw


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capa-secrecy")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("sweep", help="Run a parameter sweep from a JSON config.")
    s.add_argument("--config", required=True, help="Path to the JSON sweep config")
    s.add_argument("--out", default=None, help="CSV output path (default stdout)")
    s.add_argument("--trials", type=int, default=None,
                   help="Override Monte Carlo trial count")
    s.add_argument("--seed", type=int, default=None, help="Override root seed")
    s.add_argument("--evaluator", action="append", default=None,
                   help="Override evaluator list (repeatable)")
    s.add_argument("--timing", action="store_true",
                   help="Record wall_ms per row (breaks byte determinism)")

    sp = sub.add_parser("spectrum", help="Print the aperture eigenvalue profile.")
    sp.add_argument("--lambda", dest="wavelength_m", type=float, required=True,
                    help="Wavelength in meters")
    sp.add_argument("--length", dest="aperture_len_m", type=float, required=True,
                    help="Aperture length in meters")
    sp.add_argument("--t", dest="t", type=int, default=None,
                    help="Quadrature order (default 2 dof + 32, where the "
                         "spectrum has converged)")

    pd = sub.add_parser("plotdata", help="Split a sweep CSV into plot files.")
    pd.add_argument("csv", help="Sweep CSV produced by `sweep`")
    pd.add_argument("--outdir", required=True, help="Directory for the data files")
    return p


def _cmd_sweep(args) -> int:
    try:
        cfg = sw.load_config(args.config)
        if args.trials is not None:
            cfg.n_trials = args.trials
        if args.seed is not None:
            cfg.seed = args.seed
        if args.evaluator:
            cfg.evaluators = args.evaluator
        if args.timing:
            cfg.timing = True
        cfg.validate()
    except sw.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cache_dir = os.environ.get("CAPA_CACHE_DIR")
    if cache_dir:
        try:  # a regular file there would fail every grid point
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            print(f"sweep error: CAPA_CACHE_DIR: cannot use {cache_dir} as a "
                  f"directory: {exc.strerror}", file=sys.stderr)
            return 2
    if not args.out:
        return sw.run_sweep(cfg, sys.stdout, cache_dir=cache_dir)
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"sweep error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with fh:
        return sw.run_sweep(cfg, fh, cache_dir=cache_dir)


def _cmd_spectrum(args) -> int:
    try:
        spec = spc.decompose(
            spc.ApertureGeometry(args.wavelength_m, args.aperture_len_m), args.t)
    except spc.DomainError as exc:
        print(f"spectrum error: {exc}", file=sys.stderr)
        return 2
    t = args.t if args.t is not None else spc.nystrom_order(spec)
    print(f"dof={spec.dof} t={t} trace_residual={spec.trace_residual:.3e} "
          f"sigma_min={spec.sigma_min:.6e}")
    for eps in (0.9, 0.5, 0.1):
        print(f"landau_count(eps={eps}) = {spc.landau_count(spec, eps)}   "
              f"prediction = {spc.landau_prediction(spec, eps):.2f}")
    print("l,sigma_m,epsilon")
    for i, (s, e) in enumerate(zip(spec.sigmas, spec.epsilons), start=1):
        print(f"{i},{s:.17g},{e:.17g}")
    return 0


def _cmd_plotdata(args) -> int:
    try:
        written = sw.emit_plotdata(args.csv, args.outdir)
    except sw.ConfigError as exc:
        print(f"plotdata error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path, file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "sweep":
        return _cmd_sweep(args)
    if args.cmd == "spectrum":
        return _cmd_spectrum(args)
    return _cmd_plotdata(args)


if __name__ == "__main__":
    sys.exit(main())
