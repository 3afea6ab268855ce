"""Command-line entry points for the verification suites."""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import intertwine, report
from .liealg import CartanError
from .params import ParameterRangeError
from .report import RunConfig, SUITES, config_from_sources, parse_config_file

_SUBCOMMANDS = {
    "verify-evalrep": ("liealg", "params", "trigcalc", "structfn", "evalrep"),
    "verify-boson": ("liealg", "params", "boson"),
    "verify-hopf": ("liealg", "params", "hopf"),
    "verify-intertwine": ("liealg", "params", "structfn", "intertwine"),
    "verify-all": SUITES,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--algebra", help="series and rank, e.g. A2 or D4")
    p.add_argument("--hbar", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--levels", help="comma-separated tower levels, e.g. 1,1,1")
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float,
                   help='tolerance of the "tol" families of report.TOLERANCES (default 1e-8)')
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--variant", choices=("printed", "normalized"),
                   help="what export-catalog writes; verify-* only echo it")
    p.add_argument("--pairs", help="boson exchange filter: all or E1:E2,H+1:F1,...")
    p.add_argument("--axioms", action="store_true",
                   help="restrict the coproduct suite to the axiom checks")
    p.add_argument("--homomorphism", action="store_true",
                   help="restrict the coproduct suite to the level-2 homomorphism")


def _collect(args: argparse.Namespace) -> RunConfig:
    file_vals = parse_config_file(args.config) if args.config else None
    if file_vals and "suites" in file_vals:
        raise ValueError(f"{args.config}: suites = {json.dumps(file_vals['suites'])}; a config "
                         f"file names no suites, the command does ({', '.join(_SUBCOMMANDS)})")
    hopf_parts = None
    if args.axioms or args.homomorphism:
        hopf_parts = tuple(
            name for flag, name in ((args.axioms, "axioms"),
                                    (args.homomorphism, "homomorphism")) if flag)
    overrides = {
        "algebra": args.algebra,
        "hbar": args.hbar,
        "eta": args.eta,
        "levels": [float(x) for x in args.levels.split(",")] if args.levels else None,
        "samples": args.samples,
        "tol": args.tol,
        "seed": args.seed,
        "out": args.out,
        "variant": args.variant,
        "pairs": args.pairs,
        "hopf_parts": hopf_parts,
    }
    return config_from_sources(file_vals, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="curalg",
        description="verification workbench for trigonometrically deformed "
                    "current algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("export-catalog",
                       help="dump the vertex-operator relation catalog as JSON")
    _add_common(p)

    args = parser.parse_args(argv)
    try:
        cfg = _collect(args)
        cfg.cartan()   # fail fast on bad algebra labels
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg.tower()  # and on towers leaving the parameter range
    except (CartanError, ParameterRangeError) as exc:
        sys.stderr.write(f"curalg: configuration error: {exc}\n")
        return 2
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"curalg: bad configuration: {exc}\n")
        return 2

    if args.command == "export-catalog":
        cat = intertwine.catalog(cfg.cartan().rank, cfg.tower())
        payload = {
            "algebra": cfg.algebra,
            "variant": cfg.variant,
            "records": intertwine.export_catalog(cat, cfg.cartan().rank, cfg.variant),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    cfg.suites = _SUBCOMMANDS[args.command]
    rep = report.run(cfg)
    sys.stdout.write(report.render_text(rep) + "\n")
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(report.report_json(rep))
    return 0 if rep["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
