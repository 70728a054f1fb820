"""Command-line interface.

Subcommands:
  verify       run a named suite of identity families over seeded draws
  case         run a single family case from a parameter file
  eval         evaluate one special function at given arguments
  convergence  emit a grid-doubling table for a family case
  list         print the family registry

Exit codes: 0 all executed cases pass, 2 any failure, 3 configuration
or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ellsel.core import NomePair, elliptic_gamma, theta
from ellsel.densities import InfeasibleError, ParamSet
from ellsel.harness import (
    FAMILIES,
    FAMILY_TABLE,
    SUITES,
    HarnessConfig,
    params_options,
    place_params,
    reports_to_csv,
    reports_to_json,
    run_case,
    run_suite,
    sample_case,
)
from ellsel.kernel import ContourError
from ellsel.partitions import parse_bipartition
from ellsel.quadrature import GridSpec, convergence_table, write_convergence_csv

TOL_HELP = (
    "override tol_1d, the tolerance of beta_k1, selberg_A1 at k=1 and one-variable "
    "an_selberg; other one-variable families keep their fixed tolerances"
)

# Smallest accepted value of each integer flag: a smaller one would run
# no case or an unusable grid.
FLAG_MINIMA = {"grid": 2, "seeds": 1, "levels": 1}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsel",
        description="Verify elliptic Selberg-type integral evaluations by torus quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a suite of seeded verification cases")
    ver.add_argument("--suite", default="algebraic", choices=sorted(SUITES))
    ver.add_argument("--seeds", type=int, default=5)
    ver.add_argument("--grid", type=int, default=None, help="override 1-d grid size")
    ver.add_argument("--tol", type=float, default=None, help=TOL_HELP)
    ver.add_argument("--threads", type=int, default=None)
    ver.add_argument("--out", default=None, help="report file (default stdout)")
    ver.add_argument("--format", default="json", choices=("json", "csv"))
    ver.add_argument("--config", default=None, help="JSON config file")

    case = sub.add_parser("case", help="run one family case")
    case.add_argument("--family", required=True, choices=FAMILIES)
    case.add_argument("--params", default=None, help="JSON parameter file (rank-n families)")
    case.add_argument("--shapes", default=None, help='bipartition pair "2,1|0;1|0"')
    case.add_argument("--seed", type=int, default=0)
    case.add_argument("--grid", type=int, default=None, help="override 1-d grid size")
    case.add_argument("--tol", type=float, default=None, help=TOL_HELP)

    ev = sub.add_parser("eval", help="evaluate a special function")
    ev.add_argument("--fn", required=True, choices=("gamma", "theta", "binomial", "interp"))
    ev.add_argument("--args", nargs="+", required=True, help="name=value pairs, complex as re,im")

    conv = sub.add_parser("convergence", help="grid-doubling table for a family case")
    conv.add_argument("--family", required=True, choices=FAMILIES)
    conv.add_argument("--params", default=None)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--levels", type=int, default=4)
    conv.add_argument("--out", default=None)

    sub.add_parser("list", help="print the family registry")
    return parser


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _kv_args(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected name=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key] = val
    return out


def _check_flags(args):
    """Reject numeric flags outside the values a run can use."""
    for name, low in FLAG_MINIMA.items():
        val = getattr(args, name, None)
        if val is not None and val < low:
            raise ValueError(f"--{name} must be at least {low}, got {val}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise ValueError(f"--tol must be positive, got {tol}")


def _load_config(args) -> HarnessConfig:
    cfg = HarnessConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = HarnessConfig.from_dict(json.load(fh))
    if getattr(args, "grid", None) is not None:
        cfg.grid_1d = args.grid
    if getattr(args, "tol", None) is not None:
        cfg.tol_1d = args.tol
    threads = getattr(args, "threads", None)
    env_threads = os.environ.get("ELLSEL_THREADS")
    if threads is not None:
        cfg.threads = threads
    elif env_threads is not None:
        cfg.threads = int(env_threads)
    return cfg


def _emit_reports(reports, args) -> int:
    as_csv = args.format == "csv" or str(args.out or "").endswith(".csv")
    text = reports_to_csv(reports) if as_csv else reports_to_json(reports)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        print(text, end="" if as_csv else "\n")
    counts = {}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    print(
        "summary: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        + f"; worst rel_err among passes: "
        + format(
            max((r.rel_err for r in reports if r.status == "pass"), default=0.0), ".3g"
        ),
        file=sys.stderr,
    )
    return 0 if all(r.status == "pass" for r in reports) else 2


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    reports = run_suite(args.suite, args.seeds, cfg)
    return _emit_reports(reports, args)


def _sampled_case(args, **options):
    """The family's case at --seed; with --params, moved to the file's
    parameter set on the contour that set needs."""
    cfg = _load_config(args)
    params = None
    if args.params:
        with open(args.params) as fh:
            params = ParamSet.from_json(fh.read())
        options.update(params_options(args.family, params))
    case = sample_case(args.family, args.seed, cfg, **options)
    if params:
        place_params(case, params)
    return case


def _cmd_case(args) -> int:
    options = {}
    if args.shapes:
        option = FAMILY_TABLE[args.family].shapes_option
        if option is None:
            raise ValueError(f"family {args.family} takes no --shapes")
        parts = args.shapes.split(";")
        if option == "shapes":
            options["shapes"] = (
                parse_bipartition(parts[0]),
                parse_bipartition(parts[1] if len(parts) > 1 else "0|0"),
            )
        else:
            options["mu"] = parse_bipartition(parts[0])
    rep = run_case(_sampled_case(args, **options))
    print(reports_to_json([rep]))
    return 0 if rep.status == "pass" else 2


def _cmd_eval(args) -> int:
    kv = _kv_args(args.args)
    if args.fn == "theta":
        z = _parse_complex(kv["z"])
        p = _parse_complex(kv["p"])
        print(theta(z, p))
        return 0
    if args.fn == "gamma":
        nomes = NomePair(_parse_complex(kv["p"]), _parse_complex(kv["q"]))
        print(elliptic_gamma(_parse_complex(kv["z"]), nomes))
        return 0
    from ellsel.binomials import BinomialQuery, binomial
    from ellsel.interpolation import interp_nonskew
    from ellsel.symbols import SymbolContext

    ctx = SymbolContext(
        NomePair(_parse_complex(kv["p"]), _parse_complex(kv["q"])),
        _parse_complex(kv["t"]),
    )
    if args.fn == "binomial":
        query = BinomialQuery(
            parse_bipartition(kv["lam"]),
            parse_bipartition(kv["mu"]),
            _parse_complex(kv["a"]),
            _parse_complex(kv["b"]),
            ctx,
        )
        print(binomial(query))
        return 0
    xs = tuple(_parse_complex(tok) for tok in kv["x"].split(";"))
    val = interp_nonskew(
        parse_bipartition(kv["lam"]), xs, _parse_complex(kv["a"]), _parse_complex(kv["b"]), ctx
    )
    print(val)
    return 0


def _cmd_convergence(args) -> int:
    case = _sampled_case(args)
    # Rows tabulate the family's main integral, as run_case integrates it;
    # for a density family that is the torus part plus its residue terms.
    reason = case.extra.get("infeasible")
    if reason is None:
        try:
            integrand = FAMILY_TABLE[case.family].evaluate(case).integrand
        except (ContourError, InfeasibleError) as exc:
            reason = str(exc)
    if reason is not None:
        print(f"infeasible: {reason}", file=sys.stderr)
        return 2
    if integrand is None:
        print(f"family {case.family} has no main integral to tabulate", file=sys.stderr)
        return 3
    if case.contour.residues:
        print(f"contour: {case.contour.describe()}", file=sys.stderr)
    start = GridSpec(tuple(max(8, n // 8) for n in case.grid.dims))
    rows = convergence_table(integrand, start, levels=args.levels)
    if args.out:
        write_convergence_csv(args.out, rows)
    else:
        for row in rows:
            print(row)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        _check_flags(args)
        if args.command == "list":
            for fam in FAMILIES:
                print(fam)
            return 0
        handler = {
            "verify": _cmd_verify,
            "case": _cmd_case,
            "eval": _cmd_eval,
            "convergence": _cmd_convergence,
        }[args.command]
        return handler(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
