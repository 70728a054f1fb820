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
import dataclasses
import json
import math
import os
import sys

from ellsel.core import NomePair, PoleError, elliptic_gamma, theta
from ellsel.densities import InfeasibleError, ParamSet
from ellsel.harness import (
    FAMILIES,
    FAMILY_TABLE,
    SUITES,
    HarnessConfig,
    case_at,
    evaluate_case,
    reports_to_csv,
    reports_to_json,
    run_case,
    run_suite,
    sample_case,
)
from ellsel.partitions import parse_bipartition
from ellsel.quadrature import BudgetError, GridSpec, convergence_csv, convergence_table

TOL_HELP = (
    "override tol_1d, the tolerance of beta_k1, selberg_A1 at k=1 and one-variable "
    "an_selberg; other one-variable families keep their fixed tolerances"
)
PARAMS_HELP = (
    "JSON ParamSet file, for "
    + ", ".join(name for name, family in FAMILY_TABLE.items() if family.at)
    + "; its n and k size the case"
)

# The name=value keys each `eval --fn` reads.
EVAL_KEYS = {
    "gamma": ("z", "p", "q"),
    "theta": ("z", "p"),
    "binomial": ("lam", "mu", "a", "b", "p", "q", "t"),
    "interp": ("lam", "x", "a", "b", "p", "q", "t"),
}

# Smallest accepted value of each integer flag: a smaller one would run
# no case, an unusable grid or no worker.
FLAG_MINIMA = {"grid": 2, "seeds": 1, "levels": 1, "threads": 1}


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
    ver.add_argument("--threads", type=int, default=None, help="worker processes for verify")
    ver.add_argument("--out", default=None, help="report file (default stdout)")
    ver.add_argument(
        "--format", default=None, choices=("json", "csv"),
        help="report format (default: csv when --out ends in .csv, else json)",
    )
    ver.add_argument("--config", default=None, help="JSON config file")

    case = sub.add_parser("case", help="run one family case")
    case.add_argument("--family", required=True, choices=FAMILIES)
    case.add_argument("--params", default=None, help=PARAMS_HELP)
    case.add_argument("--shapes", default=None, help='bipartition pair "2,1|0;1|0"')
    case.add_argument("--seed", type=int, default=0)
    case.add_argument("--grid", type=int, default=None, help="override 1-d grid size")
    case.add_argument("--tol", type=float, default=None, help=TOL_HELP)

    ev = sub.add_parser("eval", help="evaluate a special function")
    ev.add_argument("--fn", required=True, choices=tuple(EVAL_KEYS))
    ev.add_argument("--args", nargs="+", required=True, help="name=value pairs, complex as re,im")

    conv = sub.add_parser("convergence", help="grid-doubling table for a family case")
    conv.add_argument("--family", required=True, choices=FAMILIES)
    conv.add_argument("--params", default=None, help=PARAMS_HELP)
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
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {tol}")


def _load_config(args) -> HarnessConfig:
    """The config file's config, or the default one, with the flags and
    ELLSEL_THREADS applied through HarnessConfig's own value checks."""
    cfg = HarnessConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = HarnessConfig.from_dict(json.load(fh))
    updates = {}
    if getattr(args, "grid", None) is not None:
        updates["grid_1d"] = args.grid
    if getattr(args, "tol", None) is not None:
        updates["tol_1d"] = args.tol
    threads = getattr(args, "threads", None)
    env_threads = os.environ.get("ELLSEL_THREADS")
    if threads is not None:
        updates["threads"] = threads
    elif env_threads is not None:
        try:
            updates["threads"] = int(env_threads)
        except ValueError:
            raise ValueError(f"ELLSEL_THREADS must be an integer, got {env_threads!r}") from None
        if updates["threads"] < 1:
            raise ValueError(f"ELLSEL_THREADS must be at least 1, got {env_threads}")
    return dataclasses.replace(cfg, **updates)


def _write(text: str, out: str | None) -> None:
    """text to the file out, or to stdout without one."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(reports, args) -> int:
    fmt = args.format or ("csv" if str(args.out or "").endswith(".csv") else "json")
    as_csv = fmt == "csv"
    text = reports_to_csv(reports) if as_csv else reports_to_json(reports)
    # a JSON report on stdout ends its line; in a file it does not
    _write(text if as_csv or args.out else text + "\n", args.out)
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


def _case(args, **options):
    """The family's case at --seed: its draw, or with --params the case
    the family builds at the file's parameter set."""
    cfg = _load_config(args)
    if not args.params:
        return sample_case(args.family, args.seed, cfg, **options)
    with open(args.params) as fh:
        params = ParamSet.from_json(fh.read())
    return case_at(args.family, args.seed, cfg, params, **options)


def _cmd_case(args) -> int:
    options = {}
    if args.shapes:
        option = FAMILY_TABLE[args.family].shapes_option
        if option is None:
            raise ValueError(f"family {args.family} takes no --shapes")
        parts = args.shapes.split(";")
        form = "lam;mu" if option == "shapes" else "mu"
        if len(parts) > len(form.split(";")):
            raise ValueError(f"family {args.family} takes --shapes {form}, got {args.shapes!r}")
        if option == "shapes":
            options["shapes"] = (
                parse_bipartition(parts[0]),
                parse_bipartition(parts[1] if len(parts) > 1 else "0|0"),
            )
        else:
            options["mu"] = parse_bipartition(parts[0])
    rep = run_case(_case(args, **options))
    print(reports_to_json([rep]))
    return 0 if rep.status == "pass" else 2


def _cmd_eval(args) -> int:
    kv = _kv_args(args.args)
    keys = EVAL_KEYS[args.fn]
    missing = [key for key in keys if key not in kv]
    if missing:
        needs = ", ".join(keys)
        raise ValueError(f"--fn {args.fn} is missing {', '.join(missing)}; it needs {needs}")
    num = {key: _parse_complex(kv[key]) for key in keys if key not in ("lam", "mu", "x")}
    if args.fn == "theta":
        print(theta(num["z"], num["p"]))
        return 0
    nomes = NomePair(num["p"], num["q"])
    if args.fn == "gamma":
        print(elliptic_gamma(num["z"], nomes))
        return 0
    from ellsel.binomials import binomial
    from ellsel.interpolation import interp_nonskew
    from ellsel.symbols import SymbolContext

    ctx = SymbolContext(nomes, num["t"])
    lam = parse_bipartition(kv["lam"])
    if args.fn == "binomial":
        print(binomial(lam, parse_bipartition(kv["mu"]), num["a"], num["b"], ctx))
    else:
        xs = tuple(_parse_complex(tok) for tok in kv["x"].split(";"))
        print(interp_nonskew(lam, xs, num["a"], num["b"], ctx))
    return 0


def _cmd_convergence(args) -> int:
    case = _case(args)
    # Rows tabulate the family's main integral, as run_case integrates it;
    # for a density family that is the torus part plus its residue terms.
    try:
        integrand = evaluate_case(case).integrand
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    if integrand is None:
        print(f"family {case.family} has no main integral to tabulate", file=sys.stderr)
        return 3
    if case.contour.residues:
        print(f"contour: {case.contour.describe()}", file=sys.stderr)
    start = GridSpec(tuple(max(8, n // 8) for n in case.grid.dims))
    rows = convergence_table(integrand, start, levels=args.levels)
    _write(convergence_csv(rows), args.out)
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
    except (KeyError, ValueError, OSError, BudgetError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
