"""Command-line entry point for convergence studies.

All configuration is flags-only so runs are reproducible from the command
line alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigurationError
from .estimators import ConstantsConfig
from .scheme import THETA_DEFAULT
from .study import VARIANTS, eoc, run_study

_CONST_NAMES = tuple(f.name for f in fields(ConstantsConfig))


def _parse_levels(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must look like 'A:B' or 'L', got {text!r}") from None


def _parse_const(text: str) -> tuple[str, float]:
    try:
        name, value = text.split("=")
        if name not in _CONST_NAMES:
            raise ValueError
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--const expects NAME=VALUE with NAME in {_CONST_NAMES}, "
            f"got {text!r}") from None


def _parse_theta(text: str) -> float:
    if text == "auto":
        return THETA_DEFAULT
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--theta expects 'auto' or a number, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fstheta",
        description="Heat-equation convergence studies with a posteriori "
                    "error estimators.")
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--levels", type=_parse_levels, default="3:5",
                   help="refinement range A:B (inclusive) or a single level")
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--alpha2", type=float, default=None)
    p.add_argument("--theta", type=_parse_theta, default="auto")
    p.add_argument("--const", type=_parse_const, action="append", default=[],
                   metavar="NAME=V", help="estimator constant override "
                   f"({', '.join(_CONST_NAMES)}); repeatable")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--variant", choices=VARIANTS, default="both")
    p.add_argument("--check", action="store_true",
                   help="assert convergence orders and reliability; "
                        "nonzero exit code on failure")
    return p


def _run_checks(result, case: int) -> list[str]:
    failures = []
    for rep in result.reports:
        for v in ("two", "three"):
            bound = getattr(rep, f"bound_{v}")
            if bound < rep.max_nodal_l2_error:
                failures.append(f"level {rep.level}: {v}-level bound "
                                f"{bound:.4e} below error "
                                f"{rep.max_nodal_l2_error:.4e}")
        if rep.report.final("E_C") != 0.0:
            failures.append(f"level {rep.level}: coarsening estimator "
                            f"nonzero on a fixed mesh")
        t1_two = rep.report.final("E_T1_two")
        t1_three = rep.report.final("E_T1_three")
        if rep.level >= 3 and t1_three >= t1_two:
            failures.append(f"level {rep.level}: three-level time estimator "
                            f"{t1_three:.4e} not below two-level {t1_two:.4e}")
    if case == 1 and len(result.reports) >= 2:
        for lvl, order in zip([r.level for r in result.reports][1:],
                              eoc(result.errors(), result.mesh_sizes())):
            if abs(order - 2.0) > 0.15:
                failures.append(f"error EOC {order:.2f} at level {lvl} "
                                f"outside 2.0 +- 0.15")
    return failures


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = run_study(
            args.case, args.levels,
            theta=args.theta, alpha1=args.alpha1, alpha2=args.alpha2,
            consts=ConstantsConfig(**dict(args.const)),
            out_dir=args.out, fmt=args.format, variant=args.variant)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    print(f"case {args.case}: levels "
          f"{', '.join(str(r.level) for r in result.reports)} -> {args.out}/")

    if args.check:
        failures = _run_checks(result, args.case)
        for msg in failures:
            print(f"CHECK FAIL: {msg}", file=sys.stderr)
        if failures:
            return 1
        print("CHECK ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
