"""Manufactured-solution convergence studies and table emission.

A study runs the solver and both estimator variants on nested meshes with
k equal to the grid spacing, computes the discrete error metrics and the
experimental orders of convergence, and renders the four summary tables
(errors, reconstruction, time and space estimators) as CSV or markdown.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .estimators import (REPORT_COLUMNS, ConstantsConfig, EstimatorAccumulator,
                         EstimatorEngine, EstimatorReport, elliptic_estimator)
from .fem import P1Space, ScalarField
from .mesh import build_uniform_mesh, check_level
from .scheme import (THETA_DEFAULT, SchemeParams, ThetaScheme, make_uniform_grid)

VARIANTS = ("two", "three", "both")


@dataclass(frozen=True)
class CaseSpec:
    """A manufactured problem: exact solution, its gradient, the forcing
    obtained by substituting the solution into the heat equation, and the
    initial datum (zero for all built-in cases)."""

    case_id: int
    exact_u: ScalarField
    exact_grad_u: tuple[ScalarField, ScalarField]
    forcing_f: ScalarField
    u0: ScalarField


def _separable_case(case_id: int, time_factor, time_factor_dt, freq: float) -> CaseSpec:
    a = freq

    def sin_a(s):
        return np.sin(a * s)

    def cos_a(s):
        return np.cos(a * s)

    def grad_factor(t):
        return a * time_factor(t)

    def forcing_factor(t):
        return time_factor_dt(t) + 2.0 * a * a * time_factor(t)

    def separable(name, c, X, Y):
        return ScalarField(name, lambda x, y, t: (c(t) * X(x)) * Y(y))

    return CaseSpec(
        case_id=case_id,
        exact_u=separable("u", time_factor, sin_a, sin_a),
        exact_grad_u=(separable("du/dx", grad_factor, cos_a, sin_a),
                      separable("du/dy", grad_factor, sin_a, cos_a)),
        forcing_f=separable("f", forcing_factor, sin_a, sin_a),
        u0=separable("u0", lambda t: time_factor(0.0), sin_a, sin_a),
    )


def make_case(case_id: int) -> CaseSpec:
    """Built-in manufactured cases: (1) smooth, (2) fast in time,
    (3) fast in space."""
    pi = np.pi
    if case_id == 1:
        return _separable_case(1, lambda t: np.sin(pi * t),
                               lambda t: pi * np.cos(pi * t), pi)
    if case_id == 2:
        return _separable_case(2, lambda t: np.sin(15.0 * pi * t),
                               lambda t: 15.0 * pi * np.cos(15.0 * pi * t), pi)
    if case_id == 3:
        return _separable_case(3, lambda t: np.sin(0.5 * pi * t),
                               lambda t: 0.5 * pi * np.cos(0.5 * pi * t),
                               10.0 * pi)
    raise ValueError(f"unknown case id {case_id!r}; expected 1, 2 or 3")


def verify_forcing(case: CaseSpec, n_points: int = 24, seed: int = 7,
                   step: float = 1e-5) -> float:
    """Spot-check f = u_t - Laplace(u) by central finite differences at
    random interior points; returns the worst defect relative to the
    sampled forcing scale."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.1, 0.9, size=(n_points, 3))
    u, f = case.exact_u, case.forcing_f
    h = step
    worst = 0.0
    scale = 1e-300
    for x, y, t in pts:
        ut = (u(x, y, t + h) - u(x, y, t - h)) / (2.0 * h)
        lap = ((u(x + h, y, t) - 2.0 * u(x, y, t) + u(x - h, y, t))
               + (u(x, y + h, t) - 2.0 * u(x, y, t) + u(x, y - h, t))) / (h * h)
        fv = float(f(x, y, t))
        worst = max(worst, abs(ut - lap - fv))
        scale = max(scale, abs(fv))
    return worst / scale


def eoc(values, meshsizes) -> list[float]:
    """Experimental orders of convergence of successive (value, h) pairs:
    log(E(i+1)/E(i)) / log(h(i+1)/h(i))."""
    v = np.asarray(values, dtype=float)
    h = np.asarray(meshsizes, dtype=float)
    if v.ndim != 1 or v.shape != h.shape or v.size < 2:
        raise ValueError("need equally long sequences of at least two entries")
    if np.any(v <= 0.0) or np.any(h <= 0.0):
        raise ValueError("eoc requires positive values and mesh sizes")
    return list(np.log(v[1:] / v[:-1]) / np.log(h[1:] / h[:-1]))


@dataclass
class RunReport:
    """Everything one (case, level) run produces."""

    case_id: int
    level: int
    h_cell: float
    k: float
    n_steps: int
    max_nodal_l2_error: float
    e_total: float
    report: EstimatorReport
    effectivity_two: float
    effectivity_three: float
    bound_two: float
    bound_three: float
    max_compact_residual: float


def run_single(case: CaseSpec, level: int, *, theta: float = THETA_DEFAULT,
               alpha1: float | None = None, alpha2: float | None = None,
               consts: ConstantsConfig | None = None) -> RunReport:
    """Run one level on [0, 1] with k = 2^-level (so k equals the grid
    spacing) and accumulate both estimator variants alongside the error
    metrics.

    The records come in the batches of ``iter_batches``, and the engine
    takes each batch at once, so that their reconstruction Laplacians are
    one list of mass solves.  From ``OVERLAP_MIN_DOFS`` dofs on, every
    batch is one step and ``iter_steps`` solves the substeps of step n+1 on
    its worker thread while this loop evaluates step n; the report is the
    same bit for bit either way.

    A step whose report row, L2 or H1 error or compact residual is not
    finite raises ``FloatingPointError`` "step n, <column>: ..." there.
    """
    consts = consts or ConstantsConfig()
    mesh = build_uniform_mesh(level)
    space = P1Space(mesh)
    steps = 2 ** level
    params = SchemeParams(make_uniform_grid(steps, 1.0),
                          theta=theta, alpha1=alpha1, alpha2=alpha2)
    scheme = ThetaScheme(space, params, case.forcing_f)
    engine = EstimatorEngine(space, params, case.forcing_f, consts)

    U0 = scheme.initial_state(case.u0)
    max_err = space.field_error_l2(case.exact_u, params.time(0), U0)
    _check_finite(0, (("L2 error", max_err),))
    sum_k_grad2 = 0.0
    max_compact = 0.0
    prev = None
    for batch in scheme.iter_batches(U0):
        estimates = engine.iter_estimates(batch, prev)
        for rec in batch:
            if rec.n == 1:
                # step 1 carries the discrete Laplacian at t^0
                eta0 = elliptic_estimator(space, U0, consts, lap=rec.lap_prev)
                rho0 = space.field_error_l2(case.u0, params.time(0), U0) + eta0
                acc = EstimatorAccumulator(params, initial_elliptic=eta0,
                                           rho0=rho0)
            se = next(estimates)
            acc.add(se)
            err = space.field_error_l2(case.exact_u, rec.t_new, rec.U_new)
            grad_err = space.field_error_h1(case.exact_grad_u, rec.t_new,
                                            rec.U_new)
            _check_finite(rec.n, (*zip(REPORT_COLUMNS, acc.rows[-1]),
                                  ("L2 error", err), ("H1 error", grad_err),
                                  ("compact residual", se.compact_residual)))
            max_compact = max(max_compact, se.compact_residual)
            max_err = max(max_err, err)
            sum_k_grad2 += rec.k * grad_err ** 2
            prev = rec

    report = acc.report()
    e_total = math.sqrt(max_err ** 2 + sum_k_grad2)
    per_variant = {}
    for v in ("two", "three"):
        per_variant[f"effectivity_{v}"] = (report.final(f"total_{v}") / max_err
                                           if max_err > 0.0 else float("nan"))
        per_variant[f"bound_{v}"] = report.final(f"bound_{v}")
    return RunReport(
        case_id=case.case_id, level=level,
        h_cell=2.0 ** (-level),
        k=params.step_size(1), n_steps=steps,
        max_nodal_l2_error=max_err, e_total=e_total,
        report=report, **per_variant,
        max_compact_residual=max_compact,
    )


def _check_finite(n: int, named_values) -> None:
    """Raise FloatingPointError naming step n and its first non-finite value."""
    for name, value in named_values:
        if not math.isfinite(value):
            raise FloatingPointError(f"step {n}, {name}: {value!r} is not finite")


@dataclass
class StudyResult:
    case_id: int
    reports: list[RunReport]

    def mesh_sizes(self) -> list[float]:
        return [r.h_cell for r in self.reports]

    def errors(self) -> list[float]:
        return [r.max_nodal_l2_error for r in self.reports]


def run_study(case_id, levels, *, theta: float = THETA_DEFAULT,
              alpha1: float | None = None, alpha2: float | None = None,
              consts: ConstantsConfig | None = None,
              out_dir=None, fmt: str = "csv", variant: str = "both") -> StudyResult:
    """Run a sweep of levels for one case.

    The completed levels' tables and per-step CSVs are written to
    ``out_dir`` (when given) also when the study stops partway, by an error
    or an interrupt, before the exception propagates.  An empty level list,
    or one with a level that ``Mesh`` rejects, raises ``ConfigurationError``
    before any level runs, and so does a ``fmt`` or ``variant`` that
    ``emit`` rejects.
    """
    levels = list(levels)
    if not levels:
        raise ConfigurationError("a study needs at least one level")
    for level in levels:
        check_level(level)
    _check_tables(fmt, variant)
    case = case_id if isinstance(case_id, CaseSpec) else make_case(case_id)
    reports: list[RunReport] = []
    try:
        for level in levels:
            reports.append(run_single(
                case, level, theta=theta, alpha1=alpha1, alpha2=alpha2,
                consts=consts))
    finally:
        if out_dir is not None and reports:
            emit(reports, fmt=fmt, out_dir=out_dir, variant=variant)
            for rep in reports:
                rep.report.write_csv(Path(out_dir) / f"case{rep.case_id}_"
                                     f"level{rep.level}_estimators.csv")
    return StudyResult(case.case_id, reports)


# ---------------------------------------------------------------------------
# table rendering


def _fmt_value(v: float) -> str:
    return f"{v:.4e}"


def _fmt_eoc(v) -> str:
    return "" if v is None else f"{v:.2f}"


def _with_eoc(values, hs) -> list[tuple[str, str]]:
    orders = [None] + (eoc(values, hs) if len(values) >= 2 and
                       all(v > 0 for v in values) else [None] * (len(values) - 1))
    return [(_fmt_value(v), _fmt_eoc(o)) for v, o in zip(values, orders)]


def _shows(variant: str, owner: str) -> bool:
    """Whether ``variant``'s tables show the columns ``owner`` owns."""
    return owner == "always" or variant in (owner, "both")


def _table_errors(reports, variant):
    shown = [v for v in ("two", "three") if _shows(variant, v)]
    header = ["h=k", "max_error", "EOC", "e_total", "EOC",
              *(c for v in shown for c in (f"total_{v}", f"EI_{v}"))]
    hs = [r.h_cell for r in reports]
    err = _with_eoc([r.max_nodal_l2_error for r in reports], hs) if reports else []
    tot = _with_eoc([r.e_total for r in reports], hs) if reports else []
    rows = []
    for i, r in enumerate(reports):
        row = [_fmt_value(r.h_cell), *err[i], *tot[i]]
        for v in shown:
            row += [_fmt_value(r.report.final(f"total_{v}")),
                    f"{getattr(r, f'effectivity_{v}'):.2f}"]
        rows.append(row)
    return header, rows


def _estimator_table(reports, variant, layout):
    """Table of estimator columns, each followed by its EOC column.

    ``layout`` holds (report column, owning variant) pairs in column order;
    ``_shows`` picks the columns of ``variant``.
    """
    cols = [c for c, owner in layout if _shows(variant, owner)]
    header = ["h=k"]
    for col in cols:
        header += [col, "EOC"]
    hs = [r.h_cell for r in reports]
    pairs = {col: (_with_eoc([r.report.final(col) for r in reports], hs)
                   if reports else []) for col in cols}
    rows = []
    for i, r in enumerate(reports):
        row = [_fmt_value(r.h_cell)]
        for col in cols:
            row += list(pairs[col][i])
        rows.append(row)
    return header, rows


# each table by file name: the errors table (None), or the layout of an
# estimator table for ``_estimator_table``
_TABLES = {
    "errors": None,
    "reconstruction_estimators": (
        ("E_ell", "always"), ("E_rec_two", "two"), ("E_rec_three", "three")),
    "time_estimators": (
        ("E_T1_two", "two"), ("E_T1_three", "three"),
        ("E_T2", "always"), ("E_T3", "three")),
    "space_estimators": (
        ("E_S1_two", "two"), ("E_S1_three", "three"), ("E_S2", "always")),
}


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_markdown(path: Path, title: str, header, rows):
    lines = [f"### {title}", "", "| " + " | ".join(header) + " |",
             "|" + "|".join(["---"] * len(header)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    path.write_text("\n".join(lines) + "\n")


def _check_tables(fmt: str, variant: str) -> None:
    if fmt not in ("csv", "md"):
        raise ConfigurationError(f"format must be csv or md, got {fmt!r}")
    if variant not in VARIANTS:
        raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")


def emit(reports: list[RunReport], fmt: str = "csv", out_dir="results",
         variant: str = "both") -> list[Path]:
    """Write the four summary tables; returns the written paths."""
    _check_tables(fmt, variant)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    case_id = reports[0].case_id if reports else 0
    written = []
    for name, layout in _TABLES.items():
        header, rows = (_table_errors(reports, variant) if layout is None
                        else _estimator_table(reports, variant, layout))
        path = out / f"case{case_id}_{name}.{fmt}"
        if fmt == "csv":
            _write_csv(path, header, rows)
        else:
            title = f"case {case_id}: {name.replace('_', ' ')}"
            _write_markdown(path, title, header, rows)
        written.append(path)
    return written
