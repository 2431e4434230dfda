"""Outside-in tracing of the fstheta layers.

``Tracer`` patches the package's public functions and methods from the
outside, records one span (name, start, end, parent) per call in memory, and
restores the originals on exit.  A layer's time is the sum of its spans' self
times: a span's duration minus the durations of its child spans.

Solves are also classified and counted.  A solve is "mass" when its matrix
is the ``mass`` of a live ``P1Space``, otherwise "substep".  Iterations are
counted by handing ``solve_spd`` a stand-in that counts matrix products;
each converged solve makes one extra product in debug builds to re-check its
residual, which is subtracted.  If the solver rejects the stand-in, the
solve is redone with the real matrix and iteration counts are reported as
absent from then on.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

import fstheta
from fstheta import EstimatorAccumulator, EstimatorEngine, EstimatorReport, P1Space
from fstheta import SolverError, ThetaScheme

# (span name, owner, attribute): owner is a class, or a function name that is
# patched in every fstheta module binding that function
FEM_NORMS = ("l2_norm", "h1_seminorm", "quad_norm", "weighted_quad_norm",
             "weighted_element_norm", "jump_norm", "eval_q4", "element_gradients")
TRACED = (
    [("mesh.build", "function", "build_uniform_mesh"),
     ("fem.eval_field", P1Space, "eval_field_q4"),
     ("fem.load", P1Space, "load_from_quad_values"),
     ("fem.error", P1Space, "field_error_l2"),
     ("fem.error", P1Space, "field_error_h1"),
     ("estimators.step", EstimatorEngine, "step_estimates"),
     ("estimators.accumulate", EstimatorAccumulator, "add"),
     ("estimators.write_csv", EstimatorReport, "write_csv"),
     ("study.emit", "function", "emit"),
     ("study.run", "function", "run_single")]
    + [("fem.norms", P1Space, name) for name in FEM_NORMS])

# per-layer metrics: name, unit, the span whose self time (or call count) it is
TIMES = (("mesh.build_s", "mesh.build"), ("fem.assemble_s", "fem.assemble"),
         ("fem.eval_field_s", "fem.eval_field"), ("fem.load_s", "fem.load"),
         ("fem.norms_s", "fem.norms"), ("fem.error_s", "fem.error"),
         ("solver.solve_s", "solver.solve"), ("scheme.step_self_s", "scheme.step"),
         ("estimators.step_self_s", "estimators.step"),
         ("estimators.accumulate_s", "estimators.accumulate"),
         ("estimators.write_csv_s", "estimators.write_csv"),
         ("study.emit_s", "study.emit"), ("study.run_self_s", "study.run"))
COUNTS = (("mesh.builds", "mesh.build"), ("fem.eval_field_calls", "fem.eval_field"),
          ("fem.norms_calls", "fem.norms"), ("scheme.steps", "scheme.step"))
UNITS = {**{metric: "s" for metric, _ in TIMES},
         **{metric: "count" for metric, _ in COUNTS},
         "solver.solves.substep": "count", "solver.solves.mass": "count",
         "solver.solves_per_step": "1/step", "solver.iters.substep": "iterations",
         "solver.iters.mass": "iterations", "solver.matvec_flops": "computed-flop",
         "solver.failures": "count", "trace.overhead_s": "s"}


class _CountingMatrix:
    """Stand-in for a sparse matrix that counts products with it."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.shape = matrix.shape
        self.products = 0

    def diagonal(self):
        return self._matrix.diagonal()

    def __matmul__(self, other):
        self.products += 1
        return self._matrix @ other


class Tracer:
    """Context manager: patch on enter, restore on exit, keep spans."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.solves: list[tuple] = []      # (kind, iterations or None, flops)
        self.solver_failures = 0
        self.count_iterations = True
        self._stack: list[int] = []
        self._spaces = weakref.WeakSet()
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- patches ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, replacement):
        """Rebind ``original`` in every fstheta module that imported it."""
        for modname, module in list(sys.modules.items()):
            if modname == "fstheta" or modname.startswith("fstheta."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def __enter__(self):
        for name, owner, attr in TRACED:
            if owner == "function":
                original = getattr(fstheta, attr)
                self._patch_function(original, self._wrap(name, original))
            else:
                self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._set(P1Space, "__init__", self._traced_space_init(P1Space.__init__))
        self._set(ThetaScheme, "iter_steps", self._traced_iter_steps(ThetaScheme.iter_steps))
        self._patch_function(fstheta.solve_spd, self._traced_solve(fstheta.solve_spd))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _traced_space_init(self, init):
        @functools.wraps(init)
        def wrapper(space, *args, **kwargs):
            idx = self._open("fem.assemble")
            try:
                init(space, *args, **kwargs)
            finally:
                self._close(idx)
            self._spaces.add(space)
        return wrapper

    def _traced_iter_steps(self, iter_steps):
        @functools.wraps(iter_steps)
        def wrapper(scheme, *args, **kwargs):
            steps = iter_steps(scheme, *args, **kwargs)
            while True:
                idx = self._open("scheme.step")
                try:
                    rec = next(steps)
                except StopIteration:
                    self.spans[idx][0] = "scheme.end"   # the closing next() is no step
                    return
                finally:
                    self._close(idx)
                yield rec
        return wrapper

    def _traced_solve(self, solve):
        @functools.wraps(solve)
        def wrapper(matrix, rhs, *args, **kwargs):
            kind = "mass" if any(matrix is s.mass for s in self._spaces) else "substep"
            idx = self._open("solver.solve")
            iterations = None
            try:
                if self.count_iterations:
                    counter = _CountingMatrix(matrix)
                    try:
                        x = solve(counter, rhs, *args, **kwargs)
                    except SolverError:
                        raise
                    except Exception:
                        x = solve(matrix, rhs, *args, **kwargs)
                        self.count_iterations = False
                    else:
                        recheck = 1 if __debug__ and counter.products else 0
                        iterations = counter.products - recheck
                else:
                    x = solve(matrix, rhs, *args, **kwargs)
            except SolverError:
                self.solver_failures += 1
                raise
            finally:
                self._close(idx)
            flops = None if iterations is None else \
                2 * matrix.nnz * counter.products
            self.solves.append((kind, iterations, flops))
            return x
        return wrapper

    # -- per-layer metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, calls = {}, {}
        for (name, start, end, _), inner in zip(self.spans, child):
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        out = {metric: self_time.get(span, 0.0) for metric, span in TIMES}
        out.update({metric: calls.get(span, 0) for metric, span in COUNTS})
        for kind in ("substep", "mass"):
            out[f"solver.solves.{kind}"] = sum(1 for s in self.solves if s[0] == kind)
        out["solver.solves_per_step"] = len(self.solves) / max(out["scheme.steps"], 1)
        if self.count_iterations:
            for kind in ("substep", "mass"):
                its = [s[1] for s in self.solves if s[0] == kind]
                out[f"solver.iters.{kind}"] = sum(its) / max(len(its), 1)
            out["solver.matvec_flops"] = sum(s[2] for s in self.solves)
        out["solver.failures"] = self.solver_failures
        return out
