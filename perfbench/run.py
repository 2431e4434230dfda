"""fstheta benchmark: three workloads, end-to-end metrics with tracing off and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py [--workload study-c1|sweep-L4|varstep-L6|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--reduced]

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the benchmark exits nonzero without a result when
that is missing.  One workload runs in this process: set-up is measured in
fresh interpreters, then one warm-up pass, then timed passes until
``--seconds`` have gone (at least one).  With tracing off every pass runs
under a ``Pacer`` and is reported at reference speed as ``run_ref_s``; its
wall time ``run_s`` is printed too.  Every pass goes through the
correctness gate; a failed gate makes the exit code nonzero.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--workload all``
runs each workload in a child process of its own and summarises.
"""

import os

# one thread per BLAS/OpenMP pool; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from pacer import Pacer, calibration_slice  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="reduced sizes for the self-test: levels 3:4, a 2-run "
                        "sweep, varstep at level 3")
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "fstheta").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16],
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")}}


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100.0 * (n - 10) / n), sorted(samples)[n - 11]


def describe(name, samples, unit, what):
    med = statistics.median(samples)
    t = tail(samples)
    extra = (f"p{t[0]} {t[1]:.4g} {unit}" if t else
             "no percentile has ten samples beyond it")
    return f"{name:<17} median {med:.4g} {unit}  ({extra}; n={len(samples)} {what})"


def measure_setup(name: str, seed: int, reduced: bool, count: int) -> list[float]:
    """Set-up time in ``count`` fresh interpreters, one sample each."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), name,
           str(seed), "1" if reduced else "0"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def timed_passes(workload, seconds: float, trace: bool):
    """Timed passes until ``seconds`` have gone.  Without ``trace`` each
    pass runs under a ``Pacer`` and is also timed at reference speed; with
    ``trace`` each cycle is one untraced and one traced pass, both without
    the pacer, whose slices would land in the spans.  Every pass goes
    through the gate."""
    from tracing import Tracer
    run_s, ref_s, traced_s, layers, failures = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            tracer = Tracer() if traced else None
            pacer = None if trace else Pacer()
            with tracer or pacer or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = workload.execute()
                elapsed = time.perf_counter() - t0
            n_failed, messages = workload.check(out)
            attempted += workload.runs_per_pass
            failed += n_failed
            failures += messages
            (traced_s if traced else run_s).append(elapsed)
            if traced:
                layers.append(tracer.metrics())
            if pacer is not None:
                ref_s.append(pacer.reference_time(elapsed))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return run_s, ref_s, traced_s, layers, attempted, failed, failures


def layer_summary(layers: list[dict]) -> dict:
    """Median over traced passes of each per-layer metric."""
    return {k: statistics.median(d[k] for d in layers) for k in layers[0]}


def run_workload(args) -> int:
    from tracing import UNITS
    from workloads import WORKLOADS

    env = environment()
    declared = declared_metrics(args.trace)
    print(f"# fstheta benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', reduced' if args.reduced else ''}")
    # half the set-up probes before the passes and half after, so that they
    # sample the machine at both ends of the run
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = measure_setup(args.workload, args.seed, args.reduced, probes)
    workload = WORKLOADS[args.workload](args.seed, reduced=args.reduced)
    workload.warmup()
    # warm the calibration kernel too, so the first paced pass's slices
    # are no slower than the rest
    for _ in range(10):
        calibration_slice()
    run_s, run_ref_s, traced_s, layers, attempted, failed, failures = timed_passes(
        workload, args.seconds, bool(args.trace))
    setup += measure_setup(args.workload, args.seed, args.reduced, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for msg in failures:
        print(f"GATE FAIL: {msg}", file=sys.stderr)
    print(describe("run_s", run_s, "s", "passes, tracing off"))
    if args.trace:
        overhead = statistics.median(traced_s) - statistics.median(run_s)
        print(describe("traced run_s", traced_s, "s", "passes, tracing on"))
        values = {**layer_summary(layers), "trace.overhead_s": overhead}
        if "solver.iters.substep" not in values:
            print("solver iteration counts absent: solve_spd rejected the "
                  "counting stand-in")
        for name, value in values.items():
            print(f"{name:<26} {value:.6g} {UNITS[name]}")
    else:
        print(describe("run_ref_s", run_ref_s, "s", "passes at reference speed"))
        values = {"run_ref_s": statistics.median(run_ref_s)}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = peak_rss_mb
        print(describe("setup_s", setup, "s", "fresh interpreters"))
        print(f"{'peak_rss_mb':<17} {peak_rss_mb:.1f} MB")
    print(f"{'failed_runs_frac':<17} {failed / attempted:.4g}  "
          f"({failed} of {attempted} runs failed)")
    print("# detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reduced": args.reduced, "env": env, "run_s": run_s, "run_ref_s": run_ref_s,
        "traced_run_s": traced_s, "setup_s": setup,
        "failed_runs_frac": failed / attempted, "failures": failures}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items() if name in values}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a child process of its own, so that peak memory is
    per workload; then one summary line per workload."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--reduced"] if args.reduced else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="")
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"workload {name} printed no result (exit code {done.returncode})")
    print("\n# summary")
    for name, res in results.items():
        cells = [f"{m} {v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()]
        cells.append(f"failed_runs_frac {res['failed'] / res['attempted']:.4g}")
        print(f"{name:<11} " + ", ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    if not (SRC / "fstheta" / "__init__.py").is_file():
        sys.exit(f"no fstheta package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fstheta
    if Path(fstheta.__file__).resolve().parent != SRC / "fstheta":
        sys.exit(f"imported fstheta from {fstheta.__file__}, not from {SRC}")
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
