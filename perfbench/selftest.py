"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at reduced size (levels 3:4, a 2-run sweep, varstep at
level 3) with tracing off and on, and checks the last line of output against
BENCHMARK.json.  Then checks that the correctness gate of each workload
rejects a perturbed output, that the pacer refers a pass of calibration
slices to their reference time, that the hand-derived varstep forcing
matches its exact solution, and that the benchmark refuses to run, printing
no result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits nonzero on any failure.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402,F401  (pins the BLAS/OpenMP pools like a benchmark run)
import fstheta as fs  # noqa: E402
from pacer import REF_SLICE_S, Pacer, calibration_slice  # noqa: E402
from tracing import UNITS  # noqa: E402
from workloads import (WORK_DIR, StudyC1, SweepL4, VarstepL6,  # noqa: E402
                       varstep_case)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def check_schema(workload: str, trace: int) -> list[str]:
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--reduced")
    where = f"{workload} trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: gate failed: {done.stderr}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted {result['attempted']!r}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        errors.append(f"{where}: metrics {got} differ from {declared}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        errors.append(f"{where}: non-numeric metric value")
    return errors


def check_gates() -> list[str]:
    errors = []
    study = StudyC1(0, reduced=True)
    out = study.execute()
    table = out["out"] / "case1_errors.csv"
    table.write_text(table.read_text().replace("e-", "e+", 1))
    if study.check(out)[0] == 0:
        errors.append("study-c1 gate accepted an altered table")

    sweep = SweepL4(0, reduced=True)
    results = sweep.execute()
    results[0][1].max_nodal_l2_error *= 1.0 + 1e-6
    if sweep.check(results)[0] != 1:
        errors.append("sweep-L4 gate accepted a perturbed error")

    varstep = VarstepL6(0, reduced=True)
    out = varstep.execute()
    out["final"]["bound_three"] = 0.5 * out["max_err"]
    if varstep.check(out)[0] != 1:
        errors.append("varstep-L6 gate accepted a bound below the error")

    defect = fs.verify_forcing(varstep_case())
    if not defect <= 1e-6:
        errors.append(f"varstep forcing defect {defect:.3e}")
    return errors


def check_pacer() -> list[str]:
    """A pass made of n calibration slices reads about n reference slice
    times at reference speed, whatever the machine's speed."""
    n = 0
    with Pacer() as pacer:
        start = time.perf_counter()
        while time.perf_counter() - start < 2.0:
            calibration_slice()
            n += 1
        wall = time.perf_counter() - start
    if len(pacer.slices) < 5:
        return [f"pacer ran {len(pacer.slices)} slices in {wall:.2f} s"]
    ratio = pacer.reference_time(wall) / (n * REF_SLICE_S)
    if not 0.75 < ratio < 1.33:
        return [f"pacer: {n} slices read {ratio:.3f} of their reference time"]
    return []


def check_bare_directory() -> list[str]:
    bare = WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit code {done.returncode}, "
                f"stdout {done.stdout!r}"]
    return []


def main() -> int:
    errors = []
    declared_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    errors += [f"unit of {name}: {unit} in BENCHMARK.json, {UNITS.get(name)} "
               f"in tracing.py" for name, unit in declared_units.items()
               if UNITS.get(name) != unit]
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_schema(workload["name"], trace)
    errors += check_gates()
    errors += check_pacer()
    errors += check_bare_directory()
    for msg in errors:
        print(f"FAIL: {msg}")
    print("selftest", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
