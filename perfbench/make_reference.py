"""Regenerate the correctness-gate references under ``reference/``.

    python3 perfbench/make_reference.py

Run it only at a commit whose output is meant to be the reference: the gate
then requires every later commit to reproduce these outputs (tables byte for
byte, numbers within 1e-9 relative).
"""

import json
import shutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402,F401  (pins the BLAS/OpenMP pools like a benchmark run)
from workloads import (DEFAULT_SEED, REFERENCE_DIR, StudyC1,  # noqa: E402
                       SweepL4, VarstepL6)


def main() -> int:
    study = StudyC1(DEFAULT_SEED)
    result = study.execute()
    if result["code"] != 0:
        sys.exit(f"study-c1 failed: {result['code']!r}\n{result['stderr']}")
    shutil.rmtree(study.reference, ignore_errors=True)
    shutil.copytree(result["out"], study.reference)
    shutil.rmtree(result["out"])

    sweep = SweepL4(DEFAULT_SEED)
    runs = []
    for (case, alpha1, theta), rep in sorted(sweep.execute(),
                                             key=lambda r: str(r[0])):
        if isinstance(rep, Exception):
            sys.exit(f"sweep-L4 run failed: {rep}")
        runs.append({"case": case, "alpha1": alpha1, "theta": theta,
                     **SweepL4.outputs(rep)})
    (REFERENCE_DIR / f"{sweep.name}.json").write_text(
        json.dumps({"level": SweepL4.LEVEL, "runs": runs}, indent=1) + "\n")

    varstep = VarstepL6(DEFAULT_SEED)
    out = varstep.execute()
    if isinstance(out, Exception):
        sys.exit(f"varstep-L6 failed: {out}")
    values = {**out["final"], "max_err": out["max_err"], "e_total": out["e_total"]}
    (REFERENCE_DIR / f"{varstep.name}.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "level": varstep.level, "values": values},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
