"""Planted-defect self-test of the benchmark's output check.

Runs one real seed-0 repetition of ``sim-sweep`` and of ``fidelity-gate``,
then checks each against its recorded reference twice: as recorded (no
operation may fail) and with one planted defect (the error rate must
rise).  The planted defects are one perturbed exhibit cell, one
perturbed exact counter, one perturbed claim value, and one claim whose
verdict flipped to out-of-band.  A check that cannot fail is a defect.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

Exits 0 when every planted defect is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def perturb_cell(expected: dict, rep: dict) -> None:
    row = expected["fig7"]["rows"][0]
    row[1] = row[1] * (1 + 1e-9)


def perturb_counter(expected: dict, rep: dict) -> None:
    expected["sim.reads"] += 1


def perturb_claim_value(expected: dict, rep: dict) -> None:
    claim = next(iter(sorted(expected)))
    expected[claim]["measured"] = expected[claim]["measured"] * (1 + 1e-9)


def flip_claim_verdict(expected: dict, rep: dict) -> None:
    # The reference itself records the out-of-band verdict, so only the
    # verdict rule (not a mismatch) can catch this one.
    name, first = rep["outputs"][0]
    for other, value in rep["outputs"]:
        if other == name:
            value["passed"] = False
    expected[name] = copy.deepcopy(first)


CASES = {
    "sim-sweep": (perturb_cell, perturb_counter),
    "fidelity-gate": (perturb_claim_value, flip_claim_verdict),
}


def error_rate(rep: dict, expected: dict) -> float:
    attempted, failed = run.check([rep], expected)
    return failed / attempted


def main() -> int:
    problems = []
    for workload, planters in CASES.items():
        rep = run.run_rep(workload, run.REFERENCE_SEED, traced=False)
        path = run.REFERENCE_DIR / f"{workload}.json"
        reference = json.loads(path.read_text())["outputs"]
        clean = error_rate(rep, reference)
        print(f"{workload}: clean error_rate {clean:.6f}")
        if clean != 0:
            problems.append(f"{workload}: unmodified outputs fail the check")
        for plant in planters:
            planted_rep = copy.deepcopy(rep)
            planted_ref = copy.deepcopy(reference)
            plant(planted_ref, planted_rep)
            rate = error_rate(planted_rep, planted_ref)
            print(f"{workload}: {plant.__name__} error_rate {rate:.6f}")
            if not rate > clean:
                problems.append(f"{workload}: {plant.__name__} went undetected")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
