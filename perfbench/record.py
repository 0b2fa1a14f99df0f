"""Re-record ``reference.json``: the makespan and exact per-op counts of
every case in the EPTAS workloads' pools.

    python3 perfbench/record.py

Run it from the root of a checkout, only when a change to the program is
meant to change EPTAS outputs; the benchmark fails every op whose makespan
differs from the recorded one.
"""

from __future__ import annotations

import json
import sys

from run import SOURCES, host_stamp
from workloads import REFERENCE_FILE, milp_pool, op_counts, patterns_pool, solve_case


def main() -> int:
    sys.path.insert(0, str(SOURCES))
    cases = {}
    for pool in (milp_pool, patterns_pool):
        for group in pool():
            for case in group:
                result, _ = solve_case(case, case.instance())
                result.schedule.validate(require_complete=True)
                cases[case.key] = {
                    "makespan": result.makespan,
                    "counts": op_counts(result.diagnostics),
                }
                print(case.key, result.makespan, flush=True)
    payload = {"host": host_stamp(), "cases": cases}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} cases in {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
