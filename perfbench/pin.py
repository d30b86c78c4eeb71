"""Write expected.json: the values every benchmark job prints, taken from
the checkout this is run in.

    python3 perfbench/pin.py

Run it only on a commit whose results are known to be right (the pins
in the repository come from the seed implementation): the benchmark's
correctness check compares later commits against these values.  A job
that exits non-zero or whose own flags are false is refused.
"""

from __future__ import annotations

import json
import sys

from run import child_env, job_cmd, run_process, JOB_TIMEOUT_S
from checks import EXPECTED_PATH, check, extract
from workloads import WORKLOADS


def main() -> int:
    env = child_env()
    pins = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            code, out, err, wall, _ = run_process(job_cmd(job, False), env,
                                                  JOB_TIMEOUT_S)
            if code != 0:
                sys.stderr.write(f"{job.name}: exit code {code}\n{err}")
                return 1
            values = extract(job.kind, out)
            reason = check(job.kind, values, values)
            if reason is not None:
                sys.stderr.write(f"{job.name}: {reason}\n")
                return 1
            pins[job.name] = values
            print(f"{job.name}: pinned ({wall:.2f} s)")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
