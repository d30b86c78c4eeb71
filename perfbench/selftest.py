"""Self-test of the benchmark's correctness check: it must be able to fail.

    python3 perfbench/selftest.py

1. Runs the cheapest job of every output kind once and requires that
   each passes against expected.json.
2. For every leaf of those jobs' pinned values, corrupts that one
   value, re-checks the recorded outputs and requires fail_frac > 0.
3. Runs a job that exits 1 at the seed (`count --torsor` at level 1,
   excluded from the workloads for that reason) and a job with a
   timeout too short for it, and requires that both count as failed.

Exits 0 when every corruption was caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import random
import sys

from run import SpeedProbe, child_env, job_cmd, run_pass, run_process
from checks import check_output, load_expected
from workloads import WORKLOADS, Job

# The cheapest job of each output kind.
CHEAPEST = ("verify-p3-ell5", "fixed-points-p5", "count-q9-surfaces",
            "torsor-q9", "gauss-p13", "howe-p13-n3-ell7", "characters-q11-ell5")


def leaf_paths(value, path=()):
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from leaf_paths(v, path + (k,))
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from leaf_paths(v, path + (i,))
    else:
        yield path


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    return ["corrupted"]


def fail_frac(results, expected) -> float:
    failed = sum(check_output(r["job"], expected, r["code"], r["stdout"])
                 is not None for r in results)
    return failed / len(results)


def main() -> int:
    env = child_env()
    expected = load_expected()
    by_name = {j.name: j for jobs in WORKLOADS.values() for j in jobs}
    ps = run_pass([by_name[n] for n in CHEAPEST], random.Random(0), False,
                  expected, env, SpeedProbe())
    results = ps["results"]
    problems = [f"{r['job'].name} fails with the true pins: {r['reason']}"
                for r in results if r["reason"] is not None]

    tried = 0
    for r in results:
        name = r["job"].name
        for path in leaf_paths(expected[name]):
            bad = copy.deepcopy(expected)
            node = bad[name]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = corrupted(node[path[-1]])
            tried += 1
            if fail_frac(results, bad) == 0:
                problems.append(f"{name}: corrupting {'/'.join(map(str, path))} "
                                "was not caught")
    print(f"corrupted {tried} pinned values, one at a time")

    env_fail = Job("torsor-q9-level1", "torsor",
                   tuple("count --p 3 --e 2 --torsor --n 3 --level 1".split()))
    code, out, _, _, _ = run_process(job_cmd(env_fail, False), env, 60)
    if check_output(env_fail, expected, code, out) is None:
        problems.append("a job exiting with code 1 was not counted as failed")
    code, _, _, _, _ = run_process(job_cmd(by_name["fixed-points-p5"], False),
                                   env, 0.2)
    if code is not None:
        problems.append("a job over its timeout was not reported as timed out")

    for line in problems:
        print("FAIL:", line)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
