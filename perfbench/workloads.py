"""The benchmark's workloads: fixed job lists and the towers they use.

A job is one `ffverify` invocation in a fresh Python process.  `kind`
selects how it is started and how its output is checked (see
`checks.py`):

- a CLI job runs `python -m ffverify.cli <argv>`;
- the `lib` kind runs `perfbench/libjob.py <argv>`, which calls the
  library's public functions directly.

The jobs of a workload never change; the workload seed only permutes
their order within each pass (the program is deterministic, so the seed
cannot change its inputs).  Why each workload was chosen, which modules
it loads and bypasses, and which jobs were left out are recorded in
`README.md` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    # "count", "torsor", "verify", "fixed-points", "gauss", "howe-md", "lib"
    kind: str
    argv: tuple

    @property
    def is_cli(self) -> bool:
        return self.kind != "lib"


def _cli(name, kind, args):
    return Job(name, kind, tuple(args.split()))


WORKLOADS = {
    "surface": (
        _cli("verify-p3-ell5", "verify", "verify --p 3 --n 2 --ell 5"),
        _cli("verify-p5-ell3", "verify", "verify --p 5 --n 2 --ell 3"),
        _cli("fixed-points-p5", "fixed-points", "fixed-points --p 5"),
    ),
    "counts": (
        _cli("count-p7-level4", "count",
             "count --p 7 --variety Ytilde X S Y --n 3 --level 4"),
        _cli("count-q16-pairs", "count",
             "count --p 2 --e 4 --variety Ytildeprime Xprime Zprime --n 2 --level 2"),
        _cli("count-q9-surfaces", "count",
             "count --p 3 --e 2 --variety Xbar D S Y Sprime Yprime --n 3 --level 2"),
        _cli("torsor-q9", "torsor", "count --p 3 --e 2 --torsor --n 3 --level 2"),
    ),
    "tables": (
        Job("characters-q11-ell5", "lib", ("--n", "2", "--q", "11", "--ell", "5")),
        Job("characters-q13-ell7", "lib", ("--n", "2", "--q", "13", "--ell", "7")),
        _cli("verify-q8-ell3", "verify", "verify --p 2 --e 3 --n 2 --ell 3"),
        _cli("gauss-p13", "gauss", "gauss --p 13"),
        _cli("howe-p13-n3-ell7", "howe-md", "howe --p 13 --n 3 --ell 7 --format md"),
    ),
}

# The distinct (p, e) towers each workload's jobs build; `setup_s` sums
# the cost of importing ffverify and building each of them.
TOWERS = {
    "surface": ((3, 1), (5, 1)),
    "counts": ((7, 1), (2, 4), (3, 2)),
    "tables": ((2, 3), (13, 1)),
}
