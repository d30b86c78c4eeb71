"""Correctness check of a job's output against values pinned from a
known-good commit.

The check compares values, not bytes, so that changes to the output
format that keep the values do not trip it.  `extract` turns a job's
stdout into a small JSON-able dict of values; `check` compares that
dict with the pinned one:

- count and torsor jobs: the integers (the torsor's printed ratio is
  not compared, only whether it equals q + 1);
- fixed-points: every cell's total and `all_match`;
- verify: `all_passed`, and every check present in the pin is still
  present and passes (new checks may appear);
- gauss: the square identity for every a, and `identity_holds`;
- howe tables and library jobs: the table values, and every flag true.

`expected.json` holds the pinned values, one entry per job name; it is
written by `pin.py`.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _md_rows(text: str, ncols: int) -> list:
    rows = []
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != ncols or set(cells[0]) <= {"-", " "}:
            continue
        rows.append(cells)
    return rows[1:] if rows else rows   # drop the header row


def extract(kind: str, stdout: str) -> dict:
    """The values of one job's output.  Raises ValueError (or a
    subclass) when the output cannot be read."""
    if kind == "howe-md":
        entries = {tau: [int(d), int(dt), status]
                   for tau, d, dt, status, _ in _md_rows(stdout, 5)}
        checks = {name: ok == "yes" for name, _, _, ok in _md_rows(stdout, 4)}
        if not entries:
            raise ValueError("no table rows in the output")
        return {"entries": entries, "checks": checks}
    blob = json.loads(stdout)
    if kind == "count":
        return {"counts": {r["variety"]: r["count"] for r in blob}}
    if kind == "torsor":
        return {"counts": {r["variety"]: r["count"] for r in blob["rows"]},
                "ratio_equals_q_plus_1": blob["ratio_equals_q_plus_1"]}
    if kind == "fixed-points":
        totals = {f"u={r['with_unipotent']},eta={r['eta']},zeta={r['zeta']}":
                  r["total"] for r in blob["rows"]}
        return {"totals": totals, "all_match": blob["all_match"]}
    if kind == "verify":
        return {"all_passed": blob["all_passed"],
                "checks": {c["name"]: c["pass"] for c in blob["checks"]}}
    if kind == "gauss":
        return {"q": blob["q"],
                "square_identity": {str(s["a"]): s["square_identity"]
                                    for s in blob["sums"]},
                "identity_holds": blob["identity_holds"]}
    if kind == "lib":
        return blob
    raise ValueError(f"unknown job kind {kind!r}")


def _all_flags_true(flags: dict) -> bool:
    return all(v is True for v in flags.values())


def check(kind: str, pinned: dict, values: dict) -> str | None:
    """None when `values` agree with `pinned`, otherwise the reason."""
    if kind == "verify":
        if values["all_passed"] is not True:
            return "all_passed is not true"
        if pinned["all_passed"] is not True:
            return "pinned all_passed is not true"
        for name, ok in pinned["checks"].items():
            if name not in values["checks"]:
                return f"check {name} is missing"
            if values["checks"][name] is not True or ok is not True:
                return f"check {name} does not pass"
        return None
    if kind == "lib" and not _all_flags_true(values["flags"]):
        return "a flag is false: " + ", ".join(
            k for k, v in values["flags"].items() if v is not True)
    if kind == "howe-md" and not _all_flags_true(values["checks"]):
        return "a table check fails"
    if values != pinned:
        diff = sorted(k for k in set(values) | set(pinned)
                      if values.get(k) != pinned.get(k))
        return "values differ from the pin in: " + ", ".join(diff)
    return None


def check_output(job, expected: dict, returncode: int, stdout: str) -> str | None:
    """None when the job passed, otherwise why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    if job.name not in expected:
        return "no pinned values for this job"
    try:
        values = extract(job.kind, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return check(job.kind, expected[job.name], values)
