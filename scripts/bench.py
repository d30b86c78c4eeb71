"""Paired benchmark runs of the working tree against a base revision.

    python scripts/bench.py --base HEAD --workload counts --pairs 10 \
        --seconds 40 --out BENCH_8.json

Extracts the base revision with `git archive` into a temporary directory,
then runs `perfbench/run.py --workload W --seed S --seconds T` there and
in the working tree, alternately, for K pairs per workload (even pairs
run the base first, odd pairs the working tree first; pair i uses seed
S + i on both sides).  The working tree runs from a copy without `.git`,
like the base: where `.git` exists perfbench/run.py calls git, which
raises its own memory, and `peak_rss_mb` includes the harness's memory.

Each run's `# env` line and final JSON line are parsed, and the output
file records, per workload and per metric, both sides' values, medians
and quartiles and the number of pairs the working tree won, with both
git shas, both `src_sha256`, the Python version and nproc.  Which
direction is better comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> Path:
    """Write the tree of rev under dest and return its root."""
    archive, tree = dest / "base.tar", dest / "base"
    tree.mkdir()
    subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    return tree


def snapshot(dest: Path) -> Path:
    """Copy the working tree, without .git, under dest and return it."""
    skip = shutil.ignore_patterns(".git", "__pycache__")
    return Path(shutil.copytree(ROOT, dest / "change", ignore=skip))


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in tree: its env record and its final result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(line[len("# env "):]) for line in lines
           if line.startswith("# env ")]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    if proc.returncode != 0 or not env or not results:
        raise SystemExit(f"perfbench run in {tree} failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return {"env": env[0], **results[-1]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "quartiles": [q1, q3]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare to")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    better = {m["name"]: m["better"]
              for key in ("end_to_end", "per_layer")
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    record = {"base": {"rev": args.base, "git_sha": git("rev-parse", args.base)},
              "change": {"git_sha": git("rev-parse", "HEAD"),
                         "dirty": bool(git("status", "--porcelain", "--",
                                           "src", "perfbench"))},
              "pairs": args.pairs, "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": extract(args.base, Path(tmp)),
                 "change": snapshot(Path(tmp))}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], workload,
                                               args.seed + i, args.seconds))
                    print(f"# {workload} pair {i} {side}: "
                          f"{runs[side][-1]['metrics']}", file=sys.stderr)
            metrics = {}
            for name in runs["change"][0]["metrics"]:
                vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                        for side in runs}
                direction = better.get(name, "lower")
                sign = -1 if direction == "lower" else 1
                metrics[name] = {
                    "unit": runs["change"][0]["metrics"][name]["unit"],
                    "better": direction,
                    "base": summary(vals["base"]),
                    "change": summary(vals["change"]),
                    "change_wins": sum(sign * (c - b) > 0 for b, c in
                                       zip(vals["base"], vals["change"]))}
            record["workloads"][workload] = {
                "metrics": metrics,
                "failed": {side: [r["failed"] for r in runs[side]]
                           for side in runs},
                "attempted": {side: [r["attempted"] for r in runs[side]]
                              for side in runs}}
            for side in runs:
                env = runs[side][0]["env"]
                record[side]["src_sha256"] = env["src_sha256"]
                record["python"], record["nproc"] = env["python"], env["nproc"]
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
