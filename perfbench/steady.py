"""Steadiness runs: the benchmark, run once per seed on each workload.

    python3 perfbench/steady.py --runs 10 --out perfbench/baseline/seed.json
    python3 perfbench/steady.py --runs 5 --workload surface

For every end-to-end metric this reports the median of the per-run
values and their spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median.  Seeds are 1..runs; every run is a separate `run.py` process,
run one after another.  With `--out`, the per-run results, the summary
and the environment are written as JSON, to serve as the parent's
figures for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    config = bench_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workload or [w["name"] for w in config["workloads"]]
    record = {"run_seconds": config["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{name} seed {seed}: exit {proc.returncode}\n"
                                 f"{proc.stderr}")
                return 1
            env = next((json.loads(ln[len("# env "):]) for ln in lines
                        if ln.startswith("# env ")), None)
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result})
            record["env"] = env
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}",
                flush=True)
        summary = {}
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values),
                               "bound": bounds[metric]}
            s = summary[metric]
            print(f"{name}: {metric} median {s['median']:.4g}, spread "
                  f"{s['spread']:.3f} (bound {s['bound']})")
            if metric != "setup_s" and s["spread"] > s["bound"]:
                ok = False
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
