"""ffverify benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1

Run from the root of a checkout.  Every job is a fresh Python process
started against the checkout's own `src/` (the package need not be
installed): `python -m ffverify.cli <argv>`, or `perfbench/libjob.py`
for library jobs.  A job starts only after the previous one has exited,
so at most one job runs at a time and the benchmark starts no threads.
A pass runs every job of the workload once, in an order permuted by
`--seed`.  Passes repeat while the time spent in the run so far (set-up
measurement included) plus the median pass time fits in `--seconds`,
with at least MIN_PASSES passes.  The seed only permutes job order: the
jobs themselves are fixed and the program is deterministic.

`--trace 0` reports the end-to-end metrics:

- wall_s: median, over the passes, of the summed wall time of the
  pass's jobs, each including process start;
- setup_s: the median, over SETUP_REPEATS repetitions, of the time from
  just before `import ffverify` to just after `build_tower(p, e)`
  returns in a fresh process, summed over the workload's towers;
- peak_rss_mb: the largest max-RSS of any job process (os.wait4);
- fail_frac: failed jobs / jobs attempted, printed as a line and given
  as `failed` / `attempted` in the result (it is 0 when the program is
  right, so it is not a bounded metric).

Every reported time is scaled to a fixed reference machine speed (see
SpeedProbe); the times as measured are printed on the `# ...` lines.

`--trace 1` alternates an untraced and a traced pass (see tracing.py),
at least one of each, and reports the per-layer metrics of the traced
passes, with `trace.overhead_frac` = traced wall / untraced wall - 1.

Every job's output is checked against the values in expected.json
(checks.py).  A job fails if it exits non-zero, times out or fails the
check.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_output, load_expected  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import TOWERS, WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 60
MIN_PASSES = 2
SETUP_REPEATS = 3
# The reference loop's time at the reference speed: its median on the
# 2-core VM the benchmark was built on, rounded.
REFERENCE_S = 0.020
# Reference loops timed after each job.
PROBE_SAMPLES = 5
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ffverify
ffverify.build_tower(int(sys.argv[1]), int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed job)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(cmd, env, timeout):
    """Run cmd to completion; return (exit code, stdout, stderr, wall
    seconds, max RSS in KiB).  A process over its timeout is killed and
    reported with exit code None."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in (proc.stdout, proc.stderr):
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0 and not timed_out:
                    timed_out = True
                    proc.kill()
                for key, _ in sel.select(max(left, 0.1) if not timed_out else 1.0):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    out = b"".join(chunks[out_fd]).decode(errors="replace")
    err = b"".join(chunks[err_fd]).decode(errors="replace")
    return (None if timed_out else proc.returncode), out, err, wall, usage.ru_maxrss


def job_cmd(job, traced: bool) -> list:
    if traced:
        spec = json.dumps({"name": job.name, "kind": job.kind,
                           "argv": list(job.argv)})
        return [sys.executable, str(HERE / "tracing.py"), spec]
    if job.is_cli:
        return [sys.executable, "-m", "ffverify.cli", *job.argv]
    return [sys.executable, str(HERE / "libjob.py"), *job.argv]


class SpeedProbe:
    """The machine's speed over one run, from `reference_loop` timed in
    this process after each job.

    On a shared VM the same work can take up to 1.8 times longer from
    one moment to the next, in phases lasting from seconds to minutes.
    Multiplying a run's times by REFERENCE_S / (the loop's mean time over
    the run) reports them at a fixed reference speed, which removes the
    slow phases that would otherwise shift whole runs.  The loop is
    benchmark code, so a change to ffverify moves the jobs' times and not
    the factor.
    """

    def __init__(self):
        self.times = []
        self.sample()

    def sample(self) -> None:
        for _ in range(PROBE_SAMPLES):
            t0 = time.perf_counter()
            reference_loop()
            self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.times)


def reference_loop():
    """Fixed pure-Python work in the program's own mix: Fraction
    arithmetic, tuples reduced mod a prime, dict updates."""
    acc, vec, seen = Fraction(0), (1, 2, 3, 4, 5, 6, 7, 8), {}
    for i in range(1, 2500):
        acc += Fraction(1, i % 97 + 1) * i
        vec = tuple((a * b + i) % 7 for a, b in zip(vec, vec[1:] + vec[:1]))
        seen[vec] = seen.get(vec, 0) + 1
    return acc, seen


def run_pass(jobs, rng, traced, expected, env, probe) -> dict:
    """Run every job once, in an order drawn from rng.  `wall` is the
    sum of the jobs' wall times."""
    order = list(jobs)
    rng.shuffle(order)
    results = []
    for job in order:
        code, out, err, wall, rss_kb = run_process(job_cmd(job, traced), env,
                                                   JOB_TIMEOUT_S)
        probe.sample()
        trace = None
        if traced:
            lines = [ln for ln in err.splitlines()
                     if ln.startswith("PERFBENCH_TRACE ")]
            trace = json.loads(lines[-1].split(" ", 1)[1]) if lines else None
        if code is None:
            reason = f"timed out after {JOB_TIMEOUT_S} s"
        elif traced and trace is None:
            reason = "no trace record"
        else:
            reason = check_output(job, expected, code, out)
        results.append({"job": job, "wall": wall, "rss_kb": rss_kb,
                        "code": code, "stdout": out, "reason": reason,
                        "trace": trace})
    return {"wall": sum(r["wall"] for r in results), "results": results}


def measure_setup(towers, env, probe) -> float:
    """Median over SETUP_REPEATS of the summed per-tower set-up time."""
    sums = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for p, e in towers:
            code, out, err, _, _ = run_process(
                [sys.executable, "-c", SETUP_CODE, str(p), str(e)], env,
                JOB_TIMEOUT_S)
            if code != 0:
                raise BenchError(f"build_tower({p}, {e}) failed: {err.strip()}")
            total += float(out.strip().splitlines()[-1])
            probe.sample()
        sums.append(total)
    return statistics.median(sums)


def layer_metrics(results, factor) -> tuple:
    """Per-layer metrics of one traced pass (summed over its jobs, times
    multiplied by the speed factor), and the call count of every wrapped
    function."""
    self_s = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    incl, calls = {}, {}
    cells = points = tables = table_calls = stdout_bytes = 0
    for r in results:
        t = r["trace"]
        if t is None:
            continue
        for layer in LAYERS:
            self_s[layer] += t["self_s"][layer] * factor
            errors[layer] += t["errors"][layer]
        for k, v in t["inclusive_s"].items():
            incl[k] = incl.get(k, 0.0) + v * factor
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        cells += t["surface_cells"]
        points += t["points_verified"]
        tables += t["tables"]
        table_calls += t["table_calls"]
        if r["job"].is_cli:
            stdout_bytes += len(r["stdout"].encode())
    surface_calls = calls.get("fixed_points_surface", 0)
    m = {
        "fields.build_tower_s": incl.get("build_tower", 0.0),
        "fields.level_mul_calls": calls.get("Level.mul", 0),
        "fields.as_mul_calls": calls.get("ArtinSchreierExtension.mul", 0),
        "fields.as_pow_calls": calls.get("ArtinSchreierExtension.pow", 0),
        "fields.solve_affine_s": incl.get("ArtinSchreierExtension.solve_affine", 0.0),
        "fixed_points.surface_calls": surface_calls,
        "fixed_points.unique_cell_ratio": (cells / surface_calls
                                           if surface_calls else 0.0),
        "fixed_points.points_verified": points,
        "traces.sheaf_trace_calls": calls.get("sheaf_trace_A2", 0),
        "varieties.count_points_calls": calls.get("count_points", 0),
        "cyclotomic.mul_calls": calls.get("CycNumber.__mul__", 0),
        "cyclotomic.inverse_calls": calls.get("CycNumber.inverse", 0),
        "characters.orthogonality_s": (
            incl.get("CharacterTable.row_orthogonality_ok", 0.0)
            + incl.get("CharacterTable.column_orthogonality_ok", 0.0)),
        "characters.brauer_decompose_calls": calls.get("brauer_decompose", 0),
        "characters.brauer_decompose_s": incl.get("brauer_decompose", 0.0),
        "characters.table_build_ratio": tables / table_calls if table_calls else 0.0,
        "cli.stdout_bytes": stdout_bytes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    return m, calls


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def env_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "git_sha": sha,
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def run_workload(name, seed, seconds, trace, expected, env):
    """Measure one workload; return (attempted, failed, metrics, log lines)."""
    jobs = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    probe = SpeedProbe()
    log = []
    passes = []
    t0 = time.perf_counter()
    if not trace:
        setup_raw_s = measure_setup(TOWERS[name], env, probe)
    rounds = []
    while (len(rounds) < (1 if trace else MIN_PASSES)
           or time.perf_counter() - t0 + statistics.median(rounds) <= seconds):
        r0 = time.perf_counter()
        passes.append(("untraced", run_pass(jobs, rng, False, expected, env, probe)))
        if trace:
            passes.append(("traced", run_pass(jobs, rng, True, expected, env, probe)))
        rounds.append(time.perf_counter() - r0)
    factor = probe.factor()
    log.append(f"# {name}: speed factor {factor:.4f} (reference loop mean "
               f"{statistics.fmean(probe.times) * 1000:.2f} ms over "
               f"{len(probe.times)} samples)")
    attempted = failed = 0
    for label, ps in passes:
        log.append(f"# {name} {label} pass: {ps['wall']:.3f} s as measured")
        for r in ps["results"]:
            attempted += 1
            failed += r["reason"] is not None
            status = "ok" if r["reason"] is None else f"FAILED ({r['reason']})"
            log.append(f"#   {r['job'].name}: {r['wall']:.3f} s, max rss "
                       f"{r['rss_kb'] / 1000:.1f} MB, {status}")

    def median_wall(label):
        return statistics.median(ps["wall"] for lb, ps in passes if lb == label)

    wall_raw_s = median_wall("untraced")
    wall_s = wall_raw_s * factor
    log.append(f"# {name}: wall_raw_s = {wall_raw_s:.6g} s (as measured)")
    if not trace:
        log.append(f"# {name}: setup_raw_s = {setup_raw_s:.6g} s (as measured)")
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_raw_s * factor,
            "peak_rss_mb": max(r["rss_kb"] for lb, ps in passes
                               for r in ps["results"]) * 1024 / 1e6,
        }
    else:
        traced = [layer_metrics(ps["results"], factor)
                  for lb, ps in passes if lb == "traced"]
        # median_low keeps the exact counts when there are two passes
        metrics = {k: statistics.median_low(m[k] for m, _ in traced)
                   for k in traced[0][0]}
        metrics["trace.overhead_frac"] = median_wall("traced") / wall_raw_s - 1
        log.append("# calls " + json.dumps(traced[0][1], sort_keys=True))
    return attempted, failed, metrics, log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ffverify" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ffverify package under {SRC}; run from "
                         "the root of an ffverify checkout\n")
        return 2

    env = child_env()
    expected = load_expected()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# ffverify benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env_record(), sort_keys=True))
    code, _, err, _, _ = run_process([sys.executable, "-c", "import ffverify.cli"],
                                     env, JOB_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(f"error: cannot import ffverify: {err.strip()}\n")
        return 2
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m, log = run_workload(name, args.seed, args.seconds,
                                        args.trace, expected, env)
            print("\n".join(log))
            for k, v in m.items():
                print(f"{name}: {k} = {v:.6g} {unit_of(k)}")
                key = k if len(names) == 1 else f"{name}.{k}"
                metrics[key] = {"value": v, "unit": unit_of(k)}
            print(f"{name}: fail_frac = {f / a:g} ratio ({f} of {a} jobs failed)")
            attempted += a
            failed += f
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
