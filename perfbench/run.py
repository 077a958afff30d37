"""The superq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports superq from
src/ and builds nothing.  Each pass of the workload runs in a fresh worker
interpreter (worker.py); another pass starts only while it is expected to
end within the --seconds budget, and every figure is the median over the
passes.  Times are scaled to a reference speed of the machine, sampled
while they are measured (speed.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics.  The last line of stdout is one
JSON object; the lines before it give every metric by name with its unit.

The exit code is 0 when every op's result was right, 1 when a result was
wrong, the output digest at the default seed differed or a worker failed,
and 2 when the checkout has no superq source.  Ops refused by the program
count in error_rate and do not fail the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

SETUP_REPS = 15         # fresh imports timed per run, after one warm-up
SETUP_PROBES = 20       # speed samples taken after each of them
RUN_LIMIT_S = 170       # a run must end within 180 s
BUDGET_SLACK = 1.1      # a further pass may overrun --seconds by this factor


class RunError(Exception):
    """A worker or a set-up import failed; the run prints no result."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _deadline_left(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError(f"the run would exceed {RUN_LIMIT_S} s")
    return left


def _child(args, deadline):
    """Run a child interpreter to completion and return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline):
    """Median time, in a fresh interpreter, to import superq and superq.cli:
    (scaled to the reference speed, raw).  Each child probes the machine's
    speed right after its import (see speed.py)."""
    code = ("import time; t0 = time.perf_counter(); import superq, superq.cli; "
            "t = time.perf_counter() - t0; import speed; "
            f"print(t, t * speed.scale_of([speed.probe() for _ in range({SETUP_PROBES})]))")
    times = [_child(["-c", code], deadline).split() for _ in range(SETUP_REPS + 1)]
    times = times[1:]   # the first one may compile bytecode
    return (statistics.median(float(scaled) for _, scaled in times),
            statistics.median(float(raw) for raw, _ in times))


def run_pass(workload, seed, trace, deadline):
    trace_file = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    out = _child([str(HERE / "worker.py"), workload, str(seed), str(int(trace)),
                  str(trace_file)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile): the highest percentile of the samples with at
    least ten samples beyond it, here the 11th slowest, or the slowest when
    a pass has ten ops or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setup_s):
    walls = [p["wall_s"] for p in passes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(1e3 * statistics.median(p["op_s"]) for p in passes),
        "op_tail_ms": statistics.median(1e3 * tail(p["op_s"])[0] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain, traced, suites):
    metrics = dict(traced["layers"])
    metrics["memo.entries"] = plain["memo_entries"]
    suite_s = plain.get("suite_s", {})
    for suite in suites:
        metrics[f"verify.{suite}_s"] = suite_s.get(suite, 0.0)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return metrics


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "superq" / "__init__.py").is_file():
        print(f"no superq source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()

    try:
        if args.trace:
            passes = [run_pass(args.workload, args.seed, False, deadline)]
            traced = run_pass(args.workload, args.seed, True, deadline)
        else:
            setup_s, raw_setup_s = measure_setup(deadline)
            start = time.monotonic()
            passes = [run_pass(args.workload, args.seed, False, deadline)]
            while (time.monotonic() - start + passes[-1]["wall_s"]
                   <= BUDGET_SLACK * args.seconds):
                passes.append(run_pass(args.workload, args.seed, False, deadline))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if args.trace else [])
    last = passes[-1]
    ops = len(last["op_s"])
    errors = sum(last["failed"].values()) + last["wrong"]
    problems = list(last["problems"])
    correct = all(p["wrong"] == 0 for p in runs)
    digests = {p["digest"] for p in runs}
    if len(digests) != 1:
        correct = False
        problems.append("the output digest differs between passes of one seed")
    stored = expected["digests"].get(args.workload)
    check_digest = args.seed == expected["default_seed"] and stored
    if check_digest and stored not in digests:
        correct = False
        problems.append(f"output digest differs from the stored {stored} "
                        f"for seed {args.seed}")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of "
          f"{ops} ops, one client in a closed loop")
    probe_ms = 1e3 * statistics.median(t for p in runs for t in p["probe_s"])
    print(f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average {' '.join(f'{x:.2f}' for x in load_start)} at start, "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())} at end, "
          f"speed probe {probe_ms:.4f} ms (median; lower is a faster machine)")
    print(f"times are scaled to a probe of {1e3 * speed.REF_PROBE_S:g} ms (see speed.py); "
          f"raw: wall_s {statistics.median(p['raw_wall_s'] for p in passes):.4f}, op_p50_ms "
          f"{1e3 * statistics.median(last['raw_op_s']):.4f}, op_tail_ms "
          f"{1e3 * tail(last['raw_op_s'])[0]:.4f}"
          + ("" if args.trace else f", setup_s {raw_setup_s:.5f}"))
    if args.trace:
        metrics = per_layer(passes[0], traced, expected["verify_checks"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(passes, setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        _, pct = tail(last["op_s"])
        notes = {
            "setup_s": f"median of {SETUP_REPS} fresh imports of superq and superq.cli",
            "op_p50_ms": f"median of {ops} ops",
            "op_tail_ms": f"p{pct:.1f} of {ops} ops, the 11th slowest",
        }
    for name, value in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"{name:24} {value:>14.6g} {units[name]:6} {note}")
    kinds = [f"{n} {kind}" for kind, n in sorted(last["failed"].items())]
    kinds += [f"{last['wrong']} wrong"] if last["wrong"] else []
    print(f"{'error_rate':24} {errors / ops:>14.6g} {'':6} "
          f"{errors} of {ops} ops failed or wrong" + (f": {', '.join(kinds)}" if kinds else ""))
    print(f"digest {last['digest']}"
          + (" (checked against the stored value)" if check_digest else ""))
    for line in problems[:10]:
        print(f"  {line}")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": ops,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
