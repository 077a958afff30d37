"""Where the garbage collector pauses in one benchmark pass.

Runs one pass of a perfbench workload in this process, through
perfbench/worker.py's own functions, with a gc.callbacks hook.  Prints
every generation-1 and generation-2 collection with its raw duration and
the op it landed in, then the 11 slowest ops of the pass (op_tail_ms is
the 11th of them, scaled as perfbench scales it) with a mark on those that
hold a collection, and the 11th slowest again with the pauses taken out.
An op's time moves by a collection that lands in it, so a change to
allocation counts can move op_tail_ms with no op doing more work.
Standard library only.

    PYTHONPATH=src python tools/gc_pauses.py --workload verify_all --seed 1

Workers run with PYTHONHASHSEED=0; so does this script (it restarts
itself with it when the variable differs).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from bisect import bisect_right
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TAIL_RANK = 11      # op_tail_ms is the 11th slowest op of a pass


def run_pass(workload: str, seed: int):
    """(labels, run, collections) of one pass; each collection is
    (generation, start, end) on the worker's clock."""
    sys.path.insert(0, str(PERFBENCH))
    import superq.cli  # noqa: F401  (imported before the pass, as worker.main does)
    import worker
    import workloads
    from speed import clock

    collections, started = [], {}

    def hook(phase, info):
        if phase == "start":
            started[0] = clock()
        elif info["generation"] >= 1:
            collections.append((info["generation"], started[0], clock()))

    run = worker.Pass(None)
    gc.callbacks.append(hook)
    try:
        if workload == "verify_all":
            expected = json.loads((PERFBENCH / "expected.json").read_text())
            worker.run_verify_all(seed, run, expected["verify_checks"])
            labels = [label for _suite, label, _fn in worker._verify_ops(seed)]
        elif workload == "interactive":
            worker.run_interactive(seed, run)
            labels = [" ".join(op["argv"]) for op in workloads.interactive_ops(seed)]
        else:
            worker.run_haar_solve(seed, run)
            labels = [repr(op) for op in workloads.haar_solve_ops(seed)]
    finally:
        gc.callbacks.remove(hook)
    return labels, run, collections


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="verify_all",
                    choices=("interactive", "verify_all", "haar_solve"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    labels, run, collections = run_pass(args.workload, args.seed)
    starts = [start for start, _ in run.op_bounds]
    pause_ms = [0.0] * len(starts)      # raw collector time inside each op
    print(f"{args.workload}, seed {args.seed}: {len(starts)} ops, "
          f"{len(collections)} collections of generation 1 or 2")
    for gen, start, end in collections:
        k = bisect_right(starts, start) - 1
        inside = k >= 0 and start < run.op_bounds[k][1]
        if inside:
            pause_ms[k] += 1e3 * (end - start)
        where = f"op {k}: {labels[k]}" if inside else "outside the timed ops"
        print(f"  gen {gen}  {1e3 * (end - start):7.2f} ms raw  {where}")

    # Scaled times, as perfbench/run.py reads them; a pause is scaled by
    # its op's own factor.
    scale = [s / r if r else 1.0 for s, r in zip(run.op_s, run.raw_op_s)]
    ranked = sorted(range(len(starts)), key=lambda k: run.op_s[k], reverse=True)
    print(f"the {TAIL_RANK} slowest ops (scaled ms; * holds a collection):")
    for rank, k in enumerate(ranked[:TAIL_RANK], 1):
        mark = f"* {pause_ms[k]:.2f} ms raw collecting" if pause_ms[k] else ""
        print(f"  {rank:2}  {1e3 * run.op_s[k]:9.3f}  {labels[k][:60]:60} {mark}")
    if len(starts) > TAIL_RANK:
        without = sorted((1e3 * run.op_s[k] - pause_ms[k] * scale[k] for k in ranked),
                         reverse=True)
        print(f"11th slowest: {1e3 * run.op_s[ranked[TAIL_RANK - 1]]:.3f} ms, "
              f"{without[TAIL_RANK - 1]:.3f} ms with the pauses taken out")
    bad = sum(run.failed.values()) + run.wrong
    if bad:
        print(f"{bad} ops failed or were wrong: {run.problems[:3]}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
