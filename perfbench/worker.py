"""Run one block of a workload in this (fresh) interpreter.

    python3 perfbench/worker.py --workload scan --seed 1 --block 0 [--trace PATH]

Run from the repository root.  Imports ``sigbounds`` from ``src/``, loads
the catalogue and compiles every catalogue pattern, then runs the block's
operations one at a time, timing each, with an untimed calibration (see
``calibration.py``) before the first operation and after each one.  Answers are
checked after the timed loop.  Prints one JSON object on stdout.  With ``--trace``
the calls into each module are traced, the spans are written to PATH
(gzipped JSON lines) and the per-layer totals are added to the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path("src").resolve()))

import inputs  # noqa: E402
from calibration import calibrate  # noqa: E402


def load_catalogue(catalogue) -> dict:
    """Catalogue entries by name, every pattern compiled."""
    entries = {e.name: e for e in catalogue.all_entries()}
    for entry in entries.values():
        entry.spec  # compiles on first access
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--block", type=int, required=True)
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args(argv)

    import sigbounds.cli  # noqa: F401  (the full import a CLI user pays)
    from sigbounds import catalogue

    import ops
    from tracer import Tracer

    tracer = None
    region = lambda fn, *a: fn(*a)  # noqa: E731
    if args.trace:
        tracer = Tracer()
        tracer.install()
        region = tracer.region("perfbench.setup")
    entries = region(load_catalogue, catalogue)

    patterns = inputs.catalogue_patterns()
    block = inputs.block_ops(args.workload, args.seed, args.block, patterns)
    prepared = [ops.prepare(op, entries) for op in block]
    if tracer:
        region = tracer.region("perfbench.op")

    durations, outputs, crashes = [], [], {}
    calibration = [calibrate()]
    for k, op in enumerate(prepared):
        run = ops.RUN[op["kind"]]
        t0 = perf_counter()
        try:
            out = region(run, op, entries)
        except Exception:
            out = None
            crashes[k] = traceback.format_exc(limit=3)
        durations.append(perf_counter() - t0)
        outputs.append(out)
        calibration.append(calibrate())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        tracer.write(args.trace)

    check = ops.checker(patterns, entries)
    problems = []
    for k, (op, out) in enumerate(zip(prepared, outputs)):
        if k in crashes:
            problems.append({"op": k, "problem": crashes[k]})
        else:
            problems.extend({"op": k, "problem": p} for p in check(op, out))
    cells = [
        dict(pattern=op["pattern"], n=op["n"], lo=op["lo"], hi=op["hi"],
             **out.summary())
        for op, out in zip(prepared, outputs)
        if op["kind"] == "cell" and out is not None
    ]
    json.dump({
        "workload": args.workload, "seed": args.seed, "block": args.block,
        "durations_s": durations, "calibration_s": calibration,
        "wall_s": sum(durations), "peak_rss_mb": rss_mb,
        "failed_ops": sorted({p["op"] for p in problems}),
        "problems": problems[:20], "cells": cells, "layers": layers,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
