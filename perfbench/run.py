"""Benchmark of sigbounds: certify, analyze and scan workloads.

    python3 perfbench/run.py --workload certify|analyze|scan --seed N \\
        --seconds S --trace 0|1

Run from the repository root; stdlib only.  The workloads (see
``inputs.py``) run closed-loop and single-threaded: one caller issues the
next operation when the previous one returns.  Each block of operations
runs in a fresh interpreter (``worker.py``), so a run never measures caches
warmed by an earlier block.  Whole cycles of blocks run until ``--seconds``
have passed.

``--trace 0`` prints the end-to-end metrics:

* ops_per_ref_s: operations completed per second of operation time, at
  the reference speed;
* op_p50_ref_ms, op_p90_ref_ms: per-operation latency percentiles, at the
  reference speed;
* setup_s: median over ten fresh interpreters, five before the workload
  and five after, of the time to start Python, import ``sigbounds.cli``,
  load the catalogue and compile every catalogue pattern, at the
  reference speed;
* peak_rss_mb: largest resident set of any block's interpreter, read after
  its timed loop.

The host's speed drifts by a fifth within seconds and over minutes, more
than any run can average away, so times are given at a reference speed
(see ``calibration.py``): each operation's wall time is scaled by the
calibrations run just before and just after it in its interpreter, and
each set-up's by those run just before and just after it here.  The plain
wall-time figures (ops_per_s, op_p50_ms, op_p90_ms and the set-up median)
are printed on the human-readable lines.

``--trace 1`` runs the seed's first block twice, untraced and traced, and
prints the per-layer totals of the traced block (see ``tracer.py``) and the
tracing overhead.  Spans go to ``perfbench/out/``.

Every answer is checked against a reference (see ``ops.py``).  Human-readable
lines, including the error rate and the sample count, precede the last
line, which is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 if any operation failed and 2 if the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
from calibration import calibrate, scaled

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DEADLINE_S = 170
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import sigbounds.cli; "
    "from sigbounds import catalogue\n"
    "for e in catalogue.all_entries(): e.spec"
)

# The acceptance-2 totals of the full default grid.
FULL_GRID_SUMMARY = {"rows": 1980, "checked": 1794, "skipped": 186,
                     "failed": 0, "sharp_confirmed": 1782}

E2E_UNITS = {"ops_per_ref_s": "1/ref_s", "op_p50_ref_ms": "ref_ms",
             "op_p90_ref_ms": "ref_ms", "setup_s": "s", "peak_rss_mb": "MB"}
WALL_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s"}
TRACE_UNITS = {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
               "trace.overhead_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, block: int, started: float,
               trace: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--block", str(block)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    left = DEADLINE_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"block {block} ran past the {DEADLINE_S}s "
                          "deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"block {block} exited {proc.returncode}:\n"
                          f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(runs: int) -> list[dict]:
    """Wall times of fresh interpreters doing the set-up, and the same at
    the reference speed.

    A first, untimed start leaves the bytecode cache as a user's second
    start finds it.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(runs + 1):
        before = calibrate()
        t0 = perf_counter()
        # with pipes, run() returns when the child closes them; without,
        # a timeout makes it poll for the exit every 50 ms
        subprocess.run(cmd, check=True, capture_output=True, timeout=60)
        wall = perf_counter() - t0
        times.append({"wall_s": wall,
                      "ref_s": scaled(wall, before, calibrate())})
    return times[1:]


def full_grid_problems(blocks: list[dict]) -> list[str]:
    """Acceptance-2 totals, checked once the run has covered every cell of
    the default grid; the first visit of each cell counts."""
    first: dict = {}
    for res in blocks:
        for cell in res["cells"]:
            key = (cell["pattern"], cell["n"], cell["lo"], cell["hi"])
            first.setdefault(key, cell)
    grid = (len(inputs.catalogue_patterns()) * len(inputs.CERTIFY_NS)
            * len(inputs.DOMAINS))
    if len(first) < grid:
        return []
    totals = {k: sum(c[k] for c in first.values()) for k in FULL_GRID_SUMMARY}
    if totals != FULL_GRID_SUMMARY:
        return [f"full-grid summary {totals} != {FULL_GRID_SUMMARY}"]
    return []


def at_reference_speed(res: dict) -> list[float]:
    """A block's operation times at the reference speed."""
    cal = res["calibration_s"]
    return [scaled(d, cal[k], cal[k + 1])
            for k, d in enumerate(res["durations_s"])]


def latency(durations: list[float], suffix: str = "") -> dict:
    return {
        f"ops_per{suffix}_s": len(durations) / sum(durations),
        f"op_p50{suffix}_ms": statistics.median(durations) * 1000.0,
        f"op_p90{suffix}_ms": statistics.quantiles(durations, n=10)[8]
        * 1000.0,
    }


def end_to_end(blocks: list[dict], setup: list[dict]) -> dict:
    values = latency([d for res in blocks for d in at_reference_speed(res)],
                     "_ref")
    values["setup_s"] = statistics.median(t["ref_s"] for t in setup)
    values["peak_rss_mb"] = max(res["peak_rss_mb"] for res in blocks)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src") / "sigbounds" / "__init__.py").is_file():
        print("run.py: no src/sigbounds here; run from the repository root",
              file=sys.stderr)
        return 2
    started = perf_counter()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg": os.getloadavg()}

    try:
        if args.trace:
            untraced = run_worker(args.workload, args.seed, 0, started)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            traced = run_worker(args.workload, args.seed, 0, started, spans)
            blocks = [untraced, traced]
            values = dict(traced["layers"])
            values["trace.untraced_wall_s"] = untraced["wall_s"]
            values["trace.traced_wall_s"] = traced["wall_s"]
            values["trace.overhead_ratio"] = (traced["wall_s"]
                                              / untraced["wall_s"])
            units = {name: layer_unit(name) for name in values}
            setup: list[dict] = []
        else:
            # half the set-up samples before the workload and half after,
            # so one slow spell of the machine cannot hold all of them
            setup = measure_setup(SETUP_RUNS)
            blocks = []
            per_cycle = inputs.blocks_per_cycle(args.workload)
            t0 = perf_counter()
            cycle = 0
            while cycle == 0 or perf_counter() - t0 < args.seconds:
                for b in range(per_cycle):
                    blocks.append(run_worker(args.workload, args.seed,
                                             cycle * per_cycle + b, started))
                cycle += 1
            setup += measure_setup(SETUP_RUNS)
            values = end_to_end(blocks, setup)
            units = E2E_UNITS
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(res["durations_s"]) for res in blocks)
    failed = sum(len(res["failed_ops"]) for res in blocks)
    problems = [p["problem"] for res in blocks for p in res["problems"]]
    grid_problems = full_grid_problems(blocks)
    samples = attempted if not args.trace else len(blocks[-1]["durations_s"])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blocks={len(blocks)} samples={samples} python={env['python']} "
          f"nproc={env['nproc']} loadavg="
          + ",".join(f"{x:.2f}" for x in env["loadavg"]))
    print(f"# error_rate={failed / attempted:.6f} ({failed} of {attempted} "
          f"operations failed or disagreed with the reference)")
    for problem in (problems + grid_problems)[:10]:
        print(f"# problem: {problem}")
    if not args.trace:
        wall = latency([d for res in blocks for d in res["durations_s"]])
        wall["setup_s"] = statistics.median(t["wall_s"] for t in setup)
        for name, value in wall.items():
            print(f"# {name} = {value:.6g} {WALL_UNITS[name]} (wall time)")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    correct = failed == 0 and not grid_problems
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "seconds": args.seconds, "setup_s": setup,
              "blocks": blocks, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
