"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py     (from the repository root)

They check that inputs depend on the seed alone, that the checkers flag
planted wrong answers, that operation times are scaled to the reference
speed by the calibrations around them, and that the printed metric names
are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from sigbounds import bounds, catalogue, series  # noqa: E402

PATTERNS = inputs.catalogue_patterns(ROOT)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            for block in (0, 1):
                self.assertEqual(
                    inputs.block_ops(workload, 7, block, PATTERNS),
                    inputs.block_ops(workload, 7, block, PATTERNS))
            self.assertNotEqual(inputs.block_ops(workload, 7, 0, PATTERNS),
                                inputs.block_ops(workload, 8, 0, PATTERNS))

    def test_certify_cycle_covers_the_grid_once(self):
        cells = [(op["pattern"], op["n"], op["lo"], op["hi"])
                 for block in range(inputs.blocks_per_cycle("certify"))
                 for op in inputs.block_ops("certify", 4, block, PATTERNS)]
        self.assertEqual(len(cells), len(set(cells)))
        self.assertEqual(len(cells), len(PATTERNS) * len(inputs.CERTIFY_NS)
                         * len(inputs.DOMAINS))

    def test_analyze_cycle_covers_every_span_once(self):
        seen = [(op["pattern"], op["span"])
                for block in range(inputs.blocks_per_cycle("analyze"))
                for op in inputs.block_ops("analyze", 4, block, PATTERNS)
                if op["kind"] == "catalogue"]
        want = [(p["name"], p["eta"] + k) for p in PATTERNS for k in range(3)]
        self.assertEqual(sorted(seen), sorted(want))

    def test_analyze_cycle_covers_every_raw_regex_once(self):
        universe = set(inputs.raw_universe())
        blocks = inputs.blocks_per_cycle("analyze")
        raw = [(block, op["expr"], op["span"]) for block in range(blocks)
               for op in inputs.block_ops("analyze", 4, block, PATTERNS)
               if op["kind"] == "raw"]
        dealt = [r for r in raw if r[1] in universe]
        self.assertEqual(sorted(r[1] for r in dealt), sorted(universe))
        share = len(universe) / blocks / len(inputs.RAW_SPANS)
        for block in range(blocks):
            for span in inputs.RAW_SPANS:
                n = sum(1 for r in dealt if r[0] == block and r[2] == span)
                self.assertLessEqual(abs(n - share), 1)
        self.assertEqual(len(raw) - len(dealt),
                         inputs.RAW_DRAWN_PER_BLOCK * blocks)

    def test_scan_mix_does_not_depend_on_the_seed(self):
        def mix(seed):
            return sorted((op["kind"], op["pattern"], len(op["series"]))
                          for op in inputs.block_ops("scan", seed, 0,
                                                     PATTERNS))
        self.assertEqual(mix(1), mix(2))


class TestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.entries = {e.name: e for e in catalogue.all_entries()}
        cls.check = staticmethod(ops.checker(PATTERNS, cls.entries))

    def test_certify_flags_bound_plus_one(self):
        op = ops.prepare({"kind": "cell", "pattern": "peak", "n": 5,
                          "lo": 0, "hi": 2}, self.entries)
        self.assertEqual(self.check(op, ops.run_cell(op, self.entries)), [])

        def plus_one(*args):
            res = bounds.bound(*args)
            return dataclasses.replace(res, value=res.value + 1)

        planted = ops.run_cell(op, self.entries, bound_fn=plus_one)
        self.assertNotEqual(self.check(op, planted), [])

    def test_scan_flags_evaluate_off_by_one(self):
        op = ops.prepare({"kind": "walk", "pattern": "peak", "g": "sum",
                          "f": "width",
                          "series": inputs.random_walk(
                              inputs.random.Random(2), 300)}, self.entries)
        self.assertEqual(self.check(op, ops.run_scan(op, self.entries)), [])
        planted = ops.run_scan(
            op, self.entries,
            evaluate_fn=lambda *args: series.evaluate(*args) + 1)
        self.assertNotEqual(self.check(op, planted), [])

    def test_analyze_flags_wrong_golden_value(self):
        op = ops.prepare({"kind": "catalogue", "pattern": "peak", "span": 1,
                          "ns": (3, 4)}, self.entries)
        out = ops.run_catalogue(op, self.entries)
        self.assertEqual(self.check(op, out), [])
        out["reports"][0] = dataclasses.replace(out["reports"][0],
                                                omega=out["reports"][0].omega
                                                + 1)
        self.assertNotEqual(self.check(op, out), [])

    def test_reference_matches_the_worked_figure(self):
        # README and acceptance 3: peak on this series has maximal
        # occurrences (4,9) and (11,17), trimmed widths 5 and 6
        figure = (4, 4, 0, 0, 2, 4, 4, 7, 4, 0, 0, 2, 2, 2, 2, 2, 2, 0)
        peak = reference.Matcher("<(<|=)*(>|=)*>")
        self.assertEqual(peak.maximal_spans(reference.signature(figure)),
                         [(4, 9), (11, 17)])
        self.assertEqual(reference.evaluate(peak, 1, 1, "width", "min",
                                            figure), 5)


class TestReferenceSpeed(unittest.TestCase):
    def test_each_time_scales_with_the_calibrations_around_it(self):
        ref = calibration.REF_S
        block = {"durations_s": [0.010, 0.010],
                 "calibration_s": [ref, ref, 3 * ref]}
        for got, want in zip(run.at_reference_speed(block), [0.010, 0.005]):
            self.assertAlmostEqual(got, want)


class TestRun(unittest.TestCase):
    def declared(self, key: str) -> list[str]:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [m["name"] for m in spec[key]]

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("scan", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            last = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(last), ["attempted", "correct", "failed",
                                            "metrics"])
            self.assertTrue(last["correct"])
            self.assertEqual(list(last["metrics"]), self.declared(key))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = run_bench("scan", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
