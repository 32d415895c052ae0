"""Acceptance gate.

Eight checks certify the package end to end: golden characteristics for
the whole catalogue, a full validity-and-sharpness sweep against the
exhaustive oracle, the worked figure, closed-form formula instances,
agreement between the bounded search and the pair-by-pair oracle, the
height formula, the occurrence-feasibility condition, and the shipped-data
inventory.  Each test prints one PASS/FAIL line to the real stdout so the
verdicts stay visible under output capture.
"""

import hashlib
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import sigbounds
from helpers import (bounded_height_automaton, height_oracle,
                     naive_match_spans, off_by_one)
from sigbounds import bounds as bd
from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds import oracle as orc
from sigbounds import properties as pr
from sigbounds.characteristics import CharKind, CharValue
from sigbounds.series import (
    Aggregator,
    Domain,
    Feature,
    PatternSpec,
    TimeSeries,
    evaluate,
    maximal_occurrences,
    signature,
    word_height,
)


# sha256 of the JSON rows of the default-grid sweep over the catalogue
ROWS_SHA256 = (
    "caec45a2eaf1d18e269c5a8cdaf644dcdbafb5a7016ef1783dbdbc4f4d0b754a")
# the same with every bound one step too tight, counterexamples included
OFF_BY_ONE_ROWS_SHA256 = (
    "054b0641c0675ee2227d7ce5cd5c151240034208c744b4f4a1ea36607b8fed7d")

FIGURE = TimeSeries((4, 4, 0, 0, 2, 4, 4, 7, 4, 0, 0, 2, 2, 2, 2, 2, 2, 0))


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _live(self, capfd):
        # keep a handle so verdict lines can bypass output capture
        self._capfd = capfd
        yield

    def _announce(self, num: int, name: str, ok: bool,
                  detail: str = "") -> None:
        text = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            text += f"  ({detail})"
        with self._capfd.disabled():
            print(text, flush=True)

    @contextmanager
    def criterion(self, num: int, name: str):
        info = {"detail": ""}
        try:
            yield info
        except BaseException:
            self._announce(num, name, False)
            raise
        self._announce(num, name, True, info["detail"])
    def test_1_golden_characteristics(self):
        with self.criterion(1, "golden-characteristics") as c:
            t0 = time.time()
            mismatches = []
            reports = 0
            for entry in cat.all_entries():
                spec = entry.spec
                for span in (entry.eta, entry.eta + 1, entry.eta + 2):
                    for n in (entry.omega + 1, entry.omega + 2):
                        rep = ch.report(spec, Domain(0, span), n)
                        reports += 1
                        for m in cat.golden_check(entry, rep):
                            mismatches.append((entry.name, span, n, m))
            assert mismatches == []
            # the case splits called out explicitly
            dec = cat.lookup("dec").spec
            assert ch.overlap(dec, Domain(0, 1)) == CharValue.defined(0)
            assert ch.overlap(dec, Domain(0, 2)) == CharValue.defined(1)
            assert ch.smallest_variation(dec, Domain(0, 1)) \
                == CharValue.defined(0)
            assert ch.smallest_variation(dec, Domain(0, 2)) \
                == CharValue.defined(-1)
            zz = cat.lookup("zigzag").spec
            assert ch.overlap(zz, Domain(0, 1)) == CharValue.defined(0)
            assert ch.overlap(zz, Domain(0, 2)) == CharValue.defined(1)
            assert ch.overlap(zz, Domain(0, 3)) == CharValue.defined(1)
            elapsed = time.time() - t0
            assert elapsed < 60
            c["detail"] = f"{reports} reports, 0 mismatches, {elapsed:.1f}s"

    def test_2_sharpness_sweep(self):
        with self.criterion(2, "sharpness-sweep") as c:
            t0 = time.time()
            rep = orc.sharpness_report(
                [entry.spec for entry in cat.all_entries()]
            )
            assert rep.ok, [r.to_json() for r in rep.failures[:5]]
            assert rep.summary() == {
                "rows": 1980,
                "checked": 1794,
                "skipped": 186,
                "failed": 0,
                "sharp_confirmed": 1782,
            }
            # every skip names the rule that refused, nothing else
            kinds = {r.skip.split(":")[0] for r in rep.skips}
            assert kinds == {"PropertyMissingError", "NotApplicableError"}
            # every row, witnesses included, byte for byte
            rows = json.dumps(rep.to_json()["rows"]).encode()
            assert hashlib.sha256(rows).hexdigest() == ROWS_SHA256
            # the failing path timed on its own: cells with a row one step
            # too tight descend for their counterexamples
            t1 = time.time()
            tight = orc.sharpness_report(
                [entry.spec for entry in cat.all_entries()],
                bound_fn=off_by_one)
            tight_s = time.time() - t1
            rows = json.dumps(tight.to_json()["rows"]).encode()
            assert hashlib.sha256(rows).hexdigest() == OFF_BY_ONE_ROWS_SHA256
            elapsed = time.time() - t0
            assert elapsed < 600
            s = rep.summary()
            c["detail"] = (
                f"{s['rows']} rows, {s['sharp_confirmed']} sharp confirmed, "
                f"{s['skipped']} skipped, 0 failed, {elapsed:.1f}s; "
                f"off-by-one sweep {tight_s:.2f}s"
            )

    def test_3_worked_figure(self):
        with self.criterion(3, "worked-figure") as c:
            peak = cat.lookup("peak").spec
            occs = maximal_occurrences(peak, signature(FIGURE))
            assert [(o.i, o.j) for o in occs] == [(4, 9), (11, 17)]
            widths = [
                hi - lo + 1
                for o in occs
                for lo, hi in [o.trimmed(peak.a, peak.b)]
            ]
            assert widths == [5, 6]
            assert evaluate(peak, Feature.WIDTH, Aggregator.MIN, FIGURE) == 5
            c["detail"] = "min width 5, occurrence widths 5 and 6"

    def test_4_formula_instances(self):
        with self.criterion(4, "formula-instances") as c:
            dec_ter = cat.lookup("dec_ter").spec
            d2 = Domain(0, 2)
            got = [bd.nb_upper(dec_ter, n, d2).value for n in range(2, 13)]
            assert got == [n // 4 for n in range(2, 13)]
            for n in range(2, 9):
                ex = orc.brute_extrema(dec_ter, Feature.ONE, Aggregator.SUM,
                                       n, d2)
                assert ex.max_all == n // 4, n
            caps = [bd.interval_cap(dec_ter, Domain(0, u))
                    for u in range(3, 7)]
            assert caps == [(u - 1) * 2 + 2 for u in range(3, 7)]
            c["detail"] = ("count bound matches floor(n/4) on n in 2..12, "
                           "oracle-confirmed to n=8; interval caps 6,8,10,12")

    def test_5_characteristic_oracle_equivalence(self):
        with self.criterion(5, "characteristic-oracle-equivalence") as c:
            t0 = time.time()
            cells = 0
            for entry in cat.all_entries():
                spec = entry.spec
                cap = entry.omega + 2
                for span in (entry.eta, entry.eta + 1, entry.eta + 2):
                    d = Domain(0, span)
                    assert ch.overlap(spec, d, cap) \
                        == orc.brute_overlap(spec, d, cap), (entry.name, span)
                    assert ch.smallest_variation(spec, d, cap) \
                        == orc.brute_variation(spec, d, cap), \
                        (entry.name, span)
                    cells += 1
            unbounded = PatternSpec("two_ramps", "<=*|=*>")
            assert ch.overlap(unbounded, Domain(0, 3)).kind \
                is CharKind.UNBOUNDED
            assert orc.brute_overlap(unbounded, Domain(0, 3)).kind \
                is CharKind.UNBOUNDED
            elapsed = time.time() - t0
            c["detail"] = (f"{cells} cells agree, unbounded case flagged, "
                           f"{elapsed:.1f}s")

    def test_6_word_height_formula(self):
        with self.criterion(6, "word-height-formula") as c:
            t0 = time.time()
            words = 0
            for k in range(9):
                for tup in itertools.product("<=>", repeat=k):
                    w = "".join(tup)
                    assert word_height(w) == height_oracle(w), w
                    words += 1
            elapsed = time.time() - t0
            assert elapsed < 30
            c["detail"] = f"{words} words, {elapsed:.1f}s"

    def test_7_feasibility_condition(self):
        with self.criterion(7, "occurrence-feasibility-condition") as c:
            t0 = time.time()
            checked = 0
            for span in range(4):
                for n in range(2, 8):
                    words = list(bounded_height_automaton(span).words(n - 1))
                    for entry in cat.all_entries():
                        spec = entry.spec
                        by_search = any(
                            naive_match_spans(spec.aut, w) for w in words
                        )
                        assert pr.occurrence_feasible(
                            spec, n, Domain(0, span)) == by_search, \
                            (entry.name, n, span)
                        checked += 1
            elapsed = time.time() - t0
            c["detail"] = f"{checked} combinations, {elapsed:.1f}s"

    def test_8_no_measurement_data_shipped(self):
        with self.criterion(8, "shipped-data-inventory") as c:
            pkg_dir = Path(sigbounds.__file__).parent
            extras = sorted(
                p.name for p in pkg_dir.rglob("*")
                if p.is_file()
                and p.suffix != ".py"
                and "__pycache__" not in p.parts
            )
            assert extras == ["catalogue.json"]
            data = json.loads((pkg_dir / "catalogue.json").read_text())
            assert set(data) == {"schema_version", "patterns"}
            allowed = {
                "name", "expr", "a", "b", "omega", "eta", "ec", "inducing",
                "overlap_cases", "delta_cases", "range_cases",
            }
            for raw in data["patterns"]:
                assert set(raw) == allowed, raw["name"]
            c["detail"] = ("only catalogue.json shipped, reference "
                           "characteristics only")
