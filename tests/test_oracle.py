"""Exhaustive oracle: exact extrema, raw-definition characteristics, and
the sweep that certifies every closed-form bound against enumeration."""

import itertools
import math

import pytest

from helpers import naive_anchored_candidates
from sigbounds import bounds as bd
from sigbounds import catalogue as cat
from sigbounds import oracle as orc
from sigbounds.bounds import BoundResult, Side
from sigbounds.characteristics import CharValue
from sigbounds.series import (
    Aggregator,
    DEFAULT_POLICY,
    Domain,
    Feature,
    NEUTRAL_POLICY,
    PatternSpec,
    TimeSeries,
    _least_support,
    evaluate,
    iter_supporting_series,
    signature,
    supporting_series,
)

PEAK = PatternSpec("peak", "<(<|=)*(>|=)*>", a=1, b=1)
DEC = PatternSpec("dec", ">")
ZIGZAG = PatternSpec("zigzag", "(<>)+<(>|1)|(><)+>(<|1)", a=1, b=1)


class TestBruteExtrema:
    def test_peak_width_extrema(self):
        ex = orc.brute_extrema(PEAK, Feature.WIDTH, Aggregator.MAX,
                               4, Domain(0, 1))
        assert ex.count == 16
        assert (ex.min_all, ex.max_all) == (0, 2)
        assert (ex.min_occ, ex.max_occ) == (1, 2)
        assert ex.witness_min == TimeSeries((0, 0, 0, 0))
        assert ex.witness_max == TimeSeries((0, 1, 1, 0))

    def test_witnesses_reverify(self):
        ex = orc.brute_extrema(PEAK, Feature.WIDTH, Aggregator.MAX,
                               4, Domain(0, 1))
        assert evaluate(PEAK, Feature.WIDTH, Aggregator.MAX,
                        ex.witness_max) == ex.max_all
        assert evaluate(PEAK, Feature.WIDTH, Aggregator.MAX,
                        ex.witness_min) == ex.min_all

    def test_no_occurrence_extrema_degenerate(self):
        # span 0 never supports a peak
        ex = orc.brute_extrema(PEAK, Feature.ONE, Aggregator.SUM,
                               3, Domain(0, 0))
        assert (ex.min_occ, ex.max_occ) == (math.inf, -math.inf)
        assert (ex.min_all, ex.max_all) == (0, 0)

    def test_json_shape(self):
        ex = orc.brute_extrema(PEAK, Feature.WIDTH, Aggregator.MAX,
                               4, Domain(0, 1))
        assert ex.to_json() == {
            "n": 4, "domain": "0:1", "count": 16,
            "min_all": 0, "max_all": 2, "min_occ": 1, "max_occ": 2,
            "witness_min": "0,0,0,0", "witness_max": "0,1,1,0",
        }

    def test_budget_refuses_oversized_cells(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.check_budget(30, Domain(0, 1))
        with pytest.raises(orc.BudgetExceededError):
            orc.brute_extrema(PEAK, Feature.ONE, Aggregator.SUM,
                              30, Domain(0, 1))
        assert orc.check_budget(10, Domain(0, 1)) == 1024


class TestCellExtrema:
    @pytest.mark.parametrize("name", ["peak", "zigzag", "decreasing_terrace",
                                      "steady_sequence"])
    def test_signature_memo_matches_brute_force(self, name):
        spec = cat.lookup(name).spec
        gfs = [(g, f) for g, f, _ in orc.GF_SUPPORTED]
        grid = [(d, n) for d in (Domain(0, 1), Domain(0, 2))
                for n in range(2, 7)]
        grid += [(Domain(0, 3), n) for n in range(2, 6)]
        # the neutral policy leaves max at -inf without occurrences, so
        # extremes that stay infinite keep no witness
        for policy in (DEFAULT_POLICY, NEUTRAL_POLICY):
            for d, n in grid:
                cells = orc._cell_extrema(spec, n, d, gfs, policy)
                for g, f in gfs:
                    got = cells[(g, f)]
                    ref = orc.brute_extrema(spec, f, g, n, d, policy=policy)
                    assert _extrema_fields(got) == _extrema_fields(ref), \
                        (name, g, f, n, d, policy)

    def test_value_dependent_feature_is_refused(self):
        with pytest.raises(ValueError, match="surf"):
            orc._cell_extrema(PEAK, 4, Domain(0, 1),
                              [(Aggregator.SUM, Feature.SURF)],
                              DEFAULT_POLICY)

        def surf_bound(g, f, side, spec, n, d, cap=None):
            return BoundResult(0, side, False, "test")

        with pytest.raises(ValueError, match="surf"):
            orc.sharpness_report(
                [PEAK], [(Aggregator.SUM, Feature.SURF, Side.UPPER)],
                n_range=[4], domains=[Domain(0, 1)], bound_fn=surf_bound)


class TestSignatureSupport:
    WORDS = ["".join(t) for k in range(7)
             for t in itertools.product("<=>", repeat=k)]

    def test_count_matches_enumeration(self):
        for d in (Domain(0, 0), Domain(0, 1), Domain(0, 2), Domain(0, 3)):
            for w in self.WORDS:
                assert orc._support_count(w, d) == \
                    len(supporting_series(w, d)), (w, d)

    def test_least_series_matches_enumeration(self):
        for d in (Domain(0, 0), Domain(0, 1), Domain(0, 2), Domain(0, 3)):
            for w in self.WORDS:
                assert _least_support(w, d) == \
                    next(iter_supporting_series(w, d), None), (w, d)


def _extrema_fields(ex):
    return (ex.min_all, ex.max_all, ex.min_occ, ex.max_occ, ex.count,
            ex.witness_min, ex.witness_max)


class TestRawCharacteristics:
    def test_overlap_from_raw_definition(self):
        assert orc.brute_overlap(DEC, Domain(0, 2), cap=3) \
            == CharValue.defined(1)
        assert orc.brute_overlap(DEC, Domain(0, 1), cap=3) \
            == CharValue.defined(0)
        assert orc.brute_overlap(PEAK, Domain(0, 1), cap=4) \
            == CharValue.defined(1)

    def test_variation_from_raw_definition(self):
        assert orc.brute_variation(DEC, Domain(0, 2), cap=3) \
            == CharValue.defined(-1)
        assert orc.brute_variation(PEAK, Domain(0, 1), cap=4) \
            == CharValue.defined(0)

    def test_anchored_candidates_match_generate_and_test(self):
        words = ["".join(t) for k in range(5)
                 for t in itertools.product("<=>", repeat=k)]
        for v, w in itertools.product(words, words):
            for length in range(max(len(v), len(w)), len(v) + len(w) + 2):
                assert list(orc._anchored_candidates(v, w, length)) == list(
                    naive_anchored_candidates(v, w, length)), (v, w, length)

    def test_budget_applies_to_gluing_search(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.brute_overlap(PEAK, Domain(0, 1), budget=5)


# two-branch raw regexes mixing a branch whose width grows with the span
# and a fixed branch that is wider at small spans
MIXED_BRANCHES = ("<*<<|=<", "<*>>|<", "<<*<|<=", "<?<|<<>*", "<|>*<<",
                  "=>|<<<*", ">=|>>>*", ">>*>|><")


class TestSweep:
    def test_mixed_branch_raw_regexes_pass_the_default_grid(self):
        specs = [PatternSpec(e, e) for e in MIXED_BRANCHES]
        rep = orc.sharpness_report(specs)
        assert rep.failures == []

    def test_clean_cell_confirms_all_bounds(self):
        rep = orc.sharpness_report([PEAK], n_range=[4],
                                   domains=[Domain(0, 1)])
        assert rep.ok
        assert rep.summary() == {
            "rows": 5, "checked": 5, "skipped": 0, "failed": 0,
            "sharp_confirmed": 5,
        }

    def test_skips_carry_the_refusing_error(self):
        rep = orc.sharpness_report([DEC], n_range=[3],
                                   domains=[Domain(0, 2)])
        assert rep.ok
        assert rep.summary() == {
            "rows": 5, "checked": 2, "skipped": 3, "failed": 0,
            "sharp_confirmed": 2,
        }
        kinds = {r.skip.split(":")[0] for r in rep.skips}
        assert kinds == {"PropertyMissingError", "NotApplicableError"}

    def test_unsharp_rows_pass_without_attainment(self):
        # the density fallback for zigzag counts is valid but not sharp
        rep = orc.sharpness_report([ZIGZAG], n_range=[7],
                                   domains=[Domain(0, 1)])
        assert rep.ok
        nb_up = [r for r in rep.rows
                 if (r.g, r.f, r.side) ==
                 (Aggregator.SUM, Feature.ONE, Side.UPPER)]
        assert len(nb_up) == 1
        assert not nb_up[0].sharp_claimed
        assert nb_up[0].valid

    def test_invalid_bound_is_caught_with_counterexample(self):
        def too_low(g, f, side, spec, n, d, cap=None):
            r = bd.bound(g, f, side, spec, n, d, cap)
            if side is Side.UPPER:
                return BoundResult(r.value - 1, r.side, False, r.source,
                                   r.preconditions, r.m_used)
            return r

        rep = orc.sharpness_report([PEAK], n_range=[4],
                                   domains=[Domain(0, 1)],
                                   bound_fn=too_low)
        assert not rep.ok
        assert rep.summary()["failed"] == 3
        for row in rep.failures:
            assert row.valid is False
            assert row.counterexample is not None
            got = evaluate(PEAK, row.f, row.g, row.counterexample)
            assert got > row.bound

    def test_unattained_sharp_claim_is_caught(self):
        def too_high(g, f, side, spec, n, d, cap=None):
            r = bd.bound(g, f, side, spec, n, d, cap)
            if side is Side.UPPER:
                return BoundResult(r.value + 1, r.side, r.sharp, r.source,
                                   r.preconditions, r.m_used)
            return r

        rep = orc.sharpness_report([PEAK], n_range=[4],
                                   domains=[Domain(0, 1)],
                                   bound_fn=too_high)
        assert not rep.ok
        assert rep.summary()["failed"] == 3
        for row in rep.failures:
            assert row.valid is True
            assert row.attained is False

    @pytest.mark.parametrize("name", ["decreasing_terrace",
                                      "increasing_terrace", "peak"])
    def test_deeper_grid_where_the_interval_cap_binds(self, name):
        # over 0:3 the terraces' interval cap is 6, so it binds at every n
        # here and the restart term steps their count bound at n = 10
        rep = orc.sharpness_report([cat.lookup(name).spec],
                                   n_range=range(8, 11),
                                   domains=[Domain(0, 3)])
        summary = rep.summary()
        assert summary["failed"] == 0
        assert summary["sharp_confirmed"] == sum(
            1 for r in rep.rows if r.skip is None and r.sharp_claimed)

    def test_budget_rejects_before_enumerating(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.sharpness_report([PEAK], n_range=range(2, 31),
                                 domains=[Domain(0, 1)])

    def test_row_json_shape(self):
        rep = orc.sharpness_report([PEAK], n_range=[4],
                                   domains=[Domain(0, 1)])
        row = rep.rows[0].to_json()
        assert set(row) == {
            "pattern", "g", "f", "side", "n", "domain", "bound",
            "sharp_claimed", "source", "brute_min", "brute_max",
            "valid", "attained", "skip", "counterexample",
        }
        top = rep.to_json()
        assert set(top) == {"summary", "rows"}
        assert len(top["rows"]) == 5

    def test_supported_combinations(self):
        assert len(orc.GF_SUPPORTED) == 5
        assert (Aggregator.MIN, Feature.WIDTH, Side.LOWER) in orc.GF_SUPPORTED

    def test_supported_combinations_are_the_rule_table(self):
        assert orc.GF_SUPPORTED == tuple(bd.RULES)
