"""Closed-form result bounds and the dispatch in front of them."""

import math
from itertools import product

import pytest
from helpers import raw_universe

from sigbounds import bounds as bd
from sigbounds import catalogue
from sigbounds import characteristics as ch
from sigbounds.bounds import BoundResult, Side
from sigbounds.characteristics import CharValue
from sigbounds.oracle import brute_extrema
from sigbounds.series import Aggregator, Domain, Feature, PatternSpec

PEAK = PatternSpec("peak", "<(<|=)*(>|=)*>", a=1, b=1)
GORGE = PatternSpec("gorge", "(>(>|=)*)*><((<|=)*<)*", a=1, b=1)
DEC_TER = PatternSpec("dec_ter", ">=+>", a=1, b=1)
BUMP = PatternSpec("bump", ">><>>", a=1, b=2)
DEC = PatternSpec("dec", ">")
DEC_SEQ = PatternSpec("dec_seq", "(>(>|=)*)*>")
SDS = PatternSpec("sds", ">+")
STEADY = PatternSpec("steady", "=")
STEADY_SEQ = PatternSpec("steady_seq", "=+")
ZIGZAG = PatternSpec("zigzag", "(<>)+<(>|1)|(><)+>(<|1)", a=1, b=1)


class TestBoundResult:
    def test_sharpness_requires_preconditions(self):
        with pytest.raises(ValueError):
            BoundResult(1, Side.UPPER, True, "x", (("p", False),))
        # unsharp results may carry failed preconditions
        BoundResult(1, Side.UPPER, False, "x", (("p", False),))

    def test_json_shape(self):
        got = bd.nb_lower(PEAK, 5, Domain(0, 1)).to_json()
        assert got == {
            "value": 0,
            "side": "lower",
            "sharp": True,
            "source": "nb-simple-lower",
            "preconditions": [{"label": "nb-simple", "holds": True}],
            "m_used": None,
        }

    def test_infinite_values_serialize_as_strings(self):
        got = bd.min_width_lower(BUMP, 7, Domain(0, 1)).to_json()
        assert got["value"] == "+inf"
        assert got["source"] == "occurrence-infeasible"


class TestOccurrenceCount:
    def test_lower_is_zero_when_avoidable(self):
        r = bd.nb_lower(PEAK, 5, Domain(0, 1))
        assert (r.value, r.sharp, r.source) == (0, True, "nb-simple-lower")

    def test_lower_zero_needs_a_signature_without_occurrence(self):
        # nb-simple holds, yet over 0:1 every series of four to six values
        # has an occurrence, so zero is claimed only up to n = 3
        spec = PatternSpec("raw", "=*=?(>=)*(<>)*")
        d = Domain(0, 1)
        for n in range(2, 7):
            brute = brute_extrema(spec, Feature.ONE, Aggregator.SUM, n, d)
            if n <= 3:
                r = bd.nb_lower(spec, n, d)
                assert (r.value, r.sharp, brute.min_all) == (0, True, 0)
            else:
                assert brute.min_all > 0
                with pytest.raises(bd.NotApplicableError,
                                   match=f"every series of length {n} over "
                                         "0:1 has an occurrence"):
                    bd.nb_lower(spec, n, d)

    def test_single_series_domain_counts_exactly(self):
        lo = bd.nb_lower(STEADY, 4, Domain(0, 0))
        up = bd.nb_upper(STEADY, 4, Domain(0, 0))
        assert lo.value == up.value == 3
        assert lo.source == up.source == "unique-series-count"
        assert lo.sharp and up.sharp

    def test_upper_zero_when_infeasible(self):
        r = bd.nb_upper(PEAK, 2, Domain(0, 1))
        assert (r.value, r.sharp, r.source) == (
            0, True, "occurrence-infeasible")

    def test_peak_packs_three_variables_each(self):
        r = bd.nb_upper(PEAK, 6, Domain(0, 1))
        assert (r.value, r.sharp, r.source, r.m_used) == (
            2, True, "nb-interval-structure", 6)

    def test_variation_limits_the_packing_interval(self):
        got = [bd.nb_upper(DEC_TER, n, Domain(0, 3)).value
               for n in range(2, 13)]
        assert got == [0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4]
        assert bd.nb_upper(DEC_TER, 8, Domain(0, 3)).m_used == 6

    def test_unsharp_fallback_keeps_failed_precondition(self):
        r = bd.nb_upper(ZIGZAG, 7, Domain(0, 1))
        assert (r.value, r.sharp, r.source) == (1, False, "nb-density-cap")
        assert ("nb-no-overlap", False) in r.preconditions


class TestIntervalCap:
    def test_zero_variation_means_no_restart(self):
        assert bd.interval_cap(PEAK, Domain(0, 1)) == math.inf

    def test_signed_variation_exhausts_the_domain(self):
        assert bd.interval_cap(DEC_TER, Domain(0, 3)) == 6
        assert bd.interval_cap(DEC, Domain(0, 2)) == 3

    def test_memoized_by_span(self, monkeypatch):
        calls = []
        settled = bd._settled_variation

        def counted(spec, d):
            calls.append((spec.name, d.span))
            return settled(spec, d)

        monkeypatch.setattr(bd, "_settled_variation", counted)
        expected = {"decreasing": [math.inf, 3, 4],
                    "decreasing_terrace": [math.inf, math.inf, 6],
                    "peak": [math.inf] * 3}
        for name, caps in expected.items():
            e = catalogue.lookup(name).spec
            spec = PatternSpec(e.name, e.expr, e.a, e.b)
            for span, cap in zip((1, 2, 3), caps):
                for lo in (0, 3):
                    assert bd.interval_cap(spec, Domain(lo, lo + span)) \
                        == cap, (name, lo, span)
        assert sorted(calls) == sorted(product(expected, (1, 2, 3)))


@pytest.mark.parametrize("reader, name", [("overlap", "overlap"),
                                          ("smallest_variation", "variation")])
def test_an_unsettled_characteristic_refuses_the_packing_bound(
        monkeypatch, reader, name):
    # the packing formulas read a settled overlap and variation, never a
    # capped guess; a fresh spec has no memoized answer to read instead
    monkeypatch.setattr(ch, reader,
                        lambda spec, d, cap=None: CharValue.cap_limited(1, 6))
    spec = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
    want = rf"^{name} not settled: cap_limited\(1, cap=6\)$"
    with pytest.raises(bd.NotApplicableError, match=want):
        bd.bound(Aggregator.SUM, Feature.ONE, Side.UPPER, spec, 9,
                 Domain(0, 1))


class TestMaxWidth:
    def test_saturated_domain_gives_full_trimmed_length(self):
        assert bd.max_width_upper(PEAK, 6, Domain(0, 1)).value == 4

    def test_narrow_domain_caps_the_width(self):
        assert bd.max_width_upper(DEC_SEQ, 7, Domain(0, 1)).value == 2

    def test_missing_range_template_raises(self):
        with pytest.raises(bd.PropertyMissingError) as err:
            bd.max_width_upper(BUMP, 7, Domain(0, 2))
        assert err.value.missing == ("width-max",)
        assert "range-template" in str(err.value)


class TestSumWidth:
    def test_saturated_domain(self):
        assert bd.sum_width_upper(GORGE, 7, Domain(0, 2)).value == 5
        assert bd.sum_width_upper(ZIGZAG, 7, Domain(0, 1)).value == 5

    def test_full_range_pattern_alternates(self):
        # odd lengths lose one variable to the parity correction
        assert bd.sum_width_upper(SDS, 5, Domain(0, 1)).value == 4
        assert bd.sum_width_upper(SDS, 6, Domain(0, 1)).value == 6

    def test_missing_properties_are_listed(self):
        with pytest.raises(bd.PropertyMissingError) as err:
            bd.sum_width_upper(DEC, 5, Domain(0, 3))
        assert err.value.missing == ("width-max", "width-sum")


class TestMinWidth:
    def test_shortest_pattern_is_attainable(self):
        r = bd.min_width_lower(PEAK, 6, Domain(0, 1))
        assert (r.value, r.sharp, r.source) == (
            1, True, "min-width-shortest-pattern")

    def test_infeasible_is_plus_infinity(self):
        r = bd.min_width_lower(BUMP, 7, Domain(0, 1))
        assert r.value == math.inf
        assert r.sharp

    def test_single_series_domain(self):
        r = bd.min_width_lower(STEADY_SEQ, 5, Domain(1, 1))
        assert (r.value, r.sharp, r.source) == (
            5, True, "unique-series-min-width")

    def test_fixed_length_pattern_has_no_rule(self):
        with pytest.raises(bd.NotApplicableError):
            bd.min_width_lower(DEC, 5, Domain(0, 2))


class TestDispatch:
    def test_supported_combinations_match_direct_calls(self):
        n, d = 6, Domain(0, 1)
        assert len(bd.RULES) == 5
        for (g, f, side), rule in bd.RULES.items():
            res = bd.bound(g, f, side, PEAK, n, d)
            assert res == rule(PEAK, n, d)
            assert res.side is side

    def test_unsupported_combination_says_which(self):
        with pytest.raises(bd.NotSupportedError) as err:
            bd.bound(Aggregator.MAX, Feature.WIDTH, Side.LOWER,
                     PEAK, 5, Domain(0, 1))
        assert str(err.value) == "no closed-form lower bound for max of width"

    def test_short_series_rejected_everywhere(self):
        for fn in (bd.nb_lower, bd.nb_upper, bd.max_width_upper,
                   bd.sum_width_upper, bd.min_width_lower):
            with pytest.raises(ValueError):
                fn(PEAK, 1, Domain(0, 1))


_MIRROR = str.maketrans("<>", "><")


def _answer(rule, spec: PatternSpec, n: int, d: Domain):
    """The rule's result, or None where it refuses to answer."""
    try:
        return rule(spec, n, d)
    except bd.BoundError:
        return None


class TestMirrorImage:
    def test_rules_agree_with_their_mirror_images(self):
        # x -> lo + hi - x takes a series to one with the mirrored
        # signature, the same occurrences and the same widths, so every
        # extreme is mirror-invariant: a rule answers on both sides or on
        # neither, two sharp answers are equal, and a sharp answer is not
        # beyond the other side's bound
        specs = [e.spec for e in catalogue.all_entries()]
        specs += [PatternSpec(r, r) for r in raw_universe()]
        assert len(specs) == 430
        conflicts = []
        both_sharp = 0
        for spec in specs:
            mirror = PatternSpec(spec.name + " mirrored",
                                 spec.expr.translate(_MIRROR), spec.a, spec.b)
            for span, n in product((1, 2, 3), (5, 9, 14, 30)):
                d = Domain(0, span)
                for key, rule in bd.RULES.items():
                    res, mir = (_answer(rule, s, n, d) for s in (spec, mirror))
                    case = (spec.expr, spec.a, spec.b, str(d), n, key, res, mir)
                    if res is None or mir is None:
                        if res is not mir:
                            conflicts.append(case)
                        continue
                    if res.sharp and mir.sharp:
                        both_sharp += 1
                        if res.value != mir.value:
                            conflicts.append(case)
                    for sharp, other in ((res, mir), (mir, res)):
                        if not sharp.sharp:
                            continue
                        if key[2] is Side.UPPER and sharp.value > other.value:
                            conflicts.append(case)
                        if key[2] is Side.LOWER and sharp.value < other.value:
                            conflicts.append(case)
        assert not conflicts, conflicts[:5]
        assert both_sharp > 0
