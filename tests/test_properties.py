"""Structural property decisions and the witnesses they return."""

import pytest

from helpers import carries_maximal_per_word, raw_universe
from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds import properties as pr
from sigbounds.characteristics import CharValue
from sigbounds.properties import FixedLengthRegexError
from sigbounds.series import Domain, PatternSpec, word_height

PEAK = PatternSpec("peak", "<(<|=)*(>|=)*>", a=1, b=1)
DEC_TER = PatternSpec("dec_ter", ">=+>", a=1, b=1)
DEC_SEQ = PatternSpec("dec_seq", "(>(>|=)*)*>")
ZIGZAG = PatternSpec("zigzag", "(<>)+<(>|1)|(><)+>(<|1)", a=1, b=1)
STEADY = PatternSpec("steady", "=")


def _fresh(spec: PatternSpec) -> PatternSpec:
    """An equal spec with an empty memo, so a patched reader is asked."""
    return PatternSpec(spec.name, spec.expr, spec.a, spec.b)


def _unsettled(spec, d, cap=None):
    """What the cap probe answers when caps cap and cap + 2 disagree."""
    return CharValue.cap_limited(1, 6)


class TestOccurrenceFeasible:
    def test_needs_room_in_both_directions(self):
        assert pr.occurrence_feasible(PEAK, 3, Domain(0, 1))
        assert not pr.occurrence_feasible(PEAK, 2, Domain(0, 1))
        assert not pr.occurrence_feasible(PEAK, 3, Domain(0, 0))

    def test_matches_exhaustive_search(self):
        from sigbounds.series import enumerate_series, maximal_occurrences, \
            signature
        for n in (2, 3, 4):
            for span in (0, 1, 2):
                d = Domain(0, span)
                found = any(
                    maximal_occurrences(PEAK, signature(t))
                    for t in enumerate_series(n, d)
                )
                assert pr.occurrence_feasible(PEAK, n, d) == found

    def test_shortest_word_too_tall_for_the_domain(self):
        # "<<" is the shortest word but needs span 2; over [0,1] the
        # first supportable word is "<><>", so n must reach 5
        from sigbounds.series import enumerate_series, maximal_occurrences, \
            signature
        spec = PatternSpec("tall_first", "<<|<><>")
        d = Domain(0, 1)
        for n in range(2, 7):
            found = any(
                maximal_occurrences(spec, signature(t))
                for t in enumerate_series(n, d)
            )
            assert found == (n >= 5)
            assert pr.occurrence_feasible(spec, n, d) == found


class TestOccurrenceAvoidable:
    def test_matches_exhaustive_search(self):
        from sigbounds.series import enumerate_series, maximal_occurrences, \
            signature
        # "=|<>" is avoided over 0:1 only by signatures starting with ">"
        exprs = raw_universe()[::17] + ["=*=?(>=)*(<>)*", "=|<>", "0", "1"]
        # the constant and alternating tries settle every catalogue call,
        # so the factor-free words are checked on their own as well
        specs = ([PatternSpec(expr, expr) for expr in exprs]
                 + [e.spec for e in cat.all_entries()])
        for spec in specs:
            for span in (0, 1, 2, 3):
                d = Domain(0, span)
                for n in range(2, 8):
                    found = any(
                        not maximal_occurrences(spec, signature(t))
                        for t in enumerate_series(n, d)
                    )
                    assert pr.occurrence_avoidable(spec, n, d) == found, (
                        spec.name, n, d)
                    assert pr._factor_free(spec, span).has_length(
                        n - 1) == found, (spec.name, n, d)


class TestMinimalWords:
    def test_shortest_words_of_least_height(self):
        assert pr.minimal_words(PEAK) == ("<>",)
        assert pr.minimal_words(DEC_SEQ) == (">",)
        assert pr.minimal_words(ZIGZAG) == ("<><", "><>")


class TestNbSimple:
    def test_strict_inducing_word_admits_constant_series(self):
        got = pr.nb_simple(PEAK, Domain(0, 0))
        assert got.holds
        assert got.witness == {
            "inducing": ("<>",), "avoiding_series": "constant"}

    def test_equality_pattern_needs_two_values(self):
        flat = pr.nb_simple(STEADY, Domain(0, 0))
        assert not flat.holds
        assert flat.failed_condition == "needs-positive-span"
        wide = pr.nb_simple(STEADY, Domain(0, 1))
        assert wide.holds
        assert wide.witness == {
            "inducing": ("=",), "avoiding_series": "alternating"}

    def test_holds_across_catalogue_at_positive_span(self):
        for e in cat.all_entries():
            assert pr.nb_simple(e.spec, Domain(0, 1)).holds, e.name


class TestNbOverlap:
    def test_peak_witness(self):
        got = pr.nb_overlap(PEAK, Domain(0, 1))
        assert got.holds
        assert got.witness == {
            "v": "<>", "w": "<>", "z1": "<><>", "z2": "<><>",
            "overlap": 1, "variation": 0,
        }

    def test_witness_reverifies(self):
        w = pr.nb_overlap(DEC_TER, Domain(0, 3)).witness
        assert w == {
            "v": ">=>", "w": ">=>", "z1": ">=>=>", "z2": ">=>=>",
            "overlap": 2, "variation": -1,
        }
        z = w["z1"]
        # the glued word leaves the language but stays in the factors graph
        assert not DEC_TER.aut.accepts(z)
        assert not DEC_TER.aut.is_factor(z)
        assert word_height(z) == ch.height(DEC_TER) + abs(w["variation"])
        assert len(w["v"]) + len(w["w"]) - len(z) + 1 == w["overlap"]

    def test_fails_without_superposition(self):
        got = pr.nb_overlap(DEC_TER, Domain(0, 2))
        assert not got.holds
        assert got.failed_condition == "no-superposition"

    def test_zigzag_gluings_rise_too_high(self):
        got = pr.nb_overlap(ZIGZAG, Domain(0, 2))
        assert not got.holds
        assert got.failed_condition == "superposition-height"

    def test_steady_glues_flat(self):
        got = pr.nb_overlap(STEADY, Domain(0, 2))
        assert got.holds
        assert got.witness["z1"] == "=="

    def test_overlap_wider_than_the_pattern(self):
        # === glued to itself shares three variables, more than the width
        # of <<; the language is finite, so the probe settles it
        spec = PatternSpec("r", "<<|===")
        assert ch.overlap(spec, Domain(0, 2)) == CharValue.defined(3)
        assert ch.width(spec) == 2
        got = pr.nb_overlap(spec, Domain(0, 2))
        assert (got.holds, got.failed_condition) == \
            (False, "overlap-exceeds-width")

    def test_unsettled_variation(self, monkeypatch):
        monkeypatch.setattr(ch, "smallest_variation", _unsettled)
        got = pr.nb_overlap(_fresh(PEAK), Domain(0, 1))
        assert (got.holds, got.failed_condition) == \
            (False, "variation-unsettled")

    def test_gluings_must_rise_by_the_variation(self, monkeypatch):
        # every shift gap one more than peak's variation 0
        gap = ch._shift_gap
        monkeypatch.setattr(ch, "_shift_gap",
                            lambda spec, z, v, w: gap(spec, z, v, w) + 1)
        got = pr.nb_overlap(_fresh(PEAK), Domain(0, 1))
        assert (got.holds, got.failed_condition) == \
            (False, "variation-equation")


class TestNbNoOverlap:
    def test_decreasing_sequence_witness(self):
        got = pr.nb_no_overlap(DEC_SEQ, Domain(0, 1))
        assert got.holds
        assert got.witness == {
            "v": ">",
            "lengths_checked": (2, 3, 4, 5, 6),
            "glued_non_factor": "><>",
        }
        assert not DEC_SEQ.aut.is_factor("><>")

    def test_fails_when_patterns_can_share(self):
        got = pr.nb_no_overlap(PEAK, Domain(0, 1))
        assert not got.holds
        assert got.failed_condition == "overlap-nonzero"

    def test_needs_a_shortest_word_of_least_height(self):
        # << is the shortest word, =<= the least high: no word is both
        spec = PatternSpec("r", "<<|=<=")
        assert ch.overlap(spec, Domain(0, 1)) == CharValue.defined(0)
        assert pr.minimal_words(spec) == ()
        got = pr.nb_no_overlap(spec, Domain(0, 1))
        assert (got.holds, got.failed_condition) == (False, "no-minimal-word")

    def test_maximal_carrier_matches_a_scan_per_word(self):
        # the shared backward walk against every signature scanned on its
        # own, for each minimal word at the five checked lengths and more
        specs = [e.spec for e in cat.all_entries()]
        specs += [PatternSpec(e, e) for e in raw_universe()]
        cases = 0
        for spec in specs:
            w = ch.width(spec)
            for v in pr.minimal_words(spec):
                for span in (1, 2, 3):
                    d = Domain(0, span)
                    for n in range(w + 1, w + 6):
                        assert pr._carries_maximal(spec, v, n, span) == \
                            carries_maximal_per_word(spec, v, n, d), \
                            (spec.name, v, n, span)
                        cases += 1
        assert cases == 6300


class TestWidthProperties:
    def test_fixed_length_detection(self):
        assert pr.is_fixed_length(PatternSpec("v", "><", a=1, b=1))
        assert pr.is_fixed_length(STEADY)
        assert not pr.is_fixed_length(PEAK)
        assert not pr.is_fixed_length(DEC_SEQ)

    def test_fixed_length_sees_long_branches(self):
        # the second branch is longer than any sampled length of the first
        assert not pr.is_fixed_length(PatternSpec("r", "<|<<<<<"))
        assert pr.is_fixed_length(PatternSpec("r", "<<|=>|><"))
        assert not pr.is_fixed_length(PatternSpec("r", "<|=*"))
        got = pr.width_occurrence(PatternSpec("r", "<|<<<<<"), Domain(0, 1))
        assert got.witness == {"v": "<", "w": "<="}

    def test_width_max_witness(self):
        got = pr.width_max(PEAK)
        assert got.holds
        assert got.witness == {"v": "<>", "e": 0, "c": 0}

    def test_width_max_needs_affine_range(self):
        got = pr.width_max(PatternSpec("dec", ">"))
        assert not got.holds
        assert got.failed_condition == "range-template"

    def test_width_max_needs_one_template_for_every_branch(self):
        # the whole language fits (1, 0); its fixed branch => fits none
        got = pr.width_max(PatternSpec("r", "=>|<<<*"))
        assert not got.holds
        assert got.failed_condition == "branch-range-template"
        for name in ("inflexion", "zigzag"):
            assert pr.width_max(cat.lookup(name).spec).holds

    def test_width_sum_requires_trimmed_overlap(self):
        got = pr.width_sum(PEAK, Domain(0, 1))
        assert got.holds
        assert got.witness == {"overlap": 1, "a": 1, "b": 1}
        bad = pr.width_sum(PatternSpec("dec", ">"), Domain(0, 3))
        assert not bad.holds
        assert bad.failed_condition == "overlap-within-trim"

    def test_width_sum_full_range_exception(self):
        # the strict one-letter patterns saturate the range yet still pass
        assert pr.width_sum(PatternSpec("sds", ">+"), Domain(0, 3)).holds

    def test_width_occurrence_witness(self):
        got = pr.width_occurrence(PEAK, Domain(0, 1))
        assert got.holds
        assert got.witness == {"v": "<>", "w": "<><"}
        assert not PEAK.aut.is_factor("<><")

    def test_width_occurrence_rejects_fixed_length(self):
        with pytest.raises(FixedLengthRegexError):
            pr.width_occurrence(PatternSpec("v", "><", a=1, b=1),
                                Domain(0, 1))


class TestOverlapClass:
    def test_whole_catalogue(self):
        expected = {
            "bump_on_decreasing_sequence": "overlapping",
            "decreasing": "mixed",
            "decreasing_sequence": "non-overlapping",
            "decreasing_terrace": "mixed",
            "dip_on_increasing_sequence": "overlapping",
            "gorge": "overlapping",
            "increasing": "mixed",
            "increasing_sequence": "non-overlapping",
            "increasing_terrace": "mixed",
            "inflexion": "overlapping",
            "peak": "overlapping",
            "plain": "overlapping",
            "plateau": "overlapping",
            "proper_plain": "overlapping",
            "proper_plateau": "overlapping",
            "steady": "special",
            "steady_sequence": "special",
            "strictly_decreasing_sequence": "non-overlapping",
            "strictly_increasing_sequence": "non-overlapping",
            "summit": "overlapping",
            "valley": "overlapping",
            "zigzag": "mixed",
        }
        got = {e.name: pr.overlap_class(e.spec) for e in cat.all_entries()}
        assert got == expected

    def test_unsettled_overlap_is_unclassified(self, monkeypatch):
        monkeypatch.setattr(ch, "overlap", _unsettled)
        assert pr.overlap_class(_fresh(PEAK)) == "unclassified"


@pytest.mark.parametrize("check", [pr.nb_overlap, pr.nb_no_overlap,
                                   pr.width_sum])
def test_an_unsettled_overlap_fails_every_check_reading_it(monkeypatch,
                                                           check):
    monkeypatch.setattr(ch, "overlap", _unsettled)
    got = check(_fresh(PEAK), Domain(0, 1))
    assert (got.holds, got.failed_condition) == (False, "overlap-unsettled")


class TestPropertyCheck:
    def test_a_witness_cannot_be_changed(self):
        for check in (pr.nb_simple(DEC_SEQ, Domain(0, 1)),
                      pr.nb_no_overlap(DEC_SEQ, Domain(0, 1)),
                      pr.nb_overlap(PEAK, Domain(0, 1)),
                      pr.width_max(PEAK),
                      pr.width_sum(PEAK, Domain(0, 1)),
                      pr.width_occurrence(PEAK, Domain(0, 1))):
            assert check.holds, check
            before = dict(check.witness)
            with pytest.raises(TypeError):
                check.witness["v"] = "changed"
            for value in check.witness.values():
                assert isinstance(value, (str, int, tuple)), check
            assert dict(check.witness) == before

    def test_equal_questions_share_one_memo_entry(self):
        spec = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
        cap = ch.default_cap(spec)
        for check, asks in [
                *[(check, [(Domain(0, 1),), (Domain(5, 6),)])
                  for check in (pr.nb_simple, pr.nb_overlap,
                                pr.nb_no_overlap, pr.width_sum,
                                pr.width_occurrence)],
                *[(check, [(Domain(0, 1),), (Domain(0, 1), None),
                           (Domain(5, 6),), (Domain(0, 1), cap),
                           (Domain(3, 4), cap)])
                  for check in (ch.overlap, ch.smallest_variation)]]:
            answers = [check(spec, *args) for args in asks]
            assert all(a is answers[0] for a in answers), check.__name__
            assert sum(key[0].__name__ == check.__name__
                       for key in spec._memo) == 1, check.__name__
        # a different span or cap is a different question
        ch.overlap(spec, Domain(0, 2))
        ch.overlap(spec, Domain(0, 1), cap + 1)
        assert sum(key[0].__name__ == "overlap"
                   for key in spec._memo) == 3
