"""Language characteristics: width, height, range, inducing words, overlap,
smallest variation, and the cap-stabilization protocol behind the last two."""

import itertools

import pytest

from helpers import naive_shift
from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds import sigregex
from sigbounds.characteristics import (
    AmbiguousInducingWordError,
    CharacteristicsError,
    CharKind,
    CharValue,
    WordNotInLanguageError,
)
from sigbounds.series import Domain, PatternSpec

PEAK = PatternSpec("peak", "<(<|=)*(>|=)*>", a=1, b=1)
GORGE = PatternSpec("gorge", "(>(>|=)*)*><((<|=)*<)*", a=1, b=1)
ZIGZAG = PatternSpec("zigzag", "(<>)+<(>|1)|(><)+>(<|1)", a=1, b=1)
BUMP = PatternSpec("bump", ">><>>", a=1, b=2)
DEC = PatternSpec("dec", ">")
INC = PatternSpec("inc", "<")
DEC_TER = PatternSpec("dec_ter", ">=+>", a=1, b=1)
STEADY = PatternSpec("steady", "=")
SDS = PatternSpec("sds", ">+")
DEC_SEQ = PatternSpec("dec_seq", "(>(>|=)*)*>")
MIXED = PatternSpec("mixed", "<=*|=*>")


class TestCharValue:
    def test_rendering(self):
        assert str(CharValue.defined(3)) == "3"
        assert str(CharValue.undefined()) == "undefined"
        assert str(CharValue.unbounded(6)) == "unbounded(cap=6)"
        assert str(CharValue.cap_limited(3, 5)) == "cap_limited(3, cap=5)"

    def test_json_forms(self):
        assert CharValue.defined(3).to_json() == 3
        assert CharValue.undefined().to_json() == {"kind": "undefined"}
        assert CharValue.unbounded(6).to_json() == {
            "kind": "unbounded", "cap": 6}
        assert CharValue.cap_limited(3, 5).to_json() == {
            "kind": "cap_limited", "value": 3, "cap": 5}

    def test_expect_only_on_defined(self):
        assert CharValue.defined(4).expect() == 4
        with pytest.raises(CharacteristicsError):
            CharValue.undefined().expect()
        with pytest.raises(CharacteristicsError):
            CharValue.unbounded(6).expect()


class TestWidthHeight:
    @pytest.mark.parametrize("spec, omega, eta", [
        (PEAK, 2, 1),
        (GORGE, 2, 1),
        (ZIGZAG, 3, 1),
        (BUMP, 5, 2),
        (DEC, 1, 1),
        (STEADY, 1, 0),
        (DEC_TER, 3, 2),
        (SDS, 1, 1),
        (DEC_SEQ, 1, 1),
    ])
    def test_golden_values(self, spec: PatternSpec, omega: int, eta: int):
        assert ch.width(spec) == omega
        assert ch.height(spec) == eta

    def test_empty_language_has_no_width(self):
        with pytest.raises(sigregex.EmptyLanguageError):
            ch.width(PatternSpec("void", "0"))


class TestRange:
    def test_undefined_below_width(self):
        # peak needs two signature letters, so n = 2 gives nothing
        assert not ch.range_of(PEAK, 2).is_defined
        assert ch.range_of(PEAK, 3) == CharValue.defined(1)

    def test_fixed_length_language(self):
        assert ch.range_of(DEC, 2) == CharValue.defined(1)
        assert not ch.range_of(DEC, 3).is_defined
        assert ch.range_of(STEADY, 2) == CharValue.defined(0)
        assert not ch.range_of(STEADY, 4).is_defined

    def test_length_dependent_range(self):
        # strictly decreasing: the only word of length n-1 has height n-1
        for n in range(2, 7):
            assert ch.range_of(SDS, n) == CharValue.defined(n - 1)

    def test_saturating_range(self):
        assert ch.range_of(DEC_SEQ, 2) == CharValue.defined(1)
        for n in (3, 4, 5, 6):
            assert ch.range_of(DEC_SEQ, n) == CharValue.defined(2)

    def test_short_series_rejected(self):
        with pytest.raises(CharacteristicsError):
            ch.range_of(PEAK, 1)

    def test_affine_template(self):
        assert ch.range_params(PEAK) == (0, 0)
        assert ch.range_params(DEC_SEQ) == (0, 1)
        assert ch.range_params(SDS) == (1, 0)
        # no template when the range is undefined beyond the fixed length
        assert ch.range_params(DEC) is None
        assert ch.range_params(STEADY) is None
        assert ch.range_params(BUMP) is None


class TestInducingWords:
    def test_single_branch(self):
        assert ch.inducing_words(PEAK) == frozenset({"<>"})
        assert ch.inducing_words(BUMP) == frozenset({">><>>"})

    def test_two_branches(self):
        infl = PatternSpec("inflexion", "<(<|=)*>|>(>|=)*<", a=1, b=1)
        assert ch.inducing_words(infl) == frozenset({"<>", "><"})
        assert ch.inducing_words(ZIGZAG) == frozenset({"<><", "><>"})

    def test_ambiguous_branch_is_reported(self):
        amb = PatternSpec("amb", "<<|(<|1)(>|1)")
        with pytest.raises(AmbiguousInducingWordError) as err:
            ch.inducing_words(amb)
        assert err.value.branch == 1
        assert err.value.words == ("<", ">")

    def test_non_capsuled_shape_is_rejected(self):
        bad = PatternSpec("bad", "(<|>)=")
        with pytest.raises(sigregex.NotDisjunctionCapsuledError):
            ch.inducing_words(bad)


class TestSuperpositions:
    def test_peak_with_itself(self):
        assert ch.superpositions(PEAK, "<>", "<>", Domain(0, 1)) == ["<><>"]

    def test_overlap_counts_shared_variables(self):
        # "<><>" glues two peaks on one shared letter, hence one shared pair
        assert ch.overlap_of_words(PEAK, "<>", "<>", Domain(0, 1)) == 1

    def test_domain_filters_tall_gluings(self):
        # gluing "<" to itself needs three levels
        assert ch.superpositions(INC, "<", "<", Domain(0, 1)) == []
        assert ch.superpositions(INC, "<", "<", Domain(0, 2)) == ["<<"]

    def test_words_must_be_in_language(self):
        with pytest.raises(WordNotInLanguageError):
            ch.superpositions(PEAK, "><", "<>", Domain(0, 1))


class TestOverlap:
    def test_peak(self):
        assert ch.overlap(PEAK, Domain(0, 0)) == CharValue.defined(0)
        assert ch.overlap(PEAK, Domain(0, 1)) == CharValue.defined(1)

    def test_single_letter_patterns(self):
        assert ch.overlap(DEC, Domain(0, 1)) == CharValue.defined(0)
        assert ch.overlap(DEC, Domain(0, 2)) == CharValue.defined(1)

    def test_cap_protocol_reports_instability(self):
        # with cap 3 the single bump word is invisible, at cap 5 it appears
        got = ch.overlap(BUMP, Domain(0, 2), cap=3)
        assert got == CharValue.cap_limited(3, 5)
        assert ch.overlap(BUMP, Domain(0, 2)) == CharValue.defined(3)

    def test_cap_below_width_is_rejected(self):
        # probes up to cap + 2 = 4 letters see no bump word and would read 0
        for fn in (ch.overlap, ch.smallest_variation):
            with pytest.raises(CharacteristicsError):
                fn(BUMP, Domain(0, 4), cap=2)
            with pytest.raises(CharacteristicsError):
                fn(PEAK, Domain(0, 1), cap=-1)
        with pytest.raises(CharacteristicsError):
            ch.report(BUMP, Domain(0, 4), n=6, cap=2)
        assert ch.overlap(BUMP, Domain(0, 4)) == CharValue.defined(3)

    def test_growing_overlap_is_flagged_unbounded(self):
        got = ch.overlap(MIXED, Domain(0, 3))
        assert got.kind is CharKind.UNBOUNDED
        assert got.cap == 6

    def test_default_cap(self):
        assert ch.default_cap(PEAK) == 6
        assert ch.default_cap(BUMP) == 12


class TestShift:
    def test_terrace_occurrences(self):
        # first terrace in ">=>=>" can hold the global maximum, second not
        assert ch.shift(DEC_TER, ">=>=>", ">=>", 1) == 0
        assert ch.shift(DEC_TER, ">=>=>", ">=>", 2) == 1

    def test_missing_occurrence_gives_none(self):
        assert ch.shift(DEC_TER, ">=>=>", ">=>", 3) is None
        assert ch.shift(DEC_TER, ">=>", ">=>", 1) is None
        assert ch.shift(DEC_TER, ">=>", "", 1) is None

    def test_index_is_one_based(self):
        with pytest.raises(CharacteristicsError):
            ch.shift(DEC_TER, ">=>=>", ">=>", 0)

    def test_closed_form_matches_series_enumeration(self):
        zs = ["".join(t) for k in range(1, 7)
              for t in itertools.product("<=>", repeat=k)]
        positive = 0
        for entry in cat.all_entries():
            spec = entry.spec
            for w in ch.language_words(spec, 3):
                if not w:
                    continue
                for z in zs:
                    for i in (1, 2):
                        got = ch.shift(spec, z, w, i)
                        assert got == naive_shift(spec, z, w, i), \
                            (entry.name, z, w, i)
                        positive += bool(got)
        # a shift above 0 is where the greatest series matters
        assert positive > 3000


class TestSmallestVariation:
    def test_signed_single_letters(self):
        assert ch.smallest_variation(INC, Domain(0, 2)) == CharValue.defined(1)
        assert ch.smallest_variation(DEC, Domain(0, 2)) \
            == CharValue.defined(-1)

    def test_zero_without_overlap(self):
        assert ch.smallest_variation(DEC, Domain(0, 1)) \
            == CharValue.defined(0)

    def test_terrace(self):
        assert ch.variation_of_words(DEC_TER, ">=>", ">=>", Domain(0, 3)) == -1
        assert ch.smallest_variation(DEC_TER, Domain(0, 2)) \
            == CharValue.defined(0)
        assert ch.smallest_variation(DEC_TER, Domain(0, 3)) \
            == CharValue.defined(-1)

    def test_mixed_signs_are_undefined(self):
        got = ch.smallest_variation(MIXED, Domain(0, 3))
        assert got.kind is CharKind.UNDEFINED

    def test_balanced_patterns_vary_by_zero(self):
        assert ch.smallest_variation(PEAK, Domain(0, 1)) \
            == CharValue.defined(0)
        assert ch.smallest_variation(ZIGZAG, Domain(0, 2)) \
            == CharValue.defined(0)


class TestSpanKey:
    CACHED = (ch._overlap, ch._smallest_variation, ch._max_overlap,
              ch._variation_at)

    @pytest.mark.parametrize("entry", cat.all_entries(), ids=lambda e: e.name)
    def test_shifted_domain_and_cold_cache_agree(self, entry):
        spec = entry.spec
        warm = (ch.overlap(spec, Domain(0, 2)),
                ch.smallest_variation(spec, Domain(0, 2)))
        assert (ch.overlap(spec, Domain(5, 7)),
                ch.smallest_variation(spec, Domain(5, 7))) == warm
        for fn in self.CACHED:
            fn.cache_clear()
        assert (ch.overlap(spec, Domain(5, 7)),
                ch.smallest_variation(spec, Domain(5, 7))) == warm


class TestReport:
    def test_peak_summary(self):
        rep = ch.report(PEAK, Domain(0, 1), n=3)
        assert rep.omega == 2
        assert rep.eta == 1
        assert rep.range_at_n == CharValue.defined(1)
        assert rep.range_params == (0, 0)
        assert rep.inducing == frozenset({"<>"})
        assert rep.overlap == CharValue.defined(1)
        assert rep.variation == CharValue.defined(0)
        assert rep.cap == 6

    def test_json_shape(self):
        got = ch.report(PEAK, Domain(0, 1), n=3).to_json()
        assert got == {
            "pattern": "peak",
            "expr": "<(<|=)*(>|=)*>",
            "a": 1,
            "b": 1,
            "domain": "0:1",
            "n": 3,
            "cap": 6,
            "width": 2,
            "height": 1,
            "range_at_n": 1,
            "range_params": [0, 0],
            "inducing_words": ["<>"],
            "overlap": 1,
            "variation": 0,
        }

    def test_explicit_cap_is_recorded(self):
        rep = ch.report(BUMP, Domain(0, 2), n=6, cap=3)
        assert rep.cap == 3
        assert rep.overlap == CharValue.cap_limited(3, 5)
