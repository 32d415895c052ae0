"""Language characteristics: width, height, range, inducing words, overlap,
smallest variation, and the cap-stabilization protocol behind the last two."""

import itertools
import random

import pytest

from helpers import (height_oracle, least_support, monotone_template,
                     naive_range, naive_shift, raw_universe)
from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds import properties as pr
from sigbounds import sigregex
from sigbounds.characteristics import (
    AmbiguousInducingWordError,
    CharacteristicsError,
    CharKind,
    CharValue,
    WordNotInLanguageError,
)
from sigbounds.series import Domain, PatternSpec, _maximal_spans, word_height

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
        # like the width, the height reads nonempty words only
        (PatternSpec("<*", "<*"), 1, 1),
        (PatternSpec("(<>)*", "(<>)*"), 2, 1),
        (PatternSpec("(<|>)*", "(<|>)*"), 1, 1),
        (PatternSpec("<|1", "<|1"), 1, 1),
        (PatternSpec("=*", "=*"), 1, 0),
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

    def test_matches_the_least_height_of_listed_words(self):
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in raw_universe()])
        for spec in specs:
            for n in range(2, 11):
                want = naive_range(spec, n)
                assert ch.range_of(spec, n) == (
                    CharValue.undefined() if want is None
                    else CharValue.defined(want)), (spec.name, n)

    def test_long_series_walk_keys_not_products(self, monkeypatch):
        # the climb reads its (1, 0) template; the other has none, so its
        # range is read off one pass of 999 letters over the keys, whose
        # level j holds about j / 2 of them (250,514 in all), and no
        # height-bounded automaton, nor any other, is built
        climb = PatternSpec("climb", "<+")
        even = PatternSpec("even", "(<<)*>+")
        step, visited = ch._counter_step, []
        init, built = sigregex.Automaton.__init__, []

        def counting(aut, level):
            visited.append(len(level))
            return step(aut, level)

        def building(aut, *args):
            built.append(args)
            init(aut, *args)

        monkeypatch.setattr(ch, "_counter_step", counting)
        monkeypatch.setattr(sigregex.Automaton, "__init__", building)
        assert ch.range_of(climb, 400) == CharValue.defined(399)
        assert ch.range_of(even, 1000) == CharValue.defined(500)
        assert sum(visited) <= 260_000
        assert not built

    def test_template_matches_listed_words(self):
        # the decided template against the least height of listed words
        # at n = omega + 2 .. omega + 12, on two-branch unions as well
        raw = raw_universe()
        rng = random.Random(11)
        exprs = raw + ["|".join(rng.sample(raw, 2)) for _ in range(60)]
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in exprs])
        templates = set()
        for spec in specs:
            omega, eta = ch.width(spec), ch.height(spec)
            ns = range(omega + 2, omega + 13)
            got = [naive_range(spec, n) for n in ns]
            want = next(((e, c) for e, c in ((0, 0), (0, 1), (1, 0))
                         if got == [e * (n - 1 - eta) + c + eta
                                    for n in ns]), None)
            assert ch.range_params(spec) == want, spec.name
            templates.add(want)
        assert templates == {(0, 0), (0, 1), (1, 0), None}

    def test_monotone_template_matches_the_product(self):
        # the (1, 0) template off the key walk's split against the product
        # of L with the non-monotone words
        raw = raw_universe()
        rng = random.Random(12)
        exprs = (raw + ["|".join(rng.sample(raw, 2)) for _ in range(600)]
                 + ["<+", ">+", "<+|>+", "<<*", "(<<)*<", "<<<*|>>",
                    "(<<|>>)+"])
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in exprs])
        found = 0
        for spec in specs:
            want = monotone_template(spec)
            assert (ch.range_params(spec) == (1, 0)) == want, spec.name
            found += want
        assert found == 18

    def test_affine_template(self):
        assert ch.range_params(PEAK) == (0, 0)
        assert ch.range_params(DEC_SEQ) == (0, 1)
        assert ch.range_params(SDS) == (1, 0)
        # no template when the range is undefined beyond the fixed length
        assert ch.range_params(DEC) is None
        assert ch.range_params(STEADY) is None
        assert ch.range_params(BUMP) is None


class TestKeyWalk:
    def test_matches_listed_words(self):
        # height, shortest supportable length, range template and range,
        # read off the (state, run counter) keys, against the listed words
        # of at most 12 letters, the height of each found by constraints
        raw = raw_universe()
        rng = random.Random(12)
        exprs = raw + ["|".join(rng.sample(raw, 2)) for _ in range(200)]
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in exprs])
        heights: dict[str, int] = {}
        for spec in specs:
            words = [u for u in spec.aut.words_up_to(12) if u]
            for u in words:
                if u not in heights:
                    heights[u] = height_oracle(u)
            assert ch.height(spec) == min(map(heights.get, words)), spec.name
            for span in range(5):
                got = ch._shortest_supportable(spec, span)
                assert (got if got is not None and got <= 12 else None) == min(
                    (len(u) for u in words if heights[u] <= span),
                    default=None), (spec.name, span)
            omega, eta = ch.width(spec), ch.height(spec)
            ns = range(omega + 2, omega + 13)
            got = [naive_range(spec, n) for n in ns]
            assert ch.range_params(spec) == next(
                ((e, c) for e, c in ((0, 0), (0, 1), (1, 0))
                 if got == [e * (n - 1 - eta) + c + eta for n in ns]),
                None), spec.name
            for n in range(2, 14):
                want = naive_range(spec, n)
                assert ch.range_of(spec, n) == (
                    CharValue.undefined() if want is None
                    else CharValue.defined(want)), (spec.name, n)

    def test_a_long_walk_files_only_the_levels_questions_read(self):
        # the range at n = 2,000 reads level 1,999 of about 1,000 keys;
        # filing every level on the way held about n^2 / 4 keys
        even = PatternSpec("even", "(<<)*>+")
        assert ch.range_of(even, 2000) == CharValue.defined(1000)
        filed = len(ch._key_walk(even))
        assert filed <= even.aut.n_states * (2 * ch.width(even) + 1) + 1
        assert filed < 50
        # a walk past the filed levels reads the same levels again
        assert ch.range_of(even, 500) == CharValue.defined(250)
        assert len(ch._key_walk(even)) == filed


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

    @pytest.mark.parametrize("probes, want", [
        ({4: 1, 6: 1}, CharValue.defined(1)),
        ({4: None}, CharValue.undefined()),
        ({4: 1, 6: None}, CharValue.undefined()),
        ({4: 1, 5: None, 6: 2}, CharValue.undefined()),
        ({4: 1, 5: 2, 6: 3}, CharValue.unbounded(6)),
        ({4: 1, 5: 1, 6: 2}, CharValue.cap_limited(2, 6)),
    ])
    def test_stabilization_probes(self, probes, want):
        # a synthetic measure at cap 4: a probe it has no entry for is
        # one the protocol must not ask
        assert ch._stabilize(probes.__getitem__, 4) == want


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
            for w in spec.aut.words_up_to(3):
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

    def test_runs_match_the_least_series(self):
        # the run-read least series against the built one of the mirrored
        # word, over each maximal occurrence's extended span
        zs = ["".join(t) for k in range(8)
              for t in itertools.product("<=>", repeat=k)]
        mirror = str.maketrans("<>", "><")
        least = {z: least_support(z.translate(mirror),
                                  Domain(0, word_height(z))).values
                 for z in zs}
        # the scan reads a series, here the least one with signature z
        support = {z: least_support(z, Domain(0, word_height(z))).values
                   for z in zs}
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in raw_universe()])
        for spec in specs:
            for z in zs:
                want = [(z[i - 1:j], min(least[z][i - 1:j + 1]))
                        for i, j in _maximal_spans(spec, support[z])]
                assert ch._shifts(spec, z) == want, (spec.name, z)

    def test_gap_reads_both_shifts_of_one_scan(self):
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e) for e in raw_universe()])
        gaps = 0
        for spec in specs:
            words = [u for u in spec.aut.words_up_to(3) if u]
            for v, w, span in itertools.product(words, words, (1, 2, 3)):
                for z in ch.superpositions(spec, v, w, Domain(0, span)):
                    sv = ch.shift(spec, z, v, 1)
                    sw = ch.shift(spec, z, w, 1 if v != w else 2)
                    want = None if sv is None or sw is None else sv - sw
                    assert ch._shift_gap(spec, z, v, w) == want, \
                        (spec.name, z, v, w)
                    gaps += want is not None
        assert gaps > 1000


class TestSmallestVariation:
    def test_signed_single_letters(self):
        assert ch.smallest_variation(INC, Domain(0, 2)) == CharValue.defined(1)
        assert ch.smallest_variation(DEC, Domain(0, 2)) \
            == CharValue.defined(-1)

    def test_zero_without_overlap(self):
        assert ch.smallest_variation(DEC, Domain(0, 1)) \
            == CharValue.defined(0)

    def test_terrace(self):
        v = w = ">=>"
        zs = ch.superpositions(DEC_TER, v, w, Domain(0, 3))
        assert ch._pair_variation(DEC_TER, v, w, zs) == -1
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
    @staticmethod
    def span_keyed(spec, d):
        return (ch.overlap(spec, d), ch.smallest_variation(spec, d),
                pr.nb_no_overlap(spec, d))

    @pytest.mark.parametrize("entry", cat.all_entries(), ids=lambda e: e.name)
    def test_shifted_domain_and_cold_cache_agree(self, entry):
        # a fresh spec starts with an empty memo
        warm = self.span_keyed(entry.spec, Domain(0, 2))
        assert self.span_keyed(entry.spec, Domain(5, 7)) == warm
        cold = PatternSpec(entry.name, entry.expr, entry.a, entry.b)
        assert self.span_keyed(cold, Domain(5, 7)) == warm


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
