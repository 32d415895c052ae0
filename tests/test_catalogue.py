"""Named pattern catalogue: lookup, aliases, guarded reference values."""

import dataclasses

import pytest

from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds.catalogue import Case, UnknownPatternError
from sigbounds.series import Domain
from sigbounds.sigregex import word_key


class TestEntries:
    def test_count_and_order(self):
        entries = cat.all_entries()
        assert len(entries) == 22
        got = [e.name for e in entries]
        assert got == sorted(got)
        assert got[0] == "bump_on_decreasing_sequence"
        assert got[-1] == "zigzag"
        assert cat.names() == tuple(got)

    def test_every_expression_compiles(self):
        for e in cat.all_entries():
            assert not e.spec.aut.is_empty, e.name
            assert e.a >= 0 and e.b >= 0

    def test_inducing_words_are_canonically_sorted(self):
        for e in cat.all_entries():
            assert list(e.inducing) == sorted(e.inducing, key=word_key), e.name

    def test_entries_without_affine_range(self):
        got = {e.name for e in cat.all_entries() if e.ec is None}
        assert got == {
            "bump_on_decreasing_sequence",
            "decreasing",
            "dip_on_increasing_sequence",
            "increasing",
            "steady",
        }

    def test_spec_is_cached(self):
        e = cat.lookup("peak")
        assert e.spec is e.spec


class TestLookup:
    def test_by_name(self):
        assert cat.lookup("peak").expr == "<(<|=)*(>|=)*>"
        assert cat.lookup("zigzag").omega == 3

    @pytest.mark.parametrize("alias, target", [
        ("bump", "bump_on_decreasing_sequence"),
        ("dip", "dip_on_increasing_sequence"),
        ("dec", "decreasing"),
        ("dec_seq", "decreasing_sequence"),
        ("DecSeq", "decreasing_sequence"),
        ("SDecSeq", "strictly_decreasing_sequence"),
        ("s_inc_seq", "strictly_increasing_sequence"),
        ("PropPlateau", "proper_plateau"),
        ("steady seq", "steady_sequence"),
        ("STEADY", "steady"),
        ("Proper-Plain", "proper_plain"),
    ])
    def test_aliases_ignore_case_and_separators(self, alias: str, target: str):
        assert cat.lookup(alias).name == target

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(UnknownPatternError) as err:
            cat.lookup("peeak")
        assert "peak" in err.value.suggestions
        assert "did you mean" in str(err.value)

    def test_hopeless_name_has_no_suggestions(self):
        with pytest.raises(UnknownPatternError) as err:
            cat.lookup("xyzzy")
        assert err.value.suggestions == ()


class TestCases:
    def test_span_guard(self):
        c = Case(0, span_le=1)
        assert c.matches(span=0) and c.matches(span=1)
        assert not c.matches(span=2)
        assert not c.matches(span=None)

    def test_length_guard_and_dependent_value(self):
        c = Case("n-1", n_eq=None)
        assert c.resolve(n=5) == 4
        with pytest.raises(ValueError):
            c.resolve()

    def test_decreasing_saturates_at_span_two(self):
        dec = cat.lookup("dec")
        assert dec.overlap_at(1) == 0
        assert dec.overlap_at(2) == 1
        assert dec.delta_at(1) == 0
        assert dec.delta_at(2) == -1
        assert dec.range_at(2) == 1
        assert dec.range_at(3) is None

    def test_bump_is_defined_at_one_length_only(self):
        bump = cat.lookup("bump")
        assert bump.range_at(6) == 2
        assert bump.range_at(7) is None
        assert bump.overlap_at(2) == 3

    def test_strictly_decreasing_range_tracks_length(self):
        sds = cat.lookup("s_dec_seq")
        assert sds.range_at(5) == 4
        assert sds.range_at(2) == 1


class TestGoldenCheck:
    def test_matching_report_is_clean(self):
        e = cat.lookup("peak")
        rep = ch.report(e.spec, Domain(0, 1), n=3)
        assert cat.golden_check(e, rep) == []

    def test_cross_entry_mismatch_is_reported(self):
        peak_rep = ch.report(cat.lookup("peak").spec, Domain(0, 1), n=3)
        bad = cat.golden_check(cat.lookup("zigzag"), peak_rep)
        assert bad
        fields = {m["field"] for m in bad}
        assert "width" in fields
        for m in bad:
            assert set(m) == {"field", "expected", "actual"}

    def test_length_dependent_reference(self):
        e = cat.lookup("s_dec_seq")
        rep = ch.report(e.spec, Domain(0, 4), n=5)
        assert cat.golden_check(e, rep) == []

    @pytest.mark.parametrize("reference, value, field, expected", [
        ("eta", 2, "height", 2),
        ("ec", (9, 9), "range_params", (9, 9)),
        ("delta_cases", (Case(7),), "variation[span=1]", 7),
        ("range_cases", (Case(7),), "range[n=3]", 7),
    ])
    def test_each_changed_reference_is_named(self, reference, value, field,
                                             expected):
        # peak's report against its entry with one reference value changed
        e = cat.lookup("peak")
        rep = ch.report(e.spec, Domain(0, 1), n=3)
        bad = cat.golden_check(dataclasses.replace(e, **{reference: value}),
                               rep)
        assert [(m["field"], m["expected"]) for m in bad] == \
            [(field, expected)]
