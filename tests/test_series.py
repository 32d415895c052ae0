"""Ground semantics: signatures, occurrences, features, enumeration."""

import itertools
import json
import math
import random
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from helpers import (
    bounded_height_automaton,
    iter_supporting_series,
    naive_match_spans,
    naive_maximal_occurrences,
    raw_universe,
    reference_feature,
    supporting_series,
)
from sigbounds import catalogue as cat
from sigbounds import cli
from sigbounds import series as se
from sigbounds.cli import main
from sigbounds.series import (
    Aggregator,
    Domain,
    DomainError,
    EmptyPatternError,
    Feature,
    Occurrence,
    PatternSpec,
    SeriesError,
    TimeSeries,
)

FIGURE = TimeSeries((4, 4, 0, 0, 2, 4, 4, 7, 4, 0, 0, 2, 2, 2, 2, 2, 2, 0))
PEAK = PatternSpec("peak", "<(<|=)*(>|=)*>", a=1, b=1)
GORGE = PatternSpec("gorge", "(>(>|=)*)*><((<|=)*<)*", a=1, b=1)
# catalogue patterns plus raw ones: a union of fixed lengths, nullable and
# star-heavy languages, the empty language and the empty word
SCAN_SPECS = [e.spec for e in cat.all_entries()] + [
    PatternSpec(f"raw_{k}", expr)
    for k, expr in enumerate(("<<|<><>", "(<|=)*>?", "<*>*|=", "0", "1"))
]

SHORT_WORDS = ["".join(w) for k in range(8)
               for w in itertools.product("<=>", repeat=k)]
_rng = random.Random(20161)
LONG_WORDS = ["".join(_rng.choice("<=>") for _ in range(_rng.randint(9, 80)))
              for _ in range(60)]


def _walk(n: int, seed: int) -> TimeSeries:
    rng = random.Random(seed)
    vals = [0]
    for _ in range(n - 1):
        vals.append(vals[-1] + rng.choice((-1, 0, 1)))
    return TimeSeries(tuple(vals))


def _far_walk(n: int, seed: int) -> TimeSeries:
    """Steps from -10^9..10^9, half of them 0, so neighbours repeat."""
    rng = random.Random(seed)
    vals = [rng.randint(-10**9, 10**9)]
    for _ in range(n - 1):
        vals.append(vals[-1] + rng.choice((0, rng.randint(-10**9, 10**9))))
    return TimeSeries(tuple(vals))


def _plateaus(n: int, seed: int) -> TimeSeries:
    """Negative values, each held for 4 to 15 points."""
    rng = random.Random(seed)
    vals: list[int] = []
    while len(vals) < n:
        vals += [rng.randint(-9, -1)] * rng.randint(4, 15)
    return TimeSeries(tuple(vals[:n]))


class TestSignature:
    def test_figure_series(self):
        assert se.signature(FIGURE) == "=>=<<=<>>=<=====>"

    def test_single_value_has_empty_signature(self):
        assert se.signature(TimeSeries((7,))) == ""

    def test_plain_sequences(self):
        assert se.signature((0, 1, 2)) == "<<"
        assert se.signature((2, 2, 0)) == "=>"

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    def test_length_is_one_less(self, vals: list):
        assert len(se.signature(tuple(vals))) == len(vals) - 1


class TestWordHeight:
    @pytest.mark.parametrize("word, h", [
        ("", 0),
        ("=", 0),
        ("<", 1),
        (">", 1),
        ("<>", 1),
        ("><", 1),
        ("<<", 2),
        ("<=<", 2),
        ("<><", 1),
        (">><>>", 2),
        (">=>=>", 3),
        ("<=====>", 1),
        ("=>=<<=<>>=<=====>", 3),
    ])
    def test_spot_values(self, word: str, h: int):
        assert se.word_height(word) == h

    def test_mirror_symmetry(self):
        flip = str.maketrans("<>", "><")
        for w in ("<<>", "><<=<", ">=<<"):
            assert se.word_height(w) == se.word_height(w.translate(flip))

    def test_the_run_counter_gives_the_height_levels(self):
        # the walks carry the run counter c where H_span's state set was:
        # its largest |c| is the height; read from every level, a word of
        # height at most the span ends on _height_levels(c, span) and one
        # above it on none; read backwards on the reversal, with the
        # mirrored counter, it starts on those
        flip = {"<": ">", "=": "=", ">": "<"}
        words = ["".join(t) for k in range(9)
                 for t in itertools.product("<=>", repeat=k)]
        for span in range(5):
            heights = bounded_height_automaton(span)
            back = heights.reversal()
            for w in words:
                c = mirrored = top = 0
                for ch in w:
                    c = se._climb(c, ch)
                    top = max(top, abs(c))
                for ch in reversed(w):
                    mirrored = se._climb(mirrored, flip[ch])
                assert top == se.word_height(w), w
                ends = heights._read(heights.initial, w)
                starts = back._read(back.initial, w[::-1])
                if se.word_height(w) > span:
                    assert not ends and not starts, (span, w)
                else:
                    assert ends == se._height_levels(c, span), (span, w)
                    assert starts == se._height_levels(mirrored, span), \
                        (span, w)


class TestOccurrence:
    def test_trimming(self):
        # peak trims one variable off each side of the extended span
        assert Occurrence(4, 9).trimmed(1, 1) == (5, 9)
        assert Occurrence(11, 17).trimmed(1, 1) == (12, 17)
        assert Occurrence(3, 3).trimmed(0, 0) == (3, 4)

    def test_ordering_is_positional(self):
        occs = [Occurrence(5, 6), Occurrence(1, 4), Occurrence(1, 2)]
        assert sorted(occs) == [Occurrence(1, 2), Occurrence(1, 4),
                                Occurrence(5, 6)]

    def test_over_trimming_is_an_error(self):
        sharp = PatternSpec("sharp", "<", a=1, b=1)
        t = TimeSeries((0, 1))
        with pytest.raises(EmptyPatternError):
            se.feature_of(sharp, Feature.WIDTH, t, Occurrence(1, 1))

    def test_occurrence_outside_the_series_is_an_error(self):
        up = PatternSpec("up", "<")
        t = TimeSeries((1, 2, 3))
        for occ in (Occurrence(5, 7), Occurrence(0, 1), Occurrence(2, 3),
                    Occurrence(2, 1)):
            for f in Feature:
                with pytest.raises(SeriesError, match=re.escape(
                        f"occurrence ({occ.i},{occ.j}) lies outside a series "
                        "of length 3")):
                    se.feature_of(up, f, t, occ)
        assert se.feature_of(up, Feature.WIDTH, t, Occurrence(1, 2)) == 3
        assert se.feature_of(up, Feature.SURF, t, Occurrence(2, 2)) == 5


class TestMaximalOccurrences:
    def test_contained_matches_are_dropped(self):
        spec = PatternSpec("runs", "<+")
        assert se.maximal_occurrences(spec, "<<<") == [Occurrence(1, 3)]

    def test_disjoint_matches_both_kept(self):
        spec = PatternSpec("v", "><")
        assert se.maximal_occurrences(spec, "><><") == [
            Occurrence(1, 2), Occurrence(3, 4)]

    def test_overlapping_maximal_matches_both_kept(self):
        # inflexion matches "<>" and "><" around a shared letter
        spec = PatternSpec("inflexion", "<(<|=)*>|>(>|=)*<", a=1, b=1)
        assert se.maximal_occurrences(spec, "<><") == [
            Occurrence(1, 2), Occurrence(2, 3)]

    def test_figure_peaks(self):
        assert se.maximal_occurrences(PEAK, se.signature(FIGURE)) == [
            Occurrence(4, 9), Occurrence(11, 17)]

    def test_match_spans_lists_every_match(self):
        spec = PatternSpec("runs", "<+")
        assert naive_match_spans(spec.aut, "<<") == [(1, 1), (1, 2), (2, 2)]

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            se.maximal_occurrences(PEAK, "<x>")


class TestScanMatchesDefinition:
    """The linear scan against the quadratic definition in ``helpers``."""

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: s.name)
    def test_every_short_and_sampled_long_word(self, spec):
        for w in SHORT_WORDS + LONG_WORDS:
            assert se.maximal_occurrences(spec, w) == \
                naive_maximal_occurrences(spec, w), w


# (<^p)* for the primes to 17: the scan rows repeat only after 510,510
# letters, so a long run of "<" keeps meeting new row types
PRIME_CYCLES = "|".join(f"({'<' * p})*" for p in (2, 3, 5, 7, 11, 13, 17))


class TestTabledScan:
    """The row-type table, built afresh for each automaton, against the
    quadratic definition."""

    def test_fresh_tables_match_definition(self):
        rng = random.Random(1961)
        raw = raw_universe()
        exprs = rng.sample(raw, 12) + [
            f"{rng.choice(raw)}|{rng.choice(raw)}" for _ in range(8)]
        # on "<" the rows of "<*" and "(<|=)*" come back to the start type
        for expr in exprs + ["0", "1", "<*", "(<|=)*"]:
            spec = PatternSpec("fresh", expr)
            for w in SHORT_WORDS + LONG_WORDS:
                assert se.maximal_occurrences(spec, w) == \
                    naive_maximal_occurrences(spec, w), (expr, w)

    def test_full_table_finishes_on_the_exact_step(self, monkeypatch):
        positions = []
        exact = se._far_step

        def spy(aut, accepting, far, i, letter):
            positions.append(i)
            return exact(aut, accepting, far, i, letter)

        monkeypatch.setattr(se, "_far_step", spy)
        spec = PatternSpec("cycles", PRIME_CYCLES)
        n = se.MAX_ROW_TYPES + 40
        want = {}
        for w in ("<" * n, "=<" + "<" * n + ">"):
            positions.clear()
            want[w] = naive_maximal_occurrences(spec, w)
            assert se.maximal_occurrences(spec, w) == want[w], w
            # table builds step at position 0, the fallback mid-word
            assert max(positions) > 0
        assert len(se._scan_rows(spec)) == se.MAX_ROW_TYPES
        # a full table on a series: the fallback reads the same letters
        t = TimeSeries(tuple(range(n + 1)))
        positions.clear()
        assert se.evaluate(spec, Feature.WIDTH, Aggregator.SUM, t) == sum(
            reference_feature(spec, Feature.WIDTH, t, o)
            for o in want["<" * n])
        assert max(positions) > 0

    def test_row_table_stays_bounded(self):
        spec = PatternSpec("cycles", PRIME_CYCLES)
        assert se.maximal_occurrences(spec, "<" * 100_000) == [
            Occurrence(1, 100_000)]
        assert len(se._scan_rows(spec)) <= se.MAX_ROW_TYPES


class TestLongSeries:
    """Inputs on which a quadratic scan would run for hours."""

    def test_constant_word_is_one_steady_sequence(self):
        steady = cat.lookup("steady_sequence").spec
        assert se.maximal_occurrences(steady, "=" * 99_999) == [
            Occurrence(1, 99_999)]

    def test_constant_word_has_no_increase(self):
        increasing = cat.lookup("increasing").spec
        assert se.maximal_occurrences(increasing, "=" * 99_999) == []

    @pytest.mark.parametrize("name", ["peak", "inflexion"])
    def test_random_walk_matches_definition(self, name):
        spec = cat.lookup(name).spec
        sig = se.signature(_walk(3000, seed=7))
        got = se.maximal_occurrences(spec, sig)
        assert got and got == naive_maximal_occurrences(spec, sig)

    def test_cli_eval_on_constant_series(self):
        # in process: the series is too long for one command-line argument
        series = ",".join(["0"] * 100_000)
        res = CliRunner().invoke(
            main, ["eval", "sum_width", "steady_sequence", "--series", series,
                   "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["value"] == 100_000

    def test_cli_eval_reads_series_from_stdin(self):
        res = CliRunner().invoke(
            main, ["eval", "sum_width", "steady_sequence", "--series", "-",
                   "--format", "json"],
            input=",".join(["0"] * 100_000) + "\n")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["value"] == 100_000


class TestEvaluate:
    def test_figure_min_width(self):
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.MIN, FIGURE) == 5

    def test_figure_other_aggregates(self):
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.MAX, FIGURE) == 6
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.SUM, FIGURE) == 11
        assert se.evaluate(PEAK, Feature.ONE, Aggregator.SUM, FIGURE) == 2

    def test_value_features_read_the_trimmed_window(self):
        t = TimeSeries((2, 0, 1, 1, 2))
        # single gorge occurrence (1,4) trims to variables 2..4
        assert se.maximal_occurrences(GORGE, se.signature(t)) == [
            Occurrence(1, 4)]
        assert se.evaluate(GORGE, Feature.WIDTH, Aggregator.SUM, t) == 3
        assert se.evaluate(GORGE, Feature.MIN, Aggregator.MIN, t) == 0
        assert se.evaluate(GORGE, Feature.MAX, Aggregator.MAX, t) == 1
        assert se.evaluate(GORGE, Feature.SURF, Aggregator.SUM, t) == 2

    def test_each_trim_cuts_its_own_end(self):
        # b trims from the left of the variables 1..4 of "<<<", a from
        # the right
        t = TimeSeries((0, 1, 2, 3))
        for a, b, window in ((0, 2, (2, 3)), (2, 0, (0, 1)), (1, 2, (2,))):
            spec = PatternSpec("up3", "<<<", a=a, b=b)
            assert se.evaluate(spec, Feature.SURF, Aggregator.SUM, t) == \
                sum(window)
            assert se.feature_of(spec, Feature.MIN, t, Occurrence(1, 3)) \
                == min(window)

    def test_evaluate_builds_no_signature(self, monkeypatch):
        def refused(t):
            raise AssertionError("a signature was built")

        monkeypatch.setattr(se, "signature", refused)
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.MIN, FIGURE) == 5
        res = CliRunner().invoke(main, ["eval", "min_width", "peak",
                                        "--series", str(FIGURE)])
        assert res.exit_code == 0, res.output

    def test_cli_eval_on_one_and_two_points(self):
        spec = cat.lookup("increasing").spec
        for text in ("7", "7,7", "3,4", "4,3"):
            t = TimeSeries.from_text(text)
            res = CliRunner().invoke(main, ["eval", "sum_width", "increasing",
                                            "--series", text, "--format",
                                            "json"])
            assert res.exit_code == 0, res.output
            got = json.loads(res.output)
            assert got["value"] == int(text == "3,4") * 2
            assert [(o["i"], o["j"]) for o in got["occurrences"]] == [
                (o.i, o.j)
                for o in naive_maximal_occurrences(spec, se.signature(t))]
            res = CliRunner().invoke(main, ["eval", "sum_width", "increasing",
                                            "--series", text])
            assert res.exit_code == 0, res.output

    def test_defaults_when_nothing_matches(self):
        flat = TimeSeries((1, 1, 1))
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.MAX, flat) == 0
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.SUM, flat) == 0
        assert se.evaluate(PEAK, Feature.WIDTH, Aggregator.MIN, flat) \
            == math.inf

    def test_aggregate_combines_values(self):
        vals = [3, 1, 2]
        assert se.aggregate(Aggregator.SUM, vals) == 6
        assert se.aggregate(Aggregator.MAX, vals) == 3
        assert se.aggregate(Aggregator.MIN, vals) == 1

    def test_aggregate_of_nothing_is_the_policy_default(self):
        for g in Aggregator:
            assert se.aggregate(g, []) == se.DEFAULTS[g]

    def test_policy_defaults(self):
        assert se.DEFAULTS[Aggregator.SUM] == 0
        assert se.DEFAULTS[Aggregator.MAX] == 0
        assert se.DEFAULTS[Aggregator.MIN] == math.inf
        assert set(se.DEFAULTS) == set(Aggregator)


class TestEvaluateMatchesDefinition:
    """``evaluate`` against ``aggregate`` over the hand-written
    ``reference_feature`` on the quadratic definition of the maximal
    occurrences."""

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: s.name)
    def test_every_aggregator_and_feature(self, spec):
        trimmed = [spec] + [PatternSpec(spec.name, spec.expr, a, b)
                            for a, b in ((1, 0), (0, 1), (1, 2))]
        series = [_walk(60, seed) for seed in range(3)] + [
            TimeSeries((3,) * 60), _far_walk(60, 3), _plateaus(60, 4)] + [
            TimeSeries(vals) for vals in ((3,), (3, 3), (3, 4), (4, 3))]
        for t in series:
            for sp in trimmed:
                occs = naive_maximal_occurrences(sp, se.signature(t))
                for g, f in itertools.product(Aggregator, Feature):
                    vals = [reference_feature(sp, f, t, o) for o in occs]
                    if None in vals:
                        o = occs[vals.index(None)]
                        with pytest.raises(EmptyPatternError) as got:
                            se.evaluate(sp, f, g, t)
                        assert str(got.value) == (
                            f"occurrence ({o.i},{o.j}) of {sp.name} trims "
                            "to nothing")
                    else:
                        assert se.evaluate(sp, f, g, t) == \
                            se.aggregate(g, vals)

    def test_over_trimmed_occurrence_is_an_error(self):
        sharp = PatternSpec("sharp", "<", a=1, b=1)
        with pytest.raises(EmptyPatternError,
                           match=r"^occurrence \(2,2\) of sharp trims to "
                                 "nothing$"):
            se.evaluate(sharp, Feature.ONE, Aggregator.SUM,
                        TimeSeries((1, 1, 2)))

    def test_first_over_trimmed_occurrence_is_named(self, monkeypatch):
        # (1,2) keeps variable 2; (4,4) and (6,6) keep nothing
        up = PatternSpec("up", "<+", a=1, b=1)
        t = TimeSeries((0, 1, 2, 1, 2, 1, 2))
        assert se.maximal_occurrences(up, se.signature(t)) == [
            Occurrence(1, 2), Occurrence(4, 4), Occurrence(6, 6)]
        message = "occurrence (4,4) of up trims to nothing"
        for f in Feature:
            with pytest.raises(EmptyPatternError) as got:
                se.evaluate(up, f, Aggregator.SUM, t)
            assert str(got.value) == message
        # no catalogue pattern over-trims, so the command gets this one
        monkeypatch.setattr(cli, "_resolve", lambda token: up)
        for fmt in ("human", "json"):
            res = CliRunner().invoke(main, ["eval", "nb", "up", "--series",
                                            str(t), "--format", fmt])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert res.stderr == f"error: {message}\n"

    def test_features_read_in_one_call(self, monkeypatch):
        calls = []
        bulk = se._features

        def counted(spec, f, values, spans):
            calls.append(len(spans))
            return bulk(spec, f, values, spans)

        t = _walk(2000, 5)
        monkeypatch.setattr(se, "_features", counted)
        got = {f: se.evaluate(PEAK, f, Aggregator.SUM, t) for f in Feature}
        assert len(calls) == len(Feature)
        assert min(calls) == max(calls) >= 200
        monkeypatch.undo()
        occs = se.maximal_occurrences(PEAK, se.signature(t))
        assert got == {f: sum(reference_feature(PEAK, f, t, o) for o in occs)
                       for f in Feature}


class TestSupportingSeries:
    def test_single_witness(self):
        got = supporting_series("><", Domain(0, 1))
        assert got == [TimeSeries((1, 0, 1))]

    def test_empty_when_height_exceeds_span(self):
        assert supporting_series("<<", Domain(0, 1)) == []
        assert supporting_series("<<", Domain(0, 2)) != []

    def test_lexicographic_order(self):
        got = supporting_series("<", Domain(0, 2))
        assert got == [TimeSeries(v) for v in
                       ((0, 1), (0, 2), (1, 2))]

    def test_every_result_matches_the_word(self):
        for t in iter_supporting_series("<=>", Domain(0, 2)):
            assert se.signature(t) == "<=>"
            assert all(0 <= x <= 2 for x in t)


class TestEnumeration:
    def test_count_is_alphabet_power(self):
        d = Domain(0, 2)
        assert sum(1 for _ in se.enumerate_series(3, d)) == 27

    def test_lexicographic_order(self):
        got = [t.values for t in se.enumerate_series(2, Domain(0, 1))]
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestParsingAndFormatting:
    def test_series_round_trip(self):
        t = TimeSeries.from_text("4,4,0,0,2")
        assert t.values == (4, 4, 0, 0, 2)
        assert str(t) == "4,4,0,0,2"
        assert TimeSeries.from_text("-1,0") == TimeSeries((-1, 0))

    def test_malformed_series(self):
        with pytest.raises(SeriesError):
            TimeSeries.from_text("1,a")
        with pytest.raises(SeriesError):
            TimeSeries.from_text("")

    def test_empty_series_rejected(self):
        with pytest.raises(SeriesError):
            TimeSeries(())

    def test_domain_parse(self):
        d = Domain.parse("0:3")
        assert (d.lo, d.hi, d.span) == (0, 3, 3)
        assert str(d) == "0:3"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            Domain.parse("5")
        with pytest.raises(DomainError):
            Domain.parse("3:1")
        with pytest.raises(DomainError):
            Domain(3, 1)

    def test_extended_int_rendering(self):
        assert se.fmt_ext(7) == "7"
        assert se.fmt_ext(math.inf) == "+inf"
        assert se.fmt_ext(-math.inf) == "-inf"
        assert se.ext_to_json(7) == 7
        assert isinstance(se.ext_to_json(7.0), int)
        assert se.ext_to_json(math.inf) == "+inf"
        assert se.ext_to_json(-math.inf) == "-inf"

    def test_series_container_protocol(self):
        t = TimeSeries((3, 1, 2))
        assert len(t) == 3
        assert list(t) == [3, 1, 2]
        assert t[1] == 1


class TestPatternSpec:
    def test_negative_trim_rejected(self):
        with pytest.raises(SeriesError):
            PatternSpec("bad", "<", a=-1)

    def test_bad_expression_propagates(self):
        from sigbounds.sigregex import RegexError
        with pytest.raises(RegexError):
            PatternSpec("bad", "((")

    def test_compiled_form_attached(self):
        assert PEAK.aut.accepts("<>")
        assert not PEAK.aut.accepts("><")
