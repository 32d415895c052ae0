"""Exhaustive oracle: exact extrema, pair-by-pair characteristics, and
the sweep that certifies every closed-form bound against enumeration."""

import itertools
import math
import os
import random
import re
from collections import Counter

import pytest
from click.testing import CliRunner

from helpers import (
    bounded_height_automaton,
    iter_supporting_series,
    least_support,
    naive_anchored_candidates,
    off_by_one,
    raw_universe,
)
from sigbounds import bounds as bd
from sigbounds import catalogue as cat
from sigbounds import characteristics as ch
from sigbounds import oracle as orc
from sigbounds import properties as pr
from sigbounds import series
from sigbounds import sigregex as sr
from sigbounds.bounds import BoundResult, Side
from sigbounds.characteristics import CharValue
from sigbounds.cli import main
from sigbounds.series import (
    Aggregator,
    Domain,
    EmptyPatternError,
    Feature,
    PatternSpec,
    TimeSeries,
    _signature_levels,
    enumerate_series,
    evaluate,
    signature,
    word_height,
)
from sigbounds.sigregex import word_key

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

    def test_an_extreme_still_infinite_keeps_no_witness(self):
        # no series of two values holds a peak, so every min_width is the
        # +inf default and no series attains a smaller one
        ex = orc.brute_extrema(PEAK, Feature.WIDTH, Aggregator.MIN,
                               2, Domain(0, 1))
        assert ex.min_all == math.inf and ex.witness_min is None
        assert ex.witness_max == TimeSeries((0, 0))

    def test_budget_refuses_oversized_cells(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.check_budget(30, Domain(0, 1))
        with pytest.raises(orc.BudgetExceededError):
            orc.brute_extrema(PEAK, Feature.ONE, Aggregator.SUM,
                              30, Domain(0, 1))
        assert orc.check_budget(10, Domain(0, 1)) == 1024


def _two_branch_unions(seed: int, k: int) -> list[str]:
    rng, exprs = random.Random(seed), raw_universe()
    return ["|".join(rng.sample(exprs, 2)) for _ in range(k)]


class TestCellExtrema:
    @staticmethod
    def _check_against_brute_force(spec):
        gfs = [(g, f) for g, f, _ in orc.GF_SUPPORTED]
        grid = [(d, n) for d in (Domain(0, 1), Domain(0, 2))
                for n in range(2, 7)]
        grid += [(d, n) for d in (Domain(0, 0), Domain(0, 3), Domain(2, 4))
                 for n in range(2, 6)]
        for d, n in grid:
            levels = list(_signature_levels(spec, n - 1, d.span))
            cells = orc._cell_extrema(spec, levels, d, gfs)
            # every series of the shape is folded in, whatever lo is
            total = sum(1 for _ in enumerate_series(n, d))
            assert {ex.count for ex in cells.values()} == {total}, (n, d)
            for g, f in gfs:
                got = cells[(g, f)]
                ref = orc.brute_extrema(spec, f, g, n, d)
                assert _extrema_fields(got) == _extrema_fields(ref), \
                    (spec.name, g, f, n, d)
                # values only: a witness is searched for a failing row
                assert got.witness_min is None and got.witness_max is None

    @pytest.mark.parametrize("name", [e.name for e in cat.all_entries()])
    def test_signature_memo_matches_brute_force(self, name):
        self._check_against_brute_force(cat.lookup(name).spec)

    @pytest.mark.parametrize(
        "expr", random.Random(3).sample(raw_universe(), 8)
        + _two_branch_unions(4, 4))
    def test_raw_regexes_match_brute_force(self, expr):
        self._check_against_brute_force(PatternSpec(expr, expr))

    def test_an_occurrence_trimmed_to_nothing_is_refused(self):
        lone = PatternSpec("lone", "<", a=1, b=1)
        # both read series._features, so both name the occurrence of the
        # first such signature in letter order, '==<', in its words
        refusal = re.escape("occurrence (3,3) of lone trims to nothing")
        with pytest.raises(EmptyPatternError, match=refusal):
            orc._cell_extrema(lone, list(_signature_levels(lone, 3, 1)),
                              Domain(0, 1), [(Aggregator.SUM, Feature.ONE)])
        with pytest.raises(EmptyPatternError, match=refusal):
            orc.brute_extrema(lone, Feature.ONE, Aggregator.SUM, 4,
                              Domain(0, 1))

    def test_value_dependent_feature_is_refused(self):
        with pytest.raises(ValueError, match="surf"):
            orc._cell_extrema(PEAK, list(_signature_levels(PEAK, 3, 1)),
                              Domain(0, 1), [(Aggregator.SUM, Feature.SURF)])

        def surf_bound(g, f, side, spec, n, d):
            return BoundResult(0, side, False, "test")

        with pytest.raises(ValueError, match="surf"):
            orc.sharpness_report(
                [PEAK], [(Aggregator.SUM, Feature.SURF, Side.UPPER)],
                n_range=[4], domains=[Domain(0, 1)], bound_fn=surf_bound)


class TestRawSweep:
    # The draw: every one-branch raw regex and 600 two-branch unions of
    # them.  A seeded slice certifies in about 2 s; SIGBOUNDS_RAW_SWEEP=all
    # certifies the whole draw to n = 8 instead (10–13 s).
    SLICE = 200
    # its nb lower bound was once flagged sharp though every series of
    # four or more values over 0:1 holds an occurrence
    NAMED = ["=*=?(>=)*(<>)*"]

    def test_raw_regexes_certify(self, capfd):
        draw = raw_universe() + _two_branch_unions(12, 600)
        if os.environ.get("SIGBOUNDS_RAW_SWEEP") == "all":
            exprs, ns = draw, range(2, 9)
        else:
            exprs = random.Random(26).sample(draw, self.SLICE)
            ns = range(2, 8)
        rep = orc.sharpness_report(
            [PatternSpec(e, e) for e in self.NAMED + exprs], n_range=ns)
        got = rep.summary()
        with capfd.disabled():
            print(f"RAW SWEEP: {len(self.NAMED + exprs)} regexes, n up to "
                  f"{ns[-1]}: {got['rows']} rows, {got['skipped']} skipped, "
                  f"{got['failed']} failed", flush=True)
        assert rep.ok, [r.to_json() for r in rep.failures[:5]]


def _counted_key_steps(monkeypatch) -> list[int]:
    """A counter of the key steps every signature walk takes from here on;
    each walk gets its step from ``series._scan_stepper``."""
    stepper, calls = series._scan_stepper, [0]

    def counted_stepper(spec, span):
        start, step = stepper(spec, span)

        def counted(*args):
            calls[0] += 1
            return step(*args)
        return start, counted

    monkeypatch.setattr(series, "_scan_stepper", counted_stepper)
    return calls


class TestSignatureLevels:
    @pytest.mark.parametrize(
        "spec", [e.spec for e in cat.all_entries()]
        + [PatternSpec(e, e) for e in random.Random(3).sample(
            raw_universe(), 8) + _two_branch_unions(4, 4)],
        ids=lambda spec: spec.name)
    def test_merged_chains_are_the_word_walk_chains(self, spec):
        for span in (1, 2, 3):
            for m in range(9):
                walk = bounded_height_automaton(min(span, m))._prefixes(m)
                prefixes = Counter(len(word) for word, _ in walk)
                levels = list(_signature_levels(spec, m, span))
                assert len(levels) == m + 1
                for k, level in enumerate(levels):
                    assert len(level) <= prefixes[k], (span, m, k)
                # each chain, ordered by the least word carrying it, the
                # chain scanned on each reversed signature by itself
                want = dict.fromkeys(
                    tuple((m - o.j, o.j - o.i + 1) for o in
                          series.maximal_occurrences(spec, word[::-1]))
                    for word in bounded_height_automaton(span).words(m))
                got = dict.fromkeys(chain for _, _, chain in levels[-1])
                assert list(got) == list(want), (span, m)

    def test_the_fold_merges_prefixes_and_lists_no_words(self, monkeypatch):
        def refused(*args):
            raise AssertionError("words were listed")

        def walk_only():
            monkeypatch.setattr(sr.Automaton, "_prefixes", refused)
            # the key's run counter stands for H_span: no automaton steps
            monkeypatch.setattr(sr.Automaton, "step", refused)
            return _counted_key_steps(monkeypatch)

        calls = walk_only()
        cells = orc._cell_extrema(PEAK, list(_signature_levels(PEAK, 9, 3)),
                                  Domain(0, 3),
                                  [(g, f) for g, f, _ in orc.GF_SUPPORTED])
        assert cells[(Aggregator.SUM, Feature.ONE)].max_all == 4
        # 2,697 key steps; the word walk steps 24,165 times on this cell
        assert 0 < calls[0] < 4000
        # a cell with failing rows finds its counterexamples on the levels;
        # the bounds themselves read words, so they are taken beforehand
        monkeypatch.undo()
        tight = {(g, f, side): off_by_one(g, f, side, PEAK, 10, Domain(0, 3))
                 for g, f, side in orc.GF_SUPPORTED}
        calls = walk_only()
        rep = orc.sharpness_report(
            [PEAK], n_range=[10], domains=[Domain(0, 3)],
            bound_fn=lambda g, f, side, *_: tight[g, f, side])
        assert len(rep.failures) == 5
        assert all(r.counterexample for r in rep.failures)
        # 4,795 steps here: the fold's one walk of 2,697, then 2,098 down
        # its levels, each (level, letter) stepped once for all five
        # extremes; 7,492 when the descent walked the levels again, 8,845
        # when each extreme also stepped its own, and a walk over the
        # words took 24,165 on top of the fold
        assert 0 < calls[0] <= 4795
        assert pr._carries_maximal(PEAK, "<>", 10, 3)

    def test_a_longer_wider_walk_files_every_shorter_narrower_step(self):
        spec = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
        for _ in _signature_levels(spec, 9, 3):
            pass
        rows, _, moves = series._row_moves(spec)
        filed = list(rows), dict(moves)
        for span in (0, 1, 2, 3):
            for m in range(10):
                for _ in _signature_levels(spec, m, span):
                    pass
        for n in range(4, 11):
            for span in (1, 2, 3):
                pr._carries_maximal(spec, "<>", n, span)
        assert (rows, moves) == filed

    @pytest.mark.parametrize("name", ["peak", "steady", "zigzag"])
    def test_the_default_grid_builds_each_step_once(self, name,
                                                    monkeypatch):
        far_step, built = series._far_step, [0]

        def counted(*args):
            built[0] += 1
            return far_step(*args)

        monkeypatch.setattr(series, "_far_step", counted)
        entry = cat.lookup(name)
        spec = PatternSpec(entry.name, entry.expr, entry.a, entry.b)
        gfs = [(g, f) for g, f, _ in orc.GF_SUPPORTED]
        for span in (1, 2, 3):
            for n in range(2, 8):
                levels = list(_signature_levels(spec, n - 1, span))
                orc._cell_extrema(spec, levels, Domain(0, span), gfs)
        # the rows, not the length or the span, name a step
        moves = series._row_moves(spec)[2]
        assert built[0] == len(moves) < 100


class TestSignatureSupport:
    WORDS = ["".join(t) for k in range(7)
             for t in itertools.product("<=>", repeat=k)]

    def test_least_series_matches_enumeration(self):
        for d in (Domain(0, 0), Domain(0, 1), Domain(0, 2), Domain(0, 3)):
            for w in self.WORDS:
                assert least_support(w, d) == \
                    next(iter_supporting_series(w, d), None), (w, d)


def _extrema_fields(ex):
    return (ex.min_all, ex.max_all, ex.min_occ, ex.max_occ, ex.count)


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

    def test_superpositions_match_generate_and_test(self):
        # every word with prefix v and suffix w, no longer than v and w laid
        # end to end, that leaves the language and fits the span
        for entry in cat.all_entries():
            spec = entry.spec
            words = [u for u in spec.aut.words_up_to(3) if u]
            for v, w in itertools.product(words, words):
                cands = [z for length in range(max(len(v), len(w)),
                                               len(v) + len(w) + 1)
                         for z in naive_anchored_candidates(v, w, length)
                         if not spec.aut.accepts(z)]
                for span in range(4):
                    want = sorted((z for z in cands
                                   if word_height(z) <= span), key=word_key)
                    got = ch.superpositions(spec, v, w, Domain(0, span))
                    assert got == want, (entry.name, v, w, span)

    def test_class_overlap_matches_pair_by_pair(self):
        # seams decided on state classes against every word pair, at the
        # least cap and the default one
        exprs = raw_universe() + _two_branch_unions(5, 150)
        for e in exprs:
            spec = PatternSpec(e, e)
            for span in (1, 2, 3):
                d = Domain(0, span)
                for cap in (max(0, ch.width(spec) - 2), None):
                    assert ch.overlap(spec, d, cap) == \
                        orc.brute_overlap(spec, d, cap), (e, span, cap)

    def test_overlap_at_every_cap_matches_pair_by_pair(self):
        # the class walk to top letters against every word pair at each cap
        # up to top, at spans 0 to 4, below and above the patterns' heights
        starred = [e for e in raw_universe() if "*" in e][::4]
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e)
                    for e in starred + _two_branch_unions(6, 60)])
        budget = [orc.DEFAULT_BUDGET]
        for spec in specs:
            least = max(0, ch.width(spec) - 2)
            for span in range(5):
                want = tuple(orc._all_pairs_overlap(spec, Domain(0, span), c,
                                                    budget)
                             for c in range(least + 5))
                for top in range(least + 2, least + 5):
                    assert ch._max_overlaps(spec, span, top) \
                        == want[:top + 1], (spec.name, span, top)

    def test_overlap_walks_classes_not_words(self, monkeypatch):
        def refused(*args):
            raise AssertionError("words were listed")

        # fresh specs, so no walk is read from a memo
        peak = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
        zigzag = PatternSpec("(><)*<(<>)*>?", "(><)*<(<>)*>?")
        monkeypatch.setattr(sr.Automaton, "_prefixes", refused)
        monkeypatch.setattr(sr.Automaton, "words_up_to", refused)
        assert ch._max_overlaps(peak, 3, 30) == (0, 0) + (1,) * 29
        # the overlap grows by two every two letters of cap: unbounded
        got = ch._max_overlaps(zigzag, 2, 11)[4:]
        assert got == (4, 4, 4, 6, 6, 8, 8, 10)
        monkeypatch.undo()
        assert got == tuple(orc._all_pairs_overlap(zigzag, Domain(0, 2), c,
                                                   [orc.DEFAULT_BUDGET])
                            for c in range(4, 12))

    def test_each_probe_cap_matches_pair_by_pair(self):
        # one walk to cap + 2 answers cap, cap + 1 and cap + 2: each entry
        # against the pairs of words fitting that cap, at small caps where
        # raw words run past it, at spans 0 to 4
        starred = [e for e in raw_universe() if "*" in e][::4]
        specs = ([e.spec for e in cat.all_entries()]
                 + [PatternSpec(e, e)
                    for e in starred + _two_branch_unions(7, 150)])
        budget = [orc.DEFAULT_BUDGET]
        for spec in specs:
            least = max(0, ch.width(spec) - 2)
            for span, cap in itertools.product(range(5), (least, least + 1)):
                d = Domain(0, span)
                overlaps = ch._max_overlaps(spec, span, cap + 2)
                variations = ch._variations(spec, span, cap)
                for c in range(cap, cap + 3):
                    assert overlaps[c] == orc._all_pairs_overlap(
                        spec, d, c, budget), (spec.name, span, c)
                    assert variations[c - cap] == orc._all_pairs_variation(
                        spec, d, c, budget), (spec.name, span, c)

    def test_variation_without_strict_free_words_lists_none(self,
                                                            monkeypatch):
        def refused(*args):
            raise AssertionError("words were listed")

        # every peak word holds both ``<`` and ``>``, so no pair can vary;
        # a fresh spec, so no walk is read from a memo
        peak = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
        monkeypatch.setattr(sr.Automaton, "_prefixes", refused)
        monkeypatch.setattr(sr.Automaton, "words_up_to", refused)
        for span in (1, 2, 3):
            assert ch._variations(peak, span, 6) == (0, 0, 0)
        monkeypatch.undo()
        # every pair at caps 6 and 7; at cap 8, where the pairs are too
        # many to try here, the words alone show why no pair varies
        for span in (1, 2, 3):
            assert [orc._all_pairs_variation(peak, Domain(0, span), c,
                                             [orc.DEFAULT_BUDGET])
                    for c in (6, 7)] == [0, 0]
        assert all(sr.LT in u and sr.GT in u
                   for u in peak.aut.words_up_to(8) if u)

    def test_variation_of_a_pattern_that_never_overlaps_walks_nothing(
            self, monkeypatch):
        def refused(*args):
            raise AssertionError("a strict-free word was searched")

        # these never overlap within cap + 2 letters at spans 1 to 3, so the
        # memoized overlap settles the variation before any other walk
        monkeypatch.setattr(ch, "_accepts_without", refused)
        for name in ("decreasing_sequence", "steady_sequence",
                     "strictly_increasing_sequence"):
            e = cat.lookup(name).spec
            spec = PatternSpec(e.name, e.expr, e.a, e.b)
            for span in (1, 2, 3):
                assert ch._variations(spec, span, ch.default_cap(spec)) \
                    == (0, 0, 0), (name, span)

    def test_zero_cap_is_the_least_cap_of_a_gluing_zero_pair(self):
        # at span 1 and cap 2 the first pair of the last language to glue,
        # (``>``, ``<=>``), fits cap + 1, and a later one, (``><``, ``><``),
        # fits the cap
        expr = "(((>)?|(<<)?)|((><|<=>)|=>>))"
        cases = [(e.spec, max(0, ch.width(e.spec) - 2))
                 for e in cat.all_entries()]
        cases += [(PatternSpec(expr, expr), cap) for cap in range(4)]
        for spec, cap in cases:
            words = [u for u in spec.aut.words_up_to(cap + 2) if u]
            has_gt = [u for u in words if sr.GT in u]
            has_lt = [u for u in words if sr.LT in u]
            for span in (1, 2, 3):
                want = min((max(cap, len(v), len(w))
                            for v, w in itertools.product(has_gt, has_lt)
                            if ch._glue(spec, v, w, span)), default=cap + 3)
                assert ch._zero_cap(spec, span, cap, has_gt, has_lt) == want, \
                    (spec.name, span, cap)

    def test_one_sided_variation_scans_no_superposition(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a superposition was scanned")

        # every word holds ``>``, so no pair varies upward, and ``>`` glued
        # to ``<>`` is a pair varying by exactly 0 within every cap here
        expr = "(<|=)*>(<|=)*"
        monkeypatch.setattr(ch, "_shifts", refused)
        for span in (1, 2, 3):
            spec = PatternSpec(expr, expr)
            for cap in (ch.default_cap(spec), 7):
                assert ch._variations(spec, span, cap) == (0, 0, 0)
        monkeypatch.undo()
        # one-sided with no zero pair: every word holds ``<``, none ``>``
        terrace = cat.lookup("increasing_terrace").spec
        spec = PatternSpec(terrace.name, terrace.expr, terrace.a, terrace.b)
        assert ch._variations(spec, 3, ch.default_cap(spec)) == (1, 1, 1)

    def test_budget_applies_to_gluing_search(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.brute_overlap(PEAK, Domain(0, 1), budget=5)

    def test_raw_regexes_match_the_fast_searches(self):
        # the pruned variation and the class-decided overlap against every
        # pair, on the 408 one-branch raw regexes
        exprs = raw_universe()
        assert len(exprs) == 408
        for e in exprs:
            spec = PatternSpec(e, e)
            for span in (1, 2, 3):
                d = Domain(0, span)
                assert ch.overlap(spec, d) == orc.brute_overlap(spec, d), \
                    (e, span)
                assert ch.smallest_variation(spec, d) == \
                    orc.brute_variation(spec, d), (e, span)


# two-branch raw regexes mixing a branch whose width grows with the span
# and a fixed branch that is wider at small spans
MIXED_BRANCHES = ("<*<<|=<", "<*>>|<", "<<*<|<=", "<?<|<<>*", "<|>*<<",
                  "=>|<<<*", ">=|>>>*", ">>*>|><")


# one-branch raw regexes whose range follows a template at n = omega + 2
# .. omega + 4 and leaves it further on
TEMPLATE_LEAVERS = ("(<<)*>+", "(<=)*(<>)*<?>", "(<<)*=>+<")


class TestSweep:
    def test_mixed_branch_raw_regexes_pass_the_default_grid(self):
        specs = [PatternSpec(e, e) for e in MIXED_BRANCHES]
        rep = orc.sharpness_report(specs)
        assert rep.failures == []

    def test_nullable_raw_regexes_pass_the_default_grid(self):
        # a nullable regex's height counts nonempty words, so the width
        # bounds read its minimal words rather than refuse
        specs = [PatternSpec(e, e) for e in ("<*", "(<>)*", "(<|>)*", "<|1")]
        rep = orc.sharpness_report(specs, n_range=range(2, 9))
        assert rep.failures == []
        assert rep.summary()["checked"] == 105 + 69 + 84 + 42

    @pytest.mark.parametrize("expr", TEMPLATE_LEAVERS)
    def test_regexes_leaving_a_sampled_template_get_no_width_bound(
            self, expr):
        spec = PatternSpec(expr, expr)
        assert ch.range_params(spec) is None
        got = CliRunner().invoke(main, ["bound", "max_width", expr,
                                        "--side", "upper", "--n", "6",
                                        "--hi", "2"])
        assert got.exit_code == 3
        assert "width-max (range-template)" in got.output
        width_upper = [(g, Feature.WIDTH, Side.UPPER)
                       for g in (Aggregator.MAX, Aggregator.SUM)]
        rep = orc.sharpness_report([spec], width_upper, range(2, 10))
        assert rep.failures == []

    def test_clean_cell_confirms_all_bounds(self):
        rep = orc.sharpness_report([PEAK], n_range=[4],
                                   domains=[Domain(0, 1)])
        assert rep.ok
        assert rep.summary() == {
            "rows": 5, "checked": 5, "skipped": 0, "failed": 0,
            "sharp_confirmed": 5,
        }

    def test_rows_are_immutable_and_hashable(self):
        rep = orc.sharpness_report([PEAK, DEC], n_range=[3],
                                   domains=[Domain(0, 2)])
        row = rep.rows[0]
        with pytest.raises(AttributeError):
            row.bound = 0
        assert len(set(rep.rows)) == len(rep.rows)
        assert row._replace(bound=row.bound) == row

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

    def test_cells_whose_rows_all_hold_make_no_descent(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a cell without a failing row descended")

        monkeypatch.setattr(orc, "_counterexamples", refused)
        rep = orc.sharpness_report([PEAK, DEC, ZIGZAG])
        assert rep.ok
        assert rep.summary()["checked"] > 200

    def test_invalid_bound_is_caught_with_counterexample(self):
        def too_low(g, f, side, spec, n, d):
            r = bd.bound(g, f, side, spec, n, d)
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

    def test_counterexamples_are_the_brute_force_witnesses(self):
        # every bound one step too tight, so each row whose extreme the
        # bound meets fails, and its counterexample is the first series
        # in lexicographic order that attains the violated extreme
        specs = [e.spec for e in cat.all_entries()] + [
            PatternSpec(e, e) for e in random.Random(3).sample(
                raw_universe(), 8)]
        # shifted domains pin the value read off each height bit
        domains = [Domain(0, 1), Domain(0, 2), Domain(0, 3), Domain(2, 4),
                   Domain(-1, 0)]
        rep = orc.sharpness_report(specs, n_range=range(2, 6),
                                   domains=domains, bound_fn=off_by_one)
        spec_of = {spec.name: spec for spec in specs}
        invalid = [r for r in rep.rows if r.valid is False]
        assert len(invalid) > 500
        assert {r.side for r in invalid} == {Side.UPPER, Side.LOWER}
        brute = {}
        for r in invalid:
            key = (r.pattern, r.g, r.f, r.n, r.domain)
            if key not in brute:
                brute[key] = orc.brute_extrema(spec_of[r.pattern], r.f, r.g,
                                               r.n, r.domain)
            ex = brute[key]
            want = ex.witness_max if r.side is Side.UPPER else ex.witness_min
            assert r.counterexample == want, r.to_json()

    def test_unattained_sharp_claim_is_caught(self):
        def too_high(g, f, side, spec, n, d):
            r = bd.bound(g, f, side, spec, n, d)
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

    def test_a_sweep_walks_each_pattern_and_domain_once(self, monkeypatch):
        # every length's cell folds a slice of one walk to the longest
        spec = PatternSpec(PEAK.name, PEAK.expr, PEAK.a, PEAK.b)
        calls = _counted_key_steps(monkeypatch)
        rep = orc.sharpness_report([spec], n_range=range(2, 11),
                                   domains=[Domain(0, 3)])
        assert rep.ok and rep.summary()["checked"] == 45
        swept, calls[0] = calls[0], 0
        for _ in _signature_levels(spec, 9, 3):
            pass
        # 2,697 steps each; a walk per length took 5,349
        assert swept == calls[0]

    def test_any_length_order_keeps_the_one_length_rows(self):
        # the walk is stepped to n = 7 first, then read shorter and again;
        # the off-by-one bounds make some cells descend a slice
        specs, ns = [PEAK, ZIGZAG], [7, 3, 7, 2]
        domains = [Domain(0, 1), Domain(0, 2), Domain(0, 3)]
        for bound_fn in (None, off_by_one):
            got = orc.sharpness_report(specs, n_range=ns, domains=domains,
                                       bound_fn=bound_fn)
            want = [row for spec in specs for d in domains for n in ns
                    for row in orc.sharpness_report(
                        [spec], n_range=[n], domains=[d],
                        bound_fn=bound_fn).rows]
            assert got.rows == want
        assert any(r.counterexample for r in got.rows)
        assert orc.sharpness_report(specs, n_range=[]).rows == []

    def test_budget_rejects_before_enumerating(self):
        with pytest.raises(orc.BudgetExceededError):
            orc.sharpness_report([PEAK], n_range=range(2, 31),
                                 domains=[Domain(0, 1)])

    def test_a_length_below_one_is_refused_before_any_cell(self,
                                                           monkeypatch):
        def answer(g, f, side, spec, n, d):
            return BoundResult(0, side, False, "test")

        nb = [(Aggregator.SUM, Feature.ONE, Side.UPPER)]
        calls = _counted_key_steps(monkeypatch)
        for ns in ([0], [3, -1]):
            with pytest.raises(ValueError, match=f"at least 1, got {ns[-1]}"):
                orc.sharpness_report([PEAK], nb, n_range=ns,
                                     domains=[Domain(0, 1)], bound_fn=answer)
        assert calls[0] == 0
        # one value folds level 0 alone: a series with no occurrence
        rep = orc.sharpness_report([PEAK], nb, n_range=[1],
                                   domains=[Domain(0, 1)], bound_fn=answer)
        assert [(r.brute_min, r.brute_max, r.valid) for r in rep.rows] == \
            [(0, 0, True)]
        assert calls[0] == 0

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
