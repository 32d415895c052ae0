"""Parser, renderer and automaton construction."""

from __future__ import annotations

import itertools
import json
import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bounded_height_automaton,
    naive_factors,
    naive_lengths,
    naive_matches,
    naive_maximal_occurrences,
)
from sigbounds import characteristics as ch
from sigbounds import properties as pr
from sigbounds import sigregex as sr
from sigbounds.cli import main
from sigbounds.series import PatternSpec, maximal_occurrences, word_height


def lang(expr: str, max_len: int) -> set[str]:
    return set(sr.compile(sr.parse(expr)).words_up_to(max_len))


class TestParse:
    def test_single_letters(self):
        for ch in "<=>":
            node = sr.parse(ch)
            assert isinstance(node, sr.Lit)
            assert node.letter == ch

    def test_empty_and_epsilon_tokens(self):
        assert sr.parse("0") is sr.EMPTY
        assert sr.parse("1") is sr.EPSILON
        assert sr.compile(sr.parse("0")).is_empty
        assert sr.compile(sr.parse("1")).accepts("")

    def test_union_binds_weaker_than_concat(self):
        # <|=> is <  or  =>, not (<|=)>
        assert lang("<|=>", 2) == {"<", "=>"}
        assert lang("(<|=)>", 2) == {"<>", "=>"}

    def test_star_binds_to_last_factor(self):
        assert lang("<=*", 3) == {"<", "<=", "<=="}

    def test_plus_requires_one(self):
        assert lang(">=+>", 4) == {">=>", ">==>"}
        assert ">>" not in lang(">=+>", 4)

    def test_optional(self):
        assert lang("<>?", 2) == {"<", "<>"}

    def test_whitespace_ignored(self):
        assert lang(" < ( < | = ) ", 2) == lang("<(<|=)", 2)

    def test_nested_groups(self):
        assert "><" in lang("(>(>|=)*)*><((<|=)*<)*", 2)

    @pytest.mark.parametrize("bad, col", [
        ("(<", 3),
        ("((", 3),
        ("<)", 2),
        (")", 1),
        ("<>)", 3),
        ("*", 1),
        ("a", 1),
    ])
    def test_parse_errors_carry_column(self, bad: str, col: int):
        with pytest.raises(sr.ParseError) as err:
            sr.parse(bad)
        assert err.value.column == col

    def test_empty_text_and_empty_branches_mean_epsilon(self):
        assert sr.parse("") is sr.EPSILON
        # an empty union branch is allowed and denotes the empty word
        assert lang("|<", 2) == {"", "<"}
        assert lang("<|", 2) == {"", "<"}


class TestRender:
    @pytest.mark.parametrize("expr", [
        "<", "<|>", "<=*>", "(<|=)*", "<(<|=)*(>|=)*>",
        "(<>)+<(>|1)|(><)+>(<|1)", "0", "1", ">=+>",
    ])
    def test_round_trip_preserves_language(self, expr: str):
        text = sr.render(sr.parse(expr))
        assert lang(text, 4) == lang(expr, 4)

    def test_render_reparses_to_same_tree(self):
        node = sr.parse("<(<|=)*(>|=)*>")
        assert sr.parse(sr.render(node)) == node


class TestWordHelpers:
    def test_check_word_rejects_foreign_letters(self):
        assert sr.check_word("<=>") == "<=>"
        with pytest.raises(ValueError):
            sr.check_word("<x>")

    def test_word_key_orders_by_length_then_text(self):
        words = ["><", "<", "=", "<><", ">", "<>"]
        ordered = sorted(words, key=sr.word_key)
        assert ordered == ["<", "=", ">", "<>", "><", "<><"]


class TestAutomaton:
    def test_accepts_agrees_with_words_up_to(self):
        aut = sr.compile(sr.parse("<(<|=)*>"))
        listed = set(aut.words_up_to(4))
        for k in range(5):
            for tup in itertools.product("<=>", repeat=k):
                w = "".join(tup)
                assert aut.accepts(w) == (w in listed)

    def test_words_up_to_sorted_canonically(self):
        words = sr.compile(sr.parse("(<|>)*")).words_up_to(3)
        assert words == sorted(words, key=sr.word_key)

    def test_is_factor(self):
        # factors of some word of the language, not the other way round
        aut = sr.compile(sr.parse("<>"))
        assert aut.is_factor("")
        assert aut.is_factor("<")
        assert aut.is_factor("<>")
        assert not aut.is_factor("><")
        assert not aut.is_factor("=")
        rich = sr.compile(sr.parse(">=+>"))
        assert rich.is_factor("==")
        assert rich.is_factor(">=")
        assert not rich.is_factor("<")
        assert not sr.compile(sr.parse("0")).is_factor("")

    def test_has_length(self):
        aut = sr.compile(sr.parse(">=+>"))
        assert [k for k in range(20) if aut.has_length(k)] == \
            list(range(3, 20))

    def test_has_length_stops_at_the_first_repeat(self, monkeypatch):
        walk, read = sr.Automaton._length_sets, []

        def counted(aut):
            for states in walk(aut):
                read.append(states)
                yield states

        monkeypatch.setattr(sr.Automaton, "_length_sets", counted)
        aut = sr.compile(sr.parse("<(<<<)*"))
        assert [k for k in range(12) if aut.has_length(k)] == [1, 4, 7, 10]
        read.clear()
        assert aut.has_length(3 * 10 ** 12 + 1)
        assert not aut.has_length(3 * 10 ** 12 + 2)
        assert not aut.has_length(-1)
        # each call reads to the first repeated set, one set per state
        assert len(read) <= 2 * (aut.n_states + 1)

    def test_shortest_nonempty_length(self):
        assert sr.compile(sr.parse(">=+>")).shortest_nonempty_length() == 3
        assert sr.compile(sr.parse("0")).shortest_nonempty_length() is None
        # the empty word does not count
        assert sr.compile(sr.parse("<*")).shortest_nonempty_length() == 1

    def test_length_questions_walk_no_period(self, monkeypatch):
        # unary cycles of the primes up to 23 give a length period of
        # 223,092,870; each question stops at its own answer instead
        walk, read = sr.Automaton._length_sets, []

        def counted(aut):
            for states in walk(aut):
                read.append(states)
                yield states

        monkeypatch.setattr(sr.Automaton, "_length_sets", counted)
        expr = "|".join(f"({'<' * p})*"
                        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        spec = PatternSpec("primes", expr)
        assert ch.width(spec) == 2
        assert not pr.is_fixed_length(spec)
        # 29 is the first length missing from 3 on
        assert ch.range_params(spec) is None
        # height 2 counts only nonempty words, so the shortest-pattern
        # rule applies: only ``<<`` fits within the span
        got = CliRunner().invoke(main, ["bound", "min_width", expr,
                                        "--side", "lower", "--n", "5",
                                        "--hi", "2", "--format", "json"])
        assert got.exit_code == 0
        out = json.loads(got.output)
        assert (out["value"], out["sharp"]) == (3, True)
        assert 0 < len(read) < 300

    def test_intersect_is_language_intersection(self):
        a = sr.compile(sr.parse("<(<|=)*"))
        b = sr.compile(sr.parse("(<|>)(<|>)*"))
        both = a.intersect(b)
        want = lang("<(<|=)*", 3) & lang("(<|>)(<|>)*", 3)
        assert set(both.words_up_to(3)) == want

    def test_intersect_disjoint_is_empty(self):
        a = sr.compile(sr.parse("<"))
        b = sr.compile(sr.parse(">"))
        assert a.intersect(b).is_empty


class TestBoundedHeight:
    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_accepts_exactly_low_words(self, h: int):
        aut = bounded_height_automaton(h)
        for k in range(6):
            for tup in itertools.product("<=>", repeat=k):
                w = "".join(tup)
                assert aut.accepts(w) == (word_height(w) <= h)

    def test_generator_matches_filter(self):
        for h in range(4):
            aut = bounded_height_automaton(h)
            for k in range(7):
                want = ["".join(t) for t in itertools.product("<=>", repeat=k)
                        if word_height("".join(t)) <= h]
                assert list(aut.words(k)) == want, (h, k)

    def test_words_are_closed_under_reversal(self):
        # the certification sweep reads each listed word backwards
        for h in range(4):
            aut = bounded_height_automaton(h)
            for m in range(8):
                words = set(aut.words(m))
                assert {w[::-1] for w in words} == words, (h, m)

    def test_words_are_listed_lazily(self):
        # H_1 has billions of words of 30 letters: too many to list first
        it = bounded_height_automaton(1).words(30)
        assert iter(it) is it
        assert next(it) == "<" + "=" * 29


class TestDisjunctionDecomposition:
    def test_two_branch_pattern(self):
        branches = sr.dc_decompose(sr.parse("<(<|=)*>|>(>|=)*<"))
        assert len(branches) == 2

    def test_single_branch(self):
        assert len(sr.dc_decompose(sr.parse("<=*>"))) == 1


def _ast_strategy():
    letters = st.sampled_from("<=>").map(sr.Lit)
    base = st.one_of(letters, st.just(sr.EPSILON))

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(sr.union),
            st.lists(children, min_size=2, max_size=3).map(sr.concat),
            children.map(sr.star),
        )

    return st.recursive(base, extend, max_leaves=6)


SHORT_WORDS = [
    "".join(t)
    for k in range(4)
    for t in itertools.product("<=>", repeat=k)
]


class TestAgainstNaiveMatcher:
    @settings(max_examples=80, deadline=None)
    @given(_ast_strategy())
    def test_compiled_automaton_matches_recursive_semantics(self, node):
        aut = sr.compile(node)
        members = [w for w in SHORT_WORDS if naive_matches(node, w)]
        for w in SHORT_WORDS:
            assert aut.accepts(w) == (w in members), (node, w)
        assert aut.words_up_to(3) == sorted(members, key=sr.word_key)
        # past the periodic start and period of the length set of so few
        # states, both below n * n; a finite language has no word of
        # n_states letters
        n = aut.n_states
        far = 2 * n * n + 16
        lengths = naive_lengths(node, far)
        for k in range(17):
            assert aut.has_length(k) == (k in lengths), (node, k)
        nonempty = sorted(x for x in lengths if x)
        assert aut.shortest_nonempty_length() == (
            nonempty[0] if nonempty else None), node
        fixed = len(nonempty) == 1 and nonempty[0] < n
        assert pr.is_fixed_length(PatternSpec("h", sr.render(node))) == \
            fixed, node
        # every length from m on, or none
        for m in range(n + 2):
            tail = [k in lengths for k in range(m, far + 1)]
            got = ch._lengths_from(aut._length_sets(), m,
                                   lambda states: bool(states & aut.accepting))
            assert (got == {True}) == all(tail), (node, m)
            assert (got == {False}) == (not any(tail)), (node, m)
        factors = naive_factors(node, 3)
        for w in SHORT_WORDS:
            assert aut.is_factor(w) == (w in factors), (node, w)

    @settings(max_examples=80, deadline=None)
    @given(_ast_strategy(), _ast_strategy())
    def test_intersect_is_language_intersection(self, left, right):
        both = sr.compile(left).intersect(sr.compile(right))
        for w in SHORT_WORDS:
            want = naive_matches(left, w) and naive_matches(right, w)
            assert both.accepts(w) == want, (left, right, w)

    @settings(max_examples=80, deadline=None)
    @given(_ast_strategy())
    def test_render_parse_round_trip(self, node):
        again = sr.parse(sr.render(node))
        a1 = sr.compile(node)
        a2 = sr.compile(again)
        for w in SHORT_WORDS:
            assert a1.accepts(w) == a2.accepts(w)


class TestLazySubsets:
    """The subset construction is built only as far as it is read.

    An eager one would need more than 2 ** 20 subsets for this regex: a
    word's state set records which of its last 21 letters are ``<``.
    """

    EXPR = "(<|=|>)*<" + "(<|=|>)" * 20

    def test_accepts_agrees_with_recursive_semantics(self):
        node = sr.parse(self.EXPR)
        aut = sr.compile(node)
        rng = random.Random(7)
        for _ in range(40):
            w = "".join(rng.choice("<=>") for _ in range(rng.randint(18, 30)))
            assert aut.accepts(w) == naive_matches(node, w), w

    def test_scan_agrees_with_definition(self):
        spec = PatternSpec("far_lt", self.EXPR)
        rng = random.Random(11)
        s = "".join(rng.choice("<=>") for _ in range(300))
        got = maximal_occurrences(spec, s)
        assert got and got == naive_maximal_occurrences(spec, s)
