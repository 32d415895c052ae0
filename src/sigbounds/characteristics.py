"""Characteristics of a pattern: width, height, range, inducing words,
overlap and smallest variation of maxima.

Width and height are plain language measures.  The range function reports,
for a series length, the smallest domain span admitting an occurrence, and
which affine template in n it follows, if any.  Height, range and template
walk keys, with no automaton product: a state with the run counter of
:func:`word_height`, under the least height reaching it.  The remaining
three describe how occurrences interact when packed tightly: superpositions
are the words gluing two occurrences together, the overlap counts the
variables two adjacent patterns can share, and the smallest variation
measures how the maxima of glued patterns must differ.

Overlap and variation quantify over all pairs of language words, so they are
computed under a length cap with a stability probe: a value is reported as
settled only if enlarging the cap does not change it.  One walk to cap + 2
letters answers the probes at cap, cap + 1 and cap + 2.  The overlap never
lists a word: it walks classes of words, the automaton states a word
reaches or accepts from with the run counter that names the height
levels it can end or start on, and decides each seam length on pairs of
classes.  The variation sorts
pairs into sign classes: a ``>`` in the leading word or a ``<`` in the
trailing one pins that word's shift to 0, so a pair holding both varies
by 0, and a pattern whose words all hold ``>``, or all hold ``<``, varies
in one sign only and settles at the first pair varying by 0.  Both read
the domain only through its span, so each walk is made once per (pattern,
span, cap) and kept, like the plain language measures, in the pattern's
memo, freed with the pattern.  One rule, :func:`_by_span`, keys overlap
and variation there by span and resolved cap, and the property checks
and ``bounds.interval_cap``, which read the default cap, by span alone.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from functools import wraps
from itertools import chain, count, islice, product
from typing import Callable, Iterable, Iterator, Optional

from . import sigregex
from .series import (Domain, PatternSpec, _climb, _height_levels,
                     _maximal_spans, _memoized, word_height)
from .sigregex import ALPHABET, GT, LT, check_word


class CharacteristicsError(Exception):
    pass


class WordNotInLanguageError(CharacteristicsError):
    pass


class AmbiguousInducingWordError(CharacteristicsError):
    """A branch has several shortest nonempty words."""

    def __init__(self, branch: int, words: Iterable[str]):
        ws = sorted(words, key=sigregex.word_key)
        super().__init__(f"branch {branch} has several shortest words: {ws}")
        self.branch = branch
        self.words = tuple(ws)


class CharKind(Enum):
    DEFINED = "defined"
    UNDEFINED = "undefined"
    UNBOUNDED = "unbounded"
    CAP_LIMITED = "cap_limited"


@dataclass(frozen=True)
class CharValue:
    """A characteristic result: a number, or a reason there is none.

    ``UNDEFINED`` means the definition yields no value (for instance mixed
    variation signs).  ``UNBOUNDED`` flags a quantity that kept growing as
    the search cap grew.  ``CAP_LIMITED`` reports the value found at the
    stated cap without a stability guarantee.
    """

    kind: CharKind
    value: Optional[int] = None
    cap: Optional[int] = None

    @classmethod
    def defined(cls, value: int) -> "CharValue":
        return cls(CharKind.DEFINED, value)

    @classmethod
    def undefined(cls) -> "CharValue":
        return cls(CharKind.UNDEFINED)

    @classmethod
    def unbounded(cls, cap: int) -> "CharValue":
        return cls(CharKind.UNBOUNDED, None, cap)

    @classmethod
    def cap_limited(cls, value: int, cap: int) -> "CharValue":
        return cls(CharKind.CAP_LIMITED, value, cap)

    @property
    def is_defined(self) -> bool:
        return self.kind is CharKind.DEFINED

    def expect(self) -> int:
        if not self.is_defined:
            raise CharacteristicsError(f"no settled value: {self}")
        assert self.value is not None
        return self.value

    def __str__(self) -> str:
        if self.kind is CharKind.DEFINED:
            return str(self.value)
        if self.kind is CharKind.UNDEFINED:
            return "undefined"
        if self.kind is CharKind.UNBOUNDED:
            return f"unbounded(cap={self.cap})"
        return f"cap_limited({self.value}, cap={self.cap})"

    def to_json(self):
        if self.kind is CharKind.DEFINED:
            return self.value
        out = {"kind": self.kind.value}
        if self.value is not None:
            out["value"] = self.value
        if self.cap is not None:
            out["cap"] = self.cap
        return out


# --------------------------------------------------------------------------
# Plain language measures

@_memoized
def width(spec: PatternSpec) -> int:
    """Length of a shortest nonempty word of the language."""
    w = spec.aut.shortest_nonempty_length()
    if w is None:
        raise sigregex.EmptyLanguageError(
            f"{spec.name}: no nonempty word in the language"
        )
    return w


def _counter_step(aut: sigregex.Automaton, level: tuple) -> tuple:
    """The key level one letter past ``level``: the run counter steps as in
    :func:`word_height`, each (state, c) under its least height."""
    reached: dict[tuple[int, int], int] = {}
    for low, c, states in level:
        for letter in ALPHABET:
            if ends := aut.step(states, letter):
                d = _climb(c, letter)
                key = (max(low, d, -d), d)
                reached[key] = reached.get(key, 0) | ends
    seen, out = {}, []
    for (low, c), states in sorted(reached.items()):
        if states & ~seen.get(c, 0):
            out.append((low, c, states & ~seen.get(c, 0)))
            seen[c] = seen.get(c, 0) | states
    return tuple(out)


# the levels of _key_levels filed so far, in the pattern's memo
_key_walk = _memoized(lambda spec: [((0, 0, spec.aut.initial),)])


def _key_levels(spec: PatternSpec) -> Iterator[tuple]:
    """The keys reached by the words of 0, 1, 2, ... letters, without end:
    each (state, run counter c) once, under its least height, in a sorted
    tuple of (height, c, states) per level; the keys of height at most h
    are the walk within h.  Levels up to n_states * (2 * width + 1), all
    the height and template questions read, are filed once per pattern."""
    levels, aut = _key_walk(spec), spec.aut
    for k in count():
        level = levels[k] if k < len(levels) else _counter_step(aut, level)
        if k == len(levels) <= aut.n_states * (2 * width(spec) + 1):
            levels.append(level)
        yield level


@_memoized
def _shortest_supportable(spec: PatternSpec, h: int) -> Optional[int]:
    """Length of a shortest nonempty language word of height at most h, or
    None: the width from h = width on, else breadth first within h up to an
    empty level, as such a word visits a key once after a letter."""
    if h >= width(spec):
        return width(spec)
    levels = islice(_key_levels(spec), 1, spec.aut.n_states * (2 * h + 1) + 1)
    for k, level in enumerate(levels, 1):
        within = [states for low, _, states in level if low <= h]
        if not within or any(states & spec.aut.accepting for states in within):
            return k if within else None
    return None


@_memoized
def height(spec: PatternSpec) -> int:
    """Smallest h such that some nonempty language word has height h: the
    first h whose key walk within height h accepts after a letter or more.

    Never exceeds the width, since a word of length k has height at most k.
    """
    return next(h for h in range(width(spec) + 1)
                if _shortest_supportable(spec, h) is not None)


@_memoized
def range_of(spec: PatternSpec, n: int) -> CharValue:
    """Smallest domain span allowing an occurrence in a series of length n.

    Equivalently: the least h such that the language contains a word of
    length n - 1 and height at most h.  Undefined when no such word exists.
    Read off the template if one holds, else off the key walk.
    """
    if n < 2:
        raise CharacteristicsError("series length must be at least 2")
    if not spec.aut.has_length(n - 1):
        return CharValue.undefined()
    if (ec := range_params(spec)) and n >= width(spec) + 2:
        e, c = ec
        return CharValue.defined(e * (n - 1 - height(spec)) + c + height(spec))
    level = next(islice(_key_levels(spec), n - 1, None))
    return CharValue.defined(min(low for low, _, states in level
                                 if states & spec.aut.accepting))


def _lengths_from(sets: Iterator, m: int, label: Callable) -> set:
    """The labels of the sets from the m-th on of a walk whose every set
    from there follows from the one before: up to a repeat or a second
    label."""
    seen, labels = set(), set()
    for states in islice(sets, m, None):
        if states in seen or len(labels) > 1:
            return labels
        seen.add(states)
        labels.add(label(states))


@_memoized
def range_params(spec: PatternSpec) -> Optional[tuple[int, int]]:
    """The affine template e*(n - 1 - eta) + c + eta the range follows at
    every n >= omega + 2, decided exactly, or None when none holds.

    All three are read off the key walk from m = omega + 1 letters on:
    (0, 0) when L within height eta has every length; (0, 1) when it has
    none but L within height eta + 1 has every one, both by the least
    accepting height; (1, 0) when L has every length and no non-monotone
    word.  Only ``<`` * k takes the run counter to k, and only ``>`` * k to
    -k, so a level of k letters splits into the states of those two words
    and of the rest; for k >= 1 each split follows from the one before.
    """
    m, eta, aut = width(spec) + 1, height(spec), spec.aut
    within = (tuple(key for key in level if key[0] <= eta + 1)
              for level in _key_levels(spec))
    fit = _lengths_from(within, m, lambda keys: min(
        (low for low, _, states in keys if states & aut.accepting),
        default=None))
    if fit in ({eta}, {eta + 1}):
        return (0, fit.pop() - eta)

    def split(k: int, level: tuple) -> tuple[int, ...]:
        out = [0, 0, 0]
        for _, c, states in level:
            out[2 if abs(c) < k else c < 0] |= states
        return tuple(out)
    monotone = _lengths_from(
        map(split, count(), _key_levels(spec)), m,
        lambda s: bool((s[0] | s[1]) & aut.accepting)
        and not s[2] & aut.accepting)
    return (1, 0) if monotone == {True} else None


@_memoized
def branch_specs(spec: PatternSpec) -> tuple[PatternSpec, ...]:
    """One spec per top-level branch of the expression; the spec itself
    when there is a single branch."""
    if not isinstance(spec.ast, sigregex.Union):
        return (spec,)
    return tuple(PatternSpec(f"{spec.name}[{idx}]", sigregex.render(branch))
                 for idx, branch in enumerate(spec.ast.parts))


@_memoized
def inducing_words(spec: PatternSpec) -> frozenset[str]:
    """The shortest nonempty word of each top-level branch that has one.

    Branches must be disjunction-capsuled, with at most one shortest
    nonempty word, in a language that has one; otherwise the
    corresponding error is raised.
    """
    sigregex.dc_decompose(spec.ast)
    width(spec)
    out = set()
    for idx, branch in enumerate(branch_specs(spec)):
        shortest = branch.aut.shortest_nonempty_length()
        if shortest is None:
            continue
        words = list(branch.aut.words(shortest))
        if len(words) != 1:
            raise AmbiguousInducingWordError(idx, words)
        out.add(words[0])
    return frozenset(out)


# --------------------------------------------------------------------------
# Superpositions and overlap

def default_cap(spec: PatternSpec) -> int:
    return 2 * width(spec) + 2


def _checked_cap(spec: PatternSpec, cap: Optional[int]) -> int:
    """The given search cap, or the default one when None.

    The stability probes look at words of up to cap + 2 letters; with
    fewer letters than the width they see no word and report a settled 0.
    """
    if cap is None:
        return default_cap(spec)
    least = max(0, width(spec) - 2)
    if cap < least:
        raise CharacteristicsError(
            f"cap {cap} is below {least}, the least cap for {spec.name}"
        )
    return cap


def _by_span(fn):
    """``fn(spec, d[, cap])`` in the pattern's memo by what it reads, the
    span of ``d`` and the resolved cap, so equal questions share it: the
    one memo rule of every question about a domain."""
    memo = _memoized(wraps(fn)(
        lambda spec, span, *cap: fn(spec, Domain(0, span), *cap)))
    if "cap" not in inspect.signature(fn).parameters:
        return wraps(fn)(lambda spec, d: memo(spec, d.span))
    return wraps(fn)(lambda spec, d, cap=None: memo(
        spec, d.span, _checked_cap(spec, cap)))


def superpositions(spec: PatternSpec, v: str, w: str, d: Domain) -> list[str]:
    """Words gluing an occurrence of v to a following occurrence of w.

    A superposition z starts with v, ends with w, is no longer than the two
    words laid end to end, lies outside the language (otherwise it would be
    a single occurrence), and is supportable within the domain.  Candidates
    are the overlays v + w[k:] whose shared block agrees; there is at most
    one per length, which makes the five conditions cheap to check.
    """
    check_word(v)
    check_word(w)
    for word in (v, w):
        if not spec.aut.accepts(word):
            raise WordNotInLanguageError(
                f"{word!r} is not in the language of {spec.name}"
            )
    return _glue(spec, v, w, d.span)


def _glue(spec: PatternSpec, v: str, w: str, span: int) -> list[str]:
    """The superpositions of two words already known to be in the
    language.  Overlays come one per length, shortest first, so the list is
    in canonical order."""
    out = []
    for k in range(min(len(v), len(w)), -1, -1):
        if k and v[-k:] != w[:k]:
            continue
        z = v + w[k:]
        if not spec.aut.accepts(z) and word_height(z) <= span:
            out.append(z)
    return out


def overlap_of_words(spec: PatternSpec, v: str, w: str, d: Domain) -> int:
    """Largest number of shared variables over all superpositions of (v, w).

    A superposition of length len(v) + len(w) - k shares k letters and
    hence k + 1 series variables; with no superposition the overlap is 0.
    """
    zs = superpositions(spec, v, w, d)
    if not zs:
        return 0
    shortest = min(len(z) for z in zs)
    return len(v) + len(w) - shortest + 1


def _classes(aut: sigregex.Automaton, span: int, top: int
             ) -> tuple[list[tuple[int, int, int]], list[dict]]:
    """The classes of the words of at most top letters and height at most
    span read from aut.initial: the states a word reaches, its run counter
    c of :func:`word_height` and the fewest letters of a word in it.
    Breadth first, from the empty word at index 0; a word reaching no
    state or exceeding the span is dropped.  Also the moves of each class
    of fewer than top letters, letter to class index."""
    # a set holding no state with an arc on a letter is not stepped on it
    sources = {letter: sum({1 << q for q, _ in pairs})
               for letter, pairs in aut.arcs.items()}
    classes, moves = [(aut.initial, 0, 0)], []
    index = {classes[0][:2]: 0}
    for states, c, size in classes:
        if size == top:
            break
        moves.append({})
        for letter in ALPHABET:
            if (states & sources[letter]
                    and -span <= (d := _climb(c, letter)) <= span):
                key = (aut.step(states, letter), d)
                if key not in index:
                    index[key] = len(classes)
                    classes.append(key + (size + 1,))
                moves[-1][letter] = index[key]
    return classes, moves


@_memoized
def _max_overlaps(spec: PatternSpec, span: int, top: int) -> tuple[int, ...]:
    """Maximum of overlap_of_words over all word pairs up to each cap
    0 .. top, indexed by the cap, from one walk over classes of words.

    Overlap k + 1 needs words v = u + x and w = x + r with a seam x of k
    letters such that v + r leaves the language and stays supportable.
    u counts by its class (:func:`_classes`) among the words of height at
    most the span, with the levels it can end on read off its run counter
    (:func:`_height_levels`); r by the class of its reversal on
    ``aut.reversal()``: the states r accepts from, and the levels it can
    start on, read off the mirrored counter -c, as ``<`` and ``>`` swap
    roles backwards.  v + r leaves the language iff the states v reaches
    miss those, and stays within the span iff some level v ends on starts
    r.  Seams are walked by length as pairs of classes, of u + x and of
    x, one per distinct pair with the fewest letters of u.  A pair fitting
    a rest counts from the cap fitting both words.
    """
    aut = spec.aut
    best = [0] * (top + 1)
    rests = [(co, _height_levels(-c, span), n)
             for co, c, n in _classes(aut.reversal(), span, top)[0]]
    lefts, moves = _classes(aut, span, top)
    fitting: dict[int, list[tuple[int, int]]] = {}
    pairs = {(left, 0): size for left, (_, _, size) in enumerate(lefts)}
    depth = 0
    while pairs and depth < top:
        need, grown = top + 1, {}
        for (left, seam), size in pairs.items():
            ahead = moves[seam]
            if not ahead:
                continue  # no letter follows x, so no rest does
            if size + depth < need:
                if left not in fitting:
                    # the rests that glue to v = u + x, shortest first
                    after, c, _ = lefts[left]
                    ends = _height_levels(c, span)
                    fitting[left] = [
                        (co, n) for co, starts, n in rests
                        if not co & after and ends & starts
                    ] if after & aut.accepting else []
                # the first that x + r accepts is the least
                for co, n in fitting[left]:
                    if co & lefts[seam][0]:
                        need = min(need, depth + max(size, n))
                        break
            if size + depth < top:
                # pairs come by the letters of u, so the first is the fewest
                for letter, nxt in moves[left].items():
                    if letter in ahead:
                        grown.setdefault((nxt, ahead[letter]), size)
        best[need:] = [depth + 1] * (top + 1 - need)
        pairs, depth = grown, depth + 1
    return tuple(best)


def _stabilize(measure: Callable[[int], Optional[int]],
               cap: int) -> CharValue:
    """Probe a capped measure at cap, cap+2 and, when those differ, cap+1.

    A probe reading None (no value, such as mixed variation signs) reports
    Undefined; stable ends report Defined; a strict increase across all
    three probes reports Unbounded; anything else is CapLimited at the
    deepest cap.
    """
    v0 = measure(cap)
    v2 = None if v0 is None else measure(cap + 2)
    if v2 is None:
        return CharValue.undefined()
    if v0 == v2:
        return CharValue.defined(v0)
    v1 = measure(cap + 1)
    if v1 is None:
        return CharValue.undefined()
    if v0 < v1 < v2:
        return CharValue.unbounded(cap + 2)
    return CharValue.cap_limited(v2, cap + 2)


@_by_span
def overlap(spec: PatternSpec, d: Domain, cap: Optional[int] = None) -> CharValue:
    """Maximum overlap over all pairs of language words, cap-stabilized."""
    return _stabilize(_max_overlaps(spec, d.span, cap + 2).__getitem__, cap)


# --------------------------------------------------------------------------
# Shifts and variation

def shift(spec: PatternSpec, z: str, w: str, i: int) -> Optional[int]:
    """Gap between the series maximum and the top of the i-th w-occurrence.

    Over all series supporting z within the canonical domain [0, h],
    h = word_height(z), take the least difference between the global
    maximum and the maximum inside the extended span of the i-th maximal
    occurrence whose matched factor equals w.  None when w is not a proper
    factor realised by at least i maximal occurrences.

    No series is enumerated: (1) a series with signature z spans at least
    h levels, so inside [0, h] its maximum is exactly h; (2) the pointwise
    maximum of two such series has signature z too, so a greatest one
    exists and reaches the highest top in every window; (3) t supports z
    iff h - t supports z with ``<`` and ``>`` swapped, so the greatest
    series is h minus the least one of the mirrored word.  The least gap
    h - max(h - least[window]) is then the minimum of that window, and the
    least series is read off the word's runs of letters, not built.
    """
    check_word(z)
    check_word(w)
    if i < 1:
        raise CharacteristicsError("occurrence index is 1-based")
    if w == z or not w:
        return None
    found = [gap for factor, gap in _shifts(spec, z) if factor == w]
    return found[i - 1] if len(found) >= i else None


def _shifts(spec: PatternSpec, z: str) -> list[tuple[str, int]]:
    """Each maximal occurrence in z, in order, as its matched factor and
    its shift, the least of the mirrored least series over its extended
    span: one occurrence scan and one pass of runs serve them all.

    The least series of the mirrored word is read off z's runs of letters:
    at position p it is the larger of the number of ``>`` in the longest
    ``<``-free run of z ending at p and the number of ``<`` in the longest
    ``>``-free run of z starting there.  Mirrored, either run is monotone
    and lifts p that far above 0; the least series meets the larger lift.
    It is kept negated, as ``low``, which has signature z, so the
    occurrence scan reads it too.
    """
    rise, rises = 0, [0]
    for letter in z:
        rise = 0 if letter == LT else rise - (letter == GT)
        rises.append(rise)
    fall, falls = 0, [0]
    for letter in reversed(z):
        fall = 0 if letter == GT else fall - (letter == LT)
        falls.append(fall)
    low = list(map(min, rises, reversed(falls)))
    return [(z[i - 1:j], -max(low[i - 1:j + 1]))
            for i, j in _maximal_spans(spec, low)]


def _shift_gap(spec: PatternSpec, z: str, v: str, w: str) -> Optional[int]:
    """shift(z, v, 1) - shift(z, w, 1) on a superposition z of (v, w); for
    v == w the first two v-occurrences are compared.  None when either
    shift is missing.  z is outside the language, so no guard of
    :func:`shift` applies."""
    shifts = _shifts(spec, z)
    sv = [gap for factor, gap in shifts if factor == v]
    sw = [gap for factor, gap in shifts if factor == w][v == w:]
    return sv[0] - sw[0] if sv and sw else None


def _pair_variation(spec: PatternSpec, v: str, w: str, zs: list[str]) -> int:
    """Least-magnitude shift gap over the superpositions zs of (v, w),
    ties broken by canonical word order; 0 when no gap exists."""
    gaps = (_shift_gap(spec, z, v, w) for z in zs)
    return min((x for x in gaps if x is not None),
               key=lambda x: (abs(x), x), default=0)


def _least_variation(vals: list[int]) -> Optional[int]:
    """The least-magnitude value of vals, 0 when there is none, and None
    when both a positive and a negative value occur."""
    if any(x > 0 for x in vals) and any(x < 0 for x in vals):
        return None
    return min(vals, key=lambda x: (abs(x), x), default=0)


def _accepts_without(aut: sigregex.Automaton, letter: str,
                     top: int) -> bool:
    """Whether aut accepts a nonempty word of at most top letters free of
    letter: one set of states per length, stepped on the other two."""
    others, states = [x for x in ALPHABET if x != letter], aut.initial
    for _ in range(top):
        states = aut.step(states, others[0]) | aut.step(states, others[1])
        if states & aut.accepting:
            return True
    return False


def _zero_cap(spec: PatternSpec, span: int, cap: int, has_gt: list[str],
              has_lt: list[str]) -> int:
    """The least of cap, cap + 1 and cap + 2 fitting a pair with ``>`` in
    v and ``<`` in w that glues, or cap + 3 when none does.  A pair is
    glued only when it would fit a lesser cap than the least found."""
    least = cap + 3
    for v, w in product(has_gt, has_lt):
        need = max(cap, len(v), len(w))
        if need < least and _glue(spec, v, w, span):
            least = need
            if least == cap:
                break
    return least


def _variations(spec: PatternSpec, span: int,
                cap: int) -> tuple[Optional[int], ...]:
    """Smallest-magnitude variation over overlapping pairs at the caps
    cap, cap + 1 and cap + 2, each None when both a positive and a
    negative variation occur, from one pass over the pairs of words up to
    cap + 2 letters: a pair counts from the cap fitting its longer word.

    Only a word without ``>`` can open a positive variation, and only a
    word without ``<`` can close a negative one: a strict letter inside the
    leading (resp. trailing) occurrence pins a supporting series whose
    global maximum already sits inside that occurrence, forcing its shift
    to zero.  So the pairs fall in sign classes.  A pair with ``>`` in v
    and ``<`` in w varies by exactly 0: of those, only the least cap where
    one glues counts (:func:`_zero_cap`).  No word is listed when
    nothing overlaps, or when no word up to cap + 2 letters lacks ``>`` and
    none lacks ``<``: every cap reads 0.  With only one of the two kinds of
    word the pattern is one-sided: its variations never differ in sign, so
    a zero pair, or a pair varying by 0, within the cap settles every cap
    at 0, and nothing more is scanned.
    """
    top = cap + 2
    if _max_overlaps(spec, span, top)[top] == 0:
        return (0, 0, 0)
    free = [x for x in (GT, LT) if _accepts_without(spec.aut, x, top)]
    if not free:
        return (0, 0, 0)
    words = [u for u in spec.aut.words_up_to(top) if u]
    has_gt = [u for u in words if GT in u]
    has_lt = [u for u in words if LT in u]
    one_sided = len(free) == 1
    zero = _zero_cap(spec, span, cap, has_gt, has_lt)
    if one_sided and zero <= cap:
        return (0, 0, 0)
    no_gt = [u for u in words if GT not in u]
    no_lt = [u for u in words if LT not in u]
    tagged: list[tuple[int, int]] = []
    for v, w in chain(product(no_gt, words), product(has_gt, no_lt)):
        if zs := _glue(spec, v, w, span):
            need = max(len(v), len(w))
            x = _pair_variation(spec, v, w, zs)
            if one_sided and need <= cap and x == 0:
                return (0, 0, 0)
            tagged.append((need, x))
    out = []
    for c in range(cap, top + 1):
        best = _least_variation([x for need, x in tagged if need <= c])
        out.append(0 if best and zero <= c else best)
    return tuple(out)


@_by_span
def smallest_variation(
    spec: PatternSpec, d: Domain, cap: Optional[int] = None
) -> CharValue:
    """Variation of the overlapping pair with least absolute variation.

    0 when nothing overlaps; Undefined when pairs vary in both directions;
    otherwise cap-stabilized like the overlap.
    """
    vals = _variations(spec, d.span, cap)
    return _stabilize(lambda c: vals[c - cap], cap)


# --------------------------------------------------------------------------
# Summary report

@dataclass(frozen=True)
class CharacteristicsReport:
    spec: PatternSpec
    domain: Domain
    n: int
    cap: int
    omega: int
    eta: int
    range_at_n: CharValue
    range_params: Optional[tuple[int, int]]
    inducing: frozenset[str]
    overlap: CharValue
    variation: CharValue

    def to_json(self):
        return {
            "pattern": self.spec.name,
            "expr": self.spec.expr,
            "a": self.spec.a,
            "b": self.spec.b,
            "domain": str(self.domain),
            "n": self.n,
            "cap": self.cap,
            "width": self.omega,
            "height": self.eta,
            "range_at_n": self.range_at_n.to_json(),
            "range_params": (
                list(self.range_params) if self.range_params else None
            ),
            "inducing_words": sorted(self.inducing, key=sigregex.word_key),
            "overlap": self.overlap.to_json(),
            "variation": self.variation.to_json(),
        }


def report(
    spec: PatternSpec, d: Domain, n: int, cap: Optional[int] = None
) -> CharacteristicsReport:
    """Compute every characteristic of one pattern in one go."""
    cap = _checked_cap(spec, cap)
    return CharacteristicsReport(
        spec=spec,
        domain=d,
        n=n,
        cap=cap,
        omega=width(spec),
        eta=height(spec),
        range_at_n=range_of(spec, n),
        range_params=range_params(spec),
        inducing=inducing_words(spec),
        overlap=overlap(spec, d, cap),
        variation=smallest_variation(spec, d, cap),
    )
