"""Structural properties a pattern may have over a domain.

Each decision procedure returns a PropertyCheck carrying a re-verifiable
witness on success and the name of the first blocking condition on
failure.  The properties gate the closed-form bounds: a bound is flagged
sharp only when the property justifying it holds.

A check reads neither n nor more of the domain than its span, so each is
kept in the pattern's memo by its span, and every bound rule after the
first reads the answer back.  The overlap and variation a check reads are
the default-cap ones, which the oracle certifies.  The witness is
read-only, so no caller can change what the next one reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from types import MappingProxyType
from typing import Mapping, Optional

from . import characteristics as chars
from . import sigregex
from .series import (Domain, PatternSpec, _carries_maximal, _climb,
                     _memoized, word_height)
from .sigregex import ALPHABET, EQ, GT, LT


class PropertiesError(Exception):
    pass


class FixedLengthRegexError(PropertiesError):
    """All language words share one length, so the property is vacuous."""


@dataclass(frozen=True)
class PropertyCheck:
    """A check's answer.  Its witness is a read-only view, which the
    checks fill with strings, numbers and tuples only, so no reader can
    change what the next one reads."""

    prop: str
    holds: bool
    witness: Optional[Mapping] = None
    failed_condition: Optional[str] = None

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness",
                               MappingProxyType(self.witness))


def _fail(prop: str, condition: str) -> PropertyCheck:
    return PropertyCheck(prop, False, None, condition)


def occurrence_feasible(spec: PatternSpec, n: int, d: Domain) -> bool:
    """Whether any series of length n over d admits an occurrence.

    Exactly when some nonempty language word of length at most n - 1 has
    height at most the span: padding such a word with equalities keeps its
    height, and a factor is never higher than its word.
    """
    shortest = chars._shortest_supportable(spec, d.span)
    return shortest is not None and shortest <= n - 1


def occurrence_avoidable(spec: PatternSpec, n: int, d: Domain) -> bool:
    """Whether some series of length n over d has no occurrence at all.

    Exactly when some signature of n - 1 letters and height at most the
    span has no nonempty factor in the language.  The constant and, over
    two values or more, the alternating series, which :func:`nb_simple`
    offers as witnesses, are tried before the words of
    :func:`_factor_free` are.
    """
    tries = [EQ * (n - 1)]
    if d.span:
        tries.append(((LT + GT) * n)[:n - 1])
    if any(_avoids(spec.aut, w) for w in tries):
        return True
    return _factor_free(spec, d.span).has_length(n - 1)


def _avoids(aut: sigregex.Automaton, word: str) -> bool:
    """No nonempty factor of ``word`` is in the language: the runs started
    at every position so far, read letter by letter, never accept."""
    runs = 0
    for ch in word:
        runs = aut.step(runs | aut.initial, ch)
        if runs & aut.accepting:
            return False
    return True


@_memoized
def _factor_free(spec: PatternSpec, span: int) -> sigregex.Automaton:
    """The words of height at most ``span`` with no nonempty factor in the
    language, as a deterministic automaton.  A state pairs the runs of
    :func:`_avoids` with the run counter c of :func:`word_height`; a
    letter that lets a run accept, or takes |c| past the span, has no
    arc."""
    aut = spec.aut
    keys = [(0, 0)]
    index = {keys[0]: 0}
    arcs: dict[str, list[tuple[int, int]]] = {ch: [] for ch in ALPHABET}
    for at, (runs, c) in enumerate(keys):
        for ch in ALPHABET:
            key = (aut.step(runs | aut.initial, ch), _climb(c, ch))
            if -span <= key[1] <= span and not key[0] & aut.accepting:
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                arcs[ch].append((at, index[key]))
    return sigregex.Automaton(len(keys), 1, (1 << len(keys)) - 1, arcs)


@_memoized
def minimal_words(spec: PatternSpec) -> tuple[str, ...]:
    """Shortest language words of minimal height, canonically ordered."""
    w = chars.width(spec)
    h = chars.height(spec)
    return tuple(u for u in spec.aut.words(w) if word_height(u) == h)


# --------------------------------------------------------------------------
# Counting properties

@chars._by_span
def nb_simple(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """Some series of any length has no occurrence at all.

    If every inducing word carries a strict comparison, the constant
    series works; if every one carries an equality and the domain has two
    values, the alternating series works.
    """
    inducing = tuple(sorted(chars.inducing_words(spec),
                            key=sigregex.word_key))
    if all(any(ch != EQ for ch in w) for w in inducing):
        return PropertyCheck(
            "nb-simple", True,
            {"inducing": inducing, "avoiding_series": "constant"},
        )
    if all(EQ in w for w in inducing):
        if d.span > 0:
            return PropertyCheck(
                "nb-simple", True,
                {"inducing": inducing, "avoiding_series": "alternating"},
            )
        return _fail("nb-simple", "needs-positive-span")
    return _fail("nb-simple", "mixed-inducing-letters")


_NB_OVERLAP_CONDITIONS = (
    "no-minimal-word",
    "strict-letter-guard",
    "superposition-exists",
    "overlap-equals-max",
    "superposition-not-factor",
    "superposition-height",
    "variation-equation",
)


@chars._by_span
def nb_overlap(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """Patterns can be packed by gluing, and the gluing is well behaved.

    Requires a pair of shortest minimal-height words whose superpositions
    in both orders realise the overlap, leave the language as non-factors,
    rise by exactly the smallest variation, and satisfy the variation
    equations.  With a positive (negative) variation no occurrence may be
    extendable upward (downward).
    """
    prop = "nb-overlap"
    o_cv = chars.overlap(spec, d)
    if not o_cv.is_defined:
        return _fail(prop, "overlap-unsettled")
    o = o_cv.expect()
    if o == 0:
        return _fail(prop, "no-superposition")
    if o > chars.width(spec):
        return _fail(prop, "overlap-exceeds-width")
    d_cv = chars.smallest_variation(spec, d)
    if not d_cv.is_defined:
        return _fail(prop, "variation-unsettled")
    delta = d_cv.expect()
    eta = chars.height(spec)
    cands = minimal_words(spec)
    deepest = 0

    def note(cond: str) -> None:
        nonlocal deepest
        deepest = max(deepest, _NB_OVERLAP_CONDITIONS.index(cond))

    def glued(first: str, second: str, check: bool) -> Optional[str]:
        for z in chars.superpositions(spec, first, second, d):
            if len(first) + len(second) - len(z) + 1 != o:
                note("overlap-equals-max")
            elif spec.aut.is_factor(z):
                note("superposition-not-factor")
            elif word_height(z) != eta + abs(delta):
                note("superposition-height")
            elif check and chars._shift_gap(spec, z, first, second) != delta:
                note("variation-equation")
            else:
                return z
        return None

    grow = LT if delta > 0 else GT
    for v, w in product(cands, cands):
        if delta and any(spec.aut.is_factor(u + grow) for u in (v, w)):
            note("strict-letter-guard")
            continue
        note("superposition-exists")
        z1 = glued(v, w, True)
        z2 = None if z1 is None else glued(w, v, v != w)
        if z2 is not None:
            return PropertyCheck(
                prop, True,
                {"v": v, "w": w, "z1": z1, "z2": z2,
                 "overlap": o, "variation": delta},
            )
    return _fail(prop, _NB_OVERLAP_CONDITIONS[deepest])


_NO_OVERLAP_LENGTHS = 5


@chars._by_span
def nb_no_overlap(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """Patterns never share variables, yet still occur at every length.

    Needs a zero overlap, a shortest minimal-height word v whose one-letter
    strict extensions are blocked (directly or via a glued non-factor of
    minimal height), and for each checked length a supportable signature
    carrying v as a maximal occurrence.  The length check covers the
    five lengths ``width + 1 .. width + 5``.
    """
    prop = "nb-no-overlap"
    o_cv = chars.overlap(spec, d)
    if not o_cv.is_defined:
        return _fail(prop, "overlap-unsettled")
    if o_cv.expect() != 0:
        return _fail(prop, "overlap-nonzero")
    cands = minimal_words(spec)
    if not cands:
        return _fail(prop, "no-minimal-word")
    eta = chars.height(spec)
    w = chars.width(spec)
    lengths = tuple(range(w + 1, w + 1 + _NO_OVERLAP_LENGTHS))
    deepest = "extension-blocked"
    for v in cands:
        glued = None
        if spec.aut.is_factor(v + GT) or spec.aut.is_factor(v + LT):
            for y in (v + GT + v, v + LT + v, v + EQ + v):
                if not spec.aut.is_factor(y) and word_height(y) == eta:
                    glued = y
                    break
            if glued is None:
                continue
        deepest = "maximal-occurrence-lengths"
        if all(_carries_maximal(spec, v, n, d.span) for n in lengths):
            witness = {"v": v, "lengths_checked": lengths}
            if glued is not None:
                witness["glued_non_factor"] = glued
            return PropertyCheck(prop, True, witness)
    return _fail(prop, deepest)


# --------------------------------------------------------------------------
# Width properties

@_memoized
def is_fixed_length(spec: PatternSpec) -> bool:
    """All nonempty language words share one length, the shortest w.  The
    automaton is trimmed, so every state a word reaches leads on to an
    accepted word: that holds iff level w + 1 of the key walk is empty."""
    w = spec.aut.shortest_nonempty_length()
    return w is not None and not next(islice(chars._key_levels(spec),
                                             w + 1, None))


@_memoized
def width_max(spec: PatternSpec) -> PropertyCheck:
    """The widest-occurrence bound has its closed affine form.

    Needs a shortest word of minimal height and a range function following
    one of the three affine templates at every length, the same one for
    every top-level branch: a branch whose width grows with the span
    next to a fixed branch that is wider at small spans breaks the form.
    """
    cands = minimal_words(spec)
    if not cands:
        return _fail("width-max", "no-minimal-word")
    ec = chars.range_params(spec)
    if ec is None:
        return _fail("width-max", "range-template")
    if any(chars.range_params(branch) != ec
           for branch in chars.branch_specs(spec)
           if branch.aut.shortest_nonempty_length() is not None):
        return _fail("width-max", "branch-range-template")
    return PropertyCheck(
        "width-max", True, {"v": cands[0], "e": ec[0], "c": ec[1]}
    )


@chars._by_span
def width_sum(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """Shared variables between packed patterns are all trimmed away.

    Overlap must not exceed a + b; a full-range pattern (range n - 1 from
    width + 2 on) must be the plain one-letter strict case.
    """
    prop = "width-sum"
    o_cv = chars.overlap(spec, d)
    if not o_cv.is_defined:
        return _fail(prop, "overlap-unsettled")
    o = o_cv.expect()
    if o > spec.a + spec.b:
        return _fail(prop, "overlap-within-trim")
    if chars.range_params(spec) == (1, 0):
        if not (spec.a == 0 and spec.b == 0 and o == 0
                and chars.width(spec) == 1):
            return _fail(prop, "full-range-shape")
    return PropertyCheck(prop, True, {"overlap": o, "a": spec.a, "b": spec.b})


@chars._by_span
def width_occurrence(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """A shortest pattern can occur un-extended within the domain.

    Looks for a shortest minimal-height word with a one-letter extension
    that is supportable yet not a factor of any language word; that
    extension pins a maximal occurrence of exactly the shortest width.
    """
    if is_fixed_length(spec):
        raise FixedLengthRegexError(
            f"{spec.name}: every language word has length {chars.width(spec)}"
        )
    for v in minimal_words(spec):
        for letter in (LT, EQ, GT):
            w = v + letter
            if word_height(w) <= d.span and not spec.aut.is_factor(w):
                return PropertyCheck(
                    "width-occurrence", True, {"v": v, "w": w}
                )
    return _fail("width-occurrence", "no-blocking-extension")


# --------------------------------------------------------------------------
# Classification

def overlap_class(spec: PatternSpec) -> str:
    """Coarse behaviour class of a pattern across growing domains.

    special: no occurrence-free series exists on one-value domains;
    overlapping: superpositions already at the minimal supportable span;
    non-overlapping: none at the minimal span nor the two above it;
    mixed: none at the minimal span but some above it.
    """
    if not nb_simple(spec, Domain(0, 0)).holds:
        return "special"
    eta = chars.height(spec)
    try:
        o_vals = [
            chars.overlap(spec, Domain(0, eta + k)).expect()
            for k in range(3)
        ]
    except chars.CharacteristicsError:
        return "unclassified"
    if o_vals[0] > 0:
        return "overlapping"
    if o_vals[1] == 0 and o_vals[2] == 0:
        return "non-overlapping"
    return "mixed"
