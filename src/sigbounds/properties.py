"""Structural properties a pattern may have over a domain.

Each decision procedure returns a PropertyCheck carrying a re-verifiable
witness on success and the name of the first blocking condition on
failure.  The properties gate the closed-form bounds: a bound is flagged
sharp only when the property justifying it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from . import characteristics as chars
from . import sigregex
from .series import Domain, PatternSpec, maximal_occurrences, word_height
from .sigregex import EQ, GT, LT


class PropertiesError(Exception):
    pass


class FixedLengthRegexError(PropertiesError):
    """All language words share one length, so the property is vacuous."""


@dataclass(frozen=True)
class PropertyCheck:
    prop: str
    holds: bool
    witness: Optional[dict] = None
    failed_condition: Optional[str] = None

    def to_json(self):
        return {
            "property": self.prop,
            "holds": self.holds,
            "witness": self.witness,
            "failed_condition": self.failed_condition,
        }


def _fail(prop: str, condition: str) -> PropertyCheck:
    return PropertyCheck(prop, False, None, condition)


def occurrence_feasible(spec: PatternSpec, n: int, d: Domain) -> bool:
    """Whether any series of length n over d admits an occurrence.

    Exactly when some nonempty language word of length at most n - 1 has
    height at most the span: padding such a word with equalities keeps its
    height, and a factor is never higher than its word.
    """
    shortest = _shortest_supportable(spec, d.span)
    return shortest is not None and shortest <= n - 1


@lru_cache(maxsize=None)
def _shortest_supportable(spec: PatternSpec, span: int) -> Optional[int]:
    """Length of a shortest nonempty language word of height <= span."""
    return chars._supportable(spec, span).shortest_nonempty_length()


@lru_cache(maxsize=None)
def minimal_words(spec: PatternSpec) -> tuple[str, ...]:
    """Shortest language words of minimal height, canonically ordered."""
    w = chars.width(spec)
    h = chars.height(spec)
    return tuple(
        u for u in spec.aut.words_up_to(w)
        if len(u) == w and word_height(u) == h
    )


# --------------------------------------------------------------------------
# Counting properties

def nb_simple(spec: PatternSpec, d: Domain) -> PropertyCheck:
    """Some series of any length has no occurrence at all.

    If every inducing word carries a strict comparison, the constant
    series works; if every one carries an equality and the domain has two
    values, the alternating series works.
    """
    inducing = sorted(chars.inducing_words(spec), key=sigregex.word_key)
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


_NB_OVERLAP_RANK = {
    "no-minimal-word": 1,
    "strict-letter-guard": 2,
    "superposition-exists": 3,
    "overlap-equals-max": 4,
    "superposition-not-factor": 5,
    "superposition-height": 6,
    "variation-equation": 7,
}


def _glue_failure(
    spec: PatternSpec,
    z: str,
    first: str,
    second: str,
    second_index: int,
    o: int,
    delta: int,
    eta: int,
    check_equation: bool,
) -> Optional[str]:
    """First condition a candidate superposition violates, None if all pass."""
    if len(first) + len(second) - len(z) + 1 != o:
        return "overlap-equals-max"
    if spec.aut.is_factor(z):
        return "superposition-not-factor"
    if word_height(z) != eta + abs(delta):
        return "superposition-height"
    if check_equation:
        s1 = chars.shift(spec, z, first, 1)
        s2 = chars.shift(spec, z, second, second_index)
        if s1 is None or s2 is None or s1 - s2 != delta:
            return "variation-equation"
    return None


def nb_overlap(
    spec: PatternSpec, d: Domain, cap: Optional[int] = None
) -> PropertyCheck:
    """Patterns can be packed by gluing, and the gluing is well behaved.

    Requires a pair of shortest minimal-height words whose superpositions
    in both orders realise the overlap, leave the language as non-factors,
    rise by exactly the smallest variation, and satisfy the variation
    equations.  With a positive (negative) variation no occurrence may be
    extendable upward (downward).
    """
    prop = "nb-overlap"
    o_cv = chars.overlap(spec, d, cap)
    if not o_cv.is_defined:
        return _fail(prop, "overlap-unsettled")
    o = o_cv.expect()
    if o == 0:
        return _fail(prop, "no-superposition")
    if o > chars.width(spec):
        return _fail(prop, "overlap-exceeds-width")
    d_cv = chars.smallest_variation(spec, d, cap)
    if not d_cv.is_defined:
        return _fail(prop, "variation-unsettled")
    delta = d_cv.expect()
    eta = chars.height(spec)
    cands = minimal_words(spec)
    deepest = "no-minimal-word"

    def note(cond: str) -> None:
        nonlocal deepest
        if _NB_OVERLAP_RANK[cond] > _NB_OVERLAP_RANK[deepest]:
            deepest = cond

    for v, w in product(cands, cands):
        if delta > 0 and (
            spec.aut.is_factor(v + LT) or spec.aut.is_factor(w + LT)
        ):
            note("strict-letter-guard")
            continue
        if delta < 0 and (
            spec.aut.is_factor(v + GT) or spec.aut.is_factor(w + GT)
        ):
            note("strict-letter-guard")
            continue
        note("superposition-exists")
        z1_hit = None
        for z in chars.superpositions(spec, v, w, d):
            bad = _glue_failure(
                spec, z, v, w, 1 if v != w else 2, o, delta, eta, True
            )
            if bad is None:
                z1_hit = z
                break
            note(bad)
        if z1_hit is None:
            continue
        for z in chars.superpositions(spec, w, v, d):
            bad = _glue_failure(spec, z, w, v, 1, o, delta, eta, v != w)
            if bad is None:
                return PropertyCheck(
                    prop, True,
                    {"v": v, "w": w, "z1": z1_hit, "z2": z,
                     "overlap": o, "variation": delta},
                )
            note(bad)
    return _fail(prop, deepest)


def _carries_maximal(spec: PatternSpec, v: str, n: int, d: Domain) -> bool:
    """Some signature of length n - 1 within the domain has v maximal."""
    h = min(d.span, n - 1)
    for s in sigregex.words_of_height_at_most(h, n - 1):
        for occ in maximal_occurrences(spec, s):
            if s[occ.i - 1:occ.j] == v:
                return True
    return False


_NO_OVERLAP_LENGTHS = 5


def nb_no_overlap(
    spec: PatternSpec, d: Domain, cap: Optional[int] = None
) -> PropertyCheck:
    """Patterns never share variables, yet still occur at every length.

    Needs a zero overlap, a shortest minimal-height word v whose one-letter
    strict extensions are blocked (directly or via a glued non-factor of
    minimal height), and for each checked length a supportable signature
    carrying v as a maximal occurrence.  The length check covers the
    five lengths ``width + 1 .. width + 5``.
    """
    prop = "nb-no-overlap"
    o_cv = chars.overlap(spec, d, cap)
    if not o_cv.is_defined:
        return _fail(prop, "overlap-unsettled")
    if o_cv.expect() != 0:
        return _fail(prop, "overlap-nonzero")
    cands = minimal_words(spec)
    if not cands:
        return _fail(prop, "no-minimal-word")
    eta = chars.height(spec)
    w = chars.width(spec)
    lengths = list(range(w + 1, w + 1 + _NO_OVERLAP_LENGTHS))
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
        if all(_carries_maximal(spec, v, n, d) for n in lengths):
            witness = {"v": v, "lengths_checked": lengths}
            if glued is not None:
                witness["glued_non_factor"] = glued
            return PropertyCheck(prop, True, witness)
    return _fail(prop, deepest)


# --------------------------------------------------------------------------
# Width properties

@lru_cache(maxsize=None)
def is_fixed_length(spec: PatternSpec) -> bool:
    """All nonempty language words share one length.

    Exact on the trimmed automaton: bit k of ``paths[q]`` is set when a
    path of k letters leads from an initial state to q.  After n_states
    rounds of relaxation over the arcs a path of n_states letters exists
    iff the automaton has a cycle, and with it unboundedly many lengths.
    """
    aut = spec.aut
    n = aut.n_states
    paths = [aut.initial >> q & 1 for q in range(n)]
    for _ in range(n):
        for pairs in aut.arcs.values():
            for q, r in pairs:
                paths[r] |= paths[q] << 1
    lengths = 0
    for q in range(n):
        if paths[q] >> n:
            return False
        if aut.accepting >> q & 1:
            lengths |= paths[q] & ~1
    return lengths != 0 and lengths & (lengths - 1) == 0


def width_max(spec: PatternSpec) -> PropertyCheck:
    """The widest-occurrence bound has its closed affine form.

    Needs a shortest word of minimal height and a range function matching
    one of the three affine templates at the sample lengths, the same one
    for every top-level branch: a branch whose width grows with the span
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


def width_sum(
    spec: PatternSpec, d: Domain, cap: Optional[int] = None
) -> PropertyCheck:
    """Shared variables between packed patterns are all trimmed away.

    Overlap must not exceed a + b; a full-range pattern (range n - 1 at
    the samples) must be the plain one-letter strict case.
    """
    prop = "width-sum"
    o_cv = chars.overlap(spec, d, cap)
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

def overlap_class(spec: PatternSpec, cap: Optional[int] = None) -> str:
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
            chars.overlap(spec, Domain(0, eta + k), cap).expect()
            for k in range(3)
        ]
    except chars.CharacteristicsError:
        return "unclassified"
    if o_vals[0] > 0:
        return "overlapping"
    if o_vals[1] == 0 and o_vals[2] == 0:
        return "non-overlapping"
    return "mixed"
