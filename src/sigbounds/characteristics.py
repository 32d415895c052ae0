"""Characteristics of a pattern: width, height, range, inducing words,
overlap and smallest variation of maxima.

Width and height are plain language measures.  The range function reports,
for a series length, the smallest domain span admitting an occurrence.  The
remaining three describe how occurrences interact when packed tightly:
superpositions are the words gluing two occurrences together, the overlap
counts the variables two adjacent patterns can share, and the smallest
variation measures how the maxima of glued patterns must differ.

Overlap and variation quantify over all pairs of language words, so they are
computed under a length cap with a stability probe: a value is reported as
settled only if enlarging the cap does not change it.  Both read the domain
only through its span, so each is computed once per (pattern, span, cap)
and cached, like the plain language measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterable, Optional

from . import sigregex
from .series import (
    Domain,
    PatternSpec,
    _least_support,
    maximal_occurrences,
    word_height,
)
from .sigregex import GT, LT, bounded_height_automaton, check_word


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

@lru_cache(maxsize=None)
def width(spec: PatternSpec) -> int:
    """Length of a shortest nonempty word of the language."""
    w = spec.aut.shortest_nonempty_length()
    if w is None:
        raise sigregex.EmptyLanguageError(
            f"{spec.name}: no nonempty word in the language"
        )
    return w


@lru_cache(maxsize=32)
def _supportable(spec: PatternSpec, h: int) -> sigregex.Automaton:
    """The language restricted to words of height at most h.

    One pattern's analysis asks for a few heights in a row, so a short
    cache serves it; an unbounded one would keep every product of every
    pattern ever analysed.
    """
    return spec.aut.intersect(bounded_height_automaton(h))


@lru_cache(maxsize=None)
def height(spec: PatternSpec) -> int:
    """Smallest h such that some language word has height h.

    Never exceeds the width, since a word of length k has height at most k.
    """
    for h in range(width(spec) + 1):
        if not _supportable(spec, h).is_empty:
            return h
    raise AssertionError("height must not exceed width")


def range_of(spec: PatternSpec, n: int) -> CharValue:
    """Smallest domain span allowing an occurrence in a series of length n.

    Equivalently: the least h such that the language contains a word of
    length n - 1 and height at most h.  Undefined when no such word exists.
    """
    if n < 2:
        raise CharacteristicsError("series length must be at least 2")
    for h in range(n):
        if _supportable(spec, h).exists_word_of_length(n - 1):
            return CharValue.defined(h)
    return CharValue.undefined()


@lru_cache(maxsize=None)
def range_params(spec: PatternSpec) -> Optional[tuple[int, int]]:
    """Fit the affine template e*(n - 1 - eta) + c + eta to the range.

    Samples the range at n = omega + 2 .. omega + 4 and tries the slopes
    and offsets (0,0), (0,1), (1,0).  Returns None when the range is not
    defined at a sample point or no template fits.
    """
    w, h = width(spec), height(spec)
    samples = []
    for n in (w + 2, w + 3, w + 4):
        cv = range_of(spec, n)
        if not cv.is_defined:
            return None
        samples.append((n, cv.expect()))
    for e, c in ((0, 0), (0, 1), (1, 0)):
        if all(val == e * (n - 1 - h) + c + h for n, val in samples):
            return (e, c)
    return None


@lru_cache(maxsize=None)
def branch_specs(spec: PatternSpec) -> tuple[PatternSpec, ...]:
    """One spec per top-level branch of the expression; the spec itself
    when there is a single branch."""
    if not isinstance(spec.ast, sigregex.Union):
        return (spec,)
    return tuple(PatternSpec(f"{spec.name}[{idx}]", sigregex.render(branch))
                 for idx, branch in enumerate(spec.ast.parts))


@lru_cache(maxsize=None)
def inducing_words(spec: PatternSpec) -> frozenset[str]:
    """The shortest nonempty word of each top-level branch.

    Branches must be disjunction-capsuled and each must have a unique
    shortest nonempty word; otherwise the corresponding error is raised.
    """
    sigregex.dc_decompose(spec.ast)
    out = set()
    for idx, branch in enumerate(branch_specs(spec)):
        shortest = branch.aut.shortest_nonempty_length()
        if shortest is None:
            raise sigregex.EmptyLanguageError(
                f"branch {idx} of {spec.name} has no nonempty word"
            )
        words = [w for w in branch.aut.words_up_to(shortest) if w]
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


@lru_cache(maxsize=None)
def language_words(spec: PatternSpec, cap: int) -> tuple[str, ...]:
    """Accepted words of length at most cap, canonically ordered."""
    return tuple(spec.aut.words_up_to(cap))


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
    span = d.span
    out = []
    for k in range(min(len(v), len(w)), -1, -1):
        if k and v[-k:] != w[:k]:
            continue
        z = v + w[k:]
        if spec.aut.accepts(z):
            continue
        if word_height(z) > span:
            continue
        out.append(z)
    out.sort(key=sigregex.word_key)
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


@lru_cache(maxsize=None)
def _max_overlap(spec: PatternSpec, span: int, cap: int) -> int:
    """Maximum of overlap_of_words over all word pairs up to the cap.

    Searches seam lengths from long to short, down to the empty seam of
    plain concatenation: overlap k + 1 needs some v ending with the
    k-letter block some w starts with, such that the overlay leaves the
    language and stays supportable.  The first seam length that admits a
    witness gives the maximum.
    """
    if span < height(spec):
        return 0
    words = [u for u in language_words(spec, cap) if u]
    if not words:
        return 0
    aut = spec.aut
    # a gluing v + w[k:] resumes from the states reached after v
    after = {u: aut._read(aut.initial, u) for u in words}
    longest = max(len(u) for u in words)
    for k in range(min(cap, longest), -1, -1):
        by_suffix: dict[str, list[str]] = {}
        by_prefix: dict[str, list[str]] = {}
        for u in words:
            if len(u) >= k:
                by_suffix.setdefault(u[len(u) - k:], []).append(u)
                by_prefix.setdefault(u[:k], []).append(u)
        for seam in sorted(set(by_suffix) & set(by_prefix)):
            for v in by_suffix[seam]:
                for w in by_prefix[seam]:
                    if aut._read(after[v], w[k:]) & aut.accepting:
                        continue
                    if word_height(v + w[k:]) <= span:
                        return k + 1
    return 0


def _stabilize(measure: Callable[[int], int], cap: int) -> CharValue:
    """Probe a capped measure at cap, cap+1, cap+2.

    Stable ends report Defined; a strict increase across all three probes
    reports Unbounded; anything else is CapLimited at the deepest cap.
    """
    v0 = measure(cap)
    v2 = measure(cap + 2)
    if v0 == v2:
        return CharValue.defined(v0)
    v1 = measure(cap + 1)
    if v0 < v1 < v2:
        return CharValue.unbounded(cap + 2)
    return CharValue.cap_limited(v2, cap + 2)


def overlap(spec: PatternSpec, d: Domain, cap: Optional[int] = None) -> CharValue:
    """Maximum overlap over all pairs of language words, cap-stabilized."""
    return _overlap(spec, d.span, _checked_cap(spec, cap))


@lru_cache(maxsize=None)
def _overlap(spec: PatternSpec, span: int, cap: int) -> CharValue:
    return _stabilize(lambda c: _max_overlap(spec, span, c), cap)


# --------------------------------------------------------------------------
# Shifts and variation

_MIRROR = str.maketrans(LT + GT, GT + LT)


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
    h - max(h - least[window]) is then the minimum of that window.
    """
    check_word(z)
    check_word(w)
    if i < 1:
        raise CharacteristicsError("occurrence index is 1-based")
    if w == z or not w:
        return None
    occs = [o for o in maximal_occurrences(spec, z) if z[o.i - 1:o.j] == w]
    if len(occs) < i:
        return None
    lo, hi = occs[i - 1].extended()
    least = _least_support(z.translate(_MIRROR), Domain(0, word_height(z)))
    return min(least.values[lo - 1:hi])


def variation_of_words(spec: PatternSpec, v: str, w: str, d: Domain) -> int:
    """Signed difference of shifts on the tightest-gluing superposition.

    For v != w the candidates are shift(z, v, 1) - shift(z, w, 1); for
    v == w the first two v-occurrences are compared.  Among superpositions
    where both shifts exist, the one minimising the absolute difference
    wins, ties broken by canonical word order.  With no usable
    superposition the variation is 0.
    """
    diffs = []
    for z in superpositions(spec, v, w, d):
        if v != w:
            sv = shift(spec, z, v, 1)
            sw = shift(spec, z, w, 1)
        else:
            sv = shift(spec, z, v, 1)
            sw = shift(spec, z, v, 2)
        if sv is None or sw is None:
            continue
        diffs.append(sv - sw)
    if not diffs:
        return 0
    return min(diffs, key=lambda x: (abs(x), x))


class _MixedSigns(Exception):
    pass


@lru_cache(maxsize=None)
def _variation_at(spec: PatternSpec, span: int, cap: int) -> int:
    """Smallest-magnitude variation over overlapping pairs at one cap.

    Raises _MixedSigns when both a positive and a negative variation occur.

    Only a word without ``>`` can open a positive variation, and only a
    word without ``<`` can close a negative one: a strict letter inside the
    leading (resp. trailing) occurrence pins a supporting series whose
    global maximum already sits inside that occurrence, forcing its shift
    to zero.  Pairs where both strict letters are present therefore vary by
    exactly 0, and it suffices to find one such pair that overlaps at all.
    """
    if _max_overlap(spec, span, cap) == 0:
        return 0
    d = Domain(0, span)
    words = [u for u in language_words(spec, cap) if u]
    no_gt = [u for u in words if GT not in u]
    no_lt = [u for u in words if LT not in u]
    vals: list[int] = []
    seen: set[tuple[str, str]] = set()
    for v, w in chain(product(no_gt, words), product(words, no_lt)):
        if (v, w) in seen:
            continue
        seen.add((v, w))
        if overlap_of_words(spec, v, w, d) == 0:
            continue
        vals.append(variation_of_words(spec, v, w, d))
    if any(x > 0 for x in vals) and any(x < 0 for x in vals):
        raise _MixedSigns
    zero_pair = False
    for v, w in product(words, words):
        if GT in v and LT in w and (v, w) not in seen:
            if overlap_of_words(spec, v, w, d) != 0:
                zero_pair = True
                break
    if zero_pair:
        vals.append(0)
    if not vals:
        return 0
    return min(vals, key=lambda x: (abs(x), x))


def smallest_variation(
    spec: PatternSpec, d: Domain, cap: Optional[int] = None
) -> CharValue:
    """Variation of the overlapping pair with least absolute variation.

    0 when nothing overlaps; Undefined when pairs vary in both directions;
    otherwise cap-stabilized like the overlap.
    """
    return _smallest_variation(spec, d.span, _checked_cap(spec, cap))


@lru_cache(maxsize=None)
def _smallest_variation(spec: PatternSpec, span: int, cap: int) -> CharValue:
    try:
        return _stabilize(lambda c: _variation_at(spec, span, c), cap)
    except _MixedSigns:
        return CharValue.undefined()


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
