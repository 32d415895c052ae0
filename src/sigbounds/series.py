"""Ground semantics: integer time series, signatures, occurrences, features.

A time series is a nonempty tuple of integers.  Its signature is the word of
comparison letters between consecutive values, so a series of length n has a
signature of length n - 1.  A pattern finds its matches inside the signature;
each maximal match is trimmed by the pattern's border constants before a
feature is read off the covered values, and :func:`aggregate` combines the
feature values.

The maximal matches come from one backward pass over the signature that
keeps, per automaton state, the furthest end of an accepted run, updated
through the automaton's arcs for each letter, followed by a running maximum
over the starts: linear in the signature length, whatever the number of
state sets a deterministic reading would visit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from . import sigregex
from .sigregex import EQ, GT, LT, Automaton, Regex, check_word, states_of

# Extended integers: plain ints plus the two infinities (used for aggregator
# defaults and open-ended bounds).
ExtendedInt = Union[int, float]
PLUS_INF: ExtendedInt = math.inf
MINUS_INF: ExtendedInt = -math.inf


def fmt_ext(v: ExtendedInt) -> str:
    if v == PLUS_INF:
        return "+inf"
    if v == MINUS_INF:
        return "-inf"
    return str(int(v))


def ext_to_json(v: ExtendedInt):
    """JSON-safe rendering: ints stay ints, infinities become strings."""
    if v == PLUS_INF or v == MINUS_INF:
        return fmt_ext(v)
    return int(v)


class SeriesError(Exception):
    """Base class for semantic errors."""


class DomainError(SeriesError):
    pass


class EmptyPatternError(SeriesError):
    """Trimming removed every variable of an occurrence."""


class Feature(str, Enum):
    ONE = "one"
    WIDTH = "width"
    MAX = "max"
    MIN = "min"
    SURF = "surf"


class Aggregator(str, Enum):
    MAX = "max"
    MIN = "min"
    SUM = "sum"


@dataclass(frozen=True)
class DefaultPolicy:
    """Result of an aggregator when no occurrence exists.

    The defaults are the identity-flavoured choices ``sum -> 0``,
    ``max -> 0`` and ``min -> +inf``.  A strict variant mapping ``max`` to
    ``-inf`` is available as :data:`NEUTRAL_POLICY` for callers that prefer
    the lattice identities.
    """

    sum_default: ExtendedInt = 0
    max_default: ExtendedInt = 0
    min_default: ExtendedInt = PLUS_INF

    def default(self, g: Aggregator) -> ExtendedInt:
        if g is Aggregator.SUM:
            return self.sum_default
        if g is Aggregator.MAX:
            return self.max_default
        return self.min_default


DEFAULT_POLICY = DefaultPolicy()
NEUTRAL_POLICY = DefaultPolicy(max_default=MINUS_INF)


@dataclass(frozen=True)
class Domain:
    """Inclusive integer interval ``[lo, hi]`` for series values."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"empty domain [{self.lo}, {self.hi}]")

    @property
    def span(self) -> int:
        return self.hi - self.lo

    @classmethod
    def parse(cls, text: str) -> "Domain":
        try:
            lo_s, hi_s = text.split(":")
            return cls(int(lo_s), int(hi_s))
        except DomainError:
            raise
        except ValueError:
            raise DomainError(f"expected lo:hi, got {text!r}") from None

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


@dataclass(frozen=True)
class TimeSeries:
    """A nonempty tuple of integer values."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise SeriesError("a time series needs at least one value")

    @classmethod
    def from_text(cls, text: str) -> "TimeSeries":
        try:
            return cls(tuple(int(x) for x in text.split(",")))
        except ValueError:
            raise SeriesError(f"malformed series {text!r}") from None

    def fits(self, d: Domain) -> bool:
        return all(d.lo <= x <= d.hi for x in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.values)


@dataclass(frozen=True)
class PatternSpec:
    """A pattern: a regular expression plus its two trimming constants.

    ``a`` trims from the right end of a match's variable range and ``b``
    from the left.  Identity is by name, source text and constants, so specs
    can key caches; the compiled form is attached but not compared.
    """

    name: str
    expr: str
    a: int = 0
    b: int = 0
    ast: Regex = field(init=False, compare=False, repr=False)
    aut: Automaton = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise SeriesError("trimming constants must be nonnegative")
        ast = sigregex.parse(self.expr)
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "aut", sigregex.compile(ast))


@dataclass(frozen=True, order=True)
class Occurrence:
    """A maximal match of the pattern inside a signature.

    ``i`` and ``j`` are 1-based, inclusive positions of the matched factor.
    The extended span covers series variables ``i .. j + 1``; trimming with
    constants ``(a, b)`` keeps variables ``i + b .. j + 1 - a``.
    """

    i: int
    j: int

    def extended(self) -> tuple[int, int]:
        return (self.i, self.j + 1)

    def trimmed(self, a: int, b: int) -> tuple[int, int]:
        return (self.i + b, self.j + 1 - a)


def signature(t: TimeSeries | Sequence[int]) -> str:
    """The comparison word of a series; empty for a single value."""
    vals = list(t)
    out = []
    for x, y in zip(vals, vals[1:]):
        if x < y:
            out.append(LT)
        elif x == y:
            out.append(EQ)
        else:
            out.append(GT)
    return "".join(out)


def word_height(word: str) -> int:
    """Fewest levels (minus one) any series with this signature must span.

    Scanning maximal factors that avoid one of the strict letters: a factor
    without ``>`` forces as many climbs as it has ``<``, and dually.  The
    height is the largest such count; the empty word has height 0.
    """
    check_word(word)
    best = 0
    for avoid, strict in ((GT, LT), (LT, GT)):
        count = 0
        for ch in word:
            if ch == avoid:
                count = 0
            elif ch == strict:
                count += 1
                if count > best:
                    best = count
        # counts reset on the avoided letter only; '=' keeps the run alive
    return best


def iter_supporting_series(word: str, d: Domain) -> Iterator[TimeSeries]:
    """Series over ``d`` whose signature is ``word``, in lexicographic order."""
    check_word(word)
    n = len(word) + 1

    def rec(prefix: list[int]) -> Iterator[TimeSeries]:
        k = len(prefix)
        if k == n:
            yield TimeSeries(tuple(prefix))
            return
        if k == 0:
            lo, hi = d.lo, d.hi
        else:
            ch = word[k - 1]
            last = prefix[-1]
            if ch == LT:
                lo, hi = last + 1, d.hi
            elif ch == GT:
                lo, hi = d.lo, last - 1
            else:
                lo = hi = last
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def supporting_series(word: str, d: Domain) -> list[TimeSeries]:
    """All series over ``d`` with the given signature.

    Empty exactly when the word's height exceeds the domain span.
    """
    return list(iter_supporting_series(word, d))


def _least_support(word: str, d: Domain) -> Optional[TimeSeries]:
    """The lexicographically smallest series over ``d`` with the given
    signature, or None when there is none.

    Each value is the least that its letter and ``floor`` allow, where
    ``floor[k]`` is the least value at position k from which the rest of
    the word fits above ``d.lo``.  The result lies pointwise below every
    series with the signature, so it fits under ``d.hi`` iff one does.
    """
    floor = [d.lo]
    for ch in reversed(word):
        floor.append(d.lo if ch == LT else floor[-1] + (ch == GT))
    floor.reverse()
    vals = [floor[0]]
    for ch, low in zip(word, floor[1:]):
        vals.append(max(vals[-1] + 1, low) if ch == LT
                    else low if ch == GT else vals[-1])
    return TimeSeries(tuple(vals)) if max(vals) <= d.hi else None


def maximal_occurrences(spec: PatternSpec, s: str) -> list[Occurrence]:
    """Matches not strictly contained in another match, sorted by position.

    One backward pass finds the longest nonempty match from every start:
    ``far[q]`` is the furthest end of a run that starts in state ``q`` at
    the current position and stops in an accepting state, or -1.  Only the
    longest match from a start can be maximal, and it is maximal iff it
    ends beyond the longest match of every earlier start, which a forward
    running maximum decides.  Time O(|s| * arcs), space O(|s|).
    """
    check_word(s)
    aut = spec.aut
    arcs, n_states = aut.arcs, aut.n_states
    initial = list(states_of(aut.initial))
    accepting = list(states_of(aut.accepting))
    m = len(s)
    far = [-1] * n_states
    for q in accepting:
        far[q] = m
    # ends[i]: 1-based end of the longest match starting at i + 1, or -1
    ends = [-1] * m
    i = m
    for ch in reversed(s):
        i -= 1
        nxt = [-1] * n_states
        for q in accepting:
            nxt[q] = i
        for q, r in arcs[ch]:
            if far[r] > nxt[q]:
                nxt[q] = far[r]
        far = nxt
        # a run from an initial state ending at i itself matched nothing
        e = -1
        for q in initial:
            if far[q] > e:
                e = far[q]
        ends[i] = e if e > i else -1
    out = []
    reach = -1
    for i, e in enumerate(ends, 1):
        if e > reach:
            out.append(Occurrence(i, e))
            reach = e
    return out


def feature_of(spec: PatternSpec, f: Feature, t: TimeSeries,
               occ: Occurrence) -> int:
    """Value of one feature on one trimmed occurrence."""
    lo, hi = occ.trimmed(spec.a, spec.b)
    if lo > hi:
        raise EmptyPatternError(
            f"occurrence ({occ.i},{occ.j}) of {spec.name} trims to nothing"
        )
    if f is Feature.ONE:
        return 1
    if f is Feature.WIDTH:
        return hi - lo + 1
    window = t.values[lo - 1:hi]
    if f is Feature.MAX:
        return max(window)
    if f is Feature.MIN:
        return min(window)
    if f is Feature.SURF:
        return sum(window)
    raise TypeError(f"unknown feature {f!r}")


def aggregate(
    g: Aggregator,
    vals: Sequence[int],
    policy: DefaultPolicy = DEFAULT_POLICY,
) -> ExtendedInt:
    """Combine feature values with ``g``; the policy default when empty."""
    if not vals:
        return policy.default(g)
    if g is Aggregator.SUM:
        return sum(vals)
    if g is Aggregator.MAX:
        return max(vals)
    if g is Aggregator.MIN:
        return min(vals)
    raise TypeError(f"unknown aggregator {g!r}")


def evaluate(
    spec: PatternSpec,
    f: Feature,
    g: Aggregator,
    t: TimeSeries,
    policy: DefaultPolicy = DEFAULT_POLICY,
) -> ExtendedInt:
    """Aggregate the feature over all maximal occurrences in ``t``.

    With no occurrence the policy default applies.
    """
    occs = maximal_occurrences(spec, signature(t))
    return aggregate(g, [feature_of(spec, f, t, o) for o in occs], policy)


def enumerate_series(n: int, d: Domain) -> Iterator[TimeSeries]:
    """All series of length ``n`` over ``d`` in lexicographic order."""
    import itertools

    for tup in itertools.product(range(d.lo, d.hi + 1), repeat=n):
        yield TimeSeries(tup)
