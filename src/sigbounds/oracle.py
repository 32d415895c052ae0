"""Exhaustive ground truth for bounds and characteristics.

Everything here recomputes results from raw definitions by enumeration:
extrema of constraint results over every series of a given shape, overlap
by scanning every candidate gluing word letter by letter, variation by
walking every overlapping pair.  The bounded searches in the main modules
must agree with these; the sharpness report certifies the bound formulas
against them.

:func:`brute_extrema` walks every series.  The features of ``bounds.RULES``
depend only on where the maximal occurrences lie, so the sweep walks the
signatures of height at most the span instead, each counting for the series
it supports, the least of them its witness.  Budgets still count series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import bounds as bounds_mod
from .bounds import BoundError, BoundResult, Side
from .characteristics import CharValue, _checked_cap, _stabilize, shift
from .series import (
    Aggregator,
    DEFAULT_POLICY,
    DefaultPolicy,
    Domain,
    ExtendedInt,
    Feature,
    MINUS_INF,
    PLUS_INF,
    PatternSpec,
    TimeSeries,
    aggregate,
    enumerate_series,
    feature_of,
    maximal_occurrences,
    signature,
    word_height,
)
from .sigregex import ALPHABET, GT, LT, word_key, words_of_height_at_most

DEFAULT_BUDGET = 5_000_000

GF_SUPPORTED = tuple(bounds_mod.RULES)


class BudgetExceededError(Exception):
    pass


def _spend(counter: list[int], amount: int = 1) -> None:
    counter[0] -= amount
    if counter[0] < 0:
        raise BudgetExceededError("enumeration budget exhausted")


# --------------------------------------------------------------------------
# Extrema over all series

@dataclass
class ExtremaResult:
    """Exact extrema of a constraint result over one series shape.

    ``min_all``/``max_all`` range over every series with the policy
    default for pattern-free ones; ``min_occ``/``max_occ`` restrict to
    series having at least one occurrence and degenerate to +inf/-inf
    when no such series exists.
    """

    n: int
    domain: Domain
    count: int = 0
    min_all: ExtendedInt = PLUS_INF
    max_all: ExtendedInt = MINUS_INF
    min_occ: ExtendedInt = PLUS_INF
    max_occ: ExtendedInt = MINUS_INF
    witness_min: Optional[TimeSeries] = None
    witness_max: Optional[TimeSeries] = None

    def update(self, t: TimeSeries, val: ExtendedInt, has_occ: bool) -> None:
        self.count += 1
        if val < self.min_all:
            self.min_all = val
            self.witness_min = t
        if val > self.max_all:
            self.max_all = val
            self.witness_max = t
        if has_occ:
            self.min_occ = min(self.min_occ, val)
            self.max_occ = max(self.max_occ, val)

    def add_signature(self, t: TimeSeries, val: ExtendedInt, has_occ: bool,
                      count: int) -> None:
        """Fold in the ``count`` series of one signature, all of value
        ``val`` and the least of them ``t``, as :meth:`update` does in
        lexicographic order: a tie keeps the smaller witness, and an
        extreme still at its infinite start keeps none."""
        if (val == self.min_all and self.witness_min is not None
                and t.values < self.witness_min.values):
            self.witness_min = t
        if (val == self.max_all and self.witness_max is not None
                and t.values < self.witness_max.values):
            self.witness_max = t
        self.update(t, val, has_occ)  # counts t alone
        self.count += count - 1

    def to_json(self):
        from .series import ext_to_json

        return {
            "n": self.n,
            "domain": str(self.domain),
            "count": self.count,
            "min_all": ext_to_json(self.min_all),
            "max_all": ext_to_json(self.max_all),
            "min_occ": ext_to_json(self.min_occ),
            "max_occ": ext_to_json(self.max_occ),
            "witness_min": (
                None if self.witness_min is None else str(self.witness_min)
            ),
            "witness_max": (
                None if self.witness_max is None else str(self.witness_max)
            ),
        }


def check_budget(n: int, d: Domain, budget: int = DEFAULT_BUDGET) -> int:
    total = (d.span + 1) ** n
    if total > budget:
        raise BudgetExceededError(
            f"{total} series of length {n} over {d} exceed budget {budget}"
        )
    return total


def brute_extrema(
    spec: PatternSpec,
    f: Feature,
    g: Aggregator,
    n: int,
    d: Domain,
    budget: int = DEFAULT_BUDGET,
    policy: DefaultPolicy = DEFAULT_POLICY,
) -> ExtremaResult:
    """Exact result extrema by full enumeration in lexicographic order."""
    check_budget(n, d, budget)
    out = ExtremaResult(n, d)
    for t in enumerate_series(n, d):
        occs = maximal_occurrences(spec, signature(t))
        vals = [feature_of(spec, f, t, o) for o in occs]
        out.update(t, aggregate(g, vals, policy), bool(occs))
    return out


# --------------------------------------------------------------------------
# Overlap and variation from raw definitions

def _anchored_candidates(v: str, w: str, length: int) -> Iterator[str]:
    """Words of the given length, at least len(v) and len(w), with prefix v
    and suffix w, in canonical order.

    Lays v at the start and w at the end: where the two overlap their
    letters must agree, and only the letters neither one fixes are free.
    """
    gap = length - len(v) - len(w)
    if gap >= 0:
        for fill in product(ALPHABET, repeat=gap):
            yield v + "".join(fill) + w
    elif v.endswith(w[:-gap]):
        yield v + w[-gap:]


def _raw_pair_overlap(
    spec: PatternSpec,
    v: str,
    w: str,
    span: int,
    floor: int,
    counter: list[int],
) -> int:
    """Best overlap of one pair by scanning gluing candidates short-first.

    Only lengths that would beat ``floor`` are visited; the first valid
    candidate wins since shorter gluings share more variables.
    """
    lo = max(len(v), len(w))
    hi = len(v) + len(w) - floor
    for length in range(lo, hi + 1):
        for z in _anchored_candidates(v, w, length):
            _spend(counter)
            if spec.aut.accepts(z):
                continue
            if word_height(z) > span:
                continue
            return len(v) + len(w) - length + 1
    return 0


def _raw_max_overlap(
    spec: PatternSpec, d: Domain, cap: int, counter: list[int]
) -> int:
    words = [u for u in spec.aut.words_up_to(cap) if u]
    best = 0
    for v, w in product(words, words):
        if min(len(v), len(w)) + 1 <= best:
            continue
        got = _raw_pair_overlap(spec, v, w, d.span, best, counter)
        if got > best:
            best = got
    return best


def brute_overlap(
    spec: PatternSpec,
    d: Domain,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> CharValue:
    """Overlap recomputed from the raw definition, cap-stabilized."""
    cap = _checked_cap(spec, cap)
    counter = [budget]
    return _stabilize(lambda c: _raw_max_overlap(spec, d, c, counter), cap)


def _raw_superpositions(
    spec: PatternSpec, v: str, w: str, span: int, counter: list[int]
) -> list[str]:
    out = []
    lo = max(len(v), len(w))
    for length in range(lo, len(v) + len(w) + 1):
        for z in _anchored_candidates(v, w, length):
            _spend(counter)
            if spec.aut.accepts(z):
                continue
            if word_height(z) > span:
                continue
            out.append(z)
    out.sort(key=word_key)
    return out


class _BruteMixed(Exception):
    pass


def _raw_variation(
    spec: PatternSpec, d: Domain, cap: int, counter: list[int]
) -> int:
    words = [u for u in spec.aut.words_up_to(cap) if u]
    pair_vals = []
    for v, w in product(words, words):
        zs = _raw_superpositions(spec, v, w, d.span, counter)
        if not zs:
            continue
        diffs = []
        for z in zs:
            s1 = shift(spec, z, v, 1)
            s2 = shift(spec, z, w, 1) if v != w else shift(spec, z, v, 2)
            if s1 is None or s2 is None:
                continue
            diffs.append(s1 - s2)
        if diffs:
            pair_vals.append(min(diffs, key=lambda x: (abs(x), x)))
        else:
            pair_vals.append(0)
    if not pair_vals:
        return 0
    if any(x > 0 for x in pair_vals) and any(x < 0 for x in pair_vals):
        raise _BruteMixed
    return min(pair_vals, key=lambda x: (abs(x), x))


def brute_variation(
    spec: PatternSpec,
    d: Domain,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> CharValue:
    """Smallest variation over every overlapping pair, cap-stabilized."""
    cap = _checked_cap(spec, cap)
    counter = [budget]
    try:
        return _stabilize(lambda c: _raw_variation(spec, d, c, counter), cap)
    except _BruteMixed:
        return CharValue.undefined()


# --------------------------------------------------------------------------
# Sharpness certification

@dataclass(frozen=True)
class SweepRow:
    pattern: str
    g: Aggregator
    f: Feature
    side: Side
    n: int
    domain: Domain
    bound: Optional[ExtendedInt] = None
    sharp_claimed: bool = False
    source: Optional[str] = None
    brute_min: Optional[ExtendedInt] = None
    brute_max: Optional[ExtendedInt] = None
    valid: Optional[bool] = None
    attained: Optional[bool] = None
    skip: Optional[str] = None
    counterexample: Optional[TimeSeries] = None

    @property
    def failed(self) -> bool:
        if self.skip is not None:
            return False
        if self.valid is False:
            return True
        return self.sharp_claimed and self.attained is False

    def to_json(self):
        from .series import ext_to_json

        def opt(v):
            return None if v is None else ext_to_json(v)

        return {
            "pattern": self.pattern,
            "g": self.g.value,
            "f": self.f.value,
            "side": self.side.value,
            "n": self.n,
            "domain": str(self.domain),
            "bound": opt(self.bound),
            "sharp_claimed": self.sharp_claimed,
            "source": self.source,
            "brute_min": opt(self.brute_min),
            "brute_max": opt(self.brute_max),
            "valid": self.valid,
            "attained": self.attained,
            "skip": self.skip,
            "counterexample": (
                None if self.counterexample is None
                else str(self.counterexample)
            ),
        }


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)

    @property
    def failures(self) -> list[SweepRow]:
        return [r for r in self.rows if r.failed]

    @property
    def skips(self) -> list[SweepRow]:
        return [r for r in self.rows if r.skip is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        checked = [r for r in self.rows if r.skip is None]
        return {
            "rows": len(self.rows),
            "checked": len(checked),
            "skipped": len(self.skips),
            "failed": len(self.failures),
            "sharp_confirmed": sum(
                1 for r in checked if r.sharp_claimed and r.attained
            ),
        }

    def to_json(self):
        return {
            "summary": self.summary(),
            "rows": [r.to_json() for r in self.rows],
        }


def _support_count(word: str, d: Domain) -> int:
    """Number of series over ``d`` with the given signature: ``ways[v]``
    counts the prefixes ending at ``d.lo + v``, and ``<`` (``>``) sums it
    over the smaller (larger) values."""
    ways = [1] * (d.span + 1)
    for ch in word:
        if ch == LT:
            ways = [0, *accumulate(ways[:-1])]
        elif ch == GT:
            ways = [0, *accumulate(ways[:0:-1])][::-1]
    return sum(ways)


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


def _cell_extrema(
    spec: PatternSpec,
    n: int,
    d: Domain,
    gfs: Iterable[tuple[Aggregator, Feature]],
    policy: DefaultPolicy,
) -> dict[tuple[Aggregator, Feature], ExtremaResult]:
    """What :func:`brute_extrema` gives for several aggregator/feature
    pairs, from one pass over the signatures of height at most the span.
    The features must be positional, so one value serves every series
    that supports a signature."""
    trackers = {gf: ExtremaResult(n, d) for gf in set(gfs)}
    for _, f in trackers:
        if f not in (Feature.ONE, Feature.WIDTH):
            raise ValueError(f"feature {f.value!r} reads series values")
    for word in words_of_height_at_most(d.span, n - 1):
        occs = maximal_occurrences(spec, word)
        count = _support_count(word, d)
        least = _least_support(word, d)
        feats: dict[Feature, list[int]] = {}
        for (g, f), tracker in trackers.items():
            vals = feats.get(f)
            if vals is None:
                vals = feats[f] = [feature_of(spec, f, least, o) for o in occs]
            tracker.add_signature(least, aggregate(g, vals, policy),
                                  bool(occs), count)
    return trackers


def sharpness_report(
    specs: Sequence[PatternSpec],
    gf_list: Sequence[tuple[Aggregator, Feature, Side]] = GF_SUPPORTED,
    n_range: Iterable[int] = range(2, 8),
    domains: Sequence[Domain] = (Domain(0, 1), Domain(0, 2), Domain(0, 3)),
    policy: DefaultPolicy = DEFAULT_POLICY,
    budget: int = DEFAULT_BUDGET,
    bound_fn: Optional[Callable[..., BoundResult]] = None,
) -> SweepReport:
    """Certify every requested bound against full enumeration.

    Eight outcomes per combination: a bound may be skipped with the error
    message of the rule that refused, or checked for validity against
    every series and, when flagged sharp, for attainment.  Budget
    overruns abort rather than truncate.
    """
    if bound_fn is None:
        bound_fn = bounds_mod.bound
    report = SweepReport()
    ns = list(n_range)
    # reject oversized requests before touching any cell
    for d in domains:
        for n in ns:
            check_budget(n, d, budget)
    for spec in specs:
        for d in domains:
            for n in ns:
                got: dict = {}
                for g, f, side in gf_list:
                    try:
                        got[(g, f, side)] = bound_fn(g, f, side, spec, n, d)
                    except BoundError as e:
                        report.rows.append(SweepRow(
                            spec.name, g, f, side, n, d,
                            skip=f"{type(e).__name__}: {e}",
                        ))
                if not got:
                    continue
                cells = _cell_extrema(
                    spec, n, d, [(g, f) for g, f, _ in got], policy
                )
                for (g, f, side), br in got.items():
                    ex = cells[(g, f)]
                    if side is Side.UPPER:
                        valid = ex.max_all <= br.value
                        attained = ex.max_all == br.value
                        witness = ex.witness_max
                    else:
                        valid = br.value <= ex.min_all
                        ref = ex.min_occ if f is Feature.WIDTH else ex.min_all
                        attained = ref == br.value
                        witness = ex.witness_min
                    report.rows.append(SweepRow(
                        spec.name, g, f, side, n, d,
                        bound=br.value,
                        sharp_claimed=br.sharp,
                        source=br.source,
                        brute_min=ex.min_all,
                        brute_max=ex.max_all,
                        valid=valid,
                        attained=attained,
                        counterexample=None if valid else witness,
                    ))
    return report
