"""Exhaustive ground truth for bounds and characteristics.

Everything here recomputes results by enumeration: extrema of constraint
results over every series of a given shape, and overlap and variation
recomputed pair by pair from ``characteristics``' definitions, without
state classes or pruning.  The bounded searches in the main modules must
agree with these; the sharpness report certifies the bound formulas against
them.

:func:`brute_extrema` walks every series.  The features of ``bounds.RULES``
depend only on where the maximal occurrences lie, so the sweep walks the
signatures of height at most the span instead, each standing for the series
it supports, the least of them its witness, and reads each walked word
backwards so that one occurrence scan serves every word below a node.
Both fold every series of the shape, (span + 1) ** n of them, and budgets
count series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from . import bounds as bounds_mod
from .bounds import BoundError, BoundResult, Side
from .characteristics import (
    CharValue,
    _checked_cap,
    _least_variation,
    _pair_variation,
    _stabilize,
    overlap_of_words,
    superpositions,
)
from .series import (
    Aggregator,
    Domain,
    EmptyPatternError,
    ExtendedInt,
    Feature,
    MINUS_INF,
    PLUS_INF,
    PatternSpec,
    TimeSeries,
    _least_support,
    aggregate,
    enumerate_series,
    feature_of,
    maximal_occurrences,
    signature,
)
from .sigregex import bounded_height_automaton, states_of

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

    ``min_all``/``max_all`` range over every series, a pattern-free one
    counting as its aggregator's ``DEFAULTS`` value; ``min_occ`` and
    ``max_occ`` restrict to series having at least one occurrence and
    degenerate to +inf/-inf when no such series exists.
    """

    n: int
    domain: Domain
    min_all: ExtendedInt = PLUS_INF
    max_all: ExtendedInt = MINUS_INF
    min_occ: ExtendedInt = PLUS_INF
    max_occ: ExtendedInt = MINUS_INF
    witness_min: Optional[TimeSeries] = None
    witness_max: Optional[TimeSeries] = None

    @property
    def count(self) -> int:
        """The series of the shape, every one of which is folded in."""
        return (self.domain.span + 1) ** self.n

    def add(self, t: Optional[TimeSeries], val: ExtendedInt,
            has_occ: bool) -> None:
        """Fold in series of value ``val``, the least of them ``t``.  A tie
        keeps the lexicographically smaller witness, and an extreme still
        at its infinite start keeps none, so ``t`` is read only when
        ``val`` is at or past an extreme."""
        tie_min = (val == self.min_all and self.witness_min is not None
                   and t.values < self.witness_min.values)
        if val < self.min_all or tie_min:
            self.min_all = val
            self.witness_min = t
        tie_max = (val == self.max_all and self.witness_max is not None
                   and t.values < self.witness_max.values)
        if val > self.max_all or tie_max:
            self.max_all = val
            self.witness_max = t
        if has_occ:
            self.min_occ = min(self.min_occ, val)
            self.max_occ = max(self.max_occ, val)

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
) -> ExtremaResult:
    """Exact result extrema by full enumeration in lexicographic order."""
    check_budget(n, d, budget)
    out = ExtremaResult(n, d)
    for t in enumerate_series(n, d):
        occs = maximal_occurrences(spec, signature(t))
        vals = [feature_of(spec, f, t, o) for o in occs]
        out.add(t, aggregate(g, vals), bool(occs))
    return out


# --------------------------------------------------------------------------
# Overlap and variation pair by pair

def _all_pairs_overlap(
    spec: PatternSpec, d: Domain, cap: int, counter: list[int]
) -> int:
    words = [u for u in spec.aut.words_up_to(cap) if u]
    best = 0
    for v, w in product(words, words):
        # a pair shares at most min(len v, len w) + 1 variables
        if min(len(v), len(w)) + 1 <= best:
            continue
        _spend(counter, min(len(v), len(w)) + 1)
        best = max(best, overlap_of_words(spec, v, w, d))
    return best


def brute_overlap(
    spec: PatternSpec,
    d: Domain,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> CharValue:
    """Overlap over every pair of words, cap-stabilized.  The budget counts
    the overlays examined, min(len v, len w) + 1 per pair."""
    cap = _checked_cap(spec, cap)
    counter = [budget]
    return _stabilize(lambda c: _all_pairs_overlap(spec, d, c, counter), cap)


def _all_pairs_variation(
    spec: PatternSpec, d: Domain, cap: int, counter: list[int]
) -> int:
    words = [u for u in spec.aut.words_up_to(cap) if u]
    vals = []
    for v, w in product(words, words):
        _spend(counter, min(len(v), len(w)) + 1)
        zs = superpositions(spec, v, w, d)
        if zs:
            vals.append(_pair_variation(spec, v, w, zs))
    return _least_variation(vals)


def brute_variation(
    spec: PatternSpec,
    d: Domain,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> CharValue:
    """Smallest variation over every overlapping pair, cap-stabilized.
    The budget counts overlays as in :func:`brute_overlap`."""
    cap = _checked_cap(spec, cap)
    counter = [budget]
    return _stabilize(lambda c: _all_pairs_variation(spec, d, c, counter), cap)


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


def _cell_extrema(
    spec: PatternSpec,
    n: int,
    d: Domain,
    gfs: Iterable[tuple[Aggregator, Feature]],
) -> dict[tuple[Aggregator, Feature], ExtremaResult]:
    """What :func:`brute_extrema` gives for several aggregator/feature
    pairs, from one pass over the signatures of height at most the span.
    The features must be positional, so one value serves every series
    that supports a signature.  A walked word stands for its reversal
    (H_span is closed under it), so a walk step is a step of the backward
    scan of :func:`maximal_occurrences`, kept per depth: ends count the
    letters after them (``n`` for none), and a chain holds the maximal
    occurrences so far as (letters after the end, letters)."""
    trackers = {gf: ExtremaResult(n, d) for gf in set(gfs)}
    for _, f in trackers:
        if f not in (Feature.ONE, Feature.WIDTH):
            raise ValueError(f"feature {f.value!r} reads series values")
    aut, trim = spec.aut, 1 - spec.a - spec.b
    initial = list(states_of(aut.initial))
    # the scan row at each depth before its letter: empty runs end at once
    blank = [[k if aut.accepting >> q & 1 else n for q in range(aut.n_states)]
             for k in range(n)]
    fars, chains = blank[:], [()] * n
    for word, _ in bounded_height_automaton(d.span)._prefixes(n - 1):
        depth = len(word)
        if depth:
            far, nxt = fars[depth - 1], blank[depth][:]
            for q, r in aut.arcs[word[-1]]:
                if far[r] < nxt[q]:
                    nxt[q] = far[r]
            after = min(map(nxt.__getitem__, initial))
            chain = chains[depth - 1]
            if after < depth:
                # the new start's match covers each later one ending no further
                chain = ((after, depth - after),) + tuple(
                    o for o in chain if o[0] < after)
            fars[depth], chains[depth] = nxt, chain
        if depth < n - 1:
            continue
        chain = chains[depth]
        widths = [letters + trim for _, letters in chain]
        if widths and min(widths) < 1:
            raise EmptyPatternError(f"an occurrence of {spec.name} in "
                                    f"{word[::-1]!r} trims to nothing")
        feats = {Feature.ONE: [1] * len(chain), Feature.WIDTH: widths}
        least = None
        for (g, f), tracker in trackers.items():
            val = aggregate(g, feats[f])
            if least is None and not tracker.min_all < val < tracker.max_all:
                least = _least_support(word[::-1], d)
            tracker.add(least, val, bool(chain))
    return trackers


def sharpness_report(
    specs: Sequence[PatternSpec],
    gf_list: Sequence[tuple[Aggregator, Feature, Side]] = GF_SUPPORTED,
    n_range: Iterable[int] = range(2, 8),
    domains: Sequence[Domain] = (Domain(0, 1), Domain(0, 2), Domain(0, 3)),
    budget: int = DEFAULT_BUDGET,
    bound_fn: Optional[Callable[..., BoundResult]] = None,
) -> SweepReport:
    """Certify every requested bound against full enumeration.

    Eight outcomes per combination: a bound may be skipped with the error
    message of the rule that refused, or checked for validity against
    every series and, when flagged sharp, for attainment.  Budget
    overruns abort rather than truncate.  Pattern-free series take
    ``series.DEFAULTS``, the values the bound formulas assume.
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
                cells = _cell_extrema(spec, n, d, [(g, f) for g, f, _ in got])
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
