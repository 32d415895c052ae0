"""Exhaustive ground truth for bounds and characteristics.

Everything here recomputes results by enumeration: extrema of constraint
results over every series of a given shape, and overlap and variation
recomputed pair by pair from ``characteristics``' definitions, without
state classes or sign classes.  The overlap skips only a pair too short to
beat the best so far, which saves budget and changes no value.  The
bounded searches in the main modules must agree with these; the sharpness
report certifies the bound formulas against them.

:func:`brute_extrema` walks every series.  The features of ``bounds.RULES``
depend only on the lengths of the maximal occurrences, so the sweep reads
the signatures of height at most the span, in one walk per pattern and
domain of ``series._signature_levels`` whose first n merged levels serve
the cells of length n.  A cell folds each distinct sorted tuple of
occurrence lengths of its last level once; one with a failing row descends
its levels for the least series of each violated extreme.  Both stand for
every series of the shape, (span + 1) ** n of them; budgets count series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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
    ExtendedInt,
    Feature,
    MINUS_INF,
    PLUS_INF,
    PatternSpec,
    TimeSeries,
    _chain_values,
    _counterexamples,
    _features,
    _maximal_spans,
    _signature_levels,
    aggregate,
    enumerate_series,
    ext_to_json,
)

DEFAULT_BUDGET = 5_000_000

GF_SUPPORTED = tuple(bounds_mod.RULES)


class BudgetExceededError(Exception):
    pass


def _spend(counter: list[int], amount: int = 1) -> None:
    counter[0] -= amount
    if counter[0] < 0:
        raise BudgetExceededError("enumeration budget exhausted")


def _to_json(v):
    """A field JSON-safe: an enum by its value, a series or domain as its
    text, a number with its infinities as strings, anything else as is."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, (TimeSeries, Domain)):
        return str(v)
    if v is None or isinstance(v, (bool, str)):
        return v
    return ext_to_json(v)


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
        """Fold in series ``t`` of value ``val``.  The first series to
        reach an extreme is its witness, and an extreme still at its
        infinite start has none.  The sweep folds values only, ``t`` None,
        and searches a witness only for a row whose bound fails."""
        if val < self.min_all:
            self.min_all, self.witness_min = val, t
        if val > self.max_all:
            self.max_all, self.witness_max = val, t
        if has_occ:
            self.min_occ = min(self.min_occ, val)
            self.max_occ = max(self.max_occ, val)


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
        spans = _maximal_spans(spec, t.values)
        vals = _features(spec, f, t.values, spans)
        out.add(t, aggregate(g, vals), bool(spans))
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

class SweepRow(NamedTuple):
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
        return dict(zip(self._fields, map(_to_json, self)))


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
    levels: Sequence[dict],
    d: Domain,
    gfs: Iterable[tuple[Aggregator, Feature]],
) -> dict[tuple[Aggregator, Feature], ExtremaResult]:
    """What :func:`brute_extrema` gives for several aggregator/feature
    pairs, witnesses aside, on ``len(levels)`` values, from the last of
    the merged ``levels`` of ``series._signature_levels``.  The features
    must read only the occurrences' lengths, so one value serves every
    series whose signature has maximal occurrences of those lengths, in
    any order: each distinct sorted tuple of lengths is folded once."""
    trackers = {gf: ExtremaResult(len(levels), d) for gf in set(gfs)}
    for _, f in trackers:
        if f not in (Feature.ONE, Feature.WIDTH):
            raise ValueError(f"feature {f.value!r} reads series values")
    for lengths, feats in _chain_values(spec, levels)[1].items():
        for (g, f), tracker in trackers.items():
            tracker.add(None, aggregate(g, feats[f]), bool(lengths))
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
    # reject short lengths and oversized requests before touching any cell
    for d, n in product(domains, ns):
        if n < 1:
            raise ValueError(f"series length must be at least 1, got {n}")
        check_budget(n, d, budget)
    for spec, d in product(specs, domains):
        # no level depends on the length, so one walk serves every cell
        walk = _signature_levels(spec, max(ns, default=1) - 1, d.span)
        levels: list[dict] = []
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
            while len(levels) < n:
                levels.append(next(walk))
            cell = levels[:n]
            cells = _cell_extrema(spec, cell, d, [(g, f) for g, f, _ in got])
            rows = []
            for (g, f, side), br in got.items():
                ex = cells[(g, f)]
                if side is Side.UPPER:
                    extreme = ref = ex.max_all
                    valid = extreme <= br.value
                else:
                    extreme = ex.min_all
                    valid = br.value <= extreme
                    ref = ex.min_occ if f is Feature.WIDTH else extreme
                rows.append((extreme, SweepRow(
                    spec.name, g, f, side, n, d,
                    bound=br.value,
                    sharp_claimed=br.sharp,
                    source=br.source,
                    brute_min=ex.min_all,
                    brute_max=ex.max_all,
                    valid=valid,
                    attained=ref == br.value,
                )))
            wanted = [(r.g, r.f, extreme)
                      for extreme, r in rows if not r.valid]
            found = _counterexamples(spec, cell, d, wanted) if wanted else {}
            report.rows += [
                r if r.valid else
                r._replace(counterexample=found[(r.g, r.f, extreme)])
                for extreme, r in rows]
    return report
