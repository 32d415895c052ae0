"""Closed-form bounds on the result of a time-series constraint.

Five combinations have certified formulas: the occurrence count (sum of
the one feature, both sides), the largest and the summed occurrence width
(upper side), and the smallest occurrence width (lower side).  ``RULES``
is the one table of them: ``bound`` dispatches through it, and the oracle
and the CLI derive their lists of supported combinations from it.  Every
result records which structural properties backed it; sharp is claimed
only when they all hold, and the exhaustive oracle can then find a series
attaining the value.  The rules read the overlap and variation at the
default search cap, the ones the oracle certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import characteristics as chars
from . import properties, sigregex
from .series import (
    Aggregator,
    Domain,
    ExtendedInt,
    Feature,
    PatternSpec,
    PLUS_INF,
    TimeSeries,
    evaluate,
    ext_to_json,
)


class BoundError(Exception):
    pass


class NotApplicableError(BoundError):
    """No implemented rule certifies a bound for this input."""


class NotSupportedError(BoundError):
    """The aggregator/feature/side combination has no bound rule at all."""


class OverlapExceedsWidthError(BoundError):
    pass


class VariationUndefinedError(BoundError):
    pass


class PropertyMissingError(BoundError):
    def __init__(self, missing: list[str], detail: str = ""):
        msg = "required property missing: " + ", ".join(missing)
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.missing = tuple(missing)


class Side(str, Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True, slots=True)
class BoundResult:
    value: ExtendedInt
    side: Side
    sharp: bool
    source: str
    preconditions: tuple[tuple[str, bool], ...] = ()
    m_used: Optional[ExtendedInt] = None

    def __post_init__(self):
        if self.sharp and not all(ok for _, ok in self.preconditions):
            raise ValueError("sharp bound with a failed precondition")

    def to_json(self):
        return {
            "value": ext_to_json(self.value),
            "side": self.side.value,
            "sharp": self.sharp,
            "source": self.source,
            "preconditions": [
                {"label": label, "holds": ok}
                for label, ok in self.preconditions
            ],
            "m_used": None if self.m_used is None else ext_to_json(self.m_used),
        }


def _require_length(n: int) -> None:
    if n < 2:
        raise ValueError("series length must be at least 2")


def _infeasible(
    spec: PatternSpec, n: int, d: Domain, value: ExtendedInt, side: Side
) -> Optional[BoundResult]:
    """The result without occurrences, if no series of the shape has one."""
    if properties.occurrence_feasible(spec, n, d):
        return None
    return BoundResult(
        value, side, True, "occurrence-infeasible",
        (("no-occurrence-possible", True),),
    )


def _unique_series(
    spec: PatternSpec, n: int, d: Domain,
    g: Aggregator, f: Feature, side: Side, source: str,
) -> BoundResult:
    """The exact result on the only series over a one-value domain."""
    value = evaluate(spec, f, g, TimeSeries((d.lo,) * n))
    return BoundResult(
        value, side, True, source, (("single-series-domain", True),)
    )


def _range_saturated(spec: PatternSpec, n: int, d: Domain) -> bool:
    """The domain is wide enough for one occurrence spanning the series."""
    rng = chars.range_of(spec, n)
    return rng.is_defined and d.span >= rng.expect()


def _settled_overlap(spec: PatternSpec, d: Domain) -> int:
    cv = chars.overlap(spec, d)
    if not cv.is_defined:
        raise NotApplicableError(f"overlap not settled: {cv}")
    return cv.expect()


def _settled_variation(spec: PatternSpec, d: Domain) -> int:
    cv = chars.smallest_variation(spec, d)
    if cv.kind is chars.CharKind.UNDEFINED:
        raise VariationUndefinedError(
            "smallest variation is undefined (both signs occur)"
        )
    if not cv.is_defined:
        raise NotApplicableError(f"variation not settled: {cv}")
    return cv.expect()


# --------------------------------------------------------------------------
# Occurrence-count bounds

def nb_lower(spec: PatternSpec, n: int, d: Domain) -> BoundResult:
    """Sharp lower bound on the number of maximal occurrences."""
    _require_length(n)
    chars.width(spec)
    try:
        check = properties.nb_simple(spec, d)
    except (sigregex.RegexError, chars.CharacteristicsError) as e:
        raise NotApplicableError(str(e)) from e
    if check.holds and properties.occurrence_avoidable(spec, n, d):
        return BoundResult(
            0, Side.LOWER, True, "nb-simple-lower", (("nb-simple", True),)
        )
    if d.span == 0:
        return _unique_series(spec, n, d, Aggregator.SUM, Feature.ONE,
                              Side.LOWER, "unique-series-count")
    if check.holds:
        raise NotApplicableError(
            f"{spec.name}: every series of length {n} over {d} has an "
            "occurrence"
        )
    raise NotApplicableError(
        f"{spec.name}: no lower-bound rule applies over {d}"
    )


@chars._by_span
def interval_cap(spec: PatternSpec, d: Domain) -> ExtendedInt:
    """Longest stretch of variables packable with occurrences, no restart.

    Infinite when glued occurrences keep the same maximum; otherwise each
    pack of patterns climbs or falls by the variation until the domain is
    exhausted.
    """
    delta = _settled_variation(spec, d)
    if delta == 0:
        return PLUS_INF
    o = _settled_overlap(spec, d)
    w = chars.width(spec)
    eta = chars.height(spec)
    ad = abs(delta)
    return ((d.span - eta + ad) // ad) * (w + 1 - o) + o


def nb_upper(spec: PatternSpec, n: int, d: Domain) -> BoundResult:
    """Sharp upper bound on the number of maximal occurrences."""
    _require_length(n)
    if res := _infeasible(spec, n, d, 0, Side.UPPER):
        return res
    if d.span == 0:
        return _unique_series(spec, n, d, Aggregator.SUM, Feature.ONE,
                              Side.UPPER, "unique-series-count")
    o = _settled_overlap(spec, d)
    w = chars.width(spec)
    if o > w:
        raise OverlapExceedsWidthError(
            f"overlap {o} exceeds width {w}; packing formulas do not apply"
        )
    _settled_variation(spec, d)
    if o > 0:
        prop = properties.nb_overlap(spec, d)
    else:
        prop = properties.nb_no_overlap(spec, d)
    per = w + 1 - o
    if prop.holds:
        m = min(n, max(1, interval_cap(spec, d)))
        a_part = max(0, m - o) // per
        b_part = n // m
        c_part = max(0, (n % m) - o) // per
        return BoundResult(
            a_part * b_part + c_part, Side.UPPER, True,
            "nb-interval-structure",
            (("occurrence-feasible", True), (prop.prop, True)),
            m_used=m,
        )
    return BoundResult(
        max(0, n - o) // per, Side.UPPER, False, "nb-density-cap",
        (("occurrence-feasible", True), (prop.prop, False)),
    )


# --------------------------------------------------------------------------
# Width bounds

def max_width_upper(spec: PatternSpec, n: int, d: Domain) -> BoundResult:
    """Sharp upper bound on the widest maximal occurrence."""
    _require_length(n)
    if res := _infeasible(spec, n, d, 0, Side.UPPER):
        return res
    wm = properties.width_max(spec)
    if not wm.holds:
        raise PropertyMissingError(["width-max"], wm.failed_condition or "")
    e, c = chars.range_params(spec)
    if _range_saturated(spec, n, d):
        value = n - spec.a - spec.b
    else:
        value = (e * (d.span + 1 - spec.a - spec.b)
                 + c * (chars.width(spec) + 1 - spec.a - spec.b))
    return BoundResult(
        value, Side.UPPER, True, "max-width-range",
        (("occurrence-feasible", True), ("width-max", True)),
    )


def sum_width_upper(spec: PatternSpec, n: int, d: Domain) -> BoundResult:
    """Sharp upper bound on the summed widths of maximal occurrences."""
    _require_length(n)
    if res := _infeasible(spec, n, d, 0, Side.UPPER):
        return res
    wm = properties.width_max(spec)
    ws = properties.width_sum(spec, d)
    missing = [p.prop for p in (wm, ws) if not p.holds]
    if missing:
        detail = "; ".join(
            p.failed_condition or "" for p in (wm, ws) if not p.holds
        )
        raise PropertyMissingError(missing, detail)
    e, c = chars.range_params(spec)
    if _range_saturated(spec, n, d):
        value = n - spec.a - spec.b
    else:
        eta = chars.height(spec)
        rho = min(1, max(0, eta + 1 - d.span)) * (n % 2)
        tau = nb_upper(spec, n, d).value
        value = (e * (n - rho)
                 + c * (chars.width(spec) + 1 - spec.a - spec.b) * tau)
    return BoundResult(
        value, Side.UPPER, True, "sum-width-range",
        (("occurrence-feasible", True), ("width-max", True),
         ("width-sum", True)),
    )


def min_width_lower(spec: PatternSpec, n: int, d: Domain) -> BoundResult:
    """Sharp lower bound on the narrowest maximal occurrence."""
    _require_length(n)
    if res := _infeasible(spec, n, d, PLUS_INF, Side.LOWER):
        return res
    try:
        wo = properties.width_occurrence(spec, d)
    except properties.FixedLengthRegexError as e:
        raise NotApplicableError(str(e)) from e
    if wo.holds:
        return BoundResult(
            chars.width(spec) + 1 - spec.a - spec.b, Side.LOWER, True,
            "min-width-shortest-pattern",
            (("occurrence-feasible", True), ("width-occurrence", True)),
        )
    if d.span == 0:
        return _unique_series(spec, n, d, Aggregator.MIN, Feature.WIDTH,
                              Side.LOWER, "unique-series-min-width")
    raise NotApplicableError(
        f"{spec.name}: no width lower-bound rule applies over {d}"
    )


# --------------------------------------------------------------------------
# Dispatch

RULES: dict[tuple[Aggregator, Feature, Side], Callable[..., BoundResult]] = {
    (Aggregator.SUM, Feature.ONE, Side.LOWER): nb_lower,
    (Aggregator.SUM, Feature.ONE, Side.UPPER): nb_upper,
    (Aggregator.MAX, Feature.WIDTH, Side.UPPER): max_width_upper,
    (Aggregator.SUM, Feature.WIDTH, Side.UPPER): sum_width_upper,
    (Aggregator.MIN, Feature.WIDTH, Side.LOWER): min_width_lower,
}


def bound(
    g: Aggregator,
    f: Feature,
    side: Side,
    spec: PatternSpec,
    n: int,
    d: Domain,
) -> BoundResult:
    """Route a (aggregator, feature, side) request to its bound rule."""
    rule = RULES.get((g, f, side))
    if rule is None:
        raise NotSupportedError(
            f"no closed-form {side.value} bound for {g.value} of {f.value}"
        )
    return rule(spec, n, d)
