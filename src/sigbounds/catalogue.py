"""Built-in catalogue of named signature patterns with reference values.

Each entry records a pattern's regular expression, trim constants, and the
expected characteristic values per domain span and series length.  Entries
are loaded once from ``catalogue.json`` shipped with the package.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Optional, Union

from .characteristics import CharacteristicsReport, CharKind, CharValue
from .series import PatternSpec
from .sigregex import word_key


class CatalogueError(Exception):
    """Base class for catalogue lookup errors."""


class UnknownPatternError(CatalogueError):
    """Raised when a pattern name matches no entry or alias."""

    def __init__(self, name: str, suggestions: tuple[str, ...] = ()) -> None:
        self.name = name
        self.suggestions = suggestions
        msg = f"unknown pattern {name!r}"
        if suggestions:
            msg += f" (did you mean: {', '.join(suggestions)}?)"
        super().__init__(msg)


@dataclass(frozen=True)
class Case:
    """One guarded reference value.

    An empty guard matches everything; guards are checked against the
    span or series length supplied by the caller.  ``value`` may be the
    literal string ``"n-1"`` for length-dependent entries.
    """

    value: Union[int, str]
    span_le: Optional[int] = None
    n_eq: Optional[int] = None

    def matches(self, *, span: Optional[int] = None, n: Optional[int] = None) -> bool:
        if self.span_le is not None and (span is None or span > self.span_le):
            return False
        if self.n_eq is not None and (n is None or n != self.n_eq):
            return False
        return True

    def resolve(self, *, n: Optional[int] = None) -> int:
        if self.value == "n-1":
            if n is None:
                raise ValueError("length-dependent value needs n")
            return n - 1
        assert isinstance(self.value, int)
        return self.value


def _parse_cases(raw: list[dict]) -> tuple[Case, ...]:
    out = []
    for item in raw:
        when = item.get("when", {})
        out.append(
            Case(
                value=item["value"],
                span_le=when.get("span_le"),
                n_eq=when.get("n_eq"),
            )
        )
    return tuple(out)


def _first_match(cases: tuple[Case, ...], *, span: Optional[int] = None,
                 n: Optional[int] = None) -> Optional[int]:
    """The value of the first case whose guard matches, None if none does."""
    return next((case.resolve(n=n) for case in cases
                 if case.matches(span=span, n=n)), None)


@dataclass(frozen=True)
class CatalogueEntry:
    """A named pattern plus its reference characteristics."""

    name: str
    expr: str
    a: int
    b: int
    omega: int
    eta: int
    ec: Optional[tuple[int, int]]
    inducing: tuple[str, ...]
    overlap_cases: tuple[Case, ...] = field(repr=False)
    delta_cases: tuple[Case, ...] = field(repr=False)
    range_cases: tuple[Case, ...] = field(repr=False)

    @cached_property
    def spec(self) -> PatternSpec:
        return PatternSpec(name=self.name, expr=self.expr, a=self.a, b=self.b)

    def overlap_at(self, span: int) -> Optional[int]:
        """Reference overlap for a domain of the given span, None if open."""
        return _first_match(self.overlap_cases, span=span)

    def delta_at(self, span: int) -> Optional[int]:
        """Reference smallest variation for the given span, None if open."""
        return _first_match(self.delta_cases, span=span)

    def range_at(self, n: int) -> Optional[int]:
        """Reference range for series of length n, None when undefined."""
        return _first_match(self.range_cases, n=n)


_ALIASES = {
    "bump": "bump_on_decreasing_sequence",
    "dip": "dip_on_increasing_sequence",
    "dec": "decreasing",
    "inc": "increasing",
    "dec_seq": "decreasing_sequence",
    "inc_seq": "increasing_sequence",
    "dec_ter": "decreasing_terrace",
    "inc_ter": "increasing_terrace",
    "prop_plain": "proper_plain",
    "prop_plateau": "proper_plateau",
    "steady_seq": "steady_sequence",
    "s_dec_seq": "strictly_decreasing_sequence",
    "sdec_seq": "strictly_decreasing_sequence",
    "s_inc_seq": "strictly_increasing_sequence",
    "sinc_seq": "strictly_increasing_sequence",
}


def _normalize(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


@lru_cache(maxsize=1)
def all_entries() -> tuple[CatalogueEntry, ...]:
    """All catalogue entries in alphabetical order."""
    text = resources.files(__package__).joinpath("catalogue.json").read_text("utf-8")
    data = json.loads(text)
    entries = []
    for raw in data["patterns"]:
        entries.append(
            CatalogueEntry(
                name=raw["name"],
                expr=raw["expr"],
                a=raw["a"],
                b=raw["b"],
                omega=raw["omega"],
                eta=raw["eta"],
                ec=None if raw["ec"] is None else tuple(raw["ec"]),
                inducing=tuple(raw["inducing"]),
                overlap_cases=_parse_cases(raw["overlap_cases"]),
                delta_cases=_parse_cases(raw["delta_cases"]),
                range_cases=_parse_cases(raw["range_cases"]),
            )
        )
    return tuple(sorted(entries, key=lambda e: e.name))


def names() -> tuple[str, ...]:
    return tuple(entry.name for entry in all_entries())


@lru_cache(maxsize=1)
def _index() -> dict[str, CatalogueEntry]:
    index: dict[str, CatalogueEntry] = {}
    by_name = {entry.name: entry for entry in all_entries()}
    for entry in all_entries():
        index[_normalize(entry.name)] = entry
    for alias, target in _ALIASES.items():
        index.setdefault(_normalize(alias), by_name[target])
    return index


def lookup(name: str) -> CatalogueEntry:
    """Resolve a pattern name or alias, ignoring case and separators."""
    entry = _index().get(_normalize(name))
    if entry is not None:
        return entry
    pool = sorted(set(names()) | set(_ALIASES))
    suggestions = tuple(difflib.get_close_matches(name.lower(), pool, n=3, cutoff=0.5))
    raise UnknownPatternError(name, suggestions)


def _char_mismatch(expected: Optional[int], actual: CharValue) -> bool:
    if expected is None:
        return actual.kind is not CharKind.UNDEFINED
    return actual.kind is not CharKind.DEFINED or actual.value != expected


def golden_check(entry: CatalogueEntry, rep: CharacteristicsReport) -> list[dict]:
    """Compare a computed report against the entry's reference values.

    Returns one dict per disagreement; an empty list means the report
    matches the catalogue.  Overlap and variation references assume the
    domain span is at least the pattern height.
    """
    span = rep.domain.span
    mismatches: list[dict] = []

    def note(fieldname: str, expected: object, actual: object) -> None:
        mismatches.append(
            {"field": fieldname, "expected": expected, "actual": actual}
        )

    if rep.omega != entry.omega:
        note("width", entry.omega, rep.omega)
    if rep.eta != entry.eta:
        note("height", entry.eta, rep.eta)
    if rep.range_params != entry.ec:
        note("range_params", entry.ec, rep.range_params)
    got_inducing = tuple(sorted(rep.inducing, key=word_key))
    if got_inducing != entry.inducing:
        note("inducing_words", list(entry.inducing), list(got_inducing))
    expected_o = entry.overlap_at(span)
    if _char_mismatch(expected_o, rep.overlap):
        note(f"overlap[span={span}]", expected_o, str(rep.overlap))
    expected_d = entry.delta_at(span)
    if _char_mismatch(expected_d, rep.variation):
        note(f"variation[span={span}]", expected_d, str(rep.variation))
    expected_r = entry.range_at(rep.n)
    if _char_mismatch(expected_r, rep.range_at_n):
        note(f"range[n={rep.n}]", expected_r, str(rep.range_at_n))
    return mismatches
