"""Ground semantics: integer time series, signatures, occurrences, features.

A time series is a nonempty tuple of integers.  Its signature is the word of
comparison letters between consecutive values, so a series of length n has a
signature of length n - 1.  A pattern finds its matches inside the signature;
each maximal match is trimmed by the pattern's border constants before a
feature is read off the covered values, and :func:`aggregate` combines the
feature values.

The maximal matches come from one backward pass over the series'
comparisons, each read off two neighbouring values with no signature
built, that keeps, per automaton state, the furthest end of an accepted
run, followed by a running maximum over the starts.  The pass reads each
comparison with one lookup in a lazily built table of row types, the rows
up to the values of their ends, kept on the automaton and capped at
``MAX_ROW_TYPES``; a series that needs one more type finishes on the
automaton's arcs.  Either way the pass is linear in the series length,
whatever the number of state sets a deterministic reading would visit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import wraps
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import sigregex
from .sigregex import (ALPHABET, EQ, GT, LT, Automaton, Regex, check_word,
                       states_of)

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


# Each aggregator's result over no occurrence, as the bound formulas assume.
DEFAULTS: dict[Aggregator, ExtendedInt] = {
    Aggregator.SUM: 0, Aggregator.MAX: 0, Aggregator.MIN: PLUS_INF}


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
    from the left.  Identity is by name, source text and constants; the
    compiled form and the memo of :func:`_memoized` are not compared.
    """

    name: str
    expr: str
    a: int = 0
    b: int = 0
    ast: Regex = field(init=False, compare=False, repr=False)
    aut: Automaton = field(init=False, compare=False, repr=False)
    _memo: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise SeriesError("trimming constants must be nonnegative")
        ast = sigregex.parse(self.expr)
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "aut", sigregex.compile(ast))
        object.__setattr__(self, "_memo", {})


def _memoized(fn):
    """``fn(spec, *args)`` computed once, kept in the memo of the spec."""
    @wraps(fn)
    def memo(spec, *args):
        try:
            return spec._memo[fn, args]
        except KeyError:
            return spec._memo.setdefault((fn, args), fn(spec, *args))
    return memo


@dataclass(frozen=True, order=True)
class Occurrence:
    """A maximal match of the pattern inside a signature.

    ``i`` and ``j`` are 1-based, inclusive positions of the matched factor.
    The extended span covers series variables ``i .. j + 1``; trimming with
    constants ``(a, b)`` keeps variables ``i + b .. j + 1 - a``.
    """

    i: int
    j: int

    def trimmed(self, a: int, b: int) -> tuple[int, int]:
        return (self.i + b, self.j + 1 - a)


def signature(t: TimeSeries | Sequence[int]) -> str:
    """The comparison word of a series; empty for a single value."""
    vals = list(t)
    return "".join([LT if x < y else EQ if x == y else GT
                    for x, y in zip(vals, vals[1:])])


def word_height(word: str) -> int:
    """Fewest levels (minus one) any series with this signature must span.

    A factor without ``>`` forces as many climbs as it has ``<``, and
    dually, so one signed run counter c reads the word: ``<`` makes it
    max(c, 0) + 1, ``>`` makes it min(c, 0) - 1 and ``=`` keeps it.  The
    height is the largest |c|; the empty word has height 0.
    """
    check_word(word)
    best = c = 0
    for ch in word:
        if ch == LT:
            c = c + 1 if c > 0 else 1
        elif ch == GT:
            c = c - 1 if c < 0 else -1
        if abs(c) > best:
            best = abs(c)
    return best


def _climb(c: int, letter: str) -> int:
    """The run counter of :func:`word_height` one letter on, for the key
    walks that carry it."""
    if letter == LT:
        return c + 1 if c > 0 else 1
    if letter == GT:
        return c - 1 if c < 0 else -1
    return c


def _height_levels(c: int, span: int) -> int:
    """The levels 0 .. span, as a bitmask, that a word of height at most
    ``span`` and run counter c can end on when ``<`` climbs a level and
    ``>`` descends one, read from any level: c..span for c > 0,
    0..span + c for c < 0, and every level for c = 0.  A word read
    backwards, on mirrored letters, gives the levels it can start on."""
    every = (1 << span + 1) - 1
    if c > 0:
        return every ^ ((1 << c) - 1)
    return every >> -c


# The most row types one automaton tables for the scan: a language whose
# rows keep changing (a union of cycles of coprime lengths) would otherwise
# grow the table with the word.  The catalogue needs at most 30.
MAX_ROW_TYPES = 256


class _TableFull(Exception):
    """The scan needs a row type that a full table lacks."""


class _RowTable(dict):
    """The row types of one pattern's scan by key, filed in its memo as
    scans meet them, and what building them reads of its automaton."""

    __slots__ = ("aut", "accepting", "initial", "spare", "start")

    def __init__(self, aut: Automaton):
        self.aut = aut
        self.accepting = list(states_of(aut.accepting))
        self.initial = list(states_of(aut.initial))
        self.spare = aut.n_states + 1
        held = tuple(aut.accepting >> q & 1 for q in range(aut.n_states))
        key = (held, (1,) if aut.accepting else (), self.spare)
        best = 1 if aut.initial & aut.accepting else 0
        self.start = self[key] = _RowType(self, *key, best)


class _RowType(dict):
    """A backward scan row up to the values of its ends, and the type each
    letter read so far leads to, filed on first use.

    The scan keeps the row's distinct ends in registers, a list ``regs``
    whose register 0 holds -1: state q's end is ``regs[held[q]]``, and
    ``order`` lists the live registers, furthest end first.  The letter
    that leads here makes its position an end in register ``new`` (the
    spare last register when no empty run ends there), and ``regs[best]``
    is the end of the longest nonempty match from that position, or -1.
    """

    __slots__ = ("table", "held", "order", "new", "best")

    def __init__(self, table: _RowTable, held: tuple[int, ...],
                 order: tuple[int, ...], new: int, best: int):
        self.table, self.held, self.order = table, held, order
        self.new, self.best = new, best

    def __missing__(self, letter: str) -> "_RowType":
        table, order = self.table, self.order
        # the exact step at position 0 on a row whose registers hold
        # k, ..., 1 in order; back[v] is the register of value v after it
        value = dict(zip(order, range(len(order), 0, -1)))
        value[0] = -1
        far = _far_step(table.aut, table.accepting,
                        list(map(value.__getitem__, self.held)), 0, letter)
        live = set(far)
        kept = tuple([r for r in order if value[r] in live])
        new = table.spare
        if 0 in live:
            new = 1
            while new in kept:
                new += 1
            kept += (new,)
        back = [new, *reversed(order), 0]
        key = (tuple(map(back.__getitem__, far)), kept, new)
        node = table.get(key)
        if node is None:
            if len(table) >= MAX_ROW_TYPES:
                raise _TableFull
            # an empty run matched nothing, so the new end never counts
            e = max(map(far.__getitem__, table.initial))
            node = table[key] = _RowType(table, *key, back[e] if e > 0 else 0)
        self[letter] = node
        return node


def _far_step(aut: Automaton, accepting: list[int], far: list[int], i: int,
              letter: str) -> list[int]:
    """The scan row before 0-based position ``i`` from the row after it,
    reading ``letter`` there: an accepting state ends an empty run at i,
    and each arc carries its target's end back."""
    nxt = [-1] * aut.n_states
    for q in accepting:
        nxt[q] = i
    for q, r in aut.arcs[letter]:
        if far[r] > nxt[q]:
            nxt[q] = far[r]
    return nxt


_scan_rows = _memoized(lambda spec: _RowTable(spec.aut))


def _maximal_spans(spec: PatternSpec, vals: Sequence[int]
                   ) -> list[tuple[int, int]]:
    """The 1-based (i, j) of the maximal matches of ``spec`` in the
    signature of the series ``vals``, by position, from one backward pass
    over its comparisons, each read off two neighbouring values; see
    :func:`maximal_occurrences`."""
    m = len(vals) - 1
    table = _scan_rows(spec)
    aut, node = table.aut, table.start
    regs = [-1] * (aut.n_states + 2)
    regs[1] = m
    # ends[i]: 1-based end of the longest match starting at i + 1, or -1
    ends = [-1] * m
    i = m
    back = reversed(vals)
    y = next(back)
    try:
        for x in back:
            i -= 1
            node = node[LT if x < y else EQ if x == y else GT]
            regs[node.new] = i
            ends[i] = regs[node.best]
            y = x
    except _TableFull:
        far = [regs[r] for r in node.held]
        for i in range(i, -1, -1):
            x, y = vals[i], vals[i + 1]
            far = _far_step(aut, table.accepting, far, i,
                            LT if x < y else EQ if x == y else GT)
            e = max(map(far.__getitem__, table.initial))
            ends[i] = e if e > i else -1
    out = []
    reach = -1
    for i, e in enumerate(ends, 1):
        if e > reach:
            out.append((i, e))
            reach = e
    return out


_STEPS = {LT: 1, EQ: 0, GT: -1}


def _series_of(word: str) -> list[int]:
    """A series with signature ``word``: each letter steps by 1, 0 or -1."""
    return list(itertools.accumulate(map(_STEPS.__getitem__, word),
                                     initial=0))


def maximal_occurrences(spec: PatternSpec, s: str) -> list[Occurrence]:
    """Matches not strictly contained in another match, sorted by position.

    One backward pass finds the longest nonempty match from every start:
    the scan row holds, per automaton state, the furthest end of a run
    that starts there at the current position and stops in an accepting
    state.  Only the longest match from a start can be maximal, and it is
    maximal iff it ends beyond the longest match of every earlier start,
    which a forward running maximum decides.  The pass reads the
    comparisons of a series as it goes, so ``s`` is first turned into a
    series with that signature.

    The row is read as its type (:class:`_RowType`), which says which
    register holds each state's end, in what order the registers' ends
    lie and which register the position just read joined, plus the
    registers themselves, so a letter costs one table lookup and one
    register write.  The types form a lazily determinised automaton kept
    in the pattern memo: each (type, letter) transition is built once, in
    O(arcs), and at most ``MAX_ROW_TYPES`` types are filed.  A scan that
    needs one more finishes its word on the automaton's arcs, at O(arcs)
    per letter, as an untabled scan would.  Space O(|s|).
    """
    check_word(s)
    return [Occurrence(i, j)
            for i, j in _maximal_spans(spec, _series_of(s))]


@_memoized
def _row_moves(spec: PatternSpec) -> tuple[list, dict, dict]:
    """:func:`_scan_stepper`'s rows by id, the id of each row, and its
    row steps by (row id, letter), for every walk; row 0 is the start."""
    aut = spec.aut
    start = tuple(0 if aut.accepting >> q & 1 else -1
                  for q in range(aut.n_states))
    return [start], {start: 0}, {}


def _scan_stepper(spec: PatternSpec, span: int):
    """The start key and the step of the walk over reversed signatures of
    height at most ``span``.  A key holds a prefix's run counter c of
    :func:`word_height` (the levels it can end on are
    ``_height_levels(c, span)``; level ``d.hi - x`` of a domain ``d`` is
    set iff the letters read can start at value x), the id of its backward
    scan row of :func:`maximal_occurrences` from the read position (per
    state, the letters of the longest accepting run over those read, or
    -1), and its maximal occurrences as (letters after the end, letters)
    in signature order, so by decreasing letters after.  The step takes a
    key, the next letter's depth and the letter, and gives the longer
    prefix's key, or None once the height exceeds the span; each
    (row, letter) step is built once per pattern."""
    aut = spec.aut
    accepting = list(states_of(aut.accepting))
    initial = list(states_of(aut.initial))
    rows, ids, moves = _row_moves(spec)

    def step(key: tuple, depth: int, letter: str) -> Optional[tuple]:
        c, row, chain = key
        # _climb, inlined in the sweep's innermost step
        if letter == LT:
            c = c + 1 if c > 0 else 1
            if c > span:
                return None
        elif letter == GT:
            c = c - 1 if c < 0 else -1
            if -c > span:
                return None
        try:
            row, longest = moves[row, letter]
        except KeyError:
            # the row after position 0 holds ends one letter further on
            nxt = tuple(_far_step(aut, accepting, [
                x + 1 if x >= 0 else -1 for x in rows[row]], 0, letter))
            if nxt not in ids:
                ids[nxt] = len(rows)
                rows.append(nxt)
            moves[row, letter] = (ids[nxt],
                                  max(map(nxt.__getitem__, initial)))
            row, longest = moves[row, letter]
        if longest > 0:
            # the new start's match covers each later one ending no
            # further: a prefix of the chain, so a suffix stays
            after = depth - longest
            k = 0
            while k < len(chain) and chain[k][0] >= after:
                k += 1
            chain = ((after, longest),) + chain[k:]
        return c, row, chain

    return (0, 0, ()), step


def _signature_levels(spec: PatternSpec, m: int, span: int,
                      letters: Optional[Sequence[str]] = None
                      ) -> Iterator[dict[tuple, None]]:
    """The signatures of ``m`` letters and height at most ``span``,
    reversed, level by level with prefixes merged: level k holds each key
    of :func:`_scan_stepper` that a prefix of k letters reaches, as a dict
    of keys to None ordered by the least such prefix, since prefixes with
    one key have the same continuations; a key's row does not depend on
    ``m``, so every walk of a pattern reads its steps off one table.
    ``letters[k - 1]``, when given, holds the letters allowed at depth k."""
    start, step = _scan_stepper(spec, span)
    level = {start: None}
    yield level
    for depth in range(1, m + 1):
        nxt: dict[tuple, None] = {}
        allowed = ALPHABET if letters is None else letters[depth - 1]
        for key in level:
            for ch in allowed:
                reached = step(key, depth, ch)
                # a key set again keeps the position of its first prefix
                if reached is not None:
                    nxt[reached] = None
        level = nxt
        yield level


def _chain_values(spec: PatternSpec, levels: Sequence[dict]
                  ) -> tuple[dict, dict]:
    """The sorted occurrence lengths of each chain on the last of the
    merged ``levels`` of :func:`_signature_levels`, and the feature
    values of each distinct tuple of them: :func:`_features`' widths of
    the first chain carrying it, whose entry (after, k) is the occurrence
    (m - after - k + 1, m - after) of a signature of m letters."""
    m = len(levels) - 1
    lengths_of, values = {}, {}
    for _, _, chain in levels[m]:
        # sorting once per distinct chain, not once per key, halves the cost
        if chain in lengths_of:
            continue
        lengths = lengths_of[chain] = tuple(sorted(k for _, k in chain))
        if lengths in values:
            continue
        widths = _features(spec, Feature.WIDTH, (), [
            (m - after - k + 1, m - after) for after, k in chain])
        values[lengths] = {Feature.ONE: [1] * len(widths),
                           Feature.WIDTH: widths}
    return lengths_of, values


def _counterexamples(spec: PatternSpec, levels: Sequence[dict], d: Domain,
                     wanted: Iterable[tuple[Aggregator, Feature, ExtendedInt]]
                     ) -> dict[tuple, TimeSeries]:
    """``oracle.brute_extrema``'s witness of each wanted (g, f, extreme),
    the first series of that value in lexicographic order, by a descent of
    ``levels``, as in ``oracle._cell_extrema``, from the last, whose keys
    of that value are the first targets: at level k the next value is the
    least x at which a key can start (its height bit ``d.hi - x``) that is
    a target (k = m) or that the letter into x steps into one, and those
    keys are the next targets.  Every extreme reads one list of steps per
    (k, letter).  Nothing is undone."""
    m = len(levels) - 1
    _, step = _scan_stepper(spec, d.span)
    lengths_of, values = _chain_values(spec, levels)
    steps: dict[tuple, list] = {}
    found: dict[tuple, TimeSeries] = {}
    for g, f, extreme in wanted:
        hit = {lengths for lengths, feats in values.items()
               if aggregate(g, feats[f]) == extreme}
        targets = {key for key in levels[m] if lengths_of[key[2]] in hit}
        vals: list[int] = []
        for k in range(m, -1, -1):
            keys = targets
            for x in range(d.lo, d.hi + 1):
                if k < m:
                    letter = signature((vals[-1], x))
                    if (k, letter) not in steps:
                        steps[k, letter] = [(key, step(key, k + 1, letter))
                                            for key in levels[k]]
                    keys = {key for key, to in steps[k, letter]
                            if to in targets}
                if any(_height_levels(key[0], d.span) >> d.hi - x & 1
                       for key in keys):
                    break
            vals.append(x)
            targets = keys
        found[g, f, extreme] = TimeSeries(tuple(vals))
    return found


def _carries_maximal(spec: PatternSpec, v: str, n: int, span: int) -> bool:
    """Some signature of n - 1 letters, height at most span, has v maximal:
    one walk per count of letters after v, with v's letters forced there."""
    m, k = n - 1, len(v)
    for after in range(m - k + 1):
        letters = [ALPHABET] * m
        letters[after:after + k] = v[::-1]
        for level in _signature_levels(spec, m, span, letters):
            pass
        if any((after, k) in chain for _, _, chain in level):
            return True
    return False


def feature_of(spec: PatternSpec, f: Feature, t: TimeSeries,
               occ: Occurrence) -> int:
    """Value of one feature on one trimmed occurrence of ``t``."""
    if not 1 <= occ.i <= occ.j <= len(t) - 1:
        raise SeriesError(f"occurrence ({occ.i},{occ.j}) lies outside a "
                          f"series of length {len(t)}")
    return _features(spec, f, t.values, [(occ.i, occ.j)])[0]


def _features(spec: PatternSpec, f: Feature, values: Sequence[int],
              spans: Sequence[tuple[int, int]]) -> list[int]:
    """:func:`feature_of` on each occurrence (i, j) of ``spans``, which lie
    in the series ``values``; the first in ``spans`` that trimming leaves
    empty raises before any feature is read."""
    # values[i + lo:j + hi] holds the kept variables i + b .. j + 1 - a
    lo, hi = spec.b - 1, 1 - spec.a
    for i, j in spans:
        if i + lo >= j + hi:
            raise EmptyPatternError(
                f"occurrence ({i},{j}) of {spec.name} trims to nothing")
    if f is Feature.ONE:
        return [1] * len(spans)
    if f is Feature.WIDTH:
        return [j + hi - i - lo for i, j in spans]
    read = {Feature.MAX: max, Feature.MIN: min, Feature.SURF: sum}[f]
    return [read(values[i + lo:j + hi]) for i, j in spans]


def aggregate(g: Aggregator, vals: Sequence[int]) -> ExtendedInt:
    """Combine feature values with ``g``; ``DEFAULTS[g]`` when empty."""
    if not vals:
        return DEFAULTS[g]
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
) -> ExtendedInt:
    """Aggregate the feature over all maximal occurrences in ``t``.

    With no occurrence the aggregator's entry in ``DEFAULTS`` applies.
    """
    vals = t.values
    return aggregate(g, _features(spec, f, vals,
                                  _maximal_spans(spec, vals)))


def enumerate_series(n: int, d: Domain) -> Iterator[TimeSeries]:
    """All series of length ``n`` over ``d`` in lexicographic order."""
    for tup in itertools.product(range(d.lo, d.hi + 1), repeat=n):
        yield TimeSeries(tup)
