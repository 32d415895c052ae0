"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

import dataclasses
from functools import lru_cache, reduce
from itertools import count, permutations, product
from typing import Iterator, Optional

from sigbounds import bounds as bd
from sigbounds import compile_regex
from sigbounds.bounds import Side
from sigbounds.series import (
    Domain,
    Feature,
    Occurrence,
    PatternSpec,
    TimeSeries,
    maximal_occurrences,
    word_height,
)
from sigbounds.sigregex import (
    ALPHABET,
    EQ,
    GT,
    LT,
    Automaton,
    Concat,
    Empty,
    Epsilon,
    Lit,
    Regex,
    Star,
    Union,
    check_word,
    parse,
)

NEG = float("-inf")


def height_oracle(word: str) -> int:
    """Minimal series height by difference-constraint feasibility.

    Builds the constraint graph of the word (ascent forces +1, descent
    forces -1, equality forces 0), takes all-pairs tightest implied
    differences, and returns the smallest h for which the system fits
    in a window of height h.
    """
    k = len(word)
    n = k + 1
    dist = [[NEG] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for i, ch in enumerate(word):
        if ch == "<":
            dist[i][i + 1] = max(dist[i][i + 1], 1)
        elif ch == ">":
            dist[i + 1][i] = max(dist[i + 1][i], 1)
        else:
            dist[i][i + 1] = max(dist[i][i + 1], 0)
            dist[i + 1][i] = max(dist[i + 1][i], 0)
    for m in range(n):
        dm = dist[m]
        for i in range(n):
            dim = dist[i][m]
            if dim == NEG:
                continue
            di = dist[i]
            for j in range(n):
                alt = dim + dm[j]
                if alt > di[j]:
                    di[j] = alt
    forced = max(max(x for x in row if x != NEG) for row in dist)
    for h in range(0, k + 1):
        if forced <= h:
            return h
    return k


@lru_cache(maxsize=None)
def bounded_height_automaton(h: int) -> Automaton:
    """H_h, the automaton of all words supportable within ``h + 1``
    consecutive levels.

    States are the levels ``0..h``; every state is initial and accepting.
    ``<`` moves strictly up, ``>`` strictly down, ``=`` stays.  A word is
    accepted iff its height is at most ``h``.  The package reads the run
    counter of ``word_height`` instead; this is its reference.
    """
    if h < 0:
        raise ValueError("height bound must be nonnegative")
    levels = range(h + 1)
    arcs = {
        LT: tuple((a, b) for a in levels for b in levels if b > a),
        EQ: tuple((a, a) for a in levels),
        GT: tuple((a, b) for a in levels for b in levels if b < a),
    }
    states = (1 << (h + 1)) - 1
    return Automaton(h + 1, states, states, arcs)


def naive_matches(node: Regex, word: str) -> bool:
    """Structural-recursion matcher, independent of any automaton."""
    memo: dict[tuple[Regex, str], bool] = {}

    def go(n: Regex, w: str) -> bool:
        key = (n, w)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(n, Empty):
            out = False
        elif isinstance(n, Epsilon):
            out = w == ""
        elif isinstance(n, Lit):
            out = w == n.letter
        elif isinstance(n, Union):
            out = any(go(p, w) for p in n.parts)
        elif isinstance(n, Concat):
            out = _concat(n.parts, w)
        elif isinstance(n, Star):
            if w == "":
                out = True
            else:
                out = any(
                    go(n.inner, w[:i]) and go(n, w[i:])
                    for i in range(1, len(w) + 1)
                )
        else:
            raise TypeError(f"unknown node {n!r}")
        memo[key] = out
        return out

    def _concat(parts: tuple[Regex, ...], w: str) -> bool:
        if not parts:
            return w == ""
        head, rest = parts[0], parts[1:]
        return any(
            go(head, w[:i]) and _concat(rest, w[i:])
            for i in range(len(w) + 1)
        )

    return go(node, word)


def naive_match_spans(aut: Automaton, s: str) -> list[tuple[int, int]]:
    """All 1-based spans (i, j) such that s[i..j] is in the language.

    Runs the automaton from every start, so it costs O(len(s)**2) steps.
    """
    check_word(s)
    out = []
    m = len(s)
    for i in range(m):
        cur = aut.initial
        for j in range(i, m):
            cur = aut.step(cur, s[j])
            if not cur:
                break
            if cur & aut.accepting:
                out.append((i + 1, j + 1))
    return out


def naive_maximal_occurrences(spec: PatternSpec, s: str) -> list[Occurrence]:
    """Matches not strictly contained in another match, by the definition.

    Compares every pair of matches, so it is quadratic in their number.
    """
    spans = naive_match_spans(spec.aut, s)
    out = []
    for i, j in spans:
        maximal = True
        for i2, j2 in spans:
            if (i2, j2) != (i, j) and i2 <= i and j <= j2:
                maximal = False
                break
        if maximal:
            out.append(Occurrence(i, j))
    out.sort()
    return out


def reference_feature(spec: PatternSpec, f: Feature, t: TimeSeries,
                      occ: Occurrence) -> Optional[int]:
    """One feature of one occurrence by its definition, or None when
    trimming leaves nothing: the occurrence covers variables i .. j + 1,
    trimming keeps i + b .. j + 1 - a, and the feature reads the kept
    values directly."""
    window = [t.values[k - 1]
              for k in range(occ.i + spec.b, occ.j + 2 - spec.a)]
    if not window:
        return None
    return {Feature.ONE: 1, Feature.WIDTH: len(window),
            Feature.MAX: max(window), Feature.MIN: min(window),
            Feature.SURF: sum(window)}[f]


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


def least_support(word: str, d: Domain) -> Optional[TimeSeries]:
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


def supporting_series(word: str, d: Domain) -> list[TimeSeries]:
    """All series over ``d`` with the given signature.

    Empty exactly when the word's height exceeds the domain span.
    """
    return list(iter_supporting_series(word, d))


def naive_shift(spec: PatternSpec, z: str, w: str, i: int):
    """Shift of the i-th w-occurrence in z, by its definition.

    Walks every series supporting z over [0, word_height(z)] and keeps the
    least gap between the series maximum and the maximum inside the
    occurrence's extended span; None when there is no i-th occurrence.
    """
    if w == z or not w:
        return None
    occs = [o for o in maximal_occurrences(spec, z) if z[o.i - 1:o.j] == w]
    if len(occs) < i:
        return None
    o = occs[i - 1]
    lo, hi = o.i, o.j + 1
    return min(max(t.values) - max(t.values[lo - 1:hi])
               for t in iter_supporting_series(z, Domain(0, word_height(z))))


def naive_factors(node: Regex, k: int) -> set[str]:
    """Factors of at most k letters of the language's words.

    Structural recursion, independent of any automaton.  Each node yields
    its words, prefixes, suffixes and factors of at most k letters, or
    None for the empty language.  A factor of a concatenation lies in one
    part or is a suffix of the first part followed by a prefix of the
    second; a factor of a word of ``r*`` touches at most k + 2 nonempty
    iterations of ``r``.
    """

    def cut(words):
        return {w for w in words if len(w) <= k}

    def cat(a, b):
        if a is None or b is None:
            return None
        (la, pa, sa, fa), (lb, pb, sb, fb) = a, b
        return (cut(x + y for x in la for y in lb),
                pa | cut(x + p for x in la for p in pb),
                sb | cut(s + y for s in sa for y in lb),
                fa | fb | cut(s + p for s in sa for p in pb))

    def alt(a, b):
        if a is None or b is None:
            return a if b is None else b
        return tuple(x | y for x, y in zip(a, b))

    def go(n: Regex):
        if isinstance(n, Empty):
            return None
        if isinstance(n, Epsilon):
            return ({""}, {""}, {""}, {""})
        if isinstance(n, Lit):
            return ({n.letter}, {"", n.letter}, {"", n.letter},
                    {"", n.letter})
        if isinstance(n, Concat):
            return reduce(cat, map(go, n.parts))
        if isinstance(n, Union):
            return reduce(alt, map(go, n.parts))
        if isinstance(n, Star):
            inner = go(n.inner)
            out = power = go(Epsilon())
            for _ in range(k + 2):
                power = cat(power, inner)
                out = alt(out, power)
            return out
        raise TypeError(f"unknown node {n!r}")

    got = go(node)
    return set() if got is None else got[3]


def naive_lengths(node: Regex, k: int) -> set[int]:
    """Lengths of at most k letters of the language's words.

    Structural recursion, independent of any automaton: a letter has
    length 1, a concatenation the sums of its parts' lengths, a union the
    union of its parts', and a star every sum of its inner lengths.
    """

    def cat(a, b):
        return {x + y for x in a for y in b if x + y <= k}

    def go(n: Regex) -> set[int]:
        if isinstance(n, Empty):
            return set()
        if isinstance(n, Epsilon):
            return {0}
        if isinstance(n, Lit):
            return {1}
        if isinstance(n, Concat):
            return reduce(cat, map(go, n.parts))
        if isinstance(n, Union):
            return set().union(*map(go, n.parts))
        if isinstance(n, Star):
            inner, out = go(n.inner), {0}
            while more := cat(out, inner) - out:
                out |= more
            return out
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def raw_universe() -> list[str]:
    """Every one-branch regex of one or two letters with at most one
    nullable factor inserted anywhere (408 regexes)."""
    nullable = ([a + op for a in ALPHABET for op in "*?"]
                + [f"({a}|{b})?" for a, b in permutations(ALPHABET, 2)])
    out = []
    for k in (1, 2):
        for letters in product(ALPHABET, repeat=k):
            out.append("".join(letters))
            out += ["".join(letters[:at]) + f + "".join(letters[at:])
                    for f in nullable for at in range(k + 1)]
    return out


def monotone_template(spec: PatternSpec) -> bool:
    """Whether the range follows the (1, 0) template, by an automaton
    product: from omega + 1 letters on, L has a word of every length and
    none holding ``=`` or both strict letters.  The length sets of L and of
    its product with those words are stepped together to their first
    repeat, from which they cycle."""
    non_monotone = compile_regex(
        parse("(<|=|>)*(=|<(<|=|>)*>|>(<|=|>)*<)(<|=|>)*"))
    auts = (spec.aut, spec.aut.intersect(non_monotone))
    sets, seen = tuple(a.initial for a in auts), set()
    m = spec.aut.shortest_nonempty_length() + 1
    for k in count():
        if k >= m:
            if sets in seen:
                return True
            if not sets[0] & auts[0].accepting or sets[1] & auts[1].accepting:
                return False
            seen.add(sets)
        sets = tuple(reduce(lambda x, y: x | y,
                            (a.step(states, ch) for ch in ALPHABET))
                     for a, states in zip(auts, sets))


def naive_range(spec: PatternSpec, n: int):
    """Least height of an accepted word of n - 1 letters, or None.

    Reads the listed words of the language, with no product automaton.
    """
    return min((word_height(u) for u in spec.aut.words_up_to(n - 1)
                if len(u) == n - 1), default=None)


def naive_anchored_candidates(v: str, w: str, length: int):
    """Words of the given length with prefix v and suffix w.

    Anchors the longer word and enumerates the free letters, rejecting
    candidates that miss the other anchor.
    """
    if len(v) >= len(w):
        for fill in product(ALPHABET, repeat=length - len(v)):
            z = v + "".join(fill)
            if z.endswith(w):
                yield z
    else:
        for fill in product(ALPHABET, repeat=length - len(w)):
            z = "".join(fill) + w
            if z.startswith(v):
                yield z


def carries_maximal_per_word(spec: PatternSpec, v: str, n: int,
                             d: Domain) -> bool:
    """Some signature of n - 1 letters and height at most the span has v
    as a maximal occurrence: every such word scanned on its own."""
    h = min(d.span, n - 1)
    for s in bounded_height_automaton(h).words(n - 1):
        for occ in maximal_occurrences(spec, s):
            if s[occ.i - 1:occ.j] == v:
                return True
    return False


def off_by_one(g, f, side, spec, n, d):
    """``bounds.bound`` moved one step too tight: every upper bound lowered
    by one and every lower bound raised by one."""
    r = bd.bound(g, f, side, spec, n, d)
    step = -1 if side is Side.UPPER else 1
    return dataclasses.replace(r, value=r.value + step)
