"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

from functools import reduce
from itertools import product

from sigbounds.series import (
    Domain,
    Occurrence,
    PatternSpec,
    iter_supporting_series,
    maximal_occurrences,
    word_height,
)
from sigbounds.sigregex import (
    ALPHABET,
    Automaton,
    Concat,
    Empty,
    Epsilon,
    Lit,
    Regex,
    Star,
    Union,
    check_word,
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
    lo, hi = occs[i - 1].extended()
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
