"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

from sigbounds.series import Occurrence, PatternSpec
from sigbounds.sigregex import (
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
