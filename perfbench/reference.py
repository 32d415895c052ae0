"""Independent reference for the ``scan`` workload.

A signature regex is parsed here from its text and matched with Brzozowski
derivatives, built lazily into a DFA; no code of ``sigbounds`` is used, so
a defect in its parser, automaton or occurrence scan cannot hide in the
reference.  Trim constants, features and aggregator defaults follow the
definitions in the README: occurrence (i, j) keeps variables
``i + b .. j + 1 - a``, and with no occurrence ``sum`` and ``max`` give 0
and ``min`` gives +inf.
"""

from __future__ import annotations

import math

EMPTY = ("0",)
EPS = ("1",)


def _union(parts) -> tuple:
    flat = set()
    for p in parts:
        if p == EMPTY:
            continue
        flat.update(p[1] if p[0] == "|" else (p,))
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return next(iter(flat))
    return ("|", frozenset(flat))


def _concat(a: tuple, b: tuple) -> tuple:
    if EMPTY in (a, b):
        return EMPTY
    if a == EPS:
        return b
    if b == EPS:
        return a
    if a[0] == ".":
        return (".", a[1], _concat(a[2], b))
    return (".", a, b)


def _star(a: tuple) -> tuple:
    if a in (EMPTY, EPS):
        return EPS
    return a if a[0] == "*" else ("*", a)


def parse(text: str) -> tuple:
    """Parse ``|``, concatenation, ``* + ?``, parentheses, ``0`` and ``1``."""
    toks = [c for c in text if not c.isspace()]
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def expr():
        nonlocal pos
        branches = [term()]
        while peek() == "|":
            pos += 1
            branches.append(term())
        return _union(branches)

    def term():
        node = EPS
        while peek() not in (None, "|", ")"):
            node = _concat(node, factor())
        return node

    def factor():
        nonlocal pos
        node = atom()
        while peek() in ("*", "+", "?"):
            op = toks[pos]
            pos += 1
            if op == "*":
                node = _star(node)
            elif op == "+":
                node = _concat(node, _star(node))
            else:
                node = _union([node, EPS])
        return node

    def atom():
        nonlocal pos
        c = peek()
        if c is None:
            raise ValueError(f"unexpected end of {text!r}")
        pos += 1
        if c in "<=>":
            return ("c", c)
        if c == "0":
            return EMPTY
        if c == "1":
            return EPS
        if c == "(":
            node = expr()
            if peek() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        raise ValueError(f"unexpected {c!r} in {text!r}")

    node = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return node


def nullable(r: tuple) -> bool:
    kind = r[0]
    if kind in ("1", "*"):
        return True
    if kind in ("0", "c"):
        return False
    if kind == ".":
        return nullable(r[1]) and nullable(r[2])
    return any(nullable(p) for p in r[1])


def derive(r: tuple, ch: str) -> tuple:
    """The words w such that ch + w is in the language of r."""
    kind = r[0]
    if kind in ("0", "1"):
        return EMPTY
    if kind == "c":
        return EPS if r[1] == ch else EMPTY
    if kind == "|":
        return _union(derive(p, ch) for p in r[1])
    if kind == "*":
        return _concat(derive(r[1], ch), r)
    head = _concat(derive(r[1], ch), r[2])
    if nullable(r[1]):
        return _union([head, derive(r[2], ch)])
    return head


class Matcher:
    """Lazy DFA whose states are derivatives of one regex."""

    def __init__(self, text: str):
        self.start = parse(text)
        self._next: dict = {}
        self._accepting: dict = {}

    def step(self, state: tuple, ch: str) -> tuple:
        key = (state, ch)
        nxt = self._next.get(key)
        if nxt is None:
            nxt = self._next[key] = derive(state, ch)
        return nxt

    def accepting(self, state: tuple) -> bool:
        acc = self._accepting.get(state)
        if acc is None:
            acc = self._accepting[state] = nullable(state)
        return acc

    def maximal_spans(self, sig: str) -> list[tuple[int, int]]:
        """1-based (i, j) of nonempty matches not strictly inside another.

        Only the longest match from each start can be maximal, and it is
        maximal exactly when every earlier start's longest match ends
        before it.
        """
        out = []
        reach = 0
        for i in range(len(sig)):
            state, last = self.start, None
            for j in range(i, len(sig)):
                state = self.step(state, sig[j])
                if state == EMPTY:
                    break
                if self.accepting(state):
                    last = j + 1
            if last is not None and last > reach:
                out.append((i + 1, last))
                reach = last
        return out


def signature(values) -> str:
    return "".join("<" if x < y else "=" if x == y else ">"
                   for x, y in zip(values, values[1:]))


def evaluate(matcher: Matcher, a: int, b: int, f: str, g: str, values):
    """Aggregate feature f over the trimmed maximal occurrences."""
    feats = []
    for i, j in matcher.maximal_spans(signature(values)):
        lo, hi = i + b, j + 1 - a
        if lo > hi:
            raise ValueError(f"occurrence ({i},{j}) trims to nothing")
        window = values[lo - 1:hi]
        feats.append({"one": 1, "width": hi - lo + 1, "max": max(window),
                      "min": min(window), "surf": sum(window)}[f])
    if not feats:
        return {"sum": 0, "max": 0, "min": math.inf}[g]
    return {"sum": sum, "max": max, "min": min}[g](feats)
