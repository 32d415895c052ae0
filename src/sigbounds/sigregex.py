"""Regular expressions over the comparison alphabet ``<``, ``=``, ``>``.

A word over this alphabet describes how consecutive values of an integer
sequence compare, so a regular expression denotes a family of local shapes
(peaks, terraces, zigzags and so on).  This module provides the expression
syntax, a parser, and a compiler producing a small epsilon-free NFA that the
rest of the package queries.

Concrete syntax::

    <  =  >        single letters
    0              the empty language
    1              the empty word
    r s            concatenation (juxtaposition)
    r | s          union
    r*  r+  r?     iteration, one-or-more, optional
    ( r )          grouping

Whitespace is ignored.  ``+`` and ``?`` are sugar: ``r+`` is ``r r*`` and
``r?`` is ``r | 1``.  The star binds tightest, then concatenation, then union.

The letters happen to be consecutive in ASCII, so plain string comparison of
words agrees with the letter order ``< , = , >`` used throughout the package;
:func:`word_key` additionally sorts by length first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

ALPHABET = "<=>"
LT, EQ, GT = "<", "=", ">"


class RegexError(Exception):
    """Base class for errors raised by this module."""


class ParseError(RegexError):
    """Syntax error in a concrete regular expression.

    Carries the 1-based ``column`` of the offending character.
    """

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class EmptyLanguageError(RegexError):
    """An operation needed a nonempty language but the regex denotes none."""


class NotDisjunctionCapsuledError(RegexError):
    """A branch of the expression is not a concatenation of letters and
    nullable factors."""

    def __init__(self, branch: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"branch {branch} is not disjunction-capsuled{detail}")
        self.branch = branch


def check_word(word: str) -> str:
    """Validate that ``word`` uses only the three comparison letters."""
    for ch in word:
        if ch not in ALPHABET:
            raise ValueError(f"invalid signature letter {ch!r}")
    return word


def word_key(word: str):
    """Sort key realising the canonical word order: length, then letters
    in the order ``<``, ``=``, ``>``."""
    return (len(word), word)


# --------------------------------------------------------------------------
# Abstract syntax

class Regex:
    """Base class of expression nodes.  Instances are immutable."""

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render(self)!r})"


@dataclass(frozen=True, repr=False)
class Empty(Regex):
    """Denotes the empty language."""


@dataclass(frozen=True, repr=False)
class Epsilon(Regex):
    """Denotes the language containing only the empty word."""


@dataclass(frozen=True, repr=False)
class Lit(Regex):
    """A single comparison letter."""

    letter: str

    def __post_init__(self):
        if self.letter not in ALPHABET:
            raise ValueError(f"invalid letter {self.letter!r}")


@dataclass(frozen=True, repr=False)
class Concat(Regex):
    """Concatenation of two or more factors."""

    parts: tuple[Regex, ...]


@dataclass(frozen=True, repr=False)
class Union(Regex):
    """Union of two or more alternatives."""

    parts: tuple[Regex, ...]


@dataclass(frozen=True, repr=False)
class Star(Regex):
    """Kleene iteration."""

    inner: Regex


EMPTY = Empty()
EPSILON = Epsilon()


def concat(parts: Iterable[Regex]) -> Regex:
    """Smart concatenation: flattens, drops epsilons, absorbs the empty set."""
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, Empty):
            return EMPTY
        if isinstance(p, Epsilon):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union(parts: Iterable[Regex]) -> Regex:
    """Smart union: flattens and drops empty-set alternatives.

    Duplicate alternatives are kept; they are harmless and preserving them
    keeps rendering close to the input.
    """
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, Empty):
            continue
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def star(inner: Regex) -> Regex:
    if isinstance(inner, (Empty, Epsilon)):
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """``r+`` desugars to ``r r*``."""
    return concat([inner, star(inner)])


def optional(inner: Regex) -> Regex:
    """``r?`` desugars to ``r | 1``."""
    return union([inner, EPSILON])


def nullable(node: Regex) -> bool:
    """Does the language of ``node`` contain the empty word?"""
    if isinstance(node, (Epsilon, Star)):
        return True
    if isinstance(node, (Empty, Lit)):
        return False
    if isinstance(node, Concat):
        return all(nullable(p) for p in node.parts)
    if isinstance(node, Union):
        return any(nullable(p) for p in node.parts)
    raise TypeError(f"unknown node {node!r}")


# --------------------------------------------------------------------------
# Parsing and rendering

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos + 1)

    def peek(self) -> Optional[str]:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        assert ch is not None
        self.pos += 1
        return ch

    def parse(self) -> Regex:
        node = self.expr()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.peek()!r}")
        return node

    def expr(self) -> Regex:
        branches = [self.term()]
        while self.peek() == "|":
            self.take()
            branches.append(self.term())
        return union(branches)

    def term(self) -> Regex:
        factors: list[Regex] = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            factors.append(self.factor())
        return concat(factors)

    def factor(self) -> Regex:
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = star(node)
            elif ch == "+":
                self.take()
                node = plus(node)
            elif ch == "?":
                self.take()
                node = optional(node)
            else:
                return node

    def atom(self) -> Regex:
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of expression")
        if ch in ALPHABET:
            self.take()
            return Lit(ch)
        if ch == "0":
            self.take()
            return EMPTY
        if ch == "1":
            self.take()
            return EPSILON
        if ch == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                raise self.error("unbalanced parenthesis")
            self.take()
            return node
        raise self.error(f"unexpected {ch!r}")


def parse(text: str) -> Regex:
    """Parse concrete syntax into an expression tree.

    Raises :class:`ParseError` with a 1-based column on malformed input.
    The empty string parses as the empty word.
    """
    return _Parser(text).parse()


def render(node: Regex) -> str:
    """Render a tree back to concrete syntax.

    The output reparses to an equal tree.  Sugar introduced by the parser is
    not reconstructed, so ``><em>+`` renders as its desugared form.
    """

    def prec(n: Regex) -> int:
        if isinstance(n, Union):
            return 0
        if isinstance(n, Concat):
            return 1
        return 2

    def wrap(n: Regex, floor: int) -> str:
        s = go(n)
        if prec(n) < floor:
            return f"({s})"
        return s

    def go(n: Regex) -> str:
        if isinstance(n, Empty):
            return "0"
        if isinstance(n, Epsilon):
            return "1"
        if isinstance(n, Lit):
            return n.letter
        if isinstance(n, Concat):
            return "".join(wrap(p, 2) for p in n.parts)
        if isinstance(n, Union):
            return "|".join(wrap(p, 1) for p in n.parts)
        if isinstance(n, Star):
            return f"{wrap(n.inner, 3)}*"
        raise TypeError(f"unknown node {n!r}")

    return go(node)


# --------------------------------------------------------------------------
# Automata

class Automaton:
    """Epsilon-free NFA over the comparison alphabet.

    States are integers.  The automaton is trimmed: every state lies on some
    path from an initial to an accepting state, except for the canonical
    empty automaton which keeps a single dead initial state.
    """

    __slots__ = ("n_states", "initial", "accepting", "transitions", "_step")

    def __init__(
        self,
        n_states: int,
        initial: frozenset[int],
        accepting: frozenset[int],
        transitions: frozenset[tuple[int, str, int]],
    ):
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self.transitions = transitions
        step: dict[tuple[int, str], set[int]] = {}
        for q, ch, r in transitions:
            step.setdefault((q, ch), set()).add(r)
        self._step = {k: frozenset(v) for k, v in step.items()}

    def __repr__(self) -> str:
        return (
            f"Automaton(states={self.n_states}, initial={sorted(self.initial)}, "
            f"accepting={sorted(self.accepting)}, arcs={len(self.transitions)})"
        )

    @property
    def is_empty(self) -> bool:
        """True iff the language is empty (trimmed automata only)."""
        return not self.accepting

    def step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        out: set[int] = set()
        for q in states:
            out |= self._step.get((q, letter), frozenset())
        return frozenset(out)

    def accepts(self, word: str) -> bool:
        check_word(word)
        cur = self.initial
        for ch in word:
            cur = self.step(cur, ch)
            if not cur:
                return False
        return bool(cur & self.accepting)

    def words_up_to(self, max_len: int) -> list[str]:
        """All accepted words of length at most ``max_len``, in canonical
        order (length first, then letters in the order ``<``, ``=``, ``>``).
        """
        out: list[str] = []
        frontier: list[tuple[str, frozenset[int]]] = [("", self.initial)]
        if self.initial & self.accepting:
            out.append("")
        for _ in range(max_len):
            nxt: list[tuple[str, frozenset[int]]] = []
            for word, states in frontier:
                for ch in ALPHABET:
                    ns = self.step(states, ch)
                    if ns:
                        w = word + ch
                        nxt.append((w, ns))
                        if ns & self.accepting:
                            out.append(w)
            frontier = nxt
            if not frontier:
                break
        return out

    def is_factor(self, word: str) -> bool:
        """Is ``word`` a factor of some word of the language?

        In a trimmed automaton every state is both reachable and
        co-reachable, so it suffices to read ``word`` from the set of all
        states.  The empty word is a factor of anything as long as the
        language itself is nonempty.
        """
        check_word(word)
        if self.is_empty:
            return False
        cur = frozenset(range(self.n_states))
        for ch in word:
            cur = self.step(cur, ch)
            if not cur:
                return False
        return True

    def exists_word_of_length(self, k: int) -> bool:
        """Does the language contain a word of length exactly ``k``?"""
        if k < 0:
            return False
        cur = self.initial
        for _ in range(k):
            nxt: set[int] = set()
            for q in cur:
                for ch in ALPHABET:
                    nxt |= self._step.get((q, ch), frozenset())
            cur = frozenset(nxt)
            if not cur:
                return False
        return bool(cur & self.accepting)

    def shortest_nonempty_length(self) -> Optional[int]:
        """Length of a shortest nonempty accepted word, or None.

        A breadth-first search over states; each arc consumes one letter.
        """
        seen = set(self.initial)
        frontier = set(self.initial)
        dist = 0
        while frontier:
            dist += 1
            nxt: set[int] = set()
            for q in frontier:
                for ch in ALPHABET:
                    nxt |= self._step.get((q, ch), frozenset())
            if nxt & self.accepting:
                return dist
            nxt -= seen
            if not nxt:
                return None
            seen |= nxt
            frontier = nxt

    def intersect(self, other: "Automaton") -> "Automaton":
        """Product automaton for the intersection of the two languages."""
        index: dict[tuple[int, int], int] = {}
        pairs: list[tuple[int, int]] = []

        def get(p: tuple[int, int]) -> int:
            if p not in index:
                index[p] = len(pairs)
                pairs.append(p)
            return index[p]

        initial = set()
        for a in sorted(self.initial):
            for b in sorted(other.initial):
                initial.add(get((a, b)))
        arcs: set[tuple[int, str, int]] = set()
        work = list(range(len(pairs)))
        while work:
            i = work.pop()
            a, b = pairs[i]
            for ch in ALPHABET:
                for ra in self._step.get((a, ch), frozenset()):
                    for rb in other._step.get((b, ch), frozenset()):
                        before = len(pairs)
                        j = get((ra, rb))
                        if j >= before:
                            work.append(j)
                        arcs.add((i, ch, j))
        accepting = {
            i
            for i, (a, b) in enumerate(pairs)
            if a in self.accepting and b in other.accepting
        }
        return _trim(len(pairs), frozenset(initial), frozenset(accepting),
                     frozenset(arcs))


def _trim(
    n_states: int,
    initial: frozenset[int],
    accepting: frozenset[int],
    transitions: frozenset[tuple[int, str, int]],
) -> Automaton:
    """Keep states that are reachable and co-reachable; renumber densely.

    If nothing accepts, return the canonical one-state empty automaton.
    """
    fwd: dict[int, set[int]] = {}
    back: dict[int, set[int]] = {}
    for q, _, r in transitions:
        fwd.setdefault(q, set()).add(r)
        back.setdefault(r, set()).add(q)

    def closure(seeds: frozenset[int], adj: dict[int, set[int]]) -> set[int]:
        seen = set(seeds)
        work = list(seeds)
        while work:
            q = work.pop()
            for r in adj.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    work.append(r)
        return seen

    reach = closure(initial, fwd)
    coreach = closure(accepting, back)
    alive = sorted(reach & coreach)
    if not alive:
        return Automaton(1, frozenset({0}), frozenset(), frozenset())
    renum = {q: i for i, q in enumerate(alive)}
    keep = frozenset(
        (renum[q], ch, renum[r])
        for q, ch, r in transitions
        if q in renum and r in renum
    )
    return Automaton(
        len(alive),
        frozenset(renum[q] for q in initial if q in renum),
        frozenset(renum[q] for q in accepting if q in renum),
        keep,
    )


def compile(node: Regex) -> Automaton:  # noqa: A001 - mirrors re.compile
    """Compile an expression tree to a trimmed epsilon-free NFA.

    Uses the position construction: one state per letter occurrence plus a
    fresh start state, which never produces epsilon transitions.
    """
    positions: list[str] = []

    def walk(n: Regex) -> tuple[bool, frozenset[int], frozenset[int],
                                set[tuple[int, int]]]:
        # returns (nullable, first, last, follow)
        if isinstance(n, Empty):
            return False, frozenset(), frozenset(), set()
        if isinstance(n, Epsilon):
            return True, frozenset(), frozenset(), set()
        if isinstance(n, Lit):
            positions.append(n.letter)
            p = len(positions)
            return False, frozenset({p}), frozenset({p}), set()
        if isinstance(n, Concat):
            nul, first, last, follow = True, frozenset(), frozenset(), set()
            for part in n.parts:
                pn, pf, pl, pw = walk(part)
                follow |= pw
                follow |= {(q, r) for q in last for r in pf}
                if nul:
                    first |= pf
                if pn:
                    last |= pl
                else:
                    last = pl
                nul = nul and pn
            return nul, first, last, follow
        if isinstance(n, Union):
            nul, first, last, follow = False, frozenset(), frozenset(), set()
            for part in n.parts:
                pn, pf, pl, pw = walk(part)
                nul = nul or pn
                first |= pf
                last |= pl
                follow |= pw
            return nul, first, last, follow
        if isinstance(n, Star):
            pn, pf, pl, pw = walk(n.inner)
            pw = set(pw) | {(q, r) for q in pl for r in pf}
            return True, pf, pl, pw
        raise TypeError(f"unknown node {n!r}")

    nul, first, last, follow = walk(node)
    arcs: set[tuple[int, str, int]] = set()
    for p in first:
        arcs.add((0, positions[p - 1], p))
    for q, r in follow:
        arcs.add((q, positions[r - 1], r))
    accepting = set(last)
    if nul:
        accepting.add(0)
    return _trim(len(positions) + 1, frozenset({0}), frozenset(accepting),
                 frozenset(arcs))


@lru_cache(maxsize=None)
def bounded_height_automaton(h: int) -> Automaton:
    """Automaton of all words supportable within ``h + 1`` consecutive levels.

    States are the levels ``0..h``; every state is initial and accepting.
    ``<`` moves strictly up, ``>`` strictly down, ``=`` stays.  A word is
    accepted iff its height is at most ``h``.
    """
    if h < 0:
        raise ValueError("height bound must be nonnegative")
    arcs: set[tuple[int, str, int]] = set()
    for a in range(h + 1):
        arcs.add((a, EQ, a))
        for b in range(h + 1):
            if b > a:
                arcs.add((a, LT, b))
            elif b < a:
                arcs.add((a, GT, b))
    states = frozenset(range(h + 1))
    return Automaton(h + 1, states, states, frozenset(arcs))


def words_of_height_at_most(h: int, length: int) -> Iterator[str]:
    """Yield every word of the given exact length whose height is <= h,
    in canonical letter order."""
    aut = bounded_height_automaton(h)

    def rec(prefix: str, states: frozenset[int]) -> Iterator[str]:
        if len(prefix) == length:
            yield prefix
            return
        for ch in ALPHABET:
            ns = aut.step(states, ch)
            if ns:
                yield from rec(prefix + ch, ns)

    yield from rec("", aut.initial)


def dc_decompose(node: Regex) -> list[list[Regex]]:
    """Split a top-level union into branches and check each is a
    concatenation of letters and nullable factors.

    Returns one factor list per branch.  Raises
    :class:`NotDisjunctionCapsuledError` naming the first offending branch
    (0-based).
    """
    branches = list(node.parts) if isinstance(node, Union) else [node]
    out: list[list[Regex]] = []
    for idx, branch in enumerate(branches):
        parts = list(branch.parts) if isinstance(branch, Concat) else [branch]
        for part in parts:
            if isinstance(part, Lit):
                continue
            if nullable(part):
                continue
            raise NotDisjunctionCapsuledError(
                idx, f"factor {render(part)!r} is neither a letter nor nullable"
            )
        out.append(parts)
    return out
