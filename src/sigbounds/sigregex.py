"""Regular expressions over the comparison alphabet ``<``, ``=``, ``>``.

A word over this alphabet describes how consecutive values of an integer
sequence compare, so a regular expression denotes a family of local shapes
(peaks, terraces, zigzags and so on).  This module provides the expression
syntax, a parser, and a compiler producing a small epsilon-free NFA that the
rest of the package queries.  The NFA has one transition table, the arcs of
each letter, and state sets are int bitmasks; reading a word runs the subset
construction (Rabin & Scott, 1959) lazily, one remembered (state set,
letter) successor at a time, so no query pays for subsets it never reaches.
Words are listed by one depth-first walk along those successors; lengths,
by one lazy walk of the sets reached by each word length.

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
from functools import reduce
from itertools import islice
from operator import or_
from typing import Iterable, Iterator, Optional

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
    if word.strip(ALPHABET):
        bad = next(ch for ch in word if ch not in ALPHABET)
        raise ValueError(f"invalid signature letter {bad!r}")
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

Arcs = dict[str, tuple[tuple[int, int], ...]]


def states_of(mask: int) -> Iterator[int]:
    """The members of a state set given as a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Automaton:
    """Epsilon-free NFA over the comparison alphabet, read as a lazy DFA.

    States are the integers ``0 .. n_states - 1`` and a set of states is an
    int bitmask, so ``initial`` and ``accepting`` are masks.  ``arcs[letter]``
    is the tuple of arcs ``(q, r)`` reading that letter: the one transition
    table.  :meth:`step` is the subset construction done lazily, each
    (state set, letter) successor computed from ``arcs`` on first use and
    remembered, so a large automaton costs what is read of it and never
    ``2 ** n_states`` up front.  Every length question reads one lazy walk,
    :meth:`_length_sets`, and stops at its own answer.

    The automaton is trimmed: every state lies on some path from an initial
    to an accepting state, except for the canonical empty automaton which
    keeps a single dead initial state.
    """

    __slots__ = ("n_states", "initial", "accepting", "arcs", "_succ",
                 "_next", "_reversal")

    def __init__(self, n_states: int, initial: int, accepting: int,
                 arcs: Arcs):
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self.arcs = {ch: tuple(arcs.get(ch, ())) for ch in ALPHABET}
        self._succ: dict[str, dict[int, int]] = {ch: {} for ch in ALPHABET}
        self._next: Optional[list[int]] = None
        self._reversal: Optional[Automaton] = None

    def __repr__(self) -> str:
        return (f"Automaton(states={self.n_states}, initial={self.initial:#b}, "
                f"accepting={self.accepting:#b}, "
                f"arcs={sum(map(len, self.arcs.values()))})")

    @property
    def is_empty(self) -> bool:
        """True iff the language is empty (trimmed automata only)."""
        return not self.accepting

    def step(self, states: int, letter: str) -> int:
        """The set of states reached from ``states`` by reading ``letter``.

        The first step on a letter files the successors of every single
        state in one pass over the letter's arcs; a larger set's successors
        are the union of its members'.
        """
        memo = self._succ[letter]
        out = memo.get(states)
        if out is None:
            if not memo:
                for q, r in self.arcs[letter]:
                    memo[1 << q] = memo.get(1 << q, 0) | 1 << r
            out = 0
            for q in states_of(states):
                out |= memo.get(1 << q, 0)
            memo[states] = out
        return out

    def _read(self, states: int, word: str) -> int:
        for ch in word:
            if not states:
                break
            states = self.step(states, ch)
        return states

    def accepts(self, word: str) -> bool:
        check_word(word)
        return bool(self._read(self.initial, word) & self.accepting)

    def _prefixes(self, max_len: int) -> Iterator[tuple[str, int]]:
        """Every word of at most ``max_len`` letters that reaches some
        state, with the set it reaches, depth first in letter order.  The
        stack holds at most three entries per letter, so memory grows with
        ``max_len``, not with the number of words."""
        stack = [("", self.initial)]
        while stack:
            word, states = stack.pop()
            yield word, states
            if len(word) < max_len:
                for ch in reversed(ALPHABET):
                    ns = self.step(states, ch)
                    if ns:
                        stack.append((word + ch, ns))

    def reversal(self) -> "Automaton":
        """The automaton of the reversed words, built on first use and kept:
        initial and accepting swapped, every arc turned round."""
        if self._reversal is None:
            self._reversal = Automaton(
                self.n_states, self.accepting, self.initial,
                {ch: tuple((r, q) for q, r in pairs)
                 for ch, pairs in self.arcs.items()})
        return self._reversal

    def words(self, length: int) -> Iterator[str]:
        """The accepted words of exactly ``length`` letters, lazily, in
        letter order."""
        return (w for w, states in self._prefixes(length)
                if len(w) == length and states & self.accepting)

    def words_up_to(self, max_len: int) -> list[str]:
        """All accepted words of length at most ``max_len``, in canonical
        order (length first, then letters in the order ``<``, ``=``, ``>``).
        """
        return sorted((w for w, states in self._prefixes(max_len)
                       if states & self.accepting), key=word_key)

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
        return bool(self._read((1 << self.n_states) - 1, word))

    def _length_sets(self) -> Iterator[int]:
        """The state sets reached by the words of 0, 1, 2, ... letters,
        without end, each from the one before through one successor table
        that merges the three letters, built on first use and kept."""
        if self._next is None:
            self._next = [0] * self.n_states
            for pairs in self.arcs.values():
                for q, r in pairs:
                    self._next[q] |= 1 << r
        succ, cur = self._next, self.initial
        while True:
            yield cur
            cur = reduce(or_, map(succ.__getitem__, states_of(cur)), 0)

    def has_length(self, m: int) -> bool:
        """Does the language have a word of exactly ``m`` letters?

        Reads set m, or stops at the first set j that repeats an earlier
        set i: from there the sets cycle with period j - i.
        """
        if m < 0:
            return False
        first: dict[int, int] = {}
        for j, cur in enumerate(self._length_sets()):
            i = first.setdefault(cur, j)
            if j == m:
                break
            if i < j:
                cur = list(first)[i + (m - i) % (j - i)]
                break
        return bool(cur & self.accepting)

    def shortest_nonempty_length(self) -> Optional[int]:
        """Length of a shortest nonempty accepted word, or None.

        A shortest nonempty accepting path repeats no state after its first
        arc, so it has at most ``n_states`` letters.
        """
        sets = islice(self._length_sets(), 1, self.n_states + 1)
        return next((m for m, cur in enumerate(sets, 1)
                     if cur & self.accepting), None)

    def intersect(self, other: "Automaton") -> "Automaton":
        """Product automaton for the intersection of the two languages.

        The pair ``(a, b)`` is state ``a * other.n_states + b``; pairing the
        arcs of each letter builds the whole product, and trimming keeps the
        pairs that matter.
        """
        width = other.n_states
        arcs = {
            ch: tuple((a * width + b, ra * width + rb)
                      for a, ra in self.arcs[ch]
                      for b, rb in other.arcs[ch])
            for ch in ALPHABET
        }
        return _trim(
            self.n_states * width,
            sum(other.initial << a * width for a in states_of(self.initial)),
            sum(other.accepting << a * width for a in states_of(self.accepting)),
            arcs)


def _trim(n_states: int, initial: int, accepting: int, arcs: Arcs) -> Automaton:
    """Keep states that are reachable and co-reachable; renumber densely.

    If nothing accepts, return the canonical one-state empty automaton.
    """
    fwd: dict[int, list[int]] = {}
    back: dict[int, list[int]] = {}
    for pairs in arcs.values():
        for q, r in pairs:
            fwd.setdefault(q, []).append(r)
            back.setdefault(r, []).append(q)

    def closure(seeds: int, adj: dict[int, list[int]]) -> int:
        seen = seeds
        work = list(states_of(seeds))
        while work:
            for r in adj.get(work.pop(), ()):
                if not seen >> r & 1:
                    seen |= 1 << r
                    work.append(r)
        return seen

    alive = list(states_of(closure(initial, fwd) & closure(accepting, back)))
    if not alive:
        return Automaton(1, 1, 0, {})
    renum = {q: i for i, q in enumerate(alive)}
    return Automaton(
        len(alive),
        sum(1 << i for i, q in enumerate(alive) if initial >> q & 1),
        sum(1 << i for i, q in enumerate(alive) if accepting >> q & 1),
        {ch: tuple(sorted((renum[q], renum[r]) for q, r in pairs
                          if q in renum and r in renum))
         for ch, pairs in arcs.items()},
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
    arcs: dict[str, list[tuple[int, int]]] = {ch: [] for ch in ALPHABET}
    for q, r in [(0, p) for p in first] + list(follow):
        arcs[positions[r - 1]].append((q, r))
    accepting = sum(1 << p for p in last) | int(nul)
    return _trim(len(positions) + 1, 1, accepting, arcs)


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
