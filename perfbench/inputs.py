"""Seeded inputs for the benchmark workloads.

Everything here is plain data built from ``random.Random`` and the pattern
names and sizes in ``catalogue.json``; nothing imports ``sigbounds``, so the
program under test only ever sees the generated inputs.  The same
(workload, seed, block) always yields the same operations.

A workload's run is a sequence of cycles, and a cycle is a list of blocks.
Every block runs in a fresh interpreter, so the caches that ``sigbounds``
keys by pattern never carry over from one block to the next.  A cycle of
``certify`` or ``analyze`` covers a fixed set of cases, which the seed
only deals out to the blocks and orders; the mix of cheap and heavy
operations, and with it the run's figures, does not depend on the seed:

* ``certify``: three blocks per cycle.  In block b every catalogue pattern
  certifies one cell for each length n in 2..7, the domain stepping
  through 0:1, 0:2, 0:3 with n from a seeded offset per pattern plus b, so
  a cycle is the full default grid, each cell once.
* ``analyze``: three blocks per cycle.  Block b analyses every catalogue
  pattern at one span among eta, eta+1, eta+2 (a seeded offset per pattern,
  plus b), so a cycle covers every (pattern, span) once.  A cycle also
  analyses every one-branch regex of the raw grammar (see
  ``raw_universe``) once, dealt to the blocks and to the spans in
  ``RAW_SPANS`` in equal shares by the seed, plus a seeded draw of
  two-branch regexes, ``RAW_DRAWN_PER_BLOCK`` per block.
* ``scan``: one block per cycle.  Every pattern is evaluated on one
  random walk of each length in ``WALK_LENGTHS``, each with a seeded (g, f)
  from ``SCAN_GF``, and on one constant series.  The seed draws the walks'
  steps and the constant, not the lengths, so the mix of cheap and heavy
  operations is the same on every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

CATALOGUE_JSON = Path("src") / "sigbounds" / "catalogue.json"

LETTERS = "<=>"
DOMAINS = ((0, 1), (0, 2), (0, 3))
CERTIFY_NS = tuple(range(2, 8))
RAW_DRAWN_PER_BLOCK = 15
RAW_CROSS_CHECK_EVERY = 3  # raw regexes re-derived by the oracle: every third
RAW_MAX_WIDTH = 2
RAW_SPANS = (1, 2, 3)
# A nullable factor of a raw regex: a letter under * or ?, or a two-letter
# union under ?.  A starred union would let the word count under the search
# cap, and with it the cost, grow by orders of magnitude from one regex to
# the next.
RAW_NULLABLE = tuple([a + op for a in LETTERS for op in "*?"]
                     + [f"({a}|{b})?" for a in LETTERS for b in LETTERS
                        if a != b])
SCAN_GF = (("sum", "one"), ("max", "width"), ("min", "surf"))
# The scan's cost grows faster than linearly with length; each pattern gets
# one walk of each length per cycle.  Five lengths, not fewer, so that the
# operations' costs leave no wide gap around the median.
WALK_LENGTHS = (1000, 1500, 2000, 2500, 3000)
CONST_LEN = 200

WORKLOADS = ("certify", "analyze", "scan")


def catalogue_patterns(root: Path = Path(".")) -> list[dict]:
    """Name, expression, trims, width and height of every catalogue
    pattern, sorted by name, as written in the shipped reference file."""
    data = json.loads((root / CATALOGUE_JSON).read_text("utf-8"))
    return sorted(
        ({key: p[key] for key in ("name", "expr", "a", "b", "omega", "eta")}
         for p in data["patterns"]),
        key=lambda p: p["name"],
    )


def blocks_per_cycle(workload: str) -> int:
    return 1 if workload == "scan" else 3


def random_walk(rng: random.Random, length: int) -> tuple[int, ...]:
    """Integer walk from 0 with steps -1, 0, +1 drawn uniformly."""
    x = 0
    out = []
    for _ in range(length):
        out.append(x)
        x += rng.choice((-1, 0, 1))
    return tuple(out)


def constant_series(rng: random.Random, length: int) -> tuple[int, ...]:
    return (rng.randint(-50, 50),) * length


def raw_branch(letters: str, nullable: str | None, at: int) -> str:
    """``letters`` with the nullable factor, if any, inserted at ``at``."""
    factors = list(letters)
    if nullable is not None:
        factors.insert(at, nullable)
    return "".join(factors)


def raw_universe() -> list[str]:
    """Every one-branch raw regex: one to RAW_MAX_WIDTH letters with at most
    one factor from RAW_NULLABLE inserted anywhere (408 regexes)."""
    out = []
    for width in range(1, RAW_MAX_WIDTH + 1):
        for letters in itertools.product(LETTERS, repeat=width):
            out.append(raw_branch(letters, None, 0))
            out.extend(raw_branch(letters, factor, at)
                       for factor in RAW_NULLABLE
                       for at in range(width + 1))
    return out


def raw_regex(rng: random.Random) -> str:
    """A disjunction of two branches drawn like those of ``raw_universe``,
    each with a nullable factor seven times in ten."""
    branches = []
    for _ in range(2):
        letters = [rng.choice(LETTERS)
                   for _ in range(rng.randint(1, RAW_MAX_WIDTH))]
        nullable = (rng.choice(RAW_NULLABLE) if rng.random() < 0.7
                    else None)
        branches.append(raw_branch(letters, nullable,
                                   rng.randint(0, len(letters))))
    return "|".join(branches)


def _offsets(seed: int, workload: str, names: list[str]) -> dict:
    """Seeded offsets 0, 1, 2, 0, 1, 2, ... dealt to the names.

    Each offset goes to a third of the names, so every block of a cycle
    gets the same mix of domains (or spans) whatever the seed.
    """
    names = list(names)
    random.Random(f"{workload}:offsets:{seed}").shuffle(names)
    return {name: k % 3 for k, name in enumerate(names)}


def certify_block(seed: int, block: int, patterns: list[dict]) -> list[dict]:
    off = _offsets(seed, "certify", [p["name"] for p in patterns])
    ops = []
    for p in patterns:
        for k, n in enumerate(CERTIFY_NS):
            lo, hi = DOMAINS[(off[p["name"]] + k + block) % len(DOMAINS)]
            ops.append({"kind": "cell", "pattern": p["name"], "n": n,
                        "lo": lo, "hi": hi})
    random.Random(f"certify:order:{seed}:{block}").shuffle(ops)
    return ops


def analyze_block(seed: int, block: int, patterns: list[dict]) -> list[dict]:
    off = _offsets(seed, "analyze", [p["name"] for p in patterns])
    ops = []
    for p in patterns:
        span = p["eta"] + (off[p["name"]] + block) % 3
        ops.append({"kind": "catalogue", "pattern": p["name"], "span": span,
                    "ns": (p["omega"] + 1, p["omega"] + 2)})
    dealt = raw_universe()
    random.Random(f"analyze:raw:{seed}").shuffle(dealt)
    # the k-th regex goes to block k % 3 at span (k // 3) % 3
    raw = [(expr, RAW_SPANS[k // 3 % len(RAW_SPANS)])
           for k, expr in enumerate(dealt) if k % 3 == block % 3]
    rng = random.Random(f"analyze:raw:{seed}:{block}")
    raw += [(raw_regex(rng), rng.choice(RAW_SPANS))
            for _ in range(RAW_DRAWN_PER_BLOCK)]
    rng.shuffle(raw)
    for k, (expr, span) in enumerate(raw):
        ops.append({"kind": "raw", "expr": expr, "span": span,
                    "cross_check": k % RAW_CROSS_CHECK_EVERY == 0})
    random.Random(f"analyze:order:{seed}:{block}").shuffle(ops)
    return ops


def scan_block(seed: int, cycle: int, patterns: list[dict]) -> list[dict]:
    rng = random.Random(f"scan:{seed}:{cycle}")
    ops = []
    for p in patterns:
        for length in WALK_LENGTHS:
            g, f = rng.choice(SCAN_GF)
            ops.append({"kind": "walk", "pattern": p["name"], "g": g,
                        "f": f, "series": random_walk(rng, length)})
    flat = constant_series(rng, CONST_LEN)
    for p in patterns:
        g, f = rng.choice(SCAN_GF)
        ops.append({"kind": "constant", "pattern": p["name"], "g": g,
                    "f": f, "series": flat})
    rng.shuffle(ops)
    return ops


BUILDERS = {"certify": certify_block, "analyze": analyze_block,
            "scan": scan_block}


def block_ops(workload: str, seed: int, block: int,
              patterns: list[dict]) -> list[dict]:
    """The operations of one block; ``block`` counts from 0 over the run."""
    return BUILDERS[workload](seed, block, patterns)
